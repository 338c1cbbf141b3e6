"""Scenario documents: parsing, validation, and canonical emission.

A scenario is a YAML document with typed scalar fields. Dimensioned
values are written with SI unit suffixes ("452nA", "2.2V", "10min") and
normalised at parse time onto the simulator's internal grids; parsing
goes through Decimal so that decimal literals land exactly. Validation
reports the offending field path and source line, applies documented
defaults for omitted fields, and flags the threshold defaults loudly
because those are configuration choices, not measured values.

emit_scenario writes a canonical form (fixed key order, base units)
such that parse(emit(s)) == s.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal, DecimalException
from typing import Any

import yaml

from .energy import AlwaysOnBudget, HarvesterModel, LoadStep, StorageElement, validate_script
from .pmic import PmicConfig
from .quantities import Current, Duration, Energy, Illuminance, Power, TimePoint, Voltage
from .wake import RtcConfig, TouchScript

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


class VariantKind(enum.Enum):
    HARDWARE_GATED = "hardware_gated"
    SOFTWARE_SLEEP = "software_sleep"


@dataclass(frozen=True)
class DpmVariant:
    """Which power-management strategy the node under test uses.

    hardware_gated cuts the compute domain completely between bursts so
    only the always-on budget drains; software_sleep keeps the MCU in
    its sleep state instead, replacing the idle drain with i_sleep while
    the active steps stay identical.
    """

    kind: VariantKind = VariantKind.HARDWARE_GATED
    i_sleep: Current | None = None

    def __post_init__(self) -> None:
        if (self.kind is VariantKind.SOFTWARE_SLEEP) != (self.i_sleep is not None):
            raise ValueError("i_sleep is required for software_sleep and only software_sleep")


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    name: str
    description: str
    pmic: PmicConfig
    storage: StorageElement
    always_on: AlwaysOnBudget
    rtc: RtcConfig
    touch: TouchScript
    harvester: HarvesterModel
    light_timeline: tuple[tuple[TimePoint, Illuminance], ...]
    load_script: tuple[LoadStep, ...]
    dpm_variant: DpmVariant
    duration: Duration
    # Validation notes (defaults applied, flagged fields); not part of identity.
    warnings: tuple[str, ...] = field(default=(), compare=False)


# --- quantity text ------------------------------------------------------

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-zµμ]*)\s*$"
)

_TIME = {"us": 1, "ms": 10**3, "s": 10**6, "min": 60 * 10**6, "h": 3600 * 10**6}

# Per quantity type: the dimension, the attribute holding the value in the
# base unit, whether that value is an integer on the base unit's grid, and
# the accepted suffixes with their scale to the base unit, base unit first.
# A bare float is a store's capacity in mAh.
_QUANTITIES: dict[type, tuple[str, str | None, bool, dict[str, int]]] = {
    Duration: ("time", "us", True, _TIME),
    TimePoint: ("time", "us", True, _TIME),
    Voltage: ("voltage", "uv", True, {"uV": 1, "mV": 10**3, "V": 10**6}),
    Current: ("current", "na", True, {"nA": 1, "uA": 10**3, "mA": 10**6, "A": 10**9}),
    Power: ("power", "nw", False, {"nW": 1, "uW": 10**3, "mW": 10**6, "W": 10**9}),
    Energy: ("energy", "nj", False, {"nJ": 1, "uJ": 10**3, "mJ": 10**6, "J": 10**9}),
    Illuminance: ("illuminance", "lux", False, {"lux": 1, "": 1}),
    float: ("charge", None, False, {"mAh": 1, "Ah": 10**3}),
}


def parse_quantity(value: Any, kind: type) -> Any:
    """Read a number with a unit suffix ("452nA", "2.2V", "10min") as kind.

    The value is scaled through Decimal so that decimal literals land
    exactly; it must be finite, fit kind, and for integer kinds land on
    the base unit's grid.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ScenarioError(f"expected a quantity string, got {value!r}")
    text = str(value)
    dimension, _, integral, scales = _QUANTITIES[kind]
    match = _NUMBER_RE.match(text)
    if not match:
        raise ScenarioError(f"cannot read {text!r} as a number with a unit suffix")
    number, suffix = match.groups()
    suffix = suffix.replace("µ", "u").replace("μ", "u")
    if suffix not in scales:
        expected = ", ".join(sorted(u for u in scales if u))
        raise ScenarioError(f"{text!r} is not a {dimension} (expected a suffix from: {expected})")
    try:
        scaled = Decimal(number) * scales[suffix]
    except DecimalException as exc:
        raise ScenarioError(f"cannot read {text!r} as a number") from exc
    if integral:
        magnitude: int | float = int(scaled)
        if magnitude != scaled:
            raise ScenarioError(f"{text!r} does not land on the 1 {next(iter(scales))} grid")
        if kind is TimePoint and magnitude < 0:
            raise ScenarioError(f"{text!r}: time points cannot be negative")
    else:
        magnitude = float(scaled)
        if not math.isfinite(magnitude):
            raise ScenarioError(f"{text!r} is not a finite {dimension}")
    try:
        return kind(magnitude)
    except OverflowError as exc:
        raise ScenarioError(str(exc)) from exc


def quantity_text(q: Any) -> str:
    """The canonical text of a quantity: its exact value in the base unit."""
    _, attr, integral, scales = _QUANTITIES[type(q)]
    value = q if attr is None else getattr(q, attr)
    return f"{value if integral else repr(float(value))}{next(iter(scales))}"


# --- YAML loading with source lines ------------------------------------


@dataclass
class _Node:
    value: Any
    line: int


def _load_tree(text: str) -> _Node:
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from exc
    if root is None:
        raise ScenarioError("scenario document is empty")
    constructor = yaml.SafeLoader("")
    return _walk(root, constructor)


def _walk(node: yaml.Node, constructor: yaml.SafeLoader) -> _Node:
    line = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        mapping: dict[str, _Node] = {}
        for key_node, value_node in node.value:
            key = constructor.construct_object(key_node)
            if not isinstance(key, str):
                raise ScenarioError(f"line {key_node.start_mark.line + 1}: mapping keys must be strings")
            if key in mapping:
                raise ScenarioError(f"line {key_node.start_mark.line + 1}: duplicate key {key!r}")
            mapping[key] = _walk(value_node, constructor)
        return _Node(mapping, line)
    if isinstance(node, yaml.SequenceNode):
        return _Node([_walk(item, constructor) for item in node.value], line)
    return _Node(constructor.construct_object(node), line)


class _Section:
    """One mapping in the document, with field-path error reporting."""

    def __init__(self, node: _Node | None, path: str):
        self.path = path
        self.line = node.line if node is not None else 0
        if node is None:
            self.fields: dict[str, _Node] = {}
        else:
            if not isinstance(node.value, dict):
                raise ScenarioError(f"{path} (line {node.line}): expected a mapping")
            self.fields = node.value
        self.seen: set[str] = set()

    def sub(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def where(self, key: str) -> str:
        node = self.fields.get(key)
        suffix = f" (line {node.line})" if node is not None else ""
        return f"{self.sub(key)}{suffix}"

    def take(self, key: str) -> _Node | None:
        self.seen.add(key)
        return self.fields.get(key)

    def scalar(self, key: str, kind, default, *, missing: list[str] | None = None):
        """Read key as a quantity type from _QUANTITIES or through a checker."""
        node = self.take(key)
        if node is None:
            if default is _REQUIRED:
                raise ScenarioError(f"{self.where(key)}: required field is missing")
            if missing is not None:
                missing.append(key)
            return default
        if isinstance(node.value, (dict, list)):
            raise ScenarioError(f"{self.where(key)}: expected a scalar")
        try:
            return _read(node.value, kind)
        except ValueError as exc:
            raise ScenarioError(f"{self.where(key)}: {exc}") from exc

    def section(self, key: str) -> "_Section":
        return _Section(self.take(key), self.sub(key))

    def sequence(self, key: str) -> list[_Node] | None:
        node = self.take(key)
        if node is None:
            return None
        if not isinstance(node.value, list):
            raise ScenarioError(f"{self.where(key)}: expected a list")
        return node.value

    def items(self, key: str, kinds: tuple, default):
        """Read a list of single values (one kind) or of [x, y] pairs (two)."""
        nodes = self.sequence(key)
        if nodes is None:
            return default
        values = []
        for i, entry in enumerate(nodes):
            where = f"{self.sub(key)}[{i}] (line {entry.line})"
            if len(kinds) == 1:
                parts = [entry]
            elif isinstance(entry.value, list) and len(entry.value) == 2:
                parts = entry.value
            else:
                raise ScenarioError(f"{where}: expected a [x, y] pair")
            try:
                read = tuple(_read(part.value, kind) for part, kind in zip(parts, kinds))
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
            values.append(read if len(kinds) > 1 else read[0])
        return tuple(values)

    def reject_unknown(self) -> None:
        for key, node in self.fields.items():
            if key not in self.seen:
                raise ScenarioError(f"{self.sub(key)} (line {node.line}): unknown field")


_REQUIRED = object()  # the default of a field the file must set


def _read(value: Any, kind) -> Any:
    return parse_quantity(value, kind) if kind in _QUANTITIES else kind(value)


def _fraction(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number in [0, 1], got {value!r}")
    return float(value)


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"expected true or false, got {value!r}")
    return value


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"expected a string, got {value!r}")
    return value


def _int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"expected an integer, got {value!r}")
    return value


# --- parsing ------------------------------------------------------------


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    root = _Section(_load_tree(text), "")
    warnings: list[str] = []

    version = root.scalar("schema_version", _int, _REQUIRED)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: this build reads version {SCHEMA_VERSION}, file says {version}"
        )

    meta = root.section("meta")
    name = meta.scalar("name", _string, "unnamed")
    description = meta.scalar("description", _string, "")
    meta.reject_unknown()

    pmic_sec = root.section("pmic")
    flagged: list[str] = []
    pmic = PmicConfig(
        v_cold_start=pmic_sec.scalar("v_cold_start", Voltage, PmicConfig.v_cold_start),
        p_cold_start=pmic_sec.scalar("p_cold_start", Power, PmicConfig.p_cold_start),
        v_chrdy=pmic_sec.scalar("v_chrdy", Voltage, PmicConfig.v_chrdy, missing=flagged),
        v_ovch=pmic_sec.scalar("v_ovch", Voltage, PmicConfig.v_ovch, missing=flagged),
        v_ovch_hysteresis=pmic_sec.scalar(
            "v_ovch_hysteresis", Voltage, PmicConfig.v_ovch_hysteresis, missing=flagged
        ),
        grace_window=pmic_sec.scalar("grace_window", Duration, PmicConfig.grace_window),
    )
    # Schema v1 still carries pmic.i_quiescent; the drain it names is always_on.i_pmic.
    i_quiescent = pmic_sec.scalar("i_quiescent", Current, None)
    pmic_sec.reject_unknown()
    for key in flagged:
        default = getattr(PmicConfig, key)
        warnings.append(
            f"pmic.{key} not set; using the documented default of {default.uv} uV. "
            "This threshold is a configuration choice, not a measured value."
        )

    always_sec = root.section("always_on")
    always_on = AlwaysOnBudget(
        i_pmic=always_sec.scalar("i_pmic", Current, AlwaysOnBudget.i_pmic),
        i_rtc=always_sec.scalar("i_rtc", Current, AlwaysOnBudget.i_rtc),
        i_touch=always_sec.scalar("i_touch", Current, AlwaysOnBudget.i_touch),
        i_extra_leakage=always_sec.scalar("i_extra_leakage", Current, AlwaysOnBudget.i_extra_leakage),
        rail_voltage=always_sec.scalar("rail_voltage", Voltage, AlwaysOnBudget.rail_voltage),
    )
    always_sec.reject_unknown()
    if i_quiescent is not None and i_quiescent != always_on.i_pmic:
        raise ScenarioError(
            f"{pmic_sec.where('i_quiescent')} is {i_quiescent.na} nA but {always_sec.where('i_pmic')} "
            f"is {always_on.i_pmic.na} nA; the two name the same PMIC drain and must agree"
        )

    storage_sec = root.section("storage")
    # Read every field first, so that a field's own error keeps its path.
    curve = storage_sec.items("ocv_curve", (_fraction, Voltage), StorageElement.ocv_curve)
    capacity = storage_sec.scalar("capacity", float, StorageElement.capacity_mah)
    nominal = storage_sec.scalar("nominal_voltage", Voltage, StorageElement.nominal_voltage)
    soc = storage_sec.scalar("initial_soc", _fraction, StorageElement.initial_soc)
    try:
        storage = StorageElement(
            capacity_mah=capacity, nominal_voltage=nominal, initial_soc=soc, ocv_curve=curve
        )
    except ValueError as exc:
        raise ScenarioError(f"storage (line {storage_sec.line}): {exc}") from exc
    storage_sec.reject_unknown()

    rtc_sec = root.section("rtc")
    rtc = RtcConfig(
        alarm_period=rtc_sec.scalar("alarm_period", Duration, RtcConfig.alarm_period),
        first_alarm=rtc_sec.scalar("first_alarm", TimePoint, RtcConfig.first_alarm),
        rearm_on_clear=rtc_sec.scalar("rearm_on_clear", _bool, RtcConfig.rearm_on_clear),
    )
    rtc_sec.reject_unknown()

    touch_sec = root.section("touch")
    touch = TouchScript(press_times=touch_sec.items("press_times", (TimePoint,), TouchScript.press_times))
    touch_sec.reject_unknown()

    harv_sec = root.section("harvester")
    calibration = harv_sec.items("calibration", (Illuminance, Power), None)
    if calibration is None:
        raise ScenarioError(f"harvester.calibration (line {harv_sec.line}): required field is missing")
    harvester = HarvesterModel(
        calibration=calibration,
        v_open_circuit=harv_sec.scalar("v_open_circuit", Voltage, HarvesterModel.v_open_circuit),
    )
    harv_sec.reject_unknown()

    timeline = root.items(
        "light_timeline", (TimePoint, Illuminance), ((TimePoint.zero(), Illuminance(0.0)),)
    )

    script_nodes = root.sequence("load_script")
    steps: list[LoadStep] = []
    if script_nodes is not None:
        for i, entry in enumerate(script_nodes):
            if not isinstance(entry.value, dict):
                raise ScenarioError(f"load_script[{i}] (line {entry.line}): expected a mapping")
            step_sec = _Section(entry, f"load_script[{i}]")
            steps.append(
                LoadStep(
                    name=step_sec.scalar("name", _string, _REQUIRED),
                    duration=step_sec.scalar("duration", Duration, _REQUIRED),
                    energy=step_sec.scalar("energy", Energy, _REQUIRED),
                )
            )
            step_sec.reject_unknown()

    variant_sec = root.section("dpm_variant")
    kind_name = variant_sec.scalar("kind", _string, "hardware_gated")
    try:
        kind = VariantKind(kind_name)
    except ValueError:
        raise ScenarioError(
            f"{variant_sec.where('kind')}: kind must be 'hardware_gated' or 'software_sleep'"
        ) from None
    i_sleep = variant_sec.scalar("i_sleep", Current, None)
    variant_sec.reject_unknown()
    if kind is VariantKind.SOFTWARE_SLEEP and i_sleep is None:
        raise ScenarioError(f"{variant_sec.where('kind')}: software_sleep requires i_sleep")
    if kind is VariantKind.HARDWARE_GATED and i_sleep is not None:
        raise ScenarioError(f"{variant_sec.where('i_sleep')}: i_sleep only applies to software_sleep")
    variant = DpmVariant(kind=kind, i_sleep=i_sleep)

    sim_sec = root.section("sim")
    duration = sim_sec.scalar("duration", Duration, _REQUIRED)
    sim_sec.reject_unknown()

    root.reject_unknown()

    scenario = Scenario(
        schema_version=version,
        name=name,
        description=description,
        pmic=pmic,
        storage=storage,
        always_on=always_on,
        rtc=rtc,
        touch=touch,
        harvester=harvester,
        light_timeline=timeline,
        load_script=tuple(steps),
        dpm_variant=variant,
        duration=duration,
        warnings=tuple(warnings),
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario) -> None:
    """Cross-field validation; raises ScenarioError on the first problem."""
    try:
        s.pmic.validate()
        s.always_on.validate()
        s.rtc.validate()
        s.touch.validate()
        s.harvester.validate()
        validate_script(s.load_script)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if s.duration.us <= 0:
        raise ScenarioError("sim.duration must be positive")
    v_empty = s.storage.v_empty
    v_full = s.storage.v_full
    if not v_empty < s.pmic.v_chrdy:
        raise ScenarioError(
            f"pmic.v_chrdy ({s.pmic.v_chrdy.uv} uV) must sit above the empty-store voltage ({v_empty.uv} uV)"
        )
    if s.pmic.v_ovch > v_full:
        raise ScenarioError(
            f"pmic.v_ovch ({s.pmic.v_ovch.uv} uV) must sit within the OCV range (full = {v_full.uv} uV)"
        )
    if not s.light_timeline:
        raise ScenarioError("light_timeline must contain at least one entry")
    if s.light_timeline[0][0] != TimePoint.zero():
        raise ScenarioError("light_timeline must start at 0s")
    for (t0, _), (t1, _) in zip(s.light_timeline, s.light_timeline[1:]):
        if t1 <= t0:
            raise ScenarioError(f"light_timeline times must be strictly increasing ({t0.us} -> {t1.us})")
    for _, lux in s.light_timeline:
        if lux.lux < 0:
            raise ScenarioError("light_timeline illuminance cannot be negative")


# --- canonical emission --------------------------------------------------


def canonical_dict(s: Scenario) -> dict:
    """The scenario as plain data in canonical key order and base units."""
    q = quantity_text
    variant: dict[str, Any] = {"kind": s.dpm_variant.kind.value}
    if s.dpm_variant.i_sleep is not None:
        variant["i_sleep"] = q(s.dpm_variant.i_sleep)
    return {
        "schema_version": s.schema_version,
        "meta": {"name": s.name, "description": s.description},
        "pmic": {
            "v_cold_start": q(s.pmic.v_cold_start),
            "p_cold_start": q(s.pmic.p_cold_start),
            "v_chrdy": q(s.pmic.v_chrdy),
            "v_ovch": q(s.pmic.v_ovch),
            "v_ovch_hysteresis": q(s.pmic.v_ovch_hysteresis),
            "grace_window": q(s.pmic.grace_window),
            "i_quiescent": q(s.always_on.i_pmic),
        },
        "storage": {
            "capacity": q(float(s.storage.capacity_mah)),
            "nominal_voltage": q(s.storage.nominal_voltage),
            "initial_soc": s.storage.initial_soc,
            "ocv_curve": [[soc, q(v)] for soc, v in s.storage.ocv_curve],
        },
        "always_on": {
            "i_pmic": q(s.always_on.i_pmic),
            "i_rtc": q(s.always_on.i_rtc),
            "i_touch": q(s.always_on.i_touch),
            "i_extra_leakage": q(s.always_on.i_extra_leakage),
            "rail_voltage": q(s.always_on.rail_voltage),
        },
        "rtc": {
            "alarm_period": q(s.rtc.alarm_period),
            "first_alarm": q(s.rtc.first_alarm),
            "rearm_on_clear": s.rtc.rearm_on_clear,
        },
        "touch": {"press_times": [q(t) for t in s.touch.press_times]},
        "harvester": {
            "v_open_circuit": q(s.harvester.v_open_circuit),
            "calibration": [[q(lux), q(p)] for lux, p in s.harvester.calibration],
        },
        "light_timeline": [[q(t), q(lux)] for t, lux in s.light_timeline],
        "load_script": [
            {"name": step.name, "duration": q(step.duration), "energy": q(step.energy)}
            for step in s.load_script
        ],
        "dpm_variant": variant,
        "sim": {"duration": q(s.duration)},
    }


def emit_scenario(s: Scenario) -> str:
    return yaml.safe_dump(canonical_dict(s), sort_keys=False, default_flow_style=None, width=100)


def with_constant_light(s: Scenario, lux: float) -> Scenario:
    """The same scenario under a constant illuminance."""
    return replace(s, light_timeline=((TimePoint.zero(), Illuminance(float(lux))),))
