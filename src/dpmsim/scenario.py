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
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from typing import Any

import yaml

from .energy import AlwaysOnBudget, HarvesterModel, LoadStep, Rail, StorageElement, ocv, validate_script
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


# --- quantity text parsing ---------------------------------------------

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-zµμ]*)\s*$"
)

# Scale factors to each dimension's base unit.
_UNIT_SCALES: dict[str, dict[str, Decimal]] = {
    "time": {
        "us": Decimal(1),
        "ms": Decimal(10) ** 3,
        "s": Decimal(10) ** 6,
        "min": Decimal(60) * Decimal(10) ** 6,
        "h": Decimal(3600) * Decimal(10) ** 6,
    },
    "voltage": {"uV": Decimal(1), "mV": Decimal(10) ** 3, "V": Decimal(10) ** 6},
    "current": {
        "nA": Decimal(1),
        "uA": Decimal(10) ** 3,
        "mA": Decimal(10) ** 6,
        "A": Decimal(10) ** 9,
    },
    "power": {
        "nW": Decimal(1),
        "uW": Decimal(10) ** 3,
        "mW": Decimal(10) ** 6,
        "W": Decimal(10) ** 9,
    },
    "energy": {
        "nJ": Decimal(1),
        "uJ": Decimal(10) ** 3,
        "mJ": Decimal(10) ** 6,
        "J": Decimal(10) ** 9,
    },
    "charge": {"mAh": Decimal(1), "Ah": Decimal(10) ** 3},
    "illuminance": {"lux": Decimal(1), "": Decimal(1)},
}

_BASE_UNIT = {
    "time": "us",
    "voltage": "uV",
    "current": "nA",
    "power": "nW",
    "energy": "nJ",
    "charge": "mAh",
    "illuminance": "lux",
}


def _scaled(text: str, dimension: str) -> Decimal:
    match = _NUMBER_RE.match(text)
    if not match:
        raise ScenarioError(f"cannot read {text!r} as a number with a unit suffix")
    number, suffix = match.groups()
    suffix = suffix.replace("µ", "u").replace("μ", "u")
    scales = _UNIT_SCALES[dimension]
    if suffix not in scales:
        expected = ", ".join(sorted(u for u in scales if u))
        raise ScenarioError(f"{text!r} is not a {dimension} (expected a suffix from: {expected})")
    try:
        return Decimal(number) * scales[suffix]
    except InvalidOperation as exc:
        raise ScenarioError(f"cannot read {text!r} as a number") from exc


def _integral(text: str, dimension: str) -> int:
    value = _scaled(text, dimension)
    if value != value.to_integral_value():
        raise ScenarioError(
            f"{text!r} does not land on the 1 {_BASE_UNIT[dimension]} grid"
        )
    return int(value)


def parse_duration(text: str) -> Duration:
    return Duration(_integral(text, "time"))


def parse_timepoint(text: str) -> TimePoint:
    value = _integral(text, "time")
    if value < 0:
        raise ScenarioError(f"{text!r}: time points cannot be negative")
    return TimePoint(value)


def parse_voltage(text: str) -> Voltage:
    return Voltage(_integral(text, "voltage"))


def parse_current(text: str) -> Current:
    return Current(_integral(text, "current"))


def parse_power(text: str) -> Power:
    return Power(float(_scaled(text, "power")))


def parse_energy(text: str) -> Energy:
    return Energy(float(_scaled(text, "energy")))


def parse_illuminance(text: str | int | float) -> Illuminance:
    if isinstance(text, (int, float)):
        return Illuminance(float(text))
    return Illuminance(float(_scaled(text, "illuminance")))


def parse_capacity_mah(text: str) -> float:
    return float(_scaled(text, "charge"))


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

    def where(self, key: str) -> str:
        node = self.fields.get(key)
        suffix = f" (line {node.line})" if node is not None else ""
        prefix = f"{self.path}." if self.path else ""
        return f"{prefix}{key}{suffix}"

    def take(self, key: str) -> _Node | None:
        self.seen.add(key)
        return self.fields.get(key)

    def scalar(self, key: str, parse, default, *, missing: list[str] | None = None):
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
            return parse(node.value)
        except ScenarioError as exc:
            raise ScenarioError(f"{self.where(key)}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{self.where(key)}: {exc}") from exc

    def section(self, key: str) -> "_Section":
        node = self.take(key)
        prefix = f"{self.path}.{key}" if self.path else key
        return _Section(node, prefix)

    def sequence(self, key: str) -> list[_Node] | None:
        node = self.take(key)
        if node is None:
            return None
        if not isinstance(node.value, list):
            raise ScenarioError(f"{self.where(key)}: expected a list")
        return node.value

    def reject_unknown(self) -> None:
        for key, node in self.fields.items():
            if key not in self.seen:
                prefix = f"{self.path}." if self.path else ""
                raise ScenarioError(f"{prefix}{key} (line {node.line}): unknown field")


class _Required:
    pass


_REQUIRED = _Required()


def _text(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ScenarioError(f"expected a quantity string, got {value!r}")
    return str(value)


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


def _pair(entry: _Node, path: str) -> tuple[_Node, _Node]:
    if not isinstance(entry.value, list) or len(entry.value) != 2:
        raise ScenarioError(f"{path} (line {entry.line}): expected a [x, y] pair")
    return entry.value[0], entry.value[1]


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
        v_cold_start=pmic_sec.scalar("v_cold_start", lambda v: parse_voltage(_text(v)), PmicConfig.v_cold_start),
        p_cold_start=pmic_sec.scalar("p_cold_start", lambda v: parse_power(_text(v)), PmicConfig.p_cold_start),
        v_chrdy=pmic_sec.scalar("v_chrdy", lambda v: parse_voltage(_text(v)), PmicConfig.v_chrdy, missing=flagged),
        v_ovch=pmic_sec.scalar("v_ovch", lambda v: parse_voltage(_text(v)), PmicConfig.v_ovch, missing=flagged),
        v_ovch_hysteresis=pmic_sec.scalar(
            "v_ovch_hysteresis", lambda v: parse_voltage(_text(v)), PmicConfig.v_ovch_hysteresis, missing=flagged
        ),
        grace_window=pmic_sec.scalar("grace_window", lambda v: parse_duration(_text(v)), PmicConfig.grace_window),
    )
    # Schema v1 still carries pmic.i_quiescent; the drain it names is always_on.i_pmic.
    i_quiescent = pmic_sec.scalar("i_quiescent", lambda v: parse_current(_text(v)), None)
    pmic_sec.reject_unknown()
    for key in flagged:
        default = getattr(PmicConfig, key)
        warnings.append(
            f"pmic.{key} not set; using the documented default of {default.uv} uV. "
            "This threshold is a configuration choice, not a measured value."
        )

    always_sec = root.section("always_on")
    always_on = AlwaysOnBudget(
        i_pmic=always_sec.scalar("i_pmic", lambda v: parse_current(_text(v)), AlwaysOnBudget.i_pmic),
        i_rtc=always_sec.scalar("i_rtc", lambda v: parse_current(_text(v)), AlwaysOnBudget.i_rtc),
        i_touch=always_sec.scalar("i_touch", lambda v: parse_current(_text(v)), AlwaysOnBudget.i_touch),
        i_extra_leakage=always_sec.scalar(
            "i_extra_leakage", lambda v: parse_current(_text(v)), AlwaysOnBudget.i_extra_leakage
        ),
        rail_voltage=always_sec.scalar(
            "rail_voltage", lambda v: parse_voltage(_text(v)), AlwaysOnBudget.rail_voltage
        ),
        fixed_cycle_energy=always_sec.scalar(
            "fixed_cycle_energy", lambda v: parse_energy(_text(v)), None
        ),
    )
    always_sec.reject_unknown()
    if i_quiescent is not None and i_quiescent != always_on.i_pmic:
        raise ScenarioError(
            f"{pmic_sec.where('i_quiescent')} is {i_quiescent.na} nA but {always_sec.where('i_pmic')} "
            f"is {always_on.i_pmic.na} nA; the two name the same PMIC drain and must agree"
        )

    storage_sec = root.section("storage")
    curve_nodes = storage_sec.sequence("ocv_curve")
    if curve_nodes is None:
        curve = ((0.0, Voltage.from_volts(3.0)), (0.1, Voltage.from_volts(3.6)), (1.0, Voltage.from_volts(4.2)))
    else:
        curve_list = []
        for i, entry in enumerate(curve_nodes):
            soc_node, v_node = _pair(entry, f"storage.ocv_curve[{i}]")
            try:
                curve_list.append((_fraction(soc_node.value), parse_voltage(_text(v_node.value))))
            except ScenarioError as exc:
                raise ScenarioError(f"storage.ocv_curve[{i}] (line {entry.line}): {exc}") from exc
        curve = tuple(curve_list)
    try:
        storage = StorageElement.create(
            capacity_mah=storage_sec.scalar("capacity", lambda v: parse_capacity_mah(_text(v)), 10.0),
            nominal_voltage=storage_sec.scalar(
                "nominal_voltage", lambda v: parse_voltage(_text(v)), Voltage.from_volts(3.7)
            ),
            ocv_curve=curve,
            initial_soc=storage_sec.scalar("initial_soc", _fraction, 0.5),
        )
    except ValueError as exc:
        raise ScenarioError(f"storage (line {storage_sec.line}): {exc}") from exc
    storage_sec.reject_unknown()

    rtc_sec = root.section("rtc")
    rtc = RtcConfig(
        alarm_period=rtc_sec.scalar("alarm_period", lambda v: parse_duration(_text(v)), RtcConfig.alarm_period),
        first_alarm=rtc_sec.scalar("first_alarm", lambda v: parse_timepoint(_text(v)), RtcConfig.first_alarm),
        rearm_on_clear=rtc_sec.scalar("rearm_on_clear", _bool, False),
    )
    rtc_sec.reject_unknown()

    touch_sec = root.section("touch")
    press_nodes = touch_sec.sequence("press_times")
    presses: tuple[TimePoint, ...] = ()
    if press_nodes is not None:
        press_list = []
        for i, entry in enumerate(press_nodes):
            try:
                press_list.append(parse_timepoint(_text(entry.value)))
            except ScenarioError as exc:
                raise ScenarioError(f"touch.press_times[{i}] (line {entry.line}): {exc}") from exc
        presses = tuple(press_list)
    touch = TouchScript(press_times=presses)
    touch_sec.reject_unknown()

    harv_sec = root.section("harvester")
    cal_nodes = harv_sec.sequence("calibration")
    if cal_nodes is None:
        raise ScenarioError(f"harvester.calibration (line {harv_sec.line}): required field is missing")
    cal_list = []
    for i, entry in enumerate(cal_nodes):
        lux_node, p_node = _pair(entry, f"harvester.calibration[{i}]")
        try:
            cal_list.append((parse_illuminance(lux_node.value), parse_power(_text(p_node.value))))
        except ScenarioError as exc:
            raise ScenarioError(f"harvester.calibration[{i}] (line {entry.line}): {exc}") from exc
    harvester = HarvesterModel(
        calibration=tuple(cal_list),
        v_open_circuit=harv_sec.scalar(
            "v_open_circuit", lambda v: parse_voltage(_text(v)), HarvesterModel.v_open_circuit
        ),
    )
    harv_sec.reject_unknown()

    light_nodes = root.sequence("light_timeline")
    if light_nodes is None:
        timeline: tuple[tuple[TimePoint, Illuminance], ...] = ((TimePoint.zero(), Illuminance(0.0)),)
    else:
        timeline_list = []
        for i, entry in enumerate(light_nodes):
            t_node, lux_node = _pair(entry, f"light_timeline[{i}]")
            try:
                timeline_list.append((parse_timepoint(_text(t_node.value)), parse_illuminance(lux_node.value)))
            except ScenarioError as exc:
                raise ScenarioError(f"light_timeline[{i}] (line {entry.line}): {exc}") from exc
        timeline = tuple(timeline_list)

    script_nodes = root.sequence("load_script")
    steps: list[LoadStep] = []
    if script_nodes is not None:
        for i, entry in enumerate(script_nodes):
            if not isinstance(entry.value, dict):
                raise ScenarioError(f"load_script[{i}] (line {entry.line}): expected a mapping")
            step_sec = _Section(entry, f"load_script[{i}]")
            rail_name = step_sec.scalar("rail", _string, "lv")
            if rail_name not in ("lv", "hv"):
                raise ScenarioError(f"{step_sec.where('rail')}: rail must be 'lv' or 'hv'")
            steps.append(
                LoadStep(
                    name=step_sec.scalar("name", _string, _REQUIRED),
                    duration=step_sec.scalar("duration", lambda v: parse_duration(_text(v)), _REQUIRED),
                    energy=step_sec.scalar("energy", lambda v: parse_energy(_text(v)), _REQUIRED),
                    rail=Rail(rail_name),
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
    i_sleep = variant_sec.scalar("i_sleep", lambda v: parse_current(_text(v)), None)
    variant_sec.reject_unknown()
    if kind is VariantKind.SOFTWARE_SLEEP and i_sleep is None:
        raise ScenarioError(f"{variant_sec.where('kind')}: software_sleep requires i_sleep")
    if kind is VariantKind.HARDWARE_GATED and i_sleep is not None:
        raise ScenarioError(f"{variant_sec.where('i_sleep')}: i_sleep only applies to software_sleep")
    variant = DpmVariant(kind=kind, i_sleep=i_sleep)

    sim_sec = root.section("sim")
    duration = sim_sec.scalar("duration", lambda v: parse_duration(_text(v)), _REQUIRED)
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
        s.storage.validate()
        s.always_on.validate()
        s.rtc.validate()
        s.touch.validate()
        s.harvester.validate()
        validate_script(s.load_script)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if s.duration.us <= 0:
        raise ScenarioError("sim.duration must be positive")
    v_empty = ocv(s.storage, 0.0)
    v_full = ocv(s.storage, 1.0)
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


def _fmt_float(x: float) -> str:
    return repr(float(x))


def canonical_dict(s: Scenario) -> dict:
    """The scenario as plain data in canonical key order and base units."""
    variant: dict[str, Any] = {"kind": s.dpm_variant.kind.value}
    if s.dpm_variant.i_sleep is not None:
        variant["i_sleep"] = f"{s.dpm_variant.i_sleep.na}nA"
    always_on: dict[str, Any] = {
        "i_pmic": f"{s.always_on.i_pmic.na}nA",
        "i_rtc": f"{s.always_on.i_rtc.na}nA",
        "i_touch": f"{s.always_on.i_touch.na}nA",
        "i_extra_leakage": f"{s.always_on.i_extra_leakage.na}nA",
        "rail_voltage": f"{s.always_on.rail_voltage.uv}uV",
    }
    if s.always_on.fixed_cycle_energy is not None:
        always_on["fixed_cycle_energy"] = f"{_fmt_float(s.always_on.fixed_cycle_energy.nj)}nJ"
    return {
        "schema_version": s.schema_version,
        "meta": {"name": s.name, "description": s.description},
        "pmic": {
            "v_cold_start": f"{s.pmic.v_cold_start.uv}uV",
            "p_cold_start": f"{_fmt_float(s.pmic.p_cold_start.nw)}nW",
            "v_chrdy": f"{s.pmic.v_chrdy.uv}uV",
            "v_ovch": f"{s.pmic.v_ovch.uv}uV",
            "v_ovch_hysteresis": f"{s.pmic.v_ovch_hysteresis.uv}uV",
            "grace_window": f"{s.pmic.grace_window.us}us",
            "i_quiescent": f"{s.always_on.i_pmic.na}nA",
        },
        "storage": {
            "capacity": f"{_fmt_float(s.storage.capacity_mah)}mAh",
            "nominal_voltage": f"{s.storage.nominal_voltage.uv}uV",
            "initial_soc": s.storage.initial_soc,
            "ocv_curve": [[soc, f"{v.uv}uV"] for soc, v in s.storage.ocv_curve],
        },
        "always_on": always_on,
        "rtc": {
            "alarm_period": f"{s.rtc.alarm_period.us}us",
            "first_alarm": f"{s.rtc.first_alarm.us}us",
            "rearm_on_clear": s.rtc.rearm_on_clear,
        },
        "touch": {"press_times": [f"{t.us}us" for t in s.touch.press_times]},
        "harvester": {
            "v_open_circuit": f"{s.harvester.v_open_circuit.uv}uV",
            "calibration": [
                [f"{_fmt_float(lux.lux)}lux", f"{_fmt_float(p.nw)}nW"] for lux, p in s.harvester.calibration
            ],
        },
        "light_timeline": [[f"{t.us}us", f"{_fmt_float(lux.lux)}lux"] for t, lux in s.light_timeline],
        "load_script": [
            {
                "name": step.name,
                "duration": f"{step.duration.us}us",
                "energy": f"{_fmt_float(step.energy.nj)}nJ",
                "rail": step.rail.value,
            }
            for step in s.load_script
        ],
        "dpm_variant": variant,
        "sim": {"duration": f"{s.duration.us}us"},
    }


def emit_scenario(s: Scenario) -> str:
    return yaml.safe_dump(canonical_dict(s), sort_keys=False, default_flow_style=None, width=100)


def with_constant_light(s: Scenario, lux: float) -> Scenario:
    """The same scenario under a constant illuminance."""
    return replace(s, light_timeline=((TimePoint.zero(), Illuminance(float(lux))),))


def with_initial_soc(s: Scenario, soc: float) -> Scenario:
    return replace(s, storage=StorageElement.create(
        s.storage.capacity_mah, s.storage.nominal_voltage, s.storage.ocv_curve, soc
    ))
