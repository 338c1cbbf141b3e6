"""Scenario documents: parsing, validation, and canonical emission.

A scenario is a YAML document with typed scalar fields. Dimensioned
values are written with SI unit suffixes ("452nA", "2.2V", "10min") and
normalised at parse time onto the simulator's internal grids; parsing
goes through Decimal so that decimal literals land exactly.

Each section is read and written from its dataclass's fields: the type
annotation gives the value kind, a default makes a field optional, and
metadata gives a file key other than the attribute ("key") or marks a
default that warns ("flagged"). Every dataclass checks itself on
construction; a parse refusal adds the field path and source line.

Where pyyaml has libyaml (CSafeLoader), it composes the node tree: a
parse runs 4-5x faster than with the pure-Python SafeLoader. The two do
not read every text alike: libyaml accepts a tab between tokens, a `?` in
a plain scalar, a byte-order mark inside the text, a comment run into a
block scalar's header and tags that SafeLoader refuses, cannot take a lone
surrogate, and recurses in C, so deep nesting overflows its stack. So
libyaml composes only a text free of those and of aliases, nested at most
4,096 levels deep, and a text it cannot compose is composed again by
SafeLoader, which words every YAML error. SafeLoader's scanner takes time
quadratic in the flow nesting, so one pass (nesting.py) first refuses a
text nested deeper than SafeLoader's recursion can compose. Every other
refusal is final on whichever loader composed the text. Aliases are
refused where they are used: no scenario needs one, and copying them out
grows exponentially with their nesting.

emit_scenario writes a canonical form (fixed key order, base units)
such that parse(emit(s)) == s.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from decimal import Decimal, DecimalException
from types import UnionType
from typing import Any, Callable, NamedTuple, get_args, get_origin, get_type_hints

import yaml

from .energy import ALWAYS_ON_COMPONENT, AlwaysOnBudget, HarvesterModel, LoadStep, StorageElement
from .pmic import PmicConfig
from .quantities import Current, Duration, Energy, Fraction, Illuminance, Power, TimePoint, Voltage
from .wake import RtcConfig, TouchScript

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


class _FieldError(ScenarioError):
    """A refusal (path, message) of one field; path is relative to the refusing dataclass."""

    def __str__(self) -> str:
        return "{}: {}".format(*self.args)


class VariantKind(enum.Enum):
    HARDWARE_GATED = "hardware_gated"
    SOFTWARE_SLEEP = "software_sleep"

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise ValueError("kind must be 'hardware_gated' or 'software_sleep'")


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
        if self.kind is VariantKind.SOFTWARE_SLEEP and self.i_sleep is None:
            raise _FieldError("kind", "software_sleep requires i_sleep")
        if self.kind is VariantKind.HARDWARE_GATED and self.i_sleep is not None:
            raise _FieldError("i_sleep", "i_sleep only applies to software_sleep")
        if self.i_sleep is not None and self.i_sleep.na < 0:
            raise _FieldError("i_sleep", "i_sleep must be non-negative")


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

    def __post_init__(self) -> None:
        """The checks across sections; each section has checked itself."""
        names = [step.name for step in self.load_script]
        for i, name in enumerate(names):
            if name == ALWAYS_ON_COMPONENT:
                raise _FieldError(f"load_script[{i}]", f"load step name {name!r} is reserved for the always-on rail")
            if name in names[:i]:
                raise _FieldError(f"load_script[{i}]", f"duplicate load step name {name!r}")
        if self.duration.us <= 0:
            raise _FieldError("sim.duration", "must be positive")
        chrdy, ovch = self.pmic.v_chrdy.uv, self.pmic.v_ovch.uv
        empty, full = self.storage.v_empty.uv, self.storage.v_full.uv
        if not empty < chrdy:
            raise _FieldError("pmic.v_chrdy", f"{chrdy} uV must sit above the empty-store voltage ({empty} uV)")
        if ovch > full:
            raise _FieldError("pmic.v_ovch", f"{ovch} uV must sit within the OCV range (full = {full} uV)")
        timeline = self.light_timeline
        if not timeline:
            raise _FieldError("light_timeline", "must contain at least one entry")
        if timeline[0][0].us != 0:
            raise _FieldError("light_timeline[0]", "must start at 0s")
        for i, ((t0, _), (t1, _)) in enumerate(zip(timeline, timeline[1:]), 1):
            if t1 <= t0:
                raise _FieldError(f"light_timeline[{i}]", f"times must be strictly increasing ({t0.us} -> {t1.us})")
        for i, (_, lux) in enumerate(timeline):
            if not 0 <= lux.lux < math.inf:  # NaN and infinities fail too
                raise _FieldError(f"light_timeline[{i}]", "illuminance cannot be negative")


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

_FAST_LOADER = getattr(yaml, "CSafeLoader", None)  # None without libyaml
# What libyaml may read otherwise than SafeLoader, or cannot take (a lone surrogate does not
# encode to UTF-8): these characters, and a block scalar header run into a comment (">-#").
# Each match starts in one character class, which keeps the search a fast scan.
_PURE_ONLY = re.compile("[\t?!*\ufeff\ud800-\udfff|>](?:(?<=[|>])[-+0-9]*#|(?<![|>]))")
# libyaml's composer recurses in C and overflows an 8 MB stack at
# 20,000-25,000 nesting levels; its event parser does not recurse.
_FAST_MAX_DEPTH = 4096


class _Alias(yaml.ScalarNode):
    """An alias, which _walk refuses where it is used."""


class _PureLoader(yaml.SafeLoader):
    """SafeLoader that composes each alias as a node of its own at its use site."""

    def compose_node(self, parent: Any, index: Any) -> Any:
        if self.check_event(yaml.AliasEvent) and self.peek_event().anchor in self.anchors:
            event = self.get_event()
            return _Alias(None, f"*{event.anchor}", event.start_mark, event.end_mark)
        return super().compose_node(parent, index)


def _fast_route(text: str) -> bool:
    if _FAST_LOADER is None or _PURE_ONLY.search(text):
        return False
    # Every nesting level costs one of these indicators, so most texts need no event scan.
    return sum(map(text.count, "[{-:")) <= _FAST_MAX_DEPTH or _shallow(text)


def _shallow(text: str) -> bool:
    """Whether libyaml reads text with no collection nested past _FAST_MAX_DEPTH."""
    depth = 0
    try:
        for event in yaml.parse(text, Loader=_FAST_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _FAST_MAX_DEPTH:
                    return False
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    except yaml.YAMLError:
        return False
    return True


def _compose(text: str) -> Any:
    """The text's node tree; a YAML error is always worded by the pure loader."""
    if _fast_route(text):
        try:
            return yaml.compose(text, Loader=_FAST_LOADER)
        except yaml.YAMLError:
            pass
    # The pure loader's composer recurses at least twice per nesting level,
    # and the pure scanner takes time quadratic in the flow depth to get
    # there. Imported here: only a text on the pure route needs the pass.
    from .nesting import flow_nested_past

    if flow_nested_past(text, sys.getrecursionlimit() // 2):
        raise RecursionError
    try:
        return yaml.compose(text, Loader=_PureLoader)
    # The pure scanner's chr() refuses an escape past U+10FFFF with a ValueError or OverflowError.
    except (yaml.YAMLError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from exc


def _load_tree(text: str, lines: dict[str, int]) -> Any:
    # The pure loader recurses per nesting level, and _walk does on either route.
    try:
        root = _compose(text)
        if root is None:
            raise ScenarioError("scenario document is empty")
        return _walk(root, yaml.SafeLoader(""), "", lines)
    except RecursionError:
        raise ScenarioError("not valid YAML: nested deeper than the parser's recursion limit") from None


def _walk(node: yaml.Node, constructor: yaml.SafeLoader, path: str, lines: dict[str, int]) -> Any:
    """The node as plain data; records each field path's source line in lines."""
    lines[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        mapping: dict[str, Any] = {}
        for key_node, value_node in node.value:
            line = key_node.start_mark.line + 1
            key = _scalar(key_node, constructor, path, line)
            if not isinstance(key, str):
                raise ScenarioError(f"line {line}: mapping keys must be strings")
            if key in mapping:
                raise ScenarioError(f"line {line}: duplicate key {key!r}")
            mapping[key] = _walk(value_node, constructor, f"{path}.{key}" if path else key, lines)
        return mapping
    if isinstance(node, yaml.SequenceNode):
        return [_walk(item, constructor, f"{path}[{i}]", lines) for i, item in enumerate(node.value)]
    return _scalar(node, constructor, path, lines[path])


def _scalar(node: yaml.Node, constructor: yaml.SafeLoader, path: str, line: int) -> Any:
    """A scalar, or a key of the mapping at path, as a value; line is where it sits."""
    if isinstance(node, _Alias):
        reason = "YAML aliases are not supported"
    else:
        try:
            return constructor.construct_object(node)
        except (yaml.YAMLError, ValueError) as exc:  # an unknown tag, an impossible date, ...
            reason = f"not a valid YAML value: {getattr(exc, 'problem', None) or exc}"
    raise ScenarioError(f"{path or 'scenario document'} (line {line}): {reason}")


_ABSENT = object()  # a key the document does not set
_REQUIRED = object()  # the default of a field the document must set


class _Section:
    """One mapping in the document, with field-path error reporting."""

    def __init__(self, value: Any, path: str, lines: dict[str, int]):
        self.path = path
        self.lines = lines
        if value is _ABSENT:
            value = {}
        elif not isinstance(value, dict):
            raise ScenarioError(f"{self.where()}: expected a mapping")
        self.fields: dict[str, Any] = value
        self.seen: set[str] = set()

    def sub(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def where(self, key: str | None = None) -> str:
        """A field's path and source line; the section's own without a key."""
        path = self.path if key is None else self.sub(key)
        line = self.lines.get(path)
        return f"{path or 'scenario document'}{f' (line {line})' if line else ''}"

    def take(self, key: str) -> Any:
        self.seen.add(key)
        return self.fields.get(key, _ABSENT)

    def scalar(self, key: str, kind, default=_REQUIRED):
        """Read key as a quantity type from _QUANTITIES or through a checker."""
        value = self.take(key)
        if value is _ABSENT:
            return self.missing(key, default)
        if isinstance(value, (dict, list)):
            raise ScenarioError(f"{self.where(key)}: expected a scalar")
        try:
            return _read(value, kind)
        except ValueError as exc:
            raise ScenarioError(f"{self.where(key)}: {exc}") from exc

    def missing(self, key: str, default: Any) -> Any:
        if default is _REQUIRED:
            line = self.lines.get(self.path)
            raise ScenarioError(f"{self.sub(key)}{f' (line {line})' if line else ''}: required field is missing")
        return default

    def section(self, key: str) -> "_Section":
        return _Section(self.take(key), self.sub(key), self.lines)

    def sequence(self, key: str) -> list | None:
        value = self.take(key)
        if value is _ABSENT:
            return None
        if not isinstance(value, list):
            raise ScenarioError(f"{self.where(key)}: expected a list")
        return value

    def items(self, key: str, kinds: tuple, default=_REQUIRED):
        """Read a list of single values (one kind) or of [x, y] pairs (two)."""
        entries = self.sequence(key)
        if entries is None:
            return self.missing(key, default)
        values = []
        for i, entry in enumerate(entries):
            where = self.where(f"{key}[{i}]")
            if len(kinds) == 1:
                parts = [entry]
            elif isinstance(entry, list) and len(entry) == 2:
                parts = entry
            else:
                raise ScenarioError(f"{where}: expected a [x, y] pair")
            try:
                read = tuple(_read(part, kind) for part, kind in zip(parts, kinds))
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
            values.append(read if len(kinds) > 1 else read[0])
        return tuple(values)

    def reject_unknown(self) -> None:
        for key in self.fields:
            if key not in self.seen:
                raise ScenarioError(f"{self.where(key)}: unknown field")

    def build(self, cls: type, warnings: list[str]) -> Any:
        """Read the dataclass cls from this mapping's fields and construct it."""
        values = {}
        for f in _fields_of(cls):
            values[f.attr] = f.read(self, f.key, f.kind, f.default)
            if f.flagged and f.key not in self.fields:
                warnings.append(
                    f"{self.sub(f.key)} not set; using the documented default of {f.default.uv} uV. "
                    "This threshold is a configuration choice, not a measured value."
                )
        self.reject_unknown()
        try:
            return cls(**values)
        except ValueError as exc:
            raise ScenarioError(self.refusal(exc)) from exc

    def refusal(self, exc: ValueError) -> str:
        if isinstance(exc, _FieldError):
            path, message = exc.args
            return f"{self.where(path)}: {message}"
        return f"{self.where()}: {exc}"


def _read(value: Any, kind) -> Any:
    return parse_quantity(value, kind) if kind in _QUANTITIES else kind(value)


def _exact(kind: type, expected: str) -> Callable[[Any], Any]:
    """A checker for a plain value of kind: only a bool is a bool, and an int is also a float."""
    accepted = (int, float) if kind is float else kind

    def check(value: Any) -> Any:
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
            raise ScenarioError(f"expected {expected}, got {value!r}")
        return kind(value)

    return check


_fraction = _exact(float, "a number in [0, 1]")
_bool = _exact(bool, "true or false")
_string = _exact(str, "a string")
_int = _exact(int, "an integer")


# --- section fields -----------------------------------------------------


class _Field(NamedTuple):
    """How one field of a section's dataclass is read and written."""

    attr: str
    key: str  # the field's key in the document
    read: Callable  # _Section.scalar, or _Section.items for a tuple
    kind: Any  # what _read takes: per value, or per element of an [x, y] pair
    write: Callable[[Any], Any]
    default: Any  # _REQUIRED when the document must set the field
    flagged: bool  # leaving it out warns: the default is a configuration choice


# Per annotation other than a quantity type: what _read takes, and the writer.
_PLAIN = {
    Fraction: (_fraction, float),
    bool: (_bool, bool),
    str: (_string, str),
    float: (float, lambda mah: quantity_text(float(mah))),  # a bare float is a charge in mAh
}


def _kind(annotation: Any) -> tuple[Any, Callable[[Any], Any]]:
    if annotation in _PLAIN:
        return _PLAIN[annotation]
    if annotation in _QUANTITIES:
        return annotation, quantity_text
    return annotation, lambda member: member.value  # an enum, read by value


@functools.cache
def _fields_of(cls: type) -> tuple[_Field, ...]:
    """Each field's reading and writing, from its type annotation."""
    hints = get_type_hints(cls)
    spec = []
    for f in fields(cls):
        annotation = hints[f.name]
        if isinstance(annotation, UnionType):  # X | None, written only when set
            (annotation,) = (arg for arg in get_args(annotation) if arg is not type(None))
        if get_origin(annotation) is tuple:  # tuple[X, ...] or tuple[tuple[X, Y], ...]
            item = get_args(annotation)[0]
            kinds, writers = zip(*map(_kind, get_args(item) if get_origin(item) is tuple else (item,)))
            read, kind, write = _Section.items, kinds, functools.partial(_write_items, writers)
        else:
            read, (kind, write) = _Section.scalar, _kind(annotation)
        default = _REQUIRED if f.default is MISSING else f.default
        key, flagged = f.metadata.get("key", f.name), f.metadata.get("flagged", False)
        spec.append(_Field(f.name, key, read, kind, write, default, flagged))
    return tuple(spec)


def _write_items(writers: tuple, values: tuple) -> list:
    """A list field: one value per entry, or an [x, y] pair per entry."""
    if len(writers) == 1:
        return [writers[0](value) for value in values]
    write_x, write_y = writers
    return [[write_x(x), write_y(y)] for x, y in values]


def _section_dict(obj: Any) -> dict[str, Any]:
    """A section's fields in field order; an optional field left at None is omitted."""
    out = {}
    for f in _fields_of(type(obj)):
        value = getattr(obj, f.attr)
        if value is not None:
            out[f.key] = f.write(value)
    return out


# --- parsing ------------------------------------------------------------


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    lines: dict[str, int] = {}
    root = _Section(_load_tree(text, lines), "", lines)
    warnings: list[str] = []

    version = root.scalar("schema_version", _int)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: this build reads version {SCHEMA_VERSION}, file says {version}"
        )

    meta = root.section("meta")
    name = meta.scalar("name", _string, "unnamed")
    description = meta.scalar("description", _string, "")
    meta.reject_unknown()

    pmic_sec = root.section("pmic")
    # Schema v1 still carries pmic.i_quiescent; the drain it names is always_on.i_pmic.
    i_quiescent = pmic_sec.scalar("i_quiescent", Current, None)
    pmic = pmic_sec.build(PmicConfig, warnings)
    always_sec = root.section("always_on")
    always_on = always_sec.build(AlwaysOnBudget, warnings)
    if i_quiescent is not None and i_quiescent != always_on.i_pmic:
        raise ScenarioError(
            f"{pmic_sec.where('i_quiescent')} is {i_quiescent.na} nA but {always_sec.where('i_pmic')} "
            f"is {always_on.i_pmic.na} nA; the two name the same PMIC drain and must agree"
        )

    storage = root.section("storage").build(StorageElement, warnings)
    rtc = root.section("rtc").build(RtcConfig, warnings)
    touch = root.section("touch").build(TouchScript, warnings)
    harvester = root.section("harvester").build(HarvesterModel, warnings)
    timeline = root.items(
        "light_timeline", (TimePoint, Illuminance), ((TimePoint.zero(), Illuminance(0.0)),)
    )
    steps = tuple(
        _Section(entry, f"load_script[{i}]", lines).build(LoadStep, warnings)
        for i, entry in enumerate(root.sequence("load_script") or ())
    )
    variant = root.section("dpm_variant").build(DpmVariant, warnings)
    sim_sec = root.section("sim")
    duration = sim_sec.scalar("duration", Duration)
    sim_sec.reject_unknown()
    root.reject_unknown()

    try:
        return Scenario(
            version, name, description, pmic, storage, always_on, rtc, touch, harvester,
            timeline, steps, variant, duration, tuple(warnings),
        )
    except ValueError as exc:
        raise ScenarioError(root.refusal(exc)) from exc


# --- canonical emission --------------------------------------------------


def canonical_dict(s: Scenario) -> dict:
    """The scenario as plain data in canonical key order and base units."""
    q = quantity_text
    return {
        "schema_version": s.schema_version,
        "meta": {"name": s.name, "description": s.description},
        "pmic": {**_section_dict(s.pmic), "i_quiescent": q(s.always_on.i_pmic)},
        "storage": _section_dict(s.storage),
        "always_on": _section_dict(s.always_on),
        "rtc": _section_dict(s.rtc),
        "touch": _section_dict(s.touch),
        "harvester": _section_dict(s.harvester),
        "light_timeline": [[q(t), q(lux)] for t, lux in s.light_timeline],
        "load_script": [_section_dict(step) for step in s.load_script],
        "dpm_variant": _section_dict(s.dpm_variant),
        "sim": {"duration": q(s.duration)},
    }


def emit_scenario(s: Scenario) -> str:
    return yaml.safe_dump(canonical_dict(s), sort_keys=False, default_flow_style=None, width=100)


def with_constant_light(s: Scenario, lux: float) -> Scenario:
    """The same scenario under a constant illuminance."""
    return replace(s, light_timeline=((TimePoint.zero(), Illuminance(float(lux))),))
