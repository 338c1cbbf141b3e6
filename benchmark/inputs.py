"""Seeded scenario texts for the benchmark workloads.

Every input starts from a bundled scenario file and swaps whole top-level
sections for generated ones, so the program only ever sees scenario text,
exactly as a user would hand it over. The same seed gives the same texts.

All generated inputs keep the store well clear of v_chrdy: near that
threshold the current engine can chatter between Normal and Shutdown, and
the event count there depends on open defects rather than on speed (see
README.md, "Excluded regime").
"""

from __future__ import annotations

import random
import re
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
HW_FILE = SCENARIO_DIR / "case_study.scenario"
SW_FILE = SCENARIO_DIR / "case_study_software.scenario"

HOUR_MS = 3_600_000
DAY_MS = 24 * HOUR_MS

LONG_HORIZON_DAYS = 30
TOUCHES_PER_DAY = 24
# Daytime light in 2 h slots between 06:00 and 18:00. Over a day this range
# keeps the 10 mAh store between v_chrdy and v_ovch for the whole month.
DAY_SLOTS = range(6, 18, 2)
DAY_LUX = (20.0, 80.0)

WHATIF_PAIRS = 100
ENERGY_SCALE = (0.6, 1.4)
_NJ_PER = {"nJ": 1.0, "uJ": 1e3, "mJ": 1e6, "J": 1e9}

CROSSCHECK_MS = HOUR_MS
CROSSCHECK_LUX = (200.0, 500.0)
# Opening soc just under the v_ovch level (0.7 on the case-study curve):
# 27-80 mJ short, a few wake cycles of net gain at the darkest light.
OVCH_SOC = 0.7
OVCH_GAP = (0.0002, 0.0006)


def _blocks(text: str) -> dict[str, str]:
    """Top-level sections of a scenario file, in order, keyed by name."""
    blocks: dict[str, str] = {}
    key = None
    for line in text.splitlines(keepends=True):
        if line[:1] not in (" ", "\n", "#", "-") and ":" in line:
            key = line.split(":", 1)[0]
            blocks[key] = ""
        if key is None:
            raise ValueError("scenario text does not start with a top-level key")
        blocks[key] += line
    return blocks


def _replace(text: str, **sections: str) -> str:
    blocks = _blocks(text)
    for key, block in sections.items():
        if key not in blocks:
            raise ValueError(f"bundled scenario has no {key!r} section")
        blocks[key] = block
    return "".join(blocks.values())


def _set_key(block: str, key: str, value: str) -> str:
    lines = block.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip().startswith(f"{key}:"):
            indent = line[: len(line) - len(line.lstrip())]
            lines[i] = f"{indent}{key}: {value}\n"
            return "".join(lines)
    raise ValueError(f"section has no {key!r} entry")


def _light_block(entries: list[tuple[int, float]]) -> str:
    return "light_timeline:\n" + "".join(f"  - [{t}ms, {lux}lux]\n" for t, lux in entries)


def _touch_block(press_ms: list[int]) -> str:
    if not press_ms:
        return "touch:\n  press_times: []\n"
    return "touch:\n  press_times:\n" + "".join(f"    - {t}ms\n" for t in press_ms)


def _sim_block(duration_ms: int) -> str:
    return f"sim:\n  duration: {duration_ms}ms\n"


def long_horizon(seed: int) -> str:
    """The case-study node over 30 days of dark nights and seeded daylight,
    with a fixed number of seeded touch presses per day."""
    rng = random.Random(seed)
    hw = HW_FILE.read_text()
    light: list[tuple[int, float]] = [(0, 0.0)]
    touches: list[int] = []
    for day in range(LONG_HORIZON_DAYS):
        t0 = day * DAY_MS
        for hour in DAY_SLOTS:
            light.append((t0 + hour * HOUR_MS, round(rng.uniform(*DAY_LUX), 1)))
        light.append((t0 + DAY_SLOTS.stop * HOUR_MS, 0.0))
        touches.extend(sorted(t0 + ms for ms in rng.sample(range(1, DAY_MS), TOUCHES_PER_DAY)))
    return _replace(
        hw,
        light_timeline=_light_block(light),
        touch=_touch_block(touches),
        sim=_sim_block(LONG_HORIZON_DAYS * DAY_MS),
    )


def _load_script(block: str, rng: random.Random) -> str:
    """Rescale every step's energy by a seeded factor, in whole nJ."""
    out = []
    for line in block.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("energy:"):
            value = stripped.split(":", 1)[1].strip()
            number, unit = re.fullmatch(r"([0-9.]+)\s*([a-zA-Z]+)", value).groups()
            nj = float(number) * _NJ_PER[unit]
            scaled = round(nj * rng.uniform(*ENERGY_SCALE))
            line = line[: line.index("energy:")] + f"energy: {scaled}nJ\n"
        out.append(line)
    return "".join(out)


def whatif_batch(seed: int) -> list[tuple[str, str]]:
    """Hardware-gated / software-sleep twin pairs that differ from the
    bundled pair only in their seeded load-script energies."""
    rng = random.Random(seed)
    hw = HW_FILE.read_text()
    sw = SW_FILE.read_text()
    script = _blocks(hw)["load_script"]
    pairs = []
    for _ in range(WHATIF_PAIRS):
        block = _load_script(script, rng)
        pairs.append((_replace(hw, load_script=block), _replace(sw, load_script=block)))
    return pairs


def crosscheck(seed: int) -> str:
    """A 1 h case-study variant on the 1 ms grid whose store starts a few
    cycles below v_ovch, so the run enters Overcharge."""
    rng = random.Random(seed)
    hw = HW_FILE.read_text()
    light = [(0, round(rng.uniform(*CROSSCHECK_LUX), 1))]
    for t in sorted(rng.sample(range(1, CROSSCHECK_MS), 3)):
        light.append((t, round(rng.uniform(*CROSSCHECK_LUX), 1)))
    touches = sorted(rng.sample(range(1, CROSSCHECK_MS), rng.randint(2, 4)))
    soc = round(OVCH_SOC - rng.uniform(*OVCH_GAP), 9)
    storage = _set_key(_blocks(hw)["storage"], "initial_soc", repr(soc))
    return _replace(
        hw,
        storage=storage,
        light_timeline=_light_block(light),
        touch=_touch_block(touches),
        sim=_sim_block(CROSSCHECK_MS),
    )
