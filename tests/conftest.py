from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.database import DirectoryBasedExampleDatabase

from dpmsim.scenario import Scenario, parse_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

# Keep Hypothesis' files in the repo whatever directory pytest runs from:
# the example database explicitly, and its other caches through the home
# directory, which would otherwise be ./.hypothesis.
set_hypothesis_home_dir(REPO / ".hypothesis")
settings.register_profile(
    "repo", database=DirectoryBasedExampleDatabase(str(REPO / ".hypothesis" / "examples"))
)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def case_study() -> Scenario:
    return parse_scenario((SCENARIO_DIR / "case_study.scenario").read_text())


@pytest.fixture(scope="session")
def case_study_sw() -> Scenario:
    return parse_scenario((SCENARIO_DIR / "case_study_software.scenario").read_text())
