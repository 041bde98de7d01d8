"""Golden tables: every measured experiment renders byte-identically.

Each table of ``tests/golden/`` pins an experiment's predictions, engine
ground truth and prediction error exactly.  The tables regenerate here
with two workers over one store shared by the whole session, so ground
truth that several experiments share (fig8's and fig9b's synchronized
DDP cells) is measured once — and a store hit must render the same
bytes as a fresh measurement.  ``tests/golden/update.py`` rewrites them.
"""

import pytest

from golden.update import MEASURED, golden_path, render
from repro.scenarios import SweepStore


@pytest.fixture(scope="session")
def golden_store(tmp_path_factory):
    return SweepStore(str(tmp_path_factory.mktemp("golden-store")))


@pytest.mark.parametrize("name", MEASURED)
def test_table_matches_its_golden_file(name, golden_store):
    with open(golden_path(name)) as f:
        expected = f.read()
    assert render(name, store=golden_store, jobs=2) == expected, (
        f"{name} no longer renders its golden table; if the change is "
        "deliberate, regenerate it with tests/golden/update.py")
