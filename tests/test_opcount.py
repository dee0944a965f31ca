"""A ratchet on the per-block glue: the bytecode instructions that
``scripts/opcount.py`` counts on the n <= 4 equivalence slice stay within
5 % of the count recorded for this interpreter in ``golden/COSTS.json``.

The count is exact and compares only within one interpreter version, so
the file holds one entry per major.minor.  A change that lowers the count
lowers the entry with it; raising an entry is a change to this bound.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR

OPCOUNT = Path(__file__).resolve().parents[1] / "scripts" / "opcount.py"
SLICE = "equivalence n<=4"
SLACK = 1.05


def _opcount():
    spec = importlib.util.spec_from_file_location("opcount", OPCOUNT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equivalence_slice_stays_within_its_recorded_instruction_count():
    opcount = _opcount()
    version = opcount.python_version()
    recorded = json.loads((GOLDEN_DIR / "COSTS.json").read_text())[SLICE]
    if version not in recorded:
        pytest.skip(f"COSTS.json records no {SLICE!r} count for Python {version}")
    count = opcount.count_equivalence(4)
    assert count <= SLACK * recorded[version], (
        f"{SLICE} ran {count} instructions on Python {version}, above "
        f"{SLACK} x the recorded {recorded[version]}")
