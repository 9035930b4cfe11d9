"""Golden reports: every recorded number, exactly as recorded.

``tests/golden/reports.json`` holds the output of each case of
``golden/record.py`` (``run_scenario`` reports of the shipped scenarios and
goal modes, and the BetterBirth recommendations).  On the platform that
recorded it (the same ``platform.machine()`` and numpy version) every
number must be bitwise the recorded one; on any other platform the floats
are compared at the benchmark's tolerance instead (relative 1e-6, absolute
1e-9), since another libm or numpy may round differently.  A change that
moves a number reruns ``python3 tests/golden/record.py`` and says in
CHANGES.md why each moved value moved.
"""

import json
import math

import pytest

from golden import record

GOLDEN = json.loads(record.PATH.read_text())
EXACT = GOLDEN["platform"] == record.platform_tag()
REL_TOL, ABS_TOL = 1e-6, 1e-9


def _differences(want, got, path) -> list:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in _differences(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in _differences(w, g, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = (want.hex() == got.hex() if EXACT else
                math.isnan(want) and math.isnan(got)
                or math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL))
        return [] if same else [f"{path}: {want!r} != {got!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {want!r} != {got!r}"]
    return []


def test_the_golden_file_covers_every_case():
    assert GOLDEN["seed"] == record.SEED
    assert list(GOLDEN["cases"]) == sorted(record.CASES)


@pytest.mark.parametrize("name", record.CASES)
def test_a_case_reproduces_its_golden_output(name):
    got = json.loads(json.dumps(record.run_case(name)))
    assert _differences(GOLDEN["cases"][name], got, name) == []


def test_a_run_on_two_processes_reproduces_its_golden_output():
    name = "1a-unconditional-z-pooled"
    got = json.loads(json.dumps(record.run_case(name, threads=2)))
    assert _differences(GOLDEN["cases"][name], got, name) == []


def test_the_comparison_sees_the_last_bit():
    want = GOLDEN["cases"]["betterbirth"]
    got = json.loads(json.dumps(want))
    got["p_max"] = math.nextafter(got["p_max"], 1.0)
    assert _differences(want, got, "betterbirth") == (
        [f"betterbirth.p_max: {want['p_max']!r} != {got['p_max']!r}"] if EXACT else [])
