"""Golden outputs: a small seeded pipeline run must reproduce the committed
files in ``tests/golden/``.

Ids, classes, counts, LV counts and selected columns must match exactly;
floats must agree within rel 1e-12, which catches a last-bit formula change
that the oracles' rel 1e-6 lets through.  ``tests/golden/build.py`` rewrites
the files.
"""

from __future__ import annotations

import csv
import json
import math

import pytest
from golden.build import HERE, OUTPUTS, build

REL = 1e-12


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()  # integers compare exactly


def _same_float(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0) or (math.isnan(a) and math.isnan(b))


def _csv_differences(built, golden) -> list[str]:
    with open(built, newline="") as fh:
        got = list(csv.reader(fh))
    with open(golden, newline="") as fh:
        want = list(csv.reader(fh))
    if [len(row) for row in got] != [len(row) for row in want] or got[:1] != want[:1]:
        return ["header or shape differs"]
    return [
        f"row {r} {want[0][c]}: {g!r} != {w!r}"
        for r, (got_row, want_row) in enumerate(zip(got, want))
        for c, (g, w) in enumerate(zip(got_row, want_row))
        if g != w and not (_is_float(g) and _is_float(w) and _same_float(float(g), float(w)))
    ]


def _json_differences(got, want, at="") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [d for k in want for d in _json_differences(got[k], want[k], f"{at}/{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _json_differences(g, w, f"{at}/{i}")]
    if type(got) is float and type(want) is float and _same_float(got, want):
        return []
    return [] if got == want and type(got) is type(want) else [f"{at}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    build(out, tmp_path_factory.mktemp("scans"))
    return out


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden(built, name):
    if name.endswith(".csv"):
        differences = _csv_differences(built / name, HERE / name)
    else:
        got, want = (json.loads((d / name).read_text()) for d in (built, HERE))
        differences = _json_differences(got, want)
    assert not differences, f"{name}: {len(differences)} differences, first {differences[:5]}"
