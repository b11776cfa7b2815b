"""Golden outputs: a small seeded pipeline run must reproduce the committed
files in ``tests/golden/``.

The gate walks the files with the report ``tests/golden/build.py`` prints:
ids, integer text (classes, counts), JSON ints and bools must match exactly;
floats must agree within ``REL`` (rel 1e-12), which catches a last-bit
formula change that the oracles' rel 1e-6 lets through.  ``build.py``
rewrites the files.
"""

from __future__ import annotations

import pytest
from golden.build import HERE, OUTPUTS, REL, _moves, build


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    build(out, tmp_path_factory.mktemp("scans"))
    return out


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden(built, name):
    moves = _moves(built / name, HERE / name, rel=REL)
    assert not moves, f"{name}: moved by more than rel {REL}: {moves}"
