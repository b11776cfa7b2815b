"""The report ``tests/golden/build.py`` prints before it rewrites the golden
files: each moved CSV column or JSON key path with its largest relative move."""

from __future__ import annotations

import json
import math

import pytest
from golden import build


def test_csv_moves_name_each_moved_column(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("lesion_id,a,b\nx/1,1.0,2.0\nx/2,4.0,0.5\n")
    new.write_text("lesion_id,a,b\nx/1,1.0,2.0000000000000004\ny/2,4.0,0.75\n")
    assert build._moves(new, old) == {"lesion_id": math.inf, "b": pytest.approx(0.25 / 0.75)}
    # tests/test_golden.py fails on what _moves reports above REL
    assert build.REL == 1e-12
    new.write_text(f"lesion_id,a,b\nx/1,{1.0 + 2e-12!r},{2.0 * (1 + 5e-13)!r}\nx/2,4.0,0.5\n")
    assert build._moves(new, old, rel=build.REL) == {"a": pytest.approx(2e-12, rel=1e-3)}
    assert build._moves(new, old).keys() == {"a", "b"}
    new.write_text("lesion_id,a,b\nx/1,1.0,2\nx/2,4.0,0.5\n")
    assert build._moves(new, old) == {"b": math.inf}  # integer text compares exactly
    old.write_text("lesion_id,class_id\nx/1,2\n")
    new.write_text("lesion_id,class_id\nx/1,2.0\n")
    assert build._moves(new, old) == {"class_id": math.inf}
    new.write_text("lesion_id,a\nx/1,1.0\nx/2,4.0\n")
    assert build._moves(new, old) == {"header or shape": math.inf}


def test_json_moves_name_each_moved_key_path(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"runs": [{"x": 1.0, "lv": 2}, {"x": 2.0, "lv": 3}], "name": "a", "n": 10**13}))
    new.write_text(json.dumps({"runs": [{"x": 1.0, "lv": 2}, {"x": 2.5, "lv": 3.0}], "name": "a", "n": 10**13 + 1}))
    moves = {"/runs/*/x": pytest.approx(0.2), "/runs/*/lv": math.inf, "/n": math.inf}  # ints compare exactly
    assert build._moves(new, old) == moves


def test_report_lists_only_the_outputs_that_change(tmp_path, monkeypatch, capsys):
    golden, built = tmp_path / "golden", tmp_path / "built"
    for d in (golden, built):
        d.mkdir()
        (d / "same.csv").write_text("a\n1.0\n")
    (golden / "moved.csv").write_text("a,b\n1.0,x\n")
    (built / "moved.csv").write_text("a,b\n1.5,x\n")
    (built / "new.json").write_text("{}\n")
    monkeypatch.setattr(build, "HERE", golden)
    monkeypatch.setattr(build, "OUTPUTS", ("same.csv", "moved.csv", "new.json"))
    build.report(built)
    assert capsys.readouterr().out.splitlines() == [
        "golden outputs that change: 2",
        "moved.csv: bytes differ",
        "  a: 0.33",
        "new.json: new file",
    ]
