"""Build the golden outputs: one small seeded run of the whole pipeline.

    PYTHONPATH=src python tests/golden/build.py

builds the outputs in a temporary directory, prints for each output it would
change every moved CSV column or JSON key path (list indices as ``*``) with
its largest relative move, |new - old| / max(|new|, |old|), and only then
rewrites the files next to this script.  ``tests/test_golden.py`` builds the
same outputs in a temporary directory and walks them with the same
``_moves``, failing on any move above ``REL``, so a change that moves any
output shows up as a failing test.  Integer text, JSON ints and bools and
ids compare exactly: their only moves are 0 and inf ("changed").  A change
that rewrites them must say in CHANGES.md which columns moved and by how much:
the printed report is that list.

The run: the train cohort ``phantom --n-per-class 4 --seed 1`` extracted at
the default 25 HU bin width, at a 2 HU bin width and at ``--spacing 0.8``;
the test cohort ``phantom --n-per-class 2 --seed 2``; one small anisotropic
two-lesion scan written with ``write_nifti``; ``experiments``, ``train`` and
``stats`` (per-feature and ``--global-family``) on the train and test
features; ``predict`` and ``evaluate`` of the test features with the trained
model; and the train cohort's manifest as ``phantom`` writes it.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ctradiomics import cli
from ctradiomics.volume_io import write_nifti

HERE = Path(__file__).resolve().parent
REL = 1e-12  # the golden gate fails on any relative move above this
OUTPUTS = (
    "train.csv",
    "train-bw2.csv",
    "train-s08.csv",
    "test.csv",
    "anisotropic.csv",
    "experiments.json",
    "model.json",
    "model.report.json",
    "stats.csv",
    "stats-global.csv",
    "predictions.csv",
    "metrics.json",
    "manifest.csv",
)


def _run(*argv) -> None:
    if cli.main([str(a) for a in argv]) != 0:
        raise RuntimeError(f"ctradiomics {' '.join(map(str, argv))} failed")


def _anisotropic_scan(work: Path) -> Path:
    """A 24 x 20 x 8 int16 scan at 0.8 x 0.9 x 2.5 mm holding a noisy
    ellipsoid (label 1, class 2) and a flatter slab (label 2, class 3)."""
    rng = np.random.default_rng(7)
    dims, spacing = (24, 20, 8), (0.8, 0.9, 2.5)
    image = rng.integers(10, 40, size=dims, dtype=np.int16)
    labels = np.zeros(dims, dtype=np.uint8)
    x, y, z = np.ogrid[: dims[0], : dims[1], : dims[2]]
    labels[((x - 7) / 5.0) ** 2 + ((y - 9) / 6.0) ** 2 + ((z - 4) / 2.5) ** 2 <= 1] = 1
    labels[16:22, 4:16, 2:5] = 2
    for label, (lo, hi) in ((1, (40, 120)), (2, (-60, 200))):
        inside = labels == label
        image[inside] = rng.integers(lo, hi, size=int(inside.sum()), dtype=np.int16)
    write_nifti(work / "image.nii", image, spacing, origin=(-3.0, 4.5, 10.0))
    write_nifti(work / "mask.nii", labels, spacing, origin=(-3.0, 4.5, 10.0))
    manifest = work / "manifest.csv"
    manifest.write_text("scan_id,image_path,mask_path,class_map\naniso,image.nii,mask.nii,1=2;2=3\n")
    return manifest


def build(out: Path, work: Path) -> None:
    """Write every file of ``OUTPUTS`` into ``out``, using ``work`` for the scans."""
    train, test = work / "train" / "manifest.csv", work / "test" / "manifest.csv"
    _run("phantom", "--out", train.parent, "--n-per-class", 4, "--seed", 1)
    _run("phantom", "--out", test.parent, "--n-per-class", 2, "--seed", 2)
    _run("extract", "--manifest", train, "--out", out / "train.csv")
    _run("extract", "--manifest", train, "--out", out / "train-bw2.csv", "--bin-width", 2)
    _run("extract", "--manifest", train, "--out", out / "train-s08.csv", "--spacing", 0.8)
    _run("extract", "--manifest", test, "--out", out / "test.csv")
    _run("extract", "--manifest", _anisotropic_scan(work), "--out", out / "anisotropic.csv")
    runs = ("--kfold", 3, "--max-lv", 3)
    _run("experiments", "--train", out / "train.csv", "--test", out / "test.csv", "--out", out / "experiments.json", *runs)
    _run("train", "--features", out / "train.csv", "--out", out / "model.json", *runs)
    _run("stats", "--features", out / "train.csv", "--out", out / "stats.csv")
    _run("stats", "--features", out / "train.csv", "--out", out / "stats-global.csv", "--global-family")
    _run("predict", "--features", out / "test.csv", "--model", out / "model.json", "--out", out / "predictions.csv")
    _run("evaluate", "--features", out / "test.csv", "--model", out / "model.json", "--out", out / "metrics.json")
    (out / "manifest.csv").write_bytes(train.read_bytes())


def _as_float(value) -> float | None:
    """``value`` as a float if it is one: a JSON float, or CSV text of a
    number that is not an integer.  None for anything else (integer text,
    JSON ints and bools, ids), which must match exactly."""
    if isinstance(value, float):
        return value
    if not isinstance(value, str) or value.lstrip("-").isdigit():
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _move(new, old) -> float:
    """The relative move from ``old`` to ``new``: 0 if equal, inf if they
    differ and either is not a float (so ``2`` -> ``2.0`` is a change)."""
    if new == old and type(new) is type(old):
        return 0.0
    a, b = _as_float(new), _as_float(old)
    if a is None or b is None:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf


def _json_moves(new, old, at: str, moves: dict[str, float]) -> None:
    if isinstance(new, dict) and isinstance(old, dict) and new.keys() == old.keys():
        for key in old:
            _json_moves(new[key], old[key], f"{at}/{key}", moves)
    elif isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        for n, o in zip(new, old):
            _json_moves(n, o, f"{at}/*", moves)
    else:
        moves[at or "/"] = max(moves.get(at or "/", 0.0), _move(new, old))


def _moves(new: Path, old: Path, rel: float = 0.0) -> dict[str, float]:
    """The largest relative move of each CSV column or JSON key path from
    ``old`` to ``new``, for the ones that moved by more than ``rel``."""
    moves: dict[str, float] = {}
    if new.suffix == ".json":
        _json_moves(json.loads(new.read_text()), json.loads(old.read_text()), "", moves)
    else:
        with open(new, newline="") as fh_new, open(old, newline="") as fh_old:
            rows_new, rows_old = list(csv.reader(fh_new)), list(csv.reader(fh_old))
        if [len(r) for r in rows_new] != [len(r) for r in rows_old] or rows_new[:1] != rows_old[:1]:
            return {"header or shape": math.inf}
        for row_new, row_old in zip(rows_new[1:], rows_old[1:]):
            for column, n, o in zip(rows_old[0], row_new, row_old):
                moves[column] = max(moves.get(column, 0.0), _move(n, o))
    return {key: moved for key, moved in moves.items() if moved > rel}


def report(built: Path) -> None:
    """Print what rewriting the golden files with those in ``built`` moves."""
    def changes(name: str) -> bool:
        return not (HERE / name).exists() or (built / name).read_bytes() != (HERE / name).read_bytes()

    changed = [name for name in OUTPUTS if changes(name)]
    print(f"golden outputs that change: {len(changed)}")
    for name in changed:
        new, old = built / name, HERE / name
        if not old.exists():
            print(f"{name}: new file")
        else:
            moves = _moves(new, old)
            print(f"{name}: bytes differ" + ("" if moves else ", no value moved"))
            for key, moved in sorted(moves.items(), key=lambda kv: -kv[1]):
                print(f"  {key}: {'changed' if math.isinf(moved) else f'{moved:.2g}'}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out, work = Path(tmp, "out"), Path(tmp, "work")
        out.mkdir()
        work.mkdir()
        build(out, work)
        report(out)
        for name in OUTPUTS:
            shutil.copyfile(out / name, HERE / name)
