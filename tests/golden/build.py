"""Build the golden outputs: one small seeded run of the whole pipeline.

    PYTHONPATH=src python tests/golden/build.py

rewrites the files next to this script.  ``tests/test_golden.py`` builds the
same outputs in a temporary directory and compares them with the committed
ones, so a change that moves any output shows up as a failing test.  A change
that rewrites them must say in CHANGES.md which columns moved and by how much.

The run: the train cohort ``phantom --n-per-class 4 --seed 1`` extracted at
the default 25 HU bin width, at a 2 HU bin width and at ``--spacing 0.8``;
the test cohort ``phantom --n-per-class 2 --seed 2``; one small anisotropic
two-lesion scan written with ``write_nifti``; ``experiments``, ``train`` and
``stats`` (per-feature and ``--global-family``) on the train and test
features; ``predict`` and ``evaluate`` of the test features with the trained
model; and the train cohort's manifest as ``phantom`` writes it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ctradiomics import cli
from ctradiomics.volume_io import write_nifti

HERE = Path(__file__).resolve().parent
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        build(HERE, Path(work))
