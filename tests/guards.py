"""The checks CI runs where only numpy is installed, one line per check.

    PYTHONPATH=src python tests/guards.py

runs every command as ``python -m ctradiomics`` with this interpreter, in a
temporary directory, and exits 1 if any check fails:

- tiny pipeline: ``phantom``, ``extract`` (once in process, once with
  ``--jobs 2``), ``experiments`` and ``train`` twice each, ``stats``,
  ``predict`` and ``evaluate`` all exit 0, and the rows ``cli.extract_scan``
  gives for the phantom scans in memory are written;
- extract peak RSS: ``extract`` on one 512 x 512 x 100 scan with three balls
  peaks under ``EXTRACT_LIMIT_MB`` in each of ``CT_VARIANTS``: an int16
  image, the image as float64 (NaN is checked one streamed chunk at a time)
  and the mask as float32 (streamed into uint8 labels);
- phantom growth: ``phantom`` writes each scan before it makes the next, so
  its peak RSS at the larger of ``PHANTOM_N_PER_CLASS`` is at most
  ``PHANTOM_GROWTH_LIMIT_MB`` above the smaller;
- same bytes: each pair of ``SAME_BYTES`` is byte-identical, so the
  one-worker pools of ``--jobs 2``, the scans in memory, the CV sweep and
  the float variants of the scan give the bytes they must.
"""

from __future__ import annotations

import filecmp
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ctradiomics import cli, dataio, phantom
from ctradiomics.volume_io import write_nifti

PIPELINE_COHORTS = {"train": (4, 1), "test": (2, 2)}  # name: (n per class, seed)
RUN_OPTIONS = ("--kfold", "3", "--max-lv", "3")
EXTRACT_LIMIT_MB = 200
CT_DIMS, CT_SPACING, CT_SEED = (512, 512, 100), (0.7, 0.7, 2.5), 0
CT_BALLS = ((90.0, 12.0), (180.0, 20.0), (270.0, 35.0))  # (x centre, radius) in mm, at y 179, z 125
CT_VARIANTS = {  # variant: (image dtype, mask dtype)
    "": ("int16", "uint8"),
    "-float64": ("float64", "uint8"),
    "-float32-mask": ("int16", "float32"),
}
PHANTOM_N_PER_CLASS, PHANTOM_SEED = (2, 40), 1
PHANTOM_GROWTH_LIMIT_MB = 10
SAME_BYTES = (
    ("train.csv", "train-jobs2.csv"),
    ("train.csv", "train-memory.csv"),
    ("experiments-1.json", "experiments-2.json"),
    ("model-1.json", "model-2.json"),
    ("model-1.report.json", "model-2.report.json"),
    ("ct.csv", "ct-float64.csv"),
    ("ct.csv", "ct-float32-mask.csv"),
)

# A child's ru_maxrss includes the image it was forked from, so a child of
# this process (which holds numpy and the CT scan) would report this
# process's peak.  This small launcher starts the measured command instead
# and prints its exit code and its own peak, in KiB, from wait4.
_LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def ctradiomics(*argv) -> list[str]:
    return [sys.executable, "-m", "ctradiomics", *map(str, argv)]


def run(argv) -> None:
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)


def peak_mb(argv) -> float:
    """The peak RSS of ``argv`` alone, in MB; CalledProcessError if it fails."""
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], check=True, stdout=subprocess.PIPE, text=True)
    returncode, max_rss_kib = map(int, launched.stdout.split())
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, argv)
    return max_rss_kib / 1024


def tiny_pipeline(work: Path):
    for name, (n, seed) in PIPELINE_COHORTS.items():
        run(ctradiomics("phantom", "--out", work / name, "--n-per-class", n, "--seed", seed))
    train_scans = work / "train" / "manifest.csv"
    run(ctradiomics("extract", "--manifest", train_scans, "--out", work / "train.csv"))
    run(ctradiomics("extract", "--manifest", train_scans, "--out", work / "train-jobs2.csv", "--jobs", 2))
    run(ctradiomics("extract", "--manifest", work / "test" / "manifest.csv", "--out", work / "test.csv", "--jobs", 2))
    scans = phantom.generate_phantom(*PIPELINE_COHORTS["train"])
    rows = [row for s in scans for row in cli.extract_scan(s.scan_id, s.volume, s.mask, 25.0, 1.0)]
    dataio.write_features_csv(work / "train-memory.csv", rows)
    train, test, model = work / "train.csv", work / "test.csv", work / "model-1.json"
    for i in (1, 2):
        experiments = work / f"experiments-{i}.json"
        run(ctradiomics("experiments", "--train", train, "--test", test, "--out", experiments, *RUN_OPTIONS))
        run(ctradiomics("train", "--features", train, "--out", work / f"model-{i}.json", *RUN_OPTIONS))
    run(ctradiomics("stats", "--features", train, "--out", work / "stats.csv"))
    run(ctradiomics("predict", "--features", test, "--model", model, "--out", work / "predictions.csv"))
    run(ctradiomics("evaluate", "--features", test, "--model", model, "--out", work / "metrics.json"))
    yield True, "tiny pipeline: every command exits 0"


def write_ct_scan(work: Path) -> None:
    """The CT scan's image and mask in each dtype ``CT_VARIANTS`` names, with
    one manifest per variant."""
    rng = np.random.default_rng(CT_SEED)
    image = rng.integers(20, 60, size=CT_DIMS, dtype=np.int16)
    labels = np.zeros(CT_DIMS, dtype=np.uint8)
    axes = [np.arange(n) * s for n, s in zip(CT_DIMS, CT_SPACING)]
    for label, (cx, radius) in enumerate(CT_BALLS, start=1):
        d2 = [(axes[0] - cx) ** 2, (axes[1] - 179.0) ** 2, (axes[2] - 125.0) ** 2]
        inside = d2[0][:, None, None] + d2[1][None, :, None] + d2[2][None, None, :] <= radius**2
        labels[inside] = label
        image[inside] = rng.integers(50, 110, size=int(inside.sum()), dtype=np.int16)
    arrays = {"image": image, "mask": labels}
    files = {(name, dtype) for dtypes in CT_VARIANTS.values() for name, dtype in zip(arrays, dtypes)}
    for name, dtype in sorted(files):
        write_nifti(work / f"{name}-{dtype}.nii", arrays[name].astype(dtype, copy=False), CT_SPACING)
    for variant, (image_dtype, mask_dtype) in CT_VARIANTS.items():
        entry = f"ct,image-{image_dtype}.nii,mask-{mask_dtype}.nii,1=1;2=2;3=3"
        (work / f"manifest{variant}.csv").write_text(f"scan_id,image_path,mask_path,class_map\n{entry}\n")


def extract_peaks(work: Path):
    write_ct_scan(work)
    for variant in CT_VARIANTS:
        manifest, out = work / f"manifest{variant}.csv", work / f"ct{variant}.csv"
        peak = peak_mb(ctradiomics("extract", "--manifest", manifest, "--out", out))
        name = f"extract{variant or ' (int16)'}"
        yield peak <= EXTRACT_LIMIT_MB, f"{name} peak RSS {peak:.1f} MB (limit {EXTRACT_LIMIT_MB} MB)"


def phantom_growth(work: Path):
    small, large = (
        peak_mb(ctradiomics("phantom", "--out", work / f"n{n}", "--n-per-class", n, "--seed", PHANTOM_SEED))
        for n in PHANTOM_N_PER_CLASS
    )
    yield large - small <= PHANTOM_GROWTH_LIMIT_MB, (
        f"phantom peak RSS {small:.1f} MB at --n-per-class {PHANTOM_N_PER_CLASS[0]}, {large:.1f} MB at "
        f"{PHANTOM_N_PER_CLASS[1]}: growth {large - small:.1f} MB (limit {PHANTOM_GROWTH_LIMIT_MB} MB)"
    )


def same_bytes(work: Path):
    for a, b in SAME_BYTES:
        same = (work / a).exists() and (work / b).exists() and filecmp.cmp(work / a, work / b, shallow=False)
        yield same, f"same bytes: {a} {b}"


GUARDS = (tiny_pipeline, extract_peaks, phantom_growth, same_bytes)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for guard in GUARDS:
            try:
                for passed, line in guard(Path(tmp)):
                    print(f"{'ok  ' if passed else 'FAIL'} {line}", flush=True)
                    failed |= not passed
            except subprocess.CalledProcessError as exc:
                print(f"FAIL {guard.__name__}: {' '.join(map(str, exc.cmd))} exited {exc.returncode}", flush=True)
                failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
