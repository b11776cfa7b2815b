#!/usr/bin/env python3
"""ctradiomics benchmark: one workload's CLI pipeline, timed end to end or traced.

    python3 perfbench/run.py --workload phantom150 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each repeat generates the workload's
inputs from ``--seed`` (the set-up), then starts every CLI command of the
pipeline as a child process with ``--jobs 1``.  Repeats go on until
``--seconds`` have passed, and there are always at least two, so that outputs
can be compared byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
repeat and one traced repeat, whose children run the same commands in-process
through ``cli.main`` with the layers wrapped (see ``tracing.py``), and reports
the per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(samples, checks, provenance) goes to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracing import FAMILY_FUNCTIONS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Children run single-threaded: --jobs 1 and one BLAS thread.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_REPEATS = 2
MIN_SETUPS = 3  # setup_s is the median of at least this many set-ups per run
RUN_LIMIT_S = 165.0  # a run must end within 180 s; no repeat starts that would pass this
N_EXPERIMENTS = 5
HELDOUT_MIN_ACCURACY = 0.85  # acceptance gate criterion 5, experiment 2
REL_TOL = 1e-6

# ct512: a CT-sized scan (ROADMAP item 1), lesion sizes counted after 1 mm resampling
CT_SPACING = (0.7, 0.7, 2.5)


@dataclass(frozen=True)
class Workload:
    bin_width: str
    cohorts: dict = field(default_factory=dict)  # phantom cohort -> --n-per-class
    ct: tuple = ()  # (dims, lesion voxel counts) of one CT scan
    train: bool = False  # run experiments and stats after extract
    experiment_args: tuple = ()


WORKLOADS = {
    "phantom150": Workload("25", cohorts={"train": "50", "test": "17,17,16"}, train=True),
    "ct512": Workload("25", ct=((512, 512, 100), (7_000, 33_000, 179_000))),
    "glcm_levels": Workload("2", cohorts={"train": "50"}),
}
# --tiny: the same pipelines at a size that runs in seconds (self-test only)
TINY_WORKLOADS = {
    "phantom150": Workload(
        "25", cohorts={"train": "10", "test": "4"}, train=True, experiment_args=("--kfold", "3", "--max-lv", "5")
    ),
    "ct512": Workload("25", ct=((64, 64, 16), (50, 150, 400))),
    "glcm_levels": Workload("2", cohorts={"train": "10"}),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("extract_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYERS = ("volume_io", "features", "pls", "model_selection", "stats", "dataio", "cli")
PER_LAYER = (
    *((f"volume_io.{fn}.s", "s") for fn in ("read_volume", "read_mask", "resample_isotropic", "extract_lesions")),
    ("volume_io.voxels_in", "count"),
    ("volume_io.voxels_resampled", "count"),
    ("volume_io.bytes_resampled", "bytes_computed"),
    ("volume_io.lesion_voxel_share", "ratio"),
    ("features.extract_all.s", "s"),
    ("features.extract_all.p50_ms", "ms"),
    ("features.extract_all.p90_ms", "ms"),
    ("features.discretize.s", "s"),
    *((f"features.{family}.s", "s") for family in FAMILY_FUNCTIONS),
    ("features.lesions", "count"),
    ("features.voxels", "count"),
    ("features.n_levels.median", "count"),
    ("features.n_levels.max", "count"),
    ("pls.fit_pls.calls", "count"),
    ("pls.fit_pls.s", "s"),
    ("pls.predict.calls", "count"),
    *((f"model_selection.fit_experiment.{k}.s", "s") for k in range(1, N_EXPERIMENTS + 1)),
    ("model_selection.evaluate.s", "s"),
    ("stats.feature_group_report.s", "s"),
    ("dataio.read_features_csv.s", "s"),
    ("dataio.write_features_csv.s", "s"),
    ("phantom.generate_phantom.s", "s"),
    *((f"cli.{command}.s", "s") for command in ("extract", "experiments", "stats")),
    ("cli.startup_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Cohort:
    manifest: Path
    lesions: int
    scans: int


@dataclass
class Repeat:
    work: Path
    cohorts: dict
    commands: list
    traced: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def phantom_lesions(counts: str) -> int:
    parts = [int(p) for p in counts.split(",")]
    return 3 * parts[0] if len(parts) == 1 else sum(parts)


def write_ct_scan(out: Path, seed: int, dims, lesion_voxels) -> Cohort:
    """One int16 CT scan at CT_SPACING: soft tissue with noise inside an
    elliptic body, air outside, and one sphere per entry of ``lesion_voxels``
    sized to hold about that many voxels once resampled to 1 mm."""
    import numpy as np

    from ctradiomics import dataio
    from ctradiomics.volume_io import write_nifti

    out.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    spacing = np.array(CT_SPACING)
    extent = np.array(dims) * spacing
    image = rng.standard_normal(dims, dtype=np.float32)
    image *= 12.0
    image += 40.0
    image = np.rint(image).astype(np.int16)
    x = (np.arange(dims[0]) * spacing[0] - extent[0] / 2) / (0.46 * extent[0])
    y = (np.arange(dims[1]) * spacing[1] - extent[1] / 2) / (0.40 * extent[1])
    image[x[:, None] ** 2 + y[None, :] ** 2 > 1.0] = -1000
    labels = np.zeros(dims, dtype=np.uint8)
    for k, n in enumerate(lesion_voxels):
        radius = (3.0 * n / (4.0 * math.pi)) ** (1.0 / 3.0)
        jitter = rng.uniform(-1.0, 1.0, size=3) * (0.015, 0.10, 0.15)
        centre = extent * (np.array([(k + 1) / 4, 0.5, 0.5]) + jitter)
        lo = np.maximum(np.floor((centre - radius) / spacing).astype(int), 0)
        hi = np.minimum(np.ceil((centre + radius) / spacing).astype(int) + 1, dims)
        d2 = [(np.arange(a, b) * s - c) ** 2 for a, b, s, c in zip(lo, hi, spacing, centre)]
        inside = d2[0][:, None, None] + d2[1][None, :, None] + d2[2][None, None, :] <= radius**2
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        labels[box][inside] = k + 1
        hu = rng.normal(rng.uniform(50.0, 110.0), 20.0, size=int(inside.sum()))
        image[box][inside] = np.rint(hu).astype(np.int16)
    write_nifti(out / "image.nii", image, CT_SPACING)
    write_nifti(out / "mask.nii", labels, CT_SPACING)
    class_map = {k + 1: k + 1 for k in range(len(lesion_voxels))}
    manifest = out / "manifest.csv"
    dataio.write_manifest(manifest, [dataio.ManifestEntry("ct512", Path("image.nii"), Path("mask.nii"), class_map)])
    return Cohort(manifest, lesions=len(lesion_voxels), scans=1)


def setup_inputs(w: Workload, work: Path, seed: int) -> dict:
    """Generate the workload's inputs under ``work``; cohort name -> Cohort."""
    if w.ct:
        return {"ct": write_ct_scan(work / "ct", seed, *w.ct)}
    from ctradiomics import cli

    cohorts = {}
    for i, (name, counts) in enumerate(w.cohorts.items()):
        out = work / name
        argv = ["phantom", "--out", str(out), "--n-per-class", counts, "--seed", str(2 * seed + i)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv} exited with {code}")
        lesions = phantom_lesions(counts)
        cohorts[name] = Cohort(out / "manifest.csv", lesions=lesions, scans=lesions)
    return cohorts


def pipeline(w: Workload, cohorts: dict, work: Path) -> list[list[str]]:
    commands = [
        ["extract", "--manifest", str(c.manifest), "--out", str(work / f"{name}.csv")]
        + ["--bin-width", w.bin_width, "--jobs", "1"]
        for name, c in cohorts.items()
    ]
    if w.train:
        train, test = str(work / "train.csv"), str(work / "test.csv")
        out = str(work / "experiments.json")
        commands.append(["experiments", "--train", train, "--test", test, "--out", out, *w.experiment_args])
        commands.append(["stats", "--features", train, "--out", str(work / "stats.csv")])
    return commands


def run_child(argv: list[str], env: dict, log: Path, deadline: float) -> dict:
    """Run one child to completion (killing it at ``deadline``); its wall time,
    exit code, peak RSS from its own rusage, and the errors it reported."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                time.sleep(0.005)
        finally:
            if not pid:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace").splitlines()
    scans = sum(line.startswith("error: scan ") for line in lines)
    experiments = sum(line.startswith("error: experiment ") for line in lines)
    return {
        "command": argv,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "failed_scans": scans,
        "failed_experiments": experiments,
        # a nonzero exit that names no scan or experiment fails the whole command
        "failed_command": int(proc.returncode != 0 and scans + experiments == 0),
        "stderr_tail": lines[-5:],
    }


def run_pipeline(commands, work: Path, env: dict, deadline: float, traced: bool) -> list[dict]:
    results = []
    for i, args in enumerate(commands):
        trace_file = work / f"trace-{i}.json"
        entry = [str(BENCH / "tracing.py"), str(trace_file)] if traced else ["-m", "ctradiomics.cli"]
        result = run_child([sys.executable, *entry, *args], env, work / f"command-{i}", deadline)
        result["name"] = args[0]
        if traced:
            missing = {"spans": [], "rows": {}}
            result["trace"] = json.loads(trace_file.read_text()) if trace_file.exists() else missing
        results.append(result)
    return results


def read_feature_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (tuple(rows[0]), rows[1:]) if rows else ((), [])


def as_float(text: str) -> float:
    """The CSV cell as a float, NaN when it does not parse."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def file_digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_checks(w: Workload, repeats: list[Repeat]) -> list[dict]:
    """Correctness checks over all repeats; each is one attempted operation."""
    from ctradiomics.dataio import ID_COLUMNS
    from ctradiomics.features import FEATURE_COLUMNS

    checks = []

    def check(name, ok, detail):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    header_ok = ID_COLUMNS + FEATURE_COLUMNS
    tables = {}
    for r, rep in enumerate(repeats):
        for name, cohort in rep.cohorts.items():
            path = rep.work / f"{name}.csv"
            header, rows = read_feature_csv(path) if path.exists() else ((), [])
            tables[r, name] = rows
            check(f"repeat{r}.{name}.rows", len(rows) == cohort.lesions, f"{len(rows)} rows, expected {cohort.lesions}")
            bad = sum(
                1 for row in rows if len(row) != len(header_ok) or not all(math.isfinite(as_float(v)) for v in row[3:])
            )
            check(
                f"repeat{r}.{name}.finite",
                header == header_ok and rows and bad == 0,
                f"header {'ok' if header == header_ok else 'wrong'}, {bad} rows with a missing or non-finite value",
            )
        if w.train:
            path = rep.work / "experiments.json"
            doc = json.loads(path.read_text()) if path.exists() else {"experiments": [], "failures": ["missing"]}
            acc = {e["experiment"]: e.get("metrics", {}).get("accuracy") for e in doc["experiments"]}
            ok = len(acc) == N_EXPERIMENTS and not doc["failures"] and (acc.get(2) or 0.0) >= HELDOUT_MIN_ACCURACY
            check(
                f"repeat{r}.experiments",
                ok,
                f"{len(acc)} experiments, {len(doc['failures'])} failures, "
                f"experiment 2 held-out accuracy {acc.get(2)} (needs >= {HELDOUT_MIN_ACCURACY})",
            )
    outputs = [f"{name}.csv" for name in repeats[0].cohorts] + (["experiments.json"] if w.train else [])
    for name in outputs:
        digests = [file_digest(rep.work / name) for rep in repeats]
        same = None not in digests and len(set(digests)) == 1
        check(f"identical.{name}", same, f"{len(set(digests))} distinct over {len(digests)} repeats")
    for r, rep in enumerate(repeats):
        if not rep.traced:
            continue
        extracts = [c for c in rep.commands if c["name"] == "extract"]
        for name, result in zip(rep.cohorts, extracts):
            traced_rows = result["trace"].get("rows", {})
            cli_rows = tables[0, name]
            mismatched = [
                row[0]
                for row in cli_rows
                if row[0] not in traced_rows
                or not all(
                    math.isclose(as_float(a), b, rel_tol=REL_TOL, abs_tol=1e-12)
                    for a, b in zip(row[3:], traced_rows[row[0]])
                )
            ]
            check(
                f"repeat{r}.{name}.traced_rows",
                cli_rows and not mismatched and len(traced_rows) == len(cli_rows),
                f"{len(cli_rows)} CLI rows vs {len(traced_rows)} in-process extract_all rows, "
                f"{len(mismatched)} differ at rel {REL_TOL}",
            )
    return checks


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def summary(samples) -> dict:
    """Median and sample count, plus the highest of p90/p95/p99/p99.9 that
    has at least ten samples beyond it, when there are that many."""
    out = {"median": statistics.median(samples), "n": len(samples), "samples": list(samples)}
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            out[f"p{p:g}"] = percentile(samples, p)
            break
    return out


def end_to_end_samples(repeats: list[Repeat], setup_times: list[float]) -> dict:
    return {
        "setup_s": setup_times,
        "wall_s": [sum(c["wall_s"] for c in rep.commands) for rep in repeats],
        "extract_s": [sum(c["wall_s"] for c in rep.commands if c["name"] == "extract") for rep in repeats],
        "peak_rss_mb": [max(c["peak_rss_mb"] for rep in repeats for c in rep.commands)],
    }


def layer_metrics(traced: Repeat, untraced: Repeat, setup_spans: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer busy and self times, counts and tracing overhead, plus the
    traced repeat's spans with parents renumbered across its commands."""
    spans = []
    for result in traced.commands:
        offset = len(spans)
        for s in result["trace"].get("spans", []):
            spans.append(dict(s, parent=None if s["parent"] is None else s["parent"] + offset))
    durations = defaultdict(list)
    child_time = [0.0] * len(spans)
    for s in spans:
        durations[s["name"]].append(s["end"] - s["start"])
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_time = defaultdict(float)
    for s, inner in zip(spans, child_time):
        self_time[s["name"].split(".")[0]] += s["end"] - s["start"] - inner

    def total(name):
        return sum(durations.get(name, ()))

    def count(key):
        return sum(s.get(key, 0) for s in spans)

    m = {}
    for fn in ("read_volume", "read_mask", "resample_isotropic", "extract_lesions"):
        m[f"volume_io.{fn}.s"] = total(f"volume_io.{fn}")
    m["volume_io.voxels_in"] = count("voxels_in")
    m["volume_io.voxels_resampled"] = count("voxels_resampled")
    m["volume_io.bytes_resampled"] = count("bytes_resampled")
    resampled = count("voxels_resampled")
    m["volume_io.lesion_voxel_share"] = count("lesion_voxels") / resampled if resampled else 0.0
    per_lesion_ms = [1000.0 * d for d in durations.get("features.extract_all", ())]
    m["features.extract_all.s"] = total("features.extract_all")
    m["features.extract_all.p50_ms"] = statistics.median(per_lesion_ms) if per_lesion_ms else 0.0
    m["features.extract_all.p90_ms"] = percentile(per_lesion_ms, 90.0) if per_lesion_ms else 0.0
    m["features.discretize.s"] = total("features.discretize")
    for family in FAMILY_FUNCTIONS:
        m[f"features.{family}.s"] = total(f"features.{family}")
    levels = [s["n_levels"] for s in spans if s["name"] == "features.discretize" and "n_levels" in s]
    m["features.lesions"] = len(per_lesion_ms)
    m["features.voxels"] = count("voxels")
    m["features.n_levels.median"] = statistics.median(levels) if levels else 0
    m["features.n_levels.max"] = max(levels, default=0)
    m["pls.fit_pls.calls"] = len(durations.get("pls.fit_pls", ()))
    m["pls.fit_pls.s"] = total("pls.fit_pls")
    m["pls.predict.calls"] = len(durations.get("pls.predict", ()))
    experiments = [s for s in spans if s["name"] == "model_selection.fit_experiment"]
    for k in range(1, N_EXPERIMENTS + 1):
        m[f"model_selection.fit_experiment.{k}.s"] = sum(s["end"] - s["start"] for s in experiments if s["experiment"] == k)
    m["model_selection.evaluate.s"] = total("model_selection.evaluate")
    m["stats.feature_group_report.s"] = total("stats.feature_group_report")
    m["dataio.read_features_csv.s"] = total("dataio.read_features_csv")
    m["dataio.write_features_csv.s"] = total("dataio.write_features_csv")
    phantom = [s["end"] - s["start"] for s in setup_spans if s["name"] == "phantom.generate_phantom"]
    m["phantom.generate_phantom.s"] = statistics.median(phantom) if phantom else 0.0
    for command in ("extract", "experiments", "stats"):
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    traced_wall = sum(c["wall_s"] for c in traced.commands)
    in_main = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["cli.startup_s"] = traced_wall - in_main
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - sum(c["wall_s"] for c in untraced.commands)
    return m, spans


def provenance(seed: int, env: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def run(args) -> dict:
    workloads = TINY_WORKLOADS if args.tiny else WORKLOADS
    w = workloads[args.workload]
    env = child_env()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    from ctradiomics import cli  # imported before timing, so set-up times exclude imports

    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.wrap(cli.ph, "generate_phantom", "phantom.generate_phantom")
    work_root = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    repeats: list[Repeat] = []
    setup_times: list[float] = []
    try:
        while True:
            traced = bool(args.trace) and len(repeats) == 1
            work = work_root / f"repeat{len(repeats)}"
            t0 = time.perf_counter()
            cohorts = setup_inputs(w, work, args.seed)
            setup_times.append(time.perf_counter() - t0)
            commands = run_pipeline(pipeline(w, cohorts, work), work, env, deadline, traced)
            repeats.append(Repeat(work, cohorts, commands, traced))
            elapsed = time.perf_counter() - start
            if len(repeats) < MIN_REPEATS:
                continue
            if args.trace or elapsed >= args.seconds or elapsed * (1 + 1 / len(repeats)) > RUN_LIMIT_S:
                break
        while len(setup_times) < MIN_SETUPS:
            t0 = time.perf_counter()
            setup_inputs(w, work_root / f"setup{len(setup_times)}", args.seed)
            setup_times.append(time.perf_counter() - t0)
        checks = run_checks(w, repeats)
        record = summarize(args, w, env, repeats, setup_times, checks, setup_tracer)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return record


def summarize(args, w: Workload, env: dict, repeats: list, setup_times: list, checks: list, setup_tracer: Tracer) -> dict:
    """The run's record: result line, samples, checks and provenance."""
    attempted = len(checks)
    failed = sum(not c["ok"] for c in checks)
    for rep in repeats:
        attempted += sum(c.scans for c in rep.cohorts.values()) + (N_EXPERIMENTS if w.train else 0)
        for c in rep.commands:
            failed += c["failed_scans"] + c["failed_experiments"] + c["failed_command"]
    record = {
        "workload": args.workload,
        "tiny": args.tiny,
        "trace": args.trace,
        "provenance": provenance(args.seed, env),
        "repeats": len(repeats),
        "checks": checks,
        "failed_share": failed / attempted,
        "commands": [[{k: v for k, v in c.items() if k != "trace"} for c in rep.commands] for rep in repeats],
    }
    if args.trace:
        values, spans = layer_metrics(repeats[1], repeats[0], setup_tracer.spans)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        record["spans"] = spans
    else:
        samples = end_to_end_samples(repeats, setup_times)
        record["end_to_end"] = {name: summary(values) for name, values in samples.items()}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END}
        if w.train:
            # phantom150 only, so kept out of the metrics object
            record["train_s"] = summary([c["wall_s"] for rep in repeats for c in rep.commands if c["name"] == "experiments"])
            record["heldout_acc"] = heldout_accuracy(repeats[0])
    record["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record


def heldout_accuracy(rep: Repeat) -> float | None:
    """Mean held-out accuracy over the experiments of one repeat."""
    path = rep.work / "experiments.json"
    if not path.exists():
        return None
    acc = [e["metrics"]["accuracy"] for e in json.loads(path.read_text())["experiments"] if "metrics" in e]
    return statistics.fmean(acc) if acc else None


def print_report(record: dict) -> None:
    prov = record["provenance"]
    print(
        f"# {record['workload']} seed {prov['seed']} trace {record['trace']}: {record['repeats']} repeats, "
        f"src {prov['src_lines']} lines, git {prov['git_sha']}, python {prov['python']}, numpy {prov['numpy']}, "
        f"scipy {prov['scipy']}, nproc {prov['nproc']}, BLAS threads {prov['blas_threads_env']}"
    )
    for c in record["checks"]:
        print(f"# check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
    for name, s in record.get("end_to_end", {}).items():
        high = "".join(f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"# {name}: median {s['median']:.6g} over n={s['n']}{high}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_share {record['failed_share']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "ctradiomics" / "cli.py").is_file():
        print(f"error: no ctradiomics sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
