"""Command-line frontend: extract, train, predict, evaluate, experiments,
stats and phantom subcommands.

All randomness flows from --seed; identical configuration and inputs give
byte-identical output files.  The process exits nonzero iff any per-scan or
per-experiment error was recorded.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dataio, model_selection as ms, phantom as ph, pls, stats as st
from .errors import failure_message
from .features import DEFAULT_BIN_WIDTH, FAMILIES, extract_all, family_counts
from .volume_io import extract_lesions, read_mask, read_volume, write_nifti
from .volume_io import resample_isotropic  # noqa: F401  perfbench/tracing.py wraps it by name


def _positive(kind, most=np.inf):
    def parse(text):
        value = kind(text)
        if not 0 < value < np.inf:  # NaN and inf would fail every scan or give one gray level
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text}")
        return value

    return parse


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """--kfold, --max-lv, --vip-threshold and --seed, defaulting to the
    ExperimentSpec fields they set (see _run_settings)."""
    spec = {f.name: f.default for f in dataclasses.fields(ms.ExperimentSpec)}
    p.add_argument("--kfold", type=_positive(int), default=spec["k"])
    p.add_argument("--max-lv", type=_positive(int), default=spec["max_lv"])
    p.add_argument("--vip-threshold", type=_positive(float), default=spec["vip_threshold"])
    p.add_argument("--seed", type=int, default=spec["seed"])


def _run_settings(args) -> dict:
    """The ExperimentSpec run fields given by _add_run_options' options."""
    return {"k": args.kfold, "max_lv": args.max_lv, "seed": args.seed, "vip_threshold": args.vip_threshold}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctradiomics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract feature vectors for every lesion in a manifest")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output feature CSV")
    p.add_argument("--bin-width", type=_positive(float), default=DEFAULT_BIN_WIDTH)
    p.add_argument("--spacing", type=_positive(float), default=1.0, help="isotropic resample target (mm)")
    p.add_argument("--jobs", type=_positive(int), default=1)

    p = sub.add_parser("train", help="fit a VIP-pruned PLS-DA model from a feature CSV")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output model JSON")
    p.add_argument("--report", type=Path, help="report JSON (default: <out>.report.json)")
    p.add_argument("--groups", default="all")
    p.add_argument("--select", action=argparse.BooleanOptionalAction, default=True)
    _add_run_options(p)

    p = sub.add_parser("predict", help="predict classes for a feature CSV")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output predictions CSV")

    p = sub.add_parser("evaluate", help="confusion matrix and accuracy/Se/Sp on labelled data")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output metrics JSON")

    p = sub.add_parser("experiments", help="run the five feature-group experiments")
    p.add_argument("--train", required=True, type=Path, dest="train_csv")
    p.add_argument("--test", required=True, type=Path, dest="test_csv")
    p.add_argument("--out", required=True, type=Path, help="output report JSON")
    _add_run_options(p)

    p = sub.add_parser("stats", help="per-feature Kruskal-Wallis/Dunn/FDR table")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="output CSV")
    p.add_argument("--features-list", help="comma-separated feature subset (default: all)")
    p.add_argument("--alpha", type=_positive(float, most=1.0), default=argparse.SUPPRESS)
    p.add_argument("--q", type=_positive(float, most=1.0), default=argparse.SUPPRESS)
    p.add_argument("--global-family", action="store_true", help="one FDR family across all features")

    p = sub.add_parser("phantom", help="write synthetic image/mask pairs plus a manifest")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument(
        "--n-per-class",
        type=_counts,
        default=50,
        help="lesions per class: a single count or three comma-separated counts",
    )
    p.add_argument("--seed", type=int, default=42)

    return parser


def _counts(text):
    """One int, or a tuple of the comma-separated ints; generate_phantom checks them."""
    parts = text.split(",")
    return int(parts[0]) if len(parts) == 1 else tuple(int(p) for p in parts)


def extract_scan(scan_id: str, vol, mask, bin_width: float, spacing: float) -> list:
    """The (lesion_id, scan_id, class_id, FeatureVector) row of each lesion of
    one scan, sampled at ``spacing`` mm and binned at ``bin_width`` HU: the one
    extraction path, for the ``extract`` command and for scans in memory."""
    lesions = extract_lesions(vol, mask, spacing)
    del vol, mask  # the regions hold copies; free the scan before the features run
    records = []
    for region, class_id in lesions:
        lesion_id = f"{scan_id}/{region.label}"
        records.append((lesion_id, scan_id, class_id, extract_all(region, bin_width, lesion_id=lesion_id)))
    return records


def _extract_scan(entry, bin_width: float, spacing: float):
    """The rows of a manifest entry's scan, and the messages of the warnings
    raised meanwhile."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the default filter shows a repeat once per process
        # the reads are passed on unnamed, so extract_scan can free the scan
        records = extract_scan(
            entry.scan_id,
            read_volume(entry.image_path),
            read_mask(entry.mask_path, entry.class_map),
            bin_width,
            spacing,
        )
    return records, [str(w.message) for w in caught]


def _outcome(run, *args):
    """``run(*args)``, or the ``failure_message`` of the exception it raised:
    the exception itself would keep its scan's memory maps open through its
    traceback."""
    try:
        return run(*args)
    except Exception as exc:
        return failure_message(exc)


def _run_scans(tasks, jobs: int) -> list:
    """Each scan's (rows, warning messages), or its error message, in task order.

    With jobs > 1 the scans run on min(jobs, scans) one-worker process pools,
    one scan per worker.  A worker that dies breaks only its own pool, so it
    names one scan: the one it was running or, had it died idle unnoticed,
    the next one handed to it.  That scan runs once more on a fresh worker,
    and fails with the pool's error message if that worker dies too.
    """
    if jobs == 1:  # no pool: the process pool machinery is not even imported
        return [_outcome(_extract_scan, *t) for t in tasks]
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool
    from contextlib import ExitStack

    outcomes = [None] * len(tasks)
    waiting = [(i, 1) for i in range(len(tasks))]  # (scan, attempt) in run order
    running = {}  # future: (its pool, scan, attempt)
    with ExitStack() as pools:  # shuts every pool down, also on an exception

        def worker():
            return pools.enter_context(ProcessPoolExecutor(max_workers=1))

        idle = [worker() for _ in range(min(jobs, len(tasks)))]
        while waiting or running:
            while waiting and idle:
                pool = idle.pop()
                try:
                    future = pool.submit(_extract_scan, *tasks[waiting[0][0]])
                except BrokenProcessPool:  # its worker died, on an earlier scan or idle: no attempt of this one
                    pool.shutdown()  # before its replacement forks
                    idle.append(worker())
                    continue
                running[future] = pool, *waiting.pop(0)
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                pool, i, attempt = running.pop(future)
                outcomes[i] = _outcome(future.result)
                if isinstance(future.exception(), BrokenProcessPool) and attempt == 1:
                    waiting.insert(0, (i, 2))  # the rerun's outcome replaces this one
                idle.append(pool)  # a broken pool is replaced at its next submit
    return outcomes


def cmd_extract(args) -> int:
    entries = dataio.read_manifest(args.manifest)
    tasks = [(e, args.bin_width, args.spacing) for e in entries]
    failures = 0
    records = []
    for entry, outcome in zip(entries, _run_scans(tasks, args.jobs)):
        if isinstance(outcome, str):
            failures += 1
            print(f"error: scan {entry.scan_id}: {outcome}", file=sys.stderr)
            continue
        rows, messages = outcome
        for message in messages:
            print(f"warning: scan {entry.scan_id}: {message}", file=sys.stderr)
        records.extend(rows)
    dataio.write_features_csv(args.out, records)
    print(f"wrote {len(records)} lesion rows to {args.out}")
    return 1 if failures else 0


def _format_table(header, rows) -> str:
    rows = [header, *rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows)


def _format_fitted_table(reports) -> str:
    header = ["Exp", "ER", "LV", "Considered", "Selected"] + [f.upper() for f in FAMILIES]
    rows = []
    for r in reports:
        cells = [f"#{r['experiment']}", f"{r['error_rate']:.2f}", str(r["chosen_lv"]), str(r["considered_total"])]
        pct = 100.0 * r["selected_total"] / r["considered_total"]
        cells.append(f"{r['selected_total']} ({pct:.1f})")
        for fam in FAMILIES:
            considered = r["considered_by_family"][fam]
            if considered == 0:
                cells.append("")
            else:
                sel = r["selected_by_family"][fam]
                cells.append(f"{sel} ({100.0 * sel / considered:.1f})")
        rows.append(cells)
    return _format_table(header, rows)


def _format_performance_table(named_metrics) -> str:
    """One row per (name, metrics) pair; all share one class set."""
    if not named_metrics:
        return ""
    classes = named_metrics[0][1]["class_labels"]
    header = ["Exp", "Acc"] + [f"Se C{c}" for c in classes] + [f"Sp C{c}" for c in classes]
    rows = []
    for name, m in named_metrics:
        cells = [name, f"{100.0 * m['accuracy']:.1f}"]
        cells += [f"{100.0 * m['sensitivity'][c]:.1f}" for c in classes]
        cells += [f"{100.0 * m['specificity'][c]:.1f}" for c in classes]
        rows.append(cells)
    return _format_table(header, rows)


def _read_labelled(path: Path, no_class_message: str) -> dataio.Dataset | None:
    """The feature rows of ``path`` with their classes, or None once the
    reason there are none has been printed."""
    dataset = dataio.read_features_csv(path)
    if len(dataset) == 0:
        print(f"error: {path} has no lesion rows", file=sys.stderr)
        return None
    if dataset.y is None:
        print(f"error: {no_class_message}", file=sys.stderr)
        return None
    return dataset


def cmd_train(args) -> int:
    spec = ms.ExperimentSpec(0, dataio.parse_groups(args.groups), args.select, **_run_settings(args))
    dataset = _read_labelled(args.features, "training data has no class column")
    if dataset is None:
        return 1
    model, report = ms.fit_experiment(dataset, spec)
    pls.save_model(model, args.out)
    report_path = args.report or args.out.with_suffix(".report.json")
    dataio.write_json(report_path, report)
    print(_format_fitted_table([report]))
    print(f"wrote model to {args.out} and report to {report_path}")
    return 0


def cmd_predict(args) -> int:
    dataset = dataio.read_features_csv(args.features)
    model = pls.load_model(args.model)
    aligned = dataset.subset_columns(model.feature_names)  # names any column the model lacks
    y_hat, classes = pls.predict(model, aligned.x)
    header = ["lesion_id", "scan_id", "predicted_class"] + [f"response_{c}" for c in model.class_labels]
    rows = zip(aligned.lesion_ids, aligned.scan_ids, classes.tolist(), y_hat.tolist())
    dataio.write_csv(args.out, header, ([lesion, scan, c, *responses] for lesion, scan, c, responses in rows))
    print(f"wrote {len(aligned)} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = _read_labelled(args.features, "evaluation data has no class column")
    if dataset is None:
        return 1
    model = pls.load_model(args.model)
    metrics = ms.evaluate(model, dataset)
    doc = {
        "chosen_lv": model.n_components,
        "selected_total": len(model.feature_names),
        "selected_by_family": family_counts(model.feature_names),
        "metrics": metrics,
    }
    dataio.write_json(args.out, doc)
    print(_format_performance_table([(args.model.name, metrics)]))
    print(f"wrote metrics to {args.out}")
    return 0


def cmd_experiments(args) -> int:
    specs = ms.experiment_specs(**_run_settings(args))
    train = _read_labelled(args.train_csv, "training data has no class column")
    test = _read_labelled(args.test_csv, "test data has no class column")
    if train is None or test is None:
        return 1
    reports, failures = ms.run_experiments(train, test, specs)
    for experiment_id, exc in failures.items():
        print(f"error: experiment {experiment_id}: {failure_message(exc)}", file=sys.stderr)
    doc = {
        "experiments": reports,
        "failures": [{"experiment": i, "error": failure_message(exc)} for i, exc in failures.items()],
    }
    dataio.write_json(args.out, doc)
    print(_format_fitted_table(reports))
    print()
    print(_format_performance_table([(f"#{r['experiment']}", r["metrics"]) for r in reports]))
    print(f"wrote report to {args.out}")
    return 1 if failures else 0


def cmd_stats(args) -> int:
    dataset = _read_labelled(args.features, "stats needs a class column")
    if dataset is None:
        return 1
    features = None
    if args.features_list is not None:
        features = [f.strip() for f in args.features_list.split(",") if f.strip()]
    levels = {k: v for k, v in vars(args).items() if k in ("alpha", "q")}  # left out: the report's defaults
    header, rows = st.feature_group_report(dataset, features=features, global_family=args.global_family, **levels)
    dataio.write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return 0


def cmd_phantom(args) -> int:
    scans = ph.generate_phantom(args.n_per_class, args.seed)  # checks the counts and seed; makes no scan yet
    out = Path(args.out)
    images = out / "images"
    masks = out / "masks"
    images.mkdir(parents=True, exist_ok=True)
    masks.mkdir(parents=True, exist_ok=True)
    entries = []
    for scan in scans:  # one scan in memory at a time: its files are written before the next is made
        image_path = images / f"{scan.scan_id}.nii"
        mask_path = masks / f"{scan.scan_id}.nii"
        # a phantom volume holds its float32 image with no rescale: written as it is held
        write_nifti(image_path, scan.volume.payload, scan.volume.spacing, scan.volume.origin)
        write_nifti(mask_path, scan.mask.labels, scan.mask.spacing, scan.mask.origin)
        entries.append(
            dataio.ManifestEntry(
                scan_id=scan.scan_id,
                image_path=Path("images") / image_path.name,
                mask_path=Path("masks") / mask_path.name,
                class_map={1: scan.class_id},
            )
        )
    dataio.write_manifest(out / "manifest.csv", entries)
    print(f"wrote {len(entries)} image/mask pairs and manifest to {out}")
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "experiments": cmd_experiments,
    "stats": cmd_stats,
    "phantom": cmd_phantom,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an output that cannot be written fails before any work; phantom's --out is a directory
        outputs = list(filter(None, [] if args.command == "phantom" else [args.out, getattr(args, "report", None)]))
        if len({path.resolve() for path in outputs}) < len(outputs):
            raise ValueError(f"--out and --report are the same file: {args.out}")
        for path in outputs:
            if path.is_dir():
                raise IsADirectoryError(f"output {path} is a directory")
            if not path.parent.is_dir():
                raise FileNotFoundError(f"output directory {path.parent} does not exist (for {path})")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
