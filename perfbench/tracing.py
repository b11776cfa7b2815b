"""Spans for the benchmark's traced run.

Run as a script, this executes one ``ctradiomics`` CLI command in-process
through ``cli.main`` with each layer's public functions wrapped at the names
their callers look up.  Spans stay in memory and are written, together with
the feature rows ``extract_all`` returned, to one JSON file when the command
ends:

    PYTHONPATH=src python3 perfbench/tracing.py OUT.json extract --manifest m.csv --out f.csv

The process exits with the command's own exit code.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# span name -> attribute of ctradiomics.features that extract_all calls
FAMILY_FUNCTIONS = {
    "shape": "shape_features",
    "fos": "first_order_features",
    "glcm": "glcm_features",
    "gldm": "gldm_features",
    "glrlm": "glrlm_features",
    "glszm": "glszm_features",
    "ngtdm": "ngtdm_features",
}


class Tracer:
    """In-memory spans: dicts with ``name``, ``start`` and ``end``
    (``perf_counter`` seconds), ``parent`` (index of the enclosing span or
    None) and any counts recorded at the boundary.  Single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a function that records one span per call.

        ``counts(args, result)`` returns a dict of counts for the span; it runs
        after the span has closed, so its cost is not charged to the layer.
        """
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = inner(*args, **kwargs)
            if counts is not None:
                record.update(counts(args, result))
            return result

        setattr(owner, attr, traced)


def install(tracer: Tracer, rows: dict) -> None:
    """Wrap the layers' public functions where ``cli`` and ``features`` look
    them up; ``rows`` receives lesion_id -> 105 values from ``extract_all``."""
    from ctradiomics import cli, features, model_selection

    wrap = tracer.wrap
    wrap(cli, "read_volume", "volume_io.read_volume", lambda a, r: {"voxels_in": int(r.data.size)})
    wrap(cli, "read_mask", "volume_io.read_mask")
    wrap(
        cli,
        "resample_isotropic",
        "volume_io.resample_isotropic",
        lambda a, r: {
            "voxels_resampled": int(r[0].data.size),
            "bytes_resampled": int(r[0].data.nbytes + r[1].labels.nbytes),
        },
    )
    wrap(
        cli,
        "extract_lesions",
        "volume_io.extract_lesions",
        lambda a, r: {"lesion_voxels": sum(len(region) for region, _ in r)},
    )

    def record_row(args, fv):
        rows[fv.lesion_id] = list(fv.values.values())
        return {"voxels": len(args[0])}

    wrap(cli, "extract_all", "features.extract_all", record_row)
    wrap(features, "discretize", "features.discretize", lambda a, r: {"n_levels": r.n_levels})
    for family, attr in FAMILY_FUNCTIONS.items():
        wrap(features, attr, f"features.{family}")
    wrap(model_selection, "fit_pls", "pls.fit_pls")
    wrap(model_selection, "predict", "pls.predict")
    wrap(
        model_selection,
        "fit_experiment",
        "model_selection.fit_experiment",
        lambda a, r: {"experiment": a[1].experiment_id},
    )
    wrap(model_selection, "evaluate", "model_selection.evaluate")
    wrap(cli.st, "feature_group_report", "stats.feature_group_report")
    for attr in ("read_manifest", "read_features_csv", "write_features_csv"):
        wrap(cli.dataio, attr, f"dataio.{attr}")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    rows: dict[str, list[float]] = {}
    from ctradiomics import cli

    install(tracer, rows)
    with tracer.span(f"cli.{cli_args[0]}"):
        code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": tracer.spans, "rows": rows}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
