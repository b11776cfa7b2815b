"""Feature-table and manifest I/O plus the in-memory dataset carrier.

The feature CSV layout is: ``lesion_id, scan_id, class`` followed by the 105
canonical feature columns.  Every CSV and JSON output goes through
``write_csv`` or ``write_json``, so identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import FAMILIES, FEATURE_COLUMNS, FeatureVector, TEXTURE_FAMILIES, family_of_column
from .volume_io import CLASS_IDS

ID_COLUMNS = ("lesion_id", "scan_id", "class")
MANIFEST_COLUMNS = ("scan_id", "image_path", "mask_path", "class_map")

GROUP_PRESETS: dict[str, tuple[str, ...]] = {
    "all": FAMILIES,
    "shape": ("shape",),
    "shape+fos": ("shape", "fos"),
    "texture": TEXTURE_FAMILIES,
}


def class_ids(y) -> np.ndarray:
    """``y`` as an int array of class ids.  An id that is not a whole number
    raises ValueError naming it; a whole float such as 2.0 passes."""
    values = np.asarray(y, dtype=np.float64)
    whole = np.isfinite(values) & (values == np.trunc(values))
    if not whole.all():
        raise ValueError(f"class id {values[~whole][0]} is not a whole number")
    return np.asarray(y, dtype=int)


@dataclass
class Dataset:
    """Feature rows with optional class labels."""

    x: np.ndarray  # (N, p)
    y: np.ndarray | None  # (N,) class ids, or None for unlabeled data
    feature_names: tuple[str, ...]
    lesion_ids: tuple[str, ...] = ()
    scan_ids: tuple[str, ...] = ()

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError("X must be 2D")
        if self.x.shape[1] != len(self.feature_names):
            raise ValueError("column count does not match feature names")
        if not np.isfinite(self.x).all():
            raise ValueError("X contains non-finite values")
        if self.y is not None:
            self.y = class_ids(self.y)
            if len(self.y) != len(self.x):
                raise ValueError("y length does not match X")
        self.feature_names = tuple(self.feature_names)
        if not self.lesion_ids:
            self.lesion_ids = tuple(str(i) for i in range(len(self.x)))
        if not self.scan_ids:
            self.scan_ids = tuple("" for _ in range(len(self.x)))

    def __len__(self) -> int:
        return len(self.x)

    def subset_columns(self, names) -> "Dataset":
        names = tuple(names)
        index = {c: i for i, c in enumerate(self.feature_names)}
        missing = [c for c in names if c not in index]
        if missing:
            raise ValueError(f"missing feature columns: {missing}")
        cols = [index[c] for c in names]
        return Dataset(
            x=self.x[:, cols],
            y=self.y,
            feature_names=names,
            lesion_ids=self.lesion_ids,
            scan_ids=self.scan_ids,
        )


def columns_for_groups(feature_names, groups) -> tuple[str, ...]:
    """Feature columns belonging to the given families, in canonical order."""
    groups = set(groups)
    unknown = groups - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    return tuple(c for c in feature_names if family_of_column(c) in groups)


def parse_groups(spec: str) -> tuple[str, ...]:
    """Parse a --groups value: a preset name or ``custom:<comma list>``; a
    custom family is checked where it is used, by ``columns_for_groups``."""
    if spec in GROUP_PRESETS:
        return GROUP_PRESETS[spec]
    if spec.startswith("custom:"):
        return tuple(g.strip() for g in spec[len("custom:") :].split(",") if g.strip())
    raise ValueError(f"unknown group set {spec!r}; use one of {sorted(GROUP_PRESETS)} or custom:<list>")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV with ``\n`` line ends.  Of Python
    scalars, a float is written as its shortest repr, a bool as ``true``/``false``, None as empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([str(c).lower() if isinstance(c, bool) else c for c in row] for row in rows)


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@contextmanager
def _csv_rows(path, key: str):
    """The header and an iterator of (line, cells) rows of a CSV input, whose
    caller checks the columns before any row is read.  The file is read as
    UTF-8 with a BOM (as Excel writes) skipped.  An empty file, a header that
    names a column twice, a row whose cell count is not the header's and an
    empty or repeated ``key`` cell raise ValueError naming the path."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise ValueError(f"{path}: the header names {', '.join(repeated)} more than once")

        def rows():
            column, line_of = header.index(key), {}
            for cells in reader:
                line = reader.line_num
                if len(cells) != len(header):
                    raise ValueError(f"{path}: line {line} has {len(cells)} cells but the header has {len(header)}")
                value = cells[column]
                if not value:
                    raise ValueError(f"{path}: line {line} has an empty {key}")
                if value in line_of:  # e.g. one lesion in a training fold and in its held-out fold
                    raise ValueError(f"{path}: {key} {value!r} on line {line} repeats line {line_of[value]}")
                line_of[value] = line
                yield line, cells

        yield header, rows()


def write_features_csv(path, records) -> None:
    """Write (lesion_id, scan_id, class_id, FeatureVector) records as CSV."""
    rows = ([lesion_id, scan_id, class_id, *fv.values.values()] for lesion_id, scan_id, class_id, fv in records)
    write_csv(path, ID_COLUMNS + FEATURE_COLUMNS, rows)


def _bad_cell(header, row) -> str:
    """Name the first feature cell of ``row`` that is not a finite number, else the class cell."""
    for column, cell in zip(header[3:], row[3:]):
        try:
            if not math.isfinite(float(cell)):
                return f"column {column!r} cell {cell!r} is not finite"
        except ValueError:
            return f"column {column!r} cell {cell!r} is not a number"
    try:
        int(row[2])
    except ValueError:
        return f"class cell {row[2]!r} is not an integer"
    return f"class cell {row[2]!r} is not one of the class ids {CLASS_IDS}"


def read_features_csv(path) -> Dataset:
    """Load a feature CSV, its rows keyed by lesion_id.  The class column may
    be empty (unlabeled data), and a header-only file (what ``extract`` writes
    when every scan fails) reads as a 0-row dataset with an empty class column.
    Past ``_csv_rows``' rules, a header without the id columns or a feature
    column, a cell that does not parse or is not finite, a class outside
    ``CLASS_IDS`` and a class column empty on some lines only are rejected."""
    with _csv_rows(path, "lesion_id") as (header, rows):
        if tuple(header[:3]) != ID_COLUMNS:
            raise ValueError(f"{path}: expected id columns {ID_COLUMNS}, got {tuple(header[:3])}")
        feature_names = tuple(header[3:])
        if not feature_names:
            raise ValueError(f"{path}: no feature columns")
        lesion_ids, scan_ids, classes, x, unlabelled = [], [], [], [], []
        for line, row in rows:
            try:
                classes.append(int(row[2]) if row[2] else None)
                x.append([float(v) for v in row[3:]])
                # named like a cell that does not parse
                if not all(map(math.isfinite, x[-1])) or classes[-1] not in (None, *CLASS_IDS):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: line {line}: {_bad_cell(header, row)}") from None
            if not row[2]:
                unlabelled.append(line)
            lesion_ids.append(row[0])
            scan_ids.append(row[1])
    if 0 < len(unlabelled) < len(classes):  # an empty class column is unlabelled data, a partly empty one an error
        raise ValueError(f"{path}: line {unlabelled[0]} has no class, but other lines do")
    y = None if unlabelled else np.array(classes, dtype=int)
    x = np.array(x, dtype=np.float64).reshape(len(x), len(feature_names))
    return Dataset(x=x, y=y, feature_names=feature_names, lesion_ids=tuple(lesion_ids), scan_ids=tuple(scan_ids))


@dataclass
class ManifestEntry:
    scan_id: str
    image_path: Path
    mask_path: Path
    class_map: dict[int, int]


def _parse_class_map(cell: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for pair in cell.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        label, _, cls = pair.partition("=")
        try:
            label, cls = int(label), int(cls)
        except ValueError:
            raise ValueError(f"malformed label=class pair {pair!r} in class map cell {cell!r}") from None
        if label in out:
            raise ValueError(f"label {label} given twice in class map cell {cell!r}")
        out[label] = cls
    if not out:
        raise ValueError(f"empty label=class map cell: {cell!r}")
    return out


def read_manifest(path) -> list[ManifestEntry]:
    """Read a batch manifest CSV, its rows keyed by scan_id: scan_id,
    image_path, mask_path, class_map.  The class_map cell holds
    semicolon-separated ``label=class`` pairs, e.g. ``1=2;2=3``.  A relative
    path is joined to the manifest's directory; an absolute one replaces it.
    Past ``_csv_rows``' rules, a missing column, a bad class map (named with
    its line) and a manifest with no rows are rejected."""
    base = Path(path).parent
    entries = []
    with _csv_rows(path, "scan_id") as (header, rows):
        if not set(MANIFEST_COLUMNS).issubset(header):
            raise ValueError(f"{path}: manifest needs columns {sorted(MANIFEST_COLUMNS)}")
        for line, cells in rows:
            row = dict(zip(header, cells))
            try:
                class_map = _parse_class_map(row["class_map"])
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
            entries.append(ManifestEntry(row["scan_id"], base / row["image_path"], base / row["mask_path"], class_map))
    if not entries:
        raise ValueError(f"{path}: manifest lists no scans")
    return entries


def write_manifest(path, entries) -> None:
    rows = (
        [e.scan_id, e.image_path, e.mask_path, ";".join(f"{label}={cls}" for label, cls in sorted(e.class_map.items()))]
        for e in entries
    )
    write_csv(path, MANIFEST_COLUMNS, rows)
