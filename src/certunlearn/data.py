"""Dataset file format, the synthetic benchmark generator and the one CSV
writer every output file goes through.

CSV layout: a single header line `# d=<d> c=<c> normalized=<0|1>` followed
by one row per sample with d feature columns and one integer label column
(-1/+1 for binary, 0..c-1 for multiclass). Features are written with 17
significant digits so a save/load round trip is bit-exact.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetFormatError
from .objectives import (Dataset, _off_unit_row, _row_blocks, _unit_rows, normalize_rows,
                         one_hot)
from .pngd import make_rng

_HEADER_RE = re.compile(r"^#\s*d=(\d+)\s+c=(\d+)\s+normalized=([01])\s*$")


def write_csv(path: str, header: str, rows: Iterable[Sequence[str]]) -> None:
    """Write a header line and one comma-joined line per row (ascii, \\n ends)."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc


def save_dataset(data: Dataset, path: str) -> None:
    labels = np.argmax(data.labels, axis=1) if data.is_multiclass else data.labels
    write_csv(path, f"# d={data.d} c={data.n_classes} normalized={int(data.normalized)}",
              ([*(format(v, ".17g") for v in row), str(int(label))]
               for row, label in zip(data.features, labels)))


def load_dataset(path: str) -> Dataset:
    """Parse a dataset CSV; malformed input, or a row that is not unit-norm
    under a normalized=1 header, raises DatasetFormatError with the
    offending line number."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty file", line=1)
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise DatasetFormatError(
            "expected header '# d=<d> c=<c> normalized=<0|1>'", line=1)
    d, c, normalized = int(m.group(1)), int(m.group(2)), bool(int(m.group(3)))
    if d < 1 or c < 2:
        raise DatasetFormatError(f"invalid dimensions d={d} c={c}", line=1)

    rows, labels, linenos = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != d + 1:
            raise DatasetFormatError(
                f"expected {d + 1} columns, got {len(cells)}", line=lineno)
        try:
            feats = [float(v) for v in cells[:-1]]
            label = int(cells[-1])
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
        if any(not math.isfinite(v) for v in feats):
            raise DatasetFormatError("non-finite feature value", line=lineno)
        rows.append(feats)
        labels.append(label)
        linenos.append(lineno)
    if not rows:
        raise DatasetFormatError("no data rows", line=len(lines))

    X = np.array(rows, dtype=float)
    y = np.array(labels, dtype=int)
    if c == 2:
        bad = np.nonzero(~np.isin(y, (-1, 1)))[0]
        if bad.size:
            raise DatasetFormatError(
                f"binary label must be -1 or +1, got {y[bad[0]]}", line=linenos[bad[0]])
    else:
        bad = np.nonzero((y < 0) | (y >= c))[0]
        if bad.size:
            raise DatasetFormatError(
                f"class label must lie in [0, {c}), got {y[bad[0]]}", line=linenos[bad[0]])
        y = one_hot(y, c)
    if normalized and (off := _off_unit_row(X)):
        raise DatasetFormatError(f"header says normalized=1 but this row has norm "
                                 f"{float(off[1])!r}", line=linenos[off[0]])
    return Dataset(features=X, labels=y, normalized=normalized)


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-cluster generator: c classes with means `separation` apart
    (before renormalization) and isotropic within-class noise."""

    n: int = 2000
    d: int = 20
    n_classes: int = 2
    separation: float = 3.0
    noise: float = 0.5


def make_synthetic(spec: SyntheticSpec, seed: int,
                   geometry_seed: int | None = None) -> Dataset:
    """Deterministic synthetic classification data, unit-norm features.

    The class means are drawn from `geometry_seed` (defaults to `seed`), so
    train/test splits that share the geometry seed share the distribution
    while sampling independent points.
    """
    if spec.n < spec.n_classes or spec.d < 1:
        raise ValueError(f"bad synthetic spec {spec}")
    if spec.n_classes > 2 and spec.d < spec.n_classes:
        raise ValueError(f"need d >= n_classes for the class frame, got {spec}")
    geo = make_rng(seed if geometry_seed is None else geometry_seed)
    rng = make_rng(seed ^ 0x73616D70)  # "samp": sample stream independent of geometry
    # class means pairwise exactly `separation` apart: antipodal for two
    # classes, an orthonormal frame scaled by separation/sqrt(2) otherwise
    if spec.n_classes == 2:
        u = normalize_rows(geo.standard_normal((1, spec.d)))[0]
        means = np.stack([u, -u]) * spec.separation / 2.0
    else:
        frame, _ = np.linalg.qr(geo.standard_normal((spec.d, spec.n_classes)))
        means = frame.T * spec.separation / math.sqrt(2.0)
    labels = rng.integers(0, spec.n_classes, size=spec.n)
    # X = means[labels] + noise*Z, built in Z's buffer a row block at a time
    # (IEEE + and * commute, so the bytes equal the formula's)
    X = rng.standard_normal((spec.n, spec.d))
    X *= spec.noise
    for rows in _row_blocks(X):
        X[rows] += means[labels[rows]]
    _unit_rows(X)
    if spec.n_classes == 2:
        y = labels * 2 - 1
        return Dataset(features=X, labels=y.astype(int), normalized=True)
    return Dataset(features=X, labels=one_hot(labels, spec.n_classes), normalized=True)
