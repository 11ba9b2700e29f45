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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetFormatError
from .objectives import (Dataset, _OffUnitRow, _checked_norms, _row_blocks, _unit_rows,
                         normalize_rows, one_hot)
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
    under a normalized=1 header, raises DatasetFormatError naming the file
    and the offending line number. The file is read twice, a line at a time:
    once to count the rows, then straight into the feature matrix."""
    try:
        return _parse_dataset(path)
    except DatasetFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _lines(path: str) -> Iterator[str]:
    """The file's lines, as `str.splitlines` splits its text, read one at a time."""
    with open(path, "r", encoding="ascii") as fh:
        for physical in fh:
            yield from physical.splitlines()


def _parse_dataset(path: str) -> Dataset:
    lines = _lines(path)
    header = next(lines, None)
    if header is None:
        raise DatasetFormatError("empty file", line=1)
    m = _HEADER_RE.match(header)
    if not m:
        raise DatasetFormatError(
            "expected header '# d=<d> c=<c> normalized=<0|1>'", line=1)
    d, c, normalized = int(m.group(1)), int(m.group(2)), bool(int(m.group(3)))
    if d < 1 or c < 2:
        raise DatasetFormatError(f"invalid dimensions d={d} c={c}", line=1)
    n = last = 0
    for last, raw in enumerate(lines, start=2):
        n += bool(raw.strip())
    if not n:
        raise DatasetFormatError("no data rows", line=max(last, 1))

    X = np.empty((n, d))
    y = np.empty(n, dtype=np.int64)
    linenos = np.empty(n, dtype=np.int64)
    wide = {}  # labels beyond int64, by row: y holds -2, invalid for either kind
    i = 0
    for lineno, raw in enumerate(_lines(path), start=1):
        if lineno == 1 or not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != d + 1:
            raise DatasetFormatError(
                f"expected {d + 1} columns, got {len(cells)}", line=lineno)
        try:
            X[i] = [float(v) for v in cells[:-1]]
            label = int(cells[-1])
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
        if not np.isfinite(X[i]).all():
            raise DatasetFormatError("non-finite feature value", line=lineno)
        if not -2 ** 63 <= label < 2 ** 63:
            wide[i], label = label, -2
        y[i], linenos[i] = label, lineno
        i += 1

    bad = np.flatnonzero(~np.isin(y, (-1, 1)) if c == 2 else (y < 0) | (y >= c))
    if bad.size:
        row = int(bad[0])
        rule = "binary label must be -1 or +1" if c == 2 else f"class label must lie in [0, {c})"
        raise DatasetFormatError(f"{rule}, got {wide.get(row, y[row])}", line=int(linenos[row]))
    if c > 2:
        y = one_hot(y, c)
    try:
        return Dataset(features=X, labels=y, normalized=normalized)
    except _OffUnitRow as exc:
        raise DatasetFormatError(f"header says normalized=1 but this row has norm "
                                 f"{float(exc.norm)!r}", line=int(linenos[exc.row])) from None


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
    labels, blocks = _synthetic_rows(spec, seed, geometry_seed)
    X, norms = np.empty((spec.n, spec.d)), np.empty(spec.n)
    for rows, _, block_norms in blocks(out=X):
        norms[rows] = block_norms
    return Dataset(features=X, labels=labels, normalized=True, _unit_norms=norms)


def _synthetic_rows(spec: SyntheticSpec, seed: int, geometry_seed: int | None = None):
    """make_synthetic's labels (in Dataset form), drawn first, and a
    generator over its row blocks (`_row_blocks`), to be called once:
    blocks(out=None) yields (rows, features, row norms), each block drawn,
    shifted by its class means, normalized and checked unit-norm when it is
    reached, in out[rows] for an n-by-d `out`, else in a new array. A block
    holds the bytes of the same rows of the whole matrix: the draws come in
    the same order, and every other step works on each row alone.
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

    def blocks(out: np.ndarray | None = None):
        # X = means[labels] + noise*Z, built in Z's buffer (IEEE + and *
        # commute, so the bytes equal the formula's)
        for rows in _row_blocks(spec.n, spec.n * spec.d * 8):
            X = (rng.standard_normal((rows.stop - rows.start, spec.d)) if out is None
                 else rng.standard_normal(out=out[rows]))
            X *= spec.noise
            X += means[labels[rows]]
            _unit_rows(X)
            yield rows, X, _checked_norms(X, rows.start)

    if spec.n_classes == 2:
        return labels * 2 - 1, blocks
    return one_hot(labels, spec.n_classes), blocks
