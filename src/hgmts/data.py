"""Dataset ingestion, chronological splitting, normalization, window sampling.

Values are stored time-major (T x N).  Splits are contiguous and chronological;
normalization statistics come from the training split only and are applied
everywhere.  Windows slide with stride 1 and never cross a split boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError


@dataclass
class Dataset:
    name: str
    values: np.ndarray  # (T, N) float64
    channels: list[str]
    timestamps: list[str] | None = None
    frequency: str | None = None

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]


@dataclass
class SplitSpec:
    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ContractError(f"split fractions must sum to 1, got {total}")
        if min(self.train, self.val, self.test) < 0:
            raise ContractError("split fractions must be non-negative")

    @classmethod
    def parse(cls, text: str) -> "SplitSpec":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ContractError(f"expected three split fractions, got {text!r}")
        return cls(*parts)


def load_csv(path, name: str | None = None, frequency: str | None = None,
             forward_fill: bool = False) -> Dataset:
    """First column is the timestamp; remaining columns are numeric channels.

    Rows with empty cells are rejected unless forward_fill, which copies the
    previous row's value; non-numeric and non-finite (nan, inf) cells are
    rejected with their row and column.  Timestamps must be strictly
    increasing (numeric or lexicographic, e.g. ISO datetimes).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ContractError(f"{path}: need a header and at least one data row")
    header = lines[0].split(",")
    channels = [c.strip() for c in header[1:]]
    if not channels:
        raise ContractError(f"{path}: no data channels found")
    body = lines[1:]
    stamps = [line.partition(",")[0].strip() for line in body]
    cells = [line.partition(",")[2] for line in body]
    values = None
    if all(cells):  # loadtxt skips empty lines, so a row count that matches is row for row
        try:  # numpy's C reader; a cell it refuses goes the row-by-row way below
            values = np.loadtxt(cells, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (len(body), len(channels)):
        values = _parse_rows(path, body, channels, forward_fill)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:  # float() parses nan and inf; report the first such cell
        row_i, col = bad[0]
        cell = lines[row_i + 1].split(",")[col + 1].strip()
        raise ContractError(
            f"{path}: non-finite value {cell!r} at row {row_i + 1}, column {channels[col]!r}"
        )
    _check_monotone(stamps, path)
    return Dataset(
        name=name or str(path),
        values=values,
        channels=channels,
        timestamps=stamps,
        frequency=frequency,
    )


def _parse_rows(path, body: list[str], channels: list[str], forward_fill: bool) -> np.ndarray:
    """The data rows' numeric cells, one row at a time with Python's float(); names
    the first row of the wrong length and the first empty or non-numeric cell."""
    rows = []
    for lineno, line in enumerate(body, start=1):
        cells = line.split(",")
        if len(cells) != len(channels) + 1:
            raise ContractError(f"{path}: row {lineno} has {len(cells)} cells, expected {len(channels) + 1}")
        try:
            row = np.fromiter(map(float, cells[1:]), np.float64, len(channels))
        except ValueError:  # an empty or non-numeric cell: find it one cell at a time
            row = np.empty(len(channels))
            for ci, cell in enumerate(cells[1:]):
                cell = cell.strip()
                if cell == "":
                    if forward_fill and rows:
                        row[ci] = rows[-1][ci]
                        continue
                    raise ContractError(
                        f"{path}: missing value at row {lineno}, column {channels[ci]!r}")
                try:
                    row[ci] = float(cell)
                except ValueError:
                    raise ContractError(
                        f"{path}: non-numeric value {cell!r} at row {lineno}, column {channels[ci]!r}"
                    ) from None
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def _check_monotone(stamps: list[str], path) -> None:
    try:
        keys = [float(s) for s in stamps]
    except ValueError:
        keys = stamps
    for i in range(1, len(keys)):
        if keys[i] <= keys[i - 1]:
            raise ContractError(f"{path}: non-monotone timestamp at row {i + 1}: {stamps[i]!r}")


def split_bounds(length: int, spec: SplitSpec) -> tuple[int, int]:
    # the epsilon keeps decimal fractions like 0.7 + 0.1 from flooring low
    a = int(np.floor(spec.train * length + 1e-9))
    b = int(np.floor((spec.train + spec.val) * length + 1e-9))
    return a, b


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Chronological, contiguous train/val/test segments covering the series."""
    a, b = split_bounds(ds.length, spec)
    parts = []
    for tag, lo, hi in (("train", 0, a), ("val", a, b), ("test", b, ds.length)):
        parts.append(
            Dataset(
                name=f"{ds.name}[{tag}]",
                values=ds.values[lo:hi],
                channels=ds.channels,
                timestamps=ds.timestamps[lo:hi] if ds.timestamps else None,
                frequency=ds.frequency,
            )
        )
    return tuple(parts)


@dataclass
class NormalizationStats:
    mean: np.ndarray  # (N,)
    std: np.ndarray  # (N,), constant channels guarded to 1
    guarded: list[int] | None = None

    @classmethod
    def from_train(cls, train_values: np.ndarray) -> "NormalizationStats":
        mean = train_values.mean(axis=0)
        std = train_values.std(axis=0)
        guarded = [int(i) for i in np.nonzero(std == 0.0)[0]]
        if guarded:
            warnings.warn(f"constant channels {guarded} get std=1", stacklevel=2)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std, guarded=guarded)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def normalize(ds: Dataset, stats: NormalizationStats) -> Dataset:
    return Dataset(
        name=ds.name,
        values=stats.apply(ds.values),
        channels=ds.channels,
        timestamps=ds.timestamps,
        frequency=ds.frequency,
    )


def denormalize(predictions: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Exact inverse of normalize for (N, K) node-major prediction blocks, or a
    stack of them."""
    return predictions * stats.std[:, None] + stats.mean[:, None]


def window_count(span: int, input_len: int, horizon: int) -> int:
    return max(0, span - input_len - horizon + 1)


def windows(segment, input_len: int, horizon: int):
    """Stride-1 (x: N x L, y: N x K) pairs; y starts right after x ends."""
    if input_len < 1 or horizon < 1:
        raise ContractError("input_len and horizon must be >= 1")
    values = segment.values if isinstance(segment, Dataset) else np.asarray(segment)
    span = values.shape[0]
    nodes = values.T  # (N, T) view
    for start in range(window_count(span, input_len, horizon)):
        x = nodes[:, start : start + input_len]
        y = nodes[:, start + input_len : start + input_len + horizon]
        yield x, y


def window_list(segment, input_len: int, horizon: int) -> list[tuple[np.ndarray, np.ndarray]]:
    return list(windows(segment, input_len, horizon))


def manifest(ds: Dataset, spec: SplitSpec) -> str:
    """Small text report of the dataset and its split boundaries."""
    a, b = split_bounds(ds.length, spec)
    lines = [
        f"dataset: {ds.name}",
        f"series: {ds.n_series}",
        f"length: {ds.length}",
        f"frequency: {ds.frequency or 'unknown'}",
        f"split: train [0, {a}) val [{a}, {b}) test [{b}, {ds.length})",
        f"channels: {', '.join(ds.channels)}",
    ]
    return "\n".join(lines)
