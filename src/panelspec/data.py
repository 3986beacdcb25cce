"""Balanced panel containers and long-format CSV ingestion.

A panel holds a response ``y`` of shape (N, T) and regressors ``x`` of
shape (N, T, K) for N cross-sectional units observed over T periods.
Arrays are stored read-only; transformations and estimators never mutate
a dataset in place.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .exceptions import (
    DuplicateCellError,
    InterceptColumnError,
    MissingCellError,
    NonNumericValueError,
    SchemaError,
    TooFewUnitsOrPeriodsError,
)

__all__ = [
    "ColumnSchema",
    "PanelDataset",
    "load_long_csv",
    "to_stacked",
]

# Records parsed per block: one block's raw fields are alive at a time.
_BLOCK_RECORDS = 1024
_NOT_UTF8 = re.compile("[\udc80-\udcff]").search  # surrogate-escaped bytes


@dataclass(frozen=True)
class ColumnSchema:
    """Column names binding a long-format CSV to panel roles.

    Parameters
    ----------
    unit_col, time_col, y_col : str
        Names of the unit identifier, time identifier, and response
        columns.
    x_cols : sequence of str
        Names of the regressor columns, in the order the regressors
        should appear in the dataset. Must be nonempty.
    """

    unit_col: str
    time_col: str
    y_col: str
    x_cols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_cols", tuple(self.x_cols))
        names = [self.unit_col, self.time_col, self.y_col, *self.x_cols]
        if not self.x_cols:
            raise SchemaError("at least one regressor column is required")
        if any(not isinstance(n, str) or not n for n in names):
            raise SchemaError("column names must be nonempty strings")
        if len(set(names)) != len(names):
            raise SchemaError(f"column names must be distinct, got {names}")


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PanelDataset:
    """A balanced panel of N units over T periods with K regressors.

    Parameters
    ----------
    unit_ids : sequence of hashable
        N distinct unit labels, in storage order.
    time_ids : sequence of hashable
        T distinct period labels, in storage order.
    y : ndarray, shape (N, T)
        Response values; ``y[i, t]`` belongs to unit ``unit_ids[i]`` at
        period ``time_ids[t]``.
    x : ndarray, shape (N, T, K)
        Regressor values, same cell layout, K >= 1 regressors.

    Notes
    -----
    Construction validates balance-by-shape, finiteness, minimum sizes
    (N >= 2, T >= 2, K >= 1 and N(T-1) > K so the within estimator is
    identified), and rejects globally constant regressor columns, which
    the demeaning transformations would annihilate.

    The stored arrays are defensive copies with the write flag cleared.
    """

    unit_ids: tuple[Hashable, ...]
    time_ids: tuple[Hashable, ...]
    y: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "time_ids", tuple(self.time_ids))
        if len(set(self.unit_ids)) != len(self.unit_ids):
            raise DuplicateCellError("unit labels contain duplicates")
        if len(set(self.time_ids)) != len(self.time_ids):
            raise DuplicateCellError("time labels contain duplicates")

        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        n, t = len(self.unit_ids), len(self.time_ids)
        if y.shape != (n, t):
            raise MissingCellError(
                f"y has shape {y.shape}, expected ({n}, {t}) for a balanced panel"
            )
        if x.ndim != 3 or x.shape[:2] != (n, t):
            raise MissingCellError(
                f"x has shape {x.shape}, expected ({n}, {t}, K)"
            )
        k = x.shape[2]
        if n < 2 or t < 2 or k < 1 or n * (t - 1) <= k:
            raise TooFewUnitsOrPeriodsError(
                f"need N >= 2, T >= 2, K >= 1 and N(T-1) > K; "
                f"got N={n}, T={t}, K={k}"
            )
        if not np.all(np.isfinite(y)):
            i, t_ = np.argwhere(~np.isfinite(y))[0]
            raise NonNumericValueError(
                f"non-finite response at unit {self.unit_ids[i]!r}, "
                f"time {self.time_ids[t_]!r}"
            )
        if not np.all(np.isfinite(x)):
            i, t_, j = np.argwhere(~np.isfinite(x))[0]
            raise NonNumericValueError(
                f"non-finite regressor {j} at unit {self.unit_ids[i]!r}, "
                f"time {self.time_ids[t_]!r}"
            )
        flat = x.reshape(n * t, k)
        constant = np.all(flat == flat[0], axis=0)
        if np.any(constant):
            j = int(np.argmax(constant))
            raise InterceptColumnError(
                f"regressor column {j} is constant across all cells; "
                "intercepts are absorbed by the transformations and must "
                "not be supplied as regressors"
            )
        object.__setattr__(self, "y", _as_readonly(y))
        object.__setattr__(self, "x", _as_readonly(x))

    @property
    def n_units(self) -> int:
        """Number of cross-sectional units N."""
        return len(self.unit_ids)

    @property
    def n_periods(self) -> int:
        """Number of time periods T."""
        return len(self.time_ids)

    @property
    def n_regressors(self) -> int:
        """Number of regressors K."""
        return int(self.x.shape[2])


def load_long_csv(path, schema: ColumnSchema) -> PanelDataset:
    """Read a long-format CSV (one row per unit-period) into a panel.

    Parameters
    ----------
    path : str or path-like
        UTF-8 CSV file with a header row, read in blocks of 1024
        records; a leading byte-order mark is skipped. Of several bad
        records, the first in the file is reported, with its first line.
    schema : ColumnSchema
        Which columns hold the unit id, time id, response, and
        regressors.

    Returns
    -------
    PanelDataset
        Units ordered by first appearance in the file; periods ordered
        numerically (ties by the label) when every time label parses
        to a finite number, lexicographically otherwise, so ``9, 10``
        but ``10, 9, a``.

    Raises
    ------
    SchemaError
        The file is not UTF-8 text, a schema column is missing from
        the header or appears in it twice, or a row has more or fewer
        fields than the header.
    NonNumericValueError
        A response or regressor cell does not parse as a number.
    DuplicateCellError
        The same (unit, time) pair occurs on two rows.
    MissingCellError
        Some unit lacks a row for some period (unbalanced panel).
    TooFewUnitsOrPeriodsError
        The resulting panel violates the minimum-size bounds.
    """
    # utf-8-sig drops the byte-order mark that spreadsheet exports
    # ("CSV UTF-8") put before the header. A byte that is not UTF-8
    # decodes to a lone surrogate, reported with its record's line.
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if _NOT_UTF8("".join(header)):
            raise SchemaError(f"{path}:1: header is not UTF-8 text")
        wanted = [schema.unit_col, schema.time_col, schema.y_col, *schema.x_cols]
        missing = [c for c in wanted if c not in header]
        if missing:
            raise SchemaError(
                f"{path}: columns {missing} not found in header {header}"
            )
        for c in wanted:
            fields = [i + 1 for i, h in enumerate(header) if h == c]
            if len(fields) > 1:
                raise SchemaError(
                    f"{path}: column {c!r} repeats in header at fields {fields}"
                )
        pick = operator.itemgetter(*(header.index(c) for c in wanted))

        # The cells' order is the values' order.
        cells, blocks = {}, []
        while records := list(itertools.islice(reader, _BLOCK_RECORDS)):
            read = _read_block(records, pick, header, cells)
            if read is None:
                _raise_first_bad_record(path, reader.line_num, records, pick,
                                        header, cells)
            cells.update(read[0])
            blocks.append(read[1])
            del records  # before the next block is read

    units = list(dict.fromkeys(unit for unit, _ in cells))
    time_list = _period_order({time for _, time in cells})
    n, t, k = len(units), len(time_list), len(schema.x_cols)
    if len(cells) < n * t:
        unit, time = next((unit, time) for unit in units for time in time_list
                          if (unit, time) not in cells)
        raise MissingCellError(f"{path}: unbalanced panel, no row for unit "
                               f"{unit!r} at time {time!r}")
    if n < 2 or t < 2 or n * (t - 1) <= k:
        raise TooFewUnitsOrPeriodsError(
            f"{path}: need N >= 2, T >= 2 and N(T-1) > K; "
            f"got N={n}, T={t}, K={k}"
        )
    row_of = {unit: i * t for i, unit in enumerate(units)}
    period = {time: j for j, time in enumerate(time_list)}
    table = np.empty((n * t, k + 1))
    at = [row_of[unit] + period[time] for unit, time in cells]
    table[at] = np.concatenate(blocks, axis=1).T
    y, x = table[:, 0].reshape(n, t), table[:, 1:].reshape(n, t, k)
    return PanelDataset(tuple(units), tuple(time_list), y, x)


def _read_block(records, pick, header, cells):
    """A block's new cells and its values, shape (K+1, m) with the
    response first; None if some record in it is bad."""
    lines = ["".join(row) for row in records]
    rows = [row for row, line in zip(records, lines) if line.strip()]
    if (not set(map(len, rows)) <= {len(header)}
            or not (text := "".join(lines)).isascii() and _NOT_UTF8(text)):
        return None
    # An all-blank block has no fields to transpose.
    units, times, *columns = (list(zip(*map(pick, rows)))
                              or [()] * len(pick(header)))
    block = dict.fromkeys(zip(map(str.strip, units), map(str.strip, times)))
    if len(block) < len(rows) or not cells.keys().isdisjoint(block):
        return None
    try:
        values = np.array([list(map(float, map(str.strip, c)))
                           for c in columns])
    except ValueError:
        return None
    return (block, values) if np.isfinite(values).all() else None


def _raise_first_bad_record(path, end, records, pick, header, cells):
    """Raise the error of the first bad record of a block that
    :func:`_read_block` refused: non-UTF-8 text, a field count off the
    header's, a cell seen before, then values not finite, in schema order.
    Its line is counted back from ``end``, the block's last line, over
    the line breaks kept in quoted fields, which ``newline=""`` splits at."""
    names, seen = pick(header)[2:], set(cells)
    spans = [1 + len(re.findall("\r\n?|\n", ",".join(row))) for row in records]
    starts = itertools.accumulate(spans, initial=end + 1 - sum(spans))
    for lineno, row in zip(starts, records):
        if not "".join(row).strip():
            continue
        if _NOT_UTF8("".join(row)):
            raise SchemaError(f"{path}:{lineno}: not UTF-8 text")
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: row has {len(row)} fields, "
                              f"header has {len(header)}")
        unit, time, *raws = map(str.strip, pick(row))
        if (unit, time) in seen:
            raise DuplicateCellError(f"{path}:{lineno}: duplicate cell for "
                                     f"unit {unit!r}, time {time!r}")
        seen.add((unit, time))
        for col, raw in zip(names, raws):
            try:
                finite = math.isfinite(float(raw))
            except ValueError:
                raise NonNumericValueError(f"{path}:{lineno}: column {col!r} "
                                           f"value {raw!r} is not numeric"
                                           ) from None
            if not finite:
                raise NonNumericValueError(f"{path}:{lineno}: column {col!r} "
                                           f"value {raw!r} is not finite")


def _period_order(labels) -> list:
    """Labels by numeric value, ties by the string, when every label
    parses to a finite number; in lexicographic order otherwise."""
    try:
        keyed = [(float(label), label) for label in labels]
    except ValueError:
        return sorted(labels)
    if np.isfinite([value for value, _ in keyed]).all():
        return [label for _, label in sorted(keyed)]
    return sorted(labels)


def to_stacked(dataset) -> tuple[np.ndarray, np.ndarray]:
    """Return unit-major stacked views ``(y, x)`` of shapes (NT,), (NT, K).

    Row ``i * T + t`` of the output corresponds to unit ``i``, period
    ``t`` of the panel. ``dataset`` is a :class:`PanelDataset` or a
    :class:`~panelspec.transforms.TransformedPanel`, anything with ``y``
    of shape (N, T) and ``x`` of shape (N, T, K); the arrays are views
    of its storage.
    """
    n, t, k = dataset.x.shape
    return dataset.y.reshape(n * t), dataset.x.reshape(n * t, k)

