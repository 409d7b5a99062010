"""Piecewise-constant grid functions and interval unions on the real line.

A :class:`GridFunction` represents a nonnegative, compactly supported,
piecewise-constant function: cell ``i`` is the half-open interval
``[origin + i*step, origin + (i+1)*step)`` and carries the constant value
``values[i]``.  Outside the window covered by the cells the function is
zero.  Instances are immutable; every operation returns a new object.

Design notes
------------
* Integrals are exact cell sums (``step * values.sum()``), so rescaling and
  rearrangement preserve them to machine precision.
* Superlevel sets of a grid function are exact unions of cells and are
  returned as an :class:`IntervalUnion`.
* Binary operations between functions on different grids go through
  overlap-exact resampling: the resampled cell value is the average of the
  source function over the target cell, computed from the cumulative
  integral.  This preserves total mass exactly whenever the target window
  covers the source support.
* ``l1_distance`` never resamples: it integrates ``|f - g|`` over the exact
  common refinement of the two cell partitions, so it is exact for any pair
  of grids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "FormatError",
    "GridFunction",
    "IntervalUnion",
    "grid_function",
    "from_samples",
    "read_function",
    "write_function",
    "resample",
    "l1_distance",
]


class DomainError(ValueError):
    """A precondition on mathematical inputs was violated."""


class FormatError(ValueError):
    """A serialized function failed validation (bad key, index, or value)."""


def _as_float_array(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"values must be one-dimensional, got shape {arr.shape}")
    return arr


def _index_label(cell: tuple[int, ...]) -> str:
    """A cell index as error messages name it: ``3`` in 1D, ``(1, 2)`` in 2D."""
    return str(cell[0]) if len(cell) == 1 else str(cell)


def _frozen_values(arr: np.ndarray) -> np.ndarray:
    """Read-only copy of cell values of any dimension.

    Raises:
        DomainError: If there are no cells or a value is not finite or is
            negative; the message names the first such cell.
    """
    if arr.size == 0:
        raise DomainError("values must contain at least one cell")
    for bad, what in ((~np.isfinite(arr), "is not finite"), (arr < 0, "is negative")):
        if bad.any():
            cell = tuple(int(i) for i in np.argwhere(bad)[0])
            raise DomainError(f"value at index {_index_label(cell)} {what}: {arr[cell]}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative piecewise-constant function on a uniform grid.

    Attributes:
        origin: Left edge of cell 0.
        step: Cell width (> 0).
        values: Cell values; ``values[i]`` holds on
            ``[origin + i*step, origin + (i+1)*step)``.
    """

    origin: float
    step: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.origin):
            raise DomainError("origin must be finite")
        if not (np.isfinite(self.step) and self.step > 0):
            raise DomainError(f"step must be positive and finite, got {self.step}")
        object.__setattr__(self, "values", _frozen_values(_as_float_array(self.values)))

    # -- basic geometry -------------------------------------------------

    @property
    def size(self) -> int:
        """Number of cells."""
        return int(self.values.size)

    @property
    def window(self) -> tuple[float, float]:
        """Interval ``[origin, origin + size*step)`` covered by the cells."""
        return (self.origin, self.origin + self.size * self.step)

    def edges(self) -> np.ndarray:
        """All ``size + 1`` cell edges."""
        return self.origin + self.step * np.arange(self.size + 1)

    def centers(self) -> np.ndarray:
        """All cell centers."""
        return self.origin + self.step * (np.arange(self.size) + 0.5)

    # -- scalar functionals ---------------------------------------------

    def integral(self) -> float:
        """Exact integral ``step * sum(values)``."""
        return float(self.step * self.values.sum())

    def sup_norm(self) -> float:
        """Maximum cell value."""
        return float(self.values.max())

    def support_indices(self) -> tuple[int, int]:
        """Half-open index range ``[lo, hi)`` of the positive cells.

        Returns ``(0, 0)`` for the zero function.
        """
        pos = np.flatnonzero(self.values > 0)
        if pos.size == 0:
            return (0, 0)
        return (int(pos[0]), int(pos[-1]) + 1)

    def support_hull(self) -> tuple[float, float] | None:
        """Smallest interval containing the support, or None if zero."""
        lo, hi = self.support_indices()
        if lo == hi:
            return None
        return (self.origin + lo * self.step, self.origin + hi * self.step)

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))

    # -- pointwise and structural operations ----------------------------

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate at points (0 outside the window)."""
        xs = np.asarray(x, dtype=float)
        idx = np.floor((xs - self.origin) / self.step).astype(np.int64)
        inside = (idx >= 0) & (idx < self.size)
        out = np.zeros_like(xs, dtype=float)
        out[inside] = self.values[idx[inside]]
        if np.isscalar(x):
            return float(out)
        return out

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same grid, new cell values."""
        return GridFunction(self.origin, self.step, values)

    def scale(self, c: float) -> "GridFunction":
        """Pointwise multiple ``c*f`` (requires ``c >= 0``)."""
        if not (np.isfinite(c) and c >= 0):
            raise DomainError(f"scale factor must be nonnegative and finite, got {c}")
        return self.with_values(self.values * c)

    def shift(self, w: float) -> "GridFunction":
        """Translate by ``w``, snapped to the nearest whole number of cells.

        The snap keeps the result on a grid commensurate with the input, so
        integrals and value multisets are preserved exactly.
        """
        if not np.isfinite(w):
            raise DomainError(f"shift must be finite, got {w}")
        snapped = float(np.round(w / self.step)) * self.step
        return GridFunction(self.origin + snapped, self.step, self.values)

    def shift_scale(self, w: float, c: float) -> "GridFunction":
        """``c * f(. - w)`` with the shift snapped to the grid."""
        return self.shift(w).scale(c)

    def superlevel(self, t: float, strict: bool = True) -> "IntervalUnion":
        """Superlevel set ``{f > t}`` (or ``{f >= t}`` when strict=False).

        The result is an exact union of grid cells.  Note that with
        ``strict=False`` and ``t <= 0`` every cell qualifies, so the whole
        window is returned.
        """
        if strict:
            mask = self.values > t
        else:
            mask = self.values >= t
        return _mask_to_intervals(mask, self.origin, self.step)

    def superlevel_count(self, t: float, strict: bool = True) -> int:
        """Number of cells in the superlevel set (exact integer)."""
        mask = self.values > t if strict else self.values >= t
        return int(mask.sum())

    def superlevel_measure(self, t: float, strict: bool = True) -> float:
        """Measure of the superlevel set as ``count * step``.

        Equimeasurable functions (identical value multisets) produce
        bit-identical results here, unlike summing interval lengths.
        """
        return self.superlevel_count(t, strict) * self.step

    def trimmed(self) -> "GridFunction":
        """Drop leading/trailing zero cells (keeps one cell if all zero)."""
        lo, hi = self.support_indices()
        if lo == hi:
            return GridFunction(self.origin, self.step, np.zeros(1))
        return GridFunction(
            self.origin + lo * self.step, self.step, self.values[lo:hi]
        )

    def padded(self, left_cells: int, right_cells: int) -> "GridFunction":
        """Extend the window by zero cells on each side."""
        if left_cells < 0 or right_cells < 0:
            raise DomainError("padding cell counts must be nonnegative")
        vals = np.concatenate(
            [np.zeros(left_cells), self.values, np.zeros(right_cells)]
        )
        return GridFunction(self.origin - left_cells * self.step, self.step, vals)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "origin": float(self.origin),
            "step": float(self.step),
            "values": [float(v) for v in self.values],
        }


def grid_function(origin: float, step: float, values: Iterable[float]) -> GridFunction:
    """Convenience constructor."""
    return GridFunction(origin, step, _as_float_array(values))


def from_samples(
    fn, lo: float, hi: float, step: float, clip_negative: bool = False
) -> GridFunction:
    """Sample a callable at cell centers over ``[lo, hi)``.

    Args:
        fn: Vectorized callable returning nonnegative values.
        lo: Left edge of the window.
        hi: Right edge of the window (last cell may overhang by < step).
        step: Cell width.
        clip_negative: Clamp tiny negative samples to zero instead of failing.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise DomainError(f"invalid window [{lo}, {hi})")
    n = int(np.ceil((hi - lo) / step - 1e-12))
    centers = lo + step * (np.arange(n) + 0.5)
    vals = np.asarray(fn(centers), dtype=float)
    if clip_negative:
        vals = np.maximum(vals, 0.0)
    return GridFunction(lo, step, vals)


def _mask_to_intervals(mask: np.ndarray, origin: float, step: float) -> "IntervalUnion":
    """Convert a boolean cell mask to the union of the marked cells."""
    if not mask.any():
        return IntervalUnion(())
    padded = np.concatenate([[False], mask, [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    starts, stops = flips[0::2], flips[1::2]
    intervals = tuple(
        (origin + a * step, origin + b * step) for a, b in zip(starts, stops)
    )
    return IntervalUnion(intervals)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint half-open intervals, sorted left to right.

    The canonical form merges overlapping or touching intervals, so
    ``right_i < left_{i+1}`` always holds between consecutive members.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for left, right in self.intervals:
            if not (np.isfinite(left) and np.isfinite(right) and left < right):
                raise DomainError(f"invalid interval ({left}, {right})")
        for (_, r1), (l2, _) in zip(self.intervals, self.intervals[1:]):
            if not r1 < l2:
                raise DomainError(
                    "intervals must be disjoint, sorted, and non-touching; "
                    "use IntervalUnion.of() to normalize"
                )

    @staticmethod
    def of(intervals: Sequence[tuple[float, float]]) -> "IntervalUnion":
        """Normalize arbitrary intervals: drop empties, sort, merge."""
        items = [
            (float(a), float(b)) for a, b in intervals if float(b) > float(a)
        ]
        items.sort()
        merged: list[tuple[float, float]] = []
        for a, b in items:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return IntervalUnion(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> float:
        """Total length."""
        return float(sum(b - a for a, b in self.intervals))

    def hull(self) -> tuple[float, float] | None:
        """Smallest enclosing interval, or None when empty."""
        if self.is_empty:
            return None
        return (self.intervals[0][0], self.intervals[-1][1])

    def hull_deficit(self) -> float:
        """Length of the hull minus the measure (0 when empty)."""
        h = self.hull()
        if h is None:
            return 0.0
        return (h[1] - h[0]) - self.measure()

    def contains(self, x: float) -> bool:
        return any(a <= x < b for a, b in self.intervals)

    def issubset(self, other: "IntervalUnion", tol: float = 0.0) -> bool:
        """True if every interval fits inside some interval of ``other``."""
        for a, b in self.intervals:
            if not any(
                oa - tol <= a and b <= ob + tol for oa, ob in other.intervals
            ):
                return False
        return True


# -- resampling and exact L1 distance -----------------------------------


def resample(f: GridFunction, origin: float, step: float, size: int) -> GridFunction:
    """Resample ``f`` onto a new uniform grid by exact cell averaging.

    Each target cell receives the average of ``f`` over that cell, computed
    from the piecewise-linear cumulative integral of ``f``.  The operation
    is mass-exact: whenever the target window covers the support of ``f``,
    the integral is preserved up to rounding.
    """
    if size <= 0:
        raise DomainError("size must be positive")
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"step must be positive and finite, got {step}")
    src_edges = f.edges()
    cum = np.concatenate([[0.0], np.cumsum(f.values) * f.step])
    tgt_edges = origin + step * np.arange(size + 1)
    cum_at = np.interp(tgt_edges, src_edges, cum, left=0.0, right=cum[-1])
    vals = np.diff(cum_at) / step
    vals = np.maximum(vals, 0.0)
    return GridFunction(origin, step, vals)


def common_grid(f: GridFunction, g: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Resample both functions onto one shared grid covering both windows.

    Uses the finer of the two steps and f's grid offset.  When the grids are
    already commensurate (equal steps, offset a whole number of cells) the
    resampling is exact.
    """
    step = min(f.step, g.step)
    lo = min(f.window[0], g.window[0])
    hi = max(f.window[1], g.window[1])
    lo = f.origin + np.floor((lo - f.origin) / step) * step
    size = int(np.ceil((hi - lo) / step - 1e-9))
    return (resample(f, lo, step, size), resample(g, lo, step, size))


def _refined(f: GridFunction, m: int) -> GridFunction:
    """Split every cell into m equal subcells (exact, values repeat)."""
    return GridFunction(f.origin, f.step / m, np.repeat(f.values, m))


def _step_ratio(f: GridFunction, g: GridFunction) -> int:
    """Whole m with ``max(steps) = m * min(steps)`` (1 if equal), else 0."""
    if np.isclose(f.step, g.step, rtol=1e-12, atol=0.0):
        return 1
    ratio = max(f.step, g.step) / min(f.step, g.step)
    m = int(np.round(ratio))
    return m if m >= 2 and abs(ratio - m) < 1e-9 else 0


def _l1_shifts(f: GridFunction, g: GridFunction, shifts: np.ndarray) -> np.ndarray:
    """``l1_distance(f, g.shift(s * g.step))`` for every whole-cell shift s.

    Equal steps and integer step ratios put both functions on the finer
    step once.  In f's index frame, g's cell j then occupies ``[k + frac
    + j, k + frac + j + 1)`` with a whole-cell part k and a fractional
    part frac in [0, 1), so the refinement integral is ``frac * A(k + 1)
    + (1 - frac) * A(k)``, where ``A(t)`` is the aligned sum of ``|f - g|``
    with g starting at slot t.  Each ``A(t)`` is one window of the
    zero-padded f against g, plus the mass of f outside that window taken
    from prefix sums of f; the outside mass is exactly 0 when the window
    covers f.  Incommensurate steps fall back to one ``l1_distance`` per
    shift.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    m = _step_ratio(f, g)
    if not m:
        return np.array([l1_distance(f, g.shift(s * g.step)) for s in shifts])
    cells = 1
    if m > 1 and f.step > g.step:
        f = _refined(f, m)
    elif m > 1:
        g, cells = _refined(g, m), m
    step = g.step if cells > 1 else f.step
    off = (g.origin - f.origin) / step
    k = int(np.floor(off))
    frac = off - k
    if frac > 1.0 - 1e-12:
        k += 1
        frac = 0.0
    elif frac < 1e-12:
        frac = 0.0
    n, size = g.size, f.size
    pad = np.concatenate([np.zeros(n), f.values, np.zeros(n)])
    cum = np.concatenate([[0.0], np.cumsum(f.values)])
    # Starts beyond [-n, size] see an all-zero window, as the clipped ones do.
    starts = k + cells * shifts[:, None] + np.arange(2 if frac else 1)
    starts = np.clip(starts, -n, size)
    uniq, inv = np.unique(starts, return_inverse=True)
    aligned = np.array([np.abs(pad[t + n : t + 2 * n] - g.values).sum() for t in uniq])
    aligned += cum[np.clip(uniq, 0, size)] + (cum[size] - cum[np.clip(uniq + n, 0, size)])
    aligned = aligned[inv].reshape(starts.shape)
    if frac:
        return (frac * aligned[:, 1] + (1.0 - frac) * aligned[:, 0]) * step
    return aligned[:, 0] * step


def l1_distance(f: GridFunction, g: GridFunction) -> float:
    """Exact ``integral |f - g|`` for functions on arbitrary grids.

    Integrates over the common refinement of the two cell partitions, on
    which both functions are constant, so no resampling error is incurred.
    Equal steps (any offset) and integer step ratios are ``_l1_shifts`` at
    shift 0, an O(N) vector path whose rounding is of order eps times the
    mass; only truly incommensurate steps fall back to sorting the union
    of edges.
    """
    if _step_ratio(f, g):
        return float(_l1_shifts(f, g, [0])[0])
    edges = np.union1d(f.edges(), g.edges())
    mids = 0.5 * (edges[:-1] + edges[1:])
    lengths = np.diff(edges)
    return float(np.sum(np.abs(f(mids) - g(mids)) * lengths))


# -- JSON I/O -------------------------------------------------------------


def _read_grid(path: str | Path, ndim: int, cls: type):
    """Load a grid function of ``ndim`` dimensions from a JSON file.

    In 1D origin and step are numbers, otherwise lists of ``ndim``
    numbers, and values are nested lists of depth ``ndim``.  The JSON
    shape and element types are checked here; ``cls(origin, step,
    values)`` checks the numbers, and its ``DomainError`` is raised again
    as a ``FormatError`` naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top-level JSON value must be an object")
    for key in ("origin", "step", "values"):
        if key not in payload:
            raise FormatError(f"{path}: missing key '{key}'")
    axes = []
    for key in ("origin", "step"):
        items = payload[key] if ndim > 1 else [payload[key]]
        if not (isinstance(items, list) and len(items) == ndim) or not all(
            isinstance(v, (int, float)) for v in items
        ):
            kind = "a number" if ndim == 1 else f"a list of {ndim} numbers"
            raise FormatError(f"{path}: {key} must be {kind}, got {payload[key]!r}")
        axes.append(float(items[0]) if ndim == 1 else tuple(items))
    values = payload["values"]
    if not isinstance(values, list) or not values:
        raise FormatError(f"{path}: values must be a non-empty list")
    shape = [len(values)]
    for _ in range(ndim - 1):
        width = len(values[0]) if isinstance(values[0], list) else 0
        for i, row in enumerate(values):
            if not isinstance(row, list) or not row or len(row) != width:
                raise FormatError(f"{path}: row {i} must be a non-empty list as long as row 0")
        shape.append(width)
        values = [v for row in values for v in row]
    for k, v in enumerate(values):
        if not isinstance(v, (int, float)):
            cell = tuple(int(i) for i in np.unravel_index(k, shape))
            raise FormatError(
                f"{path}: value at index {_index_label(cell)} is not a number: {v!r}"
            )
    try:
        return cls(*axes, np.array(values, dtype=float).reshape(shape))
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_function(path: str | Path) -> GridFunction:
    """Load a grid function from a JSON file, validating every field.

    Raises:
        FormatError: On a missing key or a negative/non-finite value; the
            message names the offending index.
        OSError: If the file cannot be read.
    """
    return _read_grid(path, 1, GridFunction)


def write_function(f: GridFunction, path: str | Path) -> None:
    """Serialize a grid function to JSON (full float precision)."""
    Path(path).write_text(json.dumps(f.to_json_dict()) + "\n")
