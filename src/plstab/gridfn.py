"""Piecewise-constant grid functions, the exact L1 distance and grid JSON I/O.

A :class:`GridFunction` represents a nonnegative, compactly supported,
piecewise-constant function: cell ``i`` is the half-open interval
``[origin + i*step, origin + (i+1)*step)`` and carries the constant value
``values[i]``.  Outside the window covered by the cells the function is
zero.  Instances are immutable; every operation returns a new object.

Design notes
------------
* Integrals are exact cell sums (``step * values.sum()``), so rescaling and
  rearrangement preserve them to machine precision.
* Superlevel sets of a grid function are exact unions of cells, so their
  measures are cell counts times the step (``superlevel_measure``).
* ``l1_distance`` integrates ``|f - g|`` over the exact common refinement
  of the two cell partitions, so it is exact for any pair of grids.
* ``read_function`` and ``write_function`` serialize a grid function of
  any dimension: ``GridFunction`` in 1D, ``multidim.GridFunctionND`` in
  d >= 2 dimensions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "DomainError",
    "FormatError",
    "GridFunction",
    "from_samples",
    "read_function",
    "write_function",
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

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))

    # -- pointwise and structural operations ----------------------------

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate at points (0 outside the window)."""
        xs = np.asarray(x, dtype=float)
        # Only points within a cell of the window are located: a far
        # point's cell index can overflow the division and the int64 cast.
        lo, hi = self.window
        near = (xs >= lo - self.step) & (xs < hi + self.step)
        idx = np.floor((xs[near] - self.origin) / self.step).astype(np.int64)
        inside = (idx >= 0) & (idx < self.size)
        out = np.zeros_like(xs, dtype=float)
        out[near] = np.where(inside, self.values[idx.clip(0, self.size - 1)], 0.0)
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

    def superlevel_measure(self, t: float, strict: bool = True) -> float:
        """Measure of ``{f > t}`` (``{f >= t}`` when strict=False) as ``count * step``.

        Equimeasurable functions (identical value multisets) produce
        bit-identical results.
        """
        mask = self.values > t if strict else self.values >= t
        return int(mask.sum()) * self.step

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


def from_samples(fn, lo: float, hi: float, step: float) -> GridFunction:
    """Sample a callable at cell centers over ``[lo, hi)``.

    Args:
        fn: Vectorized callable returning nonnegative values.
        lo: Left edge of the window.
        hi: Right edge of the window (last cell may overhang by < step).
        step: Cell width.

    Raises:
        DomainError: If the window is invalid or a sample is negative or
            not finite.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise DomainError(f"invalid window [{lo}, {hi})")
    n = int(np.ceil((hi - lo) / step - 1e-12))
    centers = lo + step * (np.arange(n) + 0.5)
    return GridFunction(lo, step, np.asarray(fn(centers), dtype=float))


# -- exact L1 distance ----------------------------------------------------


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


def _finite_or_null(obj):
    """``obj`` with every non-finite float, in nested dicts and lists, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _dumps(obj, **kwargs) -> str:
    """Strict JSON text of ``obj``: non-finite floats (which JSON lacks) become null."""
    return json.dumps(_finite_or_null(obj), allow_nan=False, **kwargs)


def read_function(path: str | Path):
    """Load a grid function of any dimension from a JSON file, validating every field.

    The file's ``origin`` sets the dimension: a number means 1D and gives
    a ``GridFunction``; a list of d >= 2 numbers gives a
    ``multidim.GridFunctionND``.  Then ``step`` is a number or a list of d
    numbers, and ``values`` is a list nested d deep.  The JSON shape and
    element types are checked here; the class checks the numbers, and its
    ``DomainError`` is raised again as a ``FormatError`` naming the file.

    Raises:
        FormatError: On a missing key, a ragged row or a negative or
            non-finite value; the message names the row or the cell.
        OSError: If the file cannot be read.
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
    origin = payload["origin"]
    ndim = len(origin) if isinstance(origin, list) and len(origin) > 1 else 1
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
    if ndim == 1:
        cls = GridFunction
    else:
        from .multidim import GridFunctionND as cls  # multidim imports this module
    try:
        return cls(*axes, np.array(values, dtype=float).reshape(shape))
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_function(f, path: str | Path) -> None:
    """Serialize a grid function of any dimension to JSON (full float precision)."""
    Path(path).write_text(_dumps(f.to_json_dict()) + "\n")
