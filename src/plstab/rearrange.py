"""Symmetric decreasing rearrangement of grid functions.

The rearrangement ``f*`` of a grid function keeps the multiset of cell
values but lays the cells out around the origin in decreasing order of
value: the largest cell sits astride 0 and successive cells alternate
right, left, right, ...  Because the value multiset is untouched, f* is

* exactly equimeasurable with f (identical superlevel measures at every
  level),
* integral- and sup-norm-preserving to the last bit,
* even about 0 up to a single cell (the right side holds the extra cell
  when the count is even),

and the superlevel sets of f* are intervals, so its hull deficits vanish.
"""

from __future__ import annotations

import numpy as np

from .gridfn import DomainError, GridFunction
from .plcore import PLTriple, sup_convolution

__all__ = ["symmetric_decreasing", "rearranged_triple"]


def _center_out_positions(n: int) -> np.ndarray:
    """Positions visiting cells center-first, alternating right then left.

    For rank k (0-based, largest value first) the target cell is
    ``c + (k+1)//2`` for odd k and ``c - k//2`` for even k, with
    ``c = (n-1)//2``.  This enumerates 0..n-1 exactly once.
    """
    k = np.arange(n)
    c = (n - 1) // 2
    offset = np.where(k % 2 == 1, (k + 1) // 2, -(k // 2))
    return c + offset


def symmetric_decreasing(f: GridFunction) -> GridFunction:
    """Symmetric decreasing rearrangement of ``f`` on the same step.

    Cell values are sorted in decreasing order (ties broken by original
    index) and placed center-outward, largest at the middle cell.  For an
    odd cell count the middle cell straddles 0; for an even count the two
    middle cells meet at 0, so an already-symmetric input on a symmetric
    grid is reproduced cell-exactly.

    Raises:
        DomainError: If ``f`` is not one-dimensional or has zero integral
            (nothing to rearrange).
    """
    if f.values.ndim != 1:
        raise DomainError(f"rearrangement works in one dimension, got {f.values.ndim}")
    if f.integral() <= 0.0:
        raise DomainError("rearrangement requires a function with positive integral")
    n = f.size
    order = np.argsort(-f.values, kind="stable")
    positions = _center_out_positions(n)
    out = np.empty(n)
    out[positions] = f.values[order]
    c = (n - 1) // 2
    origin = -(c + 1.0) * f.step if n % 2 == 0 else -(c + 0.5) * f.step
    return GridFunction(origin, f.step, out)


def rearranged_triple(triple: PLTriple) -> PLTriple:
    """Rearrange f and g and pair them with their canonical combination.

    Returns the triple ``(f*, g*, sup_convolution(f*, g*, lam), lam)``,
    whose h is in snap mode.
    Since rearrangement preserves integrals exactly, the deficit of the
    returned triple differs from the original canonical deficit only
    through the sup-convolution's own grid error.
    """
    fs = symmetric_decreasing(triple.f)
    gs = symmetric_decreasing(triple.g)
    hs = sup_convolution(fs, gs, triple.lam)
    return PLTriple(fs, gs, hs, triple.lam)
