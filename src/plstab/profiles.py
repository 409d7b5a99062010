"""Level-set profiles of grid functions and their regularization.

For a grid function f and a level t, the strict superlevel set
``{f > t}`` is an exact union of cells.  Its convex hull is an interval
``(left(t), right(t))`` and the *hull deficit* ``(right - left) - measure``
measures how far the superlevel set is from being an interval.

A :class:`LevelProfile` stores these quantities over a geometric grid of
levels.  The downstream reconstruction pipeline

1. marks *good* levels, where the measures of the three superlevel sets of
   a triple nearly satisfy the additive relation forced by near-equality,
2. *regularizes* the profile so the recorded intervals are nested
   (left boundary nondecreasing, right boundary nonincreasing in the
   level), and
3. rebuilds a *bubble*: the function whose superlevel set at each recorded
   level is exactly the recorded interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gridfn import DomainError, GridFunction, from_samples
from .plcore import PLTriple

__all__ = [
    "LevelProfile",
    "GoodLevelReport",
    "level_grid",
    "extract_profile",
    "good_levels",
    "regularize",
    "build_bubble",
]


def level_grid(floor: float, top: float, count: int) -> np.ndarray:
    """Geometric grid of ``count`` levels from ``floor`` to ``top`` inclusive."""
    if not (np.isfinite(floor) and floor > 0):
        raise DomainError(f"floor must be positive, got {floor}")
    if not (np.isfinite(top) and top > floor):
        raise DomainError(f"top must exceed floor, got {top} <= {floor}")
    if count < 2:
        raise DomainError("level count must be at least 2")
    return np.geomspace(floor, top, count)


def _superlevel_counts(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Number of entries of ``values`` (any shape) strictly above each level."""
    ranked = np.sort(values, axis=None)
    return values.size - np.searchsorted(ranked, levels, side="right")


@dataclass(frozen=True)
class LevelProfile:
    """Superlevel interval data of one function over a grid of levels.

    A level is absent (empty, or left out by ``restricted``) exactly
    where its boundaries are NaN; every other level is usable.

    Attributes:
        levels: Increasing positive levels.
        left: Left hull endpoint per level (NaN when absent).
        right: Right hull endpoint per level (NaN exactly where left is).
        hull_deficit: Hull length minus superlevel measure (NaN when
            absent, 0 after regularization).
    """

    levels: np.ndarray
    left: np.ndarray
    right: np.ndarray
    hull_deficit: np.ndarray

    def __post_init__(self) -> None:
        n = self.levels.size
        for name in ("left", "right", "hull_deficit"):
            if getattr(self, name).size != n:
                raise DomainError(f"profile field {name} has wrong length")
        if n >= 2 and not np.all(np.diff(self.levels) > 0):
            raise DomainError("levels must be strictly increasing")
        if np.any(self.levels <= 0):
            raise DomainError("levels must be positive")
        if np.isinf(self.left).any() or np.isinf(self.right).any():
            raise DomainError("profile boundaries must be finite or NaN")
        if not np.array_equal(np.isnan(self.left), np.isnan(self.right)):
            raise DomainError("left and right must be NaN at the same levels")

    @property
    def log_levels(self) -> np.ndarray:
        return np.log(self.levels)

    def usable(self) -> np.ndarray:
        """Levels whose recorded interval exists."""
        return ~np.isnan(self.left)

    def restricted(self, keep: np.ndarray) -> "LevelProfile":
        """The profile with every level outside ``keep`` made absent."""
        keep = np.asarray(keep, dtype=bool)
        return replace(
            self,
            left=np.where(keep, self.left, np.nan),
            right=np.where(keep, self.right, np.nan),
            hull_deficit=np.where(keep, self.hull_deficit, np.nan),
        )


def extract_profile(f: GridFunction, levels: np.ndarray) -> LevelProfile:
    """Hull endpoints and hull deficits of ``{f > t}`` for each level.

    Levels at or above the sup norm produce empty sets (NaN endpoints).
    Measures are exact cell counts times the step.

    The first cell above t is the first place where the running maximum
    of the values exceeds t, so one ``searchsorted`` on the running
    maximum from each end gives both hull ends for every level at once.
    """
    levels = np.asarray(levels, dtype=float)
    vals = f.values
    counts = _superlevel_counts(vals, levels)
    first = np.searchsorted(np.maximum.accumulate(vals), levels, side="right")
    last = vals.size - 1 - np.searchsorted(
        np.maximum.accumulate(vals[::-1]), levels, side="right"
    )
    nonempty = counts > 0
    lo = f.origin + first * f.step
    hi = f.origin + (last + 1) * f.step
    left = np.where(nonempty, lo, np.nan)
    right = np.where(nonempty, hi, np.nan)
    deficit = np.where(nonempty, (hi - lo) - counts * f.step, np.nan)
    return LevelProfile(levels, left, right, deficit)


@dataclass(frozen=True)
class GoodLevelReport:
    """Levels where a triple's superlevel measures are additively consistent.

    A level t is *good* when

        | m_h(t) - (1-lam) * m_f(t) - lam * m_g(t) | <= threshold,

    with ``m`` the strict superlevel measure.  Near equality, bad levels
    carry little mass, so the reconstruction discards them.

    Attributes:
        mask: Per-level good flag.
        excess: Measured absolute mismatch per level.
        threshold: The threshold used.
        bad_level_measure: Total level-measure ``sum of dt`` over bad
            levels (trapezoidal cell widths on the level axis).
    """

    mask: np.ndarray
    excess: np.ndarray
    threshold: float
    bad_level_measure: float


def default_good_threshold(tau: float, epsilon: float, int_h: float) -> float:
    """Theory-guided default ``tau**(-3/2) * epsilon**(1/4)`` scaled by mass."""
    eps = max(float(epsilon), 0.0)
    return float(tau ** (-1.5) * eps**0.25 * int_h)


def good_levels(
    triple: PLTriple, levels: np.ndarray, threshold: float
) -> GoodLevelReport:
    """Mark levels where the three superlevel measures nearly add up.

    Args:
        triple: The candidate triple (h may be canonical or supplied).
        levels: Increasing positive levels.
        threshold: Absolute measure tolerance.  The pipeline passes
            ``default_good_threshold`` plus a grid allowance.
    """
    levels = np.asarray(levels, dtype=float)
    lam = triple.lam
    mf, mg, mh = (
        _superlevel_counts(fn.values, levels) * fn.step
        for fn in (triple.f, triple.g, triple.h)
    )
    excess = np.abs(mh - (1.0 - lam) * mf - lam * mg)
    mask = excess <= threshold
    # Width of each level cell on the level axis (for the bad-mass figure).
    mids = 0.5 * (levels[1:] + levels[:-1])
    widths = np.diff(np.concatenate(([levels[0]], mids, [levels[-1]])))
    bad_measure = float(widths[~mask].sum())
    return GoodLevelReport(
        mask=mask, excess=excess, threshold=float(threshold), bad_level_measure=bad_measure
    )


def regularize(profile: LevelProfile) -> LevelProfile:
    """Make the recorded intervals nested by combining usable levels above.

    For each level t the regularized interval is the hull of the recorded
    intervals over all usable levels at or above t:

        left~(t)  = min { left(s)  : s >= t usable },
        right~(t) = max { right(s) : s >= t usable }.

    Levels with no usable level at or above them stay empty.  The output
    boundaries are monotone (left nondecreasing, right nonincreasing in
    the level), hull deficits are 0 by construction, and the operation is
    idempotent.

    Raises:
        DomainError: If no level is usable.
    """
    usable = profile.usable()
    if not usable.any():
        raise DomainError("regularize requires at least one usable level")
    # Running extrema from the top level down, over usable levels only.
    run_left = np.minimum.accumulate(np.where(usable, profile.left, np.inf)[::-1])[::-1]
    run_right = np.maximum.accumulate(np.where(usable, profile.right, -np.inf)[::-1])[::-1]
    assigned = np.isfinite(run_left)
    return LevelProfile(
        levels=profile.levels,
        left=np.where(assigned, run_left, np.nan),
        right=np.where(assigned, run_right, np.nan),
        hull_deficit=np.where(assigned, 0.0, np.nan),
    )


def build_bubble(profile: LevelProfile, floor_level: float, step: float) -> GridFunction:
    """Rebuild the function whose superlevel sets are the recorded intervals.

    For a profile with nested intervals ``(a_k, b_k)`` at
    levels ``t_k >= floor_level``, returns the grid function

        fbar(x) = max { t_k : a_k <= x < b_k },   0 below the floor,

    so that ``superlevel(fbar, t)`` reproduces ``(a(t), b(t))`` up to one
    cell at every recorded level at or above the floor.  Values are
    quantized to the level grid by construction.  Regularization makes
    ``a_k`` nondecreasing and ``b_k`` nonincreasing in the level, so the
    output is unimodal by construction: every superlevel set is one
    interval of cells.  Stage 3 of ``stability_decompose`` relies on it:
    ``sup_convolution`` takes its level split only on unimodal inputs.

    Args:
        profile: A profile whose usable intervals are nested, such as
            the output of ``regularize``.
        floor_level: Levels below this are dropped.
        step: Output cell width.

    The output window is the widest recorded interval at or above the
    floor.  A degenerate profile (no usable level at or above the floor)
    produces the zero function on the widest usable interval, or on
    [0, 1) when no level is usable.

    Raises:
        DomainError: If the usable intervals are not nested.
    """
    keep = profile.usable() & (profile.levels >= floor_level)
    lv = profile.levels[keep]
    a = profile.left[keep]
    b = profile.right[keep]
    if np.any(np.diff(a) < 0) or np.any(np.diff(b) > 0):
        raise DomainError("build_bubble requires nested intervals (regularize the profile)")
    if keep.any():
        lo, hi = float(a.min()), float(b.max())
    else:
        # Degenerate profile (nothing recorded at or above the floor):
        # the rebuilt function is identically zero.
        usable = profile.usable()
        if usable.any():
            lo = float(profile.left[usable].min())
            hi = float(profile.right[usable].max())
        else:
            lo, hi = 0.0, 1.0
    # Levels ascend and the intervals are nested, so the levels whose
    # interval holds a center are the first min(#{a_k <= x}, #{b_k > x}).
    values = np.concatenate(([0.0], lv))
    return from_samples(
        lambda x: values[
            np.minimum(np.searchsorted(a, x, side="right"), np.searchsorted(-b, -x, side="left"))
        ],
        lo,
        hi,
        step,
    )
