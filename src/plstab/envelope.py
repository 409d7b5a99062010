"""Concave/convex envelopes of level profiles and interpolation checks.

On the log-level axis ``T = log t``, near-equality forces the boundary
functions of a triple's superlevel intervals to be almost concave (right
boundaries) or almost convex (left boundaries).  This module fits those
envelopes and quantifies almost-concavity through two interpolation
checks:

* the *three-point check* compares profile half-widths of f and g at two
  levels against their interpolated level,
* the *four-point check* tests sampled functions psi(T) at the pair of
  conjugate combinations

      T_{1,2} = (T_1 + (1-lam) T_2) / (2 - lam),
      T_{2,1} = (lam T_1 + T_2)     / (2 - lam),

  which satisfy T_{1,2} + T_{2,1} = T_1 + T_2, requiring
  ``psi(T_1) + psi(T_2) <= psi(T_{1,2}) + psi(T_{2,1}) + sigma``.

Both checks snap the interpolated points to the sampling grid and grant a
slack proportional to the actual snap distance times the local Lipschitz
constant (max adjacent difference), so exactly concave data never
produces false violations at sigma = 0, and points that need no snapping
get no slack at all.

Snapping is the package's one rule, ``plcore._nearest`` (round half up,
on an integer numerator when ``lam == p/q``), and the snap distance comes
from the same numerator.  Both checks evaluate all index pairs in row
chunks of about ``_CHUNK_PAIRS`` pairs, and their ``worst`` tuple is the
first worst pair in row-major (i, j) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridfn import DomainError
from .plcore import _nearest_and_distance, _weights
from .profiles import LevelProfile

__all__ = [
    "EnvelopePair",
    "ViolationReport",
    "least_concave_majorant",
    "greatest_convex_minorant",
    "monotonize",
    "three_point_check",
    "four_point_check",
]

# Pairs evaluated per array op by the interpolation checks.  Their
# temporaries take about 80 bytes per pair, so this keeps them near the
# size of the pipeline's other arrays: at 2**14 pairs the peak RSS of a
# pipeline job at N = 4 000 rose by 1.4 MB, at 2**13 it did not move.
_CHUNK_PAIRS = 1 << 13

# Largest grid ``four_point_check`` accepts: it evaluates about n**2 / 2
# pairs, and the pipeline calls it on level grids of ``--levels`` points.
_MAX_POINTS = 4096


@dataclass(frozen=True)
class EnvelopePair:
    """Convex lower / concave upper boundary fits on a log-level grid.

    Attributes:
        T: Increasing log-levels.
        lower: Convex nondecreasing fit of the left boundary.
        upper: Concave nonincreasing fit of the right boundary.
        fit_error_lower: Max absolute gap to the fitted points (lower).
        fit_error_upper: Max absolute gap to the fitted points (upper).
    """

    T: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    fit_error_lower: float
    fit_error_upper: float

    def __post_init__(self) -> None:
        if not (self.T.size == self.lower.size == self.upper.size):
            raise DomainError("envelope arrays must share one length")
        if self.T.size < 2:
            raise DomainError("envelope grid needs at least two points")
        if not np.all(np.diff(self.T) > 0):
            raise DomainError("T must be strictly increasing")


def _upper_hull(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the upper convex hull of points sorted by x.

    Standard monotone chain: keep only clockwise turns, popping the middle
    point whenever the chain turns counterclockwise or runs collinear.
    """
    keep_x: list[float] = []
    keep_y: list[float] = []
    for px, py in zip(x, y):
        while len(keep_x) >= 2:
            ax, ay = keep_x[-2], keep_y[-2]
            bx, by = keep_x[-1], keep_y[-1]
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if cross >= 0:
                keep_x.pop()
                keep_y.pop()
            else:
                break
        keep_x.append(px)
        keep_y.append(py)
    return np.asarray(keep_x), np.asarray(keep_y)


def least_concave_majorant(T: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Smallest concave function dominating ``psi`` on its finite points.

    The hull is computed on the finite points and evaluated on the whole
    grid: linear interpolation between hull vertices inside their range
    and linear extrapolation with the end slopes outside it, so the
    returned samples are concave on the entire grid.

    Args:
        T: Strictly increasing sample points.
        psi: Sampled values; a non-finite entry marks a point that is
            left out.

    Returns:
        Array of majorant values on all of ``T``.

    Raises:
        DomainError: If fewer than two points are finite.
    """
    T = np.asarray(T, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if T.size != psi.size:
        raise DomainError("T and psi must have equal length")
    if T.size >= 2 and not np.all(np.diff(T) > 0):
        raise DomainError("T must be strictly increasing")
    finite = np.isfinite(psi)
    if finite.sum() < 2:
        raise DomainError("least_concave_majorant needs at least two finite points")
    hx, hy = _upper_hull(T[finite], psi[finite])
    out = np.interp(T, hx, hy)
    # The chain keeps the first and last of at least two finite points.
    s0 = (hy[1] - hy[0]) / (hx[1] - hx[0])
    s1 = (hy[-1] - hy[-2]) / (hx[-1] - hx[-2])
    lo = T < hx[0]
    hi = T > hx[-1]
    out[lo] = hy[0] + s0 * (T[lo] - hx[0])
    out[hi] = hy[-1] + s1 * (T[hi] - hx[-1])
    return out


def greatest_convex_minorant(T: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Largest convex function below ``psi`` on its finite points.

    Implemented by duality: ``-least_concave_majorant(T, -psi)``.
    """
    return -least_concave_majorant(T, -np.asarray(psi, dtype=float))


def monotonize(env: np.ndarray) -> np.ndarray:
    """Smallest nonincreasing majorant of a sampled concave function.

    This is the running maximum from the right.  For concave input the
    result is concave again: constant at the max left of the argmax, and
    equal to env to its right.

    To monotonize a *convex* sample u (e.g. a fitted left boundary),
    negate: ``-monotonize(-u)`` is the nondecreasing convex version
    plateauing at the minimum.
    """
    return np.maximum.accumulate(np.asarray(env, dtype=float)[::-1])[::-1]


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of an interpolation check.

    Attributes:
        count: Number of violating tuples.
        checked: Number of tuples examined.
        max_excess: Largest violation beyond sigma and the snap slack
            (0.0 when count == 0).
        worst: Grid coordinates of the worst tuple (levels for the
            three-point check, T values for the four-point check), or None.
    """

    count: int
    checked: int
    max_excess: float
    worst: tuple[float, ...] | None


def _lipschitz(y: np.ndarray, valid: np.ndarray) -> float:
    """Max adjacent difference over consecutive valid samples."""
    idx = np.flatnonzero(valid)
    if idx.size < 2:
        return 0.0
    vals = y[idx]
    adj = np.abs(np.diff(vals)) / np.maximum(np.diff(idx), 1)
    return float(adj.max())


def _row_chunks(lengths: np.ndarray):
    """Bounds ``(r0, r1)`` of consecutive rows holding at most ``_CHUNK_PAIRS``
    pairs (or one row, if that is longer); nothing when there are no pairs."""
    ends = np.cumsum(lengths)
    if not ends.size or not ends[-1]:
        return
    r0 = 0
    while r0 < lengths.size:
        r1 = int(np.searchsorted(ends, ends[r0] - lengths[r0] + _CHUNK_PAIRS, side="right"))
        r1 = max(r1, r0 + 1)
        yield r0, r1
        r0 = r1


def _tally(excess: np.ndarray, ok: np.ndarray, guard: float) -> tuple[int, int, int, float]:
    """Checked and violating tuples of one chunk, and its worst violation.

    Returns ``(checked, count, w, top)`` where ``w`` is the flat row-major
    index of the first largest violating excess and ``top`` that excess
    (0.0 when nothing violates, since every violation exceeds guard > 0).
    """
    bad = ok & (excess > guard)
    top = np.where(bad, excess, 0.0)
    w = int(np.argmax(top))
    return int(ok.sum()), int(bad.sum()), w, float(top.flat[w])


def three_point_check(
    profile_a: LevelProfile,
    profile_b: LevelProfile,
    profile_c: LevelProfile,
    lam: float,
    sigma: float,
) -> ViolationReport:
    """Half-width interpolation check between two profiles.

    With half-widths ``a(T) = (right-left)/2`` of profile_a and ``b(T)``
    of profile_b on a shared geometric level grid, checks for all usable
    level pairs (R, S) with T = (1-lam) R + lam S (snapped to the grid):

        (1-lam) a(R) + lam b(S) <= (1-lam) a(T) + lam b(T) + sigma + slack.

    ``profile_c`` (the combined function's profile) contributes usability
    at the interpolated level: all of a, b, c must be usable at T.  The
    slack is the snap distance times the local Lipschitz constants of the
    half-width samples, so unsnapped grid points get none.

    Snapping: the level index ``(1-lam)*i + lam*j`` goes to its nearest
    grid index by ``plcore._nearest``; for ``lam == p/q`` that is the
    numerator ``(q-p)*i + p*j`` over q, rounded half up exactly.
    ``worst`` is the first worst pair in row-major (i, j) order.
    """
    levels = profile_a.levels
    for other in (profile_b, profile_c):
        if other.levels.size != levels.size or not np.allclose(
            other.levels, levels, rtol=1e-9, atol=0.0
        ):
            raise DomainError("three_point_check requires one shared level grid")
    n = levels.size
    if n < 2:
        raise DomainError("need at least two levels")
    logs = np.log(levels)
    dT = np.diff(logs)
    if not np.allclose(dT, dT[0], rtol=1e-6, atol=0.0):
        raise DomainError("three_point_check requires a geometric level grid")
    wa = 0.5 * (profile_a.right - profile_a.left)
    wb = 0.5 * (profile_b.right - profile_b.left)
    ua = profile_a.usable()
    ub = profile_b.usable()
    uc = profile_c.usable()
    la = _lipschitz(wa, ua)
    lb = _lipschitz(wb, ub)
    scale = 1.0 + max(
        float(np.max(np.abs(wa[ua]))) if ua.any() else 0.0,
        float(np.max(np.abs(wb[ub]))) if ub.any() else 0.0,
    )
    guard = 1e-12 * scale
    exact, wi, wj, den = _weights(lam, (1, -1), (0, 1), (1, 0))
    count = 0
    checked = 0
    max_excess = 0.0
    worst = None
    rows = np.flatnonzero(ua)
    j = np.flatnonzero(ub)[None, :]
    for r0, r1 in _row_chunks(np.full(rows.size, j.size)):
        i = rows[r0:r1, None]
        k, snap, snap_den = _nearest_and_distance(wi * i + wj * j, den, exact)
        ok = ua[k] & ub[k] & uc[k]
        slack = (la + lb) * (snap / snap_den)
        lhs = (1.0 - lam) * wa[i] + lam * wb[j]
        rhs = (1.0 - lam) * wa[k] + lam * wb[k]
        excess = lhs - rhs - sigma - slack
        c, nbad, w, top = _tally(excess, ok, guard)
        checked += c
        count += nbad
        if top > max_excess:
            max_excess = top
            r, col = divmod(w, j.size)
            worst = (float(levels[i[r, 0]]), float(levels[j[0, col]]), float(levels[k[r, col]]))
    return ViolationReport(count=count, checked=checked, max_excess=max_excess, worst=worst)


def four_point_check(
    T: np.ndarray,
    psis: list[np.ndarray],
    lam: float,
    sigma: float,
) -> list[ViolationReport]:
    """Conjugate-pair interpolation check of sampled functions, one report each.

    For every valid index pair i <= j, forms the conjugate combinations
    ``T_{1,2} = (T_i + (1-lam) T_j)/(2-lam)`` and ``T_{2,1} = ((1-lam) T_i +
    T_j)/(2-lam)`` (which sum to ``T_i + T_j``, so affine samples saturate),
    snaps them to the uniform grid, and requires of each psi in ``psis``

        psi_i + psi_j <= psi[k12] + psi[k21] + sigma + slack,

    where the slack is the local Lipschitz constant (max adjacent
    difference of psi over valid points) times the total snap distance of
    the two combinations.  Violations are counted only when all four
    points are valid.  A point is valid when every psi is finite there,
    so the pair geometry (the pairs, their snapped indices and snap
    distances) is computed once per chunk for all of them; each psi keeps
    its own Lipschitz constant, guard and tally.

    Snapping: both targets go to their nearest grid index by
    ``plcore._nearest``; for ``lam == p/q`` they are the numerators
    ``q*i + (q-p)*j`` and ``(q-p)*i + q*j`` over ``D = 2q - p``, rounded
    half up exactly, with total snap distance ``(|m12 - D*k12| + |m21 -
    D*k21|) / D``.  ``worst`` is the first worst pair in row-major (i, j)
    order.

    Raises:
        DomainError: If the grid is not uniform or has more than 4096
            points.
    """
    T = np.asarray(T, dtype=float)
    psis = [np.asarray(psi, dtype=float) for psi in psis]
    if any(T.size != psi.size for psi in psis):
        raise DomainError("T and psi must have equal length")
    n = T.size
    if n > _MAX_POINTS:
        raise DomainError(f"four_point_check limited to {_MAX_POINTS} points, got {n}")
    if n < 2:
        raise DomainError("need at least two points")
    dT = np.diff(T)
    if not np.allclose(dT, dT[0], rtol=1e-9, atol=0.0):
        raise DomainError("four_point_check requires a uniform grid")
    mask = np.logical_and.reduce([np.isfinite(psi) for psi in psis])
    lips = [_lipschitz(psi, mask) for psi in psis]
    guards = [
        1e-12 * (1.0 + float(np.max(np.abs(psi[mask]))) if mask.any() else 1.0)
        for psi in psis
    ]
    # Invalid samples never reach a tally; zeroing them keeps inf and nan
    # out of the arithmetic.
    psis = [np.where(mask, psi, 0.0) for psi in psis]
    exact, near, far, den = _weights(lam, (1, 0), (1, -1), (2, -1))
    tallies = [[0, 0, 0.0, None] for _ in psis]
    idx = np.flatnonzero(mask)
    # Row r of the upper triangle pairs idx[r] with idx[r:].
    lengths = idx.size - np.arange(idx.size)
    for r0, r1 in _row_chunks(lengths):
        rl = lengths[r0:r1]
        rr = np.repeat(np.arange(r0, r1), rl)
        cc = rr + np.arange(rr.size) - np.repeat(np.cumsum(rl) - rl, rl)
        i = idx[rr]
        j = idx[cc]
        k12, s12, snap_den = _nearest_and_distance(near * i + far * j, den, exact)
        k21, s21, _ = _nearest_and_distance(far * i + near * j, den, exact)
        snap = (s12 + s21) / snap_den
        # i and j are valid by construction.
        ok = mask[k12] & mask[k21]
        for psi, lip, guard, tally in zip(psis, lips, guards, tallies):
            slack = lip * snap
            excess = psi[i] + psi[j] - psi[k12] - psi[k21] - sigma - slack
            c, nbad, w, top = _tally(excess, ok, guard)
            tally[0] += c
            tally[1] += nbad
            if top > tally[2]:
                tally[2] = top
                tally[3] = (float(T[i[w]]), float(T[j[w]]), float(T[k12[w]]), float(T[k21[w]]))
    return [
        ViolationReport(count=count, checked=checked, max_excess=top, worst=worst)
        for checked, count, top, worst in tallies
    ]
