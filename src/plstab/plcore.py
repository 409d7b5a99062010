"""Core operations for the Prekopa-Leindler inequality on grid functions.

The central objects are triples ``(f, g, h)`` with an interpolation
parameter ``lam`` in (0, 1) that are meant to satisfy the pointwise
condition

    h((1-lam)*x + lam*y) >= f(x)**(1-lam) * g(y)**lam        (*)

for all x, y.  Under (*) the inequality ``int h >= (int f)**(1-lam) *
(int g)**lam`` holds, and the (normalized) deficit

    epsilon = int h / ((int f)**(1-lam) * (int g)**lam) - 1

measures how far the triple is from equality.  Equality forces f, g, h to
be translates/dilates of a single log-concave profile.

This module provides:

* :class:`PLTriple` with a grid-tolerant check of condition (*),
* ``sup_convolution`` building the canonical smallest h for given (f, g),
* ``deficit`` with exact cell-sum integrals,
* the scalar lemma checks, one ``CheckRow`` each: ``amgm_stability``
  (the weighted AM-GM gap against ``tau * (sqrt(a) - sqrt(b))**2``) and
  ``check_sup_ratio`` (the sup-norm ratio of a near-equality pair).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .gridfn import DomainError, GridFunction, _dumps

__all__ = [
    "PLTriple",
    "ConditionReport",
    "DeficitReport",
    "sup_convolution",
    "deficit",
    "quadrature_tol",
    "CheckRow",
    "amgm_stability",
    "check_sup_ratio",
]

# Relative slack on the right-hand side of condition (*) in
# ``PLTriple.condition_satisfied``.
_CONDITION_REL_TOL = 1e-12

# Snapping settles rounding ties exactly when lam = p/q with q at most this.
_MAX_LATTICE_DENOMINATOR = 64
# Snap builds its lattice only up to this many cells: a 2D lattice grows
# as q**2 times the output, about 1.2 GB at 192**2 cells with q = 64.
_MAX_LATTICE_CELLS = 1 << 22
# The lattice verdict of ``condition_satisfied`` runs only while every
# coordinate is within this many cells of 0: the scan's float targets
# then err by under 1e-4 cells, far below the 1/128 cell gap its
# two-window argument needs.
_MAX_LATTICE_REACH = 1 << 34
# The condition checks locate targets only within this many cells of h's
# origin: beyond it a double no longer resolves a cell, and the int64 cast
# of the cell index can overflow.
_MAX_SCAN_REACH = 1 << 52


def _check_lambda(lam: float) -> float:
    if not (np.isfinite(lam) and 0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie strictly inside (0, 1), got {lam}")
    return float(lam)


def quadrature_tol(f: GridFunction, g: GridFunction) -> float:
    """Default mass tolerance for grid artifacts: 3*step*(sup f + sup g)."""
    return 3.0 * max(f.step, g.step) * (f.sup_norm() + g.sup_norm())


@dataclass(frozen=True)
class ConditionReport:
    """Result of checking the pointwise inequality (*) on every cell pair.

    Attributes:
        satisfied: True when no pair violates (*) beyond tolerance.
        checked: Number of pairs checked: every pair of positive cells.
        violations: Number of violating pairs.
        max_violation: Largest relative shortfall ``rhs/lhs - 1`` observed
            (0.0 when none).
        worst_pair: Cell centers ``(x, y)`` of the worst violation, or None.
            In d >= 2 dimensions x and y are tuples of per-axis coordinates.
    """

    satisfied: bool
    checked: int
    violations: int
    max_violation: float
    worst_pair: tuple | None


@dataclass(frozen=True)
class PLTriple:
    """A candidate triple for the interpolated inequality.

    Attributes:
        f, g, h: Nonnegative grid functions of one dimension d:
            ``GridFunction`` in 1D, ``multidim.GridFunctionND`` in d >= 2.
        lam: Interpolation weight in (0, 1) (weight of g).
    """

    f: GridFunction
    g: GridFunction
    h: GridFunction
    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)
        if not self.f.values.ndim == self.g.values.ndim == self.h.values.ndim:
            raise DomainError("f, g and h must have the same dimension")

    @property
    def tau(self) -> float:
        """Symmetric interpolation margin min(lam, 1-lam)."""
        return float(min(self.lam, 1.0 - self.lam))

    def condition_satisfied(self) -> ConditionReport:
        """Check condition (*) on every pair of positive cells, with one cell of slack.

        For each pair of cells with ``f(x) > 0`` and ``g(y) > 0`` the
        combination ``z = (1-lam)*x + lam*y`` of the cell centers is
        located in h's grid, and the pair passes when

            max(h over the target cell and its neighbors)
                >= (f(x)**(1-lam) * g(y)**lam) * (1 - 1e-12),

        with h zero outside its grid (``_condition_check``).  The one-cell
        slack on the target absorbs the snapping of z to h's grid: for a
        locally monotone h one of the candidate cells always sits uphill
        of z, so snapping alone can never produce a false violation.  No
        pair is skipped: ``checked`` is the number of positive f cells
        times the number of positive g cells.

        Lattice verdict (``_lattice_verdict``): when f, g and h have equal
        steps, ``lam == p/q`` with ``q <= 64``, the snap lattice of (f, g)
        fits under ``_MAX_LATTICE_CELLS`` and h's origin is a whole number
        t of cells from the snap origin ``(1-lam)*f.origin +
        lam*g.origin``, every pair is decided at once, in any dimension.
        On each axis pair (i, j) has the scaled target ``m/q + 1/2 - t``
        in h's grid, ``m = (q-p)*i + p*j``, and the snap output on the
        lattice (``_snap``) holds the largest right-hand side of the pairs
        with ``(2m + q) // (2q) == k`` in its cell k.  The target
        is either an integer (a tie) or at least ``1/(2q)`` from one, so
        the scan's float ``floor`` lands on h cell ``k - t``, or on ``k -
        t - 1`` at a tie.  The verdict is "satisfied" when the slack
        maximum of h on both cells is at least ``M[k] * (1 - 1e-12)`` for
        every k, on each axis.  It compares the same floats as the scan:
        both read ``f**(1-lam)`` and ``g**lam`` from one evaluation.
        Every other case, and every case the verdict does not show
        satisfied, runs the pair scan, so ``violations``,
        ``max_violation`` and ``worst_pair`` always come from the scan.

        Raises:
            DomainError: If a target can lie more than 2**52 cells of h
                from h's origin (``_check_reach``).
        """
        lam = self.lam
        fw = self.f.values ** (1.0 - lam)
        gw = self.g.values**lam
        fi = np.nonzero(self.f.values > 0)
        gi = np.nonzero(self.g.values > 0)
        fpow, gpow = fw[fi], gw[gi]
        if fpow.size == 0 or gpow.size == 0:
            return ConditionReport(True, 0, 0, 0.0, None)
        checked = fpow.size * gpow.size
        _check_reach(self)
        if _lattice_verdict(self, fw, gw):
            return ConditionReport(True, checked, 0, 0.0, None)
        fx, gy = _cell_centers(self.f, fi), _cell_centers(self.g, gi)
        lam_gy = [lam * y for y in gy]
        xs = list(zip(*(x.tolist() for x in fx)))
        # One f cell at a time keeps every temporary at the size of g.
        rows = (
            ([(1.0 - lam) * xa + ya for xa, ya in zip(x, lam_gy)], fp * gpow)
            for x, fp in zip(xs, fpow.tolist())
        )
        violations = 0
        max_violation = 0.0
        worst = None
        for x, (nbad, bad, shortfall) in zip(xs, _condition_check(self.h, rows)):
            if nbad:
                violations += nbad
                w = int(np.argmax(shortfall))
                if shortfall[w] > max_violation:
                    max_violation = float(shortfall[w])
                    y = tuple(float(ya[bad][w]) for ya in gy)
                    worst = (x[0], y[0]) if len(x) == 1 else (x, y)
        return ConditionReport(
            satisfied=violations == 0,
            checked=checked,
            violations=violations,
            max_violation=max_violation,
            worst_pair=worst,
        )


def _check_reach(triple: PLTriple) -> None:
    """Raise ``DomainError`` when a target of the condition check can lie
    more than ``_MAX_SCAN_REACH`` cells of h from h's origin.

    The targets ``(1-lam)*x + lam*y`` lie between the combinations of the
    window ends of f and g, so one comparison per axis bounds them all.
    """
    lam = triple.lam
    f, g, h = triple.f, triple.g, triple.h
    axes = zip(
        *(np.atleast_1d(gf.origin).tolist() for gf in (f, g, h)),
        *(np.atleast_1d(gf.step).tolist() for gf in (f, g, h)),
        f.values.shape,
        g.values.shape,
    )
    for of, og, oh, sf, sg, sh, nf, ng in axes:
        lo = (1.0 - lam) * of + lam * og - oh
        reach = max(abs(lo), abs(lo + (1.0 - lam) * nf * sf + lam * ng * sg))
        if reach > _MAX_SCAN_REACH * sh:
            raise DomainError(
                f"condition check targets lie up to {reach} from h's origin, "
                f"beyond the reach of 2**52 cells of step {sh}"
            )


def _positive_cells(gf, power: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Centers (one array per axis) and ``value**power`` of the positive cells, in C order."""
    idx = np.nonzero(gf.values > 0)
    return _cell_centers(gf, idx), gf.values[idx] ** power


def _cell_centers(gf, idx: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Centers of the cells ``idx`` (one index array per axis), one array per axis."""
    origin = np.atleast_1d(gf.origin).tolist()
    step = np.atleast_1d(gf.step).tolist()
    return tuple(o + s * (i + 0.5) for o, s, i in zip(origin, step, idx))


def _slack_max(values: np.ndarray) -> np.ndarray:
    """Maximum of ``values`` over the 3**d cells around each cell, zero outside.

    The result is padded by three zero cells at the end of each axis and
    read cyclically: a cell k clipped to [-2, n + 1] reads index k, where
    k = -1 (which wraps) and k = n see the edge cells of ``values``, and
    k = -2 and k = n + 1 see only padding, that is 0.
    """
    out = np.pad(values, [(0, 3)] * values.ndim)
    for axis in range(out.ndim):
        out = np.maximum.reduce([out, np.roll(out, 1, axis), np.roll(out, -1, axis)])
    return out


def _condition_check(h, batches):
    """Check condition (*) on batches of pairs, with one cell of slack.

    ``h`` is a grid function of any dimension d.  Each batch is ``(z,
    rhs)``: the targets ``(1-lam)*x + lam*y`` of its pairs, one array per
    axis, and the right-hand sides ``f(x)**(1-lam) * g(y)**lam``.  A
    target's cell is ``floor((z - origin) / step)`` on each axis, and the
    pair passes when the maximum of h over the 3**d cells around it is at
    least ``rhs * (1 - 1e-12)``; h is zero outside its grid.

    Yields, per batch, the number of violating pairs, their mask and their
    relative shortfalls ``rhs/lhs - 1`` (None when there are none).
    """
    origin = np.atleast_1d(h.origin).tolist()
    step = np.atleast_1d(h.step).tolist()
    top = [n + 1 for n in h.values.shape]
    hmax = _slack_max(h.values)
    for z, rhs in batches:
        # In place where possible: in 1D this runs once per f cell.
        cells = []
        for za, o, s, n in zip(z, origin, step, top):
            u = za - o
            u /= s
            k = np.floor(u, out=u).astype(np.int64)
            cells.append(k.clip(-2, n, out=k))
        lhs = hmax[tuple(cells)]
        bad = lhs < rhs * (1.0 - _CONDITION_REL_TOL)
        nbad = int(np.count_nonzero(bad))
        if nbad:
            yield nbad, bad, rhs[bad] / np.maximum(lhs[bad], 1e-300) - 1.0
        else:
            yield 0, bad, None


# -- the snap rule ---------------------------------------------------------


def _rational(lam: float) -> tuple[int, int] | None:
    """``(p, q)`` with ``p / q == lam`` exactly, else None.

    ``q`` is at most ``_MAX_LATTICE_DENOMINATOR``.
    """
    r = Fraction(lam).limit_denominator(_MAX_LATTICE_DENOMINATOR)
    p, q = r.numerator, r.denominator
    return (p, q) if p / q == lam else None


def _weights(lam: float, *pairs: tuple[int, int]) -> tuple:
    """Weights ``x0 + x1*lam`` of an interpolated index, one per pair ``(x0, x1)``.

    Returns ``(exact, w1, w2, ...)``.  When ``lam == p/q`` (``_rational``)
    the weights are the integers ``x0*q + x1*p``, q times the real ones,
    and ``exact`` is True; otherwise they are the floats ``x0 + x1*lam``.
    A caller writes its target index as a weighted sum of grid indices
    over a weighted denominator, so the factor q cancels in ``_nearest``.
    """
    pq = _rational(lam)
    if pq is None:
        return (False, *(x0 + x1 * lam for x0, x1 in pairs))
    p, q = pq
    return (True, *(x0 * q + x1 * p for x0, x1 in pairs))


def _nearest(num, den, exact: bool):
    """The one snap rule: the index nearest to ``num / den``, ties up.

    ``num`` and ``den`` are built from one ``_weights`` call.  Exact
    (integer) weights round half up on the numerator, ``(2*num + den) //
    (2*den)``, so ties are settled exactly; float weights use
    ``floor(num/den + 0.5)``.
    """
    if exact:
        return (2 * num + den) // (2 * den)
    return np.floor(num / den + 0.5).astype(np.int64)


def _nearest_and_distance(num, den, exact: bool):
    """``_nearest`` and the snap distance ``|num/den - k|`` as a numerator
    and a denominator (``den`` for exact weights, 1.0 for float ones)."""
    k = _nearest(num, den, exact)
    if exact:
        return k, np.abs(num - den * k), den
    return k, np.abs(num / den - k), 1.0


# -- sup-convolution -------------------------------------------------------


def _lattice(fw: np.ndarray, gw: np.ndarray, p: int, q: int, d0: int = 0, d1=None) -> np.ndarray:
    """Max of ``fw[c] * gw[d]`` over the pairs landing on each lattice index.

    ``fw`` and ``gw`` have the same number of dimensions.  On each axis,
    pair (c, d) lands on ``m = (q - p)*c + p*d``, the exact position of
    ``(1 - p/q)*c + (p/q)*d`` on a grid of step 1/q.  The pairs of f cell c
    fill ``windows[c]``: the stride-p block of the lattice that starts at
    ``(q - p)*c``.  Only g cells ``d0 .. d1 - 1`` on the first axis are
    paired (all of them by default); the lattice keeps its full size.
    """
    out = np.zeros(
        tuple((q - p) * (nf - 1) + p * (ng - 1) + 1 for nf, ng in zip(fw.shape, gw.shape))
    )
    gw = gw[d0:d1]
    windows = as_strided(
        out[p * d0 :],
        fw.shape + gw.shape,
        tuple((q - p) * s for s in out.strides) + tuple(p * s for s in out.strides),
    )
    buf = np.empty(gw.shape)
    live = fw > 0
    # A plain int key keeps the 1D loop as cheap as a slice.
    if fw.ndim == 1:
        cells = np.flatnonzero(live).tolist()
    else:
        cells = [tuple(c) for c in np.argwhere(live).tolist()]
    for c, w in zip(cells, fw[live].tolist()):
        block = windows[c]
        np.multiply(gw, w, out=buf)
        np.maximum(block, buf, out=block)
    return out


def _regroup(lat: np.ndarray, q: int) -> np.ndarray:
    """Cells of the input step from a lattice of step 1/q, on every axis.

    Cell k collects the lattice indices m with ``(2m + q) // (2q) == k``
    (``_nearest`` on the numerator m over q), i.e. the q consecutive
    indices starting at ``k*q - q//2``.
    """
    pad = q // 2
    sizes = [(n - 1 + pad) // q + 1 for n in lat.shape]
    cells = np.zeros([s * q for s in sizes])
    cells[tuple(slice(pad, pad + n) for n in lat.shape)] = lat
    split = [x for s in sizes for x in (s, q)]
    return cells.reshape(split).max(axis=tuple(range(1, 2 * lat.ndim, 2)))


def _segmented(fw: np.ndarray, gw: np.ndarray, wf, wg, den, exact: bool) -> np.ndarray:
    """Snap by ``_nearest`` on ``(wf*c + wg*d) / den``, one f cell at a time.

    Works on arrays of any (equal) dimension and needs no lattice.  The
    output is sized by the same rule applied to the extreme pair.
    """
    out = np.zeros(
        tuple(
            int(_nearest(wf * (nf - 1) + wg * (ng - 1), den, exact)) + 1
            for nf, ng in zip(fw.shape, gw.shape)
        )
    )
    live = fw > 0
    cells = np.argwhere(live)
    # On each axis the target depends only on that axis's f index, and it
    # rises by 0 or 1 per g cell (lam < 1).  So each f index gives one
    # reduceat segmentation of the g axis onto a contiguous run of cells.
    segments = []
    for axis, ng in enumerate(gw.shape):
        offsets = wg * np.arange(ng)
        segments.append({})
        for i in np.unique(cells[:, axis]).tolist():
            k = _nearest(wf * i + offsets, den, exact)
            starts = np.flatnonzero(np.diff(k, prepend=-1))
            segments[axis][i] = (starts, slice(int(k[0]), int(k[0]) + starts.size))
    for c, w in zip(cells.tolist(), fw[live].tolist()):
        vals = w * gw
        runs = []
        for axis, i in enumerate(c):
            starts, run = segments[axis][i]
            vals = np.maximum.reduceat(vals, starts, axis=axis)
            runs.append(run)
        block = out[tuple(runs)]
        np.maximum(block, vals, out=block)
    return out


def _level_rows(v: np.ndarray):
    """Peak and level rows of a 1D array: None unless it is unimodal.

    ``v`` is unimodal when it equals the smaller of its prefix and suffix
    maxima.  Then each superlevel set ``{v >= u}`` is one block of cells,
    and every block holds the peak ``p = argmax(v)``.  Returns ``(p,
    rise, fall)``: ``rise`` keeps v on the left ends of the blocks (the
    first cell of each run of equal values in ``[0, p]``) and ``fall`` on
    their right ends (the last cell of each run in ``[p, n)``), zero
    elsewhere.
    """
    if not np.array_equal(
        v, np.minimum(np.maximum.accumulate(v), np.maximum.accumulate(v[::-1])[::-1])
    ):
        return None
    peak = int(np.argmax(v))
    step = np.diff(v)
    rise = np.where(np.concatenate(([True], step != 0)), v, 0.0)
    rise[peak + 1 :] = 0.0
    fall = np.where(np.concatenate((step != 0, [True])), v, 0.0)
    fall[:peak] = 0.0
    return peak, rise, fall


def _level_split(fw: np.ndarray, gw: np.ndarray, kernel) -> np.ndarray:
    """Lattice output of fw and gw, from the ends of their level blocks
    when both are 1D and unimodal (``_level_rows``).

    ``kernel(rows, d0, d1)`` is the mode's lattice output, at full size,
    of the pairs of the positive cells of ``rows`` (an array like ``fw``)
    with g cells ``d0 .. d1 - 1`` on the first axis.  Any other input
    gets ``kernel(fw, 0, n_g)``, the whole kernel.

    The output is the whole kernel's, bit for bit (threshold
    decomposition; Maragos and Schafer, IEEE Trans. ASSP 35, 1987).  Pair
    (c, d) lands on lattice cell ``_nearest(wf*c + wg*d, den, exact)``.
    For f block i and g block j, a monotone path of pairs from their left
    ends ``(lo_i, lo_j)`` to their right ends ``(hi_i, hi_j)`` moves the
    target by ``wf`` or ``wg`` per step, each below ``den``, so the pairs
    of the two blocks fill every cell from ``L_ij``, the cell of the left
    ends, to ``R_ij``, that of the right ends, with the product
    ``u_i*u_j`` of the block values at least.  Every block pair's cells
    contain those of the top pair, so a cell k is covered by a pair with
    ``L_ij <= k`` whenever k is left of the top cells and by one with
    ``R_ij >= k`` whenever k is right of them: the output is ``min(A,
    B)``, with A the running maximum over cells of the left-end products
    and B the reversed running maximum of the right-end products.  A left
    end ``lo_i`` is the first cell of a run at or before f's peak, and any
    pair of such a cell with a g cell at or before g's peak has a block
    pair, of the same product, whose left ends land no later; so A is the
    running maximum of ``kernel(rise, 0, peak_g + 1)``, and B likewise of
    ``kernel(fall, peak_g, n_g)``.  Each row of f is then one block end
    against one part of g: 1/8 to 1/4 of the whole kernel's pair
    operations on the pipeline's bubbles (511 levels on 2 000 to 4 000
    cells), about 1/2 on a smooth bump.
    """
    split_f = _level_rows(fw) if fw.ndim == 1 else None
    split_g = None if split_f is None else _level_rows(gw)
    if split_g is None:
        return kernel(fw, 0, gw.shape[0])
    (_, rise, fall), peak_g = split_f, split_g[0]
    left = np.maximum.accumulate(kernel(rise, 0, peak_g + 1))
    right = np.maximum.accumulate(kernel(fall, peak_g, gw.size)[::-1])[::-1]
    return np.minimum(left, right)


def _snap_weights(fw: np.ndarray, gw: np.ndarray, lam: float) -> tuple:
    """``(lattice, exact, wf, wg, den)``: the snap weights of ``fw`` and
    ``gw`` (one ``_weights`` call), and whether the lattice runs.

    ``lattice`` is True when ``lam == p/q`` with ``q <= 64`` (then ``wg``
    is p and ``den`` is q) and the lattice has at most
    ``_MAX_LATTICE_CELLS`` cells.
    """
    exact, wf, wg, den = _weights(lam, (1, -1), (0, 1), (1, 0))
    lattice = exact and (
        math.prod(wf * (nf - 1) + wg * (ng - 1) + 1 for nf, ng in zip(fw.shape, gw.shape))
        <= _MAX_LATTICE_CELLS
    )
    return lattice, exact, wf, wg, den


def _snap(fw: np.ndarray, gw: np.ndarray, lam: float) -> np.ndarray:
    """Snap sup-convolution values of ``fw = f**(1-lam)``, ``gw = g**lam``.

    Both kernels snap each pair by ``_nearest`` and return the same
    values.  The lattice runs when ``_snap_weights`` allows it, on 1D
    unimodal inputs only over the ends of the level blocks
    (``_level_split``); the segmentation runs otherwise.
    """
    lattice, exact, wf, wg, den = _snap_weights(fw, gw, lam)
    if not lattice:
        return _segmented(fw, gw, wf, wg, den, exact)
    return _level_split(
        fw, gw, lambda rows, d0, d1: _regroup(_lattice(rows, gw, wg, den, d0, d1), den)
    )


def _lattice_verdict(triple: PLTriple, fw: np.ndarray, gw: np.ndarray) -> bool:
    """True when the snap lattice shows condition (*) on every pair.

    ``fw = f**(1-lam)`` and ``gw = g**lam`` are the arrays the pair scan
    reads.  False means "not shown", never "violated": the conditions
    and the two-window argument are in ``PLTriple.condition_satisfied``.
    """
    f, g, h, lam = triple.f, triple.g, triple.h, triple.lam
    step = np.atleast_1d(f.step).tolist()
    if any(np.atleast_1d(gf.step).tolist() != step for gf in (g, h)):
        return False
    origins = (np.atleast_1d(gf.origin).tolist() for gf in (f, g, h))
    shifts = []
    for of, og, oh, s, nf, ng in zip(*origins, step, fw.shape, gw.shape):
        # h's origin in cells from the snap origin must be a whole number;
        # this checks it, it snaps no interpolated index.
        far = max(abs(of), abs(og), abs(oh)) / s + nf + ng
        cells = (oh - ((1.0 - lam) * of + lam * og)) / s
        if far > _MAX_LATTICE_REACH or abs(cells - round(cells)) > 1e-9:
            return False
        shifts.append(round(cells))
    if not _snap_weights(fw, gw, lam)[0]:
        return False
    rhs = _snap(fw, gw, lam)
    # The slack maximum on h cells k - t - 1 and k - t of snap cell k, read
    # with the scan's clip, then the smaller of the two on each axis.
    index = [
        np.arange(-t - 1, size - t).clip(-2, n + 1)
        for t, size, n in zip(shifts, rhs.shape, h.values.shape)
    ]
    lhs = _slack_max(h.values)[np.ix_(*index)]
    for axis in range(lhs.ndim):
        lo, hi = ([slice(None)] * axis + [sl] for sl in (slice(None, -1), slice(1, None)))
        lhs = np.minimum(lhs[tuple(lo)], lhs[tuple(hi)])
    return not (lhs < rhs * (1.0 - _CONDITION_REL_TOL)).any()


def _sup_convolution(f, g, lam: float, mode: str, name: str):
    """Snap or halfgrid output for grid functions of one dimension d >= 1.

    The body of ``sup_convolution`` and ``multidim.sup_convolution_2d``
    after their own checks: f and g must have one dimension and equal
    steps on every axis (1e-12 relative), and a zero input gives a single
    zero cell, on the output grid of its mode, with a warning.  The snap
    output has step ``f.step`` and origin ``(1-lam)*f.origin +
    lam*g.origin`` on every axis.  The halfgrid output (lam = 1/2) is the
    exact midpoint lattice: on each axis pair (i, j) has its midpoint on
    index ``i + j`` of a grid of step ``f.step/2``, so no rounding occurs and
    the output undershoots the true sup-convolution by at most
    O(step**2) for smooth inputs (pure sampling error, no snap bias).
    """
    if f.values.ndim != g.values.ndim or not np.allclose(
        np.atleast_1d(f.step), np.atleast_1d(g.step), rtol=1e-12, atol=0.0
    ):
        raise DomainError(
            f"{name} requires equal dimensions and steps, got {f.step} and {g.step}"
        )
    fo, go, fs = (np.asarray(v) for v in (f.origin, g.origin, f.step))
    if mode == "halfgrid":
        origin = (0.5 * (fo + go) + 0.25 * fs).tolist()
        step = (0.5 * fs).tolist()
    else:
        origin = ((1.0 - lam) * fo + lam * go).tolist()
        step = f.step
    if not (f.values.any() and g.values.any()):
        warnings.warn(f"{name} of a zero function is zero", stacklevel=3)
        return type(f)(origin, step, np.zeros((1,) * f.values.ndim))
    if mode == "halfgrid":
        fw, gw = f.values**0.5, g.values**0.5
        out = _level_split(fw, gw, lambda rows, d0, d1: _lattice(rows, gw, 1, 2, d0, d1))
        return type(f)(origin, step, out)
    return type(f)(origin, step, _snap(f.values ** (1.0 - lam), g.values**lam, lam))


def sup_convolution(
    f: GridFunction,
    g: GridFunction,
    lam: float,
    mode: Literal["snap", "halfgrid", "auto"] = "snap",
) -> GridFunction:
    """Canonical smallest h satisfying condition (*) at sampled pairs.

    Computes ``h(z) = sup {f(x)**(1-lam) * g(y)**lam : (1-lam)x + lam*y = z}``
    restricted to pairs of cell centers.

    Modes:
        "snap": output on a grid with the input step; each pair's target
            ``z`` is rounded to the nearest cell center.  Works for any
            ``lam``.  Its error is an upward bias of order ``step`` (about
            ``step/2`` times the local slope of h).
        "halfgrid": only for ``lam = 1/2`` and equal steps; the output
            lives on a half-step grid where midpoints of cell centers land
            exactly, so there is no snap bias.  Its error is an undershoot
            of order ``step**2`` for smooth inputs.
        "auto": "halfgrid" when applicable, otherwise "snap".

    Snap rounds the target offset ``(1-lam)*i + lam*j`` of pair (i, j) by
    the package's one rule, ``plcore._nearest``: half up, on the integer
    numerator ``(q-p)*i + p*j`` over q when ``lam == p/q`` with ``q <= 64``
    (ties settled exactly), by ``floor(u + 0.5)`` otherwise.  The output
    is sized by the same rule applied to the extreme pair.

    Level blocks: when both inputs are 1D and unimodal (every superlevel
    set one interval, as the pipeline's bubbles and log-concave functions
    are) and the lattice runs (halfgrid, and snap at ``lam == p/q``
    within the lattice cap), the lattice pairs only the left ends of f's
    level blocks with g up to its peak and the right ends with g from its
    peak, and combines the two running maxima (``_level_split``).  The
    output is the whole lattice's, bit for bit, at a fraction of its pair
    operations: 1/8 to 1/4 on the pipeline's bubbles and about 1/2 on a
    smooth bump.  Every other input runs the whole kernel.

    Preconditions: equal steps; lam in (0, 1).  If either input is
    identically zero the result is the zero function (a warning is
    emitted), matching the convention 0**lam = 0.
    """
    lam = _check_lambda(lam)
    if mode == "auto":
        mode = "halfgrid" if lam == 0.5 else "snap"
    if mode not in ("snap", "halfgrid"):
        raise DomainError(f"unknown sup_convolution mode {mode!r}")
    if mode == "halfgrid" and lam != 0.5:
        raise DomainError("halfgrid mode requires lam = 1/2")
    return _sup_convolution(f, g, lam, mode, "sup_convolution")


def canonical_triple(
    f: GridFunction,
    g: GridFunction,
    lam: float,
    mode: Literal["snap", "halfgrid", "auto"],
) -> PLTriple:
    """Triple with ``h = sup_convolution(f, g, lam)``."""
    return PLTriple(f, g, sup_convolution(f, g, lam, mode=mode), lam)


# -- deficit ----------------------------------------------------------------


@dataclass(frozen=True)
class DeficitReport:
    """Integrals and normalized deficit of a triple.

    Attributes:
        int_f, int_g, int_h: Exact cell-sum integrals.
        geo_mean: ``int_f**(1-lam) * int_g**lam``.
        epsilon: ``int_h / geo_mean - 1`` (may be slightly negative on a
            grid due to quadrature).
        a: Scaling ratio ``int_g / int_f`` used by reconstruction.
    """

    int_f: float
    int_g: float
    int_h: float
    geo_mean: float
    epsilon: float
    a: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return _dumps(self.to_json_dict(), sort_keys=True)


def deficit(triple: PLTriple) -> DeficitReport:
    """Normalized deficit of the triple via exact cell sums, in any dimension.

    Raises:
        DomainError: If ``int f`` or ``int g`` is zero or any integral is
            not finite.
    """
    int_f, int_g, int_h = (gf.integral() for gf in (triple.f, triple.g, triple.h))
    lam = triple.lam
    for name, val in (("f", int_f), ("g", int_g)):
        if not np.isfinite(val) or val <= 0.0:
            raise DomainError(f"integral of {name} must be positive, got {val}")
    if not np.isfinite(int_h):
        raise DomainError(f"integral of h must be finite, got {int_h}")
    geo = int_f ** (1.0 - lam) * int_g**lam
    return DeficitReport(
        int_f=int_f,
        int_g=int_g,
        int_h=int_h,
        geo_mean=geo,
        epsilon=int_h / geo - 1.0,
        a=int_g / int_f,
    )


# -- scalar lemma checks -------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    """One measured-versus-bound comparison.

    Attributes:
        check_name: Identifier of the inequality being tested.
        instance_id: Caller-supplied label of the instance.
        measured: The measured quantity.
        bound: The theoretical bound (including any grid allowance is the
            caller's concern; ``passed`` already accounts for it).
        ratio: measured / bound (0 when the bound is infinite or zero).
        hypothesis_met: Whether the inequality's hypothesis held, making
            the comparison meaningful.
        passed: measured <= bound + allowance (True vacuously when the
            hypothesis is not met).
    """

    check_name: str
    instance_id: str
    measured: float
    bound: float
    ratio: float
    hypothesis_met: bool
    passed: bool


def _row(
    name: str,
    instance: str,
    measured: float,
    bound: float,
    allowance: float,
    hypothesis_met: bool = True,
) -> CheckRow:
    ratio = measured / bound if bound > 0 and math.isfinite(bound) else 0.0
    passed = (not hypothesis_met) or measured <= bound + allowance
    return CheckRow(
        check_name=name,
        instance_id=instance,
        measured=float(measured),
        bound=float(bound),
        ratio=float(ratio),
        hypothesis_met=bool(hypothesis_met),
        passed=bool(passed),
    )


def amgm_stability(a: float, b: float, lam: float, tau: float) -> CheckRow:
    """Weighted AM-GM gap against its square-root-difference minorant.

    For positive a, b and lam in [tau, 1 - tau] with tau in (0, 1/2]:

        (1-lam)*a + lam*b - a**(1-lam) * b**lam >= tau * (sqrt(a) - sqrt(b))**2.

    At lam = tau = 1/2 the two sides agree exactly.  The row ``"amgm"``
    measures ``tau * (sqrt(a) - sqrt(b))**2`` against the gap as its bound,
    with an allowance of ``1e-12 * max(a, b)``.

    Raises:
        DomainError: If a or b is not strictly positive, tau is outside
            (0, 1/2], or lam is outside [tau, 1 - tau].
    """
    lam = _check_lambda(lam)
    if not (np.isfinite(a) and a > 0 and np.isfinite(b) and b > 0):
        raise DomainError(f"a and b must be positive and finite, got {a}, {b}")
    if not (np.isfinite(tau) and 0.0 < tau <= 0.5):
        raise DomainError(f"tau must lie in (0, 1/2], got {tau}")
    if not (tau <= lam <= 1.0 - tau):
        raise DomainError(f"lam must lie in [tau, 1 - tau], got lam={lam}, tau={tau}")
    gap = (1.0 - lam) * a + lam * b - a ** (1.0 - lam) * b**lam
    minorant = tau * (math.sqrt(a) - math.sqrt(b)) ** 2
    return _row("amgm", "", minorant, gap, 1e-12 * max(a, b))


def check_sup_ratio(triple: PLTriple, instance_id: str = "") -> CheckRow:
    """Sup-norm ratio control for a near-equality pair.

    If the deficit satisfies ``epsilon < tau**3 / 64`` then

        | (sup f / sup g) * (int g / int f) - 1 | <= 4 * tau**(-3/2) * sqrt(epsilon).

    The comparison is vacuous (hypothesis_met=False) otherwise; a quadrature
    allowance of a few cells covers the grid error in the measured ratio.
    """
    rep = deficit(triple)
    eps = max(rep.epsilon, 0.0)
    tau = triple.tau
    sup_f, sup_g = triple.f.sup_norm(), triple.g.sup_norm()
    ratio = (sup_f / sup_g) * (rep.int_g / rep.int_f)
    measured = abs(ratio - 1.0)
    bound = 4.0 * tau ** (-1.5) * math.sqrt(eps)
    hypothesis = eps < tau**3 / 64.0
    allowance = 3.0 * max(triple.f.step, triple.g.step) * (
        sup_f / rep.int_f + sup_g / rep.int_g
    )
    return _row("sup_ratio", instance_id, measured, bound, allowance, hypothesis)
