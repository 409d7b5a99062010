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
* Minkowski sums of interval unions and a sumset near-equality check,
* a weighted AM-GM stability helper.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

import numpy as np

from .gridfn import DomainError, GridFunction, IntervalUnion

__all__ = [
    "PLTriple",
    "ConditionReport",
    "DeficitReport",
    "sup_convolution",
    "deficit",
    "quadrature_tol",
    "minkowski_sum",
    "freiman_check",
    "FreimanReport",
    "amgm_stability",
    "AmGmReport",
]

# Exhaustive pair enumeration is used below this many (positive-row) pairs;
# larger instances fall back to seeded random sampling in condition checks.
_EXHAUSTIVE_PAIR_LIMIT = 8_000_000

# Snap settles rounding ties exactly when lam = p/q with q at most this.
_MAX_LATTICE_DENOMINATOR = 64


def _check_lambda(lam: float) -> float:
    if not (np.isfinite(lam) and 0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie strictly inside (0, 1), got {lam}")
    return float(lam)


def quadrature_tol(f: GridFunction, g: GridFunction) -> float:
    """Default mass tolerance for grid artifacts: 3*step*(sup f + sup g)."""
    return 3.0 * max(f.step, g.step) * (f.sup_norm() + g.sup_norm())


@dataclass(frozen=True)
class ConditionReport:
    """Result of sampling the pointwise inequality (*) over cell pairs.

    Attributes:
        satisfied: True when no sampled pair violates (*) beyond tolerance.
        checked: Number of sampled pairs with positive right-hand side.
        violations: Number of violating pairs.
        max_violation: Largest relative shortfall ``rhs/lhs - 1`` observed
            (0.0 when none).
        worst_pair: Cell centers ``(x, y)`` of the worst violation, or None.
        exhaustive: True when every pair of positive cells was checked.
    """

    satisfied: bool
    checked: int
    violations: int
    max_violation: float
    worst_pair: tuple[float, float] | None
    exhaustive: bool


@dataclass(frozen=True)
class PLTriple:
    """A candidate triple for the interpolated inequality.

    Attributes:
        f, g, h: Nonnegative grid functions.
        lam: Interpolation weight in (0, 1) (weight of g).
    """

    f: GridFunction
    g: GridFunction
    h: GridFunction
    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)

    @property
    def tau(self) -> float:
        """Symmetric interpolation margin min(lam, 1-lam)."""
        return float(min(self.lam, 1.0 - self.lam))

    def condition_satisfied(
        self,
        rel_tol: float = 1e-12,
        max_pairs: int = _EXHAUSTIVE_PAIR_LIMIT,
        seed: int = 0,
    ) -> ConditionReport:
        """Check condition (*) on sampled cell pairs with one cell of slack.

        For each pair of cells (i, j) with ``f_i > 0`` and ``g_j > 0`` the
        combination ``z = (1-lam)*x_i + lam*y_j`` of the cell centers is
        located in h's grid, and the pair passes when

            max(h over the target cell and its two neighbors)
                >= (f_i**(1-lam) * g_j**lam) * (1 - rel_tol).

        The one-cell slack on the target absorbs the snapping of z to h's
        grid: for a locally monotone h one of the three candidate cells
        always sits uphill of z, so snapping alone can never produce a
        false violation.

        Pairs are enumerated exhaustively when there are at most
        ``max_pairs`` of them, otherwise a seeded random sample of
        ``max_pairs`` pairs is drawn.
        """
        lam = self.lam
        f, g, h = self.f, self.g, self.h
        flo, fhi = f.support_indices()
        glo, ghi = g.support_indices()
        if flo == fhi or glo == ghi:
            return ConditionReport(True, 0, 0, 0.0, None, True)
        fi = np.arange(flo, fhi)
        gj = np.arange(glo, ghi)
        fi = fi[f.values[fi] > 0]
        gj = gj[g.values[gj] > 0]
        n_pairs = fi.size * gj.size
        exhaustive = n_pairs <= max_pairs
        # h with one-cell slack: running max of each cell and its neighbors.
        hv = h.values
        hmax = hv.copy()
        hmax[:-1] = np.maximum(hmax[:-1], hv[1:])
        hmax[1:] = np.maximum(hmax[1:], hv[:-1])
        fx = f.origin + f.step * (fi + 0.5)
        fpow = f.values[fi] ** (1.0 - lam)
        gy = g.origin + g.step * (gj + 0.5)
        gpow = g.values[gj] ** lam

        checked = 0
        violations = 0
        max_violation = 0.0
        worst: tuple[float, float] | None = None

        def scan(rows: np.ndarray, cols_of) -> None:
            nonlocal checked, violations, max_violation, worst
            for a in rows:
                cols = cols_of(a)
                z = (1.0 - lam) * fx[a] + lam * gy[cols]
                k = np.floor((z - h.origin) / h.step).astype(np.int64)
                k = np.clip(k, 0, h.size - 1)
                lhs = hmax[k]
                rhs = fpow[a] * gpow[cols]
                checked += cols.size
                bad = lhs < rhs * (1.0 - rel_tol)
                nbad = int(bad.sum())
                if nbad:
                    violations += nbad
                    shortfall = rhs[bad] / np.maximum(lhs[bad], 1e-300) - 1.0
                    w = int(np.argmax(shortfall))
                    if shortfall[w] > max_violation:
                        max_violation = float(shortfall[w])
                        worst = (float(fx[a]), float(gy[cols[bad][w]]))

        if exhaustive:
            scan(np.arange(fi.size), lambda a: np.arange(gj.size))
        else:
            rng = np.random.default_rng(seed)
            per_row = max(1, max_pairs // max(fi.size, 1))
            scan(
                np.arange(fi.size),
                lambda a: rng.integers(0, gj.size, size=per_row),
            )
        return ConditionReport(
            satisfied=violations == 0,
            checked=checked,
            violations=violations,
            max_violation=max_violation,
            worst_pair=worst,
            exhaustive=exhaustive,
        )


# -- sup-convolution -------------------------------------------------------


def _rational(lam: float) -> tuple[int, int] | None:
    """``(p, q)`` with ``p / q == lam`` exactly, else None.

    ``q`` is at most ``_MAX_LATTICE_DENOMINATOR``.
    """
    r = Fraction(lam).limit_denominator(_MAX_LATTICE_DENOMINATOR)
    p, q = r.numerator, r.denominator
    return (p, q) if p / q == lam else None


def _lattice(fw: np.ndarray, gw: np.ndarray, p: int, q: int) -> np.ndarray:
    """Max of ``fw[i] * gw[j]`` over the pairs landing on each lattice index.

    Pair (i, j) lands on ``m = (q - p)*i + p*j``, the exact position of
    ``(1 - p/q)*i + (p/q)*j`` on a grid of step 1/q.  Row i of pairs is the
    stride-p slice of the lattice starting at ``(q - p)*i``.
    """
    ng = gw.size
    out = np.zeros((q - p) * (fw.size - 1) + p * (ng - 1) + 1)
    span = p * (ng - 1) + 1
    buf = np.empty(ng)
    rows = np.flatnonzero(fw > 0)
    for start, w in zip(((q - p) * rows).tolist(), fw[rows].tolist()):
        row = out[start : start + span : p]
        np.multiply(gw, w, out=buf)
        np.maximum(row, buf, out=row)
    return out


def _snap_mode(f: GridFunction, g: GridFunction, lam: float) -> GridFunction:
    """Pair enumeration with rounding of targets to cells of the input step."""
    step = f.step
    origin = (1.0 - lam) * f.origin + lam * g.origin
    fw = f.values ** (1.0 - lam)
    gw = g.values**lam
    pq = _rational(lam)
    if pq is not None:
        # Cell k collects lattice indices m with (2m + q) // (2q) == k, i.e.
        # the q consecutive indices starting at k*q - q//2.
        p, q = pq
        lat = _lattice(fw, gw, p, q)
        pad = q // 2
        size = (lat.size - 1 + pad) // q + 1
        cells = np.zeros(size * q)
        cells[pad : pad + lat.size] = lat
        return GridFunction(origin, step, cells.reshape(size, q).max(axis=1))
    nf, ng = f.size, g.size
    # Size must cover the snapped index of the extreme pair (i, j) =
    # (nf - 1, ng - 1), using the same floor(u + 0.5) rule as the hot loop.
    size = int(np.floor((1.0 - lam) * (nf - 1) + lam * (ng - 1) + 0.5)) + 1
    out = np.zeros(size)
    jj = np.arange(ng, dtype=float)
    for i in np.flatnonzero(fw > 0):
        u = (1.0 - lam) * i + lam * jj
        k = np.floor(u + 0.5).astype(np.int64)
        vals = fw[i] * gw
        # k is nondecreasing in j: segmented max via reduceat.
        cut = np.flatnonzero(np.diff(k)) + 1
        starts = np.concatenate([[0], cut])
        segmax = np.maximum.reduceat(vals, starts)
        ks = k[starts]
        np.maximum.at(out, ks, segmax)
    return GridFunction(origin, step, out)


def _halfgrid_mode(f: GridFunction, g: GridFunction) -> GridFunction:
    """Exact midpoint lattice for lam = 1/2 on equal-step grids.

    Every pair of cell centers (x_i, y_j) has midpoint exactly on a grid of
    step/2, indexed by m = i + j, so no rounding occurs and the output
    undershoots the true sup-convolution by at most O(step**2) for smooth
    inputs (pure sampling error, no snap bias).
    """
    out = _lattice(f.values**0.5, g.values**0.5, 1, 2)
    origin = 0.5 * (f.origin + g.origin) + 0.25 * f.step
    return GridFunction(origin, 0.5 * f.step, out)


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

    Snap tie rule: a target halfway between two cell centers goes to the
    upper one (round half up).  When ``lam == p/q`` exactly with ``q <= 64``
    the rule is applied to the integer lattice index
    ``m = (q-p)*i + p*j`` of the pair, so ties are settled exactly;
    otherwise it is ``floor(u + 0.5)`` on the float offset
    ``u = (1-lam)*i + lam*j``.

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
    if not np.isclose(f.step, g.step, rtol=1e-12, atol=0.0):
        raise DomainError(
            f"sup_convolution requires equal steps, got {f.step} and {g.step}"
        )
    if f.is_zero() or g.is_zero():
        warnings.warn("sup_convolution of a zero function is zero", stacklevel=2)
        origin = (1.0 - lam) * f.origin + lam * g.origin
        return GridFunction(origin, f.step, np.zeros(1))
    if mode == "halfgrid":
        return _halfgrid_mode(f, g)
    return _snap_mode(f, g, lam)


def canonical_triple(
    f: GridFunction,
    g: GridFunction,
    lam: float,
    mode: Literal["snap", "halfgrid", "auto"] = "snap",
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
        return {
            "int_f": self.int_f,
            "int_g": self.int_g,
            "int_h": self.int_h,
            "geo_mean": self.geo_mean,
            "epsilon": self.epsilon,
            "a": self.a,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def deficit(triple: PLTriple) -> DeficitReport:
    """Normalized deficit of the triple via exact cell sums.

    Raises:
        DomainError: If ``int f`` or ``int g`` is zero or any integral is
            not finite.
    """
    int_f = triple.f.integral()
    int_g = triple.g.integral()
    int_h = triple.h.integral()
    for name, val in (("f", int_f), ("g", int_g)):
        if not np.isfinite(val) or val <= 0.0:
            raise DomainError(f"integral of {name} must be positive, got {val}")
    if not np.isfinite(int_h):
        raise DomainError(f"integral of h must be finite, got {int_h}")
    lam = triple.lam
    geo = int_f ** (1.0 - lam) * int_g**lam
    return DeficitReport(
        int_f=int_f,
        int_g=int_g,
        int_h=int_h,
        geo_mean=geo,
        epsilon=int_h / geo - 1.0,
        a=int_g / int_f,
    )


# -- interval-union arithmetic ----------------------------------------------


def minkowski_sum(
    A: IntervalUnion, B: IntervalUnion, alpha: float = 1.0, beta: float = 1.0
) -> IntervalUnion:
    """Scaled Minkowski sum ``alpha*A + beta*B`` of interval unions.

    Scaling factors must be nonnegative.  If either union is empty the
    result is empty.
    """
    for name, c in (("alpha", alpha), ("beta", beta)):
        if not (np.isfinite(c) and c >= 0):
            raise DomainError(f"{name} must be nonnegative and finite, got {c}")
    if A.is_empty or B.is_empty:
        return IntervalUnion(())
    pieces = []
    for a1, a2 in A.intervals:
        for b1, b2 in B.intervals:
            lo = alpha * a1 + beta * b1
            hi = alpha * a2 + beta * b2
            if hi > lo:
                pieces.append((lo, hi))
    return IntervalUnion.of(pieces)


@dataclass(frozen=True)
class FreimanReport:
    """Near-equality structure check for sumsets of interval unions.

    When ``|A + B| < |A| + |B| + eps`` with ``eps < min(|A|, |B|)``, both
    summands must be within ``eps`` of their convex hulls.

    Attributes:
        eps: Measured sumset excess ``|A + B| - |A| - |B|``.
        hull_deficit_A: ``|hull(A)| - |A|``.
        hull_deficit_B: ``|hull(B)| - |B|``.
        hypothesis_met: True when ``eps < min(|A|, |B|)`` strictly.
        conclusion_holds: True when the hypothesis fails (vacuous) or both
            hull deficits are at most ``eps``.
    """

    eps: float
    hull_deficit_A: float
    hull_deficit_B: float
    hypothesis_met: bool
    conclusion_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "hull_deficit_A": self.hull_deficit_A,
            "hull_deficit_B": self.hull_deficit_B,
            "hypothesis_met": self.hypothesis_met,
            "conclusion_holds": self.conclusion_holds,
        }


def freiman_check(A: IntervalUnion, B: IntervalUnion) -> FreimanReport:
    """Measure the sumset excess of ``A + B`` and test hull closeness.

    Raises:
        DomainError: If either union is empty.
    """
    if A.is_empty or B.is_empty:
        raise DomainError("freiman_check requires non-empty interval unions")
    mA, mB = A.measure(), B.measure()
    S = minkowski_sum(A, B)
    eps = S.measure() - mA - mB
    hdA = A.hull_deficit()
    hdB = B.hull_deficit()
    # Grid-free computation is exact here, so compare with a whisker of
    # floating-point slack only.  The hypothesis must hold strictly: at the
    # boundary eps == min(|A|, |B|) (where rounding could land an ulp on
    # either side) strictness cannot be certified, so it is reported unmet.
    tiny = 1e-12 * max(1.0, mA + mB)
    hypothesis = eps < min(mA, mB) - tiny
    holds = (not hypothesis) or (hdA <= eps + tiny and hdB <= eps + tiny)
    return FreimanReport(
        eps=eps,
        hull_deficit_A=hdA,
        hull_deficit_B=hdB,
        hypothesis_met=hypothesis,
        conclusion_holds=holds,
    )


# -- scalar AM-GM stability ---------------------------------------------------


@dataclass(frozen=True)
class AmGmReport:
    """Weighted AM-GM gap and its square-root-difference lower bound.

    For positive a, b and lam in [tau, 1 - tau] with tau in (0, 1/2]:

        (1-lam)*a + lam*b - a**(1-lam) * b**lam >= tau * (sqrt(a) - sqrt(b))**2.

    At lam = tau = 1/2 the two sides agree exactly.

    Attributes:
        lhs: The AM-GM gap.
        rhs: The lower bound ``tau * (sqrt(a) - sqrt(b))**2``.
        holds: True when ``lhs >= rhs - 1e-12 * max(a, b)``.
    """

    lhs: float
    rhs: float
    holds: bool


def amgm_stability(a: float, b: float, lam: float, tau: float) -> AmGmReport:
    """Evaluate the weighted AM-GM gap and its square-root-difference minorant.

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
    lhs = (1.0 - lam) * a + lam * b - a ** (1.0 - lam) * b**lam
    rhs = tau * (math.sqrt(a) - math.sqrt(b)) ** 2
    holds = lhs >= rhs - 1e-12 * max(a, b)
    return AmGmReport(lhs=lhs, rhs=rhs, holds=holds)
