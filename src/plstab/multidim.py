"""Triples in d >= 2 dimensions and their reduction to one dimension.

A d-dimensional triple is a ``PLTriple`` of ``GridFunctionND`` functions,
and its deficit is ``plcore.deficit``; ``Triple2D`` and ``GridFunction2D``
are the only other names of these classes.  ``gridfn.read_function`` and
``gridfn.write_function`` are the JSON reader and writer of every
dimension: the reader returns a ``GridFunctionND`` when the file's
``origin`` is a list of d >= 2 numbers.  A triple satisfying the
interpolated condition induces, through the distribution functions
``F(t) = volume{f > t}``, a *multiplicative* triple on the level axis:

    H(r**(1-lam) * s**lam) >= (1-lam) F(r) + lam G(s)   is too strong;
    the correct induced relations are

    H(r**(1-lam) * s**lam) >= F(r)**(1-lam) * G(s)**lam            (mult)
    H(r**(1-lam) * s**lam) >= ((1-lam) F(r)**(1/d) + lam G(s)**(1/d))**d

the second via the Brunn-Minkowski inequality in dimension d.  The change
of variables ``x = log t`` with densities ``f(x) = F(e**x) * e**x`` turns
(mult) into the usual additive condition for a 1D triple whose integrals
equal the original d-dimensional integrals (Fubini through the layer-cake
formula), so the 1D deficit machinery applies verbatim to the reduced
triple.

The d-dimensional sup-convolution is the 1D snap mode applied per axis,
through the same code (``plcore._sup_convolution``), and the pointwise
condition is checked by the 1D check's kernel (``plcore._condition_check``),
so every dimension shares one tie rule (``plcore._nearest``), one
output-size rule and one slack rule.  The work grows with the number of
cell pairs, which is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gridfn import DomainError, GridFunction, _frozen_values
from .plcore import (
    DeficitReport,
    PLTriple,
    _check_lambda,
    _check_reach,
    _condition_check,
    _positive_cells,
    _sup_convolution,
    deficit,
)
from .profiles import _superlevel_counts, level_grid

# The 2D aliases are left out: each is the same object as a name above or
# in ``plcore``, so tools that walk ``__all__`` would meet it twice.
__all__ = [
    "GridFunctionND",
    "DistributionProfile",
    "distribution",
    "multiplicative_to_additive",
    "sup_convolution_2d",
    "reduced_deficit",
    "ReducedDeficitReport",
]

# Size guard for the sup-convolution, whose work grows with the pairs.
_MAX_PAIRS = 40_000_000

# ``reduced_deficit``'s level grid and its sampled checks: the size of the
# geometric level grid, the pairs each sampled check draws, and the seed of
# the pointwise draw (the level draw uses the next seed).
_LEVEL_COUNT = 512
_N_SAMPLES = 4000
_SEED = 0


@dataclass(frozen=True)
class GridFunctionND:
    """Nonnegative piecewise-constant function on a uniform grid in d >= 2 dimensions.

    Cell ``k`` is the box ``[origin[a] + k[a]*step[a], origin[a] +
    (k[a]+1)*step[a])`` on each axis ``a`` with value ``values[k]``;
    ``origin`` and ``step`` have one entry per axis, d = ``values.ndim``.
    """

    origin: tuple[float, ...]
    step: tuple[float, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim < 2:
            raise DomainError(f"values need at least two dimensions, got shape {arr.shape}")
        origin = tuple(float(o) for o in self.origin)
        step = tuple(float(d) for d in self.step)
        if len(origin) != arr.ndim or len(step) != arr.ndim:
            raise DomainError(
                f"origin and step need {arr.ndim} entries, got {origin} and {step}"
            )
        if not np.all(np.isfinite(origin)):
            raise DomainError("origin must be finite")
        if not all(np.isfinite(d) and d > 0 for d in step):
            raise DomainError(f"steps must be positive, got {step}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "values", _frozen_values(arr))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def cell_area(self) -> float:
        """Volume of one cell."""
        return float(math.prod(self.step))

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_area)

    def sup_norm(self) -> float:
        return float(self.values.max())

    def to_json_dict(self) -> dict:
        return {
            "origin": list(self.origin),
            "step": list(self.step),
            "values": self.values.tolist(),
        }


GridFunction2D = GridFunctionND
Triple2D = PLTriple


@dataclass(frozen=True)
class DistributionProfile:
    """Superlevel areas ``F(t)`` of a 2D function over increasing levels.

    ``measures`` is nonincreasing, right-continuous in the sampled sense,
    and vanishes at levels >= the sup norm.
    """

    levels: np.ndarray
    measures: np.ndarray

    def __post_init__(self) -> None:
        if self.levels.size != self.measures.size:
            raise DomainError("levels and measures must have equal length")
        if self.levels.size >= 2 and not np.all(np.diff(self.levels) > 0):
            raise DomainError("levels must be strictly increasing")
        if np.any(self.measures < 0):
            raise DomainError("measures must be nonnegative")
        if np.any(np.diff(self.measures) > 1e-12 * max(1.0, self.measures[0])):
            raise DomainError("measures must be nonincreasing")

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        """Step-function evaluation: ``F(t) = measures[k]`` for the last
        sampled level <= t; ``measures[0]`` below the first level and
        ``measures[-1]`` from the last level on.  So F is 0 above the last
        level whenever that level is at or above the sup norm, as
        ``reduced_deficit`` builds it."""
        ts = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.levels, ts, side="right") - 1
        out = np.empty(ts.shape, dtype=float)
        below = idx < 0
        out[below] = self.measures[0]
        inside = ~below
        out[inside] = self.measures[np.clip(idx[inside], 0, self.levels.size - 1)]
        if np.isscalar(t):
            return float(out)
        return out


def distribution(f: GridFunctionND, levels: np.ndarray) -> DistributionProfile:
    """Exact superlevel volumes of a function at the given levels."""
    levels = np.asarray(levels, dtype=float)
    counts = _superlevel_counts(f.values, levels)
    return DistributionProfile(levels, counts * f.cell_area)


def multiplicative_to_additive(profile: DistributionProfile) -> GridFunction:
    """Change of variables turning a distribution profile into a density.

    Returns the grid function ``x -> F(e**x) * e**x`` on 4096 cells of the
    window ``[log t_min - 12, log t_max]``.  The left pad of 12 captures
    the mass of the constant tail ``F(t_min) * t_min`` (relative error
    e**-12), so

        integral of the result = integral of F over (0, infinity)

    up to the pad truncation and level discretization.  Sampling uses the
    step-function extension of the profile (right-continuous, constant
    below the first level and from the last level on), so the window
    holds all the mass only when the last level is at or above the sup
    norm, where F is 0, as ``reduced_deficit`` builds it.
    """
    lv = profile.levels
    if lv.size < 2:
        raise DomainError("need at least two levels")
    if lv[0] <= 0:
        raise DomainError("levels must be positive")
    x_lo = math.log(lv[0]) - 12.0
    x_hi = math.log(lv[-1])
    step = (x_hi - x_lo) / 4096.0
    n = int(np.ceil((x_hi - x_lo) / step - 1e-9))
    centers = x_lo + step * (np.arange(n) + 0.5)
    t = np.exp(centers)
    vals = profile(t) * t
    return GridFunction(x_lo, step, vals)


def sup_convolution_2d(
    f: GridFunctionND, g: GridFunctionND, lam: float
) -> GridFunctionND:
    """Snap sup-convolution of two grid functions of the same dimension d >= 2.

    Computes ``h(z) = sup f(x)**(1-lam) * g(y)**lam`` over pairs of cell
    centers with ``(1-lam)x + lam*y`` in the cell of z, on a grid with the
    input steps.  This is snap ``sup_convolution`` applied per axis,
    through the same code: its checks, origin, zero-input result, tie rule
    (``plcore._nearest``) and output size.  Its error is an upward bias of
    order ``step`` per axis (about ``step/2`` times the local slope of h).

    Guarded to at most 4e7 positive pairs.

    Raises:
        DomainError: On a dimension or step mismatch or when the instance
            exceeds the guard.
    """
    lam = _check_lambda(lam)
    nf = int(np.count_nonzero(f.values))
    ng = int(np.count_nonzero(g.values))
    if nf * ng > _MAX_PAIRS:
        raise DomainError(
            f"too many positive-cell pairs ({nf} * {ng}); the guard is {_MAX_PAIRS}"
        )
    return _sup_convolution(f, g, lam, "snap", "sup_convolution_2d")


@dataclass(frozen=True)
class ReducedDeficitReport:
    """Outcome of the reduction of a d-dimensional triple to one dimension.

    The three violation counts are sampled, not exhaustive: the pointwise
    count over 4 000 pairs of positive cells drawn with seed 0, and the
    two level counts over 4 000 level pairs drawn with seed 1.  So a count
    of 0 certifies only its sample.  (``PLTriple.condition_satisfied`` checks
    every pair, in any dimension.)

    Attributes:
        deficit_2d: Deficit report of the original d-dimensional triple.
        deficit_reduced: Deficit report of the reduced additive 1D triple.
        condition_2d_violations: Violations of the pointwise condition in
            dimension d among the sampled pairs of positive cells (count).
        multiplicative_violations: Violations of the induced
            multiplicative level condition among the sampled level pairs
            (count).
        brunn_minkowski_violations: Violations of the stronger
            Brunn-Minkowski form (exponent 1/d) among the same level pairs
            (count).
        mass_error: Max relative gap between the d-dimensional integrals
            and the reduced 1D integrals (discretization of the layer-cake
            formula).
    """

    deficit_2d: DeficitReport
    deficit_reduced: DeficitReport
    condition_2d_violations: int
    multiplicative_violations: int
    brunn_minkowski_violations: int
    mass_error: float

    @property
    def epsilon(self) -> float:
        return self.deficit_reduced.epsilon

    def to_json_dict(self) -> dict:
        return {
            "deficit_2d": self.deficit_2d.to_json_dict(),
            "deficit_reduced": self.deficit_reduced.to_json_dict(),
            "condition_2d_violations": self.condition_2d_violations,
            "multiplicative_violations": self.multiplicative_violations,
            "brunn_minkowski_violations": self.brunn_minkowski_violations,
            "mass_error": self.mass_error,
        }


def _sample_condition_2d(triple: PLTriple) -> int:
    """Count violations of the pointwise condition on sampled positive pairs.

    Draws ``min(_N_SAMPLES, number of pairs)`` seeded pairs of positive
    cells, with replacement, and checks them with the kernel of
    ``PLTriple.condition_satisfied``: one cell of slack per axis, the 3**d
    cells around each target.  Raises ``DomainError`` where that check
    does (``plcore._check_reach``).
    """
    lam = triple.lam
    rng = np.random.default_rng(_SEED)
    fx, fpow = _positive_cells(triple.f, 1 - lam)
    gy, gpow = _positive_cells(triple.g, lam)
    if fpow.size == 0 or gpow.size == 0:
        return 0
    _check_reach(triple)
    na = min(_N_SAMPLES, fpow.size * gpow.size)
    ia = rng.integers(0, fpow.size, size=na)
    ib = rng.integers(0, gpow.size, size=na)
    z = [(1 - lam) * x[ia] + lam * y[ib] for x, y in zip(fx, gy)]
    [(violations, _, _)] = _condition_check(triple.h, [(z, fpow[ia] * gpow[ib])])
    return violations


def reduced_deficit(triple: PLTriple) -> ReducedDeficitReport:
    """Reduce a d-dimensional triple to an additive 1D triple and report both deficits.

    Builds the distribution profiles F, G, H on a shared geometric grid of
    512 levels, verifies by seeded sampling (4 000 pairs each, the
    pointwise pairs drawn with seed 0 and the level pairs with seed 1) the
    pointwise condition, the induced multiplicative condition on levels,
    and the Brunn-Minkowski strengthening in dimension d, then applies the
    log change of variables and the 1D deficit.  Violation counts are
    reported, not fatal: they quantify the discretization of each
    implication.

    Raises:
        DomainError: If f or g is identically zero, or if a target of the
            pointwise condition can lie more than 2**52 cells of h from
            h's origin.
    """
    d2 = deficit(triple)
    sups = [triple.f.sup_norm(), triple.g.sup_norm(), triple.h.sup_norm()]
    top = max(sups)
    if top <= 0:
        raise DomainError("reduction requires a nonzero triple")
    floor = 1e-6 * min(s for s in sups[:2] if s > 0)
    levels = level_grid(floor, top * (1 + 1e-12), _LEVEL_COUNT)
    F = distribution(triple.f, levels)
    G = distribution(triple.g, levels)
    H = distribution(triple.h, levels)

    lam = triple.lam
    rng = np.random.default_rng(_SEED + 1)
    r = np.exp(rng.uniform(math.log(floor), math.log(top), size=_N_SAMPLES))
    s = np.exp(rng.uniform(math.log(floor), math.log(top), size=_N_SAMPLES))
    t = r ** (1 - lam) * s**lam
    Fr, Gs, Ht = F(r), G(s), H(t)
    # One level-grid cell of slack: compare against H one sampled level
    # lower (H is a nonincreasing step function of the level).
    ratio = levels[1] / levels[0]
    Ht_slack = H(t / ratio)
    mult_rhs = Fr ** (1 - lam) * Gs**lam
    mult_viol = int(np.sum(Ht_slack < mult_rhs * (1 - 1e-9)))
    d = triple.f.values.ndim
    bm_rhs = ((1 - lam) * Fr ** (1 / d) + lam * Gs ** (1 / d)) ** d
    bm_viol = int(np.sum(Ht_slack < bm_rhs * (1 - 1e-9)))
    cond_viol = _sample_condition_2d(triple)

    f1 = multiplicative_to_additive(F)
    g1 = multiplicative_to_additive(G)
    h1 = multiplicative_to_additive(H)
    # The three reduced functions share origin and step by construction.
    t1 = PLTriple(f1, g1, h1, lam)
    d1 = deficit(t1)
    mass_err = max(
        abs(d1.int_f - d2.int_f) / d2.int_f,
        abs(d1.int_g - d2.int_g) / d2.int_g,
        abs(d1.int_h - d2.int_h) / max(d2.int_h, 1e-300),
    )
    return ReducedDeficitReport(
        deficit_2d=d2,
        deficit_reduced=d1,
        condition_2d_violations=cond_viol,
        multiplicative_violations=mult_viol,
        brunn_minkowski_violations=bm_viol,
        mass_error=mass_err,
    )
