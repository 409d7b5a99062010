"""Reconstruction of log-concave approximants and the stability pipeline.

Given a triple (f, g, h) with small deficit epsilon, the quantitative
stability theory produces a log-concave witness: a function h~ close to h
such that suitable shifts/dilations of h~ are simultaneously close to f
and g in L1, with the distance controlled by a power of epsilon.  This
module implements the constructive side:

* ``TheoremConstants``: the explicit constants of the stability bound,
  evaluated in log scale so nothing overflows,
* ``is_log_concave`` / ``log_concave_hull``: discrete log-concavity test
  and projection,
* ``from_envelopes``: rebuild a log-concave function from convex/concave
  boundary envelopes on the log-level axis by continuous inversion,
* ``align``: recover the best translation pairing a function with a
  scaled witness,
* ``stability_decompose``: the end-to-end pipeline from a triple to a
  report with normalized L1 errors and the theoretical bound.

Every whole-cell shift scan (``align``, which the CLI's example 1 calls,
and stage 6) is one ``_coarse_to_fine`` pass over the L1 kernel
``gridfn._l1_shifts``, of which commensurate ``l1_distance`` is shift 0
(rounding ~ eps * mass).  ``_coarse_to_fine`` alone decides which shifts
are scanned and how coarsely, from the target and witness windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .gridfn import DomainError, GridFunction, _dumps, _l1_shifts, l1_distance
from .plcore import (
    PLTriple,
    _check_lambda,
    _nearest,
    _weights,
    deficit,
    quadrature_tol,
    sup_convolution,
)
from .profiles import (
    LevelProfile,
    build_bubble,
    default_good_threshold,
    extract_profile,
    good_levels,
    level_grid,
    regularize,
)
from .envelope import (
    EnvelopePair,
    _four_point,
    greatest_convex_minorant,
    least_concave_majorant,
    monotonize,
    three_point_check,
)

__all__ = [
    "TheoremConstants",
    "LogConcavityReport",
    "is_log_concave",
    "log_concave_hull",
    "from_envelopes",
    "align",
    "AlignResult",
    "PipelineConfig",
    "StabilityReport",
    "stability_decompose",
]

# Natural log of the smallest positive double (subnormal), about -744.44;
# a hypothesis threshold e**(-M) is representable only when M stays below
# this magnitude.
_MIN_POSITIVE_EXPONENT = -math.log(5e-324)


@dataclass(frozen=True)
class TheoremConstants:
    """Explicit constants of the stability bound for margin tau.

    For ``tau = min(lam, 1-lam)`` in (0, 1/2] and a free parameter
    ``omega0 > 0`` the bound reads: if ``epsilon < exp(-M(tau))`` then the
    normalized reconstruction error is at most
    ``epsilon**Q(tau) / tau**omega`` with

        alpha_tau = tau / (16 |ln tau|),
        Q(tau)    = tau**4 / (2**100 |ln tau|**4),
        M(tau)    = 10**40 (omega0 + 4) |ln tau|**4 / tau**4,
        omega     = 5/2 + omega0/8.

    All derived quantities are computed and stored in log10 scale, so the
    dataclass never overflows no matter how small tau is; linear
    accessors return inf where a double cannot hold the value.

    Attributes:
        tau: Interpolation margin in (0, 1/2].
        omega0: Free positive parameter of the construction (default 1).
    """

    tau: float
    omega0: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.tau) and 0.0 < self.tau <= 0.5):
            raise DomainError(f"tau must lie in (0, 1/2], got {self.tau}")
        if not (np.isfinite(self.omega0) and self.omega0 > 0):
            raise DomainError(f"omega0 must be positive, got {self.omega0}")

    @property
    def abs_log_tau(self) -> float:
        return abs(math.log(self.tau))

    @property
    def alpha_tau(self) -> float:
        """Holder exponent tau / (16 |ln tau|)."""
        return self.tau / (16.0 * self.abs_log_tau)

    @property
    def log10_Q(self) -> float:
        """log10 of the bound exponent Q(tau)."""
        return (
            4.0 * math.log10(self.tau)
            - 100.0 * math.log10(2.0)
            - 4.0 * math.log10(self.abs_log_tau)
        )

    @property
    def log10_M(self) -> float:
        """log10 of the smallness threshold exponent M(tau)."""
        return (
            40.0
            + math.log10(self.omega0 + 4.0)
            + 4.0 * math.log10(self.abs_log_tau)
            - 4.0 * math.log10(self.tau)
        )

    @property
    def omega(self) -> float:
        """Exponent of 1/tau in the bound prefactor."""
        return 2.5 + self.omega0 / 8.0

    @property
    def Q(self) -> float:
        """Linear-scale Q (may underflow to 0 for tiny tau)."""
        return 10.0**self.log10_Q

    @property
    def M(self) -> float:
        """Linear-scale M (inf when not representable)."""
        if self.log10_M > 308.0:
            return math.inf
        return 10.0**self.log10_M

    @property
    def hypothesis_representable(self) -> bool:
        """True when ``exp(-M)`` is a positive double.

        Requires ``M < |ln(min subnormal)| ~ 744.44``; already at tau=1/2
        M is about 1.8e41, so no double epsilon can ever satisfy the
        smallness hypothesis — the flag records this honestly.
        """
        return self.log10_M < math.log10(_MIN_POSITIVE_EXPONENT)

    def log10_bound(self, epsilon: float) -> float | None:
        """log10 of the stability bound ``epsilon**Q / tau**omega``.

        Returns None when ``epsilon <= 0`` (the bound degenerates).
        """
        if not (np.isfinite(epsilon) and epsilon > 0):
            return None
        return self.Q * math.log10(epsilon) - self.omega * math.log10(self.tau)

    def hypothesis_satisfied(self, epsilon: float) -> bool:
        """True when ``0 < epsilon < exp(-M)`` holds in double arithmetic."""
        if not (np.isfinite(epsilon) and epsilon > 0):
            return False
        if not self.hypothesis_representable:
            return False
        return math.log(epsilon) < -self.M

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "omega0": self.omega0,
            "alpha_tau": self.alpha_tau,
            "log10_Q": self.log10_Q,
            "log10_M": self.log10_M,
            "omega": self.omega,
            "hypothesis_representable": self.hypothesis_representable,
        }


# -- log-concavity -----------------------------------------------------------


@dataclass(frozen=True)
class LogConcavityReport:
    """Outcome of the discrete log-concavity test.

    Attributes:
        is_log_concave: True when the support is one contiguous block and
            every adjacent triple satisfies the midpoint inequality.
        support_contiguous: False when an interior zero splits the support.
        worst_ratio: Minimum of ``v_k**2 / (v_{k-1} * v_{k+1})`` over the
            interior of the support (inf when fewer than 3 support cells).
        worst_index: Cell index attaining the worst ratio, or None.
    """

    is_log_concave: bool
    support_contiguous: bool
    worst_ratio: float
    worst_index: int | None


def is_log_concave(f: GridFunction, tol: float = 1e-9) -> LogConcavityReport:
    """Test discrete log-concavity of the cell values.

    A positive sequence on a contiguous support is log-concave iff every
    adjacent triple satisfies ``v_k**2 >= v_{k-1} * v_{k+1}``; by
    induction this is equivalent to the midpoint inequality
    ``f(m)**2 >= f(x) f(y)`` for all support cells x, y whose midpoint m
    is a cell.  The test accepts ratios down to ``1 - tol``.
    """
    lo, hi = f.support_indices()
    if lo == hi:
        return LogConcavityReport(True, True, math.inf, None)
    vals = f.values[lo:hi]
    contiguous = bool(np.all(vals > 0))
    if not contiguous:
        return LogConcavityReport(False, False, 0.0, None)
    if vals.size < 3:
        return LogConcavityReport(True, True, math.inf, None)
    # Work in log scale: products of small tail values underflow to zero in
    # linear scale, which would poison the ratio with 0/0.
    lg = np.log(vals)
    log_ratio = 2.0 * lg[1:-1] - lg[:-2] - lg[2:]
    w = int(np.argmin(log_ratio))
    worst = float(np.exp(min(log_ratio[w], 700.0)))
    threshold = math.log1p(-tol) if tol < 1.0 else -math.inf
    return LogConcavityReport(
        is_log_concave=log_ratio[w] >= threshold,
        support_contiguous=True,
        worst_ratio=worst,
        worst_index=lo + 1 + w,
    )


def log_concave_hull(f: GridFunction) -> GridFunction:
    """Smallest log-concave grid function dominating ``f``.

    Takes the exponential of the least concave majorant of ``log f`` over
    the positive cells, filled across the support hull (interior zeros are
    bridged by the hull), and zero outside.  Idempotent, monotone, and
    touches f at the hull's contact cells.
    """
    lo, hi = f.support_indices()
    if lo == hi:
        return f.with_values(np.zeros(f.size))
    if hi - lo == 1:
        return f.with_values(f.values.copy())
    centers = f.centers()[lo:hi]
    vals = f.values[lo:hi]
    pos = vals > 0
    logs = np.full(vals.size, -np.inf)
    logs[pos] = np.log(vals[pos])
    hull_logs = least_concave_majorant(centers, logs, valid=pos)
    out = np.zeros(f.size)
    out[lo:hi] = np.exp(hull_logs)
    return f.with_values(out)


# -- reconstruction from envelopes -------------------------------------------


def _inverse_nondecreasing(T: np.ndarray, u: np.ndarray, x: np.ndarray, top: float) -> np.ndarray:
    """Largest T with ``u(T) <= x`` for nondecreasing piecewise-linear u.

    Returns ``top`` where x exceeds u everywhere and ``-inf`` where x is
    below u(T[0]).  Flat segments resolve to their right endpoint (the
    supremum), keeping the result concave in x.
    """
    out = np.full(x.size, -np.inf)
    above_all = x >= u[-1]
    out[above_all] = top
    lo_mask = x < u[0]
    mid = ~(above_all | lo_mask)
    if mid.any():
        xm = x[mid]
        # Rightmost crossing: position among the nondecreasing u values.
        idx = np.searchsorted(u, xm, side="right")
        idx = np.clip(idx, 1, u.size - 1)
        u0 = u[idx - 1]
        u1 = u[idx]
        t0 = T[idx - 1]
        t1 = T[idx]
        frac = np.where(u1 > u0, (xm - u0) / np.where(u1 > u0, u1 - u0, 1.0), 1.0)
        out[mid] = t0 + frac * (t1 - t0)
    return out


def from_envelopes(env: EnvelopePair, floor_level: float, step: float) -> GridFunction:
    """Rebuild the log-concave function with the given boundary envelopes.

    The hypograph of the log-density is recovered as the region between
    the monotone envelopes: the log-value at x is

        l(x) = min( sup{T : lower(T) <= x},  sup{T : upper(T) >= x} ),

    clipped to the envelope domain [T_lo, T_hi].  Both branches are
    piecewise-linear inversions evaluated continuously (no quantization to
    the level grid), and each branch is concave in x, so their pointwise
    minimum is exactly concave and ``exp(l)`` passes the discrete
    log-concavity test essentially to machine precision.  The output
    window is the support at the lowest envelope level ``T_lo``.

    Args:
        env: Monotonized envelopes (lower nondecreasing, upper
            nonincreasing, lower <= upper on the shared domain).
        floor_level: Positive truncation level.  Cells whose rebuilt
            value falls below it, or below ``exp(T_lo)``, are set to 0.
        step: Output cell width.

    Raises:
        DomainError: If the envelopes cross or are not monotone, or if
            ``floor_level`` is not positive.
    """
    T = np.asarray(env.T, dtype=float)
    a = np.asarray(env.lower, dtype=float)
    b = np.asarray(env.upper, dtype=float)
    gap = a - b
    if np.any(gap > 1e-9 * (1.0 + np.max(np.abs(b)))):
        k = int(np.argmax(gap))
        raise DomainError(
            f"lower envelope exceeds upper at T={T[k]:.6g} "
            f"({a[k]:.6g} > {b[k]:.6g})"
        )
    if np.any(np.diff(a) < -1e-12 * (1.0 + np.max(np.abs(a)))):
        raise DomainError("lower envelope must be nondecreasing (monotonize first)")
    if np.any(np.diff(b) > 1e-12 * (1.0 + np.max(np.abs(b)))):
        raise DomainError("upper envelope must be nonincreasing (monotonize first)")
    a = np.minimum(a, b)
    T_lo, T_hi = float(T[0]), float(T[-1])
    if floor_level <= 0:
        raise DomainError(f"floor_level must be positive, got {floor_level}")
    T_floor = math.log(floor_level)
    lo = float(a[0])
    hi = float(b[0])
    n = max(1, int(np.ceil((hi - lo) / step - 1e-9)))
    centers = lo + step * (np.arange(n) + 0.5)
    # Left branch: last T where the left boundary is still <= x.
    la = _inverse_nondecreasing(T, a, centers, T_hi)
    # Right branch by reflection: b nonincreasing makes -b nondecreasing,
    # and sup{T : b(T) >= x} = sup{T : -b(T) <= -x}.
    lb = _inverse_nondecreasing(T, np.maximum.accumulate(-b), -centers, T_hi)
    level = np.minimum(la, lb)
    vals = np.zeros(n)
    alive = level >= max(T_floor, T_lo) - 1e-15
    vals[alive] = np.exp(np.minimum(level[alive], T_hi))
    return GridFunction(lo, step, vals)


# -- alignment ---------------------------------------------------------------


def _coarse_to_fine(
    objective, targets: list[GridFunction], witness: GridFunction
) -> tuple[int, float]:
    """First minimiser over whole-cell shifts of ``objective``, and its value.

    The one shift scan of the package.  ``objective`` maps an int array
    of shifts s, in cells of ``witness``, to their values.  The window is
    every s that brings the witness window onto the hull of the
    ``targets``' windows, with one cell to spare.  A coarse pass over
    every ``stride``-th shift, ``stride = max(1, window size // 512)``, is
    followed by every shift within ``stride`` of the coarse best, which
    bounds the error of the two-stage search by the coarse-scan
    granularity.
    """
    step = witness.step
    t_lo = min(t.window[0] for t in targets)
    t_hi = max(t.window[1] for t in targets)
    h_lo, h_hi = witness.window
    lo = int(np.floor((t_lo - h_hi) / step)) - 1
    hi = int(np.ceil((t_hi - h_lo) / step)) + 1
    stride = max(1, (hi - lo + 1) // 512)
    coarse = np.arange(lo, hi + 1, stride)
    best = int(coarse[np.argmin(objective(coarse))])
    fine = np.arange(best - stride, best + stride + 1)
    vals = objective(fine)
    k = int(np.argmin(vals))
    return int(fine[k]), float(vals[k])


@dataclass(frozen=True)
class AlignResult:
    """Best shift pairing ``a**lam * f`` with a translated witness.

    Attributes:
        w: Recovered translation parameter (the witness is shifted by
            ``lam * w``).
        err: Minimized L1 distance.
    """

    w: float
    err: float


def align(
    f: GridFunction,
    h_tilde: GridFunction,
    lam: float,
    a: float,
) -> AlignResult:
    """Minimize ``L1(a**lam * f, h_tilde(. - lam*w))`` over translations w.

    The scan runs over every whole-cell shift of the witness that brings
    its window onto the target's: a coarse pass over about 512 evenly
    strided shifts followed by an exhaustive pass inside the best coarse
    bracket (``_coarse_to_fine``).  Every shift is evaluated by the exact
    L1 kernel ``gridfn._l1_shifts``, whose commensurate path rounds at
    order eps times the mass.

    Raises:
        DomainError: If ``a`` is not positive or lam is outside (0, 1).
    """
    if not (np.isfinite(a) and a > 0):
        raise DomainError(f"scaling ratio a must be positive, got {a}")
    _check_lambda(lam)
    target = f.scale(a**lam)
    s_best, err = _coarse_to_fine(
        lambda s: _l1_shifts(target, h_tilde, s), [target], h_tilde
    )
    return AlignResult(w=s_best * h_tilde.step / lam, err=err)


# -- the pipeline -------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of the stability pipeline.

    The level floor is ``max(epsilon, 1e-6)`` times the smaller sup norm,
    the good-level threshold is the theory default plus a grid allowance
    of 8 steps, and the theorem constants use ``omega0 = 1``.

    Attributes:
        level_count: Size of the geometric level grid.
        supconv_mode: Mode for canonical sup-convolutions in the pipeline.
    """

    level_count: int = 512
    supconv_mode: Literal["snap", "halfgrid", "auto"] = "snap"


@dataclass(frozen=True)
class StabilityReport:
    """End-to-end result of the stability pipeline.

    All errors are L1 distances divided by ``int h``.

    Attributes:
        epsilon: Measured deficit of the input triple.
        a: Scaling ratio ``int g / int f``.
        w: Recovered translation parameter.
        err_f: Normalized distance of ``a**lam f`` to the shifted witness.
        err_g: Normalized distance of ``a**(lam-1) g`` to the witness
            shifted the conjugate way.
        err_h: Normalized distance of h to the witness.
        log10_bound: log10 of the theoretical error bound (None when
            epsilon <= 0).
        hypothesis_satisfied: Whether the smallness hypothesis
            ``epsilon < exp(-M)`` holds in double arithmetic.
        constants: The explicit constants used.
        stage_flags: Diagnostic booleans/counters from each stage.
    """

    epsilon: float
    a: float
    w: float
    err_f: float
    err_g: float
    err_h: float
    log10_bound: float | None
    hypothesis_satisfied: bool
    constants: TheoremConstants
    stage_flags: dict

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "a": self.a,
            "w": self.w,
            "err_f": self.err_f,
            "err_g": self.err_g,
            "err_h": self.err_h,
            "log10_bound": self.log10_bound,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "stage_flags": self.stage_flags,
        }

    def to_json(self) -> str:
        return _dumps(self.to_json_dict(), sort_keys=True)


def _fit_envelopes(profile: LevelProfile) -> EnvelopePair:
    """Fit monotone convex/concave envelopes to a regularized profile.

    Returns the envelope pair on the usable sub-grid of log-levels.
    """
    usable = profile.usable()
    T = profile.log_levels[usable]
    left = profile.left[usable]
    right = profile.right[usable]
    if T.size < 2:
        raise DomainError("envelope fitting needs at least two usable levels")
    lower = greatest_convex_minorant(T, left)
    upper = least_concave_majorant(T, right)
    fit_lo = float(np.max(np.abs(lower - left)))
    fit_hi = float(np.max(np.abs(upper - right)))
    lower = -monotonize(-lower, "nonincreasing")
    upper = monotonize(upper, "nonincreasing")
    upper = np.maximum(upper, lower)
    return EnvelopePair(
        T=T, lower=lower, upper=upper, fit_error_lower=fit_lo, fit_error_upper=fit_hi
    )


def stability_decompose(
    triple: PLTriple, config: PipelineConfig | None = None
) -> tuple[StabilityReport, GridFunction, GridFunction, GridFunction]:
    """Run the full reconstruction pipeline on a triple.

    Stages: deficit and normalization; level profiles with good-level
    filtering and regularization; bubble rebuild and interpolation
    diagnostics; envelope fits and monotonization; log-concave
    reconstruction of f~ and g~; canonical h~; joint alignment over one
    shared translation.

    Returns:
        ``(report, f_tilde, g_tilde, h_tilde)`` with the witnesses scaled
        back to the input normalization (``h~`` approximates h, while
        ``f~`` and ``g~`` approximate ``a**lam f`` and ``a**(lam-1) g`` up
        to the recovered shift).

    Raises:
        DomainError: If the triple is not one-dimensional, if the
            quadrature tolerance ``quadrature_tol(f, g)`` is not below the
            geometric mean of the masses (too few cells for the deficit to
            be checked), or if the deficit is negative beyond that
            tolerance or is not finite.
    """
    if triple.f.values.ndim != 1:
        raise DomainError(
            f"stability_decompose works in one dimension, got {triple.f.values.ndim}"
        )
    if config is None:
        config = PipelineConfig()
    flags: dict = {}
    lam = triple.lam
    if not np.isclose(triple.f.step, triple.g.step, rtol=1e-12, atol=0.0):
        raise DomainError("stability_decompose requires f and g on equal steps")
    rep = deficit(triple)
    qtol = quadrature_tol(triple.f, triple.g)
    if qtol >= rep.geo_mean:
        # The gate below would then admit every epsilon >= -1.
        raise DomainError(
            f"quadrature tolerance {qtol} is not below the geometric mean "
            f"of the masses {rep.geo_mean}: inputs too coarse for the deficit gate"
        )
    if not np.isfinite(rep.epsilon) or rep.epsilon < -qtol / rep.geo_mean:
        raise DomainError(
            f"deficit must be nonnegative up to quadrature tolerance, got {rep.epsilon}"
        )
    eps = max(rep.epsilon, 0.0)
    constants = TheoremConstants(tau=triple.tau)

    # Stage 1: normalize to unit masses; h is divided by the geometric mean
    # so the condition and the deficit are preserved.
    fn = triple.f.scale(1.0 / rep.int_f)
    gn = triple.g.scale(1.0 / rep.int_g)
    hn = triple.h.scale(1.0 / rep.geo_mean)
    tn = PLTriple(fn, gn, hn, lam)

    sup_f, sup_g = fn.sup_norm(), gn.sup_norm()
    ratio = max(sup_f / sup_g, sup_g / sup_f)
    ratio_bound = 4.0 * triple.tau ** (-1.5)
    ratio_hyp = eps < 2.0 ** (-6) * triple.tau**3
    flags["sup_ratio"] = ratio
    flags["sup_ratio_hypothesis_met"] = bool(ratio_hyp)
    flags["sup_ratio_ok"] = bool(ratio <= ratio_bound)

    # Stage 2: level profiles on a shared geometric grid.
    sup_ref = min(sup_f, sup_g)
    top = max(sup_f, sup_g, hn.sup_norm())
    floor = min(max(eps, 1e-6) * sup_ref, 0.5 * sup_ref)
    # Keep the top level strictly inside the sup: a level above the sup is
    # invalid, and flat-topped functions would lose the whole top rung of
    # the geometric grid (a relative mass error of ratio - 1, not O(eps)).
    levels = level_grid(floor, top * (1.0 - 1e-12), config.level_count)
    step = max(fn.step, gn.step)
    threshold = default_good_threshold(triple.tau, eps, hn.integral()) + 8.0 * step
    good = good_levels(tn, levels, threshold=threshold)
    flags["bad_level_measure"] = good.bad_level_measure
    flags["good_level_count"] = int(good.mask.sum())

    pf = extract_profile(fn, levels)
    pg = extract_profile(gn, levels)
    mask_f = pf.valid & good.mask
    mask_g = pg.valid & good.mask
    if not (mask_f & pf.nonempty).any() or not (mask_g & pg.nonempty).any():
        # Degenerate good set: fall back to the raw nonempty levels.
        flags["good_levels_empty"] = True
        mask_f = pf.valid
        mask_g = pg.valid
    else:
        flags["good_levels_empty"] = False
    rf = regularize(pf.with_valid(mask_f))
    rg = regularize(pg.with_valid(mask_g))

    # Stage 3: bubbles and interpolation diagnostics.
    fbar = build_bubble(rf, floor, step=fn.step)
    gbar = build_bubble(rg, floor, step=gn.step)
    hbar = sup_convolution(fbar, gbar, lam, mode=config.supconv_mode)
    flags["int_fbar"] = fbar.integral()
    flags["int_gbar"] = gbar.integral()
    flags["int_hbar"] = hbar.integral()
    # Profile boundaries are quantized to cell edges, so each term of
    # an interpolation check carries up to one step of jitter; sigma =
    # 2*step is the exact allowance for concave/convex continuum data.
    sigma = 2.0 * step
    phb = extract_profile(hbar, levels)
    tp = three_point_check(rf, rg, phb, lam, sigma=sigma)
    flags["three_point_violations"] = tp.count
    flags["three_point_max_excess"] = tp.max_excess
    # Right boundaries should be almost concave, left boundaries almost
    # convex (checked through their negation).
    for name, prof in (("f", rf), ("g", rg)):
        usable = prof.usable()
        if usable.sum() >= 2:
            fp_b, fp_a = _four_point(
                prof.log_levels, (prof.right, -prof.left), lam, sigma, usable
            )
            flags[f"four_point_b_{name}_violations"] = fp_b.count
            flags[f"four_point_a_{name}_violations"] = fp_a.count

    # Stage 4: envelopes and monotonization.
    env_f = _fit_envelopes(rf)
    env_g = _fit_envelopes(rg)
    flags["fit_error_f"] = max(env_f.fit_error_lower, env_f.fit_error_upper)
    flags["fit_error_g"] = max(env_g.fit_error_lower, env_g.fit_error_upper)

    # Stage 5: log-concave reconstructions and their canonical combination.
    ftn = from_envelopes(env_f, floor_level=floor, step=fn.step)
    gtn = from_envelopes(env_g, floor_level=floor, step=gn.step)
    if ftn.is_zero() or gtn.is_zero():
        raise DomainError("reconstruction produced an empty witness")
    htn = sup_convolution(ftn, gtn, lam, mode=config.supconv_mode)
    flags["f_tilde_log_concave"] = bool(is_log_concave(ftn).is_log_concave)
    flags["g_tilde_log_concave"] = bool(is_log_concave(gtn).is_log_concave)

    # Stage 6: errors and joint alignment in the normalized frame.  In the
    # original scale the theorem compares a**lam * f and a**(lam-1) * g
    # against shifts of h~; dividing everything by the geometric mean turns
    # those targets into exactly fn and gn.
    int_h = hn.integral()
    err_h = l1_distance(hn, htn) / int_h
    a_ratio = rep.a

    # One shared translation must serve f and g simultaneously: scan cell
    # shifts s of the witness (w = s*step/lam) and minimize the sum.  The g
    # term moves by (lam - 1) * w, that is by the whole cells nearest to
    # (lam - 1) * s / lam.
    exact, back, den = _weights(lam, (-1, 1), (0, 1))

    def pair_err(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ef = _l1_shifts(fn, htn, s) / int_h
        eg = _l1_shifts(gn, htn, _nearest(back * s, den, exact)) / int_h
        return ef, eg

    best_s, _ = _coarse_to_fine(lambda s: np.add(*pair_err(s)), [fn, gn], htn)
    best_ef, best_eg = (float(e[0]) for e in pair_err(np.array([best_s])))
    w = best_s * htn.step / lam

    report = StabilityReport(
        epsilon=rep.epsilon,
        a=a_ratio,
        w=w,
        err_f=best_ef,
        err_g=best_eg,
        err_h=err_h,
        log10_bound=constants.log10_bound(eps),
        hypothesis_satisfied=constants.hypothesis_satisfied(eps),
        constants=constants,
        stage_flags=flags,
    )
    # Scale the witnesses back to the input frame.
    f_tilde = ftn.scale(rep.geo_mean / a_ratio**lam)
    g_tilde = gtn.scale(rep.geo_mean * a_ratio ** (1.0 - lam))
    h_tilde = htn.scale(rep.geo_mean)
    return report, f_tilde, g_tilde, h_tilde
