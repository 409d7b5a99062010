"""Constants, log-concavity certificates, hulls, envelope inversion,
alignment, and the reconstruction pipeline."""

import json
import math

import numpy as np
import pytest

from plstab import (
    DomainError,
    EnvelopePair,
    PipelineConfig,
    TheoremConstants,
    align,
    canonical_triple,
    deficit,
    from_envelopes,
    from_samples,
    GridFunction,
    is_log_concave,
    l1_distance,
    log_concave_hull,
    stability_decompose,
    sup_convolution,
)
from plstab.profiles import extract_profile, level_grid, regularize
from plstab.reconstruct import _fit_envelopes
from plstab.synth import gaussian, indicator, random_grid_function, random_log_concave

STEP = 1e-3


# -- TheoremConstants -----------------------------------------------------------


def test_constants_closed_forms_log_scale():
    for tau in (0.5, 0.25, 0.1, 0.01, 1e-4):
        c = TheoremConstants(tau=tau, omega0=1.0)
        L = abs(math.log(tau))
        # Q = tau^4 / (2^100 |log tau|^4), evaluated in log10.
        ref_q = 4 * math.log10(tau) - 100 * math.log10(2.0) - 4 * math.log10(L)
        assert c.log10_Q == pytest.approx(ref_q, rel=1e-12)
        # M = 10^40 * (omega0 + 4) * |log tau|^4 / tau^4, in log10.
        ref_m = 40.0 + math.log10(1.0 + 4.0) + 4 * math.log10(L) - 4 * math.log10(tau)
        assert c.log10_M == pytest.approx(ref_m, rel=1e-12)
        assert c.alpha_tau == pytest.approx(tau / (16.0 * L), rel=1e-12)
        assert c.omega == pytest.approx(2.5 + 1.0 / 8.0, rel=1e-12)


def test_constants_alpha_at_half():
    c = TheoremConstants(tau=0.5)
    assert c.alpha_tau == pytest.approx(0.5 / (16.0 * math.log(2.0)), rel=1e-12)
    assert c.alpha_tau == pytest.approx(0.045, abs=5e-4)


def test_constants_hypothesis_never_representable():
    for tau in np.linspace(1e-4, 0.5, 64):
        c = TheoremConstants(tau=float(tau))
        assert not c.hypothesis_representable
        assert not c.hypothesis_satisfied(1e-300)
        assert not c.hypothesis_satisfied(0.1)


def test_constants_bound_in_log_scale():
    c = TheoremConstants(tau=0.5)
    b = c.log10_bound(1e-4)
    assert b is not None
    ref = 10.0**c.log10_Q * math.log10(1e-4) - c.omega * math.log10(0.5)
    assert b == pytest.approx(ref, rel=1e-12)
    assert c.log10_bound(0.0) is None


def test_constants_validation():
    with pytest.raises(DomainError):
        TheoremConstants(tau=0.0)
    with pytest.raises(DomainError):
        TheoremConstants(tau=0.7)
    with pytest.raises(DomainError):
        TheoremConstants(tau=0.3, omega0=0.0)


# -- is_log_concave --------------------------------------------------------------


def test_log_concave_gaussian():
    assert is_log_concave(gaussian(0.0, 1.0, 1.0)).is_log_concave


def test_log_concave_two_bump_fails():
    v = np.concatenate([np.ones(100), np.zeros(100), np.ones(100)])
    rep = is_log_concave(GridFunction(0.0, 0.01, v))
    assert not rep.is_log_concave
    assert not rep.support_contiguous


def test_log_concave_truncated_exponential():
    f = from_samples(lambda x: np.exp(-x), 0.0, 1.0, STEP)
    assert is_log_concave(f).is_log_concave


def test_log_concave_trivial_cases():
    assert is_log_concave(GridFunction(0.0, 0.1, np.zeros(4))).is_log_concave
    assert is_log_concave(GridFunction(0.0, 0.1, np.array([0.0, 2.0, 0.0]))).is_log_concave


def test_log_concave_planted_dip():
    rep = is_log_concave(GridFunction(0.0, 0.1, np.array([1.0, 0.5, 1.0])))
    assert not rep.is_log_concave
    assert rep.support_contiguous
    assert rep.worst_index == 1
    assert rep.worst_ratio == pytest.approx(0.25)


def test_log_concave_subnormal_tails_no_nan():
    v = np.array([1e-320, 5e-316, 1e-310, 1e-305, 1e-300])
    rep = is_log_concave(GridFunction(0.0, 0.1, v))
    assert rep.worst_ratio is not None and math.isfinite(rep.worst_ratio)


# -- log_concave_hull --------------------------------------------------------------


def test_hull_of_log_concave_is_identity():
    for seed in range(20):
        f = random_log_concave(seed, step=2e-3)
        F = log_concave_hull(f)
        assert l1_distance(F, f) <= 1e-9 * max(1.0, f.integral())


def test_hull_fills_two_bump():
    v = np.concatenate([np.ones(1000), np.zeros(1000), np.ones(1000)])
    f = GridFunction(0.0, STEP, v)
    F = log_concave_hull(f)
    ref = GridFunction(0.0, STEP, np.ones(3000))
    assert l1_distance(F, ref) <= 1e-12


def test_hull_two_block_exponential():
    A = 5.0
    def two_block(x):
        inner = ((x >= 0) & (x < 1)) | ((x >= 2 * A) & (x < 2 * A + 1))
        return np.where(inner, np.exp(-x), 0.0)

    f = from_samples(two_block, 0.0, 2 * A + 1, STEP)
    F = log_concave_hull(f)
    # The hull is e^{-x} on [0, 2A+1]: the log values of the two blocks are
    # collinear, so the chord fills the middle exactly.
    gap = F.integral() - f.integral()
    assert abs(gap - (math.exp(-1.0) - math.exp(-2.0 * A))) <= 2 * STEP
    assert is_log_concave(F, tol=1e-9).is_log_concave


def test_hull_majorizes_and_idempotent():
    for seed in range(20):
        f = random_grid_function(seed, step=5e-3, window=(-2, 2))
        F = log_concave_hull(f)
        assert np.all(F(f.centers()) >= f.values - 1e-12)
        F2 = log_concave_hull(F)
        assert l1_distance(F2, F) <= 1e-9 * max(1.0, F.integral())
        assert is_log_concave(F, tol=1e-9).is_log_concave


def test_hull_of_zero_is_zero():
    z = GridFunction(0.0, 0.1, np.zeros(5))
    assert log_concave_hull(z).is_zero()


# -- from_envelopes ----------------------------------------------------------------


def test_from_envelopes_constant_envelopes_give_box():
    T = np.linspace(-9.0, 0.0, 200)
    env = EnvelopePair(T, np.full(200, -1.0), np.full(200, 1.0), 0.0, 0.0)
    f = from_envelopes(env, floor_level=math.exp(T[0]), step=STEP)
    assert f.integral() == pytest.approx(2.0, abs=4 * STEP)
    assert f.sup_norm() == pytest.approx(1.0, rel=1e-9)
    lo, hi = f.support_indices()
    assert abs((f.origin + lo * f.step) - (-1.0)) <= 2 * STEP
    assert abs((f.origin + hi * f.step) - 1.0) <= 2 * STEP


def test_from_envelopes_sqrt_gives_gaussian():
    T = np.linspace(-9.0, 0.0, 400)
    env = EnvelopePair(T, -np.sqrt(-T), np.sqrt(-T), 0.0, 0.0)
    f = from_envelopes(env, floor_level=math.exp(T[0]), step=STEP)
    xs = f.centers()
    ref = np.exp(-xs * xs) * (np.abs(xs) <= 3.0)
    assert float(np.sum(np.abs(f.values - ref)) * f.step) <= 5 * STEP
    lo, hi = f.support_indices()
    assert abs((f.origin + lo * f.step) - (-3.0)) <= 2 * STEP
    assert abs((f.origin + hi * f.step) - 3.0) <= 2 * STEP


def test_from_envelopes_gaussian_round_trip():
    f = gaussian(0.0, 1.0, 1.0)
    prof = regularize(extract_profile(f, level_grid(1e-6, f.sup_norm() * (1 - 1e-12), 512)))
    env = _fit_envelopes(prof)
    fre = from_envelopes(env, floor_level=1e-6, step=STEP)
    assert l1_distance(fre, f) <= 4 * STEP


def test_from_envelopes_outputs_are_log_concave():
    for seed in range(30):
        f = random_log_concave(seed, step=2e-3)
        pos = f.values[f.values > 0]
        # Indicator-like draws have min positive value == sup; keep the level
        # window nonempty by capping the floor below the top.
        floor = min(max(pos.min(), 1e-6 * f.sup_norm()), 0.5 * f.sup_norm())
        prof = regularize(
            extract_profile(f, level_grid(floor, f.sup_norm() * (1 - 1e-12), 256))
        )
        env = _fit_envelopes(prof)
        fre = from_envelopes(env, floor_level=floor, step=f.step)
        assert is_log_concave(fre, tol=1e-9).is_log_concave, seed


def test_from_envelopes_rejects_crossed_envelopes():
    T = np.linspace(-2.0, 0.0, 50)
    lower = np.linspace(-1.0, 1.0, 50)  # ends above the upper envelope
    upper = np.zeros(50)
    with pytest.raises(DomainError):
        from_envelopes(EnvelopePair(T, lower, upper, 0.0, 0.0), 1.0, STEP)


# -- align -------------------------------------------------------------------------


def test_align_identity():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3)
    res = align(f, f, 0.5, 1.0)
    assert res.w == 0.0
    assert res.err <= 1e-12


def test_align_planted_translation():
    h = gaussian(0.0, 1.0, 1.0, step=2e-3)
    f = h.shift(-3.0)  # f(x) = h(x - (-3)) => h(x + 3) = f at x - 3... direct check below
    res = align(f, h, 0.5, 1.0)
    # h shifted by lam * w must land on f: w = 2 * (-3.0) = -6 or +6
    # depending on orientation; verify by effect rather than sign convention.
    shifted = h.shift(0.5 * res.w)
    assert l1_distance(shifted, f) <= 2e-3 * h.sup_norm() + 1e-9
    assert abs(abs(res.w) - 6.0) <= 2 * h.step


def test_align_half_height_scaling():
    h = gaussian(0.0, 1.0, 1.0, step=2e-3)
    target_shift = 1.0
    htilde = h.shift(target_shift).scale(0.5)
    # Choose a with a^lam = 0.5 so the scaled target matches exactly.
    res = align(htilde.scale(1.0), htilde, 0.5, 1.0)
    assert res.err <= 1e-12 and res.w == 0.0
    f = h.scale(0.5)
    res2 = align(f, htilde, 0.5, 1.0)
    shifted = htilde.shift(0.5 * res2.w)
    assert l1_distance(shifted, f) <= 2e-3 * h.sup_norm() + 1e-9


# -- stability_decompose -------------------------------------------------------------


def equality_config():
    return PipelineConfig(level_count=256, supconv_mode="auto")


def test_pipeline_equality_triple_near_fixed_point():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3)
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    rep, ft, gt, ht = stability_decompose(t, equality_config())
    budget = 10.0 * f.step * (3.0 * f.sup_norm())
    assert rep.err_f + rep.err_g + rep.err_h <= budget
    assert abs(rep.w) <= 4 * f.step
    assert abs(rep.a - 1.0) <= 1e-9
    for out in (ft, gt, ht):
        assert is_log_concave(out, tol=1e-9).is_log_concave


def test_pipeline_outputs_rebuild_h():
    f = random_log_concave(3, step=2e-3)
    g = random_log_concave(77, step=2e-3)
    t = canonical_triple(f, g, 0.5, mode="halfgrid")
    rep, ft, gt, ht = stability_decompose(t, equality_config())
    ht2 = sup_convolution(ft, gt, 0.5, mode="halfgrid")
    assert l1_distance(ht2, ht) <= 1e-12 * max(1.0, ht.integral())


def test_pipeline_epsilon_matches_deficit():
    f = random_log_concave(5, step=2e-3)
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    rep, *_ = stability_decompose(t, equality_config())
    assert rep.epsilon == pytest.approx(deficit(t).epsilon, abs=1e-12)


def test_pipeline_scales_outputs_to_original_mass():
    f = random_log_concave(9, step=2e-3).scale(2.0)
    g = random_log_concave(31, step=2e-3).scale(0.5)
    t = canonical_triple(f, g, 0.5, mode="halfgrid")
    rep, ft, gt, ht = stability_decompose(t, equality_config())
    d = deficit(t)
    # err_f is relative to the normalized scale; the returned functions are
    # scaled back to the triple's own masses.
    assert ft.integral() == pytest.approx(
        d.geo_mean / d.a**0.5, rel=0.1
    )
    assert ht.integral() == pytest.approx(d.int_h, rel=0.1)


def test_pipeline_report_serializes():
    f = gaussian(0.0, 1.0, 1.0, step=4e-3, window=(-3, 3))
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    rep, *_ = stability_decompose(t, PipelineConfig(level_count=128, supconv_mode="auto"))
    d = json.loads(rep.to_json())
    assert sorted(d.keys()) == [
        "a",
        "epsilon",
        "err_f",
        "err_g",
        "err_h",
        "hypothesis_satisfied",
        "log10_bound",
        "stage_flags",
        "w",
    ]


def test_reports_write_non_finite_floats_as_null():
    from dataclasses import replace

    from plstab.plcore import DeficitReport

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    f = gaussian(0.0, 1.0, 1.0, step=4e-3, window=(-3, 3))
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    rep, *_ = stability_decompose(t, PipelineConfig(level_count=128, supconv_mode="auto"))
    rep = replace(rep, err_h=math.inf, stage_flags=dict(rep.stage_flags, sup_ratio=-math.inf))
    d = json.loads(rep.to_json(), parse_constant=reject)
    assert d["err_h"] is None and d["stage_flags"]["sup_ratio"] is None
    assert d["err_f"] == rep.err_f
    dr = DeficitReport(1.0, math.inf, 2.0, math.inf, math.nan, math.inf)
    assert json.loads(dr.to_json(), parse_constant=reject) == {
        "int_f": 1.0,
        "int_g": None,
        "int_h": 2.0,
        "geo_mean": None,
        "epsilon": None,
        "a": None,
    }


def test_pipeline_rejects_mismatched_steps():
    f = indicator(0.0, 1.0, 1.0, 0.01)
    g = indicator(0.0, 1.0, 1.0, 0.02)
    h = indicator(0.0, 1.0, 1.0, 0.01)
    from plstab import PLTriple

    with pytest.raises(DomainError):
        stability_decompose(PLTriple(f, g, h, 0.5), equality_config())


@pytest.mark.parametrize("mode", ["snap", "auto"])
@pytest.mark.parametrize("cells", [1, 2, 3])
def test_pipeline_rejects_inputs_below_quadrature_tolerance(cells, mode):
    # quadrature_tol = 6 * step here, so the deficit gate would admit any
    # epsilon >= -1: auto gives epsilon = -1/(2 * cells) on these inputs.
    f = GridFunction(0.0, STEP, np.ones(cells))
    t = canonical_triple(f, f, 0.5, mode=mode)
    with pytest.raises(DomainError, match="quadrature tolerance 0.006.* masses 0.00"):
        stability_decompose(t, PipelineConfig(supconv_mode=mode))


def _stage6_reference(triple, htn):
    """Stage 6 as a per-shift loop over shifted copies of the witness.

    This is the scan the pipeline ran before the shared L1 kernel: the
    same coarse and fine passes, one ``l1_distance`` per term and shift.
    """
    lam = triple.lam
    d = deficit(triple)
    fn = triple.f.scale(1.0 / d.int_f)
    gn = triple.g.scale(1.0 / d.int_g)
    int_h = triple.h.scale(1.0 / d.geo_mean).integral()
    step_h = htn.step
    t_lo = min(fn.window[0], gn.window[0])
    t_hi = max(fn.window[1], gn.window[1])
    h_lo, h_hi = htn.window
    s_min = int(np.floor((t_lo - h_hi) / step_h)) - 1
    s_max = int(np.ceil((t_hi - h_lo) / step_h)) + 1
    stride = max(1, max(1, s_max - s_min + 1) // 512)

    def pair_err(s):
        w = s * step_h / lam
        ef = l1_distance(fn, htn.shift(lam * w)) / int_h
        eg = l1_distance(gn, htn.shift((lam - 1.0) * w)) / int_h
        return ef, eg

    coarse = np.arange(s_min, s_max + 1, stride)
    best = int(coarse[int(np.argmin([sum(pair_err(int(s))) for s in coarse]))])
    best_s, best_ef, best_eg = best, math.inf, math.inf
    for s in np.arange(best - stride, best + stride + 1):
        ef, eg = pair_err(int(s))
        if ef + eg < best_ef + best_eg:
            best_s, best_ef, best_eg = int(s), ef, eg
    return best_s * step_h / lam, best_ef, best_eg


@pytest.mark.parametrize("lam", [0.5, 0.3, 0.7])
@pytest.mark.parametrize("seed", [21, 22])
def test_pipeline_shift_scan_matches_per_shift_loop(lam, seed):
    from plstab import PLTriple

    f = random_log_concave(seed, step=2e-3, window=(-3, 3))
    if lam == 0.5:
        g = f.with_values(f.values * np.linspace(0.9, 1.1, f.size))
        config = PipelineConfig(supconv_mode="auto")
        triple = PLTriple(f, g, sup_convolution(f, g, lam, mode="auto"), lam)
    else:
        g = random_grid_function(seed + 100, step=2e-3, window=(-3, 3))
        config = PipelineConfig()
        triple = canonical_triple(f, g, lam, mode="snap")
    # Stage 6 scans the witness h~ in the normalized frame, where h is
    # divided by the geometric mean of the masses.
    rep, _, _, h_tilde = stability_decompose(triple, config)
    htn = h_tilde.scale(1.0 / deficit(triple).geo_mean)
    assert (htn.step != f.step) == (lam == 0.5)
    w, err_f, err_g = _stage6_reference(triple, htn)
    assert rep.w == w
    assert rep.err_f == pytest.approx(err_f, rel=1e-9)
    assert rep.err_g == pytest.approx(err_g, rel=1e-9)


def _g_cell_shift(s: np.ndarray, lam: float) -> np.ndarray:
    """Stage 6's whole-cell shift of the g term: nearest to (lam - 1) * s / lam."""
    from plstab.plcore import _nearest, _weights

    exact, back, den = _weights(lam, (-1, 1), (0, 1))
    return _nearest(back * s, den, exact)


def test_g_cell_shift_rounds_exact_ties_half_up():
    from fractions import Fraction

    # lam = 2/5: the g term moves by -3s/2 cells, so every odd s is a tie.
    s = np.arange(-6, 7)
    assert _g_cell_shift(s, 0.4).tolist() == [
        9, 8, 6, 5, 3, 2, 0, -1, -3, -4, -6, -7, -9
    ]
    # The float expression sends s = -5 (7.5) down to 7 and s = -3 (4.5) to 4.
    assert np.round(((0.4 - 1.0) * (-5 * 1e-3 / 0.4)) / 1e-3) == 7.0
    s = np.arange(-60, 61)
    for lam in (0.25, 0.3, 0.4, 0.5, 0.7, 5.0 / 6.0):
        exact = Fraction(lam).limit_denominator(64)
        want = [math.floor((exact - 1) * int(k) / exact + Fraction(1, 2)) for k in s]
        # The shift is in cells of h, so it no longer depends on h's step.
        assert _g_cell_shift(s, lam).tolist() == want
    # At the benchmark's lambdas no value is a tie, so the old float
    # expression gives the same cells, and so does the float rule that
    # other lambdas (0.37) use.
    for lam in (0.25, 0.3, 0.5, 0.7, 0.37):
        old = np.round(((lam - 1.0) * (s * 1e-3 / lam)) / 1e-3)
        assert np.array_equal(_g_cell_shift(s, lam), old)
