"""End-to-end acceptance suite.

Each test pins one headline property of the package: the equality case,
the closed-form counterexample families, rearrangement invariants, the
envelope and log-concavity machinery, the mean-inequality stability step,
the reconstruction pipeline, the tail diagnostics, the 2D reduction, and
the constants table.  Tolerances and runtime limits are part of the
contract and are asserted explicitly.
"""

import math
import time

import numpy as np
import pytest

from plstab import (
    GridFunction,
    GridFunction2D,
    PipelineConfig,
    PLTriple,
    Triple2D,
    amgm_stability,
    canonical_triple,
    check_logconcave_tails,
    deficit,
    four_point_check,
    from_envelopes,
    from_samples,
    is_log_concave,
    l1_distance,
    least_concave_majorant,
    log_concave_hull,
    quadrature_tol,
    reduced_deficit,
    stability_decompose,
    sup_convolution,
    symmetric_decreasing,
    TheoremConstants,
)
from plstab.cli import run_example1, run_example2
from plstab.profiles import extract_profile, level_grid, regularize
from plstab.reconstruct import _fit_envelopes
from plstab.synth import (
    gaussian,
    indicator,
    perturbed_pair,
    random_grid_function,
    random_log_concave,
    rng_from,
)


def spearman(x, y):
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


# -- 1. equality case --------------------------------------------------------------


def test_equality_gaussian_deficit_vanishes():
    start = time.monotonic()
    f = from_samples(lambda x: np.exp(-math.pi * x * x), -6.0, 6.0, 1e-3)
    for lam in (0.3, 0.5):
        h = sup_convolution(f, f, lam, mode="auto")
        rep = deficit(PLTriple(f, f, h, lam))
        assert -1e-3 <= rep.epsilon <= 1e-3, lam
    assert time.monotonic() - start < 5.0


# -- 2. indicator pair --------------------------------------------------------------


def test_indicator_pair_deficit_closed_form():
    step = 1e-3
    f = indicator(0.0, 1.0, 1.0, step)
    g = indicator(0.0, 2.0, 1.0, step)
    h = sup_convolution(f, g, 0.5, mode="auto")
    rep = deficit(PLTriple(f, g, h, 0.5))
    assert rep.epsilon == pytest.approx(1.5 / math.sqrt(2.0) - 1.0, abs=2 * step)


# -- 3. rearrangement invariants ------------------------------------------------------


def test_rearrangement_preserves_distributions_and_deficit():
    for seed in range(100):
        f = random_grid_function(seed, step=5e-3, window=(-2.0, 2.0))
        fs = symmetric_decreasing(f)
        assert abs(fs.integral() - f.integral()) <= 1e-12 * max(1.0, f.integral())
        levels = np.concatenate(
            [
                np.linspace(0.0, f.sup_norm() * 1.01, 31),
                f.values[:: max(1, f.values.size // 8)],
            ]
        )
        for t in levels:
            assert fs.superlevel_measure(float(t)) == f.superlevel_measure(float(t))
    # Rearranged triples keep the deficit: masses are preserved exactly, so
    # epsilon changes only by floating-point roundoff.
    for seed in range(0, 60, 2):
        f = random_grid_function(seed, step=5e-3, window=(-2.0, 2.0))
        g = random_grid_function(seed + 1, step=5e-3, window=(-2.0, 2.0))
        if f.integral() <= 0 or g.integral() <= 0:
            continue
        h = sup_convolution(f, g, 0.5, mode="auto")
        t = PLTriple(f, g, h, 0.5)
        ts = PLTriple(
            symmetric_decreasing(f),
            symmetric_decreasing(g),
            symmetric_decreasing(h),
            0.5,
        )
        slack = quadrature_tol(f, g) / deficit(t).geo_mean
        assert abs(deficit(ts).epsilon - deficit(t).epsilon) <= slack


# -- 4. perturbed Gaussian scaling -----------------------------------------------------


def test_perturbed_gaussian_square_root_law():
    start = time.monotonic()
    etas = [0.02 * k for k in range(1, 11)]
    rows, summary = run_example1(etas, step=1e-3)
    assert summary["skipped"] == 0
    assert 0.4 <= summary["slope_logd_vs_logeps"] <= 0.6
    assert time.monotonic() - start < 60.0


# -- 5. two-block exponential family ---------------------------------------------------


def test_two_block_family_at_A5():
    step = 1e-3
    rows = run_example2([5.0], step=step)
    r = rows[0]
    assert r.epsilon <= 2.0 * math.exp(-5.0)
    assert r.hull_gap == pytest.approx(math.exp(-1.0) - math.exp(-10.0), abs=2 * step)
    assert r.hull_gap_over_int_f >= 0.5
    # The pipeline's reconstructed witness is a single log-concave bump, far
    # from the hull that fills the gap between the blocks.
    n = int(round(11.0 / step))
    c = step * (np.arange(n) + 0.5)
    f = GridFunction(0.0, step, np.where((c < 1.0) | (c >= 10.0), np.exp(-c), 0.0))
    h = sup_convolution(f, f, 0.5, mode="halfgrid")
    _, f_tilde, _, _ = stability_decompose(
        PLTriple(f, f, h, 0.5), PipelineConfig(level_count=256, supconv_mode="auto")
    )
    F = log_concave_hull(f)
    assert l1_distance(f_tilde, F) >= 0.4 * f.integral()


# -- 6. envelope suite --------------------------------------------------------------


def test_majorant_suite_and_planted_violation():
    for seed in range(100):
        rng = rng_from(seed)
        n = int(rng.integers(8, 120))
        T = np.linspace(-float(rng.uniform(2, 10)), 0.0, n)
        psi = rng.uniform(-2.0, 2.0, size=n) * float(rng.uniform(0.2, 5.0))
        m = least_concave_majorant(T, psi)
        scale = max(1.0, float(np.max(np.abs(m))))
        d2 = np.diff(m, 2)
        assert np.all(d2 <= 1e-12 * scale)
        assert np.all(m >= psi - 1e-12 * scale)
        m2 = least_concave_majorant(T, m)
        assert np.max(np.abs(m2 - m)) <= 1e-12 * scale
        lam = float(rng.uniform(0.05, 0.95))
        rep = four_point_check(T, m, lam, sigma=0.0)
        assert rep.count == 0, seed
    planted = four_point_check(
        np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4) ** 2, 0.5, sigma=0.0
    )
    assert planted.count >= 1
    assert planted.max_excess == pytest.approx(4.0 / 9.0, abs=1e-9)


# -- 7. log-concavity closure ----------------------------------------------------------


def test_reconstruction_outputs_are_log_concave():
    count = 0
    for seed in range(100):
        f = random_grid_function(seed, step=5e-3, window=(-2.0, 2.0))
        F = log_concave_hull(f)
        if not F.is_zero():
            assert is_log_concave(F, tol=1e-9).is_log_concave, seed
            count += 1
    for seed in range(100):
        f = random_log_concave(seed, step=2e-3)
        S = f.sup_norm()
        pos = f.values[f.values > 0]
        floor = min(max(pos.min(), 1e-6 * S), 0.5 * S)
        prof = regularize(extract_profile(f, level_grid(floor, S * (1 - 1e-12), 256)))
        env = _fit_envelopes(prof)
        out = from_envelopes(env, floor_level=floor, step=f.step)
        assert is_log_concave(out, tol=1e-9).is_log_concave, seed
        count += 1
    assert count >= 195


# -- 8. mean-inequality stability ------------------------------------------------------


def test_amgm_stability_random_sweep():
    rng = rng_from(2024)
    for _ in range(10_000):
        a = float(np.exp(rng.uniform(math.log(1e-6), math.log(1e6))))
        b = float(np.exp(rng.uniform(math.log(1e-6), math.log(1e6))))
        tau = float(rng.uniform(1e-3, 0.5))
        lam = float(rng.uniform(tau, 1.0 - tau))
        rep = amgm_stability(a, b, lam, tau)
        assert rep.holds, (a, b, lam, tau)


# -- 9. pipeline near the fixed point --------------------------------------------------


def test_pipeline_errors_small_and_track_deficit():
    cfg = PipelineConfig(level_count=256, supconv_mode="auto")
    for seed in range(50):
        f = random_log_concave(seed, step=2e-3)
        t = canonical_triple(f, f, 0.5, mode="halfgrid")
        rep, *_ = stability_decompose(t, cfg)
        total = rep.err_f + rep.err_g + rep.err_h
        budget = 10.0 * f.step * (
            t.f.sup_norm() + t.g.sup_norm() + t.h.sup_norm()
        )
        assert total <= budget, seed
    eps_list, err_list = [], []
    for a_idx, amp in enumerate((0.05, 0.1, 0.2)):
        for k in range(10):
            f, g = perturbed_pair(
                rng_from(1000 * a_idx + k), amp, step=2e-3, window=(-4.0, 4.0)
            )
            h = sup_convolution(f, g, 0.5, mode="auto")
            rep, *_ = stability_decompose(PLTriple(f, g, h, 0.5), cfg)
            eps_list.append(rep.epsilon)
            err_list.append(rep.err_f + rep.err_g + rep.err_h)
    assert spearman(np.array(eps_list), np.array(err_list)) > 0.5


# -- 10. tail checks --------------------------------------------------------------


def test_tail_checks_pass_on_seeded_family():
    checked = 0
    special = [
        indicator(0.0, 1.0, 1.0, 1e-3),
        indicator(-2.0, 3.0, 0.25, 1e-3),
        from_samples(lambda x: np.exp(-x), 0.0, 20.0, 1e-3),
        from_samples(lambda x: 2.0 * np.exp(-3.0 * x), 0.0, 8.0, 1e-3),
        gaussian(0.0, 1.0, 1.0, step=1e-3),
        gaussian(1.0, 0.4, 2.0, step=1e-3),
    ]
    for phi in special:
        rows = check_logconcave_tails(phi)
        assert rows and all(r.passed for r in rows)
        checked += 1
    for seed in range(44):
        phi = random_log_concave(seed, step=2e-3)
        rows = check_logconcave_tails(phi)
        assert all(r.passed for r in rows), seed
        checked += 1
    assert checked == 50


# -- 11. 2D reduction --------------------------------------------------------------


def test_2d_reduction_squares_and_gaussian():
    start = time.monotonic()
    step = 0.05
    f = GridFunction2D((0.0, 0.0), (step, step), np.ones((20, 20)))
    g = GridFunction2D((0.0, 0.0), (step, step), np.ones((40, 40)))
    h = GridFunction2D((0.0, 0.0), (step, step), np.ones((30, 30)))
    rep = reduced_deficit(Triple2D(f, g, h, 0.5))
    assert rep.deficit_2d.epsilon == pytest.approx(0.125, abs=1e-12)
    assert rep.epsilon <= 0.125 + 5e-3
    assert rep.condition_2d_violations == 0
    assert rep.multiplicative_violations == 0

    n, half = 256, 3.0
    s2 = 2 * half / n
    c = -half + s2 * (np.arange(n) + 0.5)
    v = np.exp(-(c**2))
    fg = GridFunction2D((-half, -half), (s2, s2), np.outer(v, v))
    # At lam = 1/2 the product Gaussian sup-convolves to itself.
    rep_g = reduced_deficit(Triple2D(fg, fg, fg, 0.5))
    assert abs(rep_g.epsilon) <= 1e-2
    assert time.monotonic() - start < 30.0


# -- 12. constants table ------------------------------------------------------------


def test_constants_closed_forms_and_representability():
    c = TheoremConstants(tau=0.5)
    L = abs(math.log(0.5))
    assert c.log10_Q == pytest.approx(
        4 * math.log10(0.5) - 100 * math.log10(2.0) - 4 * math.log10(L), rel=1e-12
    )
    assert c.log10_M == pytest.approx(
        40.0 + math.log10(5.0) + 4 * math.log10(L) - 4 * math.log10(0.5), rel=1e-12
    )
    assert c.alpha_tau == pytest.approx(0.5 / (16.0 * L), rel=1e-12)
    for tau in np.geomspace(1e-6, 0.5, 200):
        assert not TheoremConstants(tau=float(tau)).hypothesis_representable
