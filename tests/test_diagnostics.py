"""Lemma-level numerical checks: tail geometry, sup-norm ratio control,
truncation bounds, and the constants table."""

import math

import numpy as np
import pytest

from plstab import (
    DomainError,
    TheoremConstants,
    canonical_triple,
    check_logconcave_tails,
    check_sup_ratio,
    check_tail_truncation,
    deficit,
    from_samples,
    GridFunction,
)
from plstab.synth import gaussian, indicator

STEP = 1e-3


def unit_gaussian(step=STEP):
    """Mass-1, sup-1 profile exp(-pi x^2) on a wide window."""
    return from_samples(lambda x: np.exp(-np.pi * x * x), -6.0, 6.0, step)


# -- check_logconcave_tails -----------------------------------------------------


def test_tails_pass_on_indicator():
    rows = check_logconcave_tails(indicator(0.0, 2.0, 1.0, STEP), "box")
    assert rows and all(r.passed for r in rows)
    assert {r.check_name for r in rows} == {"near_max_width", "level_decay", "low_mass"}


def test_tails_pass_on_exponential():
    f = from_samples(lambda x: np.exp(-x), 0.0, 20.0, STEP)
    rows = check_logconcave_tails(f, "exp")
    assert all(r.passed for r in rows)


def test_tails_pass_on_gaussian():
    rows = check_logconcave_tails(gaussian(0.0, 1.0, 1.0, step=STEP, window=(-6.0, 6.0)), "gauss")
    assert all(r.passed for r in rows)


def test_tails_low_mass_matches_exponential_closed_form():
    f = from_samples(lambda x: np.exp(-x), 0.0, 30.0, STEP)
    rows = [r for r in check_logconcave_tails(f, "exp") if r.check_name == "low_mass"]
    # Mass of e^{-x} below level t is exactly t (the tail beyond |log t|).
    for r in rows:
        t = float(r.instance_id.split("t=")[1])
        assert r.measured == pytest.approx(t, abs=3 * STEP)
        # Grid sup is e^{-step/2}, not exactly 1, and the label carries six
        # significant digits, so the bound comparison is loose.
        assert r.bound == pytest.approx(
            2.0 * f.integral() / f.sup_norm() * t, rel=1e-5
        )


def test_tails_reject_non_log_concave():
    v = np.concatenate([np.ones(50), np.zeros(50), np.ones(50)])
    with pytest.raises(DomainError):
        check_logconcave_tails(GridFunction(0.0, 0.01, v), instance_id="")


def test_tails_reject_zero():
    with pytest.raises(DomainError):
        check_logconcave_tails(GridFunction(0.0, 0.1, np.zeros(8)), instance_id="")


# -- check_sup_ratio -------------------------------------------------------------


def test_sup_ratio_indicator_pair_hypothesis_unmet():
    t = canonical_triple(
        indicator(0.0, 1.0, 1.0, STEP), indicator(0.0, 2.0, 1.0, STEP), 0.5, mode="snap"
    )
    row = check_sup_ratio(t, "boxes")
    # sup ratio is 1 and the mass ratio is 2, so the measured gap is exactly 1;
    # the deficit 1.5/sqrt(2) - 1 is far above tau^3/64, so the check is vacuous.
    assert row.measured == pytest.approx(1.0, abs=5 * STEP)
    assert not row.hypothesis_met
    assert row.passed


def test_sup_ratio_equality_pair():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3, window=(-6.0, 6.0))
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    row = check_sup_ratio(t, "equal")
    assert row.hypothesis_met
    assert row.measured <= 1e-9
    assert row.passed


def test_sup_ratio_near_equality_within_bound():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3, window=(-6.0, 6.0))
    g = gaussian(0.0, 1.05, 1.0, step=2e-3, window=(-6.0, 6.0))
    t = canonical_triple(f, g, 0.5, mode="halfgrid")
    row = check_sup_ratio(t, "widths")
    eps = max(deficit(t).epsilon, 0.0)
    assert eps < 0.5**3 / 64.0  # hypothesis holds for this gentle perturbation
    assert row.hypothesis_met
    # Measured gap |1 * 1.05 - 1| = 0.05 sits inside 4 tau^{-3/2} sqrt(eps).
    assert row.measured == pytest.approx(0.05, abs=0.01)
    assert row.measured <= row.bound
    assert row.passed


# -- check_tail_truncation ---------------------------------------------------------


def test_truncation_gaussian_width_closed_form():
    f = unit_gaussian(step=2e-3)
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    eta = 0.1
    rows = check_tail_truncation(t, eta, "gauss")
    names = [r.check_name for r in rows]
    assert names == ["trunc_width_f", "trunc_mass_f", "trunc_width_g", "trunc_mass_g"]
    width = next(r for r in rows if r.check_name == "trunc_width_f")
    # {exp(-pi x^2) >= eta} has width 2 sqrt(log(1/eta)/pi).
    ref = 2.0 * math.sqrt(math.log(1.0 / eta) / math.pi)
    assert width.measured == pytest.approx(ref, abs=3 * f.step)
    mass = next(r for r in rows if r.check_name == "trunc_mass_f")
    ref_mass = 1.0 - math.erf(math.sqrt(math.log(1.0 / eta)))
    assert mass.measured == pytest.approx(ref_mass, abs=3 * f.step)
    assert all(r.passed for r in rows)


def test_truncation_indicator_full_width():
    f = indicator(0.0, 1.0, 1.0, STEP)
    t = canonical_triple(f, f, 0.5, mode="snap")
    rows = check_tail_truncation(t, 0.5, "box")
    width = next(r for r in rows if r.check_name == "trunc_width_f")
    assert width.measured == pytest.approx(1.0, abs=3 * STEP)
    mass = next(r for r in rows if r.check_name == "trunc_mass_f")
    assert mass.measured == pytest.approx(0.0, abs=1e-12)


def test_truncation_eta_domain():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3, window=(-6.0, 6.0))
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    for bad in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(DomainError):
            check_tail_truncation(t, bad, instance_id="")
    # A pair with a large deficit forbids eta below sqrt(epsilon).
    tb = canonical_triple(
        indicator(0.0, 1.0, 1.0, STEP), indicator(0.0, 2.0, 1.0, STEP), 0.5, mode="snap"
    )
    assert math.sqrt(deficit(tb).epsilon) > 0.1
    with pytest.raises(DomainError):
        check_tail_truncation(tb, 0.1, instance_id="")


# -- constants over a tau grid ------------------------------------------------------


def test_constants_table_grid():
    taus = np.geomspace(1e-3, 0.5, 7)
    rows = [TheoremConstants(float(tau), omega0=2.0) for tau in taus]
    assert len(rows) == 7
    for tau, c in zip(taus, rows):
        assert isinstance(c, TheoremConstants)
        assert c.tau == pytest.approx(float(tau))
        assert c.omega == pytest.approx(2.75)
    # log10_M decreases as tau grows (smaller tau, larger constant).
    ms = [c.log10_M for c in rows]
    assert all(a > b for a, b in zip(ms, ms[1:]))
