"""Symmetric decreasing rearrangement and rearranged triples."""

import numpy as np
import pytest

from plstab import (
    DomainError,
    PLTriple,
    canonical_triple,
    deficit,
    from_samples,
    GridFunction,
    l1_distance,
    quadrature_tol,
    symmetric_decreasing,
    rearranged_triple,
)
from plstab.synth import gaussian, indicator, random_grid_function

STEP = 1e-3


def test_two_bump_becomes_centered_box():
    v = np.concatenate([np.ones(1000), np.zeros(1000), np.ones(1000)])
    f = GridFunction(0.0, STEP, v)
    fs = symmetric_decreasing(f)
    ref = GridFunction(-1.0, STEP, np.ones(2000))
    assert l1_distance(fs, ref) == 0.0


def test_symmetric_gaussian_is_fixed_point():
    f = gaussian(0.0, 1.0, 1.0, window=(-6.0, 6.0), step=1e-3)
    fs = symmetric_decreasing(f)
    assert fs.origin == f.origin and fs.step == f.step
    # Cell-exact up to tie-ordering of ulp-equal tail values.
    assert l1_distance(fs, f) <= 1e-15


def test_linear_ramp_becomes_tent():
    f = from_samples(lambda x: np.clip(x, 0.0, None), 0.0, 1.0, STEP)
    fs = symmetric_decreasing(f)
    ref = from_samples(
        lambda t: np.clip(1.0 - 2.0 * np.abs(t), 0.0, None), -0.5, 0.5, STEP
    )
    assert l1_distance(fs, ref) <= 2 * STEP


def test_rejects_zero_function():
    z = GridFunction(0.0, 0.1, np.zeros(5))
    with pytest.raises(DomainError):
        symmetric_decreasing(z)


def test_equimeasurable_at_every_level():
    for seed in range(100):
        f = random_grid_function(seed, step=5e-3, window=(-2.0, 2.0))
        fs = symmetric_decreasing(f)
        assert abs(fs.integral() - f.integral()) <= 1e-12 * max(f.integral(), 1.0)
        assert fs.sup_norm() == f.sup_norm()
        rng = np.random.default_rng(seed)
        levels = rng.uniform(0.0, f.sup_norm(), 12)
        for t in levels:
            # Count-based measures agree bit-exactly for equimeasurable pairs.
            assert fs.superlevel_measure(t) == f.superlevel_measure(t)
            assert fs.superlevel_measure(t, strict=False) == f.superlevel_measure(
                t, strict=False
            )


def test_superlevel_sets_are_centered_intervals():
    for seed in range(30):
        f = random_grid_function(seed + 300, step=5e-3, window=(-2.0, 2.0))
        fs = symmetric_decreasing(f)
        rng = np.random.default_rng(seed)
        for t in rng.uniform(0.0, 0.98 * f.sup_norm(), 8):
            cells = np.flatnonzero(fs.values > t)
            if cells.size == 0:
                continue
            assert cells[-1] - cells[0] + 1 == cells.size  # one run of cells
            a = fs.origin + cells[0] * fs.step
            b = fs.origin + (cells[-1] + 1) * fs.step
            assert abs(a + b) <= fs.step + 1e-12


def test_profile_is_unimodal():
    for seed in range(20):
        f = random_grid_function(seed + 600, step=5e-3, window=(-2.0, 2.0))
        v = symmetric_decreasing(f).values
        peak = int(np.argmax(v))
        assert np.all(np.diff(v[: peak + 1]) >= 0.0)
        assert np.all(np.diff(v[peak:]) <= 0.0)


# -- rearranged triples ----------------------------------------------------------


def test_symmetric_triple_unchanged():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3, window=(-6.0, 6.0))
    t = canonical_triple(f, f, 0.5, mode="snap")
    rt = rearranged_triple(t)
    assert l1_distance(rt.f, f) <= 1e-15
    assert l1_distance(rt.g, f) <= 1e-15


def test_separated_boxes_recenter():
    f = indicator(0.0, 1.0, 1.0, STEP)
    g = indicator(3.0, 4.0, 1.0, STEP)
    t = canonical_triple(f, g, 0.5, mode="snap")
    rt = rearranged_triple(t)
    box = GridFunction(-0.5, STEP, np.ones(1000))
    assert l1_distance(rt.f, box) == 0.0
    assert l1_distance(rt.g, box) == 0.0
    # Deficit of the rearranged pair stays zero (translation invariance).
    assert abs(deficit(rt).epsilon) <= 2 * STEP
    assert abs(deficit(t).epsilon) <= 2 * STEP


def test_rearrangement_keeps_deficit_within_quadrature_slack():
    for seed in range(15):
        f = random_grid_function(seed, step=5e-3, window=(-1.5, 1.5))
        g = random_grid_function(seed + 900, step=5e-3, window=(-1.5, 1.5))
        lam = 0.5
        t = canonical_triple(f, g, lam, mode="snap")
        rt = rearranged_triple(t)
        slack = quadrature_tol(f, g)
        # Rearrangement cannot worsen the deficit beyond quadrature error.
        assert deficit(rt).epsilon <= deficit(t).epsilon + slack, seed


def test_rearranged_triple_keeps_lambda():
    f = indicator(0.0, 1.0, 1.0, 0.01)
    t = canonical_triple(f, f, 0.375, mode="snap")
    assert rearranged_triple(t).lam == 0.375
