"""Triples, the defining pointwise condition, sup-convolution, deficits,
Minkowski sums, sumset stability, and AM-GM stability."""

import math

import numpy as np
import pytest

from plstab import (
    DomainError,
    GridFunction,
    IntervalUnion,
    PLTriple,
    amgm_stability,
    canonical_triple,
    deficit,
    freiman_check,
    from_samples,
    grid_function,
    is_log_concave,
    l1_distance,
    minkowski_sum,
    quadrature_tol,
    sup_convolution,
)
from plstab.synth import gaussian, indicator, random_log_concave

STEP = 1e-3


def box_pair(step=STEP):
    return indicator(0, 1, 1.0, step), indicator(0, 2, 1.0, step)


# -- condition_satisfied --------------------------------------------------------


def test_condition_holds_for_equal_indicators():
    f = indicator(0, 1, 1.0, 0.01)
    t = PLTriple(f, f, f, 0.5)
    rep = t.condition_satisfied()
    assert rep.satisfied and rep.violations == 0 and rep.exhaustive


def test_condition_holds_for_canonical_triples():
    for seed in range(8):
        f = random_log_concave(seed, step=5e-3)
        g = random_log_concave(seed + 100, step=5e-3)
        t = canonical_triple(f, g, 0.4)
        rep = t.condition_satisfied()
        assert rep.satisfied, (seed, rep.max_violation, rep.worst_pair)


def test_condition_detects_undersized_h():
    f = indicator(0, 1, 1.0, 0.01)
    h = indicator(0, 1, 0.5, 0.01)  # too small by a factor 2
    rep = PLTriple(f, f, h, 0.5).condition_satisfied()
    assert not rep.satisfied
    assert rep.violations > 0
    # Relative shortfall rhs/lhs - 1 with rhs = 1 and lhs = 0.5.
    assert rep.max_violation == pytest.approx(1.0, rel=1e-12)
    x, y = rep.worst_pair
    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


def test_condition_sampling_mode_is_deterministic():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3)
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    r1 = t.condition_satisfied(max_pairs=100_000, seed=4)
    r2 = t.condition_satisfied(max_pairs=100_000, seed=4)
    assert r1.checked == r2.checked and r1.satisfied and r2.satisfied
    assert not r1.exhaustive


# -- sup_convolution ------------------------------------------------------------


def test_supconv_equal_boxes():
    f = indicator(0, 1, 1.0, STEP)
    h = sup_convolution(f, f, 0.5)
    lo, hi = h.support_indices()
    assert np.all(h.values[lo:hi] == 1.0)
    assert abs((h.origin + lo * h.step) - 0.0) <= h.step
    assert abs((h.origin + hi * h.step) - 1.0) <= h.step


def test_supconv_box_pair_support():
    f, g = box_pair()
    h = sup_convolution(f, g, 0.5)
    lo, hi = h.support_indices()
    assert np.all(h.values[lo:hi] == 1.0)
    assert abs((h.origin + lo * h.step) - 0.0) <= h.step
    assert abs((h.origin + hi * h.step) - 1.5) <= h.step


def test_supconv_gaussian_pair_analytic():
    f = gaussian(0.0, 1.0, 1.0)
    g = from_samples(lambda x: np.exp(-np.pi * (x - 1.0) ** 2), -6.0, 6.0, STEP)
    h = sup_convolution(f, g, 0.5)
    ref = from_samples(
        lambda z: np.exp(-np.pi * (z - 0.5) ** 2),
        h.origin,
        h.origin + h.size * h.step,
        h.step,
    )
    assert l1_distance(h, ref) <= 2e-3


def test_supconv_monotone_in_f():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = grid_function(0.0, 0.02, rng.uniform(0, 1, 60))
        f2 = grid_function(-0.3, 0.02, rng.uniform(0, 1, 50))
        f1 = f2.with_values(f2.values * rng.uniform(0, 1, 50))
        h1 = sup_convolution(f1, g, 0.37)
        h2 = sup_convolution(f2, g, 0.37)
        assert h1.size == h2.size and h1.origin == h2.origin
        assert np.all(h1.values <= h2.values + 1e-15)


def test_supconv_log_concave_closure_halfgrid():
    for seed in range(25):
        a = random_log_concave(seed)
        b = random_log_concave(seed + 500)
        h = sup_convolution(a, b, 0.5, mode="halfgrid")
        assert is_log_concave(h, tol=1e-9).is_log_concave, seed


def _max_log_slope(fn):
    lo, hi = fn.support_indices()
    v = fn.values[lo:hi]
    if v.size < 2:
        return 0.0
    if np.any(v <= 0):
        return math.inf
    return float(np.max(np.abs(np.diff(np.log(v)))) / fn.step)


def test_supconv_log_concave_closure_snap():
    # Snapping moves each contributing pair by at most one output cell, so
    # adjacent log ratios can jitter by O(step * max log-slope).
    for seed in range(25):
        a = random_log_concave(seed)
        b = random_log_concave(seed + 500)
        h = sup_convolution(a, b, 0.3)
        slope = max(_max_log_slope(a), _max_log_slope(b))
        if not math.isfinite(slope):
            continue
        tol = max(1e-9, min(0.9, 6.0 * h.step * slope))
        assert is_log_concave(h, tol=tol).is_log_concave, seed


def test_supconv_requires_equal_steps():
    f = indicator(0, 1, 1.0, 0.01)
    g = indicator(0, 1, 1.0, 0.02)
    with pytest.raises(DomainError):
        sup_convolution(f, g, 0.5)


def test_supconv_rejects_bad_lambda():
    f = indicator(0, 1, 1.0, 0.01)
    for lam in (0.0, 1.0, -0.1, 1.7, math.nan):
        with pytest.raises(DomainError):
            sup_convolution(f, f, lam)


def test_supconv_zero_input_warns_and_returns_zero():
    f = indicator(0, 1, 1.0, 0.01)
    z = grid_function(0.0, 0.01, np.zeros(10))
    with pytest.warns(UserWarning):
        h = sup_convolution(f, z, 0.5)
    assert h.is_zero()
    # The mode is validated before the zero shortcut.
    with pytest.raises(DomainError):
        sup_convolution(f, z, 0.5, mode="bogus")


def test_halfgrid_requires_half_lambda():
    f = indicator(0, 1, 1.0, 0.01)
    z = grid_function(0.0, 0.01, np.zeros(10))
    for g in (f, z):
        with pytest.raises(DomainError):
            sup_convolution(f, g, 0.3, mode="halfgrid")


def test_halfgrid_step_is_half():
    f = indicator(0, 1, 1.0, 0.01)
    h = sup_convolution(f, f, 0.5, mode="halfgrid")
    assert h.step == pytest.approx(0.005)


def _small_random_pair(rng):
    """Two functions of 1-40 cells on a common step, some cells zero."""
    fns = []
    for _ in range(2):
        n = int(rng.integers(1, 41))
        v = rng.uniform(0.0, 1.0, n)
        v[rng.uniform(size=n) < 0.25] = 0.0
        v[rng.integers(n)] = rng.uniform(0.5, 1.0)
        fns.append(grid_function(float(rng.uniform(-1.0, 1.0)), 0.01, v))
    return fns


def _pair_grid(f, g):
    return np.meshgrid(np.arange(f.size), np.arange(g.size), indexing="ij")


# Every reduced p/q with q <= 12 (including 3/10 == 0.3 and 7/10 == 0.7) is
# snapped on the exact lattice; 0.37 has no such p/q and uses the float rule.
_LATTICE_LAMS = [
    (p, q) for q in range(2, 13) for p in range(1, q) if math.gcd(p, q) == 1
]


@pytest.mark.parametrize("p,q", _LATTICE_LAMS + [(37, None)])
def test_snap_matches_pair_enumeration(p, q):
    lam = 0.37 if q is None else p / q
    rng = np.random.default_rng(p * 100 + (q or 0))
    for _ in range(20):
        f, g = _small_random_pair(rng)
        i, j = _pair_grid(f, g)
        if q is None:
            k = np.floor((1.0 - lam) * i + lam * j + 0.5).astype(np.int64)
        else:
            k = (2 * ((q - p) * i + p * j) + q) // (2 * q)
        ref = np.zeros(int(k.max()) + 1)
        vals = np.outer(f.values ** (1.0 - lam), g.values**lam)
        np.maximum.at(ref, k.ravel(), vals.ravel())
        h = sup_convolution(f, g, lam, mode="snap")
        assert h.origin == (1.0 - lam) * f.origin + lam * g.origin
        assert h.step == f.step
        # The powers may be evaluated an ulp apart; a pair snapped to the
        # wrong cell moves a value by far more than this tolerance.
        np.testing.assert_allclose(h.values, ref, rtol=8 * np.finfo(float).eps)


def test_halfgrid_matches_pair_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f, g = _small_random_pair(rng)
        i, j = _pair_grid(f, g)
        ref = np.zeros(f.size + g.size - 1)
        vals = np.outer(np.sqrt(f.values), np.sqrt(g.values))
        np.maximum.at(ref, (i + j).ravel(), vals.ravel())
        h = sup_convolution(f, g, 0.5, mode="halfgrid")
        assert h.origin == 0.5 * (f.origin + g.origin) + 0.25 * f.step
        assert h.step == 0.5 * f.step
        np.testing.assert_array_equal(h.values, ref)


# -- deficit ---------------------------------------------------------------------


def test_deficit_equal_boxes_is_zero():
    f = indicator(0, 1, 1.0, 0.01)
    rep = deficit(PLTriple(f, f, f, 0.3))
    assert rep.epsilon == 0.0
    assert rep.a == pytest.approx(1.0)


def test_deficit_box_pair_closed_form():
    f, g = box_pair()
    rep = deficit(canonical_triple(f, g, 0.5))
    assert abs(rep.epsilon - (1.5 / math.sqrt(2.0) - 1.0)) <= 2 * STEP
    assert rep.a == pytest.approx(2.0, rel=1e-12)


def test_deficit_gaussian_equality_both_modes():
    f = gaussian(0.0, 1.0, 1.0)
    for lam, mode in ((0.3, "snap"), (0.5, "halfgrid")):
        rep = deficit(canonical_triple(f, f, lam, mode=mode))
        assert -1e-3 <= rep.epsilon <= 1e-3, (lam, mode, rep.epsilon)


def test_deficit_rejects_zero_mass():
    f = indicator(0, 1, 1.0, 0.01)
    z = grid_function(0.0, 0.01, np.zeros(10))
    with pytest.raises(DomainError):
        deficit(PLTriple(z, f, f, 0.5))
    with pytest.raises(DomainError):
        deficit(PLTriple(f, z, f, 0.5))


def test_deficit_report_json_round_trip():
    f, g = box_pair(0.01)
    rep = deficit(canonical_triple(f, g, 0.5))
    d = rep.to_json_dict()
    for key in ("int_f", "int_g", "int_h", "geo_mean", "epsilon", "a"):
        assert key in d


def test_pl_inequality_for_random_canonical_triples():
    rng = np.random.default_rng(21)
    for k in range(20):
        n1, n2 = rng.integers(50, 300, 2)
        f = grid_function(rng.uniform(-1, 0), 0.01, rng.uniform(0, 2, n1))
        g = grid_function(rng.uniform(-1, 0), 0.01, rng.uniform(0, 2, n2))
        lam = rng.uniform(0.1, 0.9)
        t = canonical_triple(f, g, lam)
        rep = deficit(t)
        assert rep.epsilon >= -quadrature_tol(f, g), (k, rep.epsilon)


def test_quadrature_tol_formula():
    f, g = box_pair(0.01)
    assert quadrature_tol(f, g) == pytest.approx(3 * 0.01 * (1.0 + 1.0))


# -- level-set inclusion of the canonical h ---------------------------------------


def _erode(u: IntervalUnion, delta: float) -> IntervalUnion:
    return IntervalUnion.of(
        [(a + delta, b - delta) for a, b in u.intervals if b - a > 2 * delta]
    )


def test_level_set_inclusion_in_canonical_h():
    # Minkowski combinations of superlevel sets land inside the superlevel
    # set of h at the geometric-mean level, up to one-cell boundary snap.
    rng = np.random.default_rng(31)
    for seed in range(10):
        f = random_log_concave(seed, step=2e-3)
        g = random_log_concave(seed + 50, step=2e-3)
        lam = float(rng.uniform(0.25, 0.75))
        h = sup_convolution(f, g, lam)
        for _ in range(5):
            t = rng.uniform(0.05, 0.95) * f.sup_norm()
            s = rng.uniform(0.05, 0.95) * g.sup_norm()
            A = f.superlevel(t)
            B = g.superlevel(s)
            if A.is_empty or B.is_empty:
                continue
            target = t ** (1.0 - lam) * s**lam * (1.0 - 1e-9)
            combo = minkowski_sum(A, B, 1.0 - lam, lam)
            assert _erode(combo, h.step).issubset(h.superlevel(target, strict=False))


# -- minkowski_sum -----------------------------------------------------------------


def test_minkowski_unit_intervals():
    u = IntervalUnion.of([(0.0, 1.0)])
    assert minkowski_sum(u, u).intervals == ((0.0, 2.0),)


def test_minkowski_zero_weight_collapses():
    A = IntervalUnion.of([(0.0, 1.0), (2.0, 3.0)])
    B = IntervalUnion.of([(5.0, 6.0)])
    assert minkowski_sum(A, B, 1.0, 0.0).intervals == A.intervals


def test_minkowski_two_blocks():
    A = IntervalUnion.of([(0.0, 1.0), (2.0, 3.0)])
    B = IntervalUnion.of([(0.0, 1.0)])
    assert minkowski_sum(A, B).intervals == ((0.0, 4.0),)


def test_minkowski_empty_convention():
    A = IntervalUnion.of([(0.0, 1.0)])
    assert minkowski_sum(A, IntervalUnion.of([])).is_empty
    assert minkowski_sum(IntervalUnion.of([]), A).is_empty


def test_minkowski_rejects_negative_weights():
    A = IntervalUnion.of([(0.0, 1.0)])
    with pytest.raises(DomainError):
        minkowski_sum(A, A, -1.0, 1.0)


def test_brunn_minkowski_lower_bound():
    rng = np.random.default_rng(41)
    for _ in range(50):
        blocks = rng.integers(1, 4)
        ivals = []
        x = rng.uniform(-2, 0)
        for _ in range(blocks):
            w = rng.uniform(0.05, 1.0)
            ivals.append((x, x + w))
            x += w + rng.uniform(0.05, 1.0)
        A = IntervalUnion.of(ivals)
        B = IntervalUnion.of([(0.0, rng.uniform(0.1, 2.0))])
        al, be = rng.uniform(0.1, 1.5, 2)
        S = minkowski_sum(A, B, al, be)
        assert S.measure() >= al * A.measure() + be * B.measure() - 1e-12


# -- freiman_check -----------------------------------------------------------------


def test_freiman_equal_intervals():
    u = IntervalUnion.of([(0.0, 1.0)])
    rep = freiman_check(u, u)
    assert rep.eps == pytest.approx(0.0, abs=1e-15)
    assert rep.hull_deficit_A == 0.0 and rep.hull_deficit_B == 0.0
    assert rep.hypothesis_met and rep.conclusion_holds


def test_freiman_small_gap():
    A = IntervalUnion.of([(0.0, 1.0), (1.1, 1.14)])
    B = IntervalUnion.of([(0.0, 1.0)])
    rep = freiman_check(A, B)
    # |A+B| = 2.14, |A| + |B| = 2.04, co(A) = [0, 1.14].
    assert rep.eps == pytest.approx(0.1, abs=1e-12)
    assert rep.hull_deficit_A == pytest.approx(0.1, abs=1e-12)
    assert rep.hull_deficit_B == 0.0
    assert rep.hypothesis_met and rep.conclusion_holds


def test_freiman_boundary_case_hypothesis_fails():
    A = IntervalUnion.of([(0.0, 1.0), (10.0, 11.0)])
    B = IntervalUnion.of([(0.0, 1.0)])
    rep = freiman_check(A, B)
    assert rep.eps == pytest.approx(1.0, abs=1e-12)
    assert rep.hull_deficit_A == pytest.approx(9.0)
    assert not rep.hypothesis_met  # eps == min(|A|, |B|): strictness fails
    assert rep.conclusion_holds  # vacuously


def test_freiman_rejects_empty():
    with pytest.raises(DomainError):
        freiman_check(IntervalUnion.of([]), IntervalUnion.of([(0.0, 1.0)]))


def test_freiman_conclusion_on_random_unions():
    rng = np.random.default_rng(51)
    met = 0
    for _ in range(200):
        def rand_union():
            ivals = []
            x = rng.uniform(-1, 0)
            for _ in range(int(rng.integers(1, 4))):
                w = rng.uniform(0.05, 1.0)
                ivals.append((x, x + w))
                x += w + rng.uniform(0.01, 0.5)
            return IntervalUnion.of(ivals)

        rep = freiman_check(rand_union(), rand_union())
        if rep.hypothesis_met:
            met += 1
            assert rep.conclusion_holds
    assert met > 20  # the hypothesis regime is actually exercised


# -- amgm_stability ----------------------------------------------------------------


def test_amgm_equal_inputs():
    rep = amgm_stability(1.0, 1.0, 0.5, 0.5)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds


def test_amgm_equality_case():
    rep = amgm_stability(4.0, 1.0, 0.5, 0.5)
    assert rep.lhs == pytest.approx(0.5, rel=1e-12)
    assert rep.rhs == pytest.approx(0.5, rel=1e-12)
    assert rep.holds


def test_amgm_strict_case():
    rep = amgm_stability(9.0, 1.0, 0.5, 0.25)
    assert rep.lhs == pytest.approx(2.0, rel=1e-12)
    assert rep.rhs == pytest.approx(1.0, rel=1e-12)
    assert rep.holds


def test_amgm_domain_errors():
    with pytest.raises(DomainError):
        amgm_stability(0.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        amgm_stability(1.0, -2.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        amgm_stability(1.0, 1.0, 0.1, 0.25)  # lam outside [tau, 1-tau]
    with pytest.raises(DomainError):
        amgm_stability(1.0, 1.0, 0.5, 0.7)  # tau outside (0, 1/2]
