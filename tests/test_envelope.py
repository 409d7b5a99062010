"""Concave/convex envelopes, monotonization, and interpolation checks."""

import numpy as np
import pytest

from plstab import (
    DomainError,
    EnvelopePair,
    four_point_check,
    greatest_convex_minorant,
    least_concave_majorant,
    monotonize,
    three_point_check,
)
from plstab.envelope import _CHUNK_PAIRS, _lipschitz
from plstab.plcore import _rational
from plstab.profiles import LevelProfile


def chord_majorant_oracle(T, psi):
    """O(n^2) oracle: max over all chords through pairs of sample points."""
    n = T.size
    out = psi.copy()
    for i in range(n):
        for j in range(i + 1, n):
            w = (T[i + 1 : j] - T[i]) / (T[j] - T[i])
            chord = psi[i] + w * (psi[j] - psi[i])
            out[i + 1 : j] = np.maximum(out[i + 1 : j], chord)
    return out


def profile_from_halfwidth(levels, half):
    half = np.asarray(half, dtype=float)
    return LevelProfile(
        levels=np.asarray(levels, dtype=float),
        left=-half,
        right=half,
        hull_deficit=np.zeros(half.size),
    )


def masked(psi, valid):
    """``psi`` with every point outside ``valid`` left out (NaN)."""
    return np.where(valid, psi, np.nan)


# -- least_concave_majorant ---------------------------------------------------


def test_majorant_concave_input_unchanged():
    T = np.linspace(-2, 2, 101)
    psi = -(T**2)
    m = least_concave_majorant(T, psi)
    assert np.allclose(m, psi, atol=1e-14)


def test_majorant_of_absolute_value():
    T = np.linspace(-1, 1, 201)
    m = least_concave_majorant(T, np.abs(T))
    assert np.allclose(m, 1.0, atol=1e-14)


def test_majorant_of_square_is_chord():
    T = np.linspace(0, 1, 101)
    m = least_concave_majorant(T, T**2)
    assert np.allclose(m, T, atol=1e-14)


def test_majorant_matches_chord_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(3, 60))
        T = np.sort(rng.uniform(-3, 3, n))
        T += np.arange(n) * 1e-9  # enforce strict increase
        psi = rng.uniform(-2, 2, n)
        m = least_concave_majorant(T, psi)
        ref = chord_majorant_oracle(T, psi)
        assert np.allclose(m, ref, atol=1e-10)


def test_majorant_properties():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n = int(rng.integers(3, 50))
        T = np.sort(rng.uniform(-3, 3, n))
        T += np.arange(n) * 1e-9
        psi = rng.uniform(-2, 2, n)
        m = least_concave_majorant(T, psi)
        scale = float(np.max(np.abs(m))) + 1.0
        # Majorizes the data.
        assert np.all(m >= psi - 1e-12 * scale)
        # Concave: second differences nonpositive.
        d = np.diff(m) / np.diff(T)
        assert np.all(np.diff(d) <= 1e-12 * scale)
        # Idempotent.
        assert np.allclose(least_concave_majorant(T, m), m, atol=1e-10)


def test_majorant_with_valid_mask_extrapolates_linearly():
    T = np.linspace(0, 4, 5)
    psi = np.array([100.0, 1.0, 2.0, 1.5, -50.0])
    valid = np.array([False, True, True, True, False])
    m = least_concave_majorant(T, masked(psi, valid))
    # Inside the valid range: hull of (1,1), (2,2), (3,1.5).
    assert m[1] == pytest.approx(1.0)
    assert m[2] == pytest.approx(2.0)
    assert m[3] == pytest.approx(1.5)
    # Outside: linear extension with the end slopes (1 and -0.5).
    assert m[0] == pytest.approx(0.0)
    assert m[4] == pytest.approx(1.0)


def test_majorant_requires_two_valid_points():
    T = np.array([0.0, 1.0])
    with pytest.raises(DomainError):
        least_concave_majorant(T, np.array([1.0, np.nan]))


# -- greatest_convex_minorant ---------------------------------------------------


def test_minorant_convex_input_unchanged():
    T = np.linspace(-1, 3, 120)
    psi = (T - 1.0) ** 2
    m = greatest_convex_minorant(T, psi)
    assert np.allclose(m, psi, atol=1e-14)


def test_minorant_of_negative_absolute_value():
    T = np.linspace(-1, 1, 201)
    m = greatest_convex_minorant(T, -np.abs(T))
    assert np.allclose(m, -1.0, atol=1e-14)


def test_minorant_of_sqrt_is_chord():
    T = np.linspace(0, 1, 101)
    m = greatest_convex_minorant(T, np.sqrt(T))
    assert np.allclose(m, T, atol=1e-14)


def test_minorant_is_dual_of_majorant():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        T = np.sort(rng.uniform(-2, 2, n))
        T += np.arange(n) * 1e-9
        psi = rng.uniform(-1, 1, n)
        assert np.allclose(
            greatest_convex_minorant(T, psi),
            -least_concave_majorant(T, -psi),
            atol=1e-12,
        )


# -- monotonize -------------------------------------------------------------------


def test_monotonize_noop_on_sorted():
    u = np.array([5.0, 4.0, 2.5, 1.0])
    assert np.allclose(monotonize(u), u)


def test_monotonize_tent_plateaus_left():
    u = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    assert np.allclose(monotonize(u), [3, 3, 3, 2, 1])


def test_monotonize_increasing_to_constant():
    u = np.array([1.0, 2.0, 3.0])
    assert np.allclose(monotonize(u), [3, 3, 3])


def test_monotonize_is_idempotent_and_dominates():
    rng = np.random.default_rng(20)
    for _ in range(50):
        u = rng.uniform(-2, 2, int(rng.integers(2, 40)))
        m = monotonize(u)
        assert np.all(m >= u - 1e-15)
        assert np.allclose(monotonize(m), m)


# -- EnvelopePair ------------------------------------------------------------------


def test_envelope_pair_validation():
    T = np.array([0.0, 1.0, 2.0])
    lower = np.array([-1.0, -1.0, -1.0])
    upper = np.array([1.0, 1.0, 1.0])
    EnvelopePair(T, lower, upper, 0.0, 0.0)
    with pytest.raises(DomainError):
        EnvelopePair(np.array([0.0, 0.0, 1.0]), lower, upper, 0.0, 0.0)
    with pytest.raises(DomainError):
        EnvelopePair(T[:2], lower[:2], upper[:3], 0.0, 0.0)


# -- three_point_check --------------------------------------------------------------


def geometric_levels(n=65, lo=1e-3, hi=1.0):
    return np.geomspace(lo, hi, n)


def test_three_point_concave_profiles_pass():
    lv = geometric_levels()
    T = np.log(lv)
    # Concave, nonincreasing right edges in log-level.
    b = 2.0 - 0.1 * (T - T[0]) - 0.01 * (T - T[0]) ** 2
    p = profile_from_halfwidth(lv, b)
    rep = three_point_check(p, p, p, 0.5, sigma=0.0)
    assert rep.count == 0
    assert rep.checked > 0


def test_three_point_planted_convex_widths():
    lv = geometric_levels(65)
    u = np.linspace(0.0, 1.0, 65)
    b = u**2 + 1.0  # convex in the log-level index
    p = profile_from_halfwidth(lv, b)
    rep = three_point_check(p, p, p, 0.5, sigma=0.0)
    assert rep.count > 0
    # Analytic worst gap: max of (u^2 + v^2)/2 - ((u+v)/2)^2 = 0.25 at (0, 1).
    assert rep.max_excess == pytest.approx(0.25, abs=1e-9)


def test_three_point_sigma_suppresses():
    lv = geometric_levels(65)
    u = np.linspace(0.0, 1.0, 65)
    p = profile_from_halfwidth(lv, u**2 + 1.0)
    rep = three_point_check(p, p, p, 0.5, sigma=0.3)
    assert rep.count == 0


def test_three_point_requires_shared_levels():
    p1 = profile_from_halfwidth(geometric_levels(16), np.ones(16))
    p2 = profile_from_halfwidth(geometric_levels(16, lo=2e-3), np.ones(16))
    with pytest.raises(DomainError):
        three_point_check(p1, p2, p1, 0.5, 0.0)


# -- four_point_check ---------------------------------------------------------------


def test_four_point_concave_passes_at_zero_sigma():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(4, 60))
        T = np.linspace(0, 1, n)
        slopes = np.sort(rng.uniform(-2, 2, n - 1))[::-1]
        psi = np.concatenate([[0.0], np.cumsum(slopes * np.diff(T))])
        [rep] = four_point_check(T, [psi], float(rng.uniform(0.2, 0.8)), 0.0)
        assert rep.count == 0, rep.worst


def test_four_point_linear_saturates():
    T = np.linspace(0, 1, 33)
    [rep] = four_point_check(T, [3.0 * T - 1.0], 0.4, 0.0)
    assert rep.count == 0


def test_four_point_planted_square():
    T = np.linspace(0, 1, 4)
    [rep] = four_point_check(T, [T**2], 0.5, 0.0)
    assert rep.count == 1
    assert rep.max_excess == pytest.approx(4.0 / 9.0, abs=1e-9)
    assert rep.worst == pytest.approx((0.0, 1.0, 1.0 / 3.0, 2.0 / 3.0), abs=1e-12)


def test_four_point_sigma_suppresses_planted():
    T = np.linspace(0, 1, 4)
    [rep] = four_point_check(T, [T**2], 0.5, 0.5)
    assert rep.count == 0


def test_four_point_report_names_the_worst_quadruple():
    T = np.linspace(0, 1, 4)
    [rep] = four_point_check(T, [T**2], 0.5, 0.0)
    assert rep.count == 1
    assert len(rep.worst) == 4


def test_four_point_requires_uniform_grid():
    T = np.array([0.0, 0.1, 0.5, 1.0])
    with pytest.raises(DomainError):
        four_point_check(T, [T**2], 0.5, 0.0)


def test_four_point_rejects_more_than_4096_points():
    T = np.arange(4097.0)
    with pytest.raises(DomainError, match="limited to 4096 points, got 4097"):
        four_point_check(T, [-(T**2)], 0.5, 0.0)


# -- vectorised checks against the per-row loops they replaced ----------------------

CHECK_LAMBDAS = [0.25, 0.3, 0.5, 0.7, 5.0 / 6.0, 0.37]


def loop_snap(u, n):
    return np.clip(np.floor(u + 0.5).astype(np.int64), 0, n - 1)


def loop_three_point(profile_a, profile_b, profile_c, lam, sigma):
    """The per-row loop of three_point_check, kept as the reference.

    Targets snap by the package's tie rule: half up on the integer
    numerator when lam = p/q, ``floor(u + 0.5)`` otherwise.
    """
    levels = profile_a.levels
    n = levels.size
    wa = 0.5 * (profile_a.right - profile_a.left)
    wb = 0.5 * (profile_b.right - profile_b.left)
    ua, ub, uc = profile_a.usable(), profile_b.usable(), profile_c.usable()
    la = _lipschitz(wa, ua)
    lb = _lipschitz(wb, ub)
    scale = 1.0 + max(
        float(np.nanmax(np.abs(wa[ua]))) if ua.any() else 0.0,
        float(np.nanmax(np.abs(wb[ub]))) if ub.any() else 0.0,
    )
    guard = 1e-12 * scale
    count = checked = 0
    max_excess = 0.0
    worst = None
    pq = _rational(lam)
    jj = np.arange(n)
    for i in range(n):
        if not ua[i]:
            continue
        if pq is None:
            u = (1.0 - lam) * i + lam * jj
            k = loop_snap(u, n)
            dist = np.abs(u - k)
        else:
            p, q = pq
            m = (q - p) * i + p * jj
            k = (2 * m + q) // (2 * q)
            dist = np.abs(m - q * k) / q
        ok = ub & ua[k] & ub[k] & uc[k]
        if not ok.any():
            continue
        j = np.flatnonzero(ok)
        kk = k[j]
        slack = (la + lb) * dist[j]
        lhs = (1.0 - lam) * wa[i] + lam * wb[j]
        rhs = (1.0 - lam) * wa[kk] + lam * wb[kk]
        excess = lhs - rhs - sigma - slack
        checked += j.size
        bad = excess > guard
        if bad.any():
            count += int(bad.sum())
            w = int(np.argmax(excess[bad]))
            if excess[bad][w] > max_excess:
                max_excess = float(excess[bad][w])
                jw = j[bad][w]
                worst = (float(levels[i]), float(levels[jw]), float(levels[k[jw]]))
    return count, checked, max_excess, worst


def loop_four_point(T, psi, lam, sigma, valid):
    """The per-row loop of four_point_check, kept as the reference.

    Targets snap as in ``loop_three_point``.
    """
    n = T.size
    valid = valid & np.isfinite(psi)
    lip = _lipschitz(psi, valid)
    idx = np.flatnonzero(valid)
    guard = 1e-12 * (1.0 + float(np.max(np.abs(psi[idx]))) if idx.size else 1.0)
    count = checked = 0
    max_excess = 0.0
    worst = None
    pq = _rational(lam)
    denom = 2.0 - lam
    for pos, i in enumerate(idx):
        j = idx[pos:]
        if pq is None:
            u12 = (i + (1.0 - lam) * j) / denom
            u21 = ((1.0 - lam) * i + j) / denom
            k12 = loop_snap(u12, n)
            k21 = loop_snap(u21, n)
            dist = np.abs(u12 - k12) + np.abs(u21 - k21)
        else:
            p, q = pq
            d = 2 * q - p
            m12 = q * i + (q - p) * j
            m21 = (q - p) * i + q * j
            k12 = (2 * m12 + d) // (2 * d)
            k21 = (2 * m21 + d) // (2 * d)
            dist = (np.abs(m12 - d * k12) + np.abs(m21 - d * k21)) / d
        ok = valid[k12] & valid[k21]
        if not ok.any():
            continue
        j, k12, k21 = j[ok], k12[ok], k21[ok]
        snap = dist[ok]
        excess = psi[i] + psi[j] - psi[k12] - psi[k21] - sigma - lip * snap
        checked += j.size
        bad = excess > guard
        if bad.any():
            count += int(bad.sum())
            w = int(np.argmax(excess[bad]))
            if excess[bad][w] > max_excess:
                max_excess = float(excess[bad][w])
                worst = (
                    float(T[i]),
                    float(T[j[bad][w]]),
                    float(T[k12[bad][w]]),
                    float(T[k21[bad][w]]),
                )
    return count, checked, max_excess, worst


def assert_report_matches(rep, ref):
    count, checked, max_excess, worst = ref
    assert (rep.count, rep.checked, rep.worst) == (count, checked, worst)
    assert rep.max_excess == pytest.approx(max_excess, rel=1e-12, abs=0.0)


def noisy_profile(rng, levels, keep):
    """Roughly concave half-widths with noise and a random usable mask."""
    u = np.linspace(0.0, 1.0, levels.size)
    half = 2.0 - u - 0.5 * u**2 + 0.02 * rng.standard_normal(levels.size)
    p = profile_from_halfwidth(levels, half)
    return p.restricted(rng.random(levels.size) < keep)


@pytest.mark.parametrize("lam", CHECK_LAMBDAS)
@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_three_point_matches_row_loop(lam, sigma):
    rng = np.random.default_rng(int(1000 * lam) + int(1e4 * sigma))
    lv = geometric_levels(300)
    pa, pb, pc = (noisy_profile(rng, lv, keep) for keep in (0.8, 0.85, 0.9))
    assert pa.usable().sum() * pb.usable().sum() > 3 * _CHUNK_PAIRS
    rep = three_point_check(pa, pb, pc, lam, sigma=sigma)
    ref = loop_three_point(pa, pb, pc, lam, sigma)
    assert ref[0] > 0
    assert_report_matches(rep, ref)


@pytest.mark.parametrize("lam", CHECK_LAMBDAS)
@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_four_point_matches_row_loop(lam, sigma):
    rng = np.random.default_rng(int(1000 * lam) + int(1e4 * sigma) + 1)
    n = 450
    T = np.linspace(-3.0, 0.0, n)
    psi = -(T**2) + 0.01 * rng.standard_normal(n)
    valid = rng.random(n) < 0.8
    nv = int(valid.sum())
    assert nv * (nv + 1) // 2 > 3 * _CHUNK_PAIRS
    [rep] = four_point_check(T, [masked(psi, valid)], lam, sigma)
    ref = loop_four_point(T, psi, lam, sigma, valid)
    assert ref[0] > 0
    assert_report_matches(rep, ref)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.37])
def test_four_point_several_psis_share_one_geometry(lam):
    # Finite at the same points, each psi gets the report it gets alone.
    rng = np.random.default_rng(int(1000 * lam))
    T = np.linspace(-3.0, 0.0, 200)
    right = -(T**2) + 0.01 * rng.standard_normal(T.size)
    left = T**2 + 0.02 * rng.standard_normal(T.size)
    valid = rng.random(T.size) < 0.8
    psis = [masked(right, valid), masked(-left, valid)]
    reports = four_point_check(T, psis, lam, 1e-3)
    for psi, rep in zip(psis, reports):
        [alone] = four_point_check(T, [psi], lam, 1e-3)
        assert rep == alone


def test_checks_with_too_few_usable_points():
    lv = geometric_levels(8)
    p = profile_from_halfwidth(lv, np.ones(8))
    none = p.restricted(np.zeros(8, dtype=bool))
    rep = three_point_check(none, p, p, 0.3, 0.0)
    assert (rep.count, rep.checked, rep.max_excess, rep.worst) == (0, 0, 0.0, None)
    T = np.linspace(0.0, 1.0, 8)
    [rep] = four_point_check(T, [masked(T**2, np.zeros(8, dtype=bool))], 0.3, 0.0)
    assert (rep.count, rep.checked, rep.max_excess, rep.worst) == (0, 0, 0.0, None)
    one = np.zeros(8, dtype=bool)
    one[3] = True
    [rep] = four_point_check(T, [masked(T**2, one)], 0.3, 0.0)
    assert (rep.count, rep.checked) == (0, 1)


def test_four_point_worst_is_first_of_tied_maxima():
    # One dip at d: in every row i < d - 10 the pairs (i, (3d - i)/2) and
    # (i, 3d - 2i) snap one target exactly onto it with excess 1, so the
    # maximum is tied across rows spread over several chunks.
    # Points near d are invalid, so no pair sends both targets to the dip.
    n, d = 600, 150
    T = np.linspace(0.0, 1.0, n)
    psi = np.zeros(n)
    psi[d] = -1.0
    valid = np.abs(np.arange(n) - d) > 10
    valid[d] = True
    [rep] = four_point_check(T, [masked(psi, valid)], 0.5, 0.0)
    assert rep.max_excess == 1.0
    assert rep.worst == (T[0], T[3 * d // 2], T[d // 2], T[d])
    assert_report_matches(rep, loop_four_point(T, psi, 0.5, 0.0, valid))


def test_three_point_exact_tie_rounds_half_up():
    # lam = 3/10, (i, j) = (6, 1): the target 0.7*6 + 0.3*1 is exactly 4.5,
    # which the float rule computes as 4.499999999999999 and sends to 4.
    # Half up on the numerator 7*6 + 3*1 = 45 sends it to 5.
    assert np.floor((1.0 - 0.3) * 6 + 0.3 * 1 + 0.5) == 4.0
    lv = geometric_levels(7)
    left = np.zeros(7)
    a = profile_from_halfwidth(lv, np.ones(7)).restricted(np.isin(np.arange(7), [5, 6]))
    right_b = np.ones(7)
    right_b[1] = 3.0
    b = LevelProfile(lv, left, right_b, np.zeros(7)).restricted(np.isin(np.arange(7), [1, 5]))
    c = profile_from_halfwidth(lv, np.ones(7)).restricted(np.arange(7) == 5)
    rep = three_point_check(a, b, c, 0.3, 0.0)
    # Pairs (5, 5) and (6, 1) land on level 5; the float rule would send
    # (6, 1) to the unusable level 4 and check one pair with no violation.
    # Half-widths: a = 1, b = 1.5 at level 1 and 0.5 at level 5, so
    # lb = 1/4, snap 1/2, excess 0.3 * 1.0 - 0.125 = 0.175.
    assert (rep.count, rep.checked) == (1, 2)
    assert rep.worst == (lv[6], lv[1], lv[5])
    assert rep.max_excess == pytest.approx(0.175, rel=1e-12)
    assert_report_matches(rep, loop_three_point(a, b, c, 0.3, 0.0))


def test_four_point_exact_tie_rounds_half_up():
    # lam = 2/5, (i, j) = (0, 4): T_{1,2} sits at index 12/8 = 1.5 exactly,
    # which the float rule computes as 1.4999999999999998 and sends to the
    # invalid point 1.  Half up on the numerator sends it to 2.
    assert np.floor((0 + (1.0 - 0.4) * 4) / (2.0 - 0.4) + 0.5) == 1.0
    T = np.linspace(0.0, 1.0, 5)
    psi = np.array([2.0, 0.0, 0.0, 0.0, 2.0])
    valid = np.array([True, False, True, True, True])
    [rep] = four_point_check(T, [masked(psi, valid)], 0.4, 0.0)
    # Lipschitz constant 2, snap distance 4/8 + 4/8: excess 4 - 2 = 2.
    assert rep.worst == (T[0], T[4], T[2], T[3])
    assert rep.max_excess == 2.0
    assert_report_matches(rep, loop_four_point(T, psi, 0.4, 0.0, valid))


def test_row_chunks_cover_rows_in_bounded_chunks():
    from plstab.envelope import _row_chunks

    for lengths in (
        np.full(300, 300),
        500 - np.arange(500),
        np.array([3 * _CHUNK_PAIRS, 1, 1, 2 * _CHUNK_PAIRS]),
    ):
        chunks = list(_row_chunks(lengths))
        assert chunks[0][0] == 0 and chunks[-1][1] == lengths.size
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        for r0, r1 in chunks:
            assert r1 == r0 + 1 or lengths[r0:r1].sum() <= _CHUNK_PAIRS
    assert list(_row_chunks(np.zeros(4, dtype=int))) == []
    assert list(_row_chunks(np.zeros(0, dtype=int))) == []
