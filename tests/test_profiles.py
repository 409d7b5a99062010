"""Level profiles: extraction, good levels, regularization, bubble rebuild."""

import numpy as np
import pytest

from plstab import (
    DomainError,
    build_bubble,
    canonical_triple,
    deficit,
    extract_profile,
    from_samples,
    good_levels,
    GridFunction,
    l1_distance,
    quadrature_tol,
    regularize,
)
from plstab.profiles import LevelProfile, default_good_threshold, level_grid
from plstab.synth import gaussian, indicator, random_grid_function

STEP = 1e-3


def make_profile(levels, left, right, valid=None):
    levels = np.asarray(levels, dtype=float)
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    hull = np.where(np.isnan(left), np.nan, 0.0)
    p = LevelProfile(levels=levels, left=left, right=right, hull_deficit=hull)
    return p if valid is None else p.restricted(valid)


# -- LevelProfile -----------------------------------------------------------------


def test_profile_rejects_nans_on_different_levels():
    levels = np.array([0.1, 0.2, 0.4])
    with pytest.raises(DomainError, match="same levels"):
        LevelProfile(levels, np.array([0.0, np.nan, 0.0]), np.ones(3), np.zeros(3))
    with pytest.raises(DomainError, match="same levels"):
        LevelProfile(levels, np.zeros(3), np.array([1.0, 1.0, np.nan]), np.zeros(3))


def test_profile_rejects_infinite_boundaries():
    with pytest.raises(DomainError, match="finite or NaN"):
        LevelProfile(np.array([0.1, 0.2]), np.array([-np.inf, 0.0]), np.ones(2), np.zeros(2))


def test_restricted_makes_levels_outside_keep_absent():
    p = make_profile([0.1, 0.2, 0.4], [-3.0, np.nan, -1.0], [3.0, np.nan, 1.0])
    r = p.restricted([True, True, False])
    assert np.array_equal(r.usable(), [True, False, False])
    assert np.isnan(r.right[2]) and np.isnan(r.hull_deficit[2])
    assert r.left[0] == -3.0 and r.hull_deficit[0] == 0.0


# -- level_grid -------------------------------------------------------------------


def test_level_grid_geometric():
    g = level_grid(1e-4, 1.0, 5)
    assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(1.0)
    ratios = g[1:] / g[:-1]
    assert np.allclose(ratios, ratios[0])


def test_level_grid_validation():
    with pytest.raises(DomainError):
        level_grid(0.0, 1.0, 4)
    with pytest.raises(DomainError):
        level_grid(1.0, 0.5, 4)
    with pytest.raises(DomainError):
        level_grid(0.1, 1.0, 1)


# -- extract_profile ----------------------------------------------------------------


def test_profile_of_box():
    f = indicator(0.0, 1.0, 1.0, STEP)
    p = extract_profile(f, np.array([0.5]))
    assert p.left[0] == pytest.approx(0.0)
    assert p.right[0] == pytest.approx(1.0)
    assert p.hull_deficit[0] == pytest.approx(0.0)
    assert p.usable()[0]


def test_profile_of_two_bump():
    v = np.concatenate([np.ones(1000), np.zeros(1000), np.ones(1000)])
    f = GridFunction(0.0, STEP, v)
    p = extract_profile(f, np.array([0.5]))
    assert p.left[0] == pytest.approx(0.0)
    assert p.right[0] == pytest.approx(3.0)
    assert p.hull_deficit[0] == pytest.approx(1.0)


def test_profile_of_triangle():
    f = from_samples(lambda x: np.clip(1.0 - np.abs(x), 0.0, None), -1.0, 1.0, STEP)
    p = extract_profile(f, np.array([0.25, 0.75]))
    assert abs(p.left[0] - (-0.75)) <= 2 * STEP
    assert abs(p.right[0] - 0.75) <= 2 * STEP
    assert abs(p.left[1] - (-0.25)) <= 2 * STEP
    assert abs(p.right[1] - 0.25) <= 2 * STEP


def test_profile_levels_above_sup_are_invalid():
    f = indicator(0.0, 1.0, 1.0, 0.01)
    p = extract_profile(f, np.array([0.5, 2.0]))
    assert p.usable()[0] and not p.usable()[1]
    assert np.isnan(p.left[1]) and np.isnan(p.right[1])


def test_profile_width_matches_superlevel_measure():
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = GridFunction(0.0, 0.01, rng.uniform(0, 1, 200))
        t = rng.uniform(0.0, 0.9)
        p = extract_profile(f, np.array([t]))
        if not p.usable()[0]:
            continue
        width = p.right[0] - p.left[0]
        assert width - p.hull_deficit[0] == pytest.approx(
            f.superlevel_measure(t), rel=1e-12, abs=1e-12
        )


def loop_extract_profile(f, levels):
    """The per-level loop of extract_profile, kept as the reference."""
    levels = np.asarray(levels, dtype=float)
    n = levels.size
    left = np.full(n, np.nan)
    right = np.full(n, np.nan)
    deficit = np.full(n, np.nan)
    vals = f.values
    counts = vals.size - np.searchsorted(np.sort(vals), levels, side="right")
    for k, t in enumerate(levels):
        if counts[k] == 0:
            continue
        idx = np.flatnonzero(vals > t)
        lo = f.origin + idx[0] * f.step
        hi = f.origin + (idx[-1] + 1) * f.step
        left[k] = lo
        right[k] = hi
        deficit[k] = (hi - lo) - counts[k] * f.step
    return left, right, ~np.isnan(left), deficit


def plateau_values():
    return np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 0.5, 0.0, 3.0, 3.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "values, levels",
    [
        # plateaus, with levels exactly at cell values (the set is strict >)
        (plateau_values(), np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])),
        (plateau_values(), np.geomspace(0.01, 3.0, 64)),
        # all-zero function: every level is empty
        (np.zeros(50), np.geomspace(1e-6, 1.0, 16)),
        # single cell, levels below, at and above its value
        (np.array([0.7]), np.array([0.1, 0.7, 0.9])),
        (np.array([0.0]), np.array([0.1, 0.7])),
        # support touching both ends of the window
        (np.array([2.0, 0.0, 0.0, 1.0, 2.0]), np.array([0.5, 1.0, 1.5, 2.0])),
    ],
)
def test_extract_profile_matches_level_loop(values, levels):
    f = GridFunction(-0.37, 0.01, values)
    p = extract_profile(f, levels)
    left, right, valid, deficit = loop_extract_profile(f, levels)
    assert p.left.tobytes() == left.tobytes()
    assert p.right.tobytes() == right.tobytes()
    assert p.hull_deficit.tobytes() == deficit.tobytes()
    assert np.array_equal(p.usable(), valid)


def test_extract_profile_matches_level_loop_on_random_functions():
    rng = np.random.default_rng(31)
    for seed in range(10):
        f = random_grid_function(rng, step=4e-3, window=(-2.0, 2.0))
        levels = level_grid(1e-4, f.sup_norm() * 1.1, 256)
        # also probe every 37th cell value exactly
        levels = np.unique(np.concatenate([levels, f.values[f.values > 0][::37]]))
        p = extract_profile(f, levels)
        left, right, valid, deficit = loop_extract_profile(f, levels)
        assert p.left.tobytes() == left.tobytes(), seed
        assert p.right.tobytes() == right.tobytes(), seed
        assert p.hull_deficit.tobytes() == deficit.tobytes(), seed
        assert np.array_equal(p.usable(), valid), seed


# -- good_levels ---------------------------------------------------------------------


def test_good_levels_equality_triple():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3, window=(-6.0, 6.0))
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    levels = level_grid(1e-3, 0.99 * f.sup_norm(), 64)
    rep = good_levels(t, levels, threshold=quadrature_tol(f, f) + 0.05)
    assert rep.mask.all()
    assert rep.bad_level_measure == 0.0


def test_good_levels_box_pair_zero_excess():
    f = indicator(0.0, 1.0, 1.0, STEP)
    g = indicator(0.0, 2.0, 1.0, STEP)
    t = canonical_triple(f, g, 0.5, mode="snap")
    levels = np.linspace(0.05, 0.95, 19)
    rep = good_levels(t, levels, threshold=0.05)
    # Measures are 1, 2, 1.5 at every level in (0,1): excess exactly 0.
    assert np.allclose(rep.excess, 0.0, atol=5 * STEP)
    assert rep.mask.all()


def _default_threshold(triple):
    rep = deficit(triple)
    return default_good_threshold(triple.tau, rep.epsilon, rep.int_h)


def test_good_levels_default_threshold_scales():
    f = gaussian(0.0, 1.0, 1.0, step=2e-3, window=(-6.0, 6.0))
    # Snap mode leaves a small positive deficit, giving a positive default.
    t = canonical_triple(f, f, 0.5, mode="snap")
    levels = level_grid(1e-3, 0.99, 16)
    rep = good_levels(t, levels, _default_threshold(t))
    assert rep.threshold > 0.0
    # A clean halfgrid equality triple clamps the default at zero.
    t2 = canonical_triple(f, f, 0.5, mode="halfgrid")
    rep2 = good_levels(t2, levels, _default_threshold(t2))
    assert rep2.threshold >= 0.0 and np.isfinite(rep2.threshold)


# -- regularize ----------------------------------------------------------------------


def test_regularize_monotone_profile_unchanged():
    p = make_profile([0.1, 0.2, 0.4], [-3.0, -2.0, -1.0], [3.0, 2.0, 1.0])
    r = regularize(p)
    assert np.allclose(r.left, p.left) and np.allclose(r.right, p.right)


def test_regularize_running_extrema():
    p = make_profile([0.1, 0.2, 0.4], [0.0, 0.0, 0.0], [3.0, 1.0, 2.0])
    r = regularize(p)
    assert np.allclose(r.right, [3.0, 2.0, 2.0])


def test_regularize_skips_invalid_levels():
    p = make_profile(
        [0.1, 0.2, 0.4],
        [0.0, 0.0, 0.0],
        [3.0, 9.0, 2.0],
        valid=[True, False, True],
    )
    r = regularize(p)
    assert np.allclose(r.right[[0, 2]], [3.0, 2.0])
    # The excluded middle level is filled from the level above.
    assert r.right[1] == pytest.approx(2.0)


def test_regularize_is_idempotent():
    p = make_profile([0.1, 0.2, 0.4], [-1.0, 0.5, 0.0], [3.0, 1.0, 2.0])
    r1 = regularize(p)
    r2 = regularize(r1)
    assert np.allclose(r1.left[r1.usable()], r2.left[r2.usable()])
    assert np.allclose(r1.right[r1.usable()], r2.right[r2.usable()])


def test_regularize_intervals_are_nested():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        levels = np.sort(rng.uniform(0.01, 1.0, n))
        mid = rng.uniform(-1, 1, n)
        wid = rng.uniform(0.0, 2.0, n)
        p = make_profile(levels, mid - wid, mid + wid)
        r = regularize(p)
        a, b = r.left[r.usable()], r.right[r.usable()]
        assert np.all(np.diff(a) >= -1e-12)
        assert np.all(np.diff(b) <= 1e-12)
        assert np.all(a <= b + 1e-12)


def loop_regularize(profile):
    """Reference: the per-level running hull, from the top level down."""
    usable = profile.usable()
    n = profile.levels.size
    left = np.full(n, np.nan)
    right = np.full(n, np.nan)
    run_left = np.inf
    run_right = -np.inf
    assigned = np.zeros(n, dtype=bool)
    for k in range(n - 1, -1, -1):
        if usable[k]:
            run_left = min(run_left, profile.left[k])
            run_right = max(run_right, profile.right[k])
        if np.isfinite(run_left):
            left[k] = run_left
            right[k] = run_right
            assigned[k] = True
    return left, right, assigned


def test_regularize_matches_level_loop_on_random_masked_profiles():
    rng = np.random.default_rng(23)
    for case in range(200):
        n = int(rng.integers(1, 80))
        levels = np.sort(rng.uniform(0.01, 1.0, n)) + np.arange(n) * 1e-9
        mid = rng.uniform(-1, 1, n)
        wid = rng.uniform(0.0, 2.0, n)
        left, right = mid - wid, mid + wid
        empty = rng.random(n) < 0.2
        valid = rng.random(n) < 0.7
        # At least one usable level, so regularize accepts the profile.
        k = rng.integers(n)
        empty[k], valid[k] = False, True
        left[empty] = np.nan
        right[empty] = np.nan
        p = make_profile(levels, left, right, valid=valid)
        r = regularize(p)
        ref_left, ref_right, assigned = loop_regularize(p)
        assert r.left.tobytes() == ref_left.tobytes(), case
        assert r.right.tobytes() == ref_right.tobytes(), case
        assert np.array_equal(r.usable(), assigned), case
        ref_deficit = np.where(assigned, 0.0, np.nan)
        assert r.hull_deficit.tobytes() == ref_deficit.tobytes(), case


def test_regularize_rejects_all_invalid():
    p = make_profile([0.1, 0.2], [np.nan, np.nan], [np.nan, np.nan])
    with pytest.raises(DomainError):
        regularize(p)


# -- build_bubble -----------------------------------------------------------------------


def test_bubble_from_box_profile():
    f = indicator(0.0, 1.0, 1.0, STEP)
    levels = level_grid(1e-3, 1.0 - 1e-9, 256)
    p = regularize(extract_profile(f, levels))
    fb = build_bubble(p, 0.0, step=STEP)
    assert l1_distance(fb, f) <= 2 * STEP * f.sup_norm()


def test_bubble_fills_two_bump_gap():
    v = np.concatenate([np.ones(1000), np.zeros(1000), np.ones(1000)])
    f = GridFunction(0.0, STEP, v)
    levels = level_grid(1e-3, 1.0 - 1e-9, 256)
    p = regularize(extract_profile(f, levels))
    fb = build_bubble(p, 0.0, step=STEP)
    ref = GridFunction(0.0, STEP, np.ones(3000))
    assert l1_distance(fb, ref) <= 3 * STEP


def test_bubble_triangle_round_trip():
    f = from_samples(lambda x: np.clip(1.0 - np.abs(x), 0.0, None), -1.0, 1.0, STEP)
    pos = f.values[f.values > 0]
    levels = level_grid(pos.min() * 0.999, f.sup_norm() * (1 - 1e-9), 4096)
    p = regularize(extract_profile(f, levels))
    fb = build_bubble(p, 0.0, step=STEP)
    assert l1_distance(fb, f) <= 2 * STEP * f.sup_norm()


def test_bubble_output_is_bubble_shaped():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        levels = np.sort(rng.uniform(0.01, 1.0, n))
        mid = rng.uniform(-1, 1, n)
        wid = rng.uniform(0.05, 2.0, n)
        p = regularize(make_profile(levels, mid - wid, mid + wid))
        fb = build_bubble(p, 0.0, step=0.01)
        v = fb.values
        peak = int(np.argmax(v))
        assert np.all(np.diff(v[: peak + 1]) >= 0.0)
        assert np.all(np.diff(v[peak:]) <= 0.0)


def test_bubble_rejects_intervals_that_are_not_nested():
    p = make_profile([0.2, 0.5], [0.0, -1.0], [1.0, 2.0])
    with pytest.raises(DomainError, match="nested"):
        build_bubble(p, 0.0, step=0.01)


def test_bubble_degenerate_profile_is_zero():
    p = make_profile([0.5, 0.7], [np.nan, np.nan], [np.nan, np.nan])
    fb = build_bubble(p, 0.0, step=0.01)
    assert fb.is_zero()


def test_bubble_floor_above_all_levels_is_zero():
    p = make_profile([0.5], [0.0], [1.0])
    fb = build_bubble(p, 2.0, step=0.01)
    assert fb.is_zero()


def test_bubble_superlevels_match_recorded_intervals():
    p = regularize(
        make_profile([0.2, 0.5, 0.8], [-2.0, -1.0, -0.5], [2.0, 1.5, 0.25])
    )
    fb = build_bubble(p, 0.0, step=0.01)
    for k in range(3):
        cells = np.flatnonzero(fb.values >= p.levels[k] * (1 - 1e-12))
        assert cells[-1] - cells[0] + 1 == cells.size  # one run of cells
        a = fb.origin + cells[0] * fb.step
        b = fb.origin + (cells[-1] + 1) * fb.step
        assert abs(a - p.left[k]) <= 0.011
        assert abs(b - p.right[k]) <= 0.011


def _bubble_loop(profile, floor_level, step):
    """The per-level loop ``build_bubble`` used to run: the reference for
    its two ``searchsorted`` calls."""
    keep = profile.usable() & (profile.levels >= floor_level)
    lv, a, b = profile.levels[keep], profile.left[keep], profile.right[keep]
    if keep.any():
        lo, hi = float(a.min()), float(b.max())
    elif profile.usable().any():
        lo = float(profile.left[profile.usable()].min())
        hi = float(profile.right[profile.usable()].max())
    else:
        lo, hi = 0.0, 1.0
    n = max(1, int(np.ceil((hi - lo) / step - 1e-9)))
    centers = lo + step * (np.arange(n) + 0.5)
    out = np.zeros(n)
    # Levels ascend, intervals are nested: later (higher) levels overwrite.
    for t, ak, bk in zip(lv, a, b):
        out[(centers >= ak) & (centers < bk)] = t
    return GridFunction(lo, step, out)


def test_bubble_matches_the_per_level_loop():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        levels = np.sort(rng.uniform(0.01, 1.0, n))
        # Interval ends on a coarse grid, so that ends and centers coincide.
        mid = np.round(rng.uniform(-1, 1, n), 2)
        wid = np.round(rng.uniform(0.0, 1.5, n), 2)
        left, right = mid - wid, mid + wid
        empty = rng.uniform(size=n) < 0.2
        left[empty] = right[empty] = np.nan
        valid = rng.uniform(size=n) < 0.8
        if not (valid & ~empty).any():
            continue
        p = regularize(make_profile(levels, left, right, valid=valid))
        floor = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        step = rng.choice([0.005, 0.01, 0.02, rng.uniform(0.001, 0.05)])
        got = build_bubble(p, floor, step=step)
        want = _bubble_loop(p, floor, step=step)
        assert got.origin == want.origin and got.step == want.step
        assert np.array_equal(got.values, want.values)


# -- hull-distance accounting -------------------------------------------------------


def test_bubble_distance_bounded_by_hull_deficit_integral():
    rng = np.random.default_rng(12)
    for _ in range(50):
        # Random two-block functions: the bubble fills the gap, so the L1
        # distance decomposes over levels into the hull deficit plus the
        # below-floor layer.
        h1, h2 = rng.uniform(0.2, 1.0, 2)
        w1, w2 = rng.uniform(0.1, 0.6, 2)
        gap = rng.uniform(0.05, 0.8)
        step = 0.005
        n1, ng, n2 = (max(1, int(round(w / step))) for w in (w1, gap, w2))
        v = np.concatenate([np.full(n1, h1), np.zeros(ng), np.full(n2, h2)])
        f = GridFunction(0.0, step, v)
        floor = rng.uniform(0.0, 0.15)
        sup = f.sup_norm()
        # Levels must cover the whole value range, not just the distinct
        # positive values: the layer between 0 and the lowest block height
        # carries hull-deficit mass too.
        levels = level_grid(sup * 1e-4, sup * (1 - 1e-9), 2048)
        prof = extract_profile(f, levels)
        reg = regularize(prof)
        fb = build_bubble(reg, floor, step=step)
        # Trapezoid integral of the hull deficit over levels >= floor.
        hd = np.where(np.isnan(prof.hull_deficit), 0.0, prof.hull_deficit)
        lv = prof.levels
        keep = lv >= floor
        hd_int = float(np.trapezoid(hd[keep], lv[keep])) if keep.sum() > 1 else 0.0
        # Level-grid quantization adds one geometric spacing of slack, and
        # the layer below the lowest level adds its full width.
        spacing = float(np.max(np.diff(lv))) if lv.size > 1 else 0.0
        support = fb.superlevel_measure(0.0)
        tail = float(np.sum(f.values[f.values < floor]) * step)
        budget = (
            hd_int
            + max(floor, sup * 1e-4) * support
            + tail
            + 2 * spacing * support
            + 4 * step
        )
        assert l1_distance(f, fb) <= budget
