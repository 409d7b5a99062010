"""Triples, the defining pointwise condition, sup-convolution, deficits,
the level-set inclusion of the canonical h, and AM-GM stability."""

import math
import warnings

import numpy as np
import pytest

from plstab import (
    ConditionReport,
    DomainError,
    GridFunction,
    GridFunctionND,
    PLTriple,
    amgm_stability,
    canonical_triple,
    deficit,
    from_samples,
    is_log_concave,
    l1_distance,
    quadrature_tol,
    sup_convolution,
)
from plstab import plcore
from plstab.synth import gaussian, indicator, random_grid_function, random_log_concave

STEP = 1e-3


def box_pair(step=STEP):
    return indicator(0, 1, 1.0, step), indicator(0, 2, 1.0, step)


# -- condition_satisfied --------------------------------------------------------


def test_condition_holds_for_equal_indicators():
    f = indicator(0, 1, 1.0, 0.01)
    t = PLTriple(f, f, f, 0.5)
    rep = t.condition_satisfied()
    assert rep.satisfied and rep.violations == 0


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


def test_condition_reads_zero_beyond_a_short_h():
    # Pair targets in [0.5, 1) fall past h's last cell, where h is 0;
    # the check must not compare them with h's edge cell.
    f = GridFunction(0.0, 0.01, np.ones(100))
    short = GridFunction(0.0, 0.01, np.ones(50))
    padded = GridFunction(0.0, 0.01, np.r_[np.ones(50), np.zeros(50)])
    rep = PLTriple(f, f, short, 0.5).condition_satisfied()
    assert (rep.violations, rep.checked) == (4851, 10_000)
    assert rep == PLTriple(f, f, padded, 0.5).condition_satisfied()


def test_condition_rejects_targets_beyond_the_reach():
    # The targets lie 5e9 from h's origin, 5e309 cells of step 1e-300: their
    # cell index overflows a double, so the check refuses the triple before
    # any cast.
    f = GridFunction(0.0, 1e-300, np.ones(4))
    g = GridFunction(1e10, 1e-300, np.ones(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"2\*\*52 cells"):
            PLTriple(f, g, f, 0.5).condition_satisfied()


def brute_force_condition(f, g, h):
    """Condition (*) at lam = 1/2 with h on the halfgrid grid of (f, g).

    Pair (i, j) lands exactly on h cell ``i + j``, so the target is an
    integer and every pair is enumerated, a block of rows at a time.
    Returns the violation count, the positive-pair count, the largest
    shortfall and the violations per h cell.
    """
    fi = np.flatnonzero(f.values > 0)
    gj = np.flatnonzero(g.values > 0)
    hv = h.values
    hmax = np.maximum(hv, np.maximum(np.r_[0.0, hv[:-1]], np.r_[hv[1:], 0.0]))
    per_cell = np.zeros(hv.size, dtype=np.int64)
    worst = 0.0
    for rows in np.array_split(fi, 16):
        k = rows[:, None] + gj[None, :]
        rhs = f.values[rows, None] ** 0.5 * g.values[None, gj] ** 0.5
        lhs = hmax[k]
        bad = lhs < rhs * (1.0 - 1e-12)
        per_cell += np.bincount(k[bad], minlength=hv.size)
        if bad.any():
            worst = max(worst, float(np.max(rhs[bad] / lhs[bad] - 1.0)))
    return int(per_cell.sum()), fi.size * gj.size, worst, per_cell


def test_condition_checks_every_pair_above_eight_million():
    # 2 980**2 = 8.88e6 positive pairs: above the old sampling threshold.
    rng = np.random.default_rng(17)
    n = 3000
    fv = rng.uniform(0.5, 1.5, n)
    gv = rng.uniform(0.5, 1.5, n)
    fv[rng.choice(n, 20, replace=False)] = 0.0
    gv[rng.choice(n, 20, replace=False)] = 0.0
    f = GridFunction(-1.5, 1e-3, fv)
    g = GridFunction(-1.4, 1e-3, gv)
    h = sup_convolution(f, g, 0.5, mode="halfgrid")
    assert PLTriple(f, g, h, 0.5).condition_satisfied().satisfied
    # A dip over three adjacent cells: the one-cell slack of the middle
    # cell sees only dipped values.
    c = 2 * n // 3
    hv = h.values.copy()
    hv[c - 1 : c + 2] *= 0.5
    dipped = GridFunction(h.origin, h.step, hv)
    rep = PLTriple(f, g, dipped, 0.5).condition_satisfied()
    violations, pairs, worst, per_cell = brute_force_condition(f, g, dipped)
    assert pairs == 2980**2
    assert rep.checked == pairs
    assert rep.violations == violations > 0
    assert rep.max_violation == worst
    assert not rep.satisfied
    assert per_cell[c] > 0
    assert set(np.flatnonzero(per_cell)) <= {c - 1, c, c + 1}
    x, y = rep.worst_pair
    target = dipped.origin + (c + 0.5) * dipped.step
    assert (x + y) / 2 == pytest.approx(target, abs=2 * dipped.step)


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
        g = GridFunction(0.0, 0.02, rng.uniform(0, 1, 60))
        f2 = GridFunction(-0.3, 0.02, rng.uniform(0, 1, 50))
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
    z = GridFunction(0.0, 0.01, np.zeros(10))
    with pytest.warns(UserWarning):
        h = sup_convolution(f, z, 0.5)
    assert h.is_zero()
    # The mode is validated before the zero shortcut.
    with pytest.raises(DomainError):
        sup_convolution(f, z, 0.5, mode="bogus")


def test_halfgrid_requires_half_lambda():
    f = indicator(0, 1, 1.0, 0.01)
    z = GridFunction(0.0, 0.01, np.zeros(10))
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
        fns.append(GridFunction(float(rng.uniform(-1.0, 1.0)), 0.01, v))
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


def test_snap_segmentation_matches_lattice(monkeypatch):
    # Snap has two paths, picked by lattice size only: with the cap at 0
    # every p/q takes the segmentation path, which must give the lattice's
    # values bit for bit (ties included), in 1D and 2D.
    from plstab import plcore

    rng = np.random.default_rng(64)
    cases = []
    for q in range(2, 65):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                # 1D inputs of 1-40 cells and 2D inputs of 1-8 cells per axis.
                for top, d in ((41, 1), (9, 2)):
                    fw, gw = (rng.uniform(0.0, 1.0, n) for n in rng.integers(1, top, (2, d)))
                    fw[rng.uniform(size=fw.shape) < 0.25] = 0.0
                    gw[rng.uniform(size=gw.shape) < 0.25] = 0.0
                    cases.append((p, q, fw, gw, plcore._snap(fw, gw, p / q)))
    assert len(cases) == 2518
    monkeypatch.setattr(plcore, "_MAX_LATTICE_CELLS", 0)
    moved = [
        (p, q, fw.ndim)
        for p, q, fw, gw, want in cases
        if not np.array_equal(plcore._snap(fw, gw, p / q), want)
    ]
    assert moved == []


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


def test_halfgrid_zero_input_is_on_the_half_step_grid():
    f = GridFunction(0.0, 0.1, np.ones(3))
    z = GridFunction(0.0, 0.1, np.zeros(3))
    h = sup_convolution(f, f, 0.5, mode="halfgrid")
    with pytest.warns(UserWarning):
        h0 = sup_convolution(f, z, 0.5, mode="halfgrid")
    assert h0.is_zero()
    assert h.step == h0.step == f.step / 2
    assert h.origin == h0.origin == pytest.approx(0.025, abs=1e-15)


# -- the level split ----------------------------------------------------------------


def _unimodal_steps(rng, cells, levels):
    """A unimodal step function: nested blocks of ascending random values,
    plateaus and repeated ends included, hard zeros at both ends."""
    v = np.zeros(cells)
    lo = np.sort(rng.integers(1, cells // 2 + 1, levels))
    hi = np.sort(rng.integers(cells // 2, cells - 1, levels))[::-1]
    if rng.uniform() < 0.5:
        lo[-1] = hi[-1] = rng.integers(lo[-1], hi[-1] + 1)  # a one-cell top block
    for t, a, b in zip(np.sort(rng.uniform(0.05, 1.0, levels)), lo, hi):
        v[a : b + 1] = t
    return v


def _unimodal_cases(seed):
    rng = np.random.default_rng(seed)
    shapes = [(3, 1), (12, 1), (40, 1), (40, 6), (64, 20), (9, 4)]
    return [
        (_unimodal_steps(rng, nf, kf), _unimodal_steps(rng, ng, kg))
        for (nf, kf), (ng, kg) in zip(shapes, shapes[::-1])
    ]


def _whole_kernels(fw, gw, lam):
    """The snap of every pair of fw and gw by each kernel that applies at
    lam (the midpoint lattice for None)."""
    if lam is None:
        return [plcore._lattice(fw, gw, 1, 2)]
    exact, wf, wg, den = plcore._weights(lam, (1, -1), (0, 1), (1, 0))
    wholes = [plcore._segmented(fw, gw, wf, wg, den, exact)]
    if exact:
        wholes.append(plcore._regroup(plcore._lattice(fw, gw, wg, den), den))
    return wholes


# Halfgrid (None), every reduced p/q with q <= 12, and 0.37 (the float rule).
_SPLIT_LAMS = [None] + [p / q for p, q in _LATTICE_LAMS] + [0.37]


@pytest.mark.parametrize("cap", [plcore._MAX_LATTICE_CELLS, 0])
def test_level_split_matches_the_whole_kernels(monkeypatch, cap):
    # On unimodal inputs the lattice pairs only the ends of the level
    # blocks, in two calls (g up to its peak, g from its peak), and gives
    # every whole kernel's values bit for bit.  The float rule, and a
    # lattice over its cap (0 cells here), run the whole segmentation.
    monkeypatch.setattr(plcore, "_MAX_LATTICE_CELLS", cap)
    calls = []
    real = plcore._lattice
    monkeypatch.setattr(
        plcore, "_lattice", lambda *args: calls.append(args[4:]) or real(*args)
    )
    for k, lam in enumerate(_SPLIT_LAMS):
        for f, g in _unimodal_cases(k):
            fg = [GridFunction(0.0, 0.01, v) for v in (f, g)]
            calls.clear()
            if lam is None:
                h = sup_convolution(*fg, 0.5, mode="halfgrid")
                fw, gw = f**0.5, g**0.5
            else:
                h = sup_convolution(*fg, lam, mode="snap")
                fw, gw = f ** (1.0 - lam), g**lam
            peak = int(np.argmax(g))
            lattice = lam is None or (cap > 0 and lam != 0.37)
            assert calls == ([(0, peak + 1), (peak, g.size)] if lattice else []), lam
            for want in _whole_kernels(fw, gw, lam):
                assert h.values.shape == want.shape and np.array_equal(h.values, want), lam


def test_level_split_runs_only_on_1d_unimodal_inputs():
    rng = np.random.default_rng(11)
    f, g = (_unimodal_steps(rng, 400, 8) for _ in range(2))
    dip = f.copy()
    dip[np.flatnonzero(dip)[3]] = 0.01  # an interior dip: two blocks at one level
    box = np.ones((4, 4))
    cases = ((f, g, True), (g, f, True), (dip, g, False), (g, dip, False), (box, box, False))
    for a, b, ran in cases:
        calls = []

        def halfgrid(rows, d0, d1):
            calls.append((d0, d1))
            return plcore._lattice(rows, b, 1, 2, d0, d1)

        out = plcore._level_split(a, b, halfgrid)
        assert len(calls) == (2 if ran else 1) and calls[-1][1] == b.shape[0]
        assert np.array_equal(out, plcore._lattice(a, b, 1, 2))


def _blocks(v):
    """First and last cell of each superlevel block of a unimodal array."""
    cells = [np.flatnonzero(v >= t) for t in np.unique(v[v > 0])]
    return [(int(c[0]), int(c[-1])) for c in cells]


def test_block_pairs_fill_contiguous_cells_at_every_lattice_lambda():
    # Every pair of f block i and g block j lands on exactly the cells from
    # the snap of (lo_i, lo_j) to the snap of (hi_i, hi_j), with none
    # skipped, at every reduced p/q with q <= 64: the property the level
    # split rests on.
    rng = np.random.default_rng(3)
    checked = 0
    for q in range(2, 65):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            exact, wf, wg, den = plcore._weights(p / q, (1, -1), (0, 1), (1, 0))
            blocks_f, blocks_g = (_blocks(_unimodal_steps(rng, 12, 3)) for _ in range(2))
            for a, b in blocks_f:
                for c, d in blocks_g:
                    ci, dj = np.meshgrid(np.arange(a, b + 1), np.arange(c, d + 1))
                    cells = np.unique(plcore._nearest(wf * ci + wg * dj, den, exact))
                    lo, hi = (
                        int(plcore._nearest(wf * x + wg * y, den, exact))
                        for x, y in ((a, c), (b, d))
                    )
                    assert np.array_equal(cells, np.arange(lo, hi + 1)), (p, q)
                    checked += 1
    assert checked > 5000


# -- the lattice verdict of condition_satisfied ------------------------------------


_VERDICT_STEPS = (0.1, 1e-3, 2e-3, 0.37)


def _rough(rng, shape):
    """Values in [0, 1) with about a quarter hard zeros and one positive cell."""
    v = rng.uniform(0.0, 1.0, shape)
    v[rng.uniform(size=shape) < 0.25] = 0.0
    v[tuple(rng.integers(n) for n in shape)] = rng.uniform(0.5, 1.0)
    return v


def _grid(origin, step, values):
    if values.ndim == 1:
        return GridFunction(origin[0], step[0], values)
    return GridFunctionND(tuple(origin), tuple(step), values)


def _verdict_cases(rng, d, lam):
    """Triples at lam whose h is the snap output of (f, g): as it is, with
    planted dips, with cells scaled to either side of the 1e-12 tolerance,
    zero-padded (an origin whole cells away, the same function), shifted
    by whole cells, or cut short on one side of one axis."""
    for k, step in enumerate(_VERDICT_STEPS):
        steps = [step] + [_VERDICT_STEPS[(k + a) % 4] for a in range(1, d)]
        top = 30 if d == 1 else 6
        f, g = (
            _grid(rng.uniform(-1.0, 1.0, d).tolist(), steps, _rough(rng, rng.integers(1, top, d)))
            for _ in range(2)
        )
        h = sup_convolution(f, g, lam)
        origin = np.atleast_1d(h.origin)
        for variant in ("clean", "dipped", "edge", "padded", "shifted", "short"):
            hv = h.values.copy()
            o = origin.copy()
            if variant in ("dipped", "shifted", "short"):
                dips = rng.uniform(size=hv.shape) < 0.15
                hv[dips] *= rng.uniform(0.0, 1.0, int(dips.sum()))
            if variant in ("edge", "shifted", "short"):
                hv[rng.uniform(size=hv.shape) < 0.3] *= 1.0 - 1e-13
            if variant == "edge":
                hv[rng.uniform(size=hv.shape) < 0.1] *= 1.0 - 5e-12
            if variant == "padded":
                pad = rng.integers(0, 3, (d, 2))
                hv = np.pad(hv, pad.tolist())
                o = o - pad[:, 0] * np.asarray(steps)
            if variant == "shifted":
                o = o + rng.integers(-2, 3, d) * np.asarray(steps)
            if variant == "short":
                axis = int(rng.integers(d))
                n = hv.shape[axis]
                cut = int(rng.integers(1, n)) if n > 1 else 0
                if rng.uniform() < 0.5:
                    hv = np.take(hv, range(cut, n), axis=axis)
                    o[axis] += cut * steps[axis]
                else:
                    hv = np.take(hv, range(n - cut), axis=axis)
            yield PLTriple(f, g, _grid(o.tolist(), steps, hv), lam)


@pytest.mark.parametrize("d", [1, 2])
def test_lattice_verdict_agrees_with_the_row_scan(monkeypatch, d):
    # Every reduced p/q with q <= 12: condition_satisfied must give the
    # forced row scan's report exactly, whatever the verdict decides.
    real = plcore._lattice_verdict
    verdicts = []

    def recording(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(plcore, "_lattice_verdict", recording)
    rng = np.random.default_rng(20 + d)
    reports = []
    for p, q in _LATTICE_LAMS:
        for triple in _verdict_cases(rng, d, p / q):
            rep = triple.condition_satisfied()
            with monkeypatch.context() as m:
                m.setattr(plcore, "_lattice_verdict", lambda *args: False)
                scan = triple.condition_satisfied()
            assert rep == scan, (p, q, triple.h.origin)
            reports.append(rep)
    assert len(reports) == len(verdicts) == 45 * 4 * 6
    # Both verdicts and both outcomes occur.
    assert sum(verdicts) > len(verdicts) // 3
    assert not all(verdicts)
    assert 0 < sum(not r.satisfied for r in reports) < len(reports)


def _boxes():
    """A rough 1D pair and a 2D and a 3D box pair, on steps of the verdict tests."""
    rng = np.random.default_rng(7)
    f = random_grid_function(rng, step=2e-3, window=(-0.3, 0.5))
    g = random_grid_function(rng, step=2e-3, window=(-0.6, 0.2))
    yield f, g
    for shape in ((7, 5), (4, 3, 5)):
        d = len(shape)
        fd = GridFunctionND((0.1,) * d, (0.1, 0.37, 2e-3)[:d], np.ones(shape))
        gd = GridFunctionND((-0.2,) * d, (0.1, 0.37, 2e-3)[:d], np.ones(shape[::-1]))
        yield fd, gd


@pytest.mark.parametrize("lam", [0.25, 0.3, 0.5, 0.7, 5 / 6])
def test_canonical_snap_triples_never_reach_the_row_scan(monkeypatch, lam):
    def refuse(h, batches):
        raise AssertionError("the row scan ran")

    monkeypatch.setattr(plcore, "_condition_check", refuse)
    for f, g in _boxes():
        rep = canonical_triple(f, g, lam, mode="snap").condition_satisfied()
        pairs = np.count_nonzero(f.values) * np.count_nonzero(g.values)
        assert rep == ConditionReport(True, pairs, 0, 0.0, None)


def test_lattice_verdict_takes_the_level_split(monkeypatch):
    # The verdict's right-hand side is the snap output, so on a unimodal
    # pair it pairs only the ends of the level blocks: g up to its peak,
    # then g from its peak.
    lam = 0.3
    f = gaussian(0.2, 0.8, 1.0, window=(-2.0, 2.0), step=1e-2)
    g = gaussian(-0.3, 1.3, 2.0, window=(-3.0, 2.0), step=1e-2)
    triple = canonical_triple(f, g, lam, mode="snap")
    calls = []
    real = plcore._lattice
    monkeypatch.setattr(
        plcore, "_lattice", lambda *args: calls.append(args[4:]) or real(*args)
    )
    rep = triple.condition_satisfied()
    peak = int(np.argmax(g.values**lam))
    assert calls == [(0, peak + 1), (peak, g.size)]
    pairs = np.count_nonzero(f.values) * np.count_nonzero(g.values)
    assert rep == ConditionReport(True, pairs, 0, 0.0, None)


def test_lattice_verdict_checks_both_cells_of_a_tie():
    # At lam = 1/2 pair (0, 21) has the exact scaled target 11, a tie, and
    # the scan's float target falls just below it, into cell 10.  An h
    # whose only mass is cell 12 covers cell 11 with its slack but not
    # cell 10, so the pair violates (*) as the scan locates it.
    f = GridFunction(0.0, 0.1, np.r_[1.0, np.zeros(21)])
    g = GridFunction(0.0, 0.1, np.r_[np.zeros(21), 1.0])
    h = GridFunction(0.0, 0.1, np.r_[np.zeros(12), 1.0])
    rep = PLTriple(f, g, h, 0.5).condition_satisfied()
    assert (rep.satisfied, rep.violations, rep.checked) == (False, 1, 1)
    assert rep.worst_pair == (0.05, 2.15)


def test_lattice_verdict_declines_outside_its_conditions(monkeypatch):
    # A constant "roof" at the top of the snap output over a wide window
    # satisfies (*) wherever it sits; the verdict must still decline it
    # off the snap grid, and the row scan must decide.
    f, g = next(_boxes())

    def verdict(triple):
        lam = triple.lam
        return plcore._lattice_verdict(triple, f.values ** (1.0 - lam), g.values**lam)

    def scan(triple):
        with monkeypatch.context() as m:
            m.setattr(plcore, "_lattice_verdict", lambda *args: False)
            return triple.condition_satisfied()

    def roof(lam, shift, scale):
        h = sup_convolution(f, g, lam)
        step = h.step * scale
        n = int(h.size / scale) + 8
        origin = h.origin + (shift - 4) * step
        return PLTriple(f, g, GridFunction(origin, step, np.full(n, h.sup_norm())), lam)

    assert verdict(roof(0.3, 0.0, 1.0)) and verdict(roof(0.3, 3.0, 1.0))
    declined = [
        canonical_triple(f, g, 0.37),
        roof(0.37, 0.0, 1.0),
        roof(0.3, 0.3, 1.0),
        roof(0.3, 1e-6, 1.0),
        roof(0.3, 0.0, 1.5),
        roof(0.3, 0.0, 1.0 + 1e-12),
    ]
    for triple in declined:
        assert not verdict(triple)
        rep = triple.condition_satisfied()
        assert rep == scan(triple) and rep.satisfied
    t = canonical_triple(f, g, 0.3)
    monkeypatch.setattr(plcore, "_MAX_LATTICE_CELLS", 0)
    assert not verdict(t)
    assert t.condition_satisfied() == scan(t)


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
    z = GridFunction(0.0, 0.01, np.zeros(10))
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
        f = GridFunction(rng.uniform(-1, 0), 0.01, rng.uniform(0, 2, n1))
        g = GridFunction(rng.uniform(-1, 0), 0.01, rng.uniform(0, 2, n2))
        lam = rng.uniform(0.1, 0.9)
        t = canonical_triple(f, g, lam)
        rep = deficit(t)
        assert rep.epsilon >= -quadrature_tol(f, g), (k, rep.epsilon)


def test_quadrature_tol_formula():
    f, g = box_pair(0.01)
    assert quadrature_tol(f, g) == pytest.approx(3 * 0.01 * (1.0 + 1.0))


# -- level-set inclusion of the canonical h ---------------------------------------


def _runs(f, mask):
    """The runs of marked cells of f, as (left, right) intervals."""
    flips = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int), [0]])))
    edges = f.origin + flips * f.step
    return list(zip(edges[0::2], edges[1::2]))


def _merged(intervals):
    """The union of intervals as sorted, disjoint, non-touching pieces."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


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
            A = _runs(f, f.values > t)
            B = _runs(g, g.values > s)
            if not A or not B:
                continue
            target = t ** (1.0 - lam) * s**lam * (1.0 - 1e-9)
            combo = _merged(
                ((1.0 - lam) * a1 + lam * b1, (1.0 - lam) * a2 + lam * b2)
                for a1, a2 in A
                for b1, b2 in B
            )
            H = _runs(h, h.values >= target)
            for a, b in combo:
                if b - a > 2 * h.step:
                    lo, hi = a + h.step, b - h.step
                    assert any(c <= lo and hi <= d for c, d in H)


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
