"""2D grid functions, distribution profiles, the 2D deficit, and the
reduction to an additive 1D triple."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from plstab import (
    DomainError,
    FormatError,
    GridFunction,
    GridFunction2D,
    GridFunctionND,
    PLTriple,
    deficit,
    Triple2D,
    distribution,
    multiplicative_to_additive,
    read_function,
    reduced_deficit,
    sup_convolution,
    sup_convolution_2d,
    write_function,
)
from plstab import plcore
from plstab.multidim import DistributionProfile


def square(side, height=1.0, step=0.05, origin=(0.0, 0.0)):
    n = int(round(side / step))
    return GridFunction2D(origin, (step, step), np.full((n, n), float(height)))


def product_gaussian(sx, sy, step=0.05, half=3.0):
    n = int(round(2 * half / step))
    c = -half + step * (np.arange(n) + 0.5)
    vx = np.exp(-((c / sx) ** 2))
    vy = np.exp(-((c / sy) ** 2))
    return GridFunction2D((-half, -half), (step, step), np.outer(vx, vy))


# -- GridFunction2D ---------------------------------------------------------------


def test_2d_validation_names_offending_cell():
    v = np.ones((3, 4))
    v[1, 2] = -1.0
    with pytest.raises(DomainError, match=r"\(1, 2\)"):
        GridFunction2D((0.0, 0.0), (0.1, 0.1), v)
    v = np.ones((3, 4))
    v[2, 0] = np.inf
    with pytest.raises(DomainError, match=r"\(2, 0\)"):
        GridFunction2D((0.0, 0.0), (0.1, 0.1), v)


def test_2d_validation_grid_parameters():
    with pytest.raises(DomainError):
        GridFunction2D((0.0, 0.0), (0.0, 0.1), np.ones((2, 2)))
    with pytest.raises(DomainError):
        GridFunction2D((np.nan, 0.0), (0.1, 0.1), np.ones((2, 2)))
    with pytest.raises(DomainError):
        GridFunction2D((0.0, 0.0), (0.1, 0.1), np.ones((2,)))
    with pytest.raises(DomainError):
        GridFunction2D((0.0, 0.0), (0.1, 0.1), np.ones((0, 2)))


def test_2d_immutable_and_measures():
    f = square(1.0, height=2.0, step=0.1)
    with pytest.raises(ValueError):
        f.values[0, 0] = 5.0
    assert f.shape == (10, 10)
    assert f.cell_area == pytest.approx(0.01)
    assert f.integral() == pytest.approx(2.0)
    assert f.sup_norm() == 2.0
    # Strict volumes at 1 and 2, and the non-strict volume at 2: ``{f > t}``
    # at the float just below 2.
    levels = np.array([1.0, np.nextafter(2.0, 0.0), 2.0])
    strict_1, at_2, strict_2 = distribution(f, levels).measures
    assert strict_1 == pytest.approx(1.0)
    assert strict_2 == 0.0
    assert at_2 == pytest.approx(1.0)


# -- distribution ------------------------------------------------------------------


def test_distribution_matches_brute_count():
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 3.0, size=(17, 23))
    f = GridFunction2D((0.0, 0.0), (0.2, 0.1), v)
    levels = np.geomspace(1e-3, 3.5, 40)
    prof = distribution(f, levels)
    for t, m in zip(prof.levels, prof.measures):
        assert m == pytest.approx(float((v > t).sum()) * f.cell_area, abs=0.0)


def test_distribution_rejects_a_1d_function():
    f = GridFunction(0.0, 0.1, np.ones(5))
    with pytest.raises(DomainError, match="dimension d >= 2, got 1"):
        distribution(f, np.array([0.5, 2.0]))


def test_reduced_deficit_rejects_a_1d_triple():
    f = GridFunction(0.0, 0.1, np.ones(5))
    with pytest.raises(DomainError, match="dimension d >= 2, got 1"):
        reduced_deficit(PLTriple(f, f, f, 0.5))


def test_distribution_profile_step_evaluation():
    prof = DistributionProfile(np.array([1.0, 2.0, 4.0]), np.array([6.0, 3.0, 0.5]))
    assert prof(0.5) == 6.0  # below the first sampled level
    assert prof(1.0) == 6.0
    assert prof(1.999) == 6.0
    assert prof(2.0) == 3.0
    assert prof(3.5) == 3.0
    assert prof(4.0) == 0.5
    assert prof(100.0) == 0.5
    np.testing.assert_allclose(prof(np.array([0.5, 2.5])), [6.0, 3.0])


def test_distribution_profile_past_last_level():
    # From the last level on F keeps the last measure; it is 0 there when
    # the last level is above the sup norm, as reduced_deficit builds it.
    prof = DistributionProfile(np.array([1.0, 2.0, 3.0]), np.array([5.0, 4.0, 2.0]))
    assert prof(10.0) == 2.0
    f = square(1.0, height=2.0)
    built = distribution(f, np.array([0.5, 1.0, 2.0 * (1 + 1e-12)]))
    assert built.measures[-1] == 0.0
    assert built(10.0) == 0.0


def test_distribution_profile_validation():
    with pytest.raises(DomainError):
        DistributionProfile(np.array([1.0, 2.0]), np.array([1.0, 2.0]))  # increasing
    with pytest.raises(DomainError):
        DistributionProfile(np.array([2.0, 1.0]), np.array([2.0, 1.0]))  # levels order
    with pytest.raises(DomainError):
        DistributionProfile(np.array([1.0, 2.0]), np.array([2.0, -1.0]))


# -- multiplicative_to_additive ------------------------------------------------------


def test_change_of_variables_preserves_mass():
    f = product_gaussian(1.0, 0.7, step=0.04)
    levels = np.geomspace(1e-6, f.sup_norm() * (1 + 1e-12), 600)
    prof = distribution(f, levels)
    g1 = multiplicative_to_additive(prof)
    # integral of F over (0, inf) equals integral of f (layer cake).
    assert g1.integral() == pytest.approx(f.integral(), rel=2e-2)


def test_change_of_variables_rejects_bad_levels():
    with pytest.raises(DomainError):
        multiplicative_to_additive(
            DistributionProfile(np.array([1.0]), np.array([1.0]))
        )
    with pytest.raises(DomainError):
        multiplicative_to_additive(
            DistributionProfile(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        )


# -- sup_convolution_2d ---------------------------------------------------------------


def test_supconv_2d_squares_support():
    f = square(1.0, step=0.05)
    g = square(2.0, step=0.05)
    h = sup_convolution_2d(f, g, 0.5)
    # Support is [0, 1.5]^2 and the values are all 1.
    assert h.sup_norm() == pytest.approx(1.0)
    assert h.integral() == pytest.approx(1.5**2, abs=4 * 0.05 * 1.5 + 0.01)


def test_supconv_2d_guards():
    f = square(1.0, step=0.05)
    g = square(1.0, step=0.04)
    with pytest.raises(DomainError):
        sup_convolution_2d(f, g, 0.5)
    with pytest.raises(DomainError):
        sup_convolution_2d(f, f, 1.0)
    big = GridFunction2D((0.0, 0.0), (0.01, 0.01), np.ones((500, 500)))
    with pytest.raises(DomainError):
        sup_convolution_2d(big, big, 0.5)


def test_supconv_2d_sizes_odd_extents():
    # (1-lam)(n_f - 1) + lam(n_g - 1) = 2.5 on the second axis: the output
    # needs 4 columns, and the pair (0, 3) + (0, 2) lands in cell (0, 3).
    fv = np.zeros((3, 4))
    fv[0, 3] = 1.0
    gv = np.zeros((3, 3))
    gv[0, 2] = 1.0
    f = GridFunction2D((0.0, 0.0), (0.1, 0.1), fv)
    g = GridFunction2D((0.0, 0.0), (0.1, 0.1), gv)
    for lam in (0.5, 0.37):
        h = sup_convolution_2d(f, g, lam)
        k = np.floor((1 - lam) * 3 + lam * 2 + 0.5)
        assert h.shape == (3, int(k) + 1)
        assert h.values[0, int(k)] == pytest.approx(1.0)
        assert h.values.sum() == pytest.approx(1.0)
    # 2.5 on the first axis too: the top row needs a fourth cell.
    f = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.ones((4, 4)))
    g = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.ones((3, 3)))
    h = sup_convolution_2d(f, g, 0.5)
    assert h.shape == (4, 4)
    np.testing.assert_array_equal(h.values, np.ones((4, 4)))


def _small_random_2d(rng):
    """A 2D function of 1-8 cells per axis on step 0.01, some cells zero."""
    shape = tuple(int(n) for n in rng.integers(1, 9, size=2))
    v = rng.uniform(0.0, 1.0, shape)
    v[rng.uniform(size=shape) < 0.25] = 0.0
    v[tuple(rng.integers(n) for n in shape)] = rng.uniform(0.5, 1.0)
    origin = tuple(float(o) for o in rng.uniform(-1.0, 1.0, size=2))
    return GridFunction2D(origin, (0.01, 0.01), v)


# Every reduced p/q with q <= 12 is snapped on the exact lattice; 0.37 has
# no such p/q and uses the float rule.
_LATTICE_LAMS = [
    (p, q) for q in range(2, 13) for p in range(1, q) if math.gcd(p, q) == 1
]


def _enumerate_2d(f, g, lam, pq):
    """Reference snap output by direct enumeration of every cell pair.

    Per axis, pairs are binned by ``(2m + q) // (2q)`` on the lattice index
    ``m = (q-p)*i + p*j`` when ``pq = (p, q)``, and by ``floor(u + 0.5)``
    on the float offset when ``pq`` is None.
    """
    ks = []
    for nf, ng in zip(f.shape, g.shape):
        i, j = np.meshgrid(np.arange(nf), np.arange(ng), indexing="ij")
        if pq is None:
            ks.append(np.floor((1.0 - lam) * i + lam * j + 0.5).astype(np.int64))
        else:
            p, q = pq
            ks.append((2 * ((q - p) * i + p * j) + q) // (2 * q))
    ref = np.zeros((int(ks[0].max()) + 1, int(ks[1].max()) + 1))
    # vals[a, b, c, d] pairs f cell (a, b) with g cell (c, d).
    vals = np.multiply.outer(f.values ** (1.0 - lam), g.values**lam)
    kx, ky = np.broadcast_arrays(ks[0][:, None, :, None], ks[1][None, :, None, :])
    np.maximum.at(ref, (kx.ravel(), ky.ravel()), vals.ravel())
    return ref


def _assert_matches(h, f, g, lam, ref):
    assert h.origin == (
        (1.0 - lam) * f.origin[0] + lam * g.origin[0],
        (1.0 - lam) * f.origin[1] + lam * g.origin[1],
    )
    assert h.step == f.step
    assert h.shape == ref.shape
    # The powers may be evaluated an ulp apart; a pair snapped to the wrong
    # cell moves a value by far more than this tolerance.
    np.testing.assert_allclose(h.values, ref, rtol=8 * np.finfo(float).eps)


@pytest.mark.parametrize("p,q", _LATTICE_LAMS + [(37, None)])
def test_supconv_2d_matches_pair_enumeration(p, q):
    lam = 0.37 if q is None else p / q
    pq = None if q is None else (p, q)
    rng = np.random.default_rng(p * 100 + (q or 0))
    for _ in range(20):
        f, g = _small_random_2d(rng), _small_random_2d(rng)
        h = sup_convolution_2d(f, g, lam)
        _assert_matches(h, f, g, lam, _enumerate_2d(f, g, lam, pq))


def test_supconv_2d_over_lattice_cap_keeps_exact_rule(monkeypatch):
    # With no room for a lattice, lam = 0.3 takes the segmentation path,
    # which still rounds ties half up on the exact lattice index (the float
    # rule differs from it on some of these pairs).
    monkeypatch.setattr(plcore, "_MAX_LATTICE_CELLS", 0)
    rng = np.random.default_rng(30)
    for _ in range(20):
        f, g = _small_random_2d(rng), _small_random_2d(rng)
        h = sup_convolution_2d(f, g, 0.3)
        _assert_matches(h, f, g, 0.3, _enumerate_2d(f, g, 0.3, (3, 10)))


@pytest.mark.parametrize("mode", ["halfgrid", "auto"])
def test_halfgrid_2d_matches_pair_enumeration(mode):
    # Pair (a, b) + (c, d) has its midpoint at index (a + c, b + d) of the
    # half-step grid, so every pair lands on a cell exactly.
    rng = np.random.default_rng(12)
    for _ in range(20):
        f, g = _small_random_2d(rng), _small_random_2d(rng)
        h = sup_convolution(f, g, 0.5, mode=mode)
        ref = np.zeros(tuple(nf + ng - 1 for nf, ng in zip(f.shape, g.shape)))
        vals = np.multiply.outer(f.values**0.5, g.values**0.5)
        a, b, c, d = np.indices(vals.shape)
        np.maximum.at(ref, ((a + c).ravel(), (b + d).ravel()), vals.ravel())
        assert h.origin == tuple(0.5 * (x + y) + 0.25 * 0.01 for x, y in zip(f.origin, g.origin))
        assert h.step == (0.005, 0.005)
        np.testing.assert_array_equal(h.values, ref)


def test_halfgrid_2d_zero_input():
    f = square(1.0, step=0.1)
    z = GridFunction2D((0.5, -0.5), (0.1, 0.1), np.zeros((3, 3)))
    with pytest.warns(UserWarning, match="zero"):
        h = sup_convolution(f, z, 0.5, mode="auto")
    assert h.origin == (0.5 * 0.5 + 0.25 * 0.1, 0.5 * -0.5 + 0.25 * 0.1)
    assert h.step == (0.05, 0.05)
    np.testing.assert_array_equal(h.values, np.zeros((1, 1)))


def test_supconv_2d_rejects_tiny_unequal_steps():
    # Steps below 1e-8 differ as much as larger ones: no absolute slack.
    f = GridFunction2D((0.0, 0.0), (1e-9, 1e-9), np.ones((2, 2)))
    g = GridFunction2D((0.0, 0.0), (5e-9, 5e-9), np.ones((2, 2)))
    with pytest.raises(DomainError, match="equal dimensions and steps"):
        sup_convolution_2d(f, g, 0.5)
    f1 = GridFunction(0.0, 1e-9, np.ones(2))
    g1 = GridFunction(0.0, 5e-9, np.ones(2))
    with pytest.raises(DomainError, match="equal dimensions and steps"):
        plcore.sup_convolution(f1, g1, 0.5)


# -- deficit in 2D ----------------------------------------------------------------


def test_deficit_2d_squares_exact():
    f = square(1.0, step=0.05)
    g = square(2.0, step=0.05)
    h = GridFunction2D((0.0, 0.0), (0.05, 0.05), np.ones((30, 30)))  # [0,1.5]^2
    rep = deficit(Triple2D(f, g, h, 0.5))
    assert rep.int_f == pytest.approx(1.0)
    assert rep.int_g == pytest.approx(4.0)
    assert rep.geo_mean == pytest.approx(2.0)
    assert rep.epsilon == pytest.approx(1.5**2 / 2.0 - 1.0)  # exactly 0.125
    assert rep.a == pytest.approx(4.0)


def test_triple_rejects_mixed_dimensions():
    f = GridFunction(0.0, 0.1, np.ones(10))
    g = square(1.0, step=0.1)
    with pytest.raises(DomainError, match="same dimension"):
        PLTriple(f, g, g, 0.5)


def test_deficit_2d_rejects_zero_mass():
    z = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.zeros((3, 3)))
    f = square(1.0)
    with pytest.raises(DomainError):
        deficit(Triple2D(z, f, f, 0.5))


def test_deficit_2d_rejects_infinite_h_mass():
    f = square(1.0)
    h = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.full((3, 3), 1e308))
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="integral of h"):
        deficit(Triple2D(f, f, h, 0.5))


# -- reduced_deficit ----------------------------------------------------------------


def test_reduction_equality_squares():
    f = square(1.0, step=0.05)
    h = sup_convolution_2d(f, f, 0.5)
    rep = reduced_deficit(Triple2D(f, f, h, 0.5))
    assert abs(rep.deficit_2d.epsilon) <= 1e-9
    assert abs(rep.epsilon) <= 1e-6
    assert rep.condition_2d_violations == 0
    assert rep.multiplicative_violations == 0
    assert rep.brunn_minkowski_violations == 0
    # Pad truncation of the change of variables contributes ~e^{-12}.
    assert rep.mass_error <= 1e-5


def test_reduction_squares_counterexample():
    f = square(1.0, step=0.05)
    g = square(2.0, step=0.05)
    h = GridFunction2D((0.0, 0.0), (0.05, 0.05), np.ones((30, 30)))
    rep = reduced_deficit(Triple2D(f, g, h, 0.5))
    assert rep.deficit_2d.epsilon == pytest.approx(0.125)
    # The reduction preserves the level structure: F(t)=1, G(t)=4, H(t)=2.25
    # for t in (0,1), so the reduced deficit is again 2.25/2 - 1 = 0.125.
    assert rep.epsilon == pytest.approx(0.125, abs=5e-3)
    assert rep.condition_2d_violations == 0
    assert rep.multiplicative_violations == 0
    assert rep.mass_error <= 5e-3


def test_reduction_mass_error_small_on_smooth_instance():
    # At lam = 1/2 the sup-convolution of a centered product Gaussian with
    # itself is the same Gaussian, so h = f is the exact triple.
    f = product_gaussian(1.0, 1.0, step=0.08, half=3.0)
    rep = reduced_deficit(Triple2D(f, f, f, 0.5))
    assert abs(rep.epsilon) <= 1e-2
    assert rep.mass_error <= 5e-2


def test_reduction_rejects_zero():
    z = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        reduced_deficit(Triple2D(z, z, z, 0.5))


def test_reduction_rejects_targets_beyond_the_reach():
    # Targets 5e9 from h's origin are 5e159 cells of step 1e-150 away: no
    # float resolves such a cell, so the sampled check refuses the triple
    # instead of reading an overflowed index.
    f = GridFunction2D((0.0, 0.0), (1e-150, 1e-150), np.ones((4, 4)))
    g = GridFunction2D((1e10, 0.0), (1e-150, 1e-150), np.ones((4, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"2\*\*52 cells"):
            reduced_deficit(Triple2D(f, g, f, 0.5))


def test_reduction_condition_reads_zero_beyond_a_short_h():
    # h covers only [0, 0.5)^2: targets past it must read 0, exactly as
    # when h is zero-padded to the grid of f.
    f = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.ones((10, 10)))
    short = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.ones((5, 5)))
    padded = GridFunction2D((0.0, 0.0), (0.1, 0.1), np.pad(np.ones((5, 5)), (0, 5)))
    counts = [
        reduced_deficit(Triple2D(f, f, h, 0.5)).condition_2d_violations
        for h in (short, padded)
    ]
    assert counts[0] == counts[1] > 0


# -- d = 3 ---------------------------------------------------------------------


def test_boxes_in_three_dimensions():
    # f = 1 on [0, 1]^3 and g = 1 on [0, 2]^3: at lam = 1/2 the
    # sup-convolution is 1 on [0, 1.5]^3, so eps = 1.5**3 / sqrt(8) - 1.
    step = (0.25, 0.25, 0.25)
    f = GridFunctionND((0.0, 0.0, 0.0), step, np.ones((4, 4, 4)))
    g = GridFunctionND((0.0, 0.0, 0.0), step, np.ones((8, 8, 8)))
    h = sup_convolution_2d(f, g, 0.5)
    assert h.origin == (0.0, 0.0, 0.0)
    np.testing.assert_array_equal(h.values, np.ones((6, 6, 6)))
    triple = PLTriple(f, g, h, 0.5)
    assert deficit(triple).epsilon == 0.19324269325229881
    cond = triple.condition_satisfied()
    assert cond.satisfied and cond.checked == 64 * 512
    rep = reduced_deficit(triple)
    # Below level 1, F = 1, G = 8 and H = 3.375: Brunn-Minkowski holds with
    # equality at exponent 1/3, and exponent 1/2 would give
    # ((1 + sqrt(8)) / 2)**2 = 3.66 > H at every sampled level pair.
    assert rep.multiplicative_violations == 0
    assert rep.brunn_minkowski_violations == 0
    assert rep.condition_2d_violations == 0
    assert rep.epsilon == pytest.approx(0.19324269325229881, abs=1e-6)
    assert rep.mass_error <= 1e-5


# -- JSON I/O in every dimension ------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_json_round_trip_any_dimension(tmp_path, d):
    rng = np.random.default_rng(2)
    shape = (5, 7, 3)[:d]
    if d == 1:
        f = GridFunction(-1.0, 0.125, rng.uniform(0, 1, shape))
    else:
        f = GridFunctionND((-1.0, 2.0, 0.5)[:d], (0.125, 0.25, 0.5)[:d], rng.uniform(0, 1, shape))
    p = tmp_path / "f.json"
    write_function(f, p)
    g = read_function(p)
    assert type(g) is type(f)
    assert g.origin == f.origin
    assert g.step == f.step
    np.testing.assert_array_equal(g.values, f.values)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_json_errors_name_cell_any_dimension(tmp_path, d):
    p = tmp_path / "bad.json"
    origin, step = ([0.0] * d, [0.1] * d) if d > 1 else (0.0, 0.1)
    values = np.ones((2,) * d)
    values[(1,) * d] = -4.0
    label = "1" if d == 1 else re.escape(str((1,) * d))
    p.write_text(json.dumps({"origin": origin, "step": step, "values": values.tolist()}))
    with pytest.raises(FormatError, match=f"index {label} is negative"):
        read_function(p)
    if d > 1:
        ragged = np.ones((2,) * d).tolist()
        ragged[1] = ragged[1][:1]
        p.write_text(json.dumps({"origin": origin, "step": step, "values": ragged}))
        with pytest.raises(FormatError, match="row 1"):
            read_function(p)
        p.write_text(json.dumps({"origin": origin, "step": 0.1, "values": values.tolist()}))
        with pytest.raises(FormatError, match=f"step must be a list of {d} numbers"):
            read_function(p)
    p.write_text("not json")
    with pytest.raises(FormatError):
        read_function(p)
    p.write_text(json.dumps({"origin": origin, "step": step}))
    with pytest.raises(FormatError, match="values"):
        read_function(p)
