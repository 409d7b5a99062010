"""Grid-function container, superlevel measures, L1 distance, and JSON I/O."""

import json
import math
import warnings

import numpy as np
import pytest

from plstab import (
    DomainError,
    FormatError,
    GridFunction,
    from_samples,
    l1_distance,
    read_function,
    write_function,
)
from plstab.gridfn import _l1_shifts
from plstab.synth import indicator

STEP = 1e-3


def unit_box(step=0.01):
    return GridFunction(0.0, step, np.ones(int(round(1.0 / step))))


def gaussian_grid(step=STEP, window=(-6.0, 6.0)):
    return from_samples(lambda x: np.exp(-np.pi * x * x), window[0], window[1], step)


# -- construction and validation ----------------------------------------------


def test_rejects_negative_values():
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.1, np.array([1.0, -0.5, 2.0]))


def test_rejects_non_finite_values():
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.1, np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.1, np.array([np.inf, 1.0]))


def test_rejects_bad_step_and_shape():
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.0, np.ones(3))
    with pytest.raises(DomainError):
        GridFunction(0.0, -1.0, np.ones(3))
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.1, np.ones((2, 2)))


def test_values_are_immutable():
    f = unit_box()
    with pytest.raises(ValueError):
        f.values[0] = 3.0
    # The constructor must copy: mutating the source array does not leak in.
    src = np.ones(4)
    g = GridFunction(0.0, 1.0, src)
    src[0] = 7.0
    assert g.values[0] == 1.0


def test_edges_and_centers_are_consistent():
    f = GridFunction(-1.0, 0.25, np.ones(8))
    assert f.edges().size == 9
    assert np.allclose(f.centers(), f.edges()[:-1] + 0.125)
    assert f.window == (-1.0, 1.0)


# -- integral and sup norm -----------------------------------------------------


def test_integral_unit_box():
    assert unit_box().integral() == pytest.approx(1.0, abs=1e-15)


def test_integral_zero_function():
    z = GridFunction(0.0, 0.1, np.zeros(10))
    assert z.integral() == 0.0
    assert z.is_zero()


def test_integral_gaussian_midpoint_rule():
    f = gaussian_grid()
    # Midpoint-rule oracle: the sampled sum approximates the unit mass.
    assert abs(f.integral() - 1.0) <= 5e-4


def test_sup_norm_values():
    assert unit_box().sup_norm() == 1.0
    assert unit_box().scale(2.0).sup_norm() == 2.0
    f = gaussian_grid()
    # Max is the sampled value of the cell containing 0, hence below 1.
    assert f.sup_norm() == f(np.array([f.centers()[np.argmax(f.values)]]))[0]
    assert f.sup_norm() <= 1.0


# -- point evaluation ----------------------------------------------------------


def test_call_inside_and_outside():
    f = GridFunction(0.0, 0.5, np.array([1.0, 2.0]))
    x = np.array([-0.1, 0.0, 0.49, 0.5, 0.99, 1.0, 3.0])
    assert np.array_equal(f(x), [0.0, 1.0, 1.0, 2.0, 2.0, 0.0, 0.0])


def test_call_far_points_read_zero_without_warning():
    f = GridFunction(0.0, 1e-300, np.ones(4))
    x = np.array([1e10, -1e10, 1.5e-300, 5e-300, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f(1e10) == 0.0
        assert np.array_equal(f(x), [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    # Near the window the values are the direct formula's, edges included.
    rng = np.random.default_rng(5)
    g = GridFunction(-1.0, 0.1, rng.uniform(0.5, 1.0, 20))
    x = np.concatenate((rng.uniform(-1.5, 1.5, 500), g.edges(), np.nextafter(g.edges(), -9)))
    idx = np.floor((x - g.origin) / g.step).astype(np.int64)
    inside = (idx >= 0) & (idx < g.size)
    want = np.where(inside, g.values[idx.clip(0, g.size - 1)], 0.0)
    assert np.array_equal(g(x), want)


# -- shifts and scaling --------------------------------------------------------


def test_shift_identity_and_scale():
    f = unit_box()
    g = f.shift(0.0).scale(1.0)
    assert g.origin == f.origin and np.array_equal(g.values, f.values)


def test_shift_scale_box():
    f = unit_box(0.01)
    g = f.shift(1.0).scale(2.0)
    assert g.origin == pytest.approx(1.0)
    assert g.integral() == pytest.approx(2.0)
    assert g.sup_norm() == 2.0


def test_scale_rejects_negative():
    with pytest.raises(DomainError):
        unit_box().scale(-1.0)


def test_shift_snaps_to_grid():
    f = unit_box(0.01)
    g = f.shift(0.0349)  # snaps to 3 cells
    assert g.origin == pytest.approx(0.03)


def test_shift_gaussian_against_analytic():
    f = gaussian_grid()
    g = f.shift(0.5)
    ref = from_samples(
        lambda x: np.exp(-np.pi * (x - 0.5) ** 2), g.origin, g.origin + g.size * g.step, g.step
    )
    assert l1_distance(g, ref) <= 2 * STEP


# -- superlevel sets -----------------------------------------------------------


def _runs(f, mask):
    """The runs of marked cells of f, as (left, right) intervals."""
    flips = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int), [0]])))
    edges = f.origin + flips * f.step
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def test_superlevel_two_bump():
    v = np.concatenate([np.ones(100), np.zeros(100), np.ones(100)])
    f = GridFunction(0.0, 0.01, v)
    assert _runs(f, f.values > 0.5) == [(0.0, 1.0), (2.0, 3.0)]
    assert f.superlevel_measure(0.5) == 2.0


def test_superlevel_above_sup_is_empty():
    f = unit_box()
    assert f.superlevel_measure(1.5) == 0.0
    # Strict at the sup itself is empty too.
    assert f.superlevel_measure(1.0, strict=True) == 0.0
    assert f.superlevel_measure(1.0, strict=False) > 0.0


def test_superlevel_triangle():
    f = from_samples(lambda x: np.clip(1.0 - np.abs(x), 0.0, None), -1.0, 1.0, STEP)
    (a, b), = _runs(f, f.values > 0.5)
    assert abs(a - (-0.5)) <= STEP
    assert abs(b - 0.5) <= STEP
    assert f.superlevel_measure(0.5) == pytest.approx(b - a, rel=1e-12)


def test_superlevel_count_matches_measure():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = GridFunction(0.0, 0.125, rng.uniform(0, 1, 40))
        t = rng.uniform(0, 1)
        cnt = int(np.sum(f.values > t))
        assert f.superlevel_measure(t) == cnt * f.step
        length = sum(b - a for a, b in _runs(f, f.values > t))
        assert length == pytest.approx(cnt * f.step, rel=1e-12)


# -- support handling ----------------------------------------------------------


def test_support_trim_pad():
    v = np.array([0.0, 0.0, 1.0, 2.0, 0.0])
    f = GridFunction(0.0, 1.0, v)
    lo, hi = f.support_indices()
    assert (lo, hi) == (2, 4)
    p = f.padded(3, 3)
    assert p.size == 11 and p.origin == -3.0
    assert p.integral() == f.integral()
    assert p.support_indices() == (5, 7)


# -- l1 distance ---------------------------------------------------------------


def test_l1_identical_is_zero():
    f = gaussian_grid()
    assert l1_distance(f, f) == 0.0


def test_l1_nested_boxes():
    f = unit_box(STEP)
    g = GridFunction(0.0, STEP, np.ones(2000))
    assert l1_distance(f, g) == pytest.approx(1.0, abs=1e-12)


def test_l1_offset_boxes():
    f = GridFunction(0.0, 0.01, np.ones(100))
    g = GridFunction(0.5, 0.01, np.ones(100))
    assert l1_distance(f, g) == pytest.approx(1.0, abs=2 * 0.01)


def _l1_bruteforce(f, g):
    """Oracle: evaluate both step functions at midpoints of the union grid."""
    edges = np.union1d(f.edges(), g.edges())
    lo = min(f.origin, g.origin) - 1.0
    hi = max(f.edges()[-1], g.edges()[-1]) + 1.0
    edges = np.union1d(edges, [lo, hi])
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return float(np.sum(np.abs(f(mids) - g(mids)) * widths))


def test_l1_equal_step_fractional_offset_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n1, n2 = rng.integers(5, 40, 2)
        step = 0.1
        f = GridFunction(rng.uniform(-1, 1), step, rng.uniform(0, 2, n1))
        g = GridFunction(
            f.origin + step * rng.integers(-3, 3) + step * rng.uniform(0, 1),
            step,
            rng.uniform(0, 2, n2),
        )
        assert l1_distance(f, g) == pytest.approx(_l1_bruteforce(f, g), rel=1e-10, abs=1e-12)


def test_l1_integer_step_ratio_matches_bruteforce():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        step = 0.06
        f = GridFunction(0.0, step, rng.uniform(0, 1, int(rng.integers(4, 20))))
        g = GridFunction(
            rng.integers(-2, 2) * step / m, step / m, rng.uniform(0, 1, int(rng.integers(4, 50)))
        )
        assert l1_distance(f, g) == pytest.approx(_l1_bruteforce(f, g), rel=1e-10, abs=1e-12)


def test_l1_incommensurate_steps_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = GridFunction(0.0, 0.1, rng.uniform(0, 1, 12))
        g = GridFunction(0.037, 0.1 * math.sqrt(2), rng.uniform(0, 1, 9))
        assert l1_distance(f, g) == pytest.approx(_l1_bruteforce(f, g), rel=1e-10, abs=1e-12)


def test_l1_symmetry_and_triangle():
    rng = np.random.default_rng(14)
    fs = [GridFunction(rng.uniform(-1, 1), 0.05, rng.uniform(0, 1, 30)) for _ in range(3)]
    a, b, c = fs
    assert l1_distance(a, b) == pytest.approx(l1_distance(b, a), rel=1e-12)
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


def _rough(rng, origin, step, n):
    """Random cell values with hard zeros."""
    vals = rng.uniform(0, 2, n)
    vals[rng.random(n) < 0.3] = 0.0
    return GridFunction(origin, step, vals)


@pytest.mark.parametrize(
    "step_a, step_b",
    [
        (0.1, 0.1),
        (0.1, 0.05),
        (0.05, 0.1),
        (0.09, 0.03),
        (0.03, 0.09),
        (0.1, 0.1 * math.sqrt(2)),  # incommensurate: one l1_distance per shift
    ],
)
def test_l1_shifts_matches_per_shift_distance(step_a, step_b):
    rng = np.random.default_rng(15)
    for frac in (0.0, 0.37, 0.999, 1e-13, 1.0 - 1e-13, -1e-13):
        for _ in range(4):
            a = _rough(rng, rng.uniform(-1, 1), step_a, int(rng.integers(1, 30)))
            whole = int(rng.integers(-5, 5))
            b = _rough(rng, a.origin + step_a * (whole + frac), step_b, int(rng.integers(1, 30)))
            # Far enough in both directions that the two windows do not meet;
            # unordered, with repeats.
            reach = int((a.size + 6) * step_a / step_b) + b.size + 2
            shifts = rng.permutation(np.arange(-reach, reach + 1))
            shifts = np.concatenate([shifts, shifts[:5]])
            got = _l1_shifts(a, b, shifts)
            ref = [l1_distance(a, b.shift(k * b.step)) for k in shifts]
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
            for k, d in zip(shifts[:6], got):
                oracle = _l1_bruteforce(a, b.shift(k * b.step))
                assert d == pytest.approx(oracle, rel=1e-10, abs=1e-12)


# -- from_samples --------------------------------------------------------------


def test_from_samples_cell_count():
    f = from_samples(lambda x: np.ones_like(x), 0.0, 1.0, 0.1)
    assert f.size == 10
    g = from_samples(lambda x: np.ones_like(x), 0.0, 1.05, 0.1)
    assert g.size == 11
    # 9.75 / 3e-4 is 32 500 plus float noise that an absolute slack misses.
    assert from_samples(np.ones_like, -9.0, 0.75, 3e-4).size == 32_500


@pytest.mark.parametrize(
    "lo, hi, step",
    [
        (0.0, 1.0, 0.0),
        (0.0, 1.0, math.nan),
        (0.0, 1.0, -0.1),
        (0.0, 1.0, math.inf),
        (1.0, 0.0, 0.1),
        (0.0, 0.0, 0.1),
        (0.0, math.inf, 0.1),
    ],
)
def test_from_samples_rejects_bad_step_and_window(lo, hi, step):
    with pytest.raises(DomainError):
        from_samples(np.ones_like, lo, hi, step)


def test_from_samples_rejects_a_step_whose_cell_count_overflows():
    with pytest.raises(DomainError, match="2\\*\\*52"):
        from_samples(np.ones_like, 0.0, 1.0, 5e-324)


def test_from_samples_rejects_more_than_2_52_cells_before_sampling():
    import tracemalloc

    def never(x):
        raise AssertionError("sampled a window that was too large")

    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="2\\*\\*52"):
            from_samples(never, 0.0, 2.0**60, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_synth_checks_the_step_before_dividing():
    with pytest.raises(DomainError, match="step must be positive and finite"):
        indicator(0, 1, 1.0, 0.0)


def test_from_samples_rejects_negative():
    with pytest.raises(DomainError, match="negative"):
        from_samples(lambda x: np.sin(8 * x), 0.0, 3.0, 0.01)


# -- JSON round trip -----------------------------------------------------------


def test_json_round_trip(tmp_path):
    f = gaussian_grid(step=0.01, window=(-2, 2))
    p = tmp_path / "f.json"
    write_function(f, p)
    g = read_function(p)
    assert g.origin == f.origin and g.step == f.step
    assert np.array_equal(g.values, f.values)


def test_read_function_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        read_function(p)


def test_read_function_rejects_missing_key(tmp_path):
    p = tmp_path / "bad2.json"
    p.write_text(json.dumps({"origin": 0.0, "step": 0.1}))
    with pytest.raises(FormatError):
        read_function(p)


def test_read_function_names_offending_index(tmp_path):
    p = tmp_path / "bad3.json"
    p.write_text(json.dumps({"origin": 0.0, "step": 0.1, "values": [1.0, -2.0, 3.0]}))
    with pytest.raises(FormatError) as exc:
        read_function(p)
    assert "1" in str(exc.value)


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"origin": True, "step": 0.5, "values": [1, 2]}, "origin"),
        ({"origin": 0.0, "step": True, "values": [1, 2]}, "step"),
        ({"origin": 0.0, "step": 0.5, "values": [1, True, 2]}, "index 1"),
        ({"origin": [0.0, False], "step": [0.5, 0.5], "values": [[1, 2]]}, "origin"),
        ({"origin": [0.0, 0.0], "step": [0.5, 0.5], "values": [[1, 2], [True, 3]]}, "(1, 0)"),
    ],
)
def test_read_function_rejects_booleans(tmp_path, payload, named):
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as exc:
        read_function(p)
    assert named in str(exc.value)


def test_read_function_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_function(tmp_path / "nope.json")
