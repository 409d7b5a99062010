"""Property tests: an absent level is a NaN boundary and nothing else.

Level profiles and the envelope checks mark a missing level or sample
only by a non-finite value.  These properties compare them, on random
profiles, keep-masks and sampled functions, with references written here
that carry the mask beside the data instead.  Skipped when hypothesis is
not installed (``pip install .[test]``).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from plstab import DomainError, four_point_check, regularize
from plstab.profiles import LevelProfile
from test_envelope import assert_report_matches, loop_four_point

# Derandomized, so a run is the same on every machine, and small enough
# that the module takes under two seconds.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=75)

LAMBDAS = st.one_of(
    st.sampled_from([0.25, 0.3, 0.4, 0.5, 0.7, 5.0 / 6.0]),
    st.floats(0.05, 0.95),
)


def masks(n):
    return arrays(bool, n, elements=st.booleans(), fill=st.nothing())


def values(n, bound):
    return arrays(np.float64, n, elements=st.floats(-bound, bound), fill=st.nothing())


@st.composite
def profiles_and_keeps(draw):
    """A profile with some empty levels, and a mask of levels to keep."""
    n = draw(st.integers(1, 40))
    gaps = draw(arrays(np.float64, n, elements=st.floats(1e-3, 1.0), fill=st.nothing()))
    mid, wid = draw(values(n, 1.0)), np.abs(draw(values(n, 2.0)))
    if draw(st.booleans()):
        # Like the profile of a function: widest at the lowest level.
        wid = np.sort(wid)[::-1]
    empty, keep = draw(masks(n)), draw(masks(n))
    left = np.where(empty, np.nan, mid - wid)
    right = np.where(empty, np.nan, mid + wid)
    hull = np.where(empty, np.nan, np.abs(draw(values(n, 1.0))))
    return LevelProfile(np.cumsum(gaps), left, right, hull), keep


def mask_regularize(left, right, valid):
    """The running hull over levels that are valid and nonempty, level by
    level from the top, with the usability mask carried beside the data."""
    usable = valid & ~np.isnan(left)
    n = left.size
    out_left, out_right = np.full(n, np.nan), np.full(n, np.nan)
    assigned = np.zeros(n, dtype=bool)
    lo, hi = np.inf, -np.inf
    for k in range(n - 1, -1, -1):
        if usable[k]:
            lo, hi = min(lo, left[k]), max(hi, right[k])
        if usable[k:].any():
            out_left[k], out_right[k], assigned[k] = lo, hi, True
    return out_left, out_right, assigned


@PROPERTY
@given(profiles_and_keeps())
def test_regularize_of_restricted_profile_matches_the_mask_form(case):
    p, keep = case
    r = p.restricted(keep)
    assert np.array_equal(r.usable(), keep & p.usable())
    assert np.array_equal(np.isnan(r.hull_deficit), ~keep | np.isnan(p.hull_deficit))
    if not r.usable().any():
        with pytest.raises(DomainError):
            regularize(r)
        return
    got = regularize(r)
    left, right, assigned = mask_regularize(p.left, p.right, keep)
    assert got.left.tobytes() == left.tobytes()
    assert got.right.tobytes() == right.tobytes()
    assert np.array_equal(got.usable(), assigned)
    assert got.hull_deficit.tobytes() == np.where(assigned, 0.0, np.nan).tobytes()


@st.composite
def sampled_functions(draw):
    """Two functions sampled on one uniform grid, each with its own mask."""
    n = draw(st.integers(2, 40))
    T = np.linspace(-1.0, 0.0, n)
    return T, [(draw(values(n, 2.0)), draw(masks(n))) for _ in range(2)]


@PROPERTY
@given(sampled_functions(), LAMBDAS, st.sampled_from([0.0, 1e-3]))
def test_four_point_on_nan_marked_samples_matches_the_mask_form(case, lam, sigma):
    # A point counts only where every function is finite: the mask form
    # is the intersection of the two masks.
    T, samples = case
    both = samples[0][1] & samples[1][1]
    reports = four_point_check(T, [np.where(m, psi, np.nan) for psi, m in samples], lam, sigma)
    for (psi, _), rep in zip(samples, reports):
        assert_report_matches(rep, loop_four_point(T, psi, lam, sigma, both))
