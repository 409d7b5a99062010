"""Pinned reference outputs: the current code must reproduce tests/data/reference.json.

Hashes, counts, flags and the stage-6 translation ``w`` must match
exactly; every other float must match to 1e-12 relative.  See
``make_reference.py`` for the cases and for how to regenerate the file.
"""

import json

import pytest

from make_reference import REFERENCE_PATH, _plain, compute

REL = 1e-12
EXACT_FLOATS = {"w"}


def _mismatches(ref, new, path="") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(new, dict) or set(ref) != set(new):
            got = sorted(new) if isinstance(new, dict) else new
            return [f"{path}: keys {sorted(ref)} != {got}"]
        out = []
        for key in ref:
            out += _mismatches(ref[key], new[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(new, list) or len(ref) != len(new):
            return [f"{path}: {ref} != {new}"]
        out = []
        for k, (a, b) in enumerate(zip(ref, new)):
            out += _mismatches(a, b, f"{path}[{k}]")
        return out
    exact = (
        path.rsplit(".", 1)[-1] in EXACT_FLOATS
        or isinstance(ref, (bool, int, str))
        or ref is None
    )
    if exact:
        same = type(ref) is type(new) and ref == new
    else:
        same = isinstance(new, float) and abs(ref - new) <= REL * max(abs(ref), abs(new))
    return [] if same else [f"{path}: reference {ref!r}, now {new!r}"]


@pytest.fixture(scope="module")
def fresh():
    return _plain(compute())


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE_PATH.read_text())


@pytest.mark.parametrize("kind", ["cases_1d", "cases_float", "cases_2d"])
def test_outputs_match_pinned_reference(kind, fresh, reference):
    bad = _mismatches(reference[kind], fresh[kind], kind)
    assert not bad, "\n".join(bad[:20])


def test_reference_covers_every_family_and_lambda(reference):
    seen = {(c["family"], c["lam"]) for c in reference["cases_1d"]}
    assert seen == {
        (fam, lam)
        for fam in ("log_concave", "rough", "perturbed")
        for lam in (0.25, 0.3, 0.5, 0.7)
    }
    floats = {(c["family"], c["lam"]) for c in reference["cases_float"]}
    assert floats == {(fam, 0.37) for fam in ("log_concave", "rough", "perturbed")}
    assert len(reference["cases_2d"]) == 2


def test_comparison_rules():
    ref = {"w": 1.0, "count": 3, "err": 1.0, "hash": "ab", "flag": True}
    assert not _mismatches(ref, dict(ref, err=1.0 + 5e-13))
    assert _mismatches(ref, dict(ref, err=1.0 + 5e-12))
    assert _mismatches(ref, dict(ref, w=1.0 + 2.3e-16))
    assert _mismatches(ref, dict(ref, count=4))
    assert _mismatches(ref, dict(ref, hash="ac"))
    assert _mismatches(ref, dict(ref, flag=False))
