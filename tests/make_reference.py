"""Pinned reference outputs for the refactor gate: compute and write them.

The cases are seeded triples from the three ``synth`` families (two
log-concave functions, two rough functions with hard zeros, and a
log-concave function with a perturbation of it) at every
lam in {1/4, 0.3, 1/2, 0.7}, the same families at lam = 0.37, which has
no p/q with q <= 64 and so pins the float snap rule, and two 2D triples
built like the benchmark's ``reduce_2d`` instances.  For each case the
record holds:

* a SHA-256 of each ``sup_convolution`` mode's output (origin, step and
  the raw float64 values),
* the ``deficit`` fields and the ``ConditionReport`` of the canonical
  snap triple,
* the ``StabilityReport`` fields and the numeric ``stage_flags`` of the
  pipeline on the canonical ``auto`` triple,
* for the 2D cases, the hash of ``sup_convolution_2d`` and the
  ``ReducedDeficitReport`` fields.

``tests/test_reference.py`` compares a fresh ``compute()`` against
``tests/data/reference.json``.  Regenerate the file only in a change that
moves numbers on purpose, and say which numbers moved and why::

    PYTHONPATH=src python tests/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import plstab as pl
from plstab import synth

REFERENCE_PATH = Path(__file__).with_name("data") / "reference.json"

LAMBDAS = (0.25, 0.3, 0.5, 0.7)
FLOAT_LAMBDA = 0.37
STEP = 4e-3
WINDOW = (-4.0, 4.0)  # 2 000 cells at STEP
PERTURBATION = 0.1
GRID_2D = 64
HALF_WIDTH_2D = 3.0


def _hash(origin, step, values: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(repr((origin, step, values.shape)).encode())
    h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return h.hexdigest()


def _family_pair(family: str, seed: int):
    rng = np.random.default_rng(seed)
    if family == "log_concave":
        f = synth.random_log_concave(rng, step=STEP, window=WINDOW)
        g = synth.random_log_concave(rng, step=STEP, window=WINDOW)
    elif family == "rough":
        f = synth.random_grid_function(rng, step=STEP, window=WINDOW)
        g = synth.random_grid_function(rng, step=STEP, window=WINDOW)
    else:
        f, g = synth.perturbed_pair(rng, PERTURBATION, step=STEP, window=WINDOW)
    return f, g


def _case_1d(family: str, lam: float, seed: int) -> dict:
    f, g = _family_pair(family, seed)
    modes = ("snap", "halfgrid", "auto") if lam == 0.5 else ("snap", "auto")
    hashes = {}
    for mode in modes:
        h = pl.sup_convolution(f, g, lam, mode=mode)
        hashes[mode] = _hash(h.origin, h.step, h.values)
    snap = pl.canonical_triple(f, g, lam, mode="snap")
    cond = snap.condition_satisfied()
    auto = pl.canonical_triple(f, g, lam, mode="auto")
    report, *_ = pl.stability_decompose(auto, pl.PipelineConfig(supconv_mode="auto"))
    return {
        "family": family,
        "lam": lam,
        "seed": seed,
        "sizes": [f.size, g.size],
        "sup_convolution": hashes,
        "deficit": pl.deficit(snap).to_json_dict(),
        "condition": {
            "satisfied": cond.satisfied,
            "checked": cond.checked,
            "violations": cond.violations,
            "max_violation": cond.max_violation,
            "worst_pair": list(cond.worst_pair) if cond.worst_pair else None,
        },
        "stability": report.to_json_dict(),
    }


def _product_gaussian(rng: np.random.Generator, step: float) -> np.ndarray:
    window = (-HALF_WIDTH_2D, HALF_WIDTH_2D)
    mx, my = rng.uniform(-0.5, 0.5, size=2)
    sx, sy = rng.uniform(0.6, 1.2, size=2)
    height = rng.uniform(0.5, 2.0)
    vx = synth.gaussian(mx, sx, 1.0, window=window, step=step).values
    vy = synth.gaussian(my, sy, height, window=window, step=step).values
    return np.outer(vx, vy)


def _case_2d(lam: float, eta: float, seed: int) -> dict:
    # Product Gaussians, g perturbed by an odd bump in x under a Gaussian
    # envelope in y: the construction of the benchmark's 2D instances.
    rng = np.random.default_rng(seed)
    step = 2.0 * HALF_WIDTH_2D / GRID_2D
    centers = -HALF_WIDTH_2D + step * (np.arange(GRID_2D) + 0.5)
    x, y = np.meshgrid(centers, centers, indexing="ij")
    f = _product_gaussian(rng, step)
    g = _product_gaussian(rng, step)
    cx, cy = rng.uniform(-1.0, 1.0, size=2)
    width = rng.uniform(0.8, 1.6)
    psi = synth.bump_profile((x - cx) / width) * np.exp(-(((y - cy) / width) ** 2))
    g = g * (1.0 + eta * psi)
    origin = (-HALF_WIDTH_2D, -HALF_WIDTH_2D)
    f2 = pl.GridFunction2D(origin, (step, step), f)
    g2 = pl.GridFunction2D(origin, (step, step), g)
    h2 = pl.sup_convolution_2d(f2, g2, lam)
    rep = pl.reduced_deficit(pl.Triple2D(f2, g2, h2, lam))
    return {
        "lam": lam,
        "eta": eta,
        "seed": seed,
        "sup_convolution_2d": _hash(tuple(h2.origin), tuple(h2.step), h2.values),
        "reduced": rep.to_json_dict(),
    }


def compute() -> dict:
    """Every reference record, freshly computed from the current code."""
    families = ("log_concave", "rough", "perturbed")
    cases_1d = []
    for k, family in enumerate(families):
        for m, lam in enumerate(LAMBDAS):
            cases_1d.append(_case_1d(family, lam, seed=100 * k + m))
    cases_float = [
        _case_1d(family, FLOAT_LAMBDA, seed=100 * k + len(LAMBDAS))
        for k, family in enumerate(families)
    ]
    cases_2d = [_case_2d(0.5, 0.1, seed=7), _case_2d(0.3, 0.2, seed=8)]
    return {"cases_1d": cases_1d, "cases_float": cases_float, "cases_2d": cases_2d}


def _plain(obj):
    """JSON-ready copy: numpy scalars to Python, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    return obj


def main() -> None:
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE_PATH.write_text(json.dumps(_plain(compute()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
