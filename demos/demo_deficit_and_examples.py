#!/usr/bin/env python3
"""Deficit basics and the two closed-form counterexample families.

Walks through: the equality case (a Gaussian paired with itself), the
indicator pair with its exact deficit, the perturbed-Gaussian family with
its square-root distance law, and the two-block exponential family whose
log-concave hull captures far more mass than the reconstruction witness.
"""

import math
import sys

import numpy as np

from plstab import (
    GridFunction,
    PLTriple,
    PipelineConfig,
    deficit,
    l1_distance,
    log_concave_hull,
    stability_decompose,
    sup_convolution,
)
from plstab.cli import run_example1, run_example2
from plstab.synth import gaussian, indicator

FAILS = 0


def check(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    print(f"{'PASS' if ok else 'FAIL':4}  {label:68}{detail}")


def section(title: str) -> None:
    print()
    print("=" * 90)
    print(title)
    print("=" * 90)


def main() -> int:
    section("1. Equality case: f = g = h = exp(-pi x^2)")
    f = gaussian(0.0, 1.0, 1.0, step=1e-3, window=(-6.0, 6.0))
    for lam in (0.3, 0.5):
        h = sup_convolution(f, f, lam, mode="auto")
        rep = deficit(PLTriple(f, f, h, lam))
        check(abs(rep.epsilon) <= 1e-3, f"deficit vanishes at lam={lam}",
              f"epsilon = {rep.epsilon:+.3e}")

    section("2. Indicator pair: f = 1_[0,1], g = 1_[0,2], lam = 1/2")
    step = 1e-3
    fi = indicator(0.0, 1.0, 1.0, step)
    gi = indicator(0.0, 2.0, 1.0, step)
    hi = sup_convolution(fi, gi, 0.5, mode="auto")
    rep = deficit(PLTriple(fi, gi, hi, 0.5))
    exact = 1.5 / math.sqrt(2.0) - 1.0
    print(f"   support of h = [0, 1.5]; int h = {rep.int_h:.6f}; geometric mean = {rep.geo_mean:.6f}")
    check(abs(rep.epsilon - exact) <= 2 * step,
          "deficit equals 1.5/sqrt(2) - 1", f"epsilon = {rep.epsilon:.6f} vs {exact:.6f}")

    section("3. Perturbed Gaussian family: epsilon ~ eta^2, distance ~ eta")
    etas = [0.02 * k for k in range(1, 11)]
    rows, summary = run_example1(etas, step=1e-3)
    print(f"   {'eta':>6} {'epsilon':>12} {'min-shift L1':>14}")
    for r in rows:
        print(f"   {r.eta:6.2f} {r.epsilon:12.3e} {r.d:14.3e}")
    slope = summary["slope_logd_vs_logeps"]
    check(0.4 <= slope <= 0.6, "log-distance vs log-deficit slope near 1/2",
          f"slope = {slope:.3f}")

    section("4. Two-block exponential family at A = 5")
    rows = run_example2([5.0], step=1e-3)
    r = rows[0]
    print(f"   epsilon = {r.epsilon:.3e} (closed form {r.epsilon_closed_form:.3e})")
    print(f"   hull gap = {r.hull_gap:.6f} (closed form {math.exp(-1) - math.exp(-10):.6f})")
    check(r.epsilon <= 2.0 * math.exp(-5.0), "tiny deficit despite split support")
    check(r.hull_gap_over_int_f >= 0.5, "hull adds at least half the mass",
          f"ratio = {r.hull_gap_over_int_f:.3f}")

    # The pipeline witness hugs one block; the hull spans both.
    n = int(round(11.0 / step))
    c = step * (np.arange(n) + 0.5)
    f2 = GridFunction(0.0, step, np.where((c < 1.0) | (c >= 10.0), np.exp(-c), 0.0))
    h2 = sup_convolution(f2, f2, 0.5, mode="halfgrid")
    _, f_tilde, _, _ = stability_decompose(
        PLTriple(f2, f2, h2, 0.5), PipelineConfig(level_count=256)
    )
    F = log_concave_hull(f2)
    d = l1_distance(f_tilde, F)
    check(d >= 0.4 * f2.integral(), "reconstruction witness far from the hull",
          f"L1 = {d:.4f} >= 0.4 * {f2.integral():.4f}")

    print()
    print(f"done: {FAILS} failure(s)")
    return 1 if FAILS else 0


if __name__ == "__main__":
    sys.exit(main())
