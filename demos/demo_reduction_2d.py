#!/usr/bin/env python3
"""Reduction of 2D triples to additive 1D triples.

The square-indicator counterexample has deficit exactly 0.125 in 2D; the
reduction through distribution functions and the multiplicative-to-
additive change of variables preserves it.  A product-Gaussian equality
triple reduces to deficit zero up to level discretization.
"""

import sys

import numpy as np

from plstab import GridFunctionND, PLTriple, deficit, reduced_deficit

FAILS = 0


def check(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    print(f"{'PASS' if ok else 'FAIL':4}  {label:68}{detail}")


def main() -> int:
    print("Square indicators: f on [0,1]^2, g on [0,2]^2, h on [0,1.5]^2")
    print("=" * 90)
    step = 0.05
    f = GridFunctionND((0.0, 0.0), (step, step), np.ones((20, 20)))
    g = GridFunctionND((0.0, 0.0), (step, step), np.ones((40, 40)))
    h = GridFunctionND((0.0, 0.0), (step, step), np.ones((30, 30)))
    d2 = deficit(PLTriple(f, g, h, 0.5))
    print(f"   2D masses: {d2.int_f:.4f}, {d2.int_g:.4f}, {d2.int_h:.4f}; "
          f"geometric mean {d2.geo_mean:.4f}")
    check(abs(d2.epsilon - 0.125) <= 1e-12, "2D deficit is exactly 1/8",
          f"epsilon = {d2.epsilon:.12f}")

    rep = reduced_deficit(PLTriple(f, g, h, 0.5))
    print(f"   reduced 1D deficit = {rep.epsilon:.6f}; mass error = {rep.mass_error:.2e}")
    print(f"   sampled violations: 2D condition {rep.condition_2d_violations}, "
          f"multiplicative {rep.multiplicative_violations}, "
          f"Brunn-Minkowski {rep.brunn_minkowski_violations}")
    check(rep.epsilon <= 0.125 + 5e-3, "reduction preserves the deficit")
    check(rep.condition_2d_violations == 0, "2D condition holds on samples")
    check(rep.multiplicative_violations == 0, "multiplicative condition holds on levels")

    print()
    print("Product Gaussian at 256 x 256 (equality instance: h = f = g)")
    print("=" * 90)
    n, half = 256, 3.0
    s2 = 2 * half / n
    c = -half + s2 * (np.arange(n) + 0.5)
    v = np.exp(-(c**2))
    fg = GridFunctionND((-half, -half), (s2, s2), np.outer(v, v))
    rep_g = reduced_deficit(PLTriple(fg, fg, fg, 0.5))
    print(f"   reduced deficit = {rep_g.epsilon:.3e}; mass error = {rep_g.mass_error:.3e}")
    check(abs(rep_g.epsilon) <= 1e-2, "equality instance reduces to zero deficit")

    print()
    print(f"done: {FAILS} failure(s)")
    return 1 if FAILS else 0


if __name__ == "__main__":
    sys.exit(main())
