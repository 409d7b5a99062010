#!/usr/bin/env python3
"""Lemma-level diagnostics and the explicit constants table.

Runs the tail-geometry checks on three canonical log-concave shapes,
exercises the sup-ratio check on a near-equality pair and on the
indicator pair (where its hypothesis fails), and prints the constants
table with its hypothesis-representability verdict.
"""

import sys

import numpy as np

from plstab import (
    TheoremConstants,
    canonical_triple,
    check_logconcave_tails,
    check_sup_ratio,
    check_tail_truncation,
)
from plstab.synth import gaussian, indicator, truncated_exponential

FAILS = 0


def check(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    print(f"{'PASS' if ok else 'FAIL':4}  {label:68}{detail}")


def main() -> int:
    print("Tail geometry of log-concave functions (3 * step * sup allowance)")
    print("=" * 90)
    shapes = [
        ("indicator", indicator(0.0, 2.0, 1.0, 1e-3)),
        ("exponential", truncated_exponential(1.0, 0.0, 20.0, 1.0, 1e-3)),
        ("gaussian", gaussian(0.0, 1.0, 1.0, step=1e-3, window=(-6.0, 6.0))),
    ]
    for name, phi in shapes:
        rows = check_logconcave_tails(phi, name)
        worst = max((r.ratio for r in rows if r.bound > 0), default=0.0)
        check(all(r.passed for r in rows), f"{name}: all {len(rows)} rows pass",
              f"worst measured/bound = {worst:.3f}")

    print()
    print("Sup-norm ratio control")
    print("=" * 90)
    f = gaussian(0.0, 1.0, 1.0, step=2e-3, window=(-6.0, 6.0))
    g = gaussian(0.0, 1.05, 1.0, step=2e-3, window=(-6.0, 6.0))
    row = check_sup_ratio(canonical_triple(f, g, 0.5, mode="halfgrid"), "near-equality")
    print(f"   near-equality: measured {row.measured:.4f} vs bound {row.bound:.4f} "
          f"(hypothesis met: {row.hypothesis_met})")
    check(row.hypothesis_met and row.passed, "near-equality pair within bound")
    row2 = check_sup_ratio(
        canonical_triple(
            indicator(0.0, 1.0, 1.0, 1e-3), indicator(0.0, 2.0, 1.0, 1e-3), 0.5, mode="snap"
        ),
        "indicator-pair",
    )
    print(f"   indicator pair: measured {row2.measured:.4f}, hypothesis met: {row2.hypothesis_met}")
    check(not row2.hypothesis_met, "indicator pair: deficit too large, check vacuous")

    print()
    print("Truncation at eta * sup (eta = 0.1, equality Gaussian)")
    print("=" * 90)
    t = canonical_triple(f, f, 0.5, mode="halfgrid")
    for r in check_tail_truncation(t, 0.1, "gauss"):
        print(f"   {r.check_name:14} measured = {r.measured:.4f}  bound = {r.bound:.3g}")
        check(r.passed, f"{r.check_name} within bound")

    print()
    print("Constants table (per-tau explicit constants)")
    print("=" * 90)
    table = [TheoremConstants(float(tau)) for tau in np.geomspace(1e-3, 0.5, 6)]
    print(f"   {'tau':>8} {'alpha_tau':>12} {'log10 Q':>10} {'log10 M':>10} {'omega':>7} repr")
    for c in table:
        print(f"   {c.tau:8.4f} {c.alpha_tau:12.5e} {c.log10_Q:10.2f} "
              f"{c.log10_M:10.2f} {c.omega:7.3f} {c.hypothesis_representable}")
    check(all(not c.hypothesis_representable for c in table),
          "hypothesis threshold below float range for every tau",
          "the quantitative regime is out of numerical reach")

    print()
    print(f"done: {FAILS} failure(s)")
    return 1 if FAILS else 0


if __name__ == "__main__":
    sys.exit(main())
