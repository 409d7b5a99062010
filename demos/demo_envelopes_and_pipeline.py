#!/usr/bin/env python3
"""Level profiles, concave envelopes, and the reconstruction pipeline.

Shows the round trip function -> level profile -> envelope pair ->
log-concave rebuild, then runs the full pipeline on an equality triple
and on a perturbed pair, printing the error decomposition and stage
flags of each report.
"""

import json
import sys

from plstab import (
    PLTriple,
    PipelineConfig,
    from_envelopes,
    is_log_concave,
    l1_distance,
    stability_decompose,
    sup_convolution,
)
from plstab.profiles import extract_profile, level_grid, regularize
from plstab.reconstruct import _fit_envelopes
from plstab.synth import gaussian, perturbed_pair, rng_from

FAILS = 0


def check(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    print(f"{'PASS' if ok else 'FAIL':4}  {label:68}{detail}")


def main() -> int:
    print("Round trip: Gaussian -> profile -> envelopes -> rebuild")
    print("=" * 90)
    f = gaussian(0.0, 1.0, 1.0, step=1e-3, window=(-6.0, 6.0))
    S = f.sup_norm()
    levels = level_grid(1e-6 * S, S * (1 - 1e-12), 512)
    prof = regularize(extract_profile(f, levels))
    env = _fit_envelopes(prof)
    rebuilt = from_envelopes(env, floor_level=1e-6 * S, step=f.step)
    err = l1_distance(rebuilt, f)
    print(f"   512 levels; envelope fit errors: lower {env.fit_error_lower:.2e}, "
          f"upper {env.fit_error_upper:.2e}")
    check(err <= 4 * f.step, "rebuild within 4 grid cells in L1", f"L1 = {err:.2e}")
    check(is_log_concave(rebuilt, tol=1e-9).is_log_concave, "rebuild is log-concave")

    print()
    print("Pipeline on the equality triple f = g")
    print("=" * 90)
    cfg = PipelineConfig(level_count=256, supconv_mode="auto")
    h = sup_convolution(f, f, 0.5, mode="halfgrid")
    rep, ft, gt, ht = stability_decompose(PLTriple(f, f, h, 0.5), cfg)
    print(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True)[:600])
    total = rep.err_f + rep.err_g + rep.err_h
    check(total <= 10 * f.step * 3 * f.sup_norm(), "errors at the quadrature scale",
          f"total = {total:.3e}")
    check(abs(rep.w) <= 4 * f.step, "no spurious translation", f"w = {rep.w:+.3e}")

    print()
    print("Pipeline on a perturbed pair (amplitude 0.1)")
    print("=" * 90)
    fp, gp = perturbed_pair(rng_from(42), 0.1, step=2e-3, window=(-4.0, 4.0))
    hp = sup_convolution(fp, gp, 0.5, mode="auto")
    repp, *_ = stability_decompose(PLTriple(fp, gp, hp, 0.5), cfg)
    print(f"   epsilon = {repp.epsilon:.3e}")
    print(f"   err_f = {repp.err_f:.3e}  err_g = {repp.err_g:.3e}  err_h = {repp.err_h:.3e}")
    print(f"   recovered shift w = {repp.w:+.3e}, mass ratio a = {repp.a:.4f}")
    check(repp.epsilon >= 0, "perturbation produces a nonnegative deficit")
    flags = repp.stage_flags
    check(bool(flags.get("f_tilde_log_concave")) and bool(flags.get("g_tilde_log_concave")),
          "witnesses are log-concave")

    print()
    print(f"done: {FAILS} failure(s)")
    return 1 if FAILS else 0


if __name__ == "__main__":
    sys.exit(main())
