"""Per-layer quantities read at traced call boundaries, and the per-layer
metrics computed from the spans of a traced run.

Every metric is reported per job, named ``<module>.<function>.<qty>``.
README.md in this directory lists which end-to-end metric each one is
expected to move, and on which workload.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _sup_convolution(tr: Tracer, idx: int, args, kwargs, out) -> None:
    # The mode is read off the output grid, not re-derived from the
    # dispatch rule: halfgrid output has half the input step.
    f = _arg(args, kwargs, 0, "f")
    g = _arg(args, kwargs, 1, "g")
    mode = "halfgrid" if out.step < 0.75 * f.step else "snap"
    tr.rename(idx, f"plcore.sup_convolution.{mode}")
    tr.counts["plcore.sup_convolution.pairs"] += int(np.count_nonzero(f.values)) * g.size


def _sup_convolution_2d(tr: Tracer, idx: int, args, kwargs, out) -> None:
    f = _arg(args, kwargs, 0, "f")
    g = _arg(args, kwargs, 1, "g")
    tr.counts["multidim.sup_convolution_2d.pairs"] += int(
        np.count_nonzero(f.values)
    ) * int(np.count_nonzero(g.values))


def _condition_satisfied(tr: Tracer, idx: int, args, kwargs, out) -> None:
    tr.counts["plcore.PLTriple.condition_satisfied.checked"] += out.checked


def _good_levels(tr: Tracer, idx: int, args, kwargs, out) -> None:
    tr.counts["profiles.good_levels.good"] += int(out.mask.sum())
    tr.counts["profiles.good_levels.levels"] += int(out.mask.size)


def _stability_decompose(tr: Tracer, idx: int, args, kwargs, out) -> None:
    tr.counts["profiles.good_levels_empty"] += int(out[0].stage_flags["good_levels_empty"])


ANNOTATORS = {
    "plcore.sup_convolution": _sup_convolution,
    "multidim.sup_convolution_2d": _sup_convolution_2d,
    "plcore.PLTriple.condition_satisfied": _condition_satisfied,
    "profiles.good_levels": _good_levels,
    "reconstruct.stability_decompose": _stability_decompose,
}

# Spans whose call count is reported.
CALLS = (
    "gridfn.l1_distance",
    "gridfn.GridFunction.shift",
    "plcore.sup_convolution.snap",
    "plcore.sup_convolution.halfgrid",
    "plcore.PLTriple.condition_satisfied",
    "profiles.extract_profile",
    "envelope.four_point_check",
    "reconstruct.stability_decompose",
    "multidim.sup_convolution_2d",
)

# Spans whose self time is reported.
SELF_MS = (
    "gridfn.l1_distance",
    "gridfn.GridFunction.shift",
    "plcore.sup_convolution.snap",
    "plcore.sup_convolution.halfgrid",
    "plcore.PLTriple.condition_satisfied",
    "envelope.four_point_check",
    "envelope.three_point_check",
    "envelope.least_concave_majorant",
    "envelope.greatest_convex_minorant",
    "profiles.extract_profile",
    "profiles.good_levels",
    "profiles.regularize",
    "profiles.build_bubble",
    "rearrange.symmetric_decreasing",
    "rearrange.rearranged_triple",
    "reconstruct.stability_decompose",
    "reconstruct.from_envelopes",
    "reconstruct.is_log_concave",
    "multidim.sup_convolution_2d",
    "multidim.reduced_deficit",
    "multidim.distribution",
)

# Counters accumulated by the annotators and the construction hook.
COUNTS = (
    "gridfn.GridFunction.constructions",
    "plcore.sup_convolution.pairs",
    "plcore.PLTriple.condition_satisfied.checked",
    "multidim.sup_convolution_2d.pairs",
    "profiles.good_levels_empty",
)


def per_layer(tracer: Tracer, n_jobs: int, job_s: float) -> dict[str, tuple[float, str]]:
    """Per-job layer metrics from the spans of ``n_jobs`` traced jobs that
    took ``job_s`` seconds of wall time in total."""
    spans = tracer.arrays()
    name, parent, self_s = spans["name"], spans["parent"], spans["self"]
    dur = spans["end"] - spans["start"]
    ids = {n: i for i, n in enumerate(tracer.names)}
    n_names = len(tracer.names)
    calls = np.bincount(name, minlength=n_names)
    self_by_name = np.bincount(name, weights=self_s, minlength=n_names)

    def per_name(table: np.ndarray, key: str) -> float:
        return float(table[ids[key]]) if key in ids else 0.0

    out: dict[str, tuple[float, str]] = {}
    for key in CALLS:
        out[f"{key}.calls"] = (per_name(calls, key) / n_jobs, "count")
    for key in SELF_MS:
        out[f"{key}.self_ms"] = (1e3 * per_name(self_by_name, key) / n_jobs, "ms")
    for key in COUNTS:
        out[key] = (tracer.counts[key] / n_jobs, "count")

    conv_s = per_name(self_by_name, "plcore.sup_convolution.snap") + per_name(
        self_by_name, "plcore.sup_convolution.halfgrid"
    )
    pairs = tracer.counts["plcore.sup_convolution.pairs"]
    out["plcore.sup_convolution.mpairs_per_s"] = (
        pairs / conv_s / 1e6 if conv_s > 0 else 0.0,
        "Mpair/s",
    )
    levels = tracer.counts["profiles.good_levels.levels"]
    out["profiles.good_level_frac"] = (
        tracer.counts["profiles.good_levels.good"] / levels if levels else 0.0,
        "1",
    )

    # Stage 6 of stability_decompose: the l1_distance calls made directly
    # from the pipeline (the shift scan and the err_h distance).
    if "gridfn.l1_distance" in ids and "reconstruct.stability_decompose" in ids:
        scan = (name == ids["gridfn.l1_distance"]) & (parent >= 0)
        scan[scan] = name[parent[scan]] == ids["reconstruct.stability_decompose"]
    else:
        scan = np.zeros(name.size, dtype=bool)
    out["reconstruct.shift_scan.evals"] = (int(scan.sum()) / n_jobs, "count")
    out["reconstruct.shift_scan.ms"] = (1e3 * float(dur[scan].sum()) / n_jobs, "ms")

    listed = np.zeros(n_names, dtype=bool)
    for key in SELF_MS:
        if key in ids:
            listed[ids[key]] = True
    out["trace.unlisted_self_ms"] = (
        1e3 * float(self_by_name[~listed].sum()) / n_jobs,
        "ms",
    )
    top = parent < 0
    out["trace.accounted_frac"] = (float(dur[top].sum()) / job_s, "1")
    return out
