"""Command-line front end: experiment reproduction, sweeps, reports.

Subcommands
-----------
* ``deficit f.json g.json --lam L [--h h.json]``: deficit report as JSON
  on stdout (canonical h when none is given); files of any dimension.
* ``rearrange f.json [--out out.json]``: symmetric decreasing
  rearrangement as JSON (1D).
* ``reconstruct f.json g.json --lam L [--report out.json]``: run the
  stability pipeline on the canonical triple; report as JSON (1D).
* ``example1 --etas 0.02,0.04,... [--out csv]``: perturbed-Gaussian
  family; emits per-eta deficit and min-shift L1 distance plus fitted
  scaling constants.
* ``example2 --A 5 [--out csv]``: two-block exponential family; emits
  per-A deficit and hull-gap ratios, verified against closed forms.
* ``sweep --config sweep.json``: seeded random perturbation sweep through
  the full pipeline; one CSV row per instance.
* ``constants --tau 0.5,0.25 [--out csv]``: stability constants table.

Exit codes: 0 success, 2 precondition failure (domain errors), 3 I/O
failure (unreadable/malformed files).  Every command is deterministic
given its arguments; CSV output starts with a ``# schema:`` comment line
followed by a header row naming every column.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import constants_table
from .gridfn import (
    DomainError,
    FormatError,
    GridFunction,
    _dumps,
    from_samples,
    l1_distance,
    read_function,
)
from .plcore import PLTriple, deficit, sup_convolution
from .rearrange import symmetric_decreasing
from .reconstruct import (
    PipelineConfig,
    align,
    is_log_concave,
    log_concave_hull,
    stability_decompose,
)
from .synth import bump_profile, perturbed_pair, rng_from

__all__ = [
    "main",
    "run_example1",
    "run_example2",
    "run_sweep",
    "SweepConfig",
    "Example1Row",
    "Example2Row",
]


# -- example 1: perturbed Gaussian family -------------------------------------


@dataclass(frozen=True)
class Example1Row:
    eta: float
    epsilon: float
    d: float
    g_log_concave: bool
    skipped: bool


def run_example1(
    etas: Sequence[float], step: float = 1e-3
) -> tuple[list[Example1Row], dict]:
    """Deficit and minimal-shift distance for the perturbed Gaussian family.

    For each eta builds ``f(x) = exp(-pi x**2)`` on [-4, 4), ``g = (1 +
    eta*phi) f`` with the odd bump ``phi(x) = sin(pi x)(1-x**2)**3``
    (scaled to max 1), takes the canonical h at lam = 1/2, and measures
    the deficit epsilon and the L1 distance ``d = align(g, f, 0.5,
    1.0).err`` between g and the nearest translate of f.  The minimum runs
    over every whole-cell shift that brings f's window onto g's, not over
    a bounded range.  Instances where g fails the log-concavity test are
    skipped and flagged.

    Returns the rows and a summary dict with the fitted constants:
    ``C`` in ``epsilon <= C eta**2``, ``c1`` in ``d >= c1 eta``, and the
    slope of log d against log epsilon.

    Raises:
        DomainError: If any eta lies outside (0, 0.2].
    """
    for eta in etas:
        if not (0.0 < eta <= 0.2):
            raise DomainError(f"eta must lie in (0, 0.2], got {eta}")
    f = from_samples(lambda x: np.exp(-math.pi * x**2), -4.0, 4.0, step)
    centers = f.centers()
    phi = bump_profile(centers)
    rows: list[Example1Row] = []
    for eta in etas:
        g = f.with_values(f.values * (1.0 + eta * phi))
        lc = is_log_concave(g, tol=1e-9)
        if not lc.is_log_concave:
            rows.append(Example1Row(eta, math.nan, math.nan, False, True))
            continue
        h = sup_convolution(f, g, 0.5, mode="halfgrid")
        rep = deficit(PLTriple(f, g, h, 0.5))
        d = align(g, f, 0.5, 1.0).err
        rows.append(Example1Row(float(eta), rep.epsilon, d, True, False))
    used = [r for r in rows if not r.skipped and r.epsilon > 0]
    summary: dict = {"skipped": sum(r.skipped for r in rows)}
    if len(used) >= 2:
        eps_arr = np.array([r.epsilon for r in used])
        d_arr = np.array([r.d for r in used])
        eta_arr = np.array([r.eta for r in used])
        slope = float(np.polyfit(np.log(eps_arr), np.log(d_arr), 1)[0])
        summary["slope_logd_vs_logeps"] = slope
        summary["C_eps_over_eta2"] = float(np.max(eps_arr / eta_arr**2))
        summary["c1_d_over_eta"] = float(np.min(d_arr / eta_arr))
    return rows, summary


# -- example 2: two-block exponential family -----------------------------------


@dataclass(frozen=True)
class Example2Row:
    A: float
    epsilon: float
    epsilon_closed_form: float
    hull_gap: float
    hull_gap_over_int_f: float
    h_matches_closed_form: bool


def _two_block_exponential(A: float, step: float) -> GridFunction:
    """``exp(-x)`` on [0, 1) and [2A, 2A+1), zero between."""
    n = int(round((2 * A + 1) / step))
    centers = step * (np.arange(n) + 0.5)
    vals = np.where(
        (centers < 1.0) | (centers >= 2 * A),
        np.exp(-centers),
        0.0,
    )
    return GridFunction(0.0, step, vals)


def run_example2(
    A_values: Sequence[float], step: float = 1e-3
) -> list[Example2Row]:
    """Deficit and hull gap for the two-block exponential family.

    For each A >= 2, builds ``f = exp(-x)`` on ``[0,1] u [2A, 2A+1]``,
    the canonical ``h = sup_convolution(f, f, 1/2)`` (verified against the
    closed form ``exp(-x)`` on ``[0,1] u [A,A+1] u [2A,2A+1]``), the
    log-concave hull F of f, and emits the deficit together with
    ``int(F - f)`` and its ratio to ``int f``.

    Raises:
        DomainError: If any A < 2.
    """
    rows: list[Example2Row] = []
    for A in A_values:
        if not (np.isfinite(A) and A >= 2.0):
            raise DomainError(f"A must be at least 2, got {A}")
        f = _two_block_exponential(float(A), step)
        h = sup_convolution(f, f, 0.5, mode="halfgrid")
        rep = deficit(PLTriple(f, f, h, 0.5))
        eps_closed = math.exp(-A) / (1.0 + math.exp(-2.0 * A))
        # Closed-form h on the half-step output grid.
        n = int(round((2 * A + 1) / (0.5 * step)))
        centers = 0.5 * step * (np.arange(n) + 0.5)
        closed_vals = np.where(
            (centers < 1.0)
            | ((centers >= A) & (centers < A + 1.0))
            | (centers >= 2 * A),
            np.exp(-centers),
            0.0,
        )
        h_closed = GridFunction(0.0, 0.5 * step, closed_vals)
        h_match = l1_distance(h, h_closed) <= 4.0 * step * h.sup_norm() * 3.0
        F = log_concave_hull(f)
        gap = F.integral() - f.integral()
        rows.append(
            Example2Row(
                A=float(A),
                epsilon=rep.epsilon,
                epsilon_closed_form=eps_closed,
                hull_gap=gap,
                hull_gap_over_int_f=gap / rep.int_f,
                h_matches_closed_form=bool(h_match),
            )
        )
    return rows


# -- sweep ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a perturbation sweep.

    Attributes:
        amplitudes: Positive perturbation amplitudes.
        n_seeds: Instances per amplitude.
        seed: Base seed; instance k at amplitude index a uses seed
            ``seed + 1000*a + k``.
        lam: Interpolation weight.
        step: Grid step of the generated instances.
        window: Grid window.
        level_count: Level-grid size for the pipeline.
    """

    amplitudes: tuple[float, ...]
    n_seeds: int = 10
    seed: int = 0
    lam: float = 0.5
    step: float = 2e-3
    window: tuple[float, float] = (-4.0, 4.0)
    level_count: int = 256

    @staticmethod
    def from_json(path: str | Path) -> "SweepConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise FormatError(f"{path}: top-level JSON value must be an object")
        if "amplitudes" not in payload:
            raise FormatError(f"{path}: missing key 'amplitudes'")
        amps = payload["amplitudes"]
        if not isinstance(amps, list) or not all(
            isinstance(a, (int, float)) and a >= 0 for a in amps
        ):
            raise FormatError(f"{path}: amplitudes must be nonnegative numbers")
        kwargs = {"amplitudes": tuple(float(a) for a in amps)}
        for key, cast in (
            ("n_seeds", int),
            ("seed", int),
            ("lam", float),
            ("step", float),
            ("level_count", int),
            ("window", lambda w: (float(w[0]), float(w[1]))),
        ):
            if key not in payload:
                continue
            value = payload[key]
            if key == "window" and not (isinstance(value, list) and len(value) == 2):
                raise FormatError(f"{path}: window must be [lo, hi]")
            try:
                kwargs[key] = cast(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"{path}: bad value for {key!r}: {value!r} ({exc})") from exc
        return SweepConfig(**kwargs)


def run_sweep(config: SweepConfig) -> list[dict]:
    """Run the pipeline over seeded perturbed pairs; one dict per instance.

    Rows carry (seed, amplitude, epsilon, err_f, err_g, err_h, w) plus a
    ``failed`` flag; failing instances are flagged and the sweep
    continues.
    """
    rows: list[dict] = []
    pipe_cfg = PipelineConfig(level_count=config.level_count, supconv_mode="auto")
    for a_idx, amplitude in enumerate(config.amplitudes):
        for k in range(config.n_seeds):
            inst_seed = config.seed + 1000 * a_idx + k
            row = {
                "seed": inst_seed,
                "amplitude": amplitude,
                "epsilon": math.nan,
                "err_f": math.nan,
                "err_g": math.nan,
                "err_h": math.nan,
                "w": math.nan,
                "failed": 0,
            }
            try:
                f, g = perturbed_pair(
                    rng_from(inst_seed),
                    amplitude,
                    step=config.step,
                    window=config.window,
                )
                h = sup_convolution(f, g, config.lam, mode="auto")
                report, *_ = stability_decompose(
                    PLTriple(f, g, h, config.lam), pipe_cfg
                )
                row.update(
                    epsilon=report.epsilon,
                    err_f=report.err_f,
                    err_g=report.err_g,
                    err_h=report.err_h,
                    w=report.w,
                )
            except DomainError:
                row["failed"] = 1
            rows.append(row)
    return rows


# -- CSV plumbing ----------------------------------------------------------------


def _write_csv(
    rows: list[dict], columns: list[str], schema: str, out: str | None
) -> None:
    buf = io.StringIO()
    buf.write(f"# schema: plstab/{schema}/v1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from exc


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plstab",
        description="Quantitative stability laboratory for interpolated integral inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deficit", help="deficit of a triple (canonical h by default)")
    p.add_argument("f", help="path to f.json")
    p.add_argument("g", help="path to g.json")
    p.add_argument("--h", dest="h", default=None, help="optional path to h.json")
    p.add_argument("--lam", type=float, required=True, help="interpolation weight")

    p = sub.add_parser("rearrange", help="symmetric decreasing rearrangement")
    p.add_argument("f", help="path to f.json")
    p.add_argument("--out", default=None, help="output path (stdout default)")

    p = sub.add_parser("reconstruct", help="run the stability pipeline")
    p.add_argument("f", help="path to f.json")
    p.add_argument("g", help="path to g.json")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.add_argument("--levels", type=int, default=512, help="level-grid size")

    p = sub.add_parser("example1", help="perturbed Gaussian deficit scaling")
    p.add_argument("--etas", default="0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", default=None)

    p = sub.add_parser("example2", help="two-block exponential family")
    p.add_argument("--A", dest="A", default="5")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="seeded perturbation sweep")
    p.add_argument("--config", required=True, help="path to sweep.json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("constants", help="stability constants table")
    p.add_argument("--tau", default="0.5", help="comma-separated taus in (0, 1/2]")
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--out", default=None)
    return parser


def _cmd_deficit(args) -> int:
    f = read_function(args.f)
    g = read_function(args.g)
    if args.h is not None:
        h = read_function(args.h)
    else:
        h = sup_convolution(f, g, args.lam, mode="auto")
    rep = deficit(PLTriple(f, g, h, args.lam))
    sys.stdout.write(rep.to_json() + "\n")
    return 0


def _cmd_rearrange(args) -> int:
    f = read_function(args.f)
    fs = symmetric_decreasing(f)
    text = _dumps(fs.to_json_dict()) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def _cmd_reconstruct(args) -> int:
    f = read_function(args.f)
    g = read_function(args.g)
    h = sup_convolution(f, g, args.lam, mode="auto")
    config = PipelineConfig(level_count=args.levels, supconv_mode="auto")
    report, *_ = stability_decompose(PLTriple(f, g, h, args.lam), config)
    text = report.to_json() + "\n"
    sys.stdout.write(text)
    if args.report is not None:
        Path(args.report).write_text(text)
    return 0


def _cmd_example1(args) -> int:
    etas = _parse_floats(args.etas)
    rows, summary = run_example1(etas, step=args.step)
    _write_csv(
        [asdict(r) for r in rows],
        [f.name for f in fields(Example1Row)],
        "example1",
        args.out,
    )
    sys.stderr.write(_dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_example2(args) -> int:
    A_values = _parse_floats(args.A)
    rows = run_example2(A_values, step=args.step)
    _write_csv(
        [asdict(r) for r in rows],
        [f.name for f in fields(Example2Row)],
        "example2",
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_json(args.config)
    rows = run_sweep(config)
    _write_csv(
        rows,
        ["seed", "amplitude", "epsilon", "err_f", "err_g", "err_h", "w", "failed"],
        "sweep",
        args.out,
    )
    return 0


def _cmd_constants(args) -> int:
    taus = _parse_floats(args.tau)
    _write_csv(
        [c.to_json_dict() for c in constants_table(taus, args.omega0)],
        ["tau", "alpha_tau", "log10_Q", "log10_M", "omega", "hypothesis_representable"],
        "constants",
        args.out,
    )
    return 0


_COMMANDS = {
    "deficit": _cmd_deficit,
    "rearrange": _cmd_rearrange,
    "reconstruct": _cmd_reconstruct,
    "example1": _cmd_example1,
    "example2": _cmd_example2,
    "sweep": _cmd_sweep,
    "constants": _cmd_constants,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
