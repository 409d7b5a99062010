"""Two-dimensional triples and reduction to one dimension.

A 2D triple satisfying the interpolated condition induces, through the
distribution functions ``F(t) = area{f > t}``, a *multiplicative* triple
on the level axis:

    H(r**(1-lam) * s**lam) >= (1-lam) F(r) + lam G(s)   is too strong;
    the correct induced relations are

    H(r**(1-lam) * s**lam) >= F(r)**(1-lam) * G(s)**lam            (mult)
    H(r**(1-lam) * s**lam) >= ((1-lam) sqrt(F(r)) + lam sqrt(G(s)))**2

the second via the Brunn-Minkowski inequality in dimension 2.  The change
of variables ``x = log t`` with densities ``f(x) = F(e**x) * e**x`` turns
(mult) into the usual additive condition for a 1D triple whose integrals
equal the original 2D integrals (Fubini through the layer-cake formula),
so the 1D deficit machinery applies verbatim to the reduced triple.

The 2D sup-convolution is the 1D snap mode applied per axis and runs on
the same exact rational-lattice kernel (``plcore._lattice``), so 1D and
2D share one tie rule and one output-size rule.  Grids are capped at
modest sizes, because the work grows with the number of cell pairs.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gridfn import DomainError, FormatError, GridFunction
from .plcore import DeficitReport, PLTriple, _deficit_report, _snap, deficit
from .profiles import _superlevel_counts

__all__ = [
    "GridFunction2D",
    "Triple2D",
    "DistributionProfile",
    "distribution",
    "multiplicative_to_additive",
    "sup_convolution_2d",
    "deficit_2d",
    "reduced_deficit",
    "ReducedDeficitReport",
    "read_function_2d",
    "write_function_2d",
]

# Size guards for the 2D sup-convolution, whose work grows with the pairs.
_MAX_AXIS_CELLS = 192
_MAX_PAIRS = 40_000_000


@dataclass(frozen=True)
class GridFunction2D:
    """Nonnegative piecewise-constant function on a uniform 2D grid.

    Cell (i, j) is ``[ox + i*dx, ox + (i+1)*dx) x [oy + j*dy, oy +
    (j+1)*dy)`` with value ``values[i, j]``.
    """

    origin: tuple[float, float]
    step: tuple[float, float]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        ox, oy = self.origin
        dx, dy = self.step
        if not (np.isfinite(ox) and np.isfinite(oy)):
            raise DomainError("origin must be finite")
        if not (np.isfinite(dx) and dx > 0 and np.isfinite(dy) and dy > 0):
            raise DomainError(f"steps must be positive, got {self.step}")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DomainError(f"values must be a non-empty 2D array, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise DomainError(f"value at index ({i}, {j}) is not finite")
        if np.any(arr < 0):
            i, j = np.argwhere(arr < 0)[0]
            raise DomainError(f"value at index ({i}, {j}) is negative: {arr[i, j]}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def cell_area(self) -> float:
        return float(self.step[0] * self.step[1])

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_area)

    def sup_norm(self) -> float:
        return float(self.values.max())

    def superlevel_measure(self, t: float, strict: bool = True) -> float:
        """Area of ``{f > t}`` (or >=) as an exact cell count."""
        mask = self.values > t if strict else self.values >= t
        return float(mask.sum()) * self.cell_area

    def to_json_dict(self) -> dict:
        return {
            "origin": [float(self.origin[0]), float(self.origin[1])],
            "step": [float(self.step[0]), float(self.step[1])],
            "values": [[float(v) for v in row] for row in self.values],
        }


@dataclass(frozen=True)
class Triple2D:
    """A 2D candidate triple with interpolation weight lam."""

    f: GridFunction2D
    g: GridFunction2D
    h: GridFunction2D
    lam: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lam) and 0.0 < self.lam < 1.0):
            raise DomainError(f"lambda must lie in (0, 1), got {self.lam}")

    @property
    def tau(self) -> float:
        return float(min(self.lam, 1.0 - self.lam))


@dataclass(frozen=True)
class DistributionProfile:
    """Superlevel areas ``F(t)`` of a 2D function over increasing levels.

    ``measures`` is nonincreasing, right-continuous in the sampled sense,
    and vanishes at levels >= the sup norm.
    """

    levels: np.ndarray
    measures: np.ndarray

    def __post_init__(self) -> None:
        if self.levels.size != self.measures.size:
            raise DomainError("levels and measures must have equal length")
        if self.levels.size >= 2 and not np.all(np.diff(self.levels) > 0):
            raise DomainError("levels must be strictly increasing")
        if np.any(self.measures < 0):
            raise DomainError("measures must be nonnegative")
        if np.any(np.diff(self.measures) > 1e-12 * max(1.0, self.measures[0])):
            raise DomainError("measures must be nonincreasing")

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        """Step-function evaluation: ``F(t) = measures[k]`` for the last
        sampled level <= t; ``measures[0]`` below the first level; 0 above
        the last."""
        ts = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.levels, ts, side="right") - 1
        out = np.empty(ts.shape, dtype=float)
        below = idx < 0
        out[below] = self.measures[0]
        inside = ~below
        out[inside] = self.measures[np.clip(idx[inside], 0, self.levels.size - 1)]
        if np.isscalar(t):
            return float(out)
        return out


def distribution(f: GridFunction2D, levels: np.ndarray) -> DistributionProfile:
    """Exact superlevel areas of a 2D function at the given levels."""
    levels = np.asarray(levels, dtype=float)
    counts = _superlevel_counts(f.values, levels)
    return DistributionProfile(levels, counts * f.cell_area)


def multiplicative_to_additive(profile: DistributionProfile) -> GridFunction:
    """Change of variables turning a distribution profile into a density.

    Returns the grid function ``x -> F(e**x) * e**x`` on 4096 cells of the
    window ``[log t_min - 12, log t_max]``.  The left pad of 12 captures
    the mass of the constant tail ``F(t_min) * t_min`` (relative error
    e**-12), so

        integral of the result = integral of F over (0, infinity)

    up to the pad truncation and level discretization.  Sampling uses the
    step-function extension of the profile (right-continuous, constant
    below the first level, zero above the last).
    """
    lv = profile.levels
    if lv.size < 2:
        raise DomainError("need at least two levels")
    if lv[0] <= 0:
        raise DomainError("levels must be positive")
    x_lo = math.log(lv[0]) - 12.0
    x_hi = math.log(lv[-1])
    step = (x_hi - x_lo) / 4096.0
    n = int(np.ceil((x_hi - x_lo) / step - 1e-9))
    centers = x_lo + step * (np.arange(n) + 0.5)
    t = np.exp(centers)
    vals = profile(t) * t
    return GridFunction(x_lo, step, vals)


def sup_convolution_2d(
    f: GridFunction2D, g: GridFunction2D, lam: float
) -> GridFunction2D:
    """Snap sup-convolution of two 2D grid functions.

    Computes ``h(z) = sup f(x)**(1-lam) * g(y)**lam`` over pairs of cell
    centers with ``(1-lam)x + lam*y`` in the cell of z, on a grid with the
    input steps and origin ``(1-lam)*f.origin + lam*g.origin``.  This is
    the 1D snap mode applied per axis, through the same kernel: each
    pair's target is rounded to the nearest cell center on each axis.
    Its error is an upward bias of order ``step`` per axis (about
    ``step/2`` times the local slope of h).

    Tie rule: a target halfway between two cell centers goes to the upper
    one (round half up).  When ``lam == p/q`` exactly with ``q <= 64``
    (and the lattice has at most 2**22 indices) the rule is applied to the
    integer lattice index ``(q-p)*i + p*j`` of the pair on each axis, so
    ties are settled exactly; otherwise it is ``floor(u + 0.5)`` on the
    float offset ``u = (1-lam)*i + lam*j``.  Each axis of the output is
    sized by the same rule applied to the extreme pair, so every pair has
    a cell.

    Guarded to small grids: each axis at most ``192`` cells and at most
    4e7 positive pairs.  If either input is identically zero the result
    is a 1x1 zero function (a warning is emitted).

    Raises:
        DomainError: On step mismatch or when the instance exceeds the
            guards.
    """
    if not (np.isfinite(lam) and 0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    if not (
        np.isclose(f.step[0], g.step[0], rtol=1e-12)
        and np.isclose(f.step[1], g.step[1], rtol=1e-12)
    ):
        raise DomainError("sup_convolution_2d requires equal steps")
    for gf in (f, g):
        if max(gf.shape) > _MAX_AXIS_CELLS:
            raise DomainError(
                f"2D grids are capped at {_MAX_AXIS_CELLS} cells per axis, got {gf.shape}"
            )
    origin = (
        (1 - lam) * f.origin[0] + lam * g.origin[0],
        (1 - lam) * f.origin[1] + lam * g.origin[1],
    )
    nf = int(np.count_nonzero(f.values))
    ng = int(np.count_nonzero(g.values))
    if nf == 0 or ng == 0:
        warnings.warn("sup_convolution_2d of a zero function is zero", stacklevel=2)
        return GridFunction2D(origin, f.step, np.zeros((1, 1)))
    if nf * ng > _MAX_PAIRS:
        raise DomainError(
            f"too many positive-cell pairs ({nf} * {ng}); the guard is {_MAX_PAIRS}"
        )
    values = _snap(f.values ** (1.0 - lam), g.values**lam, lam)
    return GridFunction2D(origin, f.step, values)


def deficit_2d(triple: Triple2D) -> DeficitReport:
    """Normalized deficit of a 2D triple via exact cell sums.

    Raises:
        DomainError: If ``int f`` or ``int g`` is zero or any integral is
            not finite.
    """
    return _deficit_report(
        triple.f.integral(), triple.g.integral(), triple.h.integral(), triple.lam
    )


@dataclass(frozen=True)
class ReducedDeficitReport:
    """Outcome of the 2D -> 1D reduction.

    The three violation counts are taken over seeded random samples of
    ``n_samples`` draws each, so a count of 0 certifies only the sample.
    (The 1D check ``PLTriple.condition_satisfied`` checks every pair.)

    Attributes:
        deficit_2d: Deficit report of the original 2D triple.
        deficit_reduced: Deficit report of the reduced additive 1D triple.
        condition_2d_violations: Violations of the pointwise 2D condition
            among sampled pairs of positive cells (count).
        multiplicative_violations: Violations of the induced
            multiplicative level condition among sampled level pairs
            (count).
        brunn_minkowski_violations: Violations of the stronger
            Brunn-Minkowski form among the same level pairs (count).
        mass_error: Max relative gap between 2D integrals and the reduced
            1D integrals (discretization of the layer-cake formula).
    """

    deficit_2d: DeficitReport
    deficit_reduced: DeficitReport
    condition_2d_violations: int
    multiplicative_violations: int
    brunn_minkowski_violations: int
    mass_error: float

    @property
    def epsilon(self) -> float:
        return self.deficit_reduced.epsilon

    def to_json_dict(self) -> dict:
        return {
            "deficit_2d": self.deficit_2d.to_json_dict(),
            "deficit_reduced": self.deficit_reduced.to_json_dict(),
            "condition_2d_violations": self.condition_2d_violations,
            "multiplicative_violations": self.multiplicative_violations,
            "brunn_minkowski_violations": self.brunn_minkowski_violations,
            "mass_error": self.mass_error,
        }


def _sample_condition_2d(
    triple: Triple2D, n_samples: int, seed: int, rel_tol: float = 1e-9
) -> int:
    """Count violations of the 2D condition on sampled positive pairs.

    The combination of two cell centers is snapped to h's grid; the value
    of h is taken as the max over the 3x3 neighborhood of the target cell
    (one cell of slack per axis, the 2D analog of the 1D convention).
    """
    lam = triple.lam
    f, g, h = triple.f, triple.g, triple.h
    rng = np.random.default_rng(seed)
    fi, fj = np.nonzero(f.values > 0)
    gi, gj = np.nonzero(g.values > 0)
    if fi.size == 0 or gi.size == 0:
        return 0
    na = min(n_samples, fi.size * gi.size)
    ia = rng.integers(0, fi.size, size=na)
    ib = rng.integers(0, gi.size, size=na)
    fx = f.origin[0] + f.step[0] * (fi[ia] + 0.5)
    fy = f.origin[1] + f.step[1] * (fj[ia] + 0.5)
    gx = g.origin[0] + g.step[0] * (gi[ib] + 0.5)
    gy = g.origin[1] + g.step[1] * (gj[ib] + 0.5)
    zx = (1 - lam) * fx + lam * gx
    zy = (1 - lam) * fy + lam * gy
    kx = np.floor((zx - h.origin[0]) / h.step[0]).astype(np.int64)
    ky = np.floor((zy - h.origin[1]) / h.step[1]).astype(np.int64)
    hv = h.values
    nx, ny = hv.shape
    best = np.zeros(na)
    for du in (-1, 0, 1):
        for dv in (-1, 0, 1):
            ku = np.clip(kx + du, 0, nx - 1)
            kv = np.clip(ky + dv, 0, ny - 1)
            np.maximum(best, hv[ku, kv], out=best)
    rhs = f.values[fi[ia], fj[ia]] ** (1 - lam) * g.values[gi[ib], gj[ib]] ** lam
    return int(np.sum(best < rhs * (1.0 - rel_tol)))


def reduced_deficit(
    triple: Triple2D,
    level_count: int = 512,
    n_samples: int = 4000,
    seed: int = 0,
) -> ReducedDeficitReport:
    """Reduce a 2D triple to an additive 1D triple and report both deficits.

    Builds the distribution profiles F, G, H on a shared geometric level
    grid, verifies (by seeded sampling) the 2D pointwise condition, the
    induced multiplicative condition on levels, and the Brunn-Minkowski
    strengthening, then applies the log change of variables and the 1D
    deficit.  Violation counts are reported, not fatal: they quantify the
    discretization of each implication.

    Raises:
        DomainError: If f or g is identically zero.
    """
    d2 = deficit_2d(triple)
    sups = [triple.f.sup_norm(), triple.g.sup_norm(), triple.h.sup_norm()]
    top = max(sups)
    if top <= 0:
        raise DomainError("reduction requires a nonzero triple")
    floor = 1e-6 * min(s for s in sups[:2] if s > 0)
    levels = np.geomspace(floor, top * (1 + 1e-12), level_count)
    F = distribution(triple.f, levels)
    G = distribution(triple.g, levels)
    H = distribution(triple.h, levels)

    lam = triple.lam
    rng = np.random.default_rng(seed + 1)
    r = np.exp(rng.uniform(math.log(floor), math.log(top), size=n_samples))
    s = np.exp(rng.uniform(math.log(floor), math.log(top), size=n_samples))
    t = r ** (1 - lam) * s**lam
    Fr, Gs, Ht = F(r), G(s), H(t)
    # One level-grid cell of slack: compare against H one sampled level
    # lower (H is a nonincreasing step function of the level).
    ratio = levels[1] / levels[0]
    Ht_slack = H(t / ratio)
    mult_rhs = Fr ** (1 - lam) * Gs**lam
    mult_viol = int(np.sum(Ht_slack < mult_rhs * (1 - 1e-9)))
    bm_rhs = ((1 - lam) * np.sqrt(Fr) + lam * np.sqrt(Gs)) ** 2
    bm_viol = int(np.sum(Ht_slack < bm_rhs * (1 - 1e-9)))
    cond_viol = _sample_condition_2d(triple, n_samples, seed)

    f1 = multiplicative_to_additive(F)
    g1 = multiplicative_to_additive(G)
    h1 = multiplicative_to_additive(H)
    # The three reduced functions share origin and step by construction.
    t1 = PLTriple(f1, g1, h1, lam)
    d1 = deficit(t1)
    mass_err = max(
        abs(d1.int_f - d2.int_f) / d2.int_f,
        abs(d1.int_g - d2.int_g) / d2.int_g,
        abs(d1.int_h - d2.int_h) / max(d2.int_h, 1e-300),
    )
    return ReducedDeficitReport(
        deficit_2d=d2,
        deficit_reduced=d1,
        condition_2d_violations=cond_viol,
        multiplicative_violations=mult_viol,
        brunn_minkowski_violations=bm_viol,
        mass_error=mass_err,
    )


# -- 2D JSON I/O ---------------------------------------------------------------


def read_function_2d(path: str | Path) -> GridFunction2D:
    """Load a 2D grid function from JSON with full validation."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top-level JSON value must be an object")
    for key in ("origin", "step", "values"):
        if key not in payload:
            raise FormatError(f"{path}: missing key '{key}'")
    origin = payload["origin"]
    step = payload["step"]
    values = payload["values"]
    for name, pair in (("origin", origin), ("step", step)):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError(f"{path}: {name} must be a list of two numbers")
    if not isinstance(values, list) or not values:
        raise FormatError(f"{path}: values must be a non-empty list of rows")
    width = None
    arr = []
    for i, row in enumerate(values):
        if not isinstance(row, list) or not row:
            raise FormatError(f"{path}: row {i} must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{path}: row {i} has length {len(row)}, expected {width}")
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or not np.isfinite(v):
                raise FormatError(f"{path}: value at index ({i}, {j}) is not finite: {v!r}")
            if v < 0:
                raise FormatError(f"{path}: value at index ({i}, {j}) is negative: {v!r}")
        arr.append([float(v) for v in row])
    try:
        return GridFunction2D(
            (float(origin[0]), float(origin[1])),
            (float(step[0]), float(step[1])),
            np.asarray(arr),
        )
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_function_2d(f: GridFunction2D, path: str | Path) -> None:
    Path(path).write_text(json.dumps(f.to_json_dict()) + "\n")
