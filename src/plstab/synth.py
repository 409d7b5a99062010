"""Seeded generators of test instances.

All generators take a ``numpy.random.Generator`` (or a seed) and produce
grid functions on lattice-aligned windows, so binary operations between
instances hit the exact fast paths.  Log-concave families are sampled
from closed-form log-concave densities (Gaussian-like, Laplace-like,
indicators, truncated exponentials), which stay log-concave after cell
sampling because their log is concave and cell centers form a uniform
grid.
"""

from __future__ import annotations

import math

import numpy as np

from .gridfn import GridFunction, from_samples

__all__ = [
    "rng_from",
    "gaussian",
    "indicator",
    "truncated_exponential",
    "bump_profile",
    "random_log_concave",
    "random_grid_function",
    "perturbed_pair",
]

# Share of the cells that ``random_grid_function`` sets to zero.
_ZERO_FRACTION = 0.2


def rng_from(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _aligned_window(lo: float, hi: float, step: float) -> tuple[float, float]:
    """Snap window ends outward to integer multiples of the step."""
    return (math.floor(lo / step) * step, math.ceil(hi / step) * step)


def _flush_tiny(f: GridFunction) -> GridFunction:
    """Zero out values below 1e-300.

    Subnormal tail values quantize in powers of two, which destroys exact
    discrete log-concavity; truncating the function at a level preserves
    it.
    """
    return f.with_values(np.where(f.values < 1e-300, 0.0, f.values))


def gaussian(
    mean: float = 0.0,
    scale: float = 1.0,
    height: float = 1.0,
    window: tuple[float, float] = (-6.0, 6.0),
    step: float = 1e-3,
) -> GridFunction:
    """``height * exp(-pi ((x - mean)/scale)**2)`` sampled at cell centers."""
    lo, hi = _aligned_window(*window, step)
    return _flush_tiny(
        from_samples(
            lambda x: height * np.exp(-math.pi * ((x - mean) / scale) ** 2),
            lo,
            hi,
            step,
        )
    )


def indicator(
    a: float, b: float, height: float = 1.0, step: float = 1e-3
) -> GridFunction:
    """``height`` on ``[a, b)``, supported on whole cells of an aligned grid."""
    lo, hi = _aligned_window(a, b, step)
    n = int(round((hi - lo) / step))
    centers = lo + step * (np.arange(n) + 0.5)
    vals = np.where((centers >= a) & (centers < b), height, 0.0)
    return GridFunction(lo, step, vals)


def truncated_exponential(
    rate: float = 1.0,
    a: float = 0.0,
    b: float = 1.0,
    height: float = 1.0,
    step: float = 1e-3,
) -> GridFunction:
    """``height * exp(-rate (x - a))`` on ``[a, b)``, zero elsewhere."""
    lo, hi = _aligned_window(a, b, step)
    n = int(round((hi - lo) / step))
    centers = lo + step * (np.arange(n) + 0.5)
    vals = np.where(
        (centers >= a) & (centers < b), height * np.exp(-rate * (centers - a)), 0.0
    )
    return _flush_tiny(GridFunction(lo, step, vals))


def bump_profile(x: np.ndarray) -> np.ndarray:
    """Smooth odd bump ``sin(pi x)(1 - x**2)**3`` on [-1, 1], max value 1.

    The normalization constant is the max of ``sin(pi x)(1 - x**2)**3``
    over [0, 1], computed once on a fine grid.
    """
    y = np.where(np.abs(x) < 1.0, np.sin(np.pi * x) * (1.0 - x**2) ** 3, 0.0)
    return y / _BUMP_MAX


def _bump_max() -> float:
    xs = np.linspace(0.0, 1.0, 200001)
    return float(np.max(np.sin(np.pi * xs) * (1.0 - xs**2) ** 3))


_BUMP_MAX = _bump_max()


def random_log_concave(
    seed: int | np.random.Generator,
    step: float = 1e-3,
    window: tuple[float, float] = (-4.0, 4.0),
) -> GridFunction:
    """Random member of a mixed family of log-concave functions.

    Families: Gaussian-like ``s*exp(-a(x-b)**2 - c|x-b|)``, indicators,
    and truncated exponentials, with seeded parameters.  Every output has
    positive integral.
    """
    rng = rng_from(seed)
    kind = rng.integers(0, 4)
    lo, hi = _aligned_window(*window, step)
    span = hi - lo
    center = rng.uniform(lo + 0.3 * span, hi - 0.3 * span)
    height = rng.uniform(0.5, 2.0)
    if kind == 0:
        a = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.0, 2.0)
        out = from_samples(
            lambda x: height
            * np.exp(-a * (x - center) ** 2 - c * np.abs(x - center)),
            lo,
            hi,
            step,
        )
    elif kind == 1:
        half = rng.uniform(0.1, 0.25) * span
        return indicator(center - half, center + half, height=height, step=step)
    elif kind == 2:
        width = rng.uniform(0.15, 0.3) * span
        rate = rng.uniform(0.5, 4.0)
        return truncated_exponential(
            rate=rate, a=center - 0.5 * width, b=center + 0.5 * width,
            height=height, step=step,
        )
    else:
        scale = rng.uniform(0.3, 1.2)
        out = gaussian(mean=center, scale=scale, height=height,
                       window=(lo, hi), step=step)
    return _flush_tiny(out)


def random_grid_function(
    seed: int | np.random.Generator,
    step: float = 1e-3,
    window: tuple[float, float] = (-4.0, 4.0),
) -> GridFunction:
    """Random nonnegative function: bumps, noise, and hard zeros (each cell
    is zero with probability 0.2)."""
    rng = rng_from(seed)
    lo, hi = _aligned_window(*window, step)
    n = int(round((hi - lo) / step))
    centers = lo + step * (np.arange(n) + 0.5)
    vals = np.zeros(n)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(lo, hi)
        width = rng.uniform(0.05, 0.3) * (hi - lo)
        amp = rng.uniform(0.2, 2.0)
        vals += amp * np.exp(-(((centers - c) / width) ** 2))
    vals *= rng.uniform(0.5, 1.5, size=n)
    mask = rng.random(n) < _ZERO_FRACTION
    vals[mask] = 0.0
    if vals.max() <= 0:
        vals[n // 2] = 1.0
    return GridFunction(lo, step, vals)


def perturbed_pair(
    seed: int | np.random.Generator,
    amplitude: float,
    step: float = 1e-3,
    window: tuple[float, float] = (-4.0, 4.0),
) -> tuple[GridFunction, GridFunction]:
    """A log-concave f and a multiplicative perturbation g of it.

    ``g = f * (1 + amplitude * psi)`` with a seeded smooth oscillation
    psi bounded by 1 in absolute value; the deficit of the canonical
    triple grows with the amplitude.
    """
    rng = rng_from(seed)
    f = random_log_concave(rng, step=step, window=window)
    lo, hi = f.window
    centers = f.centers()
    span = hi - lo
    freq = rng.uniform(1.0, 3.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    c = rng.uniform(lo + 0.3 * span, hi - 0.3 * span)
    width = rng.uniform(0.2, 0.5) * span
    envelope = np.exp(-(((centers - c) / width) ** 2))
    psi = np.sin(2.0 * math.pi * freq * (centers - lo) / span + phase) * envelope
    factor = np.clip(1.0 + amplitude * psi, 0.0, None)
    g = f.with_values(f.values * factor)
    if g.integral() <= 0:
        g = f
    return f, g

