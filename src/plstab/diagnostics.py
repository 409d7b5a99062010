"""Numerical checks of the lemmas feeding the stability argument.

Each check measures a quantity on a grid function or triple and compares
it against an explicit bound, with a grid allowance of ``3 * step *
sup_norm`` so that discretization alone never produces a false violation.
Results are ``plcore.CheckRow`` rows, as for the scalar lemmas there:

    check_name, instance_id, measured, bound, ratio, hypothesis_met, passed

* Tail geometry of log-concave functions: near-max superlevel sets are
  not too short, superlevel sets shrink at worst logarithmically, and the
  mass below a low level is proportionally small.
* Truncation: cutting f and g at ``eta * sup`` changes measures/masses by
  explicitly bounded amounts when ``sqrt(epsilon) <= eta < 1``.
"""

from __future__ import annotations

import math

import numpy as np

from .gridfn import DomainError, GridFunction
from .plcore import CheckRow, PLTriple, _row, deficit
from .reconstruct import is_log_concave

__all__ = [
    "check_logconcave_tails",
    "check_tail_truncation",
]

# ``check_logconcave_tails``: the points of each of its two grids (s near
# the max, t in the tail), and the tolerance of its log-concavity gate.
_TAIL_LEVELS = 64
_LOGCONCAVE_TOL = 1e-6


def check_logconcave_tails(phi: GridFunction, instance_id: str) -> list[CheckRow]:
    """Tail-geometry checks for a log-concave grid function.

    With ``L = int phi`` and ``S = sup phi``, at 64 values of s and of t:

    1. ``near_max_width``: for s in (0, S), the superlevel set
       ``{phi > S - s}`` has measure at least ``(L / S**2) * s``.
    2. ``level_decay``: for t <= S/2, ``{phi > t}`` has measure at most
       ``(2 L / S) * |log(t / S)|``.
    3. ``low_mass``: for t <= S/2, the mass on ``{phi < t}`` is at most
       ``(2 L / S) * t``.

    Every comparison carries a grid allowance of ``3 * step * sup``.

    Raises:
        DomainError: If phi is not log-concave at tolerance 1e-6 or has
            zero integral.
    """
    rep = is_log_concave(phi, tol=_LOGCONCAVE_TOL)
    if not rep.is_log_concave:
        raise DomainError(
            f"tail checks require a log-concave input (worst ratio {rep.worst_ratio})"
        )
    L = phi.integral()
    if L <= 0:
        raise DomainError("tail checks require positive integral")
    S = phi.sup_norm()
    allowance = 3.0 * phi.step * S
    rows: list[CheckRow] = []
    s_grid = np.linspace(S / _TAIL_LEVELS, S * (1.0 - 1.0 / _TAIL_LEVELS), _TAIL_LEVELS)
    for s in s_grid:
        measured = (L / S**2) * s
        width = phi.superlevel_measure(S - s)
        # Inequality direction: width >= (L/S**2) s, so record the bound
        # side as the measured width.
        rows.append(
            _row("near_max_width", f"{instance_id}:s={s:.6g}", measured, width, allowance)
        )
    t_grid = np.geomspace(S * 1e-4, S / 2.0, _TAIL_LEVELS)
    for t in t_grid:
        width = phi.superlevel_measure(t)
        bound = (2.0 * L / S) * abs(math.log(t / S))
        rows.append(
            _row("level_decay", f"{instance_id}:t={t:.6g}", width, bound, allowance)
        )
        mass = float(phi.values[phi.values < t].sum() * phi.step)
        bound_mass = (2.0 * L / S) * t
        rows.append(
            _row("low_mass", f"{instance_id}:t={t:.6g}", mass, bound_mass, allowance)
        )
    return rows


def check_tail_truncation(triple: PLTriple, eta: float, instance_id: str) -> list[CheckRow]:
    """Truncation bounds at level ``eta * sup`` for f and g.

    For a normalized near-equality pair and ``sqrt(epsilon) <= eta < 1``,
    with ``kappa = |log epsilon|**(4/tau)`` (capped at the deficit's
    floor):

    * ``trunc_width``: the superlevel set ``{phi >= eta * sup phi}`` has
      measure at most ``tau**(-5/2) * (int phi / sup phi) * kappa``.
    * ``trunc_mass``: the mass below ``eta * sup phi`` is at most
      ``tau**(-5/2) * int phi * eta * kappa``.

    Raises:
        DomainError: If eta is outside ``[sqrt(epsilon), 1)``.
    """
    rep = deficit(triple)
    eps = max(rep.epsilon, 0.0)
    if not (np.isfinite(eta) and 0.0 < eta < 1.0):
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    if eta < math.sqrt(eps):
        raise DomainError(
            f"eta must be at least sqrt(epsilon) = {math.sqrt(eps):.3g}, got {eta}"
        )
    tau = triple.tau
    if eps > 0:
        log_kappa = (4.0 / tau) * math.log(abs(math.log(max(eps, 1e-300))))
        kappa = math.exp(log_kappa) if log_kappa < 700.0 else math.inf
    else:
        kappa = math.inf
    rows: list[CheckRow] = []
    for name, phi in (("f", triple.f), ("g", triple.g)):
        phi_n = phi.scale(1.0 / phi.integral())
        S = phi_n.sup_norm()
        allowance = 3.0 * phi_n.step * S
        width = phi_n.superlevel_measure(eta * S, strict=False)
        bound_w = tau ** (-2.5) * (1.0 / S) * kappa
        rows.append(
            _row(f"trunc_width_{name}", f"{instance_id}:eta={eta:.4g}", width, bound_w, allowance)
        )
        mass = float(phi_n.values[phi_n.values < eta * S].sum() * phi_n.step)
        bound_m = tau ** (-2.5) * eta * kappa
        rows.append(
            _row(f"trunc_mass_{name}", f"{instance_id}:eta={eta:.4g}", mass, bound_m, allowance)
        )
    return rows
