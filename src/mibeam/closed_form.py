"""Closed-form single-user beamformer for the interference-free problem.

Maximizes the target-direction gain |a^H w|^2 subject to ||w||^2 <= P0 and a
minimum received power |h^H w|^2 >= omega; the optimizer always spends the
full power budget.  Also hosts the feasibility bound that the closed form
checks the received-power target against.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible

# |1 - r| below this counts as h parallel to a (the aligned special case)
ALIGNED_RTOL = 1e-9


def feasibility_bound(h: np.ndarray, p0: float) -> float:
    """Largest achievable |h^H w|^2 under the power budget (= P0 ||h||^2).

    The rate constraint is feasible iff this bound is >= omega and strictly
    feasible iff it is > omega.
    """
    return p0 * float(np.linalg.norm(h) ** 2)


def solve_closed_form(a: np.ndarray, h: np.ndarray, p0: float, omega: float) -> np.ndarray:
    """Closed-form beamformer for target steering vector a, user channel h,
    power budget P0 and the minimum received power omega implied by the rate
    target; always returns ||w||^2 = P0 exactly.

    Three branches: full power straight at the target when that already
    meets the received-power constraint; the matched filter when the channel
    is (numerically) parallel to the steering vector; otherwise the
    two-vector combination that meets the constraint with equality.  Raises
    :class:`Infeasible` when omega exceeds :func:`feasibility_bound` or h is
    zero, and ValueError when a is zero, since it names no direction.
    ``dispatch`` applies the verdict of :func:`mm.zero_forcing_init` first,
    as for every scheme; this check serves direct callers.
    """
    a = np.asarray(a, dtype=complex)
    h = np.asarray(h, dtype=complex)
    p0, omega = float(p0), float(omega)
    norm_a = float(np.linalg.norm(a))
    norm_h = float(np.linalg.norm(h))

    if norm_a == 0.0:
        raise ValueError("the target steering vector a is zero")
    if norm_h == 0.0:
        raise Infeasible("the user's channel is zero, so its rate target is not strictly feasible")
    bound = feasibility_bound(h, p0)
    if bound < omega:
        raise Infeasible(
            f"rate target needs received power {omega:.6g} W but at most "
            f"{bound:.6g} W is achievable"
        )

    cross = complex(np.vdot(a, h))  # a^H h
    if abs(cross) ** 2 > omega * norm_a ** 2 / p0:
        # full power at the target already satisfies the constraint
        return np.sqrt(p0) * a / norm_a

    r = abs(cross) / (norm_a * norm_h)
    if abs(1.0 - r) <= ALIGNED_RTOL:
        return np.sqrt(p0) * h / norm_h

    t = omega / (p0 * norm_h ** 2)  # in [0, 1] here since the bound held
    u2 = np.sqrt((1.0 - t) / (1.0 - r ** 2))
    # phase factor conj(a^H h)/|a^H h| aligns the two terms; 0/0 at r = 0
    # resolves to 1 (any unit phase gives the same objective and constraints)
    phase = np.conj(cross) / abs(cross) if abs(cross) > 0.0 else 1.0
    z1 = np.sqrt(p0) * (np.sqrt(t) - u2 * r) * phase
    z2 = np.sqrt(p0 * (1.0 - t) / (1.0 - r ** 2))
    return z1 * h / norm_h + z2 * a / norm_a
