"""Minorize-maximize solvers for the extended-interference designs.

The nonconcave mutual information is minorized at each iterate by a touching
concave quadratic in w.  For a single user the per-iteration subproblem is
solved in closed form through its Lagrangian dual, with a secular-equation
Newton solve for the power multiplier in the eigenbasis of the surrogate
curvature; the iteration is accelerated by SQUAREM extrapolation and
its stationary point polished by Newton steps on the MM fixed-point
equation.  For multiple users the subproblem keeps the linearized per-user
rate constraints, a convex QCQP solved through its Lagrangian dual by Newton
steps in the K + 1 multipliers (:func:`conic.solve_qcqp`), each solve
warm-started from the multipliers of the one before; its solution is scaled
to the full power budget, which raises the MI and every rate.

One KKT certificate serves both regimes (:func:`kkt_certificate`): the power
and rate multipliers are fitted to the MI gradient of the true problem, so
it reads only the design, never how a subproblem was solved.  It steers the
single-user Newton polish and the bounded multi-user polish after the eps2
stop.

Both regimes build the minorizer from the scatterer factors of the instance
(R = F F^H, one column per component), as the mutual information does; no
(N_T N_R)-dimensional matrix is formed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import conic, model
from .closed_form import feasibility_bound
from .errors import BracketFailure, DegenerateConstraint, Infeasible, NumericalError
from .linalg import hermitianize, pinv, unvec, vec

DEFAULT_EPS_SINGLE = 1e-8
DEFAULT_EPS_MULTI = 1e-6
DEFAULT_MAX_ITERS = 2000
# Relative tolerance for "transmit power equals budget".  Looser values
# show up downstream: a 1e-7 power shortfall moves the MI by about 1e-8
# relative (the size of the eps1 rule itself), and the multiplier it leaves
# floors the KKT certificate near 1e-7.
POWER_RTOL = 1e-12
ACCEPT_POWER_RTOL = 1e-9   # an extrapolated or polished point's power slack
ACCEPT_RATE_ATOL = 1e-6    # and its rate slack, bits/s/Hz
# Bound on the SQUAREM steplength |a|.  Under strong interference plain MM
# creeps along a curved ridge; steps much longer than this leave the ridge
# and can settle on a lower local maximum than plain MM from the same start.
SQUAREM_MAX_STEP = 32.0
SQUAREM_BACKTRACKS = 4     # extrapolation lengths tried before the plain step
POLISH_STEPS = 4           # Newton iterations after the relative-change stop
POLISH_RTOL = 1e-8         # KKT residual at which the polish stops
MULTIPLIER_EVALS = 200     # power evaluations allowed per multiplier solve
# Step-down factor of the multiplier while no infeasible tau is known: the
# multiplier can be as small as 1e-11 when the curvature is rank deficient,
# which halving from tau = 1 reaches only after about 36 steps.
MULTIPLIER_DECADE = 100.0
FD_RSTEP = 1e-6            # relative forward-difference step of the map Jacobian
SUBPROBLEM_GAP_TOL = 1e-9  # conic gap for the multi-user subproblem
MULTI_POLISH_MAPS = 50     # multi-user maps after the eps2 stop, at most
MULTI_POLISH_RTOL = 1e-6   # KKT residual at which those maps stop


@dataclass(frozen=True)
class Surrogate:
    """Touching concave quadratic lower bound of the mutual information.

    value(w) = 2 delta Re(w^H lin) - delta^2 w^H quad w + offset, in nats,
    where w stacks the beamformer columns.  ``quad`` is Hermitian PSD and the
    bound touches the true objective at the iterate it was built from.
    """

    lin: np.ndarray
    quad: np.ndarray
    offset: float
    delta: float

    def value(self, w_vec: np.ndarray) -> float:
        linear = 2.0 * self.delta * float(np.real(np.vdot(w_vec, self.lin)))
        quadratic = (self.delta ** 2) * float(np.real(np.vdot(w_vec, self.quad @ w_vec)))
        return linear - quadratic + self.offset

    def gradient(self, w_vec: np.ndarray) -> np.ndarray:
        """Wirtinger gradient w.r.t. conj(w); equals the objective gradient
        at the expansion point."""
        return self.delta * self.lin - (self.delta ** 2) * (self.quad @ w_vec)


def build_surrogate(inst: model.Instance, w) -> Surrogate:
    """Construct the minorizer at the current beamformer.

    Works from the scatterer factors (R = F F^H) through the projections
    Y = Wt F, Wt = I_{N_R} kron W^H: with T = I + delta Wt R Wt^H and the
    MMSE matrix E = I - delta Y_t^H T^{-1} Y_t = L L^H (one row per target
    component), X = T^{-1} Y_t E^{-1} gives the linear term, and the
    receive-gain factor G = T^{-1} Y_t L^{-H} gives the quadratic term
    quad = U U^H, U[(k, n), (j, m)] = sum_r conj(G[(r, k), j]) F[(r, n), m]
    over the columns m of both factors, PSD by construction.  The mutual
    information at w, for the offset, is -log det E (determinant lemma).
    Any factor of the target covariance gives the same lin, quad and
    offset; the tests compare against the explicit stacking-map
    construction from the dense covariances.
    """
    cfg = inst.config
    w_mat = model.as_beam_matrix(w, cfg)
    n_tx, n_rx, n_users = cfg.n_tx, cfg.n_rx, cfg.n_users
    delta = float(cfg.n_slots) / cfg.radar_noise

    y_t = model.expanded_times(w_mat, inst.target_factor, n_rx)
    y_i = model.expanded_times(w_mat, inst.interf_factor, n_rx)
    proj = hermitianize(y_t @ y_t.conj().T + y_i @ y_i.conj().T)    # Wt R Wt^H
    gram = np.eye(n_users * n_rx) + delta * proj                     # T
    whitened = np.linalg.solve(gram, y_t)                            # T^{-1} Y_t
    mmse = hermitianize(np.eye(y_t.shape[1]) - delta * (y_t.conj().T @ whitened))
    try:
        chol = np.linalg.cholesky(mmse)                              # E = L L^H
    except np.linalg.LinAlgError as exc:
        raise NumericalError("surrogate curvature matrix lost positive definiteness") from exc

    gain = np.linalg.solve(chol, whitened.conj().T).conj().T        # G
    x = np.linalg.solve(chol.conj().T, gain.conj().T).conj().T      # G L^{-1} = X
    # lin is vec of sum_r F_t,r X_r^H over the receive blocks r
    lin = vec(np.einsum("rnm,rkm->nk", inst.target_factor.reshape(n_rx, n_tx, -1),
                        x.reshape(n_rx, n_users, -1).conj()))
    gain_conj = gain.reshape(n_rx, n_users, -1).conj()
    u = np.concatenate([np.tensordot(gain_conj, f.reshape(n_rx, n_tx, -1), axes=(0, 0))
                        for f in (inst.target_factor, inst.interf_factor)], axis=3)
    u = u.transpose(0, 2, 1, 3).reshape(n_users * n_tx, -1)         # (k, n) x (j, m)
    quad = hermitianize(u @ u.conj().T)

    g_val = -2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
    touch = 2.0 * delta * float(np.real(np.vdot(y_t, x)))
    curvature = (delta ** 2) * float(np.real(np.vdot(gain, proj @ gain)))
    offset = g_val - touch + curvature
    return Surrogate(lin=lin, quad=quad, offset=offset, delta=delta)


@dataclass
class MmReport:
    w: np.ndarray
    mi_trace: list            # objective (nats) per accepted iterate, incl. start
    iterations: int
    status: str               # "converged" | "max_iterations" | "stalled"
    kkt_residual: Optional[float] = None
    comp_power: Optional[float] = None
    comp_rate: Optional[float] = None
    # inner-solve work: dual Newton steps of the QCQP (K users), or
    # evaluations of ShiftedCurvature.step in the multiplier solve (one user)
    inner_steps: int = 0
    wall_time_s: float = 0.0


class ShiftedCurvature:
    """The single-user subproblem built at w_ref, in the eigenbasis V of its
    curvature delta * quad: c = V^H lin and r = V^H (h h^H w_ref) are formed
    once for the whole secular-equation Newton solve of the power multiplier.

    Eigenvalues within the relative cutoff of zero are treated as an exact
    null space (dropped at tau = 0, inverted as 1/tau otherwise), so the
    transmit power is a continuous function of the multiplier.
    ``evaluations`` counts the calls of :meth:`step`.
    """

    NULL_RTOL = 1e-12

    def __init__(self, sur: Surrogate, h: np.ndarray, w_ref: np.ndarray):
        vals, vecs = np.linalg.eigh(sur.delta * sur.quad)
        vals = np.clip(vals, 0.0, None)
        cutoff = self.NULL_RTOL * max(float(vals.max()), 1e-300)
        self.vals = np.where(vals <= cutoff, 0.0, vals)
        self.vecs = vecs
        basis = vecs.conj().T
        self.c = basis @ sur.lin
        self.r = basis @ (h * complex(np.vdot(h, w_ref)))
        self.evaluations = 0

    def step(self, omega_shift: float, tau: float):
        """(x, mu, p, dp/dtau) at power multiplier tau, in O(N_T): the maximizer
        x = s * (c + mu r), s = 1/(lambda + tau), of the surrogate less
        tau ||w||^2 under the rate cut 2 Re(w_ref^H h h^H w) >= omega_shift,
        its rate multiplier mu, its power p and the power's slope.

        mu = 0 when s * c already meets the cut; otherwise mu = a/b, a =
        omega_shift - 2 Re r^H (s c), b = 2 sum s |r|^2, enforces it with
        equality, and mu' follows from a' and b'.  The cut is degenerate when
        b is below the absolute 1e-14 and below 1e-14 of its bound
        2 ||r||^2 max(s): that bound shrinks with tau as b does, so a cut that
        only weakens as tau grows is not degenerate, while r = 0 or r in the
        null space at tau = 0 still is.  The absolute test comes first,
        because it costs nothing.
        """
        self.evaluations += 1
        shifted = self.vals + tau
        s = np.divide(1.0, shifted, out=np.zeros_like(shifted), where=shifted > 0.0)
        x = s * self.c
        attained = 2.0 * float(np.real(np.vdot(self.r, x)))
        if attained >= omega_shift:
            return x, 0.0, float(np.vdot(x, x).real), -2.0 * float(np.sum(s * np.abs(x) ** 2))
        sr = s * self.r
        b = 2.0 * float(np.real(np.vdot(self.r, sr)))
        if b <= 1e-14 and b <= 2e-14 * float(np.vdot(self.r, self.r).real) * np.max(s, initial=0.0):
            raise DegenerateConstraint("linearized rate constraint has vanishing curvature")
        a = omega_shift - attained
        da = 2.0 * float(np.real(np.vdot(sr, x)))         # 2 Re r^H (s^2 c)
        db = -2.0 * float(np.sum(np.abs(sr) ** 2))        # -2 sum s^2 |r|^2
        mu = a / b
        x = x + mu * sr
        dx = -s * x + ((da * b - a * db) / b ** 2) * sr
        return x, mu, float(np.vdot(x, x).real), 2.0 * float(np.real(np.vdot(x, dx)))


def rate_constrained_step(curvature: ShiftedCurvature, omega_shift: float, tau: float):
    """Minimizer of the power-penalized surrogate under the linearized rate
    constraint 2 Re(w_ref^H h h^H w) >= omega_shift, in the antenna basis.

    Returns (w, mu) of :meth:`ShiftedCurvature.step`; mu = 0 when the
    unconstrained minimizer already satisfies the constraint, otherwise
    mu > 0 enforces it with equality.
    """
    x, mu, _, _ = curvature.step(omega_shift, tau)
    return curvature.vecs @ x, mu


def bisect_power_multiplier(curvature: ShiftedCurvature, omega_shift: float, p0: float):
    """Find the power multiplier with ||w(tau)||^2 = P0 by a safeguarded
    secular-equation Newton iteration (More & Sorensen 1983).

    The transmit power p(tau) is non-increasing; the caller guarantees the
    unpenalized step exceeds the budget.  Newton runs on phi = 1/sqrt(p) -
    1/sqrt(P_t), nearly linear in tau, aimed at P_t = P0 (1 - POWER_RTOL/2)
    so that it stops inside [P0 (1 - POWER_RTOL), P0].  Each evaluation is
    :meth:`ShiftedCurvature.step`.  A bracket [lo, hi] safeguards it: tau
    starts at 1 and at least doubles while no feasible tau is known; an
    iterate outside the bracket is replaced by hi / MULTIPLIER_DECADE while
    lo = 0, by the geometric midpoint otherwise.  Returns (tau, w, mu) from
    the feasible side, w formed once at the end by
    :func:`rate_constrained_step`.  The name, from the bisection this
    replaced, is kept for the benchmark's tracer, which looks the function
    up by it.
    """
    target = p0 * (1.0 - 0.5 * POWER_RTOL)
    lo, hi, tau = 0.0, np.inf, 1.0
    for _ in range(MULTIPLIER_EVALS):
        _, _, p, slope = curvature.step(omega_shift, tau)
        # the band less a margin for the roundoff of forming w from x
        if abs(p - target) <= 0.45 * POWER_RTOL * p0:
            hi = tau
            break
        if p < target:
            hi = tau
        else:
            lo = tau
        newton = tau + 2.0 * p * (1.0 - np.sqrt(p / target)) / slope if slope < 0.0 else np.nan
        if hi == np.inf:
            tau = newton if newton > 2.0 * tau else 2.0 * tau
        elif hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break  # bracket exhausted at machine precision
        elif lo < newton < hi:
            tau = newton
        elif lo == 0.0:
            tau = hi / MULTIPLIER_DECADE
        else:
            tau = np.sqrt(lo * hi)
    if hi == np.inf:
        raise BracketFailure("could not bracket the power multiplier")
    w, mu = rate_constrained_step(curvature, omega_shift, hi)
    return hi, w, mu


def _inner_step(sur: Surrogate, h: np.ndarray, w: np.ndarray, omega: float, p0: float):
    """Solve the subproblem built at w: maximize the surrogate under the
    power budget and the rate constraint linearized at w.  Returns the
    maximizer and the number of step evaluations it took.

    The tau = 0 step is the minimizer when it meets the budget and, for a
    rank-deficient curvature, c + mu r has no component along the flat
    directions; otherwise the power diverges as tau -> 0 and the multiplier
    is found by :func:`bisect_power_multiplier`."""
    curvature = ShiftedCurvature(sur, h, w)
    omega_shift = float(np.abs(np.vdot(h, w)) ** 2) + omega
    x, mu, power, _ = curvature.step(omega_shift, 0.0)
    rhs = curvature.c + mu * curvature.r
    flat = float(np.linalg.norm(rhs[curvature.vals == 0.0]))
    if power <= p0 and flat <= 1e-10 * max(float(np.linalg.norm(rhs)), 1e-300):
        return curvature.vecs @ x, curvature.evaluations
    w_next = bisect_power_multiplier(curvature, omega_shift, p0)[1]
    return w_next, curvature.evaluations


class _SingleUserMap:
    """The single-user MM map: w -> maximizer of the surrogate built at w,
    under the power budget and the rate constraint linearized at w.

    Holds the per-solve constants, so the same map serves the plain
    iteration, the extrapolation and the polish.  Its output meets the rate
    target for any input w, because the linearized constraint is a
    restriction of the true one.
    """

    def __init__(self, inst: model.Instance):
        cfg = inst.config
        self.inst = inst
        self.h = inst.channel[0].conj()
        self.p0 = cfg.power_budget
        self.rate = cfg.rate_targets[0]
        self.omega = model.rate_power_threshold(self.rate, cfg.comm_noise)
        self.inner_steps = 0

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """One MM step, with the common phase of the result set so that
        w^H w_next is real and nonnegative.  Objective and constraints ignore
        that phase and the map commutes with it, so this leaves the MI
        trajectory unchanged while keeping successive differences (which the
        extrapolation and the polish use) free of arbitrary phase turns."""
        sur = build_surrogate(self.inst, w)
        w_next, evaluations = _inner_step(sur, self.h, w, self.omega, self.p0)
        self.inner_steps += evaluations
        overlap = complex(np.vdot(w, w_next))
        return w_next * (np.conj(overlap) / abs(overlap)) if overlap != 0.0 else w_next

    def mi(self, w: np.ndarray) -> float:
        return model.mutual_information(self.inst, w)

    def admissible(self, w: np.ndarray) -> bool:
        """Power and rate within the tolerances every returned design meets."""
        return (float(np.linalg.norm(w) ** 2) <= self.p0 * (1.0 + ACCEPT_POWER_RTOL)
                and model.achievable_rate(self.inst, w, 0) >= self.rate - ACCEPT_RATE_ATOL)

    def certificate(self, w: np.ndarray):
        return kkt_certificate(self.inst, build_surrogate(self.inst, w), w)


def _extrapolated_step(step: _SingleUserMap, w: np.ndarray, g_val: float):
    """One SQUAREM cycle (Varadhan & Roland 2008, steplength S3).

    Two MM maps give w1 and w2.  The extrapolation w - 2a r + a^2 v, with
    r = w1 - w, v = w2 - 2 w1 + w and a = -|r|/|v| bounded by
    SQUAREM_MAX_STEP, is pulled into the power ball and mapped once more,
    which restores feasibility.  The result replaces the plain two-step
    point w2 only if it is admissible and its MI is at least that of w and
    of w2; otherwise a is moved halfway towards -1 (where the extrapolation
    is w2) a few times before w2 itself is taken.  Returns (w, MI).
    """
    w1 = step(w)
    w2 = step(w1)
    g2 = step.mi(w2)
    r = w1 - w
    v = (w2 - w1) - r
    v_norm = float(np.linalg.norm(v))
    if v_norm == 0.0:
        return w2, g2
    alpha = max(-float(np.linalg.norm(r)) / v_norm, -SQUAREM_MAX_STEP)
    for _ in range(SQUAREM_BACKTRACKS):
        if alpha >= -1.0:
            break
        w_ext = w - 2.0 * alpha * r + alpha ** 2 * v
        norm2 = float(np.linalg.norm(w_ext) ** 2)
        if norm2 > step.p0:
            w_ext = w_ext * np.sqrt(step.p0 / norm2)
        try:
            cand = step(w_ext)
            g_cand = step.mi(cand)
        except NumericalError:
            g_cand = -np.inf
        if g_cand >= max(g_val, g2) and step.admissible(cand):
            return cand, g_cand
        alpha = 0.5 * (alpha - 1.0)
    return w2, g2


def _real(w: np.ndarray) -> np.ndarray:
    return np.concatenate([w.real, w.imag])


def _complex(x: np.ndarray) -> np.ndarray:
    half = x.size // 2
    return x[:half] + 1j * x[half:]


def _newton_candidate(step: _SingleUserMap, w: np.ndarray, w_next: np.ndarray) -> np.ndarray:
    """Newton step on the fixed-point equation step(w) = w, mapped once.

    The map is real-differentiable, not complex-differentiable, so it is
    linearized in (Re w, Im w) by forward differences.  The common phase of
    w is a direction of fixed points (the objective and both constraints
    ignore it), so one extra row keeps the step orthogonal to i w.  Where
    the active set is stable the map is smooth and the step converges
    quadratically; where it is not, the caller's guard rejects the result.
    """
    x = _real(w)
    fx = _real(w_next)
    n = x.size
    h = FD_RSTEP * float(np.linalg.norm(x))
    jac = np.empty((n, n))
    for j in range(n):
        probe = x.copy()
        probe[j] += h
        jac[:, j] = (_real(step(_complex(probe))) - fx) / h
    lhs = np.vstack([jac - np.eye(n), _real(1j * w)[None, :]])
    rhs = np.concatenate([x - fx, [0.0]])
    delta = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return step(_complex(x + delta))


def _polished(step: _SingleUserMap, w: np.ndarray, w_plain: np.ndarray,
              g_val: float, cert):
    """The Newton candidate with its MI and certificate, or None unless it is
    admissible, keeps the MI and lowers the stationarity residual."""
    try:
        cand = _newton_candidate(step, w, w_plain)
        g_cand, cert_cand = step.mi(cand), step.certificate(cand)
    except NumericalError:
        return None
    if g_cand >= g_val and cert_cand[0] < cert[0] and step.admissible(cand):
        return cand, g_cand, cert_cand
    return None


def solve_single_user(inst: model.Instance, eps1: float = DEFAULT_EPS_SINGLE,
                      max_iters: int = DEFAULT_MAX_ITERS) -> MmReport:
    """MM solver for one user with arbitrary (e.g. extended) interference.

    Starts from the maximum-ratio-transmission vector at full power and
    iterates touching-minorizer maximization with the Lagrangian-dual inner
    step (secular-equation Newton on the power multiplier), accelerated by
    SQUAREM extrapolation (one outer iteration is one guarded cycle, see
    :func:`_extrapolated_step`).  It stops on relative objective change <=
    eps1 or the iteration cap.

    The relative-change rule bounds the MI gain, which near the optimum
    scales with the square of the stationarity residual, so the point where
    it fires can still be 1e-3 from stationary.  After a converged stop, up
    to POLISH_STEPS further iterations (within the cap) take Newton steps on
    the MM fixed-point equation until the KKT residual is at most
    POLISH_RTOL.  A Newton candidate is kept only if it is admissible, does
    not lower the MI and lowers the residual; otherwise the plain MM step is
    taken (if it does not lower the MI) and the polish ends.  The objective
    trace is non-decreasing.  A step that would lower the MI ends the
    iteration as ``stalled``, unpolished.  The reported residuals are those
    of :func:`kkt_certificate`.  A zero-strength target returns the MRT start,
    converged with MI 0 and a zero certificate.
    """
    cfg = inst.config
    if cfg.n_users != 1:
        raise ValueError("solve_single_user requires exactly one user")
    started = time.perf_counter()
    step = _SingleUserMap(inst)
    h, p0 = step.h, step.p0
    if feasibility_bound(h, p0) <= step.omega:
        raise Infeasible("rate target is not strictly feasible under the power budget")

    w = np.sqrt(p0) * h / np.linalg.norm(h)
    g_val = step.mi(w)
    trace = [g_val]
    if not np.any(inst.target_factor):
        # A silent target makes the MI, and every surrogate, identically
        # zero: each feasible point is stationary, the MRT start among them.
        return MmReport(w=w[:, None], mi_trace=trace, iterations=0, status="converged",
                        kkt_residual=0.0, comp_power=0.0, comp_rate=0.0,
                        wall_time_s=time.perf_counter() - started)
    status = "max_iterations"
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        w_next, g_next = _extrapolated_step(step, w, g_val)
        if g_next < g_val - 1e-12 * max(1.0, abs(g_val)):
            status = "stalled"
            break
        w = w_next
        trace.append(g_next)
        change = abs(g_next - g_val) / max(abs(g_val), 1e-300)
        g_val = g_next
        if change <= eps1:
            status = "converged"
            break

    cert = step.certificate(w)
    polish = POLISH_STEPS if status == "converged" else 0
    while polish and iterations < max_iters and cert[0] > POLISH_RTOL:
        polish -= 1
        iterations += 1
        try:
            w_plain = step(w)
        except NumericalError:
            break
        polished = _polished(step, w, w_plain, g_val, cert)
        if polished is not None:
            w, g_val, cert = polished
            trace.append(g_val)
            continue
        g_plain = step.mi(w_plain)
        if g_plain >= g_val:
            try:
                cert = step.certificate(w_plain)
            except NumericalError:
                break
            w, g_val = w_plain, g_plain
            trace.append(g_val)
        break

    residual, comp_power, comp_rate = cert
    return MmReport(w=w[:, None], mi_trace=trace, iterations=iterations, status=status,
                    kkt_residual=residual, comp_power=comp_power, comp_rate=comp_rate,
                    inner_steps=step.inner_steps, wall_time_s=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Multi-user


def zero_forcing_init(inst: model.Instance) -> np.ndarray:
    """Zero-forcing start scaled to the full power budget.

    Columns are pseudo-inverse directions so the effective channel is
    diagonal; per-user amplitudes meet the rate targets exactly before the
    common full-power scaling.  Raises when even the unscaled allocation
    exceeds the budget.
    """
    cfg = inst.config
    directions = pinv(inst.channel)  # (N_T, K), channel @ directions = I
    amps = np.sqrt([model.rate_power_threshold(r, cfg.comm_noise)
                    for r in cfg.rate_targets])
    base = directions * amps[None, :]
    needed = float(np.linalg.norm(base) ** 2)
    if needed > cfg.power_budget * (1.0 + 1e-12):
        raise Infeasible(
            f"zero-forcing start needs {needed:.6g} W for the rate targets, "
            f"budget is {cfg.power_budget:.6g} W"
        )
    if needed == 0.0:
        return base
    return base * np.sqrt(cfg.power_budget / needed)


def multiuser_subproblem(inst: model.Instance, w_prev, sur: Surrogate) -> conic.QcqpProblem:
    """Convex QCQP in vec(W): surrogate objective, power ball, and the
    linearized per-user rate constraints."""
    cfg = inst.config
    w_mat = model.as_beam_matrix(w_prev, cfg)
    w_vec = vec(w_mat)
    dim = cfg.n_tx * cfg.n_users

    objective = (sur.delta * sur.quad, -sur.lin, 0.0)
    constraints = [(np.eye(dim, dtype=complex), np.zeros(dim, dtype=complex),
                    -cfg.power_budget)]

    # user k's cut acts on vec(W) through h_k h_k^H on column k (its own
    # signal) and on every other column (the interference it receives), one
    # diagonal block each; the signal term is multiplied over all of vec(W)
    # so that its roundoff is that of the Kronecker-product construction
    blocks = [slice(j * cfg.n_tx, (j + 1) * cfg.n_tx) for j in range(cfg.n_users)]
    for k, own_block in enumerate(blocks):
        h_k = inst.channel[k].conj()
        nu_k = 2.0 ** cfg.rate_targets[k] - 1.0
        gram_k = np.outer(h_k, h_k.conj())
        own = np.zeros((dim, dim), dtype=complex)
        own[own_block, own_block] = gram_k
        interference = hermitianize(nu_k * gram_k)
        a_k = np.zeros((dim, dim), dtype=complex)
        for j, block in enumerate(blocks):
            if j != k:
                a_k[block, block] = interference
        signal = own @ w_vec
        c_k = float(np.real(np.vdot(w_vec, signal))) + nu_k * cfg.comm_noise
        constraints.append((a_k, -signal, c_k))
    return conic.QcqpProblem(dim=dim, objective=objective, constraints=tuple(constraints))


def _subproblem_step(inst: model.Instance, w_mat: np.ndarray, sur: Surrogate,
                     iteration: int, multipliers=None):
    """The subproblem solution at w_mat, scaled to the full power budget, and
    the solver's report; ``multipliers`` warm-start the dual solve."""
    cfg = inst.config
    report = conic.solve_qcqp(multiuser_subproblem(inst, w_mat, sur), SUBPROBLEM_GAP_TOL,
                              multipliers)
    if report.status == conic.INFEASIBLE:
        raise Infeasible(f"subproblem infeasible at iteration {iteration}")
    if report.status != conic.OPTIMAL or report.solution is None:
        raise NumericalError(
            f"subproblem ended with status {report.status} at iteration {iteration}"
        )
    w_next = unvec(report.solution, cfg.n_tx, cfg.n_users)
    return w_next * np.sqrt(cfg.power_budget / float(np.linalg.norm(w_next) ** 2)), report


def _nonnegative_fit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0 for a matrix with few columns, by the
    Lawson-Hanson active-set method.  A column enters the free set while its
    residual correlation is positive (beyond 1e-12 of its scale); a
    least-squares solve with a nonpositive entry is cut back along the
    segment from the previous x until that entry leaves the free set."""
    n = a.shape[1]
    tol = 1e-12 * np.linalg.norm(a, axis=0) * np.linalg.norm(b)
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        dual = np.where(free, -np.inf, a.T @ (b - a @ x) - tol)
        if dual.max() <= 0.0:
            break
        free[int(np.argmax(dual))] = True
        while True:
            z = np.zeros(n)
            if free.any():
                z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if np.all(z[free] > 0.0):
                x = z
                break
            blocked = free & (z <= 0.0)
            step = float(np.min(x[blocked] / np.maximum(x[blocked] - z[blocked], 1e-300)))
            x = x + step * (z - x)
            free &= x > 0.0
    return x


def kkt_certificate(inst: model.Instance, sur: Surrogate, w):
    """KKT residuals of a design with any number of users on the true problem.

    ``sur`` must be built at w, where its gradient g is the MI gradient
    (w.r.t. conj(vec W)).  With the rate constraints written c_k(W) =
    |h_k^H w_k|^2 - nu_k (sum_{j != k} |h_k^H w_j|^2 + sigma^2) >= 0, the
    multipliers tau (power) and mu_k (user k) are the nonnegative
    least-squares fit of g = tau vec(W) - sum_k mu_k grad c_k.  Returns the
    stationarity residual ||g - tau vec(W) + sum_k mu_k grad c_k|| / (1 +
    ||g||), tau |P0 - ||W||^2| and max_k mu_k |c_k|.  Only the design
    problem enters, not how a subproblem was solved.  A silent target has
    g = 0, so every multiplier and residual is zero.
    """
    cfg = inst.config
    w_mat = model.as_beam_matrix(w, cfg)
    grad = sur.gradient(vec(w_mat))
    amps = inst.channel @ w_mat                       # h_k^H w_j at (k, j)
    power = np.abs(amps) ** 2
    nu = 2.0 ** np.asarray(cfg.rate_targets) - 1.0
    columns = [vec(w_mat)]
    cuts = np.empty(cfg.n_users)
    for k in range(cfg.n_users):
        # d c_k / d conj(w_j) = h_k h_k^H w_j, times -nu_k for j != k
        weights = -nu[k] * amps[k]
        weights[k] = amps[k, k]
        columns.append(-vec(np.outer(inst.channel[k].conj(), weights)))
        cuts[k] = power[k, k] - nu[k] * (power[k].sum() - power[k, k] + cfg.comm_noise)
    basis = np.column_stack(columns)
    coef = _nonnegative_fit(np.vstack([basis.real, basis.imag]),
                            np.concatenate([grad.real, grad.imag]))
    grad_norm = float(np.linalg.norm(grad))
    residual = float(np.linalg.norm(grad - basis @ coef)) / (1.0 + grad_norm)
    comp_power = float(coef[0]) * abs(cfg.power_budget - float(np.linalg.norm(w_mat) ** 2))
    comp_rate = float(np.max(coef[1:] * np.abs(cuts)))
    return residual, comp_power, comp_rate


def solve_multi_user(inst: model.Instance, eps2: float = DEFAULT_EPS_MULTI,
                     max_iters: int = DEFAULT_MAX_ITERS) -> MmReport:
    """MM + successive convex approximation for K users.

    Starts from the zero-forcing beamformer and alternates surrogate
    construction with a dual Newton solve of the subproblem QCQP, started
    from the previous subproblem's multipliers.  Each subproblem solution is
    scaled to the full power budget before the MI test.  MI(cW) and every
    SINR increase in c (the noise term scales as 1/c^2), so this is an
    ascent step that keeps feasibility and the stationary points.  Without
    echo interference the subproblem's optimal set is a face whose central
    point, which the solve returns, lies below full power; there the scaling
    cuts hundreds of maps to tens.  The iteration stops on
    relative objective change <= eps2 (``converged``) or the cap.  After an
    eps2 stop, up to MULTI_POLISH_MAPS further maps (within the cap) run
    while the KKT residual of :func:`kkt_certificate` is above
    MULTI_POLISH_RTOL; a map that would lower the MI ends them.  The
    returned design's certificate is reported; it is not a stop rule.
    Every iterate meets all rate targets and the power budget, and the
    objective trace is non-decreasing.  ``inner_steps`` totals the dual
    Newton steps.
    """
    started = time.perf_counter()
    w_mat = zero_forcing_init(inst)
    g_val = model.mutual_information(inst, w_mat)
    trace = [g_val]
    status = "max_iterations"
    iterations = 0
    polish = 0
    cert = None                   # certificate of w_mat, once computed
    multipliers = None            # of the last subproblem, to warm-start the next
    inner_steps = 0
    while iterations < max_iters:
        sur = build_surrogate(inst, w_mat)
        if status == "converged":
            cert = kkt_certificate(inst, sur, w_mat)
            if polish == 0 or cert[0] <= MULTI_POLISH_RTOL:
                break
            polish -= 1
        iterations += 1
        w_next, sub = _subproblem_step(inst, w_mat, sur, iterations, multipliers)
        multipliers, inner_steps = sub.multipliers, inner_steps + sub.iterations
        g_next = model.mutual_information(inst, w_next)
        if g_next < g_val - 1e-12 * max(1.0, abs(g_val)):
            if status != "converged":
                status = "stalled"
            break
        w_mat, cert = w_next, None
        trace.append(g_next)
        change = abs(g_next - g_val) / max(abs(g_val), 1e-300)
        g_val = g_next
        if status != "converged" and change <= eps2:
            status, polish = "converged", MULTI_POLISH_MAPS

    if cert is None:
        cert = kkt_certificate(inst, build_surrogate(inst, w_mat), w_mat)
    residual, comp_power, comp_rate = cert
    return MmReport(w=w_mat, mi_trace=trace, iterations=iterations, status=status,
                    kkt_residual=residual, comp_power=comp_power, comp_rate=comp_rate,
                    inner_steps=inner_steps, wall_time_s=time.perf_counter() - started)
