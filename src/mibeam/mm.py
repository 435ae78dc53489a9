"""Minorize-maximize solvers for the extended-interference designs.

The nonconcave mutual information is minorized at each iterate by a touching
concave quadratic in w = vec W.  Every constraint of the design problem is a
difference of convex quadratics in w, and :func:`rate_cuts` builds them once
per solve as one stack: the power ball, then the SINR cut of each user with
a positive target.  Each subproblem maximizes the surrogate under the stack
with its concave signal terms linearized at the iterate (:func:`_linearized`).
The number of users, not the scheme named, picks how it is solved.  For one
user, in closed form through its Lagrangian dual (:class:`ShiftedCurvature`),
with a secular-equation Newton solve for the power multiplier
(:func:`bisect_power_multiplier`) that tries the multiplier of the map before
first and forms the zero-multiplier step only when neither that step nor a
flat direction of the curvature shows that the budget binds; SQUAREM
extrapolation accelerates the map.  For K > 1 users, as a convex QCQP
(:func:`multiuser_subproblem`) solved through its Lagrangian dual by Newton
steps in one multiplier per constraint (:func:`conic.solve_qcqp`), each
warm-started from the multipliers of the one before.

One solve path (:func:`_solve`) serves every K and both eps rules: one
feasibility verdict that also gives the start, then one map chosen by K
that scales every subproblem answer to the full power budget, one outer
loop, one KKT certificate and one finish.  Every point
the loop holds is a :class:`model.SensingPoint`, evaluated once: its MI
and the surrogate built at it read the same Cholesky factors, so no MM
iterate is evaluated twice.  The certificate (:func:`kkt_certificate`)
fits one multiplier per constraint of the stack to the MI gradient of the
true problem, so it reads only the design, never how a subproblem was
solved.  After the eps stop the finish (:func:`_finish`) takes Newton steps
on the KKT system of the true problem, with its exact Jacobian: the MI
block is :func:`model.mi_hessian`, read from the factors of the point, and
the constraint blocks are the stack's gradients and curvatures, so each
step evaluates one point, at its end.

Both maps build the minorizer from the scatterer factors of the instance
(R = F F^H, one column per component), as the mutual information does; no
(N_T N_R)-dimensional matrix is formed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import conic, model
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
ACCEPT_POWER_RTOL = 1e-9   # an extrapolated or finished point's power slack
ACCEPT_RATE_ATOL = 1e-6    # and its rate slack, bits/s/Hz
# Bound on the SQUAREM steplength |a|.  Under strong interference plain MM
# creeps along a curved ridge; steps much longer than this leave the ridge
# and can settle on a lower local maximum than plain MM from the same start.
SQUAREM_MAX_STEP = 32.0
SQUAREM_BACKTRACKS = 4     # extrapolation lengths tried before the plain step
FINISH_STEPS = 60          # iterations after the eps stop: Newton and MM steps
FINISH_RTOL = 1e-9         # KKT residual at which the finish stops
MULTIPLIER_EVALS = 200     # power evaluations allowed per multiplier solve
# Step-down factor of the multiplier while no infeasible tau is known: the
# multiplier can be as small as 1e-11 when the curvature is rank deficient,
# which halving from tau = 1 reaches only after about 36 steps.
MULTIPLIER_DECADE = 100.0
SUBPROBLEM_GAP_TOL = 1e-9  # conic gap for the multi-user subproblem


class Surrogate:
    """Touching concave quadratic lower bound of the mutual information.

    The bound is 2 delta Re(w^H lin) - delta^2 w^H quad w plus a constant, in
    nats, where w stacks the beamformer columns.  ``quad`` is Hermitian PSD.
    The constant only makes the bound touch the true objective at the
    iterate it was built from; it never moves a maximizer, so no solve
    forms it.
    """

    def __init__(self, lin: np.ndarray, quad: np.ndarray, delta: float):
        self.lin, self.quad, self.delta = lin, quad, delta

    def gradient(self, w_vec: np.ndarray) -> np.ndarray:
        """Wirtinger gradient w.r.t. conj(w); equals the objective gradient
        at the expansion point."""
        return self.delta * self.lin - (self.delta ** 2) * (self.quad @ w_vec)


def build_surrogate(inst: model.Instance, w) -> Surrogate:
    """Construct the minorizer at the current beamformer, given as an array
    or as its :class:`model.SensingPoint` (which is then read, not
    recomputed).

    Works from the scatterer factors (R = F F^H) and the factors the sensing
    point keeps of the projections Y = Wt F, Wt = I_{N_R} kron W^H.  With T
    = I + delta Wt R Wt^H the MMSE matrix E = I - delta Y_t^H T^{-1} Y_t is
    S^{-1}, S = I + delta Z^H Z = C C^H (one row per target component), by
    the Woodbury identity.  So X = T^{-1} Y_t E^{-1} = T_i^{-1} Y_t = L_i^{-H} Z
    gives the linear term, and the receive-gain factor G = T^{-1} Y_t C =
    X C^{-H} gives the quadratic term quad = U U^H, U[(k, n), (j, m)] =
    sum_r conj(G[(r, k), j]) F[(r, n), m] over the columns m of both
    factors (:attr:`model.Instance.factors`), PSD by construction.  Any
    factor of the target covariance gives the same lin and quad; the tests
    compare against the explicit stacking-map construction from the dense
    covariances.
    """
    cfg = inst.config
    point = _sensed(inst, w)
    n_tx, n_rx, n_users = cfg.n_tx, cfg.n_rx, cfg.n_users
    delta = float(cfg.n_slots) / cfg.radar_noise

    x = np.linalg.solve(point.chol_i.conj().T, point.z)                # L_i^{-H} Z = X
    gain = np.linalg.solve(point.chol_s, x.conj().T).conj().T          # X C^{-H} = G
    # lin is vec of sum_r F_t,r X_r^H over the receive blocks r
    lin = vec(np.einsum("rnm,rkm->nk", inst.target_factor.reshape(n_rx, n_tx, -1),
                        x.reshape(n_rx, n_users, -1).conj()))
    u = gain.reshape(n_rx, -1).conj().T @ inst.factors.reshape(n_rx, -1)  # (k, j) x (n, m)
    u = u.reshape(n_users, -1, n_tx, inst.factors.shape[1]).transpose(0, 2, 1, 3)
    u = u.reshape(n_users * n_tx, -1)                                # (k, n) x (j, m)
    quad = hermitianize(u @ u.conj().T)
    return Surrogate(lin=lin, quad=quad, delta=delta)


def _sensed(inst: model.Instance, w) -> model.SensingPoint:
    """The sensing point of a beamformer: w itself when it is one."""
    return w if isinstance(w, model.SensingPoint) else model.sensing_point(inst, w)


@dataclass
class MmReport:
    w: np.ndarray
    mi_trace: list            # objective (nats) per accepted iterate, incl. start
    iterations: int
    status: str               # "converged" | "max_iterations" | "stalled"
    kkt_residual: Optional[float] = None
    comp_power: Optional[float] = None
    comp_rate: Optional[float] = None
    # inner-solve work: dual Newton steps of the QCQP (K users), or the
    # ShiftedCurvature.step calls of bisect_power_multiplier (one user): per
    # map the warm step, the zero-multiplier step unless the warm one is over
    # the budget or c has a flat part, and Newton's when the budget binds
    inner_steps: int = 0
    finish_steps: int = 0     # Newton steps of the accepted finishes
    wall_time_s: float = 0.0


class ShiftedCurvature:
    """The single-user subproblem built at w_ref, in the eigenbasis V of its
    curvature delta * quad, formed once for the whole secular-equation
    Newton solve of the power multiplier: c = V^H lin and the K = 1 stack
    ``cuts`` linearized at w_ref (:func:`_linearized`), the budget p0 = -c_0
    and the cut 2 Re(r^H x) >= omega_shift, r = V^H own_1 w_ref (a_1 = 0 at
    K = 1).  A zero target has no cut: r = 0, omega_shift = -inf.

    Eigenvalues within the relative cutoff of zero are treated as an exact
    null space (at tau = 0 used only to meet the rate cut, inverted as 1/tau
    otherwise), so the transmit power is a continuous function of tau.
    ``evaluations`` counts the calls of :meth:`step`.
    """

    NULL_RTOL = 1e-12

    def __init__(self, sur: Surrogate, cuts: RateCuts, w_ref: np.ndarray):
        vals, vecs = np.linalg.eigh(sur.delta * sur.quad)
        vals = np.clip(vals, 0.0, None)
        cutoff = self.NULL_RTOL * max(float(vals.max()), 1e-300)
        self.vals = np.where(vals <= cutoff, 0.0, vals)
        self.vecs = vecs
        basis = vecs.conj().T
        self.c = basis @ sur.lin
        signal, const = _linearized(cuts, vec(w_ref))
        self.p0 = -float(const[0])
        self.r = basis @ signal[-1]  # the cut's, or the power row's own_0 w = 0
        self.omega_shift = float(const[1]) if const.size > 1 else -np.inf
        self.evaluations = 0

    def step(self, tau: float):
        """(x, mu, p, dp/dtau) at power multiplier tau, in O(N_T): the maximizer
        x = s * (c + mu r), s = 1/(lambda + tau), of the surrogate less
        tau ||w||^2 under the rate cut 2 Re(r^H x) >= omega_shift, its rate
        multiplier mu, its power p and the power's slope.

        mu = 0 when s * c already meets the cut.  At tau = 0 the flat
        directions (lambda = 0, where s = 0) meet the cut's deficit at no
        cost in objective, so a cut with a flat part r_flat is met by the
        minimum-norm point x_flat = deficit r_flat / (2 ||r_flat||^2), with
        mu = 0: the limit of the step as tau -> 0, where mu ~ tau.
        Otherwise mu = a/b, a = omega_shift - 2 Re r^H (s c), b = 2 sum s
        |r|^2, enforces the cut with equality, and mu' follows from a' and
        b'.  The cut is degenerate when b is below the absolute 1e-14 and
        below 1e-14 of its bound 2 ||r||^2 max(s): that bound shrinks with
        tau as b does, so a cut that only weakens as tau grows is not
        degenerate, while r = 0 still is.  The absolute test comes first,
        because it costs nothing.  A floating-point fault, an overflow or a
        divisor that underflowed to 0, raises :class:`BracketFailure`.
        """
        self.evaluations += 1
        r, omega_shift = self.r, self.omega_shift
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                shifted = self.vals + tau
                if tau > 0.0:  # then every shifted eigenvalue is positive
                    s = 1.0 / shifted
                else:
                    s = np.divide(1.0, shifted, out=np.zeros_like(shifted), where=shifted > 0.0)
                x = s * self.c
                attained = 2.0 * float(np.real(np.vdot(r, x)))
                if attained < omega_shift and tau == 0.0:
                    # the flat directions meet the deficit at no cost in objective
                    r_flat = np.where(shifted > 0.0, 0.0, r)
                    flat = 2.0 * float(np.vdot(r_flat, r_flat).real)
                    if flat > 0.0:
                        x = x + ((omega_shift - attained) / flat) * r_flat
                        attained = omega_shift
                if attained >= omega_shift:
                    return (x, 0.0, float(np.vdot(x, x).real),
                            -2.0 * float(np.sum(s * np.abs(x) ** 2)))
                sr = s * r
                b = 2.0 * float(np.real(np.vdot(r, sr)))
                if b <= 1e-14 and b <= 2e-14 * float(np.vdot(r, r).real) * np.max(s, initial=0.0):
                    raise DegenerateConstraint("the linearized rate cut has vanishing curvature")
                a = omega_shift - attained
                da = 2.0 * float(np.real(np.vdot(sr, x)))         # 2 Re r^H (s^2 c)
                db = -2.0 * float(np.sum(np.abs(sr) ** 2))        # -2 sum s^2 |r|^2
                mu = a / b
                x = x + mu * sr
                dx = -s * x + ((da * b - a * db) / b ** 2) * sr
                return x, mu, float(np.vdot(x, x).real), 2.0 * float(np.real(np.vdot(x, dx)))
        except ArithmeticError as exc:
            raise BracketFailure(f"the power multiplier left the range of finite "
                                 f"arithmetic at tau = {tau:.3g}") from exc


def rate_constrained_step(curvature: ShiftedCurvature, tau: float):
    """Minimizer of the power-penalized surrogate under the linearized rate
    cut of the curvature, in the antenna basis.

    Returns (w, mu) of :meth:`ShiftedCurvature.step`; mu = 0 when the
    unconstrained minimizer already satisfies the constraint, otherwise
    mu > 0 enforces it with equality.  A reference step at a given tau: the
    MM map forms its answer from the step :func:`bisect_power_multiplier`
    accepted, and does not call this.  The package keeps it because
    criterion 9 reads it and the benchmark traces it by name.
    """
    x, mu, _, _ = curvature.step(tau)
    return curvature.vecs @ x, mu


def bisect_power_multiplier(curvature: ShiftedCurvature, tau: float = 1.0):
    """The single-user subproblem's step under its budget P0 =
    ``curvature.p0``: at tau = 0 when the budget is slack, else at the power
    multiplier with ||w(tau)||^2 = P0, found by a safeguarded
    secular-equation Newton iteration (More & Sorensen 1983).

    The step at the given positive tau (the MM map passes its last
    multiplier, which is close) goes first.  Over the budget, it shows that
    the budget binds, since the power p(tau) is non-increasing, and it is
    the first Newton iterate.  A part of c along the flat directions of a
    rank-deficient curvature, where the power diverges as tau -> 0, shows
    it too.  Otherwise, or when that step raises (so that an error of the
    tau = 0 step comes first), the tau = 0 step decides; a raising first
    step is repeated, and raises, if Newton runs.  Newton runs on phi =
    1/sqrt(p) - 1/sqrt(P_t), nearly linear in tau, aimed at P_t = P0 (1 -
    POWER_RTOL/2) so that it stops inside [P0 (1 - POWER_RTOL), P0].  A
    bracket [lo, hi] safeguards tau: while no feasible tau is known, a
    Newton step from the left is taken whenever it increases tau, and tau
    doubles otherwise; once one is, an iterate outside the bracket is
    replaced by hi / MULTIPLIER_DECADE while lo = 0, by the geometric
    midpoint otherwise.  Returns (tau, x, mu): tau = 0 when the budget is
    slack, else the step of the evaluation that set hi, in the eigenbasis
    (w = V x), so no evaluation is repeated.  The name, from the bisection
    this replaced, is kept for the benchmark's tracer.
    """
    p0 = curvature.p0
    try:
        first = curvature.step(tau)
    except NumericalError:
        first = None
    c = curvature.c
    flat = float(np.linalg.norm(c[curvature.vals == 0.0])) > 1e-10 * max(
        float(np.linalg.norm(c)), 1e-300)
    if first is None or not (first[2] > p0 or flat):
        x, mu, power, _ = curvature.step(0.0)
        if not (power > p0 or flat):
            return 0.0, x, mu
    target = p0 * (1.0 - 0.5 * POWER_RTOL)
    lo, hi = 0.0, np.inf
    for _ in range(MULTIPLIER_EVALS):
        x, mu, p, slope = curvature.step(tau) if first is None else first
        first = None
        # the band less a margin for the roundoff of forming w from x
        if abs(p - target) <= 0.45 * POWER_RTOL * p0:
            hi, accepted = tau, (x, mu)
            break
        if p < target:
            hi, accepted = tau, (x, mu)
        else:
            lo = tau
        newton = tau + 2.0 * p * (1.0 - np.sqrt(p / target)) / slope if slope < 0.0 else np.nan
        if hi == np.inf:
            tau = newton if newton > tau else 2.0 * tau
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
    return (hi, *accepted)


class _MmMap:
    """The MM map of one scheme with its per-solve constants (the budget and
    the constraint stack :func:`rate_cuts`, which the subproblem, the
    certificate and the finish of both schemes read), and what the outer
    loop and the finish ask of a point.  Points are
    :class:`model.SensingPoint` records, so the MI of a point and the
    surrogate built at it come from one evaluation.  A scheme supplies
    ``subproblem(point)``, the maximizer of the surrogate built at the point
    under its constraints; ``advance`` is the scheme's step, point -> point,
    here one plain map."""

    def __init__(self, inst: model.Instance):
        self.inst = inst
        self.p0 = inst.config.power_budget
        self.cuts = rate_cuts(inst)
        self.inner_steps = 0

    def __call__(self, point: model.SensingPoint) -> model.SensingPoint:
        """One MM step: the subproblem's answer at the point scaled to
        ||W||^2 = P0, an ascent that keeps feasibility (MI(cW) and every SINR
        increase in c), with its common phase turned so that w^H w_next is
        real and nonnegative, and evaluated.  That phase changes neither
        objective nor constraints; the turn keeps successive differences,
        which the extrapolation uses, free of arbitrary phase turns."""
        w_next = self.subproblem(point)
        w_next = w_next * np.sqrt(self.p0 / float(np.linalg.norm(w_next) ** 2))
        overlap = complex(np.vdot(point.w, w_next))
        if overlap != 0.0:
            w_next = w_next * (np.conj(overlap) / abs(overlap))
        return model.sensing_point(self.inst, w_next)

    def advance(self, point: model.SensingPoint) -> model.SensingPoint:
        return self(point)

    def admissible(self, w: np.ndarray) -> bool:
        """Power and rates within the tolerances every returned design meets."""
        floor = np.asarray(self.inst.config.rate_targets) - ACCEPT_RATE_ATOL
        return (float(np.linalg.norm(w) ** 2) <= self.p0 * (1.0 + ACCEPT_POWER_RTOL)
                and bool(np.all(model.achieved_rates(self.inst, w) >= floor)))


class _SingleUserMap(_MmMap):
    """The single-user subproblem: the maximizer of the surrogate built at w
    under the stack linearized at w, by :func:`bisect_power_multiplier`.
    Its answer meets the rate target for any input w, because the
    linearized cut is a restriction of the true one.  ``tau`` is the last
    positive power multiplier of this solve, 1 at the start; each multiplier
    solve starts from it, since it moves little from one map to the next.
    """

    def __init__(self, inst: model.Instance):
        super().__init__(inst)
        self.tau = 1.0

    def subproblem(self, point: model.SensingPoint) -> np.ndarray:
        curvature = ShiftedCurvature(build_surrogate(self.inst, point), self.cuts, point.w)
        tau, x, _ = bisect_power_multiplier(curvature, self.tau)
        if tau > 0.0:
            self.tau = tau
        self.inner_steps += curvature.evaluations
        return (curvature.vecs @ x).reshape(point.w.shape)

    def advance(self, point: model.SensingPoint) -> model.SensingPoint:
        """One SQUAREM cycle (Varadhan & Roland 2008, steplength S3).

        Two MM maps give w1 and w2.  The extrapolation w - 2a r + a^2 v, with
        r = w1 - w, v = w2 - 2 w1 + w and a = -|r|/|v| bounded by
        SQUAREM_MAX_STEP, is pulled into the power ball and mapped once more,
        which restores feasibility.  The result replaces the plain two-step
        point w2 only if it is admissible and its MI is at least that of w and
        of w2; otherwise a is moved halfway towards -1 (where the extrapolation
        is w2) a few times before w2 itself is taken.  Each cycle evaluates
        w1, w2 and, per extrapolation tried, the extrapolated point and its
        map.
        """
        first = self(point)
        second = self(first)
        w = point.w
        r = first.w - w
        v = (second.w - first.w) - r
        v_norm = float(np.linalg.norm(v))
        if v_norm == 0.0:
            return second
        alpha = max(-float(np.linalg.norm(r)) / v_norm, -SQUAREM_MAX_STEP)
        for _ in range(SQUAREM_BACKTRACKS):
            if alpha >= -1.0:
                break
            w_ext = w - 2.0 * alpha * r + alpha ** 2 * v
            norm2 = float(np.linalg.norm(w_ext) ** 2)
            if norm2 > self.p0:
                w_ext = w_ext * np.sqrt(self.p0 / norm2)
            try:
                cand = self(model.sensing_point(self.inst, w_ext))
            except NumericalError:
                cand = None
            if (cand is not None and cand.mi >= max(point.mi, second.mi)
                    and self.admissible(cand.w)):
                return cand
            alpha = 0.5 * (alpha - 1.0)
        return second


def _real(w: np.ndarray) -> np.ndarray:
    return np.concatenate([w.real, w.imag])


def solve_single_user(inst: model.Instance, eps1: float = DEFAULT_EPS_SINGLE,
                      max_iters: int = DEFAULT_MAX_ITERS) -> MmReport:
    """The MM solve (:func:`_solve`) under the eps1 rule."""
    return _solve(inst, eps1, max_iters)


def _solve(inst: model.Instance, eps: float, max_iters: int) -> MmReport:
    """The MM solve of every scheme.  The verdict comes first:
    :func:`zero_forcing_init` (for one user the maximum-ratio-transmission
    vector at full power) raises :class:`Infeasible` when the least power
    that meets the rate targets reaches the budget or a user's channel is
    zero, and otherwise gives the start.  A silent target makes the MI, and
    every surrogate, identically zero: each feasible point is stationary, so
    the start is returned, converged with a zero certificate.  Otherwise the
    number of users picks the map, whichever scheme was named:
    :class:`_SingleUserMap` (the Lagrangian-dual step with SQUAREM cycles) at
    K = 1, :class:`_MultiUserMap` (the QCQP with plain maps) for K > 1; then
    :func:`_iterate`."""
    started = time.perf_counter()
    point = model.sensing_point(inst, zero_forcing_init(inst))
    if not np.any(inst.target_factor):
        return MmReport(w=point.w, mi_trace=[point.mi], iterations=0, status="converged",
                        kkt_residual=0.0, comp_power=0.0, comp_rate=0.0,
                        wall_time_s=time.perf_counter() - started)
    step = (_SingleUserMap if inst.config.n_users == 1 else _MultiUserMap)(inst)
    return _iterate(step, point, eps, max_iters, started)


def _iterate(step: _MmMap, point: model.SensingPoint, eps: float, max_iters: int,
             started: float) -> MmReport:
    """MM steps from the point until the relative MI change is at most eps
    (``converged``, then :func:`_finish` within the cap), a step lowers the
    MI by more than 1e-12 relative (``stalled``) or the cap is reached.  The
    eps rule bounds the MI gain, which scales with the square of the
    stationarity residual, so its point can still be 1e-3 from stationary.
    The objective trace is non-decreasing and the residuals are those of
    :func:`kkt_certificate`."""
    trace = [point.mi]
    status, iterations = "max_iterations", 0
    while iterations < max_iters:
        iterations += 1
        nxt = step.advance(point)
        g_val, g_next = point.mi, nxt.mi
        if g_next < g_val - 1e-12 * max(1.0, abs(g_val)):
            status = "stalled"
            break
        point = nxt
        trace.append(g_next)
        if abs(g_next - g_val) / max(abs(g_val), 1e-300) <= eps:
            status = "converged"
            break

    budget = min(FINISH_STEPS, max_iters - iterations) if status == "converged" else 0
    point, cert, used, finish_steps = _finish(step, point, trace, budget)
    return MmReport(w=point.w, mi_trace=trace,
                    iterations=iterations + used, status=status, kkt_residual=cert[0],
                    comp_power=cert[1], comp_rate=cert[2], inner_steps=step.inner_steps,
                    finish_steps=finish_steps, wall_time_s=time.perf_counter() - started)


def _finish(step: _MmMap, point: model.SensingPoint, trace: list, budget: int):
    """Work the certificate of an eps stop down to FINISH_RTOL in ``budget``
    iterations; returns (point, certificate, iterations used, Newton steps
    kept).  MM limits are stationary only asymptotically, so
    :func:`_kkt_newton` goes first, from the point with the terms and the
    fit of its certificate.  Its end point is kept if admissible, with a
    lower certificate and the MI within the stall tolerance; else the
    scheme's own steps follow while they do not lower the MI, and Newton is
    retried once the certificate has halved.  Each Newton or MM step is one
    iteration."""
    state = _certify(step.inst, step.cuts, point)
    used, kept, retry_below = 0, 0, np.inf
    while used < budget and state.cert[0] > FINISH_RTOL:
        g_val = state.point.mi
        if state.cert[0] <= retry_below:
            try:
                end, cert_end, taken = _kkt_newton(step, state, budget - used)
            except NumericalError:
                end, cert_end, taken = state, state.cert, 0
            used += taken
            if (cert_end[0] < state.cert[0]
                    and end.point.mi >= g_val - 1e-12 * max(1.0, abs(g_val))
                    and step.admissible(end.point.w)):
                state, kept = end, kept + taken
                trace.append(state.point.mi)
            retry_below = state.cert[0] / 2.0
            continue
        used += 1
        try:
            nxt = step.advance(state.point)
            if nxt.mi < g_val:
                break
            state = _certify(step.inst, step.cuts, nxt)
        except NumericalError:
            break
        trace.append(state.point.mi)
    return state.point, state.cert, used, kept


def _kkt_newton(step: _MmMap, start: _Certified, steps: int):
    """At most ``steps`` Newton steps on the KKT system of the true problem
    from a point with its certificate's terms and fit; returns the end point
    with its own (a :class:`_Certified`), its certificate and the steps
    taken.

    Unknowns: W and the multipliers lambda_j of the constraint stack
    (:func:`rate_cuts`): the power ball's, and each cut's above 1e-4 of it
    (a bare lambda_j > 0 picks up fitting noise on slack cuts), refitted by
    the certificate at every iterate.  Equations (:func:`_kkt_system`): g -
    sum_j lambda_j grad f_j = 0 and f_j = 0.  The Jacobian is exact
    (:func:`_kkt_jacobian`), plus one row per column that keeps the step
    orthogonal to its phase turn i w_k; each step evaluates one sensing
    point and one surrogate, at its end.  Each least-squares step is
    rescaled to P0.  A full step from far out can raise the certificate
    before it falls, so the run ends at FINISH_RTOL or after three steps
    without a new lowest one.
    """
    inst, cfg = step.inst, step.inst.config
    state = start
    x = _real(vec(state.point.w))
    n = x.size
    best, stale, taken = state.cert[0], 0, 0
    while taken < steps and state.cert[0] > FINISH_RTOL and stale < 3:
        taken += 1
        coef = state.coef
        cols = np.flatnonzero(np.concatenate([[True], coef[1:] > 1e-4 * coef[0]]))
        f = _kkt_system(cols, coef[cols], state.terms)
        turns = [vec(1j * state.point.w * (np.arange(cfg.n_users) == k))
                 for k in range(cfg.n_users)]
        jac = np.vstack([_kkt_jacobian(inst, step.cuts, state, cols),
                         np.hstack([_real(np.column_stack(turns)).T,
                                    np.zeros((cfg.n_users, cols.size))])])
        delta = np.linalg.lstsq(jac, np.concatenate([-f, np.zeros(cfg.n_users)]), rcond=None)[0]
        x = x + delta[:n]
        x *= np.sqrt(step.p0 / (x @ x))
        state = _certify(inst, step.cuts, model.sensing_point(
            inst, unvec(x[:n // 2] + 1j * x[n // 2:], cfg.n_tx, cfg.n_users)))
        stale = 0 if state.cert[0] < best else stale + 1
        best = min(best, state.cert[0])
    return state, state.cert, taken


def _kkt_system(cols: np.ndarray, lam: np.ndarray, terms):
    """The KKT equations of :func:`_kkt_newton` with the multipliers ``lam``
    of the constraints ``cols`` of the stack, from the :func:`_kkt_terms` at
    W: the real and imaginary parts of g - basis lam, and the values f_j."""
    grad, basis, values = terms
    return np.concatenate([_real(grad - basis[:, cols] @ lam), values[cols]])


def _kkt_jacobian(inst: model.Instance, cuts: RateCuts, state: _Certified,
                  cols: np.ndarray) -> np.ndarray:
    """The exact Jacobian of :func:`_kkt_system` in (x, lam), x = (Re vec W,
    Im vec W), at a certified point, with lam its fit on ``cols``.  The g
    rows are half the MI Hessian (:func:`model.mi_hessian`, since (Re g, Im
    g) is half the real gradient) less the real form of sum_j lam_j (a_j -
    own_j), the derivative of the gradient columns; their lam columns are
    -basis.  The row of f_j is twice the real form of its gradient, its
    basis column."""
    lam = state.coef[cols]
    basis = _real(state.terms[1][:, cols])
    curv = np.tensordot(lam, cuts.a[cols] - cuts.own[cols], axes=1)
    n = basis.shape[0]
    jac = np.zeros((n + cols.size, n + cols.size))
    jac[:n, :n] = 0.5 * model.mi_hessian(inst, state.point) - np.block(
        [[curv.real, -curv.imag], [curv.imag, curv.real]])
    jac[:n, n:] = -basis
    jac[n:, :n] = 2.0 * basis.T
    return jac


# ---------------------------------------------------------------------------
# Multi-user


def zero_forcing_init(inst: model.Instance) -> np.ndarray:
    """Feasible start at the full power budget.

    Zero forcing when it fits: pseudo-inverse columns make the effective
    channel diagonal, and per-user amplitudes meet the rate targets exactly
    before the common full-power scaling; when every target is zero, the
    unit-norm columns (for one user the maximum-ratio-transmission vector).
    A zero-forcing power past the float range does not fit.  Otherwise
    :func:`_minimum_power_design`, scaled to the budget, which keeps every
    rate, once the largest power a user needs alone, nu_k sigma^2 /
    ||h_k||^2, a lower bound on the least power and equal to it at K = 1,
    is below the budget.  Raises :class:`Infeasible`, naming that bound or
    the least power that meets the targets, when it reaches P0 (1 -
    POWER_RTOL), which leaves the map no room to move, and when a user's
    channel is zero: no beamformer then meets its rate constraint
    strictly.  That is the one feasibility verdict: ``sdr`` and
    ``dispatch``'s closed form call it too.
    """
    cfg = inst.config
    if not np.all(np.any(inst.channel, axis=1)):
        raise Infeasible("a user's channel is zero, so its rate target is not strictly feasible")
    directions = pinv(inst.channel)  # (N_T, K), channel @ directions = I
    with np.errstate(over="ignore", invalid="ignore"):  # a power past the float range
        received = model.sinr_targets(cfg.rate_targets) * cfg.comm_noise
        amps = np.sqrt(received)
        base = (directions * amps if np.any(amps)
                else directions / np.linalg.norm(directions, axis=0))
        needed = float(np.linalg.norm(base) ** 2)
        # each user alone: a lower bound on the least power, equal to it at K = 1
        alone = float(np.max(received / np.sum(np.abs(inst.channel) ** 2, axis=1)))
    # with every target zero the start meets them at any scale
    room = cfg.power_budget * (1.0 - POWER_RTOL) if np.any(amps) else np.inf
    if not needed < room:
        needed = alone
        if needed < room:
            base = _minimum_power_design(inst)
            needed = float(np.linalg.norm(base) ** 2)
        if not needed < room:
            raise Infeasible(f"the rate targets need at least {needed:.6g} W, budget is "
                             f"{cfg.power_budget:.6g} W: the least power is "
                             f"{needed / cfg.power_budget - 1.0:+.2g} relative to the budget, "
                             f"and a design needs it below -{POWER_RTOL:g}")
    return base * np.sqrt(cfg.power_budget / needed)


def _minimum_power_design(inst: model.Instance) -> np.ndarray:
    """The beamformer that meets every rate target with equality at the least
    total power, by uplink-downlink duality (Bengtsson & Ottersten 2001;
    Wiesel, Eldar & Shamai, IEEE TSP 2006).

    On the noise-normalized channels g_k = h_k / sigma the dual powers are
    the least fixed point of lambda = f(lambda), f_k = nu_k / ((1 + nu_k)
    g_k^H A^{-1} g_k) with A = I + sum_j lambda_j g_j g_j^H, and their sum is
    the least power.  f is concave and increasing, so Newton on lambda -
    f(lambda) falls monotonically to that point from any lambda >= f(lambda)
    (Ortega & Rheinboldt 1970, ch. 13); t (1, ..., 1) is one once t is the
    largest per-user zero-forcing power nu_k [(G^H G)^{-1}]_kk.  The beams
    point along A^{-1} g_k, and the downlink powers solve the K x K linear
    system that sets every SINR to nu_k; a zero target's power is exactly
    0, since its constraint holds at any power.  Raises :class:`Infeasible`
    when no finite power meets the targets.  Needs K <= N_T, which zero
    forcing needs too.
    """
    cfg = inst.config
    g = inst.channel.conj().T / np.sqrt(cfg.comm_noise)     # columns g_k
    nu = model.sinr_targets(cfg.rate_targets)
    zero_forcing = nu * np.linalg.pinv(g.conj().T @ g).diagonal().real
    lam = np.full(cfg.n_users, np.max(zero_forcing))
    for _ in range(100):
        a = np.eye(cfg.n_tx) + (g * lam) @ g.conj().T
        q = g.conj().T @ np.linalg.solve(a, g)                 # g_k^H A^{-1} g_j
        f = nu / ((1.0 + nu) * q.diagonal().real)
        if np.max(np.abs(lam - f)) <= 1e-12 * np.max(lam):
            break
        jac = np.eye(cfg.n_users) - (f / q.diagonal().real)[:, None] * np.abs(q) ** 2
        lam = lam - np.linalg.solve(jac, lam - f)
    else:
        raise Infeasible("no beamformer meets the rate targets at any power")
    beams = np.linalg.solve(a, g)
    beams /= np.linalg.norm(beams, axis=0)
    gains = np.abs(g.conj().T @ beams) ** 2                    # |g_k^H u_j|^2 at (k, j)
    # SINR_k = nu_k, each row over 1 + nu_k: p_k G_kk / (1 + nu_k) - nu_k / (1 +
    # nu_k) sum_{j != k} p_j G_kj = nu_k / (1 + nu_k), with no cancellation
    share = nu / (1.0 + nu)
    system = -share[:, None] * gains
    np.fill_diagonal(system, gains.diagonal() / (1.0 + nu))
    powers = np.linalg.solve(system, share)
    powers[nu == 0.0] = 0.0      # exactly, not the solve's roundoff
    if not np.all(powers >= 0.0):
        raise Infeasible("no beamformer meets the rate targets at any power")
    return beams * np.sqrt(powers)


@dataclass(frozen=True)
class RateCuts:
    """The constraints of the design problem as quadratic forms in w = vec W:
    f_j(w) = w^H (a_j - own_j) w + c_j <= 0.  Row 0 is the power ball (a_0 =
    I, own_0 = 0, c_0 = -P0); row j >= 1 is the SINR cut nu_k (sum_{i != k}
    |h_k^H w_i|^2 + sigma^2) - |h_k^H w_k|^2 <= 0 of the j-th user with a
    positive target, whose convex part a_j is the interference and whose
    concave part own_j (h_k h_k^H on column k) is the signal."""

    a: np.ndarray
    own: np.ndarray
    c: np.ndarray


def rate_cuts(inst: model.Instance) -> RateCuts:
    """The constraint stack of the instance, built once per solve.  User k's
    cut acts through h_k h_k^H on column k (its own signal) and, times nu_k,
    on every other column (the interference it receives).  A zero target's
    constraint |h_k^H w_k|^2 >= 0 always holds, so its cut is left out: the
    stack holds the power ball, then one cut per user with a positive
    target, in user order."""
    cfg = inst.config
    n_tx, n_users = cfg.n_tx, cfg.n_users
    dim = n_tx * n_users
    h = inst.channel.conj()                                  # row k is h_k
    nu = model.sinr_targets(cfg.rate_targets)
    users = np.flatnonzero(nu > 0.0)
    nu, gram = nu[users], h[users, :, None] * h[users].conj()[:, None, :]  # h_k h_k^H
    cut, column = np.nonzero(users[:, None] != np.arange(n_users)[None, :])

    a = np.zeros((users.size + 1, dim, dim), dtype=complex)
    np.fill_diagonal(a[0], 1.0)                              # the power ball
    own = np.zeros_like(a)
    # the cuts and their own-signal terms indexed (cut, block row, :, block column, :)
    cuts = a[1:].reshape(users.size, n_users, n_tx, n_users, n_tx)
    cuts[cut, column, :, column, :] = hermitianize(nu[:, None, None] * gram)[cut]
    own[1:].reshape(cuts.shape)[np.arange(users.size), users, :, users, :] = gram
    return RateCuts(a=a, own=own, c=np.concatenate([[-cfg.power_budget], nu * cfg.comm_noise]))


def _linearized(cuts: RateCuts, w_vec: np.ndarray):
    """The stack with its concave signal terms linearized at w, x^H a_j x -
    2 Re((own_j w)^H x) + c_j + w^H own_j w <= 0: (own_j w, those constants)."""
    signal = cuts.own @ w_vec
    return signal, cuts.c + np.array([float(np.real(np.vdot(w_vec, s))) for s in signal])


def multiuser_subproblem(inst: model.Instance, w_prev, sur: Surrogate,
                         cuts: RateCuts) -> conic.QcqpProblem:
    """Convex QCQP in vec(W): the surrogate objective under the constraint
    stack ``cuts`` (:func:`rate_cuts` of the instance) with the concave
    signal term of each cut linearized at w_prev, multiplied over all of
    vec(W), as the Kronecker-product construction is.  Each cut equals user
    k's rate constraint at w_prev, so the problem is feasible there when
    w_prev meets the budget and every rate target."""
    signal, c = _linearized(cuts, vec(model.as_beam_matrix(w_prev, inst.config)))
    return conic.QcqpProblem(objective=(sur.delta * sur.quad, -sur.lin, 0.0),
                             constraints=(cuts.a, -signal, c))


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


def _kkt_terms(cuts: RateCuts, sur: Surrogate, w_mat: np.ndarray):
    """The terms of :func:`kkt_certificate`: g, the constraint gradients
    (a_j - own_j) vec W as the columns fitted to it, and the values f_j."""
    w_vec = vec(w_mat)
    basis = ((cuts.a - cuts.own) @ w_vec).T
    values = np.real(w_vec.conj() @ basis) + cuts.c
    return sur.gradient(w_vec), basis, values


def _kkt_fit(grad, basis, values):
    """The certificate from its terms, and the fit of one multiplier per
    constraint."""
    coef = _nonnegative_fit(_real(basis), _real(grad))
    grad_norm = float(np.linalg.norm(grad))
    residual = float(np.linalg.norm(grad - basis @ coef)) / (1.0 + grad_norm)
    comp = coef * np.abs(values)
    return (residual, float(comp[0]), float(np.max(comp[1:], initial=0.0))), coef


@dataclass(frozen=True)
class _Certified:
    """A point with its certificate and what the certificate was read from:
    the :func:`_kkt_terms` at it and their fit, which the finish hands to
    :func:`_kkt_newton` so that neither builds them twice."""

    point: model.SensingPoint
    terms: tuple
    coef: np.ndarray
    cert: tuple


def _certify(inst: model.Instance, cuts: RateCuts, point: model.SensingPoint) -> _Certified:
    """The certificate of a point, kept with its terms and fit."""
    terms = _kkt_terms(cuts, build_surrogate(inst, point), point.w)
    cert, coef = _kkt_fit(*terms)
    return _Certified(point, terms, coef, cert)


def kkt_certificate(inst: model.Instance, w):
    """KKT residuals of a design with any number of users on the true
    problem; the design is an array or its :class:`model.SensingPoint`.

    g is the MI gradient (w.r.t. conj(vec W)), read from the surrogate built
    at w, where the two agree.  The constraints are the stack f_j <= 0 of
    :func:`rate_cuts`: the power ball, then the SINR cut of each user with a
    positive target (a zero target's constraint always holds, so it has no
    multiplier).  Their multipliers lambda_j are the nonnegative
    least-squares fit of g = sum_j lambda_j grad f_j.  Returns the
    stationarity residual ||g - sum_j lambda_j grad f_j|| / (1 + ||g||), the
    power ball's lambda_0 |f_0| and the largest lambda_j |f_j| of the cuts
    (0 without a cut).  Only the design problem enters, not how a
    subproblem was solved.  A silent target has g = 0, so every multiplier
    and residual is zero.
    """
    return _certify(inst, rate_cuts(inst), _sensed(inst, w)).cert


class _MultiUserMap(_MmMap):
    """The K-user subproblem: the solution of :func:`multiuser_subproblem` at
    the point, on the constraint stack built once for the solve.  Each dual
    solve is warm-started from the multipliers of the one before; an
    uncertified one raises :class:`NumericalError`.  Without echo
    interference the subproblem's optimal set is a face whose central point,
    which the solve returns, lies below full power; there the map's scaling
    cuts hundreds of maps to tens."""

    def __init__(self, inst: model.Instance):
        super().__init__(inst)
        self.multipliers = None

    def subproblem(self, point: model.SensingPoint) -> np.ndarray:
        problem = multiuser_subproblem(self.inst, point.w, build_surrogate(self.inst, point),
                                       self.cuts)
        report = conic.solve_qcqp(problem, SUBPROBLEM_GAP_TOL, self.multipliers)
        self.multipliers = report.multipliers
        self.inner_steps += report.iterations
        return unvec(report.solution, *point.w.shape)


def solve_multi_user(inst: model.Instance, eps2: float = DEFAULT_EPS_MULTI,
                     max_iters: int = DEFAULT_MAX_ITERS) -> MmReport:
    """The MM solve (:func:`_solve`) under the eps2 rule."""
    return _solve(inst, eps2, max_iters)
