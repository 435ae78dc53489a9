"""Dense log-barrier interior-point solver for the two convex subproblem shapes.

One barrier engine serves both front ends.  A problem compiles to a real
parameter vector x, an objective cost @ x + x @ quad @ x, and three barrier
families: Hermitian PSD blocks affine in x (-log det), affine cuts (-log s)
and convex quadratic cuts (-log(-f)).  ``solve_sdp`` compiles small Hermitian
semidefinite programs with affine LMI blocks and trace constraints in a PSD
matrix variable (plus an optional scalar) into blocks and affine cuts;
``solve_qcqp`` lifts a convex complex QCQP to real variables and compiles it
into a quadratic objective and quadratic cuts.  One phase one, adding a
slack to every barrier, finds a strictly feasible point; one deterministic
path follower with Newton centering steps does the rest.  Between rounds it
predicts along the tangent of the central path, and it centres loosely
(Newton decrement lambda <= 0.1) in every round but the last, which it
centres strictly; phase one keeps strict centring in every round and takes
no predictor step.  Every barrier term changes along a search ray as
-log(1 + alpha c1 + alpha^2 c2), so the line search evaluates the merit
change exactly from coefficients computed once per step.  Problems here
have at most a few dozen real parameters, so no sparsity or scaling tricks
are attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import is_hermitian

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAXITER = "max_iter"

GAP_SHRINK = 0.2        # duality-gap reduction per outer round
DEFAULT_GAP_TOL = 1e-7  # relative: stop when nu/t <= tol * (1 + |objective|)
MAX_ROUNDS = 200        # path-following round cap per solve phase
NEWTON_PER_ROUND = 60   # centering step budget within one round
CENTER_TOL = 1e-10      # centering stops when half the Newton decrement is below this
LOOSE_CENTER_TOL = 5e-3  # the same, in a round the path follower does not end on
PHASE1_MARGIN = 1e-12   # slack the feasibility phase must end below -PHASE1_MARGIN
PHASE1_OBJECTIVE_BLEND = 1e-6  # weight of the true objective during phase one


@dataclass(frozen=True)
class LmiBlock:
    """Affine Hermitian block S(X, t) = const + t * t_coeff + [Tr(coeff[p,q] X)]_{pq}."""

    coeff: np.ndarray    # (m, m, d, d)
    const: np.ndarray    # (m, m) Hermitian
    t_coeff: np.ndarray  # (m, m) Hermitian

    def __post_init__(self):
        m = self.const.shape[0]
        if self.coeff.shape[:2] != (m, m) or self.t_coeff.shape != (m, m):
            raise ValueError("LMI block shapes are inconsistent")
        if not (is_hermitian(self.const) and is_hermitian(self.t_coeff)):
            raise ValueError("LMI block const/t_coeff must be Hermitian")
        for p in range(m):
            for q in range(m):
                diff = np.max(np.abs(self.coeff[p, q] - self.coeff[q, p].conj().T))
                scale = max(float(np.max(np.abs(self.coeff[p, q]))), 1e-300)
                if diff > 1e-10 * max(scale, 1.0):
                    raise ValueError("LMI coefficient tensor is not Hermitian-symmetric")


@dataclass(frozen=True)
class TraceConstraint:
    """Tr(mat @ X) <= bound (sense 'le') or >= bound (sense 'ge')."""

    mat: np.ndarray
    bound: float
    sense: str

    def __post_init__(self):
        if self.sense not in ("le", "ge"):
            raise ValueError("sense must be 'le' or 'ge'")
        if not is_hermitian(self.mat):
            raise ValueError("trace-constraint matrix must be Hermitian")


@dataclass(frozen=True)
class SdpProblem:
    """minimize Tr(obj_mat X) + obj_t * t  s.t.  X >= 0, LMI blocks >= 0, traces.

    The trace constraints must bound the feasible set (every problem built
    here carries a transmit-power bound, so this holds by construction); the
    barrier subproblems are unbounded otherwise.
    """

    dim: int
    obj_mat: np.ndarray
    obj_t: float
    lmi_blocks: tuple[LmiBlock, ...] = ()
    trace_constraints: tuple[TraceConstraint, ...] = ()

    def __post_init__(self):
        if self.obj_mat.shape != (self.dim, self.dim):
            raise ValueError("objective matrix has wrong shape")
        if not is_hermitian(self.obj_mat):
            raise ValueError("objective matrix must be Hermitian")

    @property
    def has_t(self) -> bool:
        if self.obj_t != 0.0:
            return True
        return any(np.any(b.t_coeff != 0) for b in self.lmi_blocks)


@dataclass(frozen=True)
class QcqpProblem:
    """minimize x^H A0 x + 2 Re(b0^H x) + c0 over complex x, each constraint
    triple (A, b, c) meaning x^H A x + 2 Re(b^H x) + c <= 0; all A PSD."""

    dim: int
    objective: tuple
    constraints: tuple

    def __post_init__(self):
        for a, b, _ in (self.objective, *self.constraints):
            if a.shape != (self.dim, self.dim) or b.shape != (self.dim,):
                raise ValueError("QCQP term has wrong shape")
            if not is_hermitian(a):
                raise ValueError("QCQP quadratic matrices must be Hermitian")


@dataclass
class ConicReport:
    solution: Optional[np.ndarray]
    aux: Optional[float]           # scalar variable t for SDPs, else None
    objective: float
    gap: float                     # absolute duality-gap bound nu / t_barrier
    iterations: int                # total Newton steps (both phases)
    status: str
    # (primal, primal - nu / t) per round; only the last, strictly centred
    # round's entry is a certified duality gap
    duality_trace: list = field(default_factory=list)
    decrement: float = np.nan      # squared Newton decrement of the final centring test


# ---------------------------------------------------------------------------
# Hermitian parameterization


_BASIS_CACHE: dict[int, np.ndarray] = {}


def _herm_basis(n: int) -> np.ndarray:
    """Stack of n^2 Hermitian basis matrices matching :func:`_herm_of_params`."""
    cached = _BASIS_CACHE.get(n)
    if cached is not None:
        return cached
    mats = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    iu = np.triu_indices(n, 1)
    for i, j in zip(*iu):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        e[j, i] = 1.0
        mats.append(e)
    for i, j in zip(*iu):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0j
        e[j, i] = -1.0j
        mats.append(e)
    basis = np.stack(mats)
    _BASIS_CACHE[n] = basis
    return basis


def _herm_of_params(x: np.ndarray, n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    a[np.diag_indices(n)] = x[:n]
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    re = x[n:n + m]
    im = x[n + m:n + 2 * m]
    a[iu] = re + 1j * im
    a[(iu[1], iu[0])] = re - 1j * im
    return a


# ---------------------------------------------------------------------------
# The barrier engine
#
# A compiled problem minimizes cost @ x + x @ quad @ x + offset over a real
# parameter vector x inside three families of self-concordant barriers:
#   * PSD blocks       S_b(x) = const_b + sum_k x_k ds_b[k] > 0   -log det S_b
#   * affine cuts      s_i(x) = a_i @ x + b_i > 0                -log s_i
#   * quadratic cuts   f_m(x) = x @ A_m x + 2 b_m @ x + c_m < 0   -log(-f_m)
# with barrier degree nu = sum of block sizes + number of cuts.


@dataclass
class _Compiled:
    cost: np.ndarray      # (nv,)
    quad: np.ndarray      # (nv, nv) symmetric PSD objective term
    blocks: list          # (const (m, m), ds (nv, m, m))
    cut_a: np.ndarray     # (n_cuts, nv)
    cut_b: np.ndarray     # (n_cuts,)
    quad_a: np.ndarray    # (n_quads, nv, nv) symmetric PSD
    quad_b: np.ndarray    # (n_quads, nv)
    quad_c: np.ndarray    # (n_quads,)
    offset: float = 0.0

    @property
    def nu(self) -> float:
        return float(sum(const.shape[0] for const, _ in self.blocks)
                     + self.cut_b.size + self.quad_c.size)

    def objective(self, x: np.ndarray) -> float:
        return float(x @ (self.quad @ x) + self.cost @ x) + self.offset


class _Local:
    """The barriers at one strictly feasible point x, as the Newton system
    and the ray along its direction both use them: per block the whitened
    coefficients M_k = L^-1 ds_k L^-H with S(x) = L L^H; the affine slacks
    s_i; the quadratic values f_m and A_m x.  An empty family is skipped."""

    def __init__(self, comp: _Compiled, x: np.ndarray):
        self.comp = comp
        self.x = x
        self.white = []
        for const, ds in comp.blocks:
            chol = np.linalg.cholesky(const + np.tensordot(x, ds, axes=(0, 0)))
            l_inv = np.linalg.inv(chol)
            self.white.append(l_inv @ ds @ l_inv.conj().T)
        if comp.cut_b.size:
            self.slack = comp.cut_a @ x + comp.cut_b
        if comp.quad_c.size:
            self.ax = comp.quad_a @ x
            self.f = self.ax @ x + 2.0 * comp.quad_b @ x + comp.quad_c

    def grad_hess(self):
        """Gradient and Hessian of the barrier sum."""
        comp = self.comp
        nv = self.x.size
        grad = np.zeros(nv)
        hess = np.zeros((nv, nv))
        for white in self.white:
            # grad_k = -Tr M_k; hess_kl = Tr(M_k M_l), a Gram matrix since
            # every M_k is Hermitian
            grad -= np.trace(white, axis1=1, axis2=2).real
            flat = white.reshape(nv, -1)
            hess += (flat.conj() @ flat.T).real
        if comp.cut_b.size:
            rates = comp.cut_a / self.slack[:, None]                 # a_i / s_i
            grad -= rates.sum(axis=0)
            hess += rates.T @ rates
        if comp.quad_c.size:
            rates = 2.0 * (self.ax + comp.quad_b) / self.f[:, None]   # grad f_m / f_m
            grad -= rates.sum(axis=0)
            hess += np.einsum("m,mij->ij", -2.0 / self.f, comp.quad_a) + rates.T @ rates
        return grad, hess


class _Ray:
    """The merit change along x + alpha dx, exact in alpha.

    Every barrier term has one form, -log(1 + alpha c1 + alpha^2 c2), with
    coefficients computed once per search direction: a PSD block
    contributes one term per eigenvalue lam of L^-1 dS L^-H = sum_k dx_k M_k
    (c1 = lam, c2 = 0), an affine cut c1 = a.dx / s, c2 = 0, and a quadratic
    cut c1 = q1 / q0, c2 = q2 / q0 for f(x + alpha dx) = q0 + alpha q1 +
    alpha^2 q2.  The objective changes by alpha (slope + alpha curv).  No
    difference of two large merit values is formed, so the Armijo test stays
    exact at large barrier weights.  ``alpha_max``, the first alpha that
    leaves the domain, is the smallest positive root over all terms.
    """

    def __init__(self, local: _Local, dx: np.ndarray):
        comp, x = local.comp, local.x
        lin = [np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
               for inner in (np.tensordot(dx, white, axes=(0, 0)) for white in local.white)]
        if comp.cut_b.size:
            lin.append((comp.cut_a @ dx) / local.slack)
        self.c1 = np.concatenate([np.zeros(0), *lin])
        self.c2 = np.zeros(self.c1.size)
        if comp.quad_c.size:
            self.c1 = np.concatenate([self.c1, 2.0 * (local.ax + comp.quad_b) @ dx / local.f])
            self.c2 = np.concatenate([self.c2, (comp.quad_a @ dx) @ dx / local.f])
        self.slope = float((comp.cost + 2.0 * (comp.quad @ x)) @ dx)
        self.curv = float(dx @ (comp.quad @ dx))

        # positive root of 1 + c1 a + c2 a^2 in the form that does not
        # cancel for c1 < 0; c2 <= 0 up to roundoff, and clipping it keeps
        # the root conservative.  No root (denominator 0) is alpha = inf.
        denom = np.sqrt(self.c1 * self.c1 - 4.0 * np.minimum(self.c2, 0.0)) - self.c1
        roots = np.divide(2.0, denom, out=np.full(denom.size, np.inf), where=denom > 0.0)
        self.alpha_max = float(np.min(roots, initial=np.inf))

    def barrier_change(self, alpha: float) -> float:
        arg = alpha * (self.c1 + alpha * self.c2)
        if np.any(arg <= -1.0):
            return np.inf
        return -float(np.sum(np.log1p(arg)))

    def merit_change(self, alpha: float, t_bar: float) -> float:
        return t_bar * alpha * (self.slope + alpha * self.curv) + self.barrier_change(alpha)


def _solve_newton(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """hess^-1 rhs, with a relative ridge and a least-squares fallback."""
    ridge = 1e-12 * (1.0 + float(np.trace(hess)) / max(hess.shape[0], 1))
    try:
        return np.linalg.solve(hess + ridge * np.eye(hess.shape[0]), rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hess, rhs, rcond=None)[0]


def _newton_center(comp: _Compiled, x: np.ndarray, t_bar: float, budget: int,
                   tol: float = CENTER_TOL, stop_when=None):
    """Minimize t_bar * objective(x) + barrier(x) until half the squared
    Newton decrement is at most tol or the step budget is spent.

    Returns (x, steps, local, hess, decrement): the barriers, the merit
    Hessian and the squared decrement of the last centring test, which is
    taken at the returned x unless stop_when ended the loop.
    """
    steps = 0
    while True:
        local = _Local(comp, x)
        grad_b, hess_b = local.grad_hess()
        grad = t_bar * (comp.cost + 2.0 * (comp.quad @ x)) + grad_b
        hess = (2.0 * t_bar) * comp.quad + hess_b
        dx = _solve_newton(hess, -grad)
        decrement = float(-grad @ dx)
        if not decrement / 2.0 > tol or steps >= budget:
            break
        # fraction-to-boundary cap, then backtrack on the exact ray merit
        ray = _Ray(local, dx)
        alpha = min(1.0, 0.95 * ray.alpha_max)
        while alpha > 1e-14 and ray.merit_change(alpha, t_bar) > -0.25 * alpha * decrement:
            alpha *= 0.5
        if alpha <= 1e-14:
            break
        x = x + alpha * dx
        steps += 1
        if stop_when is not None and stop_when(x):
            break
    return x, steps, local, hess, decrement


def _predict(comp: _Compiled, local: _Local, hess: np.ndarray, t_bar: float,
             t_next: float) -> np.ndarray:
    """Step from the centre x(t_bar) towards x(t_next) along the tangent of
    the central path, taken linear in 1 / t.

    Differentiating the centrality condition t grad f + grad phi = 0 gives
    dx/dt = -H^-1 grad f with H the merit Hessian at x(t_bar); the step is
    (1/t_bar - 1/t_next) dx/d(1/t) = t_bar (1 - t_bar / t_next) dx/dt,
    capped at 0.95 of the way to the boundary.
    """
    x = local.x
    dx = (t_bar * (1.0 - t_bar / t_next)) * _solve_newton(
        hess, -(comp.cost + 2.0 * (comp.quad @ x)))
    return x + min(1.0, 0.95 * _Ray(local, dx).alpha_max) * dx


def _barrier_solve(comp: _Compiled, x0: np.ndarray, gap_tol: float,
                   max_rounds: int = MAX_ROUNDS, stop_when=None):
    """Path-following loop over t_bar = 1, 5, 25, ...; returns (x, gap,
    newton_steps, hit_cap, trace, decrement).

    Each round centres at t_bar, records (primal, primal - nu / t_bar) and
    ends the solve once nu / t_bar <= gap_tol (1 + |primal|).  Centring is
    loose (half the squared Newton decrement <= LOOSE_CENTER_TOL, lambda <=
    0.1, inside the quadratic-convergence region of the barrier) until the
    gap rule fires; that last round is then centred strictly to CENTER_TOL,
    so the solve returns the strict central point at its final t_bar and
    only the last trace entry is a certified duality gap.  Between rounds a
    predictor step follows the tangent of the central path.

    Phase one passes ``stop_when`` and may end in any round, so there every
    round is centred strictly and no predictor step is taken.
    """
    follow = stop_when is None
    x = np.array(x0, dtype=float)
    t_bar = 1.0
    used = 0
    trace = []
    for _ in range(max_rounds):
        x, steps, local, hess, decrement = _newton_center(
            comp, x, t_bar, NEWTON_PER_ROUND, LOOSE_CENTER_TOL if follow else CENTER_TOL,
            stop_when)
        used += steps
        gap = comp.nu / t_bar
        done = ((stop_when is not None and stop_when(x))
                or gap <= gap_tol * (1.0 + abs(comp.objective(x))))
        if done and follow:
            x, steps, _, _, decrement = _newton_center(comp, x, t_bar, NEWTON_PER_ROUND)
            used += steps
        primal = comp.objective(x)
        trace.append((primal, primal - gap))
        if done:
            return x, gap, used, False, trace, decrement
        if follow:
            x = _predict(comp, local, hess, t_bar, t_bar / GAP_SHRINK)
        t_bar /= GAP_SHRINK
    return x, gap, used, True, trace, decrement


def _phase_one(comp: _Compiled):
    """Find a strictly feasible point; returns (x or None, newton_steps).

    Minimizes a slack s added to every barrier (S_b + s I > 0,
    s_i + s > 0, f_m - s < 0) from x = 0, where every margin is positive
    once s exceeds the worst violation.  The slack is bounded below, so
    minimizing it cannot run away, and a whiff of the true objective keeps
    directions the barriers alone cannot bound (an SDP's auxiliary scalar)
    bounded.
    """
    nv = comp.cost.size
    n_cuts, n_quads = comp.cut_b.size, comp.quad_c.size
    violations = [0.0, *(-comp.cut_b), *comp.quad_c]
    violations += [-np.linalg.eigvalsh(const).min() for const, _ in comp.blocks]
    s0 = float(max(violations))
    cap = 10.0 * (s0 + 1.0)
    slack = np.zeros(nv + 1)
    slack[-1] = 1.0
    comp1 = _Compiled(
        cost=np.append(PHASE1_OBJECTIVE_BLEND * comp.cost, 1.0),
        quad=np.pad(PHASE1_OBJECTIVE_BLEND * comp.quad, ((0, 1), (0, 1))),
        blocks=[(const, np.concatenate([ds, np.eye(const.shape[0])[None]]))
                for const, ds in comp.blocks],
        cut_a=np.vstack([np.hstack([comp.cut_a, np.ones((n_cuts, 1))]), slack]),
        cut_b=np.append(comp.cut_b, cap),
        quad_a=np.pad(comp.quad_a, ((0, 0), (0, 1), (0, 1))),
        quad_b=np.hstack([comp.quad_b, np.full((n_quads, 1), -0.5)]),
        quad_c=comp.quad_c,
    )
    exit_level = -max(1e-6, 1e-6 * (1.0 + s0))
    x, _, steps, _, _, _ = _barrier_solve(comp1, np.append(np.zeros(nv), s0 + 1.0),
                                          gap_tol=1e-10, stop_when=lambda p: p[-1] <= exit_level)
    if x[-1] > -PHASE1_MARGIN:
        return None, steps
    return x[:-1], steps


def _solve(comp: _Compiled, tol: float):
    """Phase one, then the path follower; returns (x or None, report) with
    the report's solution left for the front end to fill in.  The status is
    ``optimal`` only when the final centring test passes at
    LOOSE_CENTER_TOL; the strict CENTER_TOL is not required, because valid
    solves stop at roundoff slightly above it."""
    x0, steps1 = _phase_one(comp)
    if x0 is None:
        return None, ConicReport(solution=None, aux=None, objective=np.nan, gap=np.nan,
                                 iterations=steps1, status=INFEASIBLE)
    x, gap, steps, hit_cap, trace, decrement = _barrier_solve(comp, x0, gap_tol=tol)
    # nu / t bounds the gap only at a central point: a final centring that
    # ran out of steps far from the centre certifies nothing
    centred = decrement / 2.0 <= LOOSE_CENTER_TOL
    return x, ConicReport(solution=None, aux=None, objective=comp.objective(x), gap=gap,
                          iterations=steps1 + steps,
                          status=OPTIMAL if centred and not hit_cap else MAXITER,
                          duality_trace=trace, decrement=decrement)


# ---------------------------------------------------------------------------
# SDP front end


def _compile_sdp(prob: SdpProblem) -> _Compiled:
    n = prob.dim
    basis = _herm_basis(n)
    n_w = n * n
    has_t = prob.has_t
    nv = n_w + (1 if has_t else 0)

    # PSD constraint on the matrix variable itself
    ds = np.zeros((nv, n, n), dtype=complex)
    ds[:n_w] = basis
    blocks = [(np.zeros((n, n), dtype=complex), ds)]
    for blk in prob.lmi_blocks:
        m = blk.const.shape[0]
        ds = np.zeros((nv, m, m), dtype=complex)
        # entry (p, q) is Tr(coeff[p, q] @ X): derivative w.r.t. x_k is
        # Tr(coeff[p, q] @ E_k)
        ds[:n_w] = np.einsum("pqij,kji->kpq", blk.coeff, basis)
        if has_t:
            ds[n_w] = blk.t_coeff
        blocks.append((blk.const.astype(complex), ds))

    cut_a = np.zeros((len(prob.trace_constraints), nv))
    cut_b = np.zeros(len(prob.trace_constraints))
    for i, con in enumerate(prob.trace_constraints):
        sign = -1.0 if con.sense == "le" else 1.0
        cut_a[i, :n_w] = sign * np.einsum("ij,kji->k", con.mat, basis).real
        cut_b[i] = -sign * con.bound

    cost = np.zeros(nv)
    cost[:n_w] = np.einsum("ij,kji->k", prob.obj_mat, basis).real
    if has_t:
        cost[n_w] = prob.obj_t
    return _Compiled(cost=cost, quad=np.zeros((nv, nv)), blocks=blocks,
                     cut_a=cut_a, cut_b=cut_b, quad_a=np.zeros((0, nv, nv)),
                     quad_b=np.zeros((0, nv)), quad_c=np.zeros(0))


def solve_sdp(prob: SdpProblem, tol: float = DEFAULT_GAP_TOL) -> ConicReport:
    """Solve an :class:`SdpProblem`; gap tolerance is relative to 1 + |obj|."""
    x, report = _solve(_compile_sdp(prob), tol)
    if x is not None:
        n = prob.dim
        report.solution = _herm_of_params(x[:n * n], n)
        report.aux = float(x[n * n]) if prob.has_t else None
    return report


# ---------------------------------------------------------------------------
# QCQP front end


def _embed_real(a: np.ndarray, b: np.ndarray):
    """Real lifting of x^H A x + 2 Re(b^H x) with z = [Re x; Im x]."""
    a_r = np.block([[a.real, -a.imag], [a.imag, a.real]])
    b_r = np.concatenate([b.real, b.imag])
    return 0.5 * (a_r + a_r.T), b_r


def _compile_qcqp(prob: QcqpProblem) -> _Compiled:
    nv = 2 * prob.dim
    lifted = [_embed_real(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
              for a, b, _ in (prob.objective, *prob.constraints)]
    (a0, b0), cons = lifted[0], lifted[1:]
    return _Compiled(cost=2.0 * b0, quad=a0, blocks=[],
                     cut_a=np.zeros((0, nv)), cut_b=np.zeros(0),
                     quad_a=np.array([a for a, _ in cons]).reshape(-1, nv, nv),
                     quad_b=np.array([b for _, b in cons]).reshape(-1, nv),
                     quad_c=np.array([float(c) for _, _, c in prob.constraints]),
                     offset=float(prob.objective[2]))


def solve_qcqp(prob: QcqpProblem, tol: float = DEFAULT_GAP_TOL) -> ConicReport:
    """Solve a convex complex QCQP; gap tolerance relative to 1 + |obj|.

    In z = [Re x; Im x] the objective is z^T A0 z + 2 b0^T z + c0 and each
    constraint is a quadratic cut of the barrier engine.
    """
    x, report = _solve(_compile_qcqp(prob), tol)
    if x is not None:
        report.solution = x[:prob.dim] + 1j * x[prob.dim:]
    return report
