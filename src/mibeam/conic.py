"""Solvers for the two convex subproblem shapes: a dense log-barrier
interior point for small SDPs, and a dual Newton solve for QCQPs.

``solve_sdp`` compiles small Hermitian semidefinite programs with affine LMI
blocks and trace constraints in a PSD matrix variable (plus an optional
scalar) into a real parameter vector x, a linear objective cost @ x and two
barrier families: Hermitian PSD blocks affine in x (-log det) and affine
cuts (-log s).  One phase one, adding a slack to every barrier, finds a
strictly feasible point; one deterministic path follower with Newton
centering steps does the rest.  Between rounds it predicts along the
tangent of the central path, and it centres loosely (Newton decrement
lambda <= 0.1) in every round but the last, which it centres strictly;
phase one keeps strict centring in every round and takes no predictor step.
Every barrier term changes along a search ray as -log(1 + alpha c), so the
line search evaluates the merit change exactly from coefficients computed
once per step.  Problems here have at most a few dozen real parameters, so
no sparsity or scaling tricks are attempted.

``solve_qcqp`` solves a convex complex QCQP, its m constraints stacked in a
:class:`QcqpProblem`, by Newton steps on its log-barrier Lagrangian dual in
the multipliers, one Cholesky solve per evaluation; it returns the interior
point's central point, and a warm start from the multipliers of a nearby
problem gets there in a few steps.
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
DUAL_NEWTON_STEPS = 100  # Newton step budget of one QCQP solve
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
    """minimize x^H A0 x + 2 Re(b0^H x) + c0 over complex x subject to
    x^H A_i x + 2 Re(b_i^H x) + c_i <= 0 for the m >= 0 stacked constraints
    (A (m, n, n), b (m, n), c (m,)); all A PSD, each checked Hermitian."""

    objective: tuple
    constraints: tuple

    def __post_init__(self):
        a0, b0, _ = self.objective
        a, b, c = self.constraints
        n, m = a0.shape[0], c.shape[0]
        shapes = (a0.shape, b0.shape, a.shape, b.shape, c.shape)
        if shapes != ((n, n), (n,), (m, n, n), (m, n), (m,)):
            raise ValueError("QCQP term has wrong shape")
        if not (is_hermitian(a0) and is_hermitian(a)):
            raise ValueError("QCQP quadratic matrices must be Hermitian")

    def combined(self, lam: np.ndarray) -> np.ndarray:
        """sum lam_i A_i."""
        a0, a = self.objective[0], self.constraints[0]
        return (lam @ a.reshape(lam.size, a0.size)).reshape(a0.shape)

    def farkas(self, lam: np.ndarray) -> bool:
        """Whether lam certifies infeasibility: min_x sum lam_i f_i(x) > 0,
        which no feasible x allows."""
        _, b, c = self.constraints
        try:
            chol = np.linalg.cholesky(self.combined(lam))
        except np.linalg.LinAlgError:
            return False
        y = np.linalg.solve(chol, lam @ b)
        return float(lam @ c) - float(np.vdot(y, y).real) > 0.0


@dataclass
class ConicReport:
    solution: Optional[np.ndarray]
    aux: Optional[float]           # scalar variable t for SDPs, else None
    objective: float
    # absolute duality-gap bound: nu / t_barrier (SDP), -lam . f(x) (QCQP)
    gap: float
    iterations: int                # total Newton steps (both SDP phases)
    status: str
    # SDP: (primal, primal - nu / t) per round, only the last, strictly
    # centred round's entry a certified duality gap; QCQP: (primal, dual)
    # per certified central point
    duality_trace: list = field(default_factory=list)
    decrement: float = np.nan      # squared Newton decrement of the final centring test
    multipliers: Optional[np.ndarray] = None  # QCQP constraint multipliers


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
# A compiled problem minimizes cost @ x over a real parameter vector x inside
# two families of self-concordant barriers:
#   * PSD blocks       S_b(x) = const_b + sum_k x_k ds_b[k] > 0   -log det S_b
#   * affine cuts      s_i(x) = a_i @ x + b_i > 0                -log s_i
# with barrier degree nu = sum of block sizes + number of cuts.


@dataclass
class _Compiled:
    cost: np.ndarray      # (nv,)
    blocks: list          # (const (m, m), ds (nv, m, m))
    cut_a: np.ndarray     # (n_cuts, nv)
    cut_b: np.ndarray     # (n_cuts,)

    @property
    def nu(self) -> float:
        return float(sum(const.shape[0] for const, _ in self.blocks) + self.cut_b.size)

    def objective(self, x: np.ndarray) -> float:
        return float(self.cost @ x)


class _Local:
    """The barriers at one strictly feasible point x, as the Newton system
    and the ray along its direction both use them: per block the whitened
    coefficients M_k = L^-1 ds_k L^-H with S(x) = L L^H, and the affine
    slacks s_i.  An empty family is skipped."""

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
        return grad, hess


class _Ray:
    """The merit change along x + alpha dx, exact in alpha.

    Every barrier term has one form, -log(1 + alpha c), with coefficients
    computed once per search direction: a PSD block contributes one term per
    eigenvalue c of L^-1 dS L^-H = sum_k dx_k M_k, an affine cut c = a.dx / s.
    The objective changes by alpha * slope.  No difference of two large
    merit values is formed, so the Armijo test stays exact at large barrier
    weights.  ``alpha_max``, the first alpha that leaves the domain, is the
    smallest -1/c over the negative coefficients.
    """

    def __init__(self, local: _Local, dx: np.ndarray):
        comp = local.comp
        lin = [np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
               for inner in (np.tensordot(dx, white, axes=(0, 0)) for white in local.white)]
        if comp.cut_b.size:
            lin.append((comp.cut_a @ dx) / local.slack)
        self.coef = np.concatenate([np.zeros(0), *lin])
        self.slope = float(comp.cost @ dx)
        roots = np.divide(-1.0, self.coef, out=np.full(self.coef.size, np.inf),
                          where=self.coef < 0.0)
        self.alpha_max = float(np.min(roots, initial=np.inf))

    def barrier_change(self, alpha: float) -> float:
        arg = alpha * self.coef
        if np.any(arg <= -1.0):
            return np.inf
        return -float(np.sum(np.log1p(arg)))

    def merit_change(self, alpha: float, t_bar: float) -> float:
        return t_bar * alpha * self.slope + self.barrier_change(alpha)


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
        grad_b, hess = local.grad_hess()
        grad = t_bar * comp.cost + grad_b
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
    dx = (t_bar * (1.0 - t_bar / t_next)) * _solve_newton(hess, -comp.cost)
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
    s_i + s > 0) from x = 0, where every margin is positive
    once s exceeds the worst violation.  The slack is bounded below, so
    minimizing it cannot run away, and a whiff of the true objective keeps
    directions the barriers alone cannot bound (an SDP's auxiliary scalar)
    bounded.
    """
    nv = comp.cost.size
    n_cuts = comp.cut_b.size
    violations = [0.0, *(-comp.cut_b)]
    violations += [-np.linalg.eigvalsh(const).min() for const, _ in comp.blocks]
    s0 = float(max(violations))
    cap = 10.0 * (s0 + 1.0)
    slack = np.zeros(nv + 1)
    slack[-1] = 1.0
    comp1 = _Compiled(
        cost=np.append(PHASE1_OBJECTIVE_BLEND * comp.cost, 1.0),
        blocks=[(const, np.concatenate([ds, np.eye(const.shape[0])[None]]))
                for const, ds in comp.blocks],
        cut_a=np.vstack([np.hstack([comp.cut_a, np.ones((n_cuts, 1))]), slack]),
        cut_b=np.append(comp.cut_b, cap),
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
    return _Compiled(cost=cost, blocks=blocks, cut_a=cut_a, cut_b=cut_b)


def solve_sdp(prob: SdpProblem, tol: float = DEFAULT_GAP_TOL) -> ConicReport:
    """Solve an :class:`SdpProblem`; gap tolerance is relative to 1 + |obj|."""
    x, report = _solve(_compile_sdp(prob), tol)
    if x is not None:
        n = prob.dim
        report.solution = _herm_of_params(x[:n * n], n)
        report.aux = float(x[n * n]) if prob.has_t else None
    return report


# ---------------------------------------------------------------------------
# QCQP: Newton on the Lagrangian dual
#
# With multipliers lam >= 0 the Lagrangian is x^H M x + 2 Re(b^H x) + c,
# M = A0 + sum lam_i A_i, b = b0 + sum lam_i b_i, c = c0 + sum lam_i c_i.
# For M > 0 it is minimized by x(lam) = -M^-1 b, and the dual function
# d(lam) = c - b^H M^-1 b is concave with gradient f_i(x(lam)) and Hessian
# -2 Re(g_i^H M^-1 g_j), g_i = A_i x + b_i.  Minimizing -t d(lam) - sum log
# lam_i gives t lam_i f_i(x) = -1: x is the interior point's central point
# at barrier weight t, and the duality gap f_0(x) - d(lam) = -lam . f(x) is
# m / t there.


def _final_weight(m: int, bound: float) -> float:
    """The barrier weight the path follower ends on when the gap bound is
    ``bound``: the first of t = 1, 5, 25, ... with m / t <= bound."""
    t_bar = 1.0
    while m / t_bar > bound:
        t_bar /= GAP_SHRINK
    return t_bar


class _DualPoint:
    """The dual at multipliers lam > 0: M(lam), the Lagrangian minimizer x,
    the objective and constraint values there, and the Hessian
    2 Re(g_i^H M^-1 g_j) of the negated dual.  Raises LinAlgError when
    M(lam) is not positive definite."""

    def __init__(self, qp: QcqpProblem, lam: np.ndarray):
        (a0, b0, _), (a, b, c) = qp.objective, qp.constraints
        self.qp = qp
        self.lam = lam
        self.mat = a0 + qp.combined(lam)
        l_inv = np.linalg.inv(np.linalg.cholesky(self.mat))
        self.x = -(l_inv.conj().T @ (l_inv @ (b0 + lam @ b)))
        ax = a @ self.x                                      # A_i x, (m, n)
        x_conj = self.x.conj()
        self.f = np.real(ax @ x_conj + 2.0 * (b @ x_conj)) + c
        white = l_inv @ (ax + b).T                           # L^-1 g_i, (n, m)
        self.curv = 2.0 * np.real(white.conj().T @ white)

    @property
    def objective(self) -> float:
        a0, b0, c0 = self.qp.objective
        return float(np.real(np.vdot(self.x, a0 @ self.x) + 2.0 * np.vdot(b0, self.x))) + float(c0)


def solve_qcqp(prob: QcqpProblem, tol: float = DEFAULT_GAP_TOL,
               multipliers: Optional[np.ndarray] = None) -> ConicReport:
    """Solve a convex complex QCQP; gap tolerance relative to 1 + |obj|.

    Newton on the log-barrier dual over the m multipliers, started from
    ``multipliers`` (all ones when None).  The barrier weight t stays on the
    path follower's grid t = 1, 5, 25, ..., and the answer is the central
    point at the first grid weight whose gap m / t is within tol (1 + |f_0|)
    at that point: the point the barrier path follower would return.  The
    solve starts at the grid weight that meets the bound for the objective
    at the starting multipliers' minimizer.  A centred point is certified
    when x is feasible as evaluated and its gap -lam . f(x) is within
    tol (1 + |f_0(x)|); a certified point moves t one grid step down while
    the lower weight could still meet the bound, an uncertified one moves t
    up, or ends the solve at the certified point of the weight above.

    Steps are scaled by lam, capped at 0.95 of the way to lam = 0 and
    backtracked on the exact dual merit change
    t (d(lam) - d(lam')) - sum log(lam'_i / lam_i) with
    d(lam') - d(lam) = (lam' - lam) . f(x) - (x - x')^H M' (x - x'),
    so no difference of two large merit values is formed.  The solve is
    centred when half the squared Newton decrement is at most CENTER_TOL, or
    at most LOOSE_CENTER_TOL and it fell by less than half in the last step
    (the roundoff floor).  ``infeasible`` is reported only with a Farkas
    certificate (:meth:`QcqpProblem.farkas`), tested when a step would more
    than double a multiplier and when the solve ends uncertified; the
    report's multipliers are then that certificate, normalized to sum 1.
    M(lam) must be positive definite for lam > 0 (a power ball gives this);
    otherwise, or when DUAL_NEWTON_STEPS run out, the status is ``max_iter``.
    """
    m = prob.constraints[2].size
    lam = np.ones(m) if multipliers is None else np.array(multipliers, dtype=float)
    if lam.shape != (m,) or not np.all(lam > 0.0):
        raise ValueError("QCQP multipliers must be m positive numbers")
    try:
        point = _DualPoint(prob, lam)
    except np.linalg.LinAlgError:
        return ConicReport(solution=None, aux=None, objective=np.nan, gap=np.nan,
                           iterations=0, status=MAXITER)
    t_bar = _final_weight(m, tol * (1.0 + abs(point.objective)))
    steps, previous, decrement, trace, fallback = 0, np.inf, np.nan, [], None
    while True:
        lam, f = point.lam, point.f
        grad = -t_bar * lam * f - 1.0                   # scaled by lam
        hess = t_bar * (lam[:, None] * point.curv * lam[None, :]) + np.eye(m)
        try:
            step = -np.linalg.solve(hess, grad) if m else grad
        except np.linalg.LinAlgError:
            break                                       # overflow on an unbounded dual
        decrement = float(-grad @ step)
        if decrement / 2.0 <= CENTER_TOL or (decrement / 2.0 <= LOOSE_CENTER_TOL
                                             and decrement > 0.5 * previous):
            primal = point.objective
            gap = -float(lam @ f)
            bound = tol * (1.0 + abs(primal))
            if np.max(f, initial=-np.inf) <= 0.0 and gap <= bound:
                trace.append((primal, primal - gap))
                fallback = ConicReport(solution=point.x, aux=None, objective=primal, gap=gap,
                                       iterations=steps, status=OPTIMAL, duality_trace=trace,
                                       decrement=decrement, multipliers=lam)
                if t_bar == 1.0 or m / (t_bar * GAP_SHRINK) > bound:
                    return fallback
                t_bar *= GAP_SHRINK     # the previous weight may meet the bound too
                previous = np.inf
                continue
            if fallback is not None:
                fallback.iterations = steps
                return fallback
            t_bar = max(t_bar / GAP_SHRINK, _final_weight(m, bound))
            previous = np.inf
            continue
        # an unbounded dual shows as multipliers that more than double per step
        if steps >= DUAL_NEWTON_STEPS or not np.isfinite(decrement) or (
                np.max(step, initial=0.0) > 1.0 and prob.farkas(lam)):
            break
        # fraction-to-boundary cap, then backtrack on the exact merit change
        alpha = min(1.0, 0.95 / max(float(-step.min()), 1e-300))
        direction = lam * step
        slope = float(direction @ f)
        while alpha > 1e-14:
            try:
                trial = _DualPoint(prob, lam + alpha * direction)
            except np.linalg.LinAlgError:
                alpha *= 0.5
                continue
            dx = trial.x - point.x
            rise = alpha * slope - float(np.vdot(dx, trial.mat @ dx).real)
            change = -t_bar * rise - float(np.sum(np.log1p(alpha * step)))
            if change <= -0.25 * alpha * decrement:
                break
            alpha *= 0.5
        if alpha <= 1e-14:
            break
        point, previous = trial, decrement
        steps += 1
    if prob.farkas(lam):
        return ConicReport(solution=None, aux=None, objective=np.nan, gap=np.nan,
                           iterations=steps, status=INFEASIBLE, multipliers=lam / lam.sum())
    return ConicReport(solution=point.x, aux=None, objective=point.objective, gap=np.nan,
                       iterations=steps, status=MAXITER, duality_trace=trace,
                       decrement=decrement, multipliers=lam)
