"""Solvers for the two convex subproblem shapes: a dense log-barrier
interior point for small SDPs, and a dual Newton solve for QCQPs.

``solve_sdp`` compiles small Hermitian semidefinite programs with affine LMI
blocks in a PSD matrix variable (plus an optional scalar) into a real
parameter vector x, a linear objective cost @ x and one barrier
-log det S(x): S is a Hermitian block-diagonal matrix affine in x whose
diagonal blocks are the matrix variable and each LMI block.  A trace
constraint Tr(M X) <= b is the 1 x 1 block b - Tr(M X) (Boyd &
Vandenberghe, Convex Optimization, 2004, sec. 4.6.2).  Every problem
carries a strictly feasible start, so no feasibility phase is needed
(ibid., sec. 11.4): one loose centring and one deterministic path follower
with Newton centering steps solve it.  Between rounds it predicts along the
tangent of the central path, and it centres loosely (Newton decrement
lambda <= 0.1) in every round but the last, which it centres strictly.
Every barrier term changes along a search ray as -log(1 + alpha c), so the
line search evaluates the merit change exactly from coefficients computed
once per step.

``solve_qcqp`` solves a convex complex QCQP, its m constraints stacked in a
:class:`QcqpProblem`, by Newton steps on its log-barrier Lagrangian dual in
the multipliers, one Cholesky solve per evaluation.  It returns the first
certified central point on the grid t = 1, 5, 25, ...; a warm start from the
multipliers of a nearby problem gets there in a few steps.  It certifies no
infeasibility: the multi-user MM map solves only problems feasible at their
own expansion point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .linalg import is_hermitian

OPTIMAL = "optimal"
MAXITER = "max_iter"

GAP_SHRINK = 0.2        # duality-gap reduction per outer round
DEFAULT_GAP_TOL = 1e-7  # relative: stop when nu/t <= tol * (1 + |objective|)
MAX_ROUNDS = 200        # path-following round cap per solve
DUAL_NEWTON_STEPS = 100  # Newton step budget of each start of a QCQP solve
NEWTON_PER_ROUND = 60   # centering step budget within one round
CENTER_TOL = 1e-10      # centering stops when half the Newton decrement is below this
LOOSE_CENTER_TOL = 5e-3  # the same, in a round the path follower does not end on


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
        # coeff[q, p] = coeff[p, q]^H to 1e-10 relative to max(|coeff[p, q]|, 1)
        diff = np.abs(self.coeff - self.coeff.transpose(1, 0, 3, 2).conj()).max(axis=(2, 3))
        scale = np.maximum(np.abs(self.coeff).max(axis=(2, 3)), 1.0)
        if np.any(diff > 1e-10 * scale):
            raise ValueError("LMI coefficient tensor is not Hermitian-symmetric")


@dataclass(frozen=True)
class SdpProblem:
    """minimize Tr(obj_mat X) + obj_t * t  s.t.  X >= 0, LMI blocks >= 0.

    The blocks must bound the feasible set (every problem built here carries
    a transmit-power bound, the 1 x 1 block P0 - Tr X, so this holds by
    construction); the barrier subproblems are unbounded otherwise.
    ``start`` = (X0, t0) is strictly inside every constraint, t0 None when
    there is no scalar.
    """

    dim: int
    obj_mat: np.ndarray
    obj_t: float
    start: tuple
    lmi_blocks: tuple[LmiBlock, ...] = ()

    def __post_init__(self):
        if self.obj_mat.shape != (self.dim, self.dim):
            raise ValueError("objective matrix has wrong shape")
        if not is_hermitian(self.obj_mat):
            raise ValueError("objective matrix must be Hermitian")
        if self.start[0].shape != (self.dim, self.dim) or (self.start[1] is None) == self.has_t:
            raise ValueError("SDP start must be dim x dim, with a scalar iff the problem has one")
        if any(b.coeff.shape[2:] != (self.dim, self.dim) for b in self.lmi_blocks):
            raise ValueError("LMI coefficient matrices must be dim x dim")

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


@dataclass
class ConicReport:
    solution: Optional[np.ndarray]
    aux: Optional[float]           # scalar variable t for SDPs, else None
    objective: float
    # absolute duality-gap bound: nu / t_barrier (SDP), -lam . f(x) (QCQP)
    gap: float
    iterations: int                # total Newton steps, an SDP's start centring included
    status: str
    # SDP: (primal, primal - nu / t) per round, only the last, strictly
    # centred round's entry a certified duality gap; QCQP: (primal, dual)
    # of the certified central point it returns
    duality_trace: list = field(default_factory=list)
    decrement: float = np.nan      # squared Newton decrement of the final centring test
    multipliers: Optional[np.ndarray] = None  # QCQP constraint multipliers


# ---------------------------------------------------------------------------
# Hermitian parameterization


@lru_cache(maxsize=None)
def _herm_basis(n: int) -> np.ndarray:
    """Stack of n^2 Hermitian basis matrices, _herm_of_params of each unit vector."""
    return np.stack([_herm_of_params(e, n) for e in np.eye(n * n)])


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


def _params_of_herm(a: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_herm_of_params`."""
    upper = a[np.triu_indices(a.shape[0], 1)]
    return np.concatenate([np.diag(a).real, upper.real, upper.imag])


# ---------------------------------------------------------------------------
# The barrier engine
#
# A compiled problem minimizes cost @ x over a real parameter vector x inside
# one self-concordant barrier -log det S(x), S(x) = const + sum_k x_k ds_k
# Hermitian block diagonal, barrier degree nu = size of S.  An affine cut
# s_i(x) = a_i @ x + b_i > 0 is a 1 x 1 block.


@dataclass
class _Compiled:
    cost: np.ndarray      # (nv,)
    const: np.ndarray     # (m, m) Hermitian, block diagonal
    ds: np.ndarray        # (nv, m, m) Hermitian, the same blocks
    sizes: tuple          # sizes of the diagonal blocks

    @property
    def nu(self) -> float:
        return float(self.const.shape[0])

    def objective(self, x: np.ndarray) -> float:
        return float(self.cost @ x)

    @cached_property
    def support(self) -> np.ndarray:
        """Flat indices of the entries of S's diagonal blocks."""
        label = np.repeat(np.arange(len(self.sizes)), self.sizes)
        return np.flatnonzero(label[:, None] == label[None, :])


def _block_diag(blocks) -> tuple[np.ndarray, np.ndarray]:
    """One (const, ds) from diagonal blocks (const_b (m_b, m_b), ds_b (nv, m_b, m_b))."""
    nv = blocks[0][1].shape[0]
    m = sum(const.shape[0] for const, _ in blocks)
    const = np.zeros((m, m), dtype=complex)
    ds = np.zeros((nv, m, m), dtype=complex)
    at = 0
    for const_b, ds_b in blocks:
        span = slice(at, at + const_b.shape[0])
        const[span, span] = const_b
        ds[:, span, span] = ds_b
        at = span.stop
    return const, ds


class _Local:
    """The barrier at one strictly feasible point x, as the Newton system
    and the ray along its direction both use it: the whitened coefficients
    M_k = L^-1 ds_k L^-H with S(x) = L L^H, block diagonal like S."""

    def __init__(self, comp: _Compiled, x: np.ndarray):
        self.comp = comp
        self.x = x
        s_mat = comp.const + (x @ comp.ds.reshape(x.size, -1)).reshape(comp.const.shape)
        l_inv = np.linalg.inv(np.linalg.cholesky(s_mat))
        self.white = l_inv @ comp.ds @ l_inv.conj().T

    def grad_hess(self):
        """Gradient and Hessian of the barrier: grad_k = -Tr M_k and
        hess_kl = Tr(M_k M_l), a Gram matrix since every M_k is Hermitian,
        taken over the entries of S's diagonal blocks, the only ones M_k has."""
        nv = self.x.size
        grad = -np.trace(self.white, axis1=1, axis2=2).real
        # the real view pairs (Re, Im), so its Gram matrix is Re(M_k^* . M_l)
        flat = self.white.reshape(nv, -1).take(self.comp.support, axis=1).view(float)
        return grad, flat @ flat.T


def _local_at(comp: _Compiled, x: np.ndarray) -> Optional[_Local]:
    """The :class:`_Local` at x, or None where S(x) has no Cholesky factor."""
    try:
        return _Local(comp, x)
    except np.linalg.LinAlgError:
        return None


class _Ray:
    """The merit change along x + alpha dx, exact in alpha.

    Every barrier term has one form, -log(1 + alpha c), one per eigenvalue c
    of L^-1 dS L^-H = sum_k dx_k M_k, computed once per search direction (a
    cut's c is a.dx / s).  The objective changes by alpha * slope.  No
    difference of two large merit values is formed, so the Armijo test stays
    exact at large barrier weights.  ``alpha_max``, the first alpha that
    leaves the domain, is the smallest -1/c over the negative coefficients.
    """

    def __init__(self, local: _Local, dx: np.ndarray):
        inner = (dx @ local.white.reshape(dx.size, -1)).reshape(local.white.shape[1:])
        self.coef = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
        self.slope = float(local.comp.cost @ dx)
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
    """hess^-1 rhs, with a ridge on the unit-diagonal scaling (a thin feasible
    set spreads the diagonal over decades) and a least-squares fallback."""
    d = 1.0 / np.sqrt(np.diag(hess))
    try:
        return d * np.linalg.solve(hess * np.outer(d, d) + 1e-12 * np.eye(d.size), d * rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hess, rhs, rcond=None)[0]


def _centred(decrement: float, previous: float, tol: float = CENTER_TOL) -> bool:
    """The centring test of both solvers: half the squared Newton decrement
    is at most tol, or at most LOOSE_CENTER_TOL and it fell by less than
    half in the last step (from previous), the roundoff floor."""
    return decrement / 2.0 <= tol or (decrement / 2.0 <= LOOSE_CENTER_TOL
                                      and decrement > 0.5 * previous)


def _newton_center(local: _Local, t_bar: float, budget: int, tol: float = CENTER_TOL):
    """Minimize t_bar * objective(x) + barrier(x) from local.x until it is
    :func:`_centred` to tol or the step budget is spent.

    Returns (local, steps, hess, decrement): the barrier at the returned
    point, the merit Hessian and the squared decrement of the last
    centring test, taken there.
    """
    comp = local.comp
    steps, previous = 0, np.inf
    while True:
        grad_b, hess = local.grad_hess()
        grad = t_bar * comp.cost + grad_b
        dx = _solve_newton(hess, -grad)
        decrement = float(-grad @ dx)
        if not np.isfinite(decrement) or _centred(decrement, previous, tol) or steps >= budget:
            break
        # fraction-to-boundary cap, then backtrack on the exact ray merit
        # until S also has a Cholesky factor at the trial point
        ray = _Ray(local, dx)
        alpha = min(1.0, 0.95 * ray.alpha_max)
        trial = None
        while trial is None and alpha > 1e-14:
            if ray.merit_change(alpha, t_bar) <= -0.25 * alpha * decrement:
                trial = _local_at(comp, local.x + alpha * dx)
            alpha *= 0.5
        if trial is None:
            break
        local, previous = trial, decrement
        steps += 1
    return local, steps, hess, decrement


def _predict(local: _Local, hess: np.ndarray, t_bar: float, t_next: float) -> _Local:
    """Step from the centre x(t_bar) towards x(t_next) along the tangent of
    the central path, taken linear in 1 / t.

    Differentiating the centrality condition t grad f + grad phi = 0 gives
    dx/dt = -H^-1 grad f with H the merit Hessian at x(t_bar); the step is
    (1/t_bar - 1/t_next) dx/d(1/t) = t_bar (1 - t_bar / t_next) dx/dt,
    capped at 0.95 of the way to the boundary, and not taken where S has
    no Cholesky factor.
    """
    dx = (t_bar * (1.0 - t_bar / t_next)) * _solve_newton(hess, -local.comp.cost)
    step = min(1.0, 0.95 * _Ray(local, dx).alpha_max)
    return _local_at(local.comp, local.x + step * dx) or local


def _barrier_solve(local: _Local, gap_tol: float):
    """Path-following loop over t_bar = 1, 5, 25, ... from local.x; returns
    (x, gap, newton_steps, hit_cap, trace, decrement).

    Each round centres at t_bar, records (primal, primal - nu / t_bar) and
    ends the solve once nu / t_bar <= gap_tol (1 + |primal|).  Centring is
    loose (half the squared Newton decrement <= LOOSE_CENTER_TOL, lambda <=
    0.1, inside the quadratic-convergence region of the barrier) until the
    gap rule fires; that last round is then centred strictly to CENTER_TOL,
    so the solve returns the strict central point at its final t_bar and
    only the last trace entry is a certified duality gap.  Between rounds a
    predictor step follows the tangent of the central path.
    """
    comp = local.comp
    t_bar = 1.0
    used = 0
    trace = []
    for _ in range(MAX_ROUNDS):
        local, steps, hess, decrement = _newton_center(
            local, t_bar, NEWTON_PER_ROUND, LOOSE_CENTER_TOL)
        used += steps
        gap = comp.nu / t_bar
        primal = comp.objective(local.x)
        if gap <= gap_tol * (1.0 + abs(primal)):
            local, steps, _, decrement = _newton_center(local, t_bar, NEWTON_PER_ROUND)
            primal = comp.objective(local.x)
            trace.append((primal, primal - gap))
            return local.x, gap, used + steps, False, trace, decrement
        trace.append((primal, primal - gap))
        local = _predict(local, hess, t_bar, t_bar / GAP_SHRINK)
        t_bar /= GAP_SHRINK
    return local.x, gap, used, True, trace, decrement


# ---------------------------------------------------------------------------
# SDP front end


def _compile_sdp(prob: SdpProblem) -> _Compiled:
    n = prob.dim
    basis = _herm_basis(n)
    n_w = n * n
    has_t = prob.has_t
    nv = n_w + (1 if has_t else 0)

    def in_x(ds_w, ds_t=0.0):
        """Block coefficients of x: ds_w for the entries of X, ds_t for t."""
        return np.concatenate([ds_w, np.broadcast_to(ds_t, (nv - n_w, *ds_w.shape[1:]))])

    # the blocks of S: the matrix variable X itself and each LMI block, whose
    # entry (p, q) Tr(coeff[p, q] @ X) has derivative Tr(coeff[p, q] @ E_k) in x_k
    blocks = [(np.zeros((n, n)), in_x(basis))]
    blocks += [(blk.const, in_x(np.einsum("pqij,kji->kpq", blk.coeff, basis), blk.t_coeff))
               for blk in prob.lmi_blocks]
    const, ds = _block_diag(blocks)

    cost = np.zeros(nv)
    cost[:n_w] = np.einsum("ij,kji->k", prob.obj_mat, basis).real
    if has_t:
        cost[n_w] = prob.obj_t
    return _Compiled(cost=cost, const=const, ds=ds,
                     sizes=tuple(const_b.shape[0] for const_b, _ in blocks))


def solve_sdp(prob: SdpProblem, tol: float = DEFAULT_GAP_TOL) -> ConicReport:
    """Solve an :class:`SdpProblem` from its start (ValueError unless S is
    positive definite there); gap tolerance is relative to 1 + |obj|.  The
    start is centred loosely at the weight min(1, nu / (1 + |obj|)), where
    the objective term weighs at most the barrier degree nu, then the path
    follower runs from t = 1.  The status is ``optimal`` only when the final
    centring test passes at LOOSE_CENTER_TOL; the strict CENTER_TOL is not
    required, because valid solves stop at roundoff slightly above it."""
    comp = _compile_sdp(prob)
    x0 = np.concatenate([_params_of_herm(prob.start[0]), [prob.start[1]] if prob.has_t else []])
    local = _local_at(comp, x0)
    if local is None:
        raise ValueError("SDP start is not strictly feasible")
    t_first = min(1.0, comp.nu / (1.0 + abs(comp.objective(x0))))
    local, steps0, _, _ = _newton_center(local, t_first, NEWTON_PER_ROUND, LOOSE_CENTER_TOL)
    x, gap, steps, hit_cap, trace, decrement = _barrier_solve(local, gap_tol=tol)
    # nu / t bounds the gap only at a central point: a final centring that
    # ran out of steps far from the centre certifies nothing
    centred = decrement / 2.0 <= LOOSE_CENTER_TOL
    n = prob.dim
    return ConicReport(solution=_herm_of_params(x[:n * n], n),
                       aux=float(x[n * n]) if prob.has_t else None,
                       objective=comp.objective(x), gap=gap, iterations=steps0 + steps,
                       status=OPTIMAL if centred and not hit_cap else MAXITER,
                       duality_trace=trace, decrement=decrement)


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
        self.mat = a0 + (lam @ a.reshape(lam.size, a0.size)).reshape(a0.shape)
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
    path follower's grid t = 1, 5, 25, ..., starting at the weight whose gap
    m / t meets tol (1 + |f_0|) for the objective at the starting
    multipliers' minimizer.  The answer is the first centred point that is
    certified: x feasible as evaluated and its gap -lam . f(x) within
    tol (1 + |f_0(x)|).  A centred point that is not certified moves t up
    the grid, at least to the weight whose gap meets that point's bound.

    Steps are scaled by lam, capped at 0.95 of the way to lam = 0 and
    backtracked on the exact dual merit change
    t (d(lam) - d(lam')) - sum log(lam'_i / lam_i) with
    d(lam') - d(lam) = (lam' - lam) . f(x) - (x - x')^H M' (x - x'),
    so no difference of two large merit values is formed.  The solve is
    centred when :func:`_centred` holds at CENTER_TOL, the SDP's test.
    The status is ``optimal`` or ``max_iter``, never ``infeasible``: the
    caller's problem is feasible, and an unbounded dual (an infeasible
    problem) ends when DUAL_NEWTON_STEPS run out or the Newton system
    overflows.  M(lam) must be positive definite for lam > 0 (a power ball
    gives this); otherwise the status is ``max_iter`` too.  A cold start
    (all-ones multipliers) that fails is retried once from t = 1: at a
    weight as high as 6e9 the first line search can fail to pass.
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
    start, steps = point, 0
    weights = [_final_weight(m, tol * (1.0 + abs(point.objective)))]
    if multipliers is None and weights[0] > 1.0:
        weights.append(1.0)
    for t_bar in weights:
        point, previous, decrement, budget = start, np.inf, np.nan, steps + DUAL_NEWTON_STEPS
        while True:
            lam, f = point.lam, point.f
            grad = -t_bar * lam * f - 1.0                   # scaled by lam
            hess = t_bar * (lam[:, None] * point.curv * lam[None, :]) + np.eye(m)
            try:
                step = -np.linalg.solve(hess, grad) if m else grad
            except np.linalg.LinAlgError:
                break                                       # overflow on an unbounded dual
            decrement = float(-grad @ step)
            if _centred(decrement, previous):
                primal = point.objective
                gap = -float(lam @ f)
                bound = tol * (1.0 + abs(primal))
                if np.max(f, initial=-np.inf) <= 0.0 and gap <= bound:
                    return ConicReport(solution=point.x, aux=None, objective=primal, gap=gap,
                                       iterations=steps, status=OPTIMAL,
                                       duality_trace=[(primal, primal - gap)],
                                       decrement=decrement, multipliers=lam)
                t_bar = max(t_bar / GAP_SHRINK, _final_weight(m, bound))
                previous = np.inf
                continue
            if steps >= budget or not np.isfinite(decrement):
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
    return ConicReport(solution=point.x, aux=None, objective=point.objective, gap=np.nan,
                       iterations=steps, status=MAXITER, decrement=decrement, multipliers=lam)
