from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mibeam import conic, mm, model
from mibeam.config import parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def herm(rng, n):
    a = random_complex(rng, n, n)
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# SDP


def lambda_max_problem(a):
    """minimize t s.t. t I - A >= 0, with a bounded dummy PSD variable."""
    n = a.shape[0]
    coeff = np.zeros((n, n, n, n), dtype=complex)
    lmi = conic.LmiBlock(coeff=coeff, const=-a.astype(complex),
                         t_coeff=np.eye(n, dtype=complex))
    bound = conic.TraceConstraint(mat=np.eye(n, dtype=complex), bound=1.0, sense="le")
    return conic.SdpProblem(dim=n, obj_mat=np.zeros((n, n), dtype=complex), obj_t=1.0,
                            lmi_blocks=(lmi,), trace_constraints=(bound,))


def test_sdp_lambda_max_matches_eigenvalue_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = herm(rng, 3)
        expected = float(np.max(np.linalg.eigvalsh(a)))
        report = conic.solve_sdp(lambda_max_problem(a), tol=1e-9)
        assert report.status == conic.OPTIMAL
        assert report.aux == pytest.approx(expected, abs=1e-6)


def test_sdp_trace_maximization():
    n, p0 = 4, 7.5
    prob = conic.SdpProblem(
        dim=n, obj_mat=-np.eye(n, dtype=complex), obj_t=0.0,
        trace_constraints=(conic.TraceConstraint(np.eye(n, dtype=complex), p0, "le"),),
    )
    report = conic.solve_sdp(prob, tol=1e-9)
    assert report.status == conic.OPTIMAL
    assert -report.objective == pytest.approx(p0, rel=1e-6)


def test_sdp_weak_duality_and_determinism():
    rng = np.random.default_rng(1)
    a = herm(rng, 3)
    prob = lambda_max_problem(a)
    r1 = conic.solve_sdp(prob)
    r2 = conic.solve_sdp(prob)
    for primal, dual in r1.duality_trace:
        assert dual <= primal + 1e-12
    assert np.array_equal(r1.solution, r2.solution)
    assert r1.aux == r2.aux
    assert r1.iterations == r2.iterations


def test_sdp_infeasible_detection():
    n = 2
    cons = (
        conic.TraceConstraint(np.eye(n, dtype=complex), 1.0, "le"),
        conic.TraceConstraint(np.eye(n, dtype=complex), 2.0, "ge"),
    )
    prob = conic.SdpProblem(dim=n, obj_mat=np.eye(n, dtype=complex), obj_t=0.0,
                            trace_constraints=cons)
    report = conic.solve_sdp(prob)
    assert report.status == conic.INFEASIBLE


def test_sdp_solution_is_psd_and_feasible():
    rng = np.random.default_rng(2)
    n = 4
    h = random_complex(rng, n)
    prob = conic.SdpProblem(
        dim=n,
        obj_mat=-np.outer(h, h.conj()),  # maximize received power
        obj_t=0.0,
        trace_constraints=(conic.TraceConstraint(np.eye(n, dtype=complex), 5.0, "le"),),
    )
    report = conic.solve_sdp(prob, tol=1e-9)
    assert report.status == conic.OPTIMAL
    vals = np.linalg.eigvalsh(report.solution)
    assert vals.min() >= -1e-9
    assert np.trace(report.solution).real <= 5.0 + 1e-7
    # optimum is P0 ||h||^2 at the rank-one maximizer
    assert -report.objective == pytest.approx(5.0 * np.linalg.norm(h) ** 2, rel=1e-6)


# ---------------------------------------------------------------------------
# QCQP


def test_qcqp_projection_onto_ball():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = 4
        c = random_complex(rng, n)
        # min ||x - c||^2 s.t. ||x||^2 <= 1
        prob = conic.QcqpProblem(
            dim=n,
            objective=(np.eye(n, dtype=complex), -c, float(np.linalg.norm(c) ** 2)),
            constraints=((np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -1.0),),
        )
        report = conic.solve_qcqp(prob, tol=1e-9)
        assert report.status == conic.OPTIMAL
        expected = c / max(1.0, np.linalg.norm(c))
        assert np.linalg.norm(report.solution - expected) <= 1e-5


def test_qcqp_loose_ball_recovers_unconstrained_minimum():
    rng = np.random.default_rng(4)
    n = 3
    b = random_complex(rng, n)
    # min x^H x - 2 Re(b^H x) inside a ball that never binds
    prob = conic.QcqpProblem(
        dim=n,
        objective=(np.eye(n, dtype=complex), -b, 0.0),
        constraints=((np.eye(n, dtype=complex), np.zeros(n, dtype=complex),
                      -100.0 * float(np.linalg.norm(b) ** 2 + 1.0)),),
    )
    report = conic.solve_qcqp(prob, tol=1e-10)
    assert report.status == conic.OPTIMAL
    assert np.linalg.norm(report.solution - b) <= 1e-5
    # and with no constraint at all, where the engine has no barrier term
    report = conic.solve_qcqp(replace(prob, constraints=()), tol=1e-10)
    assert report.status == conic.OPTIMAL
    assert np.linalg.norm(report.solution - b) <= 1e-5


def _dykstra_project(balls, z0, sweeps=60):
    """Projection onto an intersection of balls (centers, radii) by Dykstra."""
    z = z0.copy()
    corrections = [np.zeros_like(z0) for _ in balls]
    for _ in range(sweeps):
        for i, (center, radius) in enumerate(balls):
            y = z + corrections[i]
            d = y - center
            norm = np.linalg.norm(d)
            proj = center + d * (radius / norm) if norm > radius else y
            corrections[i] = y - proj
            z = proj
    return z


def test_qcqp_matches_projected_gradient_oracle():
    # random convex instance, constraints are balls so the oracle's
    # projection step is exact (Dykstra)
    rng = np.random.default_rng(5)
    n = 6
    b0 = random_complex(rng, n)
    q = random_complex(rng, n, n)
    a0 = q @ q.conj().T / n + np.eye(n)
    balls = []
    constraints = []
    for _ in range(3):
        center = 0.3 * random_complex(rng, n)
        radius = 1.0 + rng.uniform(0.0, 1.0)
        balls.append((center, radius))
        constraints.append((np.eye(n, dtype=complex), -center,
                            float(np.linalg.norm(center) ** 2 - radius ** 2)))
    prob = conic.QcqpProblem(dim=n, objective=(a0, -b0, 0.0),
                             constraints=tuple(constraints))
    report = conic.solve_qcqp(prob, tol=1e-10)
    assert report.status == conic.OPTIMAL

    # projected gradient on f(x) = x^H A0 x - 2 Re(b0^H x)
    lip = 2.0 * float(np.max(np.linalg.eigvalsh(a0)))
    z = np.zeros(n, dtype=complex)
    step = 1.0 / lip
    for _ in range(1_000_000):
        grad = 2.0 * (a0 @ z) - 2.0 * b0
        z_new = _dykstra_project(balls, z - step * grad)
        if np.linalg.norm(z_new - z) <= 1e-12:
            z = z_new
            break
        z = z_new

    def objective(x):
        return float(np.real(np.vdot(x, a0 @ x)) - 2.0 * np.real(np.vdot(b0, x)))

    assert objective(report.solution) <= objective(z) + 1e-5
    assert abs(objective(report.solution) - objective(z)) <= 1e-5


def test_qcqp_infeasible_detection():
    n = 2
    constraints = (
        (np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -1.0),  # ||x||^2 <= 1
        (np.eye(n, dtype=complex), -3.0 * np.ones(n, dtype=complex),
         2.0 * n * 9.0 / 2.0 - 0.5),  # ||x - 3e||^2 <= 0.5
    )
    prob = conic.QcqpProblem(dim=n, objective=(np.eye(n, dtype=complex),
                                               np.zeros(n, dtype=complex), 0.0),
                             constraints=constraints)
    report = conic.solve_qcqp(prob)
    assert report.status == conic.INFEASIBLE


def test_qcqp_without_a_definite_lagrangian_is_max_iter():
    # M(lam) = A0 + sum lam_i A_i singular for every lam: no Lagrangian minimizer
    n = 2
    linear = conic.QcqpProblem(
        dim=n, objective=(np.zeros((n, n), dtype=complex), np.ones(n, dtype=complex), 0.0),
        constraints=((np.zeros((n, n), dtype=complex), np.ones(n, dtype=complex), -1.0),))
    assert conic.solve_qcqp(linear).status == conic.MAXITER
    # infeasible, but every combination of the cuts is singular, so no Farkas
    # certificate of the Cholesky form exists: the unbounded dual runs out
    flat = np.diag([1.0, 0.0]).astype(complex)
    slabs = conic.QcqpProblem(
        dim=n, objective=(np.eye(n, dtype=complex), np.zeros(n, dtype=complex), 0.0),
        constraints=((flat, np.zeros(n, dtype=complex), -1.0),
                     (flat, np.array([-3.0, 0.0], dtype=complex), 8.5)))
    assert conic.solve_qcqp(slabs).status == conic.MAXITER


def test_qcqp_constraints_hold_at_solution():
    rng = np.random.default_rng(6)
    n = 5
    b0 = random_complex(rng, n)
    prob = conic.QcqpProblem(
        dim=n,
        objective=(np.eye(n, dtype=complex), -b0, 0.0),
        constraints=((np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -0.3),),
    )
    report = conic.solve_qcqp(prob, tol=1e-9)
    x = report.solution
    assert float(np.linalg.norm(x) ** 2) <= 0.3 + 1e-7
    for primal, dual in report.duality_trace:
        assert dual <= primal + 1e-12


# ---------------------------------------------------------------------------
# The barrier engine


def three_family_problem():
    """A compiled problem with both barrier families: the PSD block of a 2x2
    Hermitian X, an LMI block (1 + t) I + [Tr(C_pq X)] and the trace cut
    Tr X <= 1 on the parameter vector x = (X00, X11, Re X01, Im X01, t)."""
    rng = np.random.default_rng(7)
    c = 0.1 * random_complex(rng, 2, 2, 2, 2)
    coeff = 0.5 * (c + c.transpose(1, 0, 3, 2).conj())
    lmi = conic.LmiBlock(coeff=coeff, const=np.eye(2, dtype=complex),
                         t_coeff=np.eye(2, dtype=complex))
    prob = conic.SdpProblem(
        dim=2, obj_mat=herm(rng, 2), obj_t=-1.0, lmi_blocks=(lmi,),
        trace_constraints=(conic.TraceConstraint(np.eye(2, dtype=complex), 1.0, "le"),))
    return conic._compile_sdp(prob)


def direct_terms(comp, x):
    """Each barrier term -log det S, -log s evaluated from scratch, or None
    for a term whose argument has left the domain."""
    terms = []
    for const, ds in comp.blocks:
        s_mat = const + np.tensordot(x, ds, axes=(0, 0))
        sign, logdet = np.linalg.slogdet(s_mat)
        pd = np.linalg.eigvalsh(0.5 * (s_mat + s_mat.conj().T)).min() > 0.0
        terms.append(-logdet if pd and sign.real > 0.0 else None)
    for a, b in zip(comp.cut_a, comp.cut_b):
        s = a @ x + b
        terms.append(-np.log(s) if s > 0.0 else None)
    return terms


def test_ray_matches_direct_barrier_evaluation():
    comp = three_family_problem()
    x = np.array([0.1, 0.1, 0.0, 0.0, 1.0])
    families = ["block X", "block LMI", "trace cut"]
    base = direct_terms(comp, x)
    assert all(v is not None for v in base)
    e = np.eye(x.size)
    # each direction first leaves the domain through one known family
    cases = [(-e[0], "block X"), (e[0] + e[1], "trace cut"), (-e[4], "block LMI"),
             (np.random.default_rng(8).standard_normal(x.size), None)]
    t_bar = 3.0
    for dx, binding in cases:
        ray = conic._Ray(conic._Local(comp, x), dx)
        assert np.isfinite(ray.alpha_max)
        for frac in (1e-3, 0.1, 0.5, 0.9, 0.999):
            alpha = frac * ray.alpha_max
            moved = direct_terms(comp, x + alpha * dx)
            direct = sum(moved) - sum(base)
            assert ray.barrier_change(alpha) == pytest.approx(direct, rel=1e-10, abs=1e-13)
            objective = comp.objective(x + alpha * dx) - comp.objective(x)
            assert ray.merit_change(alpha, t_bar) == pytest.approx(
                t_bar * objective + direct, rel=1e-10, abs=1e-13)
        # alpha_max is where the direct evaluation first leaves the domain
        inside = direct_terms(comp, x + ray.alpha_max * (1.0 - 1e-9) * dx)
        outside = direct_terms(comp, x + ray.alpha_max * (1.0 + 1e-9) * dx)
        assert all(v is not None for v in inside)
        left = [name for name, v in zip(families, outside) if v is None]
        assert left and (binding is None or left == [binding])
        assert ray.barrier_change(ray.alpha_max * (1.0 + 1e-9)) == np.inf


def first_multi_user_subproblem():
    """The first MM subproblem of the shipped 3-user config."""
    inst = model.build_instance(parse_config(CONFIGS / "multi_user.yaml").scenario)
    w0 = mm.zero_forcing_init(inst)
    return mm.multiuser_subproblem(inst, w0, mm.build_surrogate(inst, w0))


def constraint_values(prob, x):
    return np.array([float(np.real(np.vdot(x, a @ x) + 2.0 * np.vdot(b, x))) + c
                     for a, b, c in prob.constraints])


def test_qcqp_multi_user_subproblem_regression():
    prob = first_multi_user_subproblem()
    r1 = conic.solve_qcqp(prob, tol=mm.SUBPROBLEM_GAP_TOL)
    r2 = conic.solve_qcqp(prob, tol=mm.SUBPROBLEM_GAP_TOL)
    assert r1.status == conic.OPTIMAL
    assert r1.objective == pytest.approx(-49.9231471853, rel=1e-9)
    # 16 dual Newton steps from all-ones multipliers
    assert r1.iterations <= 16
    assert np.array_equal(r1.solution, r2.solution)
    assert r1.iterations == r2.iterations
    for primal, dual in r1.duality_trace:
        assert dual <= primal
    # the answer is the central point at its barrier weight: a solve started
    # from its multipliers leaves it in place
    again = conic.solve_qcqp(prob, mm.SUBPROBLEM_GAP_TOL, r1.multipliers)
    assert np.linalg.norm(again.solution - r1.solution) <= 1e-9 * np.linalg.norm(r1.solution)


def test_qcqp_newton_steps_over_multi_user_solve(monkeypatch):
    # a deterministic work count in place of wall time: 20 MM iterations of
    # the shipped 3-user config take 97 dual Newton steps (16 in the first,
    # cold subproblem), each later solve warm-started from the multipliers of
    # the one before; restarting every solve from all-ones multipliers takes
    # 336
    calls = []
    solve = conic.solve_qcqp

    def recording(prob, tol=conic.DEFAULT_GAP_TOL, multipliers=None):
        calls.append((prob, tol, solve(prob, tol, multipliers)))
        return calls[-1][2]

    monkeypatch.setattr(conic, "solve_qcqp", recording)
    inst = model.build_instance(parse_config(CONFIGS / "multi_user.yaml").scenario)
    mm.solve_multi_user(inst, max_iters=20)
    assert len(calls) == 20
    assert sum(report.iterations for _, _, report in calls) <= 110
    # every answer is certified: feasible as evaluated, gap within tol
    for prob, tol, report in calls:
        assert report.status == conic.OPTIMAL
        assert constraint_values(prob, report.solution).max() <= 0.0
        assert report.gap <= tol * (1.0 + abs(report.objective))


def test_qcqp_warm_start_from_own_multipliers():
    # on the projection instances of test_qcqp_projection_onto_ball (inside
    # and outside the ball) and the first multi-user subproblem
    rng = np.random.default_rng(3)
    n = 4
    problems = [first_multi_user_subproblem()]
    for _ in range(3):
        c = random_complex(rng, n)
        problems.append(conic.QcqpProblem(
            dim=n, objective=(np.eye(n, dtype=complex), -c, float(np.linalg.norm(c) ** 2)),
            constraints=((np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -1.0),)))
    for prob in problems:
        report = conic.solve_qcqp(prob, tol=1e-9)
        again = conic.solve_qcqp(prob, 1e-9, report.multipliers)
        assert again.status == conic.OPTIMAL
        assert again.iterations <= 2
        assert np.linalg.norm(again.solution - report.solution) \
            <= 1e-9 * np.linalg.norm(report.solution)


def test_qcqp_kkt_at_the_answer():
    rng = np.random.default_rng(10)
    prob = first_multi_user_subproblem()
    n = prob.dim
    # and a random instance with three ball constraints
    a0 = random_complex(rng, n, n)
    balls = conic.QcqpProblem(
        dim=n, objective=(a0 @ a0.conj().T / n, random_complex(rng, n), 0.0),
        constraints=tuple((np.eye(n, dtype=complex), 0.3 * random_complex(rng, n), -1.0 - r)
                          for r in rng.uniform(0.0, 1.0, 3)))
    for qp in (prob, balls):
        report = conic.solve_qcqp(qp, tol=1e-9)
        assert report.status == conic.OPTIMAL
        x, lam = report.solution, report.multipliers
        assert lam.shape == (len(qp.constraints),) and np.all(lam > 0.0)
        a0, b0, _ = qp.objective
        residual = a0 @ x + b0 + sum(l * (a @ x + b) for l, (a, b, _) in zip(lam, qp.constraints))
        scale = np.linalg.norm(a0 @ x) + np.linalg.norm(b0) + sum(
            l * (np.linalg.norm(a @ x) + np.linalg.norm(b)) for l, (a, b, _) in zip(lam, qp.constraints))
        assert np.linalg.norm(residual) <= 1e-8 * scale
        f = constraint_values(qp, x)
        assert np.all(f <= 0.0)
        assert np.all(lam * np.abs(f) <= report.gap)
        assert report.gap <= 1e-9 * (1.0 + abs(report.objective))


def test_qcqp_infeasible_returns_farkas_certificate():
    # the instance of test_qcqp_infeasible_detection: two disjoint balls
    n = 2
    prob = conic.QcqpProblem(
        dim=n, objective=(np.eye(n, dtype=complex), np.zeros(n, dtype=complex), 0.0),
        constraints=((np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -1.0),
                     (np.eye(n, dtype=complex), -3.0 * np.ones(n, dtype=complex),
                      2.0 * n * 9.0 / 2.0 - 0.5)))
    report = conic.solve_qcqp(prob)
    assert report.status == conic.INFEASIBLE
    lam = report.multipliers
    assert np.all(lam >= 0.0) and lam.sum() == pytest.approx(1.0)
    # min_x sum lam_i f_i(x) > 0: no x meets every constraint
    a = sum(l * a for l, (a, _, _) in zip(lam, prob.constraints))
    b = sum(l * b for l, (_, b, _) in zip(lam, prob.constraints))
    c = sum(l * c for l, (_, _, c) in zip(lam, prob.constraints))
    x = -np.linalg.solve(a, b)
    assert float(np.real(np.vdot(x, a @ x) + 2.0 * np.vdot(b, x))) + c > 0.0
    assert np.all(np.linalg.eigvalsh(a) > 0.0)
