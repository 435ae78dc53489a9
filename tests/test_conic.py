from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mibeam import conic, mm, model, sdr
from mibeam.config import parse_config
from test_reduction import sdr_point_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def herm(rng, n):
    a = random_complex(rng, n, n)
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# SDP


def trace_cut(mat, bound):
    """Tr(mat X) <= bound as the 1x1 LMI block bound - Tr(mat X); the cut
    Tr(mat X) >= bound is trace_cut(-mat, -bound)."""
    return conic.LmiBlock(coeff=-np.asarray(mat, dtype=complex)[None, None],
                          const=np.array([[bound]], dtype=complex),
                          t_coeff=np.zeros((1, 1), dtype=complex))


def lambda_max_problem(a):
    """minimize t s.t. t I - A >= 0, with a bounded dummy PSD variable;
    started at X = I / 2n, t = lambda_max + 1."""
    n = a.shape[0]
    coeff = np.zeros((n, n, n, n), dtype=complex)
    lmi = conic.LmiBlock(coeff=coeff, const=-a.astype(complex),
                         t_coeff=np.eye(n, dtype=complex))
    start = (np.eye(n, dtype=complex) / (2 * n), float(np.linalg.eigvalsh(a).max()) + 1.0)
    return conic.SdpProblem(dim=n, obj_mat=np.zeros((n, n), dtype=complex), obj_t=1.0,
                            start=start, lmi_blocks=(lmi, trace_cut(np.eye(n), 1.0)))


def test_sdp_lambda_max_matches_eigenvalue_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = herm(rng, 3)
        expected = float(np.max(np.linalg.eigvalsh(a)))
        report = conic.solve_sdp(lambda_max_problem(a), tol=1e-9)
        assert report.status == conic.OPTIMAL
        assert report.aux == pytest.approx(expected, abs=1e-6)


def hermitian_symmetric_by_loop(coeff):
    """The LMI coefficient check as a loop over (p, q): coeff[q, p] must be
    coeff[p, q]^H to 1e-10 relative to max(|coeff[p, q]|, 1)."""
    m = coeff.shape[0]
    for p in range(m):
        for q in range(m):
            diff = np.max(np.abs(coeff[p, q] - coeff[q, p].conj().T))
            if diff > 1e-10 * max(float(np.max(np.abs(coeff[p, q]))), 1.0):
                return False
    return True


def test_lmi_block_rejects_non_hermitian_coefficients():
    n = 2
    coeff = np.zeros((2, 2, n, n), dtype=complex)
    coeff[0, 1] = [[1.0, 2.0], [0.0, 1.0]]
    coeff[1, 0] = coeff[0, 1].conj().T
    eye = np.eye(2, dtype=complex)
    conic.LmiBlock(coeff=coeff, const=eye, t_coeff=eye)
    # entry (1, 0) off by more than 1e-10 of max(|coeff[1, 0]|, 1) = 2
    coeff[1, 0, 1, 0] += 3e-10
    with pytest.raises(ValueError, match="not Hermitian-symmetric"):
        conic.LmiBlock(coeff=coeff, const=eye, t_coeff=eye)
    # within it, though not within 1e-10 absolute: accepted
    coeff[1, 0, 1, 0] -= 1.5e-10
    conic.LmiBlock(coeff=coeff, const=eye, t_coeff=eye)


def test_lmi_block_check_matches_the_loop():
    # tensors of mixed scale with one entry moved by up to four times the
    # tolerance, so both verdicts occur
    rng = np.random.default_rng(11)
    eye = np.eye(3, dtype=complex)
    verdicts = []
    for _ in range(200):
        c = random_complex(rng, 3, 3, 2, 2) * 10.0 ** rng.uniform(-3, 3, (3, 3, 1, 1))
        coeff = 0.5 * (c + c.transpose(1, 0, 3, 2).conj())
        p, q, i, j = rng.integers(0, (3, 3, 2, 2))
        coeff[p, q, i, j] += rng.uniform(0.0, 4e-10) * max(np.abs(coeff[p, q]).max(), 1.0)
        verdicts.append(hermitian_symmetric_by_loop(coeff))
        try:
            conic.LmiBlock(coeff=coeff, const=eye, t_coeff=eye)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == verdicts[-1]
    assert 0 < sum(verdicts) < len(verdicts)


def test_sdp_trace_maximization():
    n, p0 = 4, 7.5
    prob = conic.SdpProblem(
        dim=n, obj_mat=-np.eye(n, dtype=complex), obj_t=0.0,
        start=(p0 / (2 * n) * np.eye(n, dtype=complex), None),
        lmi_blocks=(trace_cut(np.eye(n), p0),),
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


def test_sdp_solution_is_psd_and_feasible():
    rng = np.random.default_rng(2)
    n = 4
    h = random_complex(rng, n)
    prob = conic.SdpProblem(
        dim=n,
        obj_mat=-np.outer(h, h.conj()),  # maximize received power
        obj_t=0.0,
        start=(5.0 / (2 * n) * np.eye(n, dtype=complex), None),
        lmi_blocks=(trace_cut(np.eye(n), 5.0),),
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


def qcqp(objective, *constraints):
    """A QcqpProblem from its objective and its constraint triples (A, b, c),
    stacked."""
    n, m = objective[0].shape[0], len(constraints)
    return conic.QcqpProblem(objective=objective, constraints=(
        np.array([a for a, _, _ in constraints], dtype=complex).reshape(m, n, n),
        np.array([b for _, b, _ in constraints], dtype=complex).reshape(m, n),
        np.array([c for _, _, c in constraints], dtype=float)))


SKEW = np.triu(np.ones((3, 3))).astype(complex)   # not Hermitian


@pytest.mark.parametrize("term, bad, message", [
    ("objective", (np.eye(3, dtype=complex), np.zeros(2, dtype=complex), 0.0), "wrong shape"),
    ("constraints", (np.zeros((2, 3, 3), dtype=complex), np.zeros((2, 3), dtype=complex),
                     np.zeros(1)), "wrong shape"),
    ("objective", (SKEW, np.zeros(3, dtype=complex), 0.0), "Hermitian"),
    ("constraints", (np.stack([np.eye(3, dtype=complex), SKEW]), np.zeros((2, 3), dtype=complex),
                     np.zeros(2)), "Hermitian"),
], ids=["objective shape", "stack shape", "objective skew", "stack member skew"])
def test_qcqp_problem_rejects_bad_terms(term, bad, message):
    valid = {"objective": (np.eye(3, dtype=complex), np.zeros(3, dtype=complex), 0.0),
             "constraints": (np.eye(3, dtype=complex)[None], np.zeros((1, 3), dtype=complex),
                             np.array([-1.0]))}
    conic.QcqpProblem(**valid)
    with pytest.raises(ValueError, match=message):
        conic.QcqpProblem(**{**valid, term: bad})


def test_qcqp_projection_onto_ball():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = 4
        c = random_complex(rng, n)
        # min ||x - c||^2 s.t. ||x||^2 <= 1
        prob = qcqp((np.eye(n, dtype=complex), -c, float(np.linalg.norm(c) ** 2)),
                    (np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -1.0))
        report = conic.solve_qcqp(prob, tol=1e-9)
        assert report.status == conic.OPTIMAL
        expected = c / max(1.0, np.linalg.norm(c))
        assert np.linalg.norm(report.solution - expected) <= 1e-5


def test_qcqp_loose_ball_recovers_unconstrained_minimum():
    rng = np.random.default_rng(4)
    n = 3
    b = random_complex(rng, n)
    # min x^H x - 2 Re(b^H x) inside a ball that never binds
    prob = qcqp((np.eye(n, dtype=complex), -b, 0.0),
                (np.eye(n, dtype=complex), np.zeros(n, dtype=complex),
                 -100.0 * float(np.linalg.norm(b) ** 2 + 1.0)))
    report = conic.solve_qcqp(prob, tol=1e-10)
    assert report.status == conic.OPTIMAL
    assert np.linalg.norm(report.solution - b) <= 1e-5
    # and with no constraint at all, where the engine has no barrier term
    report = conic.solve_qcqp(qcqp(prob.objective), tol=1e-10)
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
    prob = qcqp((a0, -b0, 0.0), *constraints)
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
    # two disjoint balls: the dual is unbounded, and with no infeasibility
    # certificate the solve ends max_iter on its step cap or overflow
    n = 2
    constraints = (
        (np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -1.0),  # ||x||^2 <= 1
        (np.eye(n, dtype=complex), -3.0 * np.ones(n, dtype=complex),
         2.0 * n * 9.0 / 2.0 - 0.5),  # ||x - 3e||^2 <= 0.5
    )
    prob = qcqp((np.eye(n, dtype=complex), np.zeros(n, dtype=complex), 0.0), *constraints)
    report = conic.solve_qcqp(prob)
    assert report.status == conic.MAXITER
    assert report.iterations <= conic.DUAL_NEWTON_STEPS


def test_qcqp_without_a_definite_lagrangian_is_max_iter():
    # M(lam) = A0 + sum lam_i A_i singular for every lam: no Lagrangian minimizer
    n = 2
    linear = qcqp((np.zeros((n, n), dtype=complex), np.ones(n, dtype=complex), 0.0),
                  (np.zeros((n, n), dtype=complex), np.ones(n, dtype=complex), -1.0))
    assert conic.solve_qcqp(linear).status == conic.MAXITER
    # infeasible slabs, every combination of the cuts singular: the unbounded
    # dual runs out as the disjoint balls' does
    flat = np.diag([1.0, 0.0]).astype(complex)
    slabs = qcqp((np.eye(n, dtype=complex), np.zeros(n, dtype=complex), 0.0),
                 (flat, np.zeros(n, dtype=complex), -1.0),
                 (flat, np.array([-3.0, 0.0], dtype=complex), 8.5))
    assert conic.solve_qcqp(slabs).status == conic.MAXITER


def test_qcqp_constraints_hold_at_solution():
    rng = np.random.default_rng(6)
    n = 5
    b0 = random_complex(rng, n)
    prob = qcqp((np.eye(n, dtype=complex), -b0, 0.0),
                (np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -0.3))
    report = conic.solve_qcqp(prob, tol=1e-9)
    x = report.solution
    assert float(np.linalg.norm(x) ** 2) <= 0.3 + 1e-7
    for primal, dual in report.duality_trace:
        assert dual <= primal + 1e-12


# ---------------------------------------------------------------------------
# The barrier engine


def three_family_problem():
    """An SDP with all three kinds of diagonal block: the PSD block of a 2x2
    Hermitian X, an LMI block (1 + t) I + [Tr(C_pq X)] and the trace cut
    Tr X <= 1 on the parameter vector x = (X00, X11, Re X01, Im X01, t),
    started at X = I / 4, t = 0."""
    rng = np.random.default_rng(7)
    c = 0.1 * random_complex(rng, 2, 2, 2, 2)
    coeff = 0.5 * (c + c.transpose(1, 0, 3, 2).conj())
    lmi = conic.LmiBlock(coeff=coeff, const=np.eye(2, dtype=complex),
                         t_coeff=np.eye(2, dtype=complex))
    prob = conic.SdpProblem(
        dim=2, obj_mat=herm(rng, 2), obj_t=-1.0, start=(np.eye(2, dtype=complex) / 4, 0.0),
        lmi_blocks=(lmi, trace_cut(np.eye(2), 1.0)))
    return prob


def reduced_sdr_problem(channel_seed):
    """The SDR relaxation of a reduced sdr-point instance (3x3 X)."""
    reduced, _ = model.reduce_instance(model.build_instance(sdr_point_scenario(channel_seed)))
    return sdr.build_sdp(reduced)


def block_slices(prob):
    """The diagonal blocks of the compiled S(x): X, then each LMI block."""
    sizes = [prob.dim, *(blk.const.shape[0] for blk in prob.lmi_blocks)]
    ends = np.cumsum(sizes)
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


def s_matrix(comp, x):
    """S(x) = const + sum_k x_k ds_k, from scratch."""
    return comp.const + np.einsum("k,kij->ij", x, comp.ds)


def direct_terms(comp, blocks, x):
    """Each diagonal block's barrier term -log det of S(x), evaluated from
    scratch, or None for a block that has left the PSD cone."""
    s_mat = s_matrix(comp, x)
    terms = []
    for span in blocks:
        sub = s_mat[span, span]
        sign, logdet = np.linalg.slogdet(sub)
        pd = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T)).min() > 0.0
        terms.append(-logdet if pd and sign.real > 0.0 else None)
    return terms


@pytest.mark.parametrize("build", [three_family_problem, lambda: reduced_sdr_problem(1)],
                         ids=["three families", "reduced sdr-point"])
def test_compiled_blocks_are_the_constraint_values(build):
    prob = build()
    comp = conic._compile_sdp(prob)
    n = prob.dim
    x = np.random.default_rng(9).standard_normal(comp.cost.size)
    mat, t = conic._herm_of_params(x[:n * n], n), x[n * n]
    s_mat = s_matrix(comp, x)
    blocks = block_slices(prob)
    assert comp.sizes == tuple(span.stop - span.start for span in blocks)
    inside = np.zeros(s_mat.shape, dtype=bool)
    for span in blocks:
        inside[span, span] = True
    assert not np.any(s_mat[~inside])
    np.testing.assert_allclose(s_mat[blocks[0], blocks[0]], mat, rtol=0, atol=1e-14)
    for blk, span in zip(prob.lmi_blocks, blocks[1:]):
        value = blk.const + t * blk.t_coeff + np.einsum("pqij,ji->pq", blk.coeff, mat)
        np.testing.assert_allclose(s_mat[span, span], value, rtol=1e-12, atol=1e-12)
    # in both problems the second block is the power cut b - Tr X
    power = s_mat[blocks[2], blocks[2]]
    assert power.shape == (1, 1)
    assert power[0, 0] == pytest.approx(prob.lmi_blocks[1].const[0, 0] - np.trace(mat),
                                        rel=1e-12, abs=1e-12)


def test_params_of_herm_inverts_herm_of_params():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5):
        x = rng.standard_normal(n * n)
        mat = conic._herm_of_params(x, n)
        np.testing.assert_array_equal(conic._params_of_herm(mat), x)
        np.testing.assert_array_equal(conic._herm_of_params(conic._params_of_herm(mat), n), mat)


@pytest.mark.parametrize("build", [
    lambda: lambda_max_problem(herm(np.random.default_rng(0), 3)),
    lambda: reduced_sdr_problem(27)], ids=["lambda_max", "reduced sdr-point"])
def test_phase_one_point_is_strictly_feasible(build):
    # no feasibility phase searches for a start: the point the path follower
    # begins from is the problem's own start, strictly inside every block
    prob = build()
    comp = conic._compile_sdp(prob)
    x0 = np.concatenate([conic._params_of_herm(prob.start[0]),
                         [prob.start[1]] if prob.has_t else []])
    s_mat = s_matrix(comp, x0)
    for span in block_slices(prob):
        assert np.linalg.eigvalsh(s_mat[span, span]).min() > 0.0


def test_sdp_infeasible_detection():
    # the trace pair Tr X <= 1, Tr X >= 2 has no strictly feasible point, so
    # every start is rejected
    n = 2
    cuts = (trace_cut(np.eye(n), 1.0), trace_cut(-np.eye(n), -2.0))
    for scale in (0.25, 0.75, 1.5):
        prob = conic.SdpProblem(dim=n, obj_mat=np.eye(n, dtype=complex), obj_t=0.0,
                                start=(scale * np.eye(n, dtype=complex), None),
                                lmi_blocks=cuts)
        with pytest.raises(ValueError, match="not strictly feasible"):
            conic.solve_sdp(prob)


@pytest.mark.parametrize("size", [2, 4], ids=["smaller", "larger"])
def test_sdp_problem_rejects_blocks_of_another_size(size):
    # a block's coefficient matrices must match X: the mismatch is caught on
    # construction, not as an einsum error inside solve_sdp
    inside = lambda_max_problem(herm(np.random.default_rng(0), 3))
    with pytest.raises(ValueError, match="dim x dim"):
        replace(inside, lmi_blocks=(*inside.lmi_blocks, trace_cut(np.eye(size), 1.0)))


def test_start_outside_the_interior_raises():
    # a start outside a feasible set, or without its scalar, is rejected too
    a = herm(np.random.default_rng(0), 3)
    inside = lambda_max_problem(a)
    assert conic.solve_sdp(inside).status == conic.OPTIMAL
    with pytest.raises(ValueError, match="scalar"):
        replace(inside, start=(inside.start[0], None))
    below = replace(inside, start=(inside.start[0], float(np.linalg.eigvalsh(a).max()) - 1e-3))
    with pytest.raises(ValueError, match="not strictly feasible"):
        conic.solve_sdp(below)


def test_barrier_derivatives_match_the_dense_formula():
    # grad_k = -Tr(S^-1 ds_k), hess_kl = Tr(S^-1 ds_k S^-1 ds_l) at S(x)
    comp = conic._compile_sdp(three_family_problem())
    x = np.array([0.1, 0.1, 0.0, 0.0, 1.0])
    s_inv_ds = np.linalg.inv(s_matrix(comp, x)) @ comp.ds
    grad, hess = conic._Local(comp, x).grad_hess()
    np.testing.assert_allclose(grad, -np.einsum("kii->k", s_inv_ds).real, rtol=1e-12)
    np.testing.assert_allclose(hess, np.einsum("kij,lji->kl", s_inv_ds, s_inv_ds).real,
                               rtol=1e-12, atol=1e-14)


def test_ray_matches_direct_barrier_evaluation():
    prob = three_family_problem()
    comp = conic._compile_sdp(prob)
    blocks = block_slices(prob)
    x = np.array([0.1, 0.1, 0.0, 0.0, 1.0])
    # a family is named by the diagonal block of S(x) it owns
    families = ["block X", "block LMI", "trace cut"]
    base = direct_terms(comp, blocks, x)
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
            moved = direct_terms(comp, blocks, x + alpha * dx)
            direct = sum(moved) - sum(base)
            assert ray.barrier_change(alpha) == pytest.approx(direct, rel=1e-10, abs=1e-13)
            objective = comp.objective(x + alpha * dx) - comp.objective(x)
            assert ray.merit_change(alpha, t_bar) == pytest.approx(
                t_bar * objective + direct, rel=1e-10, abs=1e-13)
        # alpha_max is where the direct evaluation first leaves the domain
        inside = direct_terms(comp, blocks, x + ray.alpha_max * (1.0 - 1e-9) * dx)
        outside = direct_terms(comp, blocks, x + ray.alpha_max * (1.0 + 1e-9) * dx)
        assert all(v is not None for v in inside)
        left = [name for name, v in zip(families, outside) if v is None]
        assert left and (binding is None or left == [binding])
        assert ray.barrier_change(ray.alpha_max * (1.0 + 1e-9)) == np.inf


def first_multi_user_subproblem():
    """The first MM subproblem of the shipped 3-user config."""
    inst = model.build_instance(parse_config(CONFIGS / "multi_user.yaml").scenario)
    w0 = mm.zero_forcing_init(inst)
    return mm.multiuser_subproblem(inst, w0, mm.build_surrogate(inst, w0), mm.rate_cuts(inst))


def constraint_values(prob, x):
    return np.array([float(np.real(np.vdot(x, a @ x) + 2.0 * np.vdot(b, x))) + c
                     for a, b, c in zip(*prob.constraints)])


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
        problems.append(qcqp((np.eye(n, dtype=complex), -c, float(np.linalg.norm(c) ** 2)),
                             (np.eye(n, dtype=complex), np.zeros(n, dtype=complex), -1.0)))
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
    n = prob.objective[0].shape[0]
    # and a random instance with three ball constraints
    a0 = random_complex(rng, n, n)
    balls = qcqp((a0 @ a0.conj().T / n, random_complex(rng, n), 0.0),
                 *((np.eye(n, dtype=complex), 0.3 * random_complex(rng, n), -1.0 - r)
                   for r in rng.uniform(0.0, 1.0, 3)))
    for qp in (prob, balls):
        report = conic.solve_qcqp(qp, tol=1e-9)
        assert report.status == conic.OPTIMAL
        x, lam = report.solution, report.multipliers
        assert lam.shape == qp.constraints[2].shape and np.all(lam > 0.0)
        a0, b0, _ = qp.objective
        a, b, _ = qp.constraints
        residual = a0 @ x + b0 + lam @ (a @ x + b)
        scale = np.linalg.norm(a0 @ x) + np.linalg.norm(b0) + lam @ (
            np.linalg.norm(a @ x, axis=1) + np.linalg.norm(b, axis=1))
        assert np.linalg.norm(residual) <= 1e-8 * scale
        f = constraint_values(qp, x)
        assert np.all(f <= 0.0)
        assert np.all(lam * np.abs(f) <= report.gap)
        assert report.gap <= 1e-9 * (1.0 + abs(report.objective))
