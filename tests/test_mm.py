import itertools
import tracemalloc

import numpy as np
import pytest

from mibeam import dispatch, linalg, mm, model
from mibeam.closed_form import ClosedFormInputs, solve_closed_form
from mibeam.errors import BracketFailure, DegenerateConstraint, Infeasible
from mibeam.model import ScattererModel, Scenario, SystemConfig


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def single_user_instance(n_tx=4, n_rx=3, seed=11, gamma2=50.0, m_interf=8,
                         rate=4.0, beta2=1.0):
    cfg = SystemConfig(n_tx=n_tx, n_rx=n_rx, n_users=1, n_slots=30,
                       power_budget=10.0, comm_noise=0.1, radar_noise=1.0,
                       rate_targets=(rate,), rng_seed=0)
    target = ScattererModel.point(0.0, beta2)
    interf = None
    if gamma2 > 0.0:
        interf = ScattererModel.extended(-30.0, -25.0, m_interf, gamma2)
    channel = model.rayleigh_channel(1, n_tx, seed)
    return model.build_instance(Scenario(cfg, target, interf, channel))


def multi_user_instance(n_tx=4, n_rx=3, n_users=2, seed=21, gamma2=10.0,
                        m_interf=6, rate=2.0, target=None):
    cfg = SystemConfig(n_tx=n_tx, n_rx=n_rx, n_users=n_users, n_slots=30,
                       power_budget=10.0, comm_noise=0.1, radar_noise=1.0,
                       rate_targets=(rate,) * n_users, rng_seed=0)
    if target is None:
        target = ScattererModel.point(0.0, 1.0)
    interf = None
    if gamma2 > 0.0:
        interf = ScattererModel.extended(-30.0, -25.0, m_interf, gamma2)
    channel = model.rayleigh_channel(n_users, n_tx, seed)
    return model.build_instance(Scenario(cfg, target, interf, channel))


def feasible_beam(inst, rng):
    """Random full-power single-user beam meeting the rate constraint."""
    cfg = inst.config
    h = inst.channel[0].conj()
    omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
    while True:
        w = random_complex(rng, cfg.n_tx)
        w *= np.sqrt(cfg.power_budget) / np.linalg.norm(w)
        if abs(np.vdot(h, w)) ** 2 >= omega:
            return w


# ---------------------------------------------------------------------------
# Surrogate conditions


def test_surrogate_touches_objective():
    rng = np.random.default_rng(0)
    for seed in range(5):
        inst = single_user_instance(seed=30 + seed)
        w = feasible_beam(inst, rng)
        sur = mm.build_surrogate(inst, w)
        h_val = sur.value(w)
        g_val = model.mutual_information(inst, w)
        assert abs(h_val - g_val) <= 1e-8 * max(1.0, abs(g_val))


def test_surrogate_minorizes_objective():
    rng = np.random.default_rng(1)
    inst = single_user_instance(seed=41)
    cfg = inst.config
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    for _ in range(100):
        w = random_complex(rng, cfg.n_tx)
        w *= np.sqrt(cfg.power_budget) / np.linalg.norm(w)
        assert sur.value(w) <= model.mutual_information(inst, w) + 1e-8


def test_surrogate_gradient_matches_finite_differences():
    # no interference, rank-one target: directional derivatives of the true
    # objective at the expansion point against the surrogate gradient
    rng = np.random.default_rng(2)
    inst = single_user_instance(seed=55, gamma2=0.0)
    cfg = inst.config
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    grad = sur.gradient(w0)
    step = 1e-6
    for _ in range(6):
        d = random_complex(rng, cfg.n_tx)
        d /= np.linalg.norm(d)
        plus = model.mutual_information(inst, w0 + step * d)
        minus = model.mutual_information(inst, w0 - step * d)
        numeric = (plus - minus) / (2.0 * step)
        analytic = 2.0 * float(np.real(np.vdot(grad, d)))
        assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(numeric))


def test_surrogate_gradient_matches_finite_differences_under_interference():
    # the KKT certificate of criterion 6 is built on this gradient, so it is
    # checked where the certificate is used: extended interference, at a
    # random feasible beam and at the solver's deep-null answer.  The bound
    # is the central-difference error budget at step h: roundoff noise / h,
    # with the MI noise measured over phase rotations (which leave the MI
    # unchanged), plus truncation, estimated from step doubling as
    # |D(2h) - D(h)| / 3, with a safety factor of 4.
    rng = np.random.default_rng(3)
    inst = single_user_instance(seed=56)
    cfg = inst.config
    step = 1e-5
    solved = mm.solve_single_user(inst).w[:, 0]
    for w0 in (feasible_beam(inst, rng), solved):
        grad = mm.build_surrogate(inst, w0).gradient(w0)
        rotated = [model.mutual_information(inst, np.exp(1j * phi) * w0)
                   for phi in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)]
        noise = float(np.ptp(rotated))

        def central(d, h):
            plus = model.mutual_information(inst, w0 + h * d)
            minus = model.mutual_information(inst, w0 - h * d)
            return (plus - minus) / (2.0 * h)

        for _ in range(6):
            d = random_complex(rng, cfg.n_tx)
            d /= np.linalg.norm(d)
            numeric = central(d, step)
            truncation = abs(central(d, 2.0 * step) - numeric) / 3.0
            tol = 4.0 * (noise / step + truncation)
            # the budget must sit well inside the certificate's 1e-4
            assert tol <= 1e-5 * (1.0 + np.linalg.norm(grad))
            analytic = 2.0 * float(np.real(np.vdot(grad, d)))
            assert abs(numeric - analytic) <= tol


def _surrogate_by_expansion(inst, w):
    """lin, quad and offset of the surrogate through the explicit
    Kronecker/stacking-map congruence and the covariance square root."""
    cfg = inst.config
    delta = cfg.n_slots / cfg.radar_noise
    expansion = model.vec_expansion_matrix(cfg.n_tx, cfg.n_rx, cfg.n_users)
    wt = model.expand_beamformer(w, cfg.n_rx)
    cov_both = inst.target_cov + inst.interf_cov
    cov_root = linalg.hermitian_sqrt(inst.target_cov)
    projected = linalg.hermitianize(wt @ cov_both @ wt.conj().T)
    gram = np.eye(cfg.n_users * cfg.n_rx) + delta * projected
    whitened = np.linalg.solve(gram, wt @ cov_root)
    residual = linalg.hermitianize(
        np.eye(cfg.n_tx * cfg.n_rx) - delta * (cov_root @ wt.conj().T @ whitened))
    lin_full = whitened @ np.linalg.solve(residual, cov_root)
    gain = linalg.hermitianize(whitened @ np.linalg.solve(residual, whitened.conj().T))
    quad_full = np.kron(cov_both.conj(), gain)

    lin = expansion.T @ linalg.vec(lin_full).conj()
    quad = expansion.T @ quad_full.conj() @ expansion
    touch = 2.0 * delta * np.real(np.trace(
        np.linalg.solve(residual, cov_root @ wt.conj().T @ whitened)))
    curvature = delta ** 2 * np.real(np.trace(gain @ projected))
    return lin, quad, model.mutual_information(inst, w) - touch + curvature, touch + curvature


def test_surrogate_matches_direct_expansion_construction():
    # the factored construction must equal the explicit Kronecker/expansion
    # congruence built from the dense covariances and their square root
    inst = multi_user_instance(seed=61, n_users=2)
    w = mm.zero_forcing_init(inst)
    sur = mm.build_surrogate(inst, w)
    lin, quad, offset, _ = _surrogate_by_expansion(inst, w)
    assert np.allclose(sur.lin, lin, atol=1e-12)
    assert np.allclose(sur.quad, quad, atol=1e-10)
    assert sur.offset == pytest.approx(offset, rel=1e-11)

    # 6x6 arrays under the 50-component strength-100 interferer, and a
    # 3-component extended target with and without interference
    rng = np.random.default_rng(12)
    extended_target = ScattererModel.extended(-5.0, 5.0, 3, 1.0)
    cases = [(multi_user_instance(n_tx=6, n_rx=6, n_users=1, seed=62, gamma2=100.0,
                                  m_interf=50), 1e-7),
             (multi_user_instance(n_tx=6, n_rx=6, n_users=3, seed=63, gamma2=100.0,
                                  m_interf=50), 1e-7),
             (multi_user_instance(seed=64, target=extended_target), 1e-9),
             (multi_user_instance(seed=65, target=extended_target, gamma2=0.0), 1e-9)]
    for inst, rtol in cases:
        cfg = inst.config
        for _ in range(4):
            w = random_complex(rng, cfg.n_tx, cfg.n_users)
            w *= np.sqrt(cfg.power_budget) / np.linalg.norm(w)
            sur = mm.build_surrogate(inst, w)
            lin, quad, offset, offset_scale = _surrogate_by_expansion(inst, w)
            assert np.linalg.norm(sur.lin - lin) <= rtol * np.linalg.norm(lin)
            assert np.linalg.norm(sur.quad - quad) <= rtol * np.linalg.norm(quad)
            assert abs(sur.offset - offset) <= rtol * (abs(offset) + offset_scale)


def test_surrogate_quadratic_is_psd():
    rng = np.random.default_rng(3)
    inst = multi_user_instance(seed=60)
    w = mm.zero_forcing_init(inst)
    sur = mm.build_surrogate(inst, w)
    vals = np.linalg.eigvalsh(sur.quad)
    assert vals.min() >= -1e-12 * max(1.0, vals.max())


# ---------------------------------------------------------------------------
# Inner dual step and power multiplier


def test_rate_constrained_step_unconstrained_case():
    rng = np.random.default_rng(4)
    inst = single_user_instance(seed=70)
    h = inst.channel[0].conj()
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    free = linalg.pinv(sur.delta * sur.quad) @ sur.lin
    attained = 2.0 * float(np.real(np.vdot(h * np.vdot(h, w0), free)))
    # a requirement strictly below the attained value keeps the multiplier zero
    w, mu = mm.rate_constrained_step(mm.ShiftedCurvature(sur, h, w0),
                                     omega_shift=attained - 1.0, tau=0.0)
    assert mu == 0.0
    assert np.allclose(w, free, atol=1e-10)


def test_rate_constrained_step_equality_case():
    rng = np.random.default_rng(5)
    inst = single_user_instance(seed=71)
    h = inst.channel[0].conj()
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    tau = 0.5
    # a requirement above what the cut-free step attains, so the cut binds;
    # the reference is a dense solve, without the eigendecomposition
    shifted = sur.delta * sur.quad + tau * np.eye(inst.config.n_tx)
    received = h * np.vdot(h, w0)
    free = np.linalg.solve(shifted, sur.lin)
    omega_shift = 2.0 * float(np.real(np.vdot(received, free))) + 1.0
    w, mu = mm.rate_constrained_step(mm.ShiftedCurvature(sur, h, w0), omega_shift, tau)
    assert mu > 0.0
    attained = 2.0 * float(np.real(np.vdot(received, w)))
    assert attained == pytest.approx(omega_shift, rel=1e-9)
    dense = np.linalg.solve(shifted, sur.lin + mu * received)
    assert np.linalg.norm(w - dense) <= 1e-10 * np.linalg.norm(dense)


def test_rate_constrained_step_large_tau_shrinks():
    rng = np.random.default_rng(6)
    inst = single_user_instance(seed=72)
    h = inst.channel[0].conj()
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    w, _ = mm.rate_constrained_step(mm.ShiftedCurvature(sur, h, w0), omega_shift=-1.0,
                                    tau=1e12)
    assert np.linalg.norm(w) <= 1e-6


def test_rate_constrained_step_vanishing_curvature_raises():
    rng = np.random.default_rng(8)
    inst = single_user_instance(seed=73)
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    # a zero channel leaves the linearized rate cut no direction to move along
    with pytest.raises(DegenerateConstraint):
        mm.rate_constrained_step(mm.ShiftedCurvature(sur, np.zeros(inst.config.n_tx), w0),
                                 omega_shift=1.0, tau=0.5)


def test_transmit_power_monotone_in_multiplier():
    rng = np.random.default_rng(7)
    for seed in range(10):
        inst = single_user_instance(seed=80 + seed)
        cfg = inst.config
        h = inst.channel[0].conj()
        omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
        w0 = feasible_beam(inst, rng)
        sur = mm.build_surrogate(inst, w0)
        curv = mm.ShiftedCurvature(sur, h, w0)
        omega_shift = float(np.abs(np.vdot(h, w0)) ** 2) + omega
        taus = np.linspace(0.0, 5.0, 20)
        powers = []
        for tau in taus:
            w, _ = mm.rate_constrained_step(curv, omega_shift, tau)
            powers.append(float(np.linalg.norm(w) ** 2))
        diffs = np.diff(powers)
        assert np.all(diffs <= 1e-9 * max(1.0, max(powers)))


def test_bisection_meets_power_budget():
    rng = np.random.default_rng(8)
    inst = single_user_instance(seed=90)
    cfg = inst.config
    h = inst.channel[0].conj()
    omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    curv = mm.ShiftedCurvature(sur, h, w0)
    omega_shift = float(np.abs(np.vdot(h, w0)) ** 2) + omega
    w_free, _ = mm.rate_constrained_step(curv, omega_shift, 0.0)
    if np.linalg.norm(w_free) ** 2 <= cfg.power_budget:
        pytest.skip("unpenalized step already inside the budget for this seed")
    tau, w, _ = mm.bisect_power_multiplier(curv, omega_shift, cfg.power_budget)
    assert tau > 0.0
    power = float(np.linalg.norm(w) ** 2)
    assert power <= cfg.power_budget * (1.0 + 1e-12)
    assert abs(power - cfg.power_budget) <= 1e-7 * cfg.power_budget


def count_calls(monkeypatch, name, owner=mm):
    """Wrap owner.<name> (a function of mm, or a method of one of its
    classes) so that every call through it is counted."""
    calls = []
    orig = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_bisection_bracket_iteration_bound(monkeypatch):
    # with the budget met at tau = 1 the bracket starts as [0, 1]; the
    # safeguarded Newton solve then needs a handful of O(N_T) power
    # evaluations (8 here; halving the bracket to 1e-8 took 28 steps) and
    # forms the step once
    rng = np.random.default_rng(18)
    inst = single_user_instance(seed=91)
    cfg = inst.config
    h = inst.channel[0].conj()
    omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    curv = mm.ShiftedCurvature(sur, h, w0)
    omega_shift = float(np.abs(np.vdot(h, w0)) ** 2) + omega
    w_free, _ = mm.rate_constrained_step(curv, omega_shift, 0.0)
    if np.linalg.norm(w_free) ** 2 <= cfg.power_budget:
        pytest.skip("unpenalized step already inside the budget for this seed")

    w_one, _ = mm.rate_constrained_step(curv, omega_shift, 1.0)
    if np.linalg.norm(w_one) ** 2 > cfg.power_budget:
        pytest.skip("initial bracket needs expansion for this seed")

    evals = count_calls(monkeypatch, "step", mm.ShiftedCurvature)
    steps = count_calls(monkeypatch, "rate_constrained_step")
    mm.bisect_power_multiplier(curv, omega_shift, cfg.power_budget)
    # the Newton evaluations, plus the one that forms w
    assert len(evals) <= 11
    assert len(steps) == 1


def reference_multiplier(curv, omega_shift, p0):
    """(tau, mu) at power P0 (1 - POWER_RTOL/2) by 200 bisection steps over
    rate_constrained_step, the bracket grown by doubling from tau = 1."""
    target = p0 * (1.0 - 0.5 * mm.POWER_RTOL)

    def power(tau):
        w, _ = mm.rate_constrained_step(curv, omega_shift, tau)
        return float(np.linalg.norm(w) ** 2)

    lo, hi = 0.0, 1.0
    while power(hi) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if power(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi, mm.rate_constrained_step(curv, omega_shift, hi)[1]


def extended_family(channel_seed):
    """A criterion-5 instance: 6 x 6, point target at 0 deg, 50-component
    strength-100 interferer over -30..-25 deg, rate 6."""
    cfg = SystemConfig(n_tx=6, n_rx=6, n_users=1, n_slots=30, power_budget=10.0,
                       comm_noise=0.1, radar_noise=1.0, rate_targets=(6.0,), rng_seed=0)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0),
                        ScattererModel.extended(-30.0, -25.0, 50, 100.0),
                        model.rayleigh_channel(1, 6, channel_seed))
    return model.build_instance(scenario)


def multiplier_case(case):
    """(curvature, h, w_ref, omega_shift, p0) of one inner solve."""
    if case in ("inactive", "active"):
        inst = single_user_instance(seed=90 if case == "inactive" else 94)
        w_ref = feasible_beam(inst, np.random.default_rng(8))
    else:  # first map of criterion-5 channel 1, from the MRT start
        inst = extended_family(1)
        h = inst.channel[0].conj()
        w_ref = np.sqrt(inst.config.power_budget) * h / np.linalg.norm(h)
    cfg = inst.config
    h = inst.channel[0].conj()
    sur = mm.build_surrogate(inst, w_ref)
    omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
    omega_shift = float(np.abs(np.vdot(h, w_ref)) ** 2) + omega
    p0 = cfg.power_budget
    if case == "large":  # a budget far below the step at tau = 1, cut slack
        omega_shift, p0 = -1.0, 1e-4
    return mm.ShiftedCurvature(sur, h, w_ref), h, w_ref, omega_shift, p0


@pytest.mark.parametrize("case", ["inactive", "active", "null", "large"])
def test_power_multiplier_matches_reference_bisection(case):
    curv, _, _, omega_shift, p0 = multiplier_case(case)
    tau, w, mu = mm.bisect_power_multiplier(curv, omega_shift, p0)
    tau_ref, mu_ref = reference_multiplier(curv, omega_shift, p0)
    power = float(np.linalg.norm(w) ** 2)
    assert p0 * (1.0 - 1e-12) <= power <= p0
    assert tau == pytest.approx(tau_ref, rel=1e-8)
    assert mu == pytest.approx(mu_ref, rel=1e-8, abs=0.0)
    assert (mu == 0.0) == (case in ("inactive", "large"))
    if case == "null":  # rank-deficient curvature, power diverging as tau -> 0
        assert curv.vals[0] == 0.0 and np.linalg.norm(curv.c[curv.vals == 0.0]) > 0.0
        assert tau < 1e-9
    if case == "large":
        assert tau > 1e3


@pytest.mark.parametrize("case", ["inactive", "active", "null"])
def test_power_slope_matches_central_differences(case):
    curv, _, _, omega_shift, p0 = multiplier_case(case)
    tau, w, mu = mm.bisect_power_multiplier(curv, omega_shift, p0)
    _, _, power, slope = curv.step(omega_shift, tau)
    assert power == pytest.approx(float(np.linalg.norm(w) ** 2), rel=1e-13)
    step = 1e-4 * tau
    plus = curv.step(omega_shift, tau + step)[2]
    minus = curv.step(omega_shift, tau - step)[2]
    for probe in (tau - step, tau + step):  # both sides on the branch of tau
        assert (curv.step(omega_shift, probe)[1] == 0.0) == (mu == 0.0)
    assert slope < 0.0
    assert slope == pytest.approx((plus - minus) / (2.0 * step), rel=1e-6)


def test_inner_step_solves_for_the_multiplier_along_a_flat_direction():
    # lin has a component along the null space of the curvature, so the
    # power diverges as tau -> 0: the budget binds even when it is above the
    # power of the tau = 0 step, which drops that component
    sur = mm.Surrogate(lin=np.ones(4, dtype=complex), quad=np.diag([0.0, 1.0, 2.0, 3.0]),
                       offset=0.0, delta=1.0)
    h = np.array([1.0, 0.5, 0.0, 0.0], dtype=complex)
    p0 = 2.0 * (1.0 + 1.0 / 4.0 + 1.0 / 9.0)  # twice the power at tau = 0
    # a rate requirement far below anything attainable leaves the cut slack
    power = float(np.linalg.norm(mm._inner_step(sur, h, h, -1e6, p0)[0]) ** 2)
    assert p0 * (1.0 - 1e-12) <= power <= p0


def test_power_multiplier_unreachable_rate_cut_is_bracket_failure():
    # the rate cut of criterion-5 channel 1's first map needs about 4 W, far
    # above a 0.01 W budget.  Its curvature b = 2 sum s |r|^2 falls like
    # 1/tau as the search raises the multiplier, which is weakening, not
    # degeneracy
    curv, h, w_ref, omega_shift, _ = multiplier_case("null")
    with pytest.raises((BracketFailure, Infeasible)):
        mm.bisect_power_multiplier(curv, omega_shift, 0.01)
    w, mu = mm.rate_constrained_step(curv, omega_shift, 1e18)
    attained = 2.0 * float(np.real(np.vdot(h * np.vdot(h, w_ref), w)))
    assert mu > 0.0
    assert attained == pytest.approx(omega_shift, rel=1e-9)


def test_power_multiplier_work_per_inner_solve(monkeypatch):
    # a deterministic work count in place of wall time: a full criterion-5
    # solve needs about 8 O(N_T) power evaluations per multiplier solve and
    # forms the step once, where bisection took about 48
    # rate_constrained_step calls
    inst = extended_family(1)
    evals = count_calls(monkeypatch, "step", mm.ShiftedCurvature)
    steps = count_calls(monkeypatch, "rate_constrained_step")
    inner = count_calls(monkeypatch, "_inner_step")
    solves = count_calls(monkeypatch, "bisect_power_multiplier")
    report = mm.solve_single_user(inst)
    assert report.status == "converged"
    assert len(solves) > 100
    # beyond the tau = 0 evaluation of every inner step
    assert 1.0 <= (len(evals) - len(inner)) / len(solves) <= 12.0
    # w is formed in the antenna basis once per multiplier solve
    assert len(steps) == len(solves)
    # the report counts every evaluation
    assert report.inner_steps == len(evals)


# ---------------------------------------------------------------------------
# Single-user solver


def test_single_user_matches_closed_form_without_interference():
    for seed in (101, 102, 103):
        inst = single_user_instance(seed=seed, gamma2=0.0)
        cfg = inst.config
        report = mm.solve_single_user(inst)
        assert report.status == "converged"
        a = model.steering_vector(0.0, cfg.n_tx)
        h = inst.channel[0].conj()
        omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
        w_cf = solve_closed_form(ClosedFormInputs(a=a, h=h, p0=cfg.power_budget,
                                                  omega=omega))
        mi_mm = report.mi_trace[-1]
        mi_cf = model.mutual_information(inst, w_cf)
        assert mi_mm >= mi_cf * (1.0 - 5e-3)


def test_single_user_monotone_and_feasible():
    inst = single_user_instance(seed=111)
    cfg = inst.config
    report = mm.solve_single_user(inst)
    trace = np.asarray(report.mi_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    w = report.w[:, 0]
    assert np.linalg.norm(w) ** 2 <= cfg.power_budget + 1e-9
    assert model.achievable_rate(inst, report.w, 0) >= cfg.rate_targets[0] - 1e-6
    # the initial point is the full-power matched filter
    h = inst.channel[0].conj()
    w_init = np.sqrt(cfg.power_budget) * h / np.linalg.norm(h)
    assert trace[0] == pytest.approx(model.mutual_information(inst, w_init), rel=1e-12)


def test_single_user_kkt_certificate():
    # the certificate at a fixed point without interference; the
    # strong-interference case is covered below and by criterion 6
    inst = single_user_instance(seed=112, gamma2=0.0)
    report = mm.solve_single_user(inst)
    assert report.status == "converged"
    assert report.kkt_residual <= 1e-4
    assert report.comp_power <= 1e-6
    assert report.comp_rate <= 1e-6


def test_single_user_certified_under_interference():
    for seed in (111, 113):
        inst = single_user_instance(seed=seed, gamma2=100.0, m_interf=12)
        report = mm.solve_single_user(inst)
        assert report.status == "converged"
        assert np.all(np.diff(report.mi_trace) >= -1e-9)
        assert report.kkt_residual <= 1e-4
        assert report.comp_power <= 1e-6
        assert report.comp_rate <= 1e-6


def target_inside_interferer(strength, channel_seed):
    """6 x 6 point target at 0 deg inside a 50-component interferer over
    -2..2 deg: the MI is tiny, so the inner solve's error can exceed the
    MI change near the optimum."""
    cfg = SystemConfig(n_tx=6, n_rx=6, n_users=1, n_slots=30, power_budget=10.0,
                       comm_noise=0.1, radar_noise=1.0, rate_targets=(6.0,), rng_seed=0)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0),
                        ScattererModel.extended(-2.0, 2.0, 50, strength),
                        model.rayleigh_channel(1, 6, channel_seed))
    return model.build_instance(scenario)


@pytest.mark.parametrize("strength", [100.0, 1.0])
@pytest.mark.parametrize("channel_seed", [1, 2, 3])
def test_single_user_target_inside_strong_interferer_converges_certified(strength, channel_seed):
    report = mm.solve_single_user(target_inside_interferer(strength, channel_seed))
    assert report.status == "converged"
    assert np.all(np.diff(report.mi_trace) >= -1e-9)
    assert max(report.kkt_residual, report.comp_power, report.comp_rate) <= 1e-6


def mi_50_digits(inst, w):
    """The MI as the difference of two log-dets, each evaluated in 50-digit
    arithmetic from the double-precision projections Y = Wt F."""
    mpmath = pytest.importorskip("mpmath")
    cfg = inst.config
    w_mat = model.as_beam_matrix(w, cfg)
    with mpmath.workdps(50):
        delta = mpmath.mpf(cfg.n_slots) / cfg.radar_noise
        y_t, y_i = (mpmath.matrix(model.expanded_times(w_mat, f, cfg.n_rx).tolist())
                    for f in (inst.target_factor, inst.interf_factor))
        t_i = mpmath.eye(y_t.rows) + delta * y_i * y_i.H
        both = t_i + delta * y_t * y_t.H
        return float(mpmath.re(mpmath.log(mpmath.det(both)) - mpmath.log(mpmath.det(t_i))))


@pytest.mark.parametrize("channel_seed", [1, 2, 3])
def test_mutual_information_exact_inside_strong_interferer(channel_seed):
    # the MI here is 4.6e-4 nats; the difference of two log-dets of size 6
    # missed it by 1.4-2.4e-10, which made the single-user map look like it
    # dipped at stationary points
    inst = target_inside_interferer(100.0, channel_seed)
    w = mm.solve_single_user(inst).w
    assert abs(model.mutual_information(inst, w) - mi_50_digits(inst, w)) <= 1e-15


def test_single_user_dip_away_from_stationarity_is_stalled(monkeypatch):
    # a step that lowers the MI ends the solve as stalled, unpolished, with
    # the certificate of the last accepted iterate.  With the MI evaluated
    # by the determinant lemma this family no longer dips by itself, so
    # every MI evaluation after the start is lowered by 1e-6 more than the
    # one before, which makes the first step that gains less than that read
    # as a dip
    true_mi = mm._SingleUserMap.mi
    calls = itertools.count()
    monkeypatch.setattr(mm._SingleUserMap, "mi",
                        lambda self, w: true_mi(self, w) - 1e-6 * next(calls))
    monkeypatch.setattr(mm._SingleUserMap, "certificate", lambda self, w: (1.0, 0.0, 0.0))
    report = mm.solve_single_user(target_inside_interferer(100.0, 1))
    assert report.status == "stalled"
    assert report.kkt_residual == 1.0


def test_single_user_failed_polish_does_not_raise(monkeypatch):
    inst = single_user_instance(seed=111, gamma2=100.0, m_interf=12)
    reference = mm.solve_single_user(inst)

    def broken(*args):
        raise DegenerateConstraint("polish diverged")

    monkeypatch.setattr(mm, "_newton_candidate", broken)
    report = mm.solve_single_user(inst)
    assert report.status == "converged"
    assert report.mi_trace[-1] <= reference.mi_trace[-1]
    assert report.kkt_residual is not None


def test_single_user_rejected_extrapolation_takes_plain_step(monkeypatch):
    # with every extrapolation rejected each outer iteration is two plain MM
    # steps: the iterate keeps moving, so the eps1 rule cannot fire on a
    # zero-length step
    inst = single_user_instance(seed=111, gamma2=100.0, m_interf=12)
    monkeypatch.setattr(mm._SingleUserMap, "admissible", lambda self, w: False)
    report = mm.solve_single_user(inst, max_iters=3)
    assert report.status == "max_iterations"
    assert report.iterations == 3
    assert np.all(np.diff(report.mi_trace) > 0.0)


def test_single_user_interference_costs_information():
    inst_clean = single_user_instance(seed=113, gamma2=0.0)
    inst_noisy = single_user_instance(seed=113, gamma2=100.0, m_interf=12)
    mi_clean = mm.solve_single_user(inst_clean).mi_trace[-1]
    mi_noisy = mm.solve_single_user(inst_noisy).mi_trace[-1]
    assert mi_noisy < mi_clean


def test_single_user_infeasible_rate():
    inst = single_user_instance(seed=114, rate=30.0)  # far beyond the budget
    with pytest.raises(Infeasible):
        mm.solve_single_user(inst)


def test_single_user_zero_strength_target_returns_mrt():
    inst = single_user_instance(seed=115, beta2=0.0)
    cfg = inst.config
    scenario = Scenario(cfg, ScattererModel.point(0.0, 0.0),
                        ScattererModel.extended(-30.0, -25.0, 8, 50.0), inst.channel)
    result = dispatch.solve_scenario(scenario, "mm-single")
    h = inst.channel[0].conj()
    mrt = np.sqrt(cfg.power_budget) * h / np.linalg.norm(h)
    assert result.status == "converged"
    assert result.mi_nats == 0.0
    assert result.kkt_residual == 0.0
    assert np.allclose(result.w[:, 0], mrt, rtol=0, atol=1e-12)
    assert result.rates_bits[0] >= cfg.rate_targets[0]


def test_large_array_pipeline_stays_factored():
    # at N_T = N_R = 32 one dense (N_T N_R)^2 covariance takes 16 MiB; the
    # instance, the surrogate, the MI, the echo draw and a few MM iterations
    # must all work from the 1024 x 51 scatterer factors instead
    tracemalloc.start()
    try:
        inst = single_user_instance(n_tx=32, n_rx=32, seed=115, m_interf=50)
        w = mm.zero_forcing_init(inst)[:, 0]
        sur = mm.build_surrogate(inst, w)
        mi = model.mutual_information(inst, w)
        draw = model.simulate_echo_parts(inst, w, seed=1)
        report = mm.solve_single_user(inst, max_iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert sur.quad.shape == (32, 32)
    assert np.isfinite(mi) and draw.g_interf.shape == (32, 32)
    assert report.iterations <= 3 and np.all(np.diff(report.mi_trace) >= 0.0)


# ---------------------------------------------------------------------------
# Multi-user pieces


def test_zero_forcing_init_diagonalizes():
    inst = multi_user_instance(seed=120)
    w = mm.zero_forcing_init(inst)
    cfg = inst.config
    eff = inst.channel @ w
    off = eff - np.diag(np.diag(eff))
    assert np.max(np.abs(off)) <= 1e-10
    assert np.linalg.norm(w) ** 2 == pytest.approx(cfg.power_budget, rel=1e-12)
    rates = model.achieved_rates(inst, w)
    assert np.all(rates >= np.asarray(cfg.rate_targets) - 1e-9)


def test_zero_forcing_init_infeasible_targets():
    inst = multi_user_instance(seed=121, rate=20.0)
    with pytest.raises(Infeasible):
        mm.zero_forcing_init(inst)


def test_multiuser_subproblem_reduces_to_single_user():
    rng = np.random.default_rng(10)
    inst = single_user_instance(seed=130)
    cfg = inst.config
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    prob = mm.multiuser_subproblem(inst, w0, sur)
    # objective matches the single-user surrogate pieces
    a0, b0, c0 = prob.objective
    assert np.allclose(a0, sur.delta * sur.quad, atol=1e-12)
    assert np.allclose(b0, -sur.lin, atol=1e-12)
    # one power ball plus one rate cut; the rate cut equals the linearized
    # single-user constraint
    assert len(prob.constraints) == 2
    a1, b1, c1 = prob.constraints[1]
    h = inst.channel[0].conj()
    omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
    assert np.allclose(a1, 0.0, atol=1e-12)
    assert np.allclose(b1, -(np.outer(h, h.conj()) @ w0), atol=1e-12)
    assert c1 == pytest.approx(float(np.abs(np.vdot(h, w0)) ** 2) + omega, rel=1e-12)


def test_multiuser_rate_quadratics_are_psd():
    inst = multi_user_instance(seed=131, n_users=3, n_tx=5)
    w = mm.zero_forcing_init(inst)
    sur = mm.build_surrogate(inst, w)
    prob = mm.multiuser_subproblem(inst, w, sur)
    for a_k, _, _ in prob.constraints:
        vals = np.linalg.eigvalsh(a_k)
        assert vals.min() >= -1e-10 * max(1.0, vals.max())

    # at its own linearization point each cut reads
    # nu_k (interference + noise) - signal for user k
    cfg = inst.config
    w = random_complex(np.random.default_rng(13), cfg.n_tx, cfg.n_users)
    w_vec = linalg.vec(w)
    prob = mm.multiuser_subproblem(inst, w, sur)
    for k, (a_k, b_k, c_k) in enumerate(prob.constraints[1:]):
        power = np.abs(inst.channel[k] @ w) ** 2
        nu_k = 2.0 ** cfg.rate_targets[k] - 1.0
        expected = nu_k * (power.sum() - power[k] + cfg.comm_noise) - power[k]
        value = np.real(np.vdot(w_vec, a_k @ w_vec) + 2.0 * np.vdot(b_k, w_vec)) + c_k
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)


def kron_rate_cuts(inst, w):
    """The linearized rate cuts built with Kronecker products, as a
    reference for the block assignment of mm.multiuser_subproblem."""
    cfg = inst.config
    w_vec = linalg.vec(w)
    cuts = []
    for k, e_k in enumerate(np.eye(cfg.n_users)):
        h_k = inst.channel[k].conj()
        nu_k = 2.0 ** cfg.rate_targets[k] - 1.0
        gram_k = np.outer(h_k, h_k.conj())
        own = np.kron(np.diag(e_k), gram_k)
        a_k = linalg.hermitianize(nu_k * np.kron(np.diag(1.0 - e_k), gram_k))
        c_k = float(np.real(np.vdot(w_vec, own @ w_vec))) + nu_k * cfg.comm_noise
        cuts.append((a_k, -(own @ w_vec), c_k))
    return cuts


def test_multiuser_rate_cuts_match_kronecker_construction_exactly():
    rng = np.random.default_rng(14)
    for n_users, n_tx in ((2, 4), (3, 5), (1, 3)):
        inst = multi_user_instance(seed=132, n_users=n_users, n_tx=n_tx)
        cfg = inst.config
        w = random_complex(rng, cfg.n_tx, cfg.n_users)
        prob = mm.multiuser_subproblem(inst, w, mm.build_surrogate(inst, w))
        for (a, b, c), (a_ref, b_ref, c_ref) in zip(prob.constraints[1:],
                                                    kron_rate_cuts(inst, w), strict=True):
            assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref) and c == c_ref


def test_multi_user_converges_and_meets_rates():
    inst = multi_user_instance(seed=140)
    cfg = inst.config
    report = mm.solve_multi_user(inst, max_iters=1500)
    trace = np.asarray(report.mi_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert report.status == "converged"
    rates = model.achieved_rates(inst, report.w)
    assert np.all(rates >= np.asarray(cfg.rate_targets) - 1e-6)
    assert np.linalg.norm(report.w) ** 2 <= cfg.power_budget + 1e-9


def test_multi_user_single_user_reduction_agrees():
    inst = single_user_instance(seed=150, m_interf=6, gamma2=20.0)
    mi_single = mm.solve_single_user(inst).mi_trace[-1]
    mi_multi = mm.solve_multi_user(inst, max_iters=1500).mi_trace[-1]
    assert mi_multi == pytest.approx(mi_single, rel=5e-3)
