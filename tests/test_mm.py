import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mibeam import dispatch, evaluation, linalg, mm, model
from mibeam.closed_form import solve_closed_form
from mibeam.config import parse_config
from mibeam.errors import BracketFailure, DegenerateConstraint, Infeasible
from mibeam.model import ScattererModel, Scenario, SystemConfig
import reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def single_cut(h, omega, p0):
    """The K = 1 constraint stack of a channel h (the conjugated channel row),
    a budget p0 and, unless omega is None, the rate cut |h^H w|^2 >= omega."""
    n = h.size
    rows = 1 if omega is None else 2
    a = np.zeros((rows, n, n), dtype=complex)
    a[0] = np.eye(n)
    own = np.zeros_like(a)
    if omega is not None:
        own[1] = np.outer(h, h.conj())
    return mm.RateCuts(a=a, own=own, c=np.array([-p0, omega][:rows], dtype=float))


def shifted_curvature(sur, h, w_ref, omega_shift, p0=10.0):
    """The curvature built at w_ref with the cut 2 Re(w_ref^H h h^H w) >=
    omega_shift, as the stack of single_cut linearizes it."""
    return mm.ShiftedCurvature(
        sur, single_cut(h, omega_shift - float(np.abs(np.vdot(h, w_ref)) ** 2), p0), w_ref)


# ---------------------------------------------------------------------------
# Surrogate conditions


def test_surrogate_touches_objective():
    rng = np.random.default_rng(0)
    for seed in range(5):
        inst = single_user_instance(seed=30 + seed)
        w = feasible_beam(inst, rng)
        sur = mm.build_surrogate(inst, w)
        h_val = reference.surrogate_value(inst, sur, w, w)
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
        value = reference.surrogate_value(inst, sur, w0, w)
        assert value <= model.mutual_information(inst, w) + 1e-8


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
    wt = reference.expand_beamformer(w, cfg.n_rx)
    target_cov = reference.target_cov(inst)
    cov_both = target_cov + reference.interf_cov(inst)
    cov_root = linalg.hermitian_sqrt(target_cov)
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
    assert reference.surrogate_value(inst, sur, w, 0.0 * w) == pytest.approx(offset, rel=1e-11)

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
            at_zero = reference.surrogate_value(inst, sur, w, 0.0 * w)  # the offset
            assert abs(at_zero - offset) <= rtol * (abs(offset) + offset_scale)


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
    w, mu = mm.rate_constrained_step(shifted_curvature(sur, h, w0, attained - 1.0), tau=0.0)
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
    w, mu = mm.rate_constrained_step(shifted_curvature(sur, h, w0, omega_shift), tau)
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
    w, _ = mm.rate_constrained_step(shifted_curvature(sur, h, w0, -1.0), tau=1e12)
    assert np.linalg.norm(w) <= 1e-6


def test_rate_constrained_step_vanishing_curvature_raises():
    rng = np.random.default_rng(8)
    inst = single_user_instance(seed=73)
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    # a zero channel leaves the linearized rate cut no direction to move along
    with pytest.raises(DegenerateConstraint):
        mm.rate_constrained_step(shifted_curvature(sur, np.zeros(inst.config.n_tx), w0, 1.0),
                                 tau=0.5)


def test_transmit_power_monotone_in_multiplier():
    rng = np.random.default_rng(7)
    for seed in range(10):
        inst = single_user_instance(seed=80 + seed)
        w0 = feasible_beam(inst, rng)
        curv = mm.ShiftedCurvature(mm.build_surrogate(inst, w0), mm.rate_cuts(inst), w0)
        taus = np.linspace(0.0, 5.0, 20)
        powers = []
        for tau in taus:
            w, _ = mm.rate_constrained_step(curv, tau)
            powers.append(float(np.linalg.norm(w) ** 2))
        diffs = np.diff(powers)
        assert np.all(diffs <= 1e-9 * max(1.0, max(powers)))


def test_bisection_meets_power_budget():
    rng = np.random.default_rng(8)
    inst = single_user_instance(seed=90)
    cfg = inst.config
    w0 = feasible_beam(inst, rng)
    curv = mm.ShiftedCurvature(mm.build_surrogate(inst, w0), mm.rate_cuts(inst), w0)
    assert curv.p0 == cfg.power_budget
    w_free, _ = mm.rate_constrained_step(curv, 0.0)
    if np.linalg.norm(w_free) ** 2 <= cfg.power_budget:
        pytest.skip("unpenalized step already inside the budget for this seed")
    tau, x, _ = mm.bisect_power_multiplier(curv)
    assert tau > 0.0
    power = float(np.linalg.norm(curv.vecs @ x) ** 2)
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
    # returns the step of the evaluation it accepted, so none is repeated
    rng = np.random.default_rng(18)
    inst = single_user_instance(seed=91)
    cfg = inst.config
    w0 = feasible_beam(inst, rng)
    curv = mm.ShiftedCurvature(mm.build_surrogate(inst, w0), mm.rate_cuts(inst), w0)
    w_free, _ = mm.rate_constrained_step(curv, 0.0)
    if np.linalg.norm(w_free) ** 2 <= cfg.power_budget:
        pytest.skip("unpenalized step already inside the budget for this seed")

    w_one, _ = mm.rate_constrained_step(curv, 1.0)
    if np.linalg.norm(w_one) ** 2 > cfg.power_budget:
        pytest.skip("initial bracket needs expansion for this seed")

    evals = count_calls(monkeypatch, "step", mm.ShiftedCurvature)
    steps = count_calls(monkeypatch, "rate_constrained_step")
    tau, x, mu = mm.bisect_power_multiplier(curv)
    assert len(evals) <= 10
    assert len(steps) == 0
    x_at, mu_at, _, _ = curv.step(tau)
    assert np.array_equal(x, x_at) and mu == mu_at


def reference_multiplier(curv):
    """(tau, mu) at power P0 (1 - POWER_RTOL/2) by 200 bisection steps over
    rate_constrained_step, the bracket grown by doubling from tau = 1."""
    target = curv.p0 * (1.0 - 0.5 * mm.POWER_RTOL)

    def power(tau):
        w, _ = mm.rate_constrained_step(curv, tau)
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
    return hi, mm.rate_constrained_step(curv, hi)[1]


def extended_family(channel_seed):
    """A criterion-5 instance: 6 x 6, point target at 0 deg, 50-component
    strength-100 interferer over -30..-25 deg, rate 6."""
    cfg = SystemConfig(n_tx=6, n_rx=6, n_users=1, n_slots=30, power_budget=10.0,
                       comm_noise=0.1, radar_noise=1.0, rate_targets=(6.0,), rng_seed=0)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0),
                        ScattererModel.extended(-30.0, -25.0, 50, 100.0),
                        model.rayleigh_channel(1, 6, channel_seed))
    return model.build_instance(scenario)


def multiplier_case(case, p0=None):
    """(curvature, h, w_ref) of one inner solve, on the instance's stack with
    its budget replaced by p0 when one is given."""
    if case in ("inactive", "active"):
        inst = single_user_instance(seed=90 if case == "inactive" else 94)
        w_ref = feasible_beam(inst, np.random.default_rng(8))
    else:  # first map of criterion-5 channel 1, from the MRT start
        inst = extended_family(1)
        h = inst.channel[0].conj()
        w_ref = np.sqrt(inst.config.power_budget) * h / np.linalg.norm(h)
    h = inst.channel[0].conj()
    cuts = mm.rate_cuts(inst)
    if case == "large":  # a budget far below the step at tau = 1, and no cut
        cuts = replace(cuts, a=cuts.a[:1], own=cuts.own[:1], c=np.array([-1e-4]))
    if p0 is not None:
        cuts = replace(cuts, c=np.concatenate([[-p0], cuts.c[1:]]))
    return mm.ShiftedCurvature(mm.build_surrogate(inst, w_ref), cuts, w_ref), h, w_ref


@pytest.mark.parametrize("case", ["inactive", "active", "null", "large"])
def test_power_multiplier_matches_reference_bisection(case):
    # from the default start tau = 1 and from starts far from and close to
    # the reference on either side: the bracket and its safeguards bring
    # every start to the same multiplier
    curv, _, _ = multiplier_case(case)
    tau_ref, mu_ref = reference_multiplier(curv)
    p0 = curv.p0
    for tau0 in (1.0, 1e-12 * tau_ref, (1.0 - 1e-3) * tau_ref, (1.0 + 1e-3) * tau_ref,
                 1e6 * tau_ref):
        tau, x, mu = mm.bisect_power_multiplier(curv, tau0)
        power = float(np.linalg.norm(curv.vecs @ x) ** 2)
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
    curv, _, _ = multiplier_case(case)
    tau, x, mu = mm.bisect_power_multiplier(curv)
    _, _, power, slope = curv.step(tau)
    assert power == pytest.approx(float(np.linalg.norm(curv.vecs @ x) ** 2), rel=1e-13)
    step = 1e-4 * tau
    plus = curv.step(tau + step)[2]
    minus = curv.step(tau - step)[2]
    for probe in (tau - step, tau + step):  # both sides on the branch of tau
        assert (curv.step(probe)[1] == 0.0) == (mu == 0.0)
    assert slope < 0.0
    assert slope == pytest.approx((plus - minus) / (2.0 * step), rel=1e-6)


def test_inner_step_solves_for_the_multiplier_along_a_flat_direction(monkeypatch):
    # lin has a component along the null space of the curvature, so the
    # power diverges as tau -> 0: the budget binds even when it is above the
    # power of the tau = 0 step, which drops that component
    sur = mm.Surrogate(lin=np.ones(4, dtype=complex), quad=np.diag([0.0, 1.0, 2.0, 3.0]),
                       delta=1.0)
    monkeypatch.setattr(mm, "build_surrogate", lambda inst, w: sur)
    step = mm._SingleUserMap(single_user_instance(n_tx=4))
    h = np.array([1.0, 0.5, 0.0, 0.0], dtype=complex)
    p0 = 2.0 * (1.0 + 1.0 / 4.0 + 1.0 / 9.0)  # twice the power at tau = 0
    # a rate requirement far below anything attainable leaves the cut slack
    step.cuts = single_cut(h, -1e6, p0)
    power = float(np.linalg.norm(step.subproblem(model.sensing_point(step.inst, h))) ** 2)
    assert p0 * (1.0 - 1e-12) <= power <= p0
    assert step.tau > 0.0


def test_power_multiplier_unreachable_rate_cut_is_bracket_failure():
    # the rate cut of criterion-5 channel 1's first map needs about 4 W, far
    # above a 0.01 W budget.  Its curvature b = 2 sum s |r|^2 falls like
    # 1/tau as the search raises the multiplier, which is weakening, not
    # degeneracy
    curv, h, w_ref = multiplier_case("null", p0=0.01)
    for tau in (1.0, 1e-9, 1e6):  # the default start and two warm ones
        with pytest.raises((BracketFailure, Infeasible)):
            mm.bisect_power_multiplier(curv, tau)
    w, mu = mm.rate_constrained_step(curv, 1e18)
    attained = 2.0 * float(np.real(np.vdot(h * np.vdot(h, w_ref), w)))
    assert mu > 0.0
    assert attained == pytest.approx(curv.omega_shift, rel=1e-9)


def test_power_multiplier_outside_finite_arithmetic_is_bracket_failure():
    # an unreachable cut drives tau up until the step's divisor b^2
    # underflows, and a flat direction drives its step past overflow as tau
    # falls: the multiplier solve ends as a bracket failure, which SQUAREM
    # takes as a rejected extrapolation, not as an uncaught arithmetic error
    curv, _, _ = multiplier_case("null", p0=0.01)
    for tau in (1e160, 1e-160):
        with pytest.raises(BracketFailure, match="finite arithmetic"):
            mm.bisect_power_multiplier(curv, tau)


def test_step_meets_the_cut_along_flat_directions_at_tau_zero():
    # c has no flat part, r has one: at tau = 0 the flat direction meets the
    # cut's deficit at no cost in objective, with mu = 0, at the minimum-norm
    # point, which is the limit of the step as tau -> 0 (mu ~ tau there)
    sur = mm.Surrogate(lin=np.array([0.0, 1.0, 1.0, 1.0], dtype=complex),
                       quad=np.diag([0.0, 1.0, 2.0, 3.0]), delta=1.0)
    h = np.array([1.0, 0.5, 0.0, 0.0], dtype=complex)
    omega_shift = 10.0  # above the 2 Re r^H x = 1.25 the curved directions attain
    curv = shifted_curvature(sur, h, h, omega_shift)
    assert curv.omega_shift == omega_shift
    flat = curv.vals == 0.0
    assert np.count_nonzero(flat) == 1 and not np.any(curv.c[flat])
    x, mu, power, _ = curv.step(0.0)
    assert mu == 0.0
    assert 2.0 * float(np.real(np.vdot(curv.r, x))) == pytest.approx(omega_shift, rel=1e-12)
    assert np.allclose(x[~flat], curv.c[~flat] / curv.vals[~flat], rtol=0.0, atol=1e-15)
    assert power == pytest.approx(float(np.linalg.norm(x) ** 2), rel=1e-15)
    x_near, mu_near, _, _ = curv.step(1e-9)
    assert 0.0 < mu_near <= 1e-8
    assert np.linalg.norm(x_near - x) <= 1e-7 * np.linalg.norm(x)


def test_power_multiplier_work_per_inner_solve(monkeypatch):
    # a deterministic work count in place of wall time.  Each map evaluates
    # the step at the multiplier of the map before it first; over the
    # budget, that step is the multiplier solve's first iterate.  The tau =
    # 0 step is formed only on maps where the warm step is within the budget
    # and c has no flat part, which alone makes the budget bind.  A full
    # criterion-5 solve on channel 1 takes 1938 O(N_T) power evaluations
    # over 484 maps, 4.00 a map (341 maps skip the tau = 0 step over the
    # budget, 16 more for a flat c).  The map forms w from the step the
    # multiplier solve accepted, so no evaluation repeats and the
    # antenna-basis reference step is never called
    inst = extended_family(1)
    maps = []  # per map, whether c has a flat part, and the (tau, power) of each evaluation
    evaluate, subproblem = mm.ShiftedCurvature.step, mm._SingleUserMap.subproblem

    def evaluating(curv, tau):
        result = evaluate(curv, tau)
        if maps[-1][0] is None:
            flat = float(np.linalg.norm(curv.c[curv.vals == 0.0]))
            maps[-1][0] = flat > 1e-10 * max(float(np.linalg.norm(curv.c)), 1e-300)
        maps[-1][1].append((tau, result[2]))
        return result

    def mapping(self, point):
        maps.append([None, []])
        return subproblem(self, point)

    monkeypatch.setattr(mm.ShiftedCurvature, "step", evaluating)
    monkeypatch.setattr(mm._SingleUserMap, "subproblem", mapping)
    steps = count_calls(monkeypatch, "rate_constrained_step")
    report = mm.solve_single_user(inst)
    assert report.status == "converged"
    p0 = inst.config.power_budget
    over = flat_within = 0
    for flat, evals in maps:
        (warm_tau, warm_power), rest = evals[0], evals[1:]
        assert warm_tau > 0.0
        zero = [tau for tau, _ in rest if tau == 0.0]
        assert zero == ([] if warm_power > p0 or flat else [0.0])
        assert all(tau != warm_tau for tau, _ in rest)  # the warm step is not repeated
        over += warm_power > p0
        flat_within += flat and warm_power <= p0
    assert len(maps) == 484 and over == 341 and flat_within == 16
    evaluations = sum(len(evals) for _, evals in maps)
    assert evaluations == 1938
    assert len(steps) == 0
    # the report counts every evaluation
    assert report.inner_steps == evaluations


@pytest.mark.parametrize("channel, inner_steps", [(2, 1945), (3, 2129), (4, 2094)],
                         ids=["channel-2", "channel-3", "channel-4"])
def test_power_multiplier_work_on_more_criterion_5_channels(channel, inner_steps):
    # the other channels of the mm-single-extended benchmark: a full solve's
    # evaluation count, which a change to the map's rule or arithmetic moves
    assert mm.solve_single_user(extended_family(channel)).inner_steps == inner_steps


def probe_first_subproblem(step, point):
    """The single-user subproblem in the order the map had before it took
    the warm step first: the tau = 0 step, then the multiplier solve from
    ``step.tau`` when that step is over the budget or c has a flat part."""
    w = point.w
    curvature = mm.ShiftedCurvature(mm.build_surrogate(step.inst, point), step.cuts, w)
    x, _, power, _ = curvature.step(0.0)
    c = curvature.c
    flat = float(np.linalg.norm(c[curvature.vals == 0.0]))
    if power > curvature.p0 or flat > 1e-10 * max(float(np.linalg.norm(c)), 1e-300):
        step.tau, x, _ = mm.bisect_power_multiplier(curvature, step.tau)
    return (curvature.vecs @ x).reshape(w.shape)


def assert_warm_first_is_probe_first(subproblem, step, point, tau):
    """One subproblem from the warm multiplier tau by the map's own
    ``subproblem`` and in the probe-first order: the same answer bytes and
    multiplier, or the same exception type.  Returns the map's (answer or
    exception type, multiplier)."""
    outcomes = []
    for solve in (subproblem, probe_first_subproblem):
        step.tau = tau
        try:
            answer = solve(step, point)
        except Exception as exc:  # the type is what is compared
            outcomes.append((type(exc), step.tau))
        else:
            outcomes.append((answer.tobytes(), step.tau))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_warm_first_map_matches_the_probe_first_order(monkeypatch):
    subproblem = mm._SingleUserMap.subproblem
    # every map of a full criterion-5 solve, from its point and warm
    # multiplier, on both sides of the budget
    inst = extended_family(1)
    seen = []

    def recording(self, point):
        seen.append((point, self.tau))
        return subproblem(self, point)

    monkeypatch.setattr(mm._SingleUserMap, "subproblem", recording)
    mm.solve_single_user(inst)
    monkeypatch.undo()
    step, over = mm._SingleUserMap(inst), 0
    for point, tau in seen:
        assert_warm_first_is_probe_first(subproblem, step, point, tau)
        curv = mm.ShiftedCurvature(mm.build_surrogate(inst, point), step.cuts, point.w)
        over += curv.step(tau)[2] > curv.p0
    assert 0 < over < len(seen)

    # the flat-direction surrogate of
    # test_inner_step_solves_for_the_multiplier_along_a_flat_direction, from
    # warm multipliers over (1e-6) and within (1, 1e3) the budget
    sur = mm.Surrogate(lin=np.ones(4, dtype=complex), quad=np.diag([0.0, 1.0, 2.0, 3.0]),
                       delta=1.0)
    monkeypatch.setattr(mm, "build_surrogate", lambda inst, w: sur)
    step = mm._SingleUserMap(single_user_instance(n_tx=4))
    h = np.array([1.0, 0.5, 0.0, 0.0], dtype=complex)
    p0 = 2.0 * (1.0 + 1.0 / 4.0 + 1.0 / 9.0)
    step.cuts = single_cut(h, -1e6, p0)
    point = model.sensing_point(step.inst, h)
    for tau in (1.0, 1e-6, 1e3):
        _, tau_after = assert_warm_first_is_probe_first(subproblem, step, point, tau)
        assert tau_after != tau
    # the same c from a w orthogonal to h under a positive rate requirement:
    # r = 0 makes the cut degenerate, and that error of the tau = 0 step
    # comes first also when the warm step leaves finite arithmetic
    step.cuts = single_cut(h, 1.0, p0)
    orthogonal = model.sensing_point(step.inst, np.array([0.0, 0.0, 1.0, 0.0]))
    for tau in (1.0, 1e-320):
        outcome = assert_warm_first_is_probe_first(subproblem, step, orthogonal, tau)
        assert outcome[0] is DegenerateConstraint

    # a budget that does not bind, with no flat direction: the tau = 0 step
    # is kept and the multiplier left as it was
    sur = mm.Surrogate(lin=np.ones(4, dtype=complex), quad=np.diag([1.0, 2.0, 3.0, 4.0]),
                       delta=1.0)
    step.cuts = single_cut(h, -1e6, 2.0 * (1.0 + 1.0 / 4.0 + 1.0 / 9.0 + 1.0 / 16.0))
    for tau in (1.0, 1e-6):
        answer, tau_after = assert_warm_first_is_probe_first(subproblem, step, point, tau)
        assert tau_after == tau
        assert np.allclose(np.frombuffer(answer, dtype=complex), [1.0, 0.5, 1.0 / 3.0, 0.25],
                           rtol=1e-14, atol=0.0)
    # the same with the cut met along a flat direction that c does not
    # reach: at tau = 1e-200 the step's slope overflows, and the tau = 0 step
    # is still kept
    sur = mm.Surrogate(lin=np.array([0.0, 1.0, 1.0, 1.0], dtype=complex),
                       quad=np.diag([0.0, 1.0, 2.0, 3.0]), delta=1.0)
    step.cuts = single_cut(h, 10.0, 40.0)
    for tau in (1.0, 1e-200):
        answer, tau_after = assert_warm_first_is_probe_first(subproblem, step, point, tau)
        assert tau_after == tau and isinstance(answer, bytes)
    curvature = mm.ShiftedCurvature(sur, step.cuts, h)
    assert curvature.omega_shift == 11.5625
    with pytest.raises(BracketFailure, match="finite arithmetic"):
        curvature.step(1e-200)
    assert mm.bisect_power_multiplier(curvature, 1e-200)[0] == 0.0
    monkeypatch.undo()

    # a warm multiplier whose step leaves finite arithmetic: the tau = 0
    # step decides, and the multiplier solve raises as it did
    inst = extended_family(1)
    h = inst.channel[0].conj()
    step = mm._SingleUserMap(inst)
    point = model.sensing_point(inst, np.sqrt(inst.config.power_budget) * h / np.linalg.norm(h))
    assert assert_warm_first_is_probe_first(subproblem, step, point, 1e-160)[0] is BracketFailure


def test_stack_curvature_matches_the_explicit_cut():
    # the K = 1 stack linearized at w_ref gives the cut that the channel
    # forms directly: r = V^H h (h^H w_ref) and omega_shift = |h^H w_ref|^2 +
    # omega, with the budget read from the power row
    rng = np.random.default_rng(19)
    cases = [(inst, feasible_beam(inst, rng)) for inst in
             (single_user_instance(seed=120 + seed) for seed in range(4))]
    for channel in (1, 2):  # the criterion-5 MRT start, as the map holds it
        inst = extended_family(channel)
        h = inst.channel[0].conj()
        cases.append((inst, np.sqrt(inst.config.power_budget) * h[:, None] / np.linalg.norm(h)))
    for inst, w_ref in cases:
        cfg = inst.config
        curv = mm.ShiftedCurvature(mm.build_surrogate(inst, w_ref), mm.rate_cuts(inst), w_ref)
        h = inst.channel[0].conj()
        gain = complex(np.vdot(h, w_ref.ravel()))
        r = curv.vecs.conj().T @ (h * gain)
        omega_shift = abs(gain) ** 2 + model.rate_power_threshold(cfg.rate_targets[0],
                                                                  cfg.comm_noise)
        assert np.linalg.norm(curv.r - r) <= 1e-14 * np.linalg.norm(r)
        assert abs(curv.omega_shift - omega_shift) <= 1e-14 * omega_shift
        assert curv.p0 == cfg.power_budget


def test_zero_target_map_is_the_power_only_maximizer(monkeypatch):
    # a zero target leaves the stack with the power ball alone, so the map
    # maximizes the surrogate over the ball: delta quad w + tau w = lin at
    # tau = 0 inside the ball, or at the multiplier that meets the budget
    inst = single_user_instance(seed=126, rate=0.0)
    step = mm._SingleUserMap(inst)
    assert step.cuts.c.size == 1
    cfg = inst.config
    h = inst.channel[0].conj()
    rng = np.random.default_rng(26)
    for _ in range(3):
        w = random_complex(rng, cfg.n_tx)
        w -= h * (np.vdot(h, w) / np.vdot(h, h))  # orthogonal to h as well
        point = model.sensing_point(inst, np.sqrt(cfg.power_budget) * w / np.linalg.norm(w))
        w_next = step.subproblem(point)[:, 0]
        sur = mm.build_surrogate(inst, point)
        power = float(np.linalg.norm(w_next) ** 2)
        assert power <= cfg.power_budget
        tau = step.tau if power >= cfg.power_budget * (1.0 - 1e-12) else 0.0
        residual = sur.delta * sur.quad @ w_next + tau * w_next - sur.lin
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(sur.lin)

    # the flat-direction surrogate at a w orthogonal to h, where a positive
    # target's cut is degenerate: without the cut the answer is lin / (lambda
    # + tau), inside the ball at tau = 0 and on it when the budget binds
    sur = mm.Surrogate(lin=np.ones(4, dtype=complex), quad=np.diag([1.0, 2.0, 3.0, 4.0]),
                       delta=1.0)
    monkeypatch.setattr(mm, "build_surrogate", lambda inst, w: sur)
    step = mm._SingleUserMap(single_user_instance(n_tx=4))
    h = np.array([1.0, 0.5, 0.0, 0.0], dtype=complex)
    orthogonal = model.sensing_point(step.inst, np.array([0.0, 0.0, 1.0, 0.0]))
    p0 = 2.0 * (1.0 + 1.0 / 4.0 + 1.0 / 9.0 + 1.0 / 16.0)
    step.cuts = single_cut(h, 1.0, p0)
    with pytest.raises(DegenerateConstraint):
        step.subproblem(orthogonal)
    step.cuts = single_cut(h, None, p0)
    answer = step.subproblem(orthogonal)[:, 0]
    assert np.allclose(answer, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-14, atol=0.0)
    step.cuts = single_cut(h, None, 0.1)
    answer = step.subproblem(orthogonal)[:, 0]
    assert 0.1 * (1.0 - 1e-12) <= float(np.linalg.norm(answer) ** 2) <= 0.1
    assert np.allclose(answer * (np.array([1.0, 2.0, 3.0, 4.0]) + step.tau), 1.0,
                       rtol=1e-12, atol=0.0)


def test_multiplier_warm_start_stays_inside_one_solve():
    # the start multiplier lives on the map of one solve: solving A, then B,
    # then A again repeats A byte for byte
    first, other, again = (mm.solve_single_user(extended_family(seed)) for seed in (1, 2, 1))
    assert other.w.tobytes() != first.w.tobytes()
    assert again.w.tobytes() == first.w.tobytes()
    assert np.asarray(again.mi_trace).tobytes() == np.asarray(first.mi_trace).tobytes()
    assert again.inner_steps == first.inner_steps


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
        w_cf = solve_closed_form(a, h, cfg.power_budget, omega)
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
    true_point = model.sensing_point
    calls = itertools.count()

    def lowered(inst, w):
        point = true_point(inst, w)
        return replace(point, mi=point.mi - 1e-6 * next(calls))

    monkeypatch.setattr(model, "sensing_point", lowered)
    monkeypatch.setattr(mm, "_kkt_fit", lambda *args: ((1.0, 0.0, 0.0), None))
    report = mm.solve_single_user(target_inside_interferer(100.0, 1))
    assert report.status == "stalled"
    assert report.kkt_residual == 1.0


def test_single_user_failed_finish_does_not_raise(monkeypatch):
    # a Newton finish that raises is a rejected one: SQUAREM cycles follow
    inst = single_user_instance(seed=111, gamma2=100.0, m_interf=12)
    reference = mm.solve_single_user(inst)
    assert reference.finish_steps >= 1

    def broken(*args):
        raise DegenerateConstraint("finish diverged")

    monkeypatch.setattr(mm, "_kkt_newton", broken)
    report = mm.solve_single_user(inst)
    assert report.status == "converged" and report.finish_steps == 0
    assert np.all(np.diff(report.mi_trace) >= -1e-9)
    assert report.mi_trace[-1] <= reference.mi_trace[-1] + 1e-12
    assert report.kkt_residual is not None


def criterion_5_instance(channel_seed):
    return single_user_instance(n_tx=6, n_rx=6, seed=channel_seed, gamma2=100.0, m_interf=50,
                                rate=6.0)


def rmse_eval_design_scenario():
    """The -10 dB design of the RMSE evaluation: three users at 4 bits/s/Hz,
    no echo interference."""
    cfg = SystemConfig(n_tx=6, n_rx=6, n_users=3, n_slots=30, power_budget=10.0,
                       comm_noise=0.1, radar_noise=1.0, rate_targets=(4.0,) * 3)
    return Scenario(cfg, ScattererModel.point(0.0, evaluation.strength_for_radar_snr(-10.0, cfg)),
                    None, model.rayleigh_channel(3, 6, 1))


def test_one_finish_serves_every_number_of_users(monkeypatch):
    calls = []
    finish = mm._finish

    def recording(step, *args):
        calls.append(type(step).__name__)
        return finish(step, *args)

    monkeypatch.setattr(mm, "_finish", recording)
    single = mm.solve_single_user(criterion_5_instance(1))
    multi = dispatch.solve_scenario(rmse_eval_design_scenario(), "mm-multi")
    assert calls == ["_SingleUserMap", "_MultiUserMap"]
    assert single.finish_steps >= 1 and multi.extras["finish_steps"] >= 1
    assert single.kkt_residual <= 1e-9 and multi.kkt_residual <= 1e-9


def test_each_newton_step_is_one_iteration(monkeypatch):
    steps = []
    newton = mm._kkt_newton

    def counting(step, w, budget):
        out = newton(step, w, budget)
        steps.append(out[2])
        return out

    monkeypatch.setattr(mm, "_kkt_newton", counting)
    inst = criterion_5_instance(2)  # whose finish takes more than one Newton step
    full = mm.solve_single_user(inst)
    # one accepted finish, no MM step after it: one trace entry for all
    # its Newton steps, one iteration for each
    assert steps == [full.finish_steps] and full.finish_steps >= 2
    main = len(full.mi_trace) - 2
    assert full.iterations == main + full.finish_steps
    # a cap one past the eps1 stop leaves the finish a single step
    steps.clear()
    capped = mm.solve_single_user(inst, max_iters=main + 1)
    assert capped.status == "converged" and steps == [1]
    assert capped.iterations == main + 1
    # and at the stop itself none
    steps.clear()
    assert mm.solve_single_user(inst, max_iters=main).iterations == main and steps == []


def hessian_instance(n_users, interfered):
    """Small instances whose solved designs null the 50-component,
    strength-100 interferer deeply: 4 x 3 with one user at 4 bits/s/Hz, and
    3 x 1 with three users at 0.25 bits/s/Hz each."""
    gamma2 = 100.0 if interfered else 0.0
    if n_users == 1:
        return single_user_instance(gamma2=gamma2, m_interf=50), mm.solve_single_user
    return multi_user_instance(n_tx=3, n_rx=1, n_users=3, gamma2=gamma2, m_interf=50,
                               rate=0.25), mm.solve_multi_user


@pytest.mark.parametrize("design", ["solved", "random"])
@pytest.mark.parametrize("interfered", [True, False], ids=["interference", "clean"])
@pytest.mark.parametrize("n_users", [1, 3])
def test_mi_hessian_matches_a_50_digit_second_difference(n_users, interfered, design):
    # with the interferer, the certified design sits in a deep null of it,
    # where the Hessian reaches 5e3-2e4, and a random full-power beam leaves
    # the interference large, where a difference of the Hessians of the two
    # log-dets would cancel
    pytest.importorskip("mpmath")
    inst, solve = hessian_instance(n_users, interfered)
    if design == "solved":
        report = solve(inst)
        assert report.kkt_residual <= 1e-9
        w = report.w
    else:
        w = random_complex(np.random.default_rng(7), inst.config.n_tx, n_users)
        w *= np.sqrt(inst.config.power_budget) / np.linalg.norm(w)
    point = model.sensing_point(inst, w)
    hess = model.mi_hessian(inst, point)
    ref = reference.mi_hessian_50_digits(inst, point.w)
    assert hess.shape == (2 * inst.config.n_tx * n_users,) * 2
    assert np.abs(hess - ref).max() <= 1e-7 * np.abs(ref).max()


def kkt_system_at(inst, x, cols, lam):
    n = x.size // 2
    point = model.sensing_point(inst, linalg.unvec(x[:n] + 1j * x[n:], inst.config.n_tx,
                                                   inst.config.n_users))
    return mm._kkt_system(cols, lam, mm._certify(inst, mm.rate_cuts(inst), point).terms)


@pytest.mark.parametrize("targets", [None, (6.0,) * 3, (0.0, 6.0, 6.0)],
                         ids=["1", "3", "3-first-target-zero"])
def test_kkt_jacobian_matches_central_differences(targets):
    # every row and column: all multipliers positive, so each constraint row
    # and each cut's curvature enters, at the start of the criterion-5 instance
    # or of configs/multi_user.yaml's geometry on channel 5, where no deep
    # null makes the MI block dwarf the rest.  With the first target zero
    # the stack's cuts 1 and 2 are users 2 and 3
    if targets is None:
        inst = criterion_5_instance(1)
    else:
        inst = shipped_geometry_instance(3, 6.0, 5)
        inst = replace(inst, config=replace(inst.config, rate_targets=targets))
    cuts = mm.rate_cuts(inst)
    state = mm._certify(inst, cuts, model.sensing_point(inst, mm.zero_forcing_init(inst)))
    state = replace(state, coef=state.coef + 0.1)
    cols = np.arange(state.coef.size)
    assert cols.size == 1 + np.count_nonzero(inst.config.rate_targets)
    jac = mm._kkt_jacobian(inst, cuts, state, cols)
    x = mm._real(linalg.vec(state.point.w))
    n, step = x.size, 1e-5
    numeric = np.empty_like(jac)
    for j, e in enumerate(step * np.eye(n)):
        numeric[:, j] = (kkt_system_at(inst, x + e, cols, state.coef)
                         - kkt_system_at(inst, x - e, cols, state.coef)) / (2.0 * step)
    for j, e in enumerate(step * np.eye(cols.size)):
        numeric[:, n + j] = (mm._kkt_system(cols, state.coef + e, state.terms)
                             - mm._kkt_system(cols, state.coef - e, state.terms)) / (2.0 * step)
    assert jac.shape == (n + cols.size,) * 2
    assert np.abs(jac - numeric).max() <= 1e-5 * np.abs(jac).max()


@pytest.mark.parametrize("n_users", [1, 3])
def test_each_newton_step_evaluates_one_point(monkeypatch, n_users):
    # the exact Jacobian reads the point the step starts from, so a step
    # forms one sensing point and one surrogate, at its end; the forward
    # differences this replaced formed 2 N_T K + 1 of each
    counts, inside = {"points": 0, "surrogates": 0, "steps": 0}, []
    newton, sensing_point, build_surrogate = mm._kkt_newton, model.sensing_point, mm.build_surrogate

    def counted(key, fn):
        def wrapped(*args):
            counts[key] += bool(inside)
            return fn(*args)
        return wrapped

    def counting(*args):
        inside.append(True)
        try:
            out = newton(*args)
        finally:
            inside.pop()
        counts["steps"] += out[2]
        return out

    monkeypatch.setattr(model, "sensing_point", counted("points", sensing_point))
    monkeypatch.setattr(mm, "build_surrogate", counted("surrogates", build_surrogate))
    monkeypatch.setattr(mm, "_kkt_newton", counting)
    if n_users == 1:  # a channel whose finish takes more than one Newton step
        result = mm.solve_single_user(criterion_5_instance(2))
    else:
        result = dispatch.solve_scenario(rmse_eval_design_scenario(), "mm-multi")
    assert counts["steps"] >= 2
    assert counts["points"] == counts["surrogates"] == counts["steps"]
    assert result.kkt_residual <= 1e-9


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
    with pytest.raises(Infeasible, match="need at least"):
        mm.solve_single_user(inst)


def test_single_user_zero_rate_target_converges_at_full_power():
    # a zero target gives zero forcing no amplitude: the start is the MRT
    # vector at full power, not the zero vector the map cannot scale
    inst = single_user_instance(seed=116, rate=0.0)
    cfg = inst.config
    h = inst.channel[0].conj()
    mrt = np.sqrt(cfg.power_budget) * h / np.linalg.norm(h)
    assert np.allclose(mm.zero_forcing_init(inst)[:, 0], mrt, rtol=0, atol=1e-12)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0),
                        ScattererModel.extended(-30.0, -25.0, 8, 50.0), inst.channel)
    result = dispatch.solve_scenario(scenario, "mm-single")
    assert result.status == "converged"
    assert np.all(np.isfinite(result.w)) and result.mi_nats > 0.0
    assert np.linalg.norm(result.w) ** 2 == pytest.approx(cfg.power_budget, rel=1e-9)
    assert result.kkt_residual <= 1e-6


@pytest.mark.parametrize("scheme, n_users, rate", [
    ("mm-single", 1, 4.0), ("mm-single", 1, 0.0), ("mm-multi", 3, 2.0)])
def test_zero_user_channel_is_infeasible(scheme, n_users, rate):
    inst = multi_user_instance(n_tx=5, n_users=n_users, seed=117, rate=rate)
    channel = inst.channel.copy()
    channel[-1] = 0.0
    scenario = Scenario(inst.config, ScattererModel.point(0.0, 1.0),
                        ScattererModel.extended(-30.0, -25.0, 6, 10.0), channel)
    with pytest.raises(Infeasible, match="channel is zero"):
        dispatch.solve_scenario(scenario, scheme)


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


def test_large_array_single_user_converges_at_full_power():
    # configs/single_user_extended.yaml at 32 x 32, channel 2: a map that
    # stopped below the budget left the solve at the cap with 6.9 W and a
    # KKT residual of 0.17
    scenario = parse_config(CONFIGS / "single_user_extended.yaml").scenario
    cfg = replace(scenario.config, n_tx=32, n_rx=32)
    scenario = replace(scenario, config=cfg, channel=model.rayleigh_channel(1, 32, 2))
    result = dispatch.solve_scenario(scenario, "mm-single")
    assert result.status == "converged"
    assert result.kkt_residual <= 1e-6
    assert np.linalg.norm(result.w) ** 2 == pytest.approx(cfg.power_budget, rel=1e-9)


def admissible_start(step, rng):
    """A random full-power beamformer that meets every rate target."""
    cfg = step.inst.config
    while True:
        w = random_complex(rng, cfg.n_tx, cfg.n_users)
        w *= np.sqrt(cfg.power_budget) / np.linalg.norm(w)
        if step.admissible(w):
            return w


@pytest.mark.parametrize("make_step", [
    lambda: mm._SingleUserMap(single_user_instance(seed=116)),
    lambda: mm._MultiUserMap(multi_user_instance(n_tx=5, n_users=3, seed=122, rate=1.0)),
], ids=["one_user", "three_users"])
def test_map_output_is_at_full_power_and_phase_aligned(make_step):
    step = make_step()
    w = admissible_start(step, np.random.default_rng(17))
    w_next = step(model.sensing_point(step.inst, w)).w
    assert np.linalg.norm(w_next) ** 2 == pytest.approx(step.p0, rel=1e-12)
    overlap = complex(np.vdot(w, w_next))
    assert overlap.real > 0.0 and abs(overlap.imag) <= 1e-12 * abs(overlap)


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
    with pytest.raises(Infeasible, match="need at least"):
        mm.zero_forcing_init(inst)


def shipped_geometry_instance(n_users, rate, channel_seed):
    """configs/multi_user.yaml with n_users users at ``rate`` bits/s/Hz."""
    return multi_user_instance(n_tx=6, n_rx=6, n_users=n_users, seed=channel_seed, gamma2=100.0,
                               m_interf=50, rate=rate)


def test_zero_forcing_init_falls_back_to_minimum_power():
    # zero forcing needs 18.43 W here; the least power that meets every
    # target is 2.0607 W, so the start is that design scaled to the budget
    inst = shipped_geometry_instance(6, 2.0, 5)
    cfg = inst.config
    zf = np.linalg.pinv(inst.channel) * np.sqrt(model.rate_power_threshold(2.0, cfg.comm_noise))
    assert np.linalg.norm(zf) ** 2 == pytest.approx(18.4296, rel=1e-5)
    least = mm._minimum_power_design(inst)
    assert np.linalg.norm(least) ** 2 == pytest.approx(2.0607, rel=1e-4)
    assert np.allclose(model.achieved_rates(inst, least), 2.0, rtol=0.0, atol=1e-9)
    w = mm.zero_forcing_init(inst)
    assert np.linalg.norm(w) ** 2 == pytest.approx(cfg.power_budget, rel=1e-12)
    assert np.all(model.achieved_rates(inst, w) >= 2.0)
    report = mm.solve_multi_user(inst, max_iters=3)
    assert np.all(np.diff(report.mi_trace) >= 0.0)
    assert np.all(model.achieved_rates(inst, report.w) >= 2.0 - 1e-6)


@pytest.mark.parametrize("channel_seed, least_w", [(9, "10.323"), (11, "12.2295")])
def test_zero_forcing_init_names_the_least_power_when_infeasible(channel_seed, least_w):
    with pytest.raises(Infeasible, match=f"need at least {least_w} W"):
        mm.zero_forcing_init(shipped_geometry_instance(3, 6.0, channel_seed))


@pytest.mark.parametrize("scheme, n_users, channel_seed, least_w", [
    ("mm-single", 1, 3, "0.457422"), ("mm-multi", 1, 3, "0.457422"),
    ("mm-multi", 3, 1, "1.25955")])
@pytest.mark.parametrize("factor", [1.0 - 1e-13, 1.0, 1.0 + 1e-14])
def test_budget_at_the_least_power_is_infeasible(scheme, n_users, channel_seed, least_w, factor):
    # a start at the least power leaves the map no room to move: the
    # multiplier solve failed to bracket (one user) or the QCQP ended uncertified
    # or overflowed (three users).  Targets whose least power reaches
    # P0 (1 - POWER_RTOL) are infeasible, and the message tells the two
    # powers apart
    rate = 6.0 if n_users == 1 else 4.0
    inst = shipped_geometry_instance(n_users, rate, channel_seed)
    least = float(np.linalg.norm(mm._minimum_power_design(inst)) ** 2)
    cfg = replace(inst.config, power_budget=factor * least)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0),
                        ScattererModel.extended(-30.0, -25.0, 50, 100.0), inst.channel)
    with pytest.raises(Infeasible, match=f"need at least {least_w} W, budget is {least_w} W") \
            as excinfo:
        dispatch.solve_scenario(scenario, scheme)
    gap = float(str(excinfo.value).split("the least power is ")[1].split(" relative")[0])
    assert gap == pytest.approx(1.0 / factor - 1.0, rel=0.1, abs=1e-15)
    cfg = replace(cfg, power_budget=(1.0 + 1e-12) * least)
    result = dispatch.solve_scenario(replace(scenario, config=cfg), scheme,
                                     dispatch.SolverOptions(max_iters=5))
    assert np.linalg.norm(result.w) ** 2 <= cfg.power_budget * (1.0 + 1e-9)
    assert np.all(result.rates_bits >= rate - 1e-6)


def test_minimum_power_design_gives_a_zero_target_exactly_zero_power():
    # the linear solve left -7.2e-18 W for the zero-target user, which read
    # as "no beamformer meets the rate targets at any power"
    cfg = SystemConfig(n_tx=3, n_rx=1, n_users=3, n_slots=30, power_budget=1.0,
                       comm_noise=0.1, radar_noise=1.0, rate_targets=(0.0, 0.5, 2.0), rng_seed=0)
    channel = model.rayleigh_channel(3, 3, 0)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0), None, channel)
    least = mm._minimum_power_design(model.build_instance(scenario))
    assert not np.any(least[:, 0])
    assert np.linalg.norm(least) ** 2 == pytest.approx(0.180, abs=5e-4)
    # a budget below the zero-forcing power of 0.994 W needs that design
    scenario = replace(scenario, config=replace(cfg, power_budget=0.9 * 0.994))
    result = dispatch.solve_scenario(scenario, "mm-multi", dispatch.SolverOptions(max_iters=5))
    assert np.all(result.rates_bits >= np.asarray(cfg.rate_targets) - 1e-6)


def test_zero_forcing_init_keeps_zero_forcing_when_it_fits():
    inst = shipped_geometry_instance(3, 6.0, 1)
    cfg = inst.config
    zf = np.linalg.pinv(inst.channel) * np.sqrt(model.rate_power_threshold(6.0, cfg.comm_noise))
    expected = zf * np.sqrt(cfg.power_budget / float(np.linalg.norm(zf) ** 2))
    assert np.array_equal(mm.zero_forcing_init(inst), expected)


def test_multi_user_silent_target_returns_the_start():
    inst = multi_user_instance(seed=123, n_users=3, n_tx=5, target=ScattererModel.point(0.0, 0.0))
    report = mm.solve_multi_user(inst)
    assert report.status == "converged" and report.iterations == 0
    assert np.array_equal(report.w, mm.zero_forcing_init(inst))
    assert report.mi_trace == [0.0]
    assert (report.kkt_residual, report.comp_power, report.comp_rate) == (0.0, 0.0, 0.0)


def test_multiuser_subproblem_reduces_to_single_user():
    rng = np.random.default_rng(10)
    inst = single_user_instance(seed=130)
    cfg = inst.config
    w0 = feasible_beam(inst, rng)
    sur = mm.build_surrogate(inst, w0)
    prob = mm.multiuser_subproblem(inst, w0, sur, mm.rate_cuts(inst))
    # objective matches the single-user surrogate pieces
    a0, b0, c0 = prob.objective
    assert np.allclose(a0, sur.delta * sur.quad, atol=1e-12)
    assert np.allclose(b0, -sur.lin, atol=1e-12)
    # one power ball plus one rate cut; the rate cut equals the linearized
    # single-user constraint
    assert prob.constraints[2].size == 2
    a1, b1, c1 = (stack[1] for stack in prob.constraints)
    h = inst.channel[0].conj()
    omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
    assert np.allclose(a1, 0.0, atol=1e-12)
    assert np.allclose(b1, -(np.outer(h, h.conj()) @ w0), atol=1e-12)
    assert c1 == pytest.approx(float(np.abs(np.vdot(h, w0)) ** 2) + omega, rel=1e-12)


def test_multiuser_rate_quadratics_are_psd():
    inst = multi_user_instance(seed=131, n_users=3, n_tx=5)
    w = mm.zero_forcing_init(inst)
    sur = mm.build_surrogate(inst, w)
    prob = mm.multiuser_subproblem(inst, w, sur, mm.rate_cuts(inst))
    for a_k in prob.constraints[0]:
        vals = np.linalg.eigvalsh(a_k)
        assert vals.min() >= -1e-10 * max(1.0, vals.max())

    # at its own linearization point each cut reads
    # nu_k (interference + noise) - signal for user k
    cfg = inst.config
    w = random_complex(np.random.default_rng(13), cfg.n_tx, cfg.n_users)
    w_vec = linalg.vec(w)
    prob = mm.multiuser_subproblem(inst, w, sur, mm.rate_cuts(inst))
    for k, (a_k, b_k, c_k) in enumerate(zip(*(stack[1:] for stack in prob.constraints))):
        power = np.abs(inst.channel[k] @ w) ** 2
        nu_k = 2.0 ** cfg.rate_targets[k] - 1.0
        expected = nu_k * (power.sum() - power[k] + cfg.comm_noise) - power[k]
        value = np.real(np.vdot(w_vec, a_k @ w_vec) + 2.0 * np.vdot(b_k, w_vec)) + c_k
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n_users, targets", [(1, None), (3, None), (3, (2.0, 0.0, 2.0))],
                         ids=["1", "3", "3-second-target-zero"])
def test_kkt_terms_match_the_per_user_construction(n_users, targets):
    # reference: the power ball's gradient column and value, then one column
    # and one value per user with a positive target, in a loop
    inst = multi_user_instance(seed=131, n_users=n_users, n_tx=5)
    if targets is not None:
        inst = replace(inst, config=replace(inst.config, rate_targets=targets))
    cfg = inst.config
    w = random_complex(np.random.default_rng(17), cfg.n_tx, cfg.n_users)
    grad, basis, values = mm._kkt_terms(mm.rate_cuts(inst), mm.build_surrogate(inst, w), w)
    amps = inst.channel @ w
    power = np.abs(amps) ** 2
    nu = 2.0 ** np.asarray(cfg.rate_targets) - 1.0
    users = np.flatnonzero(nu > 0.0)
    assert np.array_equal(basis[:, 0], linalg.vec(w))
    assert values[0] == pytest.approx(np.linalg.norm(w) ** 2 - cfg.power_budget, rel=1e-14)
    for j, k in enumerate(users, start=1):
        weights = nu[k] * amps[k]
        weights[k] = -amps[k, k]
        column = linalg.vec(np.outer(inst.channel[k].conj(), weights))
        # a row of the stacked product (a_j - own_j) vec W: the sums run in
        # another order than the outer product's, so they agree to roundoff
        assert np.abs(basis[:, j] - column).max() <= 1e-13 * np.abs(column).max()
        expected = nu[k] * (power[k].sum() - power[k, k] + cfg.comm_noise) - power[k, k]
        assert values[j] == pytest.approx(expected, rel=1e-14, abs=1e-14 * power[k].sum())
    assert basis.shape == (cfg.n_tx * n_users, 1 + users.size) and values.shape == (1 + users.size,)
    assert np.array_equal(grad, mm.build_surrogate(inst, w).gradient(linalg.vec(w)))


def kron_constraints(inst, w):
    """The stacked (A, b, c) of the power ball and the linearized rate cuts,
    built one user at a time with Kronecker products, as a reference for
    the broadcast construction of mm.multiuser_subproblem."""
    cfg = inst.config
    dim = cfg.n_tx * cfg.n_users
    w_vec = linalg.vec(w)
    a, b, c = [np.eye(dim, dtype=complex)], [np.zeros(dim, dtype=complex)], [-cfg.power_budget]
    for k, e_k in enumerate(np.eye(cfg.n_users)):
        h_k = inst.channel[k].conj()
        nu_k = 2.0 ** cfg.rate_targets[k] - 1.0
        gram_k = np.outer(h_k, h_k.conj())
        own = np.kron(np.diag(e_k), gram_k)
        a.append(linalg.hermitianize(nu_k * np.kron(np.diag(1.0 - e_k), gram_k)))
        b.append(-(own @ w_vec))
        c.append(float(np.real(np.vdot(w_vec, own @ w_vec))) + nu_k * cfg.comm_noise)
    return np.array(a), np.array(b), np.array(c)


def assert_kronecker_stack(inst, w):
    sur = mm.build_surrogate(inst, w)
    prob = mm.multiuser_subproblem(inst, w, sur, mm.rate_cuts(inst))
    a0, b0, c0 = prob.objective
    assert np.array_equal(a0, sur.delta * sur.quad) and np.array_equal(b0, -sur.lin)
    assert c0 == 0.0
    for stack, reference in zip(prob.constraints, kron_constraints(inst, w), strict=True):
        assert stack.shape == reference.shape and np.array_equal(stack, reference)


def test_multiuser_rate_cuts_match_kronecker_construction_exactly():
    rng = np.random.default_rng(14)
    for n_users, n_tx in ((2, 4), (3, 5), (1, 3)):
        inst = multi_user_instance(seed=132, n_users=n_users, n_tx=n_tx)
        cfg = inst.config
        assert_kronecker_stack(inst, random_complex(rng, cfg.n_tx, cfg.n_users))


def test_multiuser_subproblem_stack_matches_kronecker_along_a_solve():
    # the shipped 3-user config at its zero-forcing start and after 1-4 maps
    inst = model.build_instance(parse_config(CONFIGS / "multi_user.yaml").scenario)
    step = mm._MultiUserMap(inst)
    w = mm.zero_forcing_init(inst)
    for _ in range(5):
        assert_kronecker_stack(inst, w)
        w = step(model.sensing_point(inst, w)).w


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


# ---------------------------------------------------------------------------
# One evaluation per iterate


def record_points(monkeypatch):
    """Wrap model.sensing_point so that every evaluation is kept, in order."""
    points = []
    evaluate = model.sensing_point

    def recording(inst, w):
        points.append(evaluate(inst, w))
        return points[-1]

    monkeypatch.setattr(model, "sensing_point", recording)
    return points


def test_multi_user_evaluates_each_iterate_once(monkeypatch):
    # the MI of an iterate and the surrogate built at it share one
    # evaluation: the start and each of the 20 maps are evaluated once, the
    # certificate at the stop reads the last one, and the loop never calls
    # model.mutual_information
    inst = model.build_instance(parse_config(CONFIGS / "multi_user.yaml").scenario)
    true_mi = model.mutual_information
    mi_calls = count_calls(monkeypatch, "mutual_information", model)
    points = record_points(monkeypatch)
    report = mm.solve_multi_user(inst, max_iters=20)
    assert report.status == "max_iterations" and report.iterations == 20
    assert len(points) == 21 and not mi_calls
    assert [p.mi for p in points] == report.mi_trace
    assert np.array_equal(points[-1].w, report.w)
    evaluated = list(points)
    assert all(true_mi(inst, p.w) == p.mi for p in evaluated)


def test_squarem_cycle_evaluates_two_points_and_two_per_extrapolation(monkeypatch):
    # w1, w2, and per extrapolation tried the extrapolated point and its map;
    # every trace entry is the MI of an evaluated iterate, bit for bit
    inst = criterion_5_instance(1)
    true_mi = model.mutual_information
    mi_calls = count_calls(monkeypatch, "mutual_information", model)
    maps = count_calls(monkeypatch, "__call__", mm._SingleUserMap)
    points = record_points(monkeypatch)
    cycles = []
    advance = mm._SingleUserMap.advance

    def counted(self, point):
        before = len(points), len(maps)
        out = advance(self, point)
        cycles.append((len(points) - before[0], len(maps) - before[1] - 2))
        return out

    monkeypatch.setattr(mm._SingleUserMap, "advance", counted)
    report = mm.solve_single_user(inst, max_iters=6)
    assert report.status == "max_iterations" and len(cycles) == 6
    assert not mi_calls
    assert any(tried >= 1 for _, tried in cycles)
    for evaluations, tried in cycles:
        assert evaluations <= 2 + 2 * tried
    evaluated = {p.mi: p for p in points}
    assert all(g in evaluated for g in report.mi_trace)
    assert all(true_mi(inst, evaluated[g].w) == g for g in report.mi_trace)
