from dataclasses import replace

import numpy as np
import pytest

from mibeam import conic, dispatch, model, sdr
from mibeam.closed_form import solve_closed_form
from mibeam.errors import NumericalError
from mibeam.model import ScattererModel, Scenario, SystemConfig
from test_reduction import thin_set_scenario


def make_setup(n_tx=4, n_rx=4, gamma2=100.0, seed=11, rate=4.0, p0=10.0,
               theta_t=0.0, theta_c=-30.0, beta2=1.0, n_slots=30, sigma_z2=1.0):
    cfg = SystemConfig(n_tx=n_tx, n_rx=n_rx, n_users=1, n_slots=n_slots,
                       power_budget=p0, comm_noise=0.1, radar_noise=sigma_z2,
                       rate_targets=(rate,), rng_seed=0)
    target = ScattererModel.point(theta_t, beta2)
    interf = ScattererModel.point(theta_c, gamma2)
    channel = model.rayleigh_channel(1, n_tx, seed)
    inst = model.build_instance(Scenario(cfg, target, interf, channel))
    omega = model.rate_power_threshold(rate, cfg.comm_noise)
    return cfg, inst, channel[0].conj(), omega


def steering_kernels(cfg, theta_t, beta2, theta_c, gamma2):
    """The SDP kernels from steering-vector outer products: P = a b^H per
    scatterer, strengths applied as scalars."""
    p = np.outer(model.steering_vector(theta_t, cfg.n_tx),
                 model.steering_vector(theta_t, cfg.n_rx).conj())
    q = np.outer(model.steering_vector(theta_c, cfg.n_tx),
                 model.steering_vector(theta_c, cfg.n_rx).conj())
    scale = float(cfg.n_slots)
    beta, gamma = np.sqrt(beta2), np.sqrt(gamma2)
    qp = scale * beta * gamma * (q @ p.conj().T)
    return np.array([[scale * beta2 * (p @ p.conj().T), qp],
                     [qp.conj().T, scale * gamma2 * (q @ q.conj().T)]])


def random_beams(rng, cfg, count):
    return rng.standard_normal((count, cfg.n_tx)) + 1j * rng.standard_normal((count, cfg.n_tx))


def test_point_mi_matches_full_logdet():
    # the batched 2x2 reduction must reproduce the stacked log-det value
    rng = np.random.default_rng(0)
    cfg, inst, h, omega = make_setup()
    beams = random_beams(rng, cfg, 10)
    scalar = sdr.point_mutual_information(inst, beams)
    for w, value in zip(beams, scalar):
        full = model.mutual_information(inst, w)
        assert abs(value - full) <= 1e-9 * max(1.0, abs(full))


def test_point_mutual_information_exact_near_strong_interferer():
    # a 1e4-strength interferer half a degree from the target: the 2x2
    # determinant reduction, target * interf - |cross|^2, lost up to 7e-14
    # nats to cancellation here (1.5e-14 on these beams); the reference
    # evaluates it in 50 digits from the same double-precision projections
    mpmath = pytest.importorskip("mpmath")
    cfg, inst, h, omega = make_setup(n_tx=6, n_rx=6, theta_c=0.5, gamma2=1e4, seed=3)
    p = model.steering_vector(0.0, cfg.n_tx)[:, None] * model.steering_vector(0.0, cfg.n_rx).conj()
    q = 100.0 * model.steering_vector(0.5, cfg.n_tx)[:, None] * \
        model.steering_vector(0.5, cfg.n_rx).conj()
    beams = random_beams(np.random.default_rng(0), cfg, 4)
    values = sdr.point_mutual_information(inst, beams)
    with mpmath.workdps(50):
        for w, value in zip(beams, values):
            u = [mpmath.mpc(z) for z in w @ p.conj()]
            v = [mpmath.mpc(z) for z in w @ q.conj()]
            target = cfg.n_slots * sum(abs(z) ** 2 for z in u) + cfg.radar_noise
            interf = cfg.n_slots * sum(abs(z) ** 2 for z in v) + cfg.radar_noise
            cross = cfg.n_slots * sum(mpmath.conj(b) * a for a, b in zip(u, v))
            ref = mpmath.log((target * interf - abs(cross) ** 2) / (interf * cfg.radar_noise))
            assert abs(value - float(ref)) <= 5e-15


@pytest.mark.parametrize("theta_t, beta2, theta_c, gamma2", [
    (0.0, 1.0, -30.0, 100.0), (12.5, 3.0, 40.0, 0.25), (-20.0, 0.5, -20.0, 7.0),
])
def test_sdp_kernels_match_steering_outer_products(theta_t, beta2, theta_c, gamma2):
    cfg, inst, h, omega = make_setup(n_tx=5, n_rx=3, theta_t=theta_t, beta2=beta2,
                                     theta_c=theta_c, gamma2=gamma2)
    coeff = sdr.build_sdp(inst).lmi_blocks[0].coeff
    expected = steering_kernels(cfg, theta_t, beta2, theta_c, gamma2)
    assert np.linalg.norm(coeff - expected) <= 1e-12 * np.linalg.norm(expected)


def test_sdr_rejects_extended_scatterers():
    cfg, inst, h, omega = make_setup()
    wide = model.scatterer_factor(ScattererModel.extended(-2.0, 2.0, 3, 1.0), cfg)
    for bad in (replace(inst, target_factor=wide), replace(inst, interf_factor=wide)):
        with pytest.raises(ValueError):
            sdr.build_sdp(bad)
        with pytest.raises(ValueError):
            sdr.point_mutual_information(bad, np.ones((1, cfg.n_tx)))


def test_absent_and_silent_interferer_give_the_same_design():
    cfg, inst, h, omega = make_setup(seed=15)
    target = ScattererModel.point(0.0, 1.0)
    channel = inst.channel
    absent = dispatch.solve_scenario(Scenario(cfg, target, None, channel), "sdr")
    # a silent point, and a silent extended interferer, which validate_scheme
    # takes as absent too: its zero components are no point to respond to
    for interferer in (ScattererModel.point(-30.0, 0.0),
                       ScattererModel.extended(-30.0, -25.0, 50, 0.0)):
        silent = dispatch.solve_scenario(Scenario(cfg, target, interferer, channel), "sdr")
        assert np.array_equal(absent.w, silent.w)
        assert absent.mi_nats == silent.mi_nats
        assert absent.extras == silent.extras


def test_build_sdp_shapes_and_zero_matrix_point():
    cfg, inst, h, omega = make_setup()
    prob = sdr.build_sdp(inst)
    assert prob.dim == cfg.n_tx
    # the 2x2 LMI, then the 1x1 power and received-power blocks
    blk, power, rate = prob.lmi_blocks
    assert [b.const.shape for b in prob.lmi_blocks] == [(2, 2), (1, 1), (1, 1)]
    assert blk.coeff.shape == (2, 2, cfg.n_tx, cfg.n_tx)
    assert not np.any(power.t_coeff) and not np.any(rate.t_coeff)
    # at the start W0 and at W = 0 the power block reads P0 - Tr W and the
    # rate block h^H W h - omega
    for w in (prob.start[0], np.zeros((cfg.n_tx, cfg.n_tx))):
        for cut, value in ((power, cfg.power_budget - np.trace(w).real),
                           (rate, np.vdot(h, w @ h).real - omega)):
            reading = cut.const + np.einsum("pqij,ji->pq", cut.coeff, w)
            assert reading[0, 0] == pytest.approx(value, rel=1e-12, abs=1e-12)
    # at the zero matrix the LMI reads diag(s^2 - t, s^2): t = sigma_z^2 is
    # the largest feasible auxiliary value
    w_bar = np.zeros((cfg.n_tx, cfg.n_tx))
    entries = np.array([
        [np.trace(blk.coeff[0, 0] @ w_bar) + blk.const[0, 0],
         np.trace(blk.coeff[0, 1] @ w_bar) + blk.const[0, 1]],
        [np.trace(blk.coeff[1, 0] @ w_bar) + blk.const[1, 0],
         np.trace(blk.coeff[1, 1] @ w_bar) + blk.const[1, 1]],
    ])
    t_max = entries[0, 0].real - abs(entries[0, 1]) ** 2 / entries[1, 1].real
    assert t_max == pytest.approx(cfg.radar_noise)


def test_no_interference_limit_matches_closed_form():
    cfg, inst, h, omega = make_setup(gamma2=1e-12, seed=3)
    report = conic.solve_sdp(sdr.build_sdp(inst))
    bound = sdr.relaxed_mi_bound(report.aux, cfg.radar_noise)
    a_t = model.steering_vector(0.0, cfg.n_tx)
    w_cf = solve_closed_form(a_t, h, cfg.power_budget, omega)
    mi_cf = model.mutual_information(inst, w_cf)
    assert bound >= mi_cf - 1e-6
    assert abs(bound - mi_cf) <= 1e-4 * max(1.0, abs(mi_cf))


def test_relaxation_upper_bounds_feasible_points():
    rng = np.random.default_rng(4)
    cfg, inst, h, omega = make_setup(seed=5)
    report = conic.solve_sdp(sdr.build_sdp(inst))
    bound = sdr.relaxed_mi_bound(report.aux, cfg.radar_noise)
    beams = random_beams(rng, cfg, 50)
    beams *= (np.sqrt(cfg.power_budget) / np.linalg.norm(beams, axis=1))[:, None]
    feasible = beams[np.abs(beams @ h.conj()) ** 2 >= omega]
    assert np.all(sdr.point_mutual_information(inst, feasible) <= bound + 1e-6)


def test_randomize_degenerate_rank_one():
    cfg, inst, h, omega = make_setup(seed=7)
    w0 = np.sqrt(cfg.power_budget) * h / np.linalg.norm(h)  # feasible at full power
    w_bar = np.outer(w0, w0.conj())
    w = sdr.randomize(w_bar, inst, seed=1, n_randomizations=500)
    mi = sdr.point_mutual_information(inst, np.array([w, w0]))
    assert abs(mi[0] - mi[1]) <= 1e-12
    assert np.linalg.norm(w) ** 2 == pytest.approx(cfg.power_budget, rel=1e-12)


def test_randomize_rejects_empty_draw():
    cfg, inst, h, omega = make_setup(seed=7)
    with pytest.raises(ValueError):
        sdr.randomize(np.eye(cfg.n_tx), inst, seed=1, n_randomizations=0)


def test_randomize_output_always_feasible():
    cfg, inst, h, omega = make_setup(seed=9)
    report = conic.solve_sdp(sdr.build_sdp(inst))
    for seed in range(5):
        w = sdr.randomize(report.solution, inst, seed=seed, n_randomizations=500)
        assert np.linalg.norm(w) ** 2 <= cfg.power_budget + 1e-9
        assert abs(np.vdot(h, w)) ** 2 >= omega - 1e-9


def test_randomized_mi_close_to_bound_without_interference():
    # with a vanishing interferer the relaxed optimum is attained by a
    # rank-one point, so randomization should come within 2%
    cfg, inst, h, omega = make_setup(n_tx=4, n_rx=4, gamma2=1e-12, seed=13)
    report = conic.solve_sdp(sdr.build_sdp(inst))
    bound = sdr.relaxed_mi_bound(report.aux, cfg.radar_noise)
    beams = np.array([sdr.randomize(report.solution, inst, seed=seed, n_randomizations=500)
                      for seed in range(100)])
    assert sdr.point_mutual_information(inst, beams).min() >= bound * 0.98


def test_solve_point_interference_pipeline():
    cfg, inst, h, omega = make_setup(seed=15)
    report = sdr.solve_point_interference(inst, seed=0, n_randomizations=500)
    assert model.mutual_information(inst, report.w) <= report.bound_nats + 1e-6
    assert np.linalg.norm(report.w) ** 2 <= cfg.power_budget + 1e-9
    assert abs(np.vdot(h, report.w)) ** 2 >= omega - 1e-9
    rate = model.achievable_rate(inst, report.w, 0)
    assert rate >= cfg.rate_targets[0] - 1e-9


@pytest.mark.parametrize("slack", [1e-5, 1e-6, 1e-8, 1e-10])
def test_every_scheme_takes_the_least_power_verdict_on_a_thin_feasible_set(slack):
    # strictly feasible, so no scheme may say Infeasible, and past the
    # verdict the SDR relaxation starts inside the thin set and centres
    for scheme, interference in (("closed", False), ("sdr", True), ("sdr", False),
                                 ("mm-single", True), ("mm-single", False)):
        scenario = thin_set_scenario(slack, interference)
        cfg = scenario.config
        result = dispatch.solve_scenario(scenario, scheme, dispatch.SolverOptions(seed=1))
        assert np.linalg.norm(result.w) ** 2 <= cfg.power_budget * (1.0 + 1e-9)
        assert result.rates_bits[0] >= cfg.rate_targets[0] - 1e-6


@pytest.mark.parametrize("channel_seed", [4, 24, 45, 50])
def test_sdr_below_the_thin_set_limit_designs_or_is_numerical(channel_seed):
    # below relative slack 1e-10 some relaxations end uncentred (exit 4).
    # Roundoff this near the boundary can also put a Newton or predictor
    # step where S has no Cholesky factor; the solve must step back from
    # it, not raise LinAlgError
    for slack in (1e-11, 5e-12, 2e-12):
        for interference in (True, False):
            scenario = thin_set_scenario(slack, interference, channel_seed)
            try:
                result = dispatch.solve_scenario(scenario, "sdr", dispatch.SolverOptions(seed=1))
            except NumericalError:
                continue
            cfg = scenario.config
            assert np.linalg.norm(result.w) ** 2 <= cfg.power_budget * (1.0 + 1e-9)
            assert result.rates_bits[0] >= cfg.rate_targets[0] - 1e-6
