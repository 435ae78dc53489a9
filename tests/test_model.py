import numpy as np
import pytest

from mibeam import linalg, model
from mibeam.errors import ConfigError
from mibeam.model import Instance, ScattererModel, Scenario, SystemConfig


def make_config(**overrides):
    base = dict(
        n_tx=4, n_rx=3, n_users=1, n_slots=30,
        power_budget=10.0, comm_noise=0.1, radar_noise=1.0,
        rate_targets=(6.0,), rng_seed=0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def make_instance(cfg, target, interference=None, channel_seed=11):
    channel = model.rayleigh_channel(cfg.n_users, cfg.n_tx, channel_seed)
    return model.build_instance(Scenario(cfg, target, interference, channel))


def test_unit_conversions():
    assert model.dbm_to_watts(40.0) == pytest.approx(10.0)
    assert model.dbm_to_watts(20.0) == pytest.approx(0.1)
    assert model.dbm_to_watts(30.0) == pytest.approx(1.0)
    assert model.watts_to_dbm(10.0) == pytest.approx(40.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(n_tx=0)
    with pytest.raises(ConfigError):
        make_config(power_budget=0.0)
    with pytest.raises(ConfigError):
        make_config(rate_targets=(1.0, 2.0))  # one user


def test_steering_vector_broadside():
    a = model.steering_vector(0.0, 4)
    assert np.allclose(a, np.ones(4), atol=0)


def test_steering_vector_thirty_degrees():
    a = model.steering_vector(30.0, 2)
    assert a[0] == pytest.approx(1.0)
    assert a[1] == pytest.approx(-1j, abs=1e-12)


def test_steering_vector_norm():
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta = rng.uniform(-89.0, 89.0)
        n = int(rng.integers(1, 12))
        a = model.steering_vector(theta, n)
        assert np.linalg.norm(a) ** 2 == pytest.approx(n, rel=1e-14)


def test_steering_matrix_rows_equal_steering_vectors():
    grid = np.concatenate([[-90.0, 0.0, 90.0], np.linspace(-89.95, 89.95, 257)])
    for n in (1, 6, 32):
        steer = model.steering_matrix(grid, n)
        assert steer.shape == (grid.size, n)
        for row, theta in zip(steer, grid):
            # the per-angle formula, evaluated on one scalar angle
            ref = np.exp(-2j * np.pi * 0.5 * np.arange(n) * np.sin(np.deg2rad(theta)))
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-15)
            np.testing.assert_allclose(row, model.steering_vector(theta, n), rtol=0, atol=1e-15)


def test_scatterer_factor_matches_per_angle_stack():
    cfg = make_config(n_tx=6, n_rx=5)
    scatterer = ScattererModel.extended(-30.0, -25.0, 50, 100.0)
    factor = model.scatterer_factor(scatterer, cfg)
    tx = np.stack([model.steering_vector(t, cfg.n_tx) for t in scatterer.angles_deg], axis=1)
    rx = np.stack([model.steering_vector(t, cfg.n_rx) for t in scatterer.angles_deg], axis=1)
    ref = (rx.conj()[:, None, :] * tx[None, :, :]).reshape(cfg.n_rx * cfg.n_tx, -1)
    ref = ref * np.sqrt(np.asarray(scatterer.strengths))
    assert np.array_equal(factor, ref)
    # the layout is part of the result: BLAS rounds differently on a
    # transposed operand, and the solvers' iterates follow that roundoff
    assert factor.flags.c_contiguous


def test_point_covariance_broadside_all_ones():
    cfg = make_config(n_tx=2, n_rx=2)
    cov = model.scatterer_covariance(ScattererModel.point(0.0, 1.0), cfg)
    assert np.allclose(cov, np.ones((4, 4)), atol=1e-14)


def test_point_covariance_rank_and_trace():
    cfg = make_config()
    for theta, strength in ((12.5, 1.0), (-41.0, 3.5)):
        cov = model.scatterer_covariance(ScattererModel.point(theta, strength), cfg)
        vals = np.linalg.eigvalsh(cov)
        assert np.sum(vals > 1e-8 * vals.max()) == 1
        assert np.trace(cov).real == pytest.approx(strength * cfg.n_tx * cfg.n_rx, rel=1e-10)
        assert linalg.is_hermitian(cov)
        assert vals.min() >= -1e-10 * vals.max()


def test_extended_covariance_numerical_rank():
    cfg = make_config()
    two = ScattererModel((-30.0, -25.0), (1.0, 1.0))
    cov = model.scatterer_covariance(two, cfg)
    vals = np.linalg.eigvalsh(cov)
    assert np.sum(vals > 1e-8 * vals.max()) == 2
    total = sum(two.strengths) * cfg.n_tx * cfg.n_rx
    assert np.trace(cov).real == pytest.approx(total, rel=1e-10)


def test_extended_grid_constructor():
    ext = ScattererModel.extended(-30.0, -25.0, 50, 100.0)
    assert len(ext.angles_deg) == 50
    assert ext.angles_deg[0] == pytest.approx(-30.0)
    assert ext.angles_deg[-1] == pytest.approx(-25.0)
    assert ext.kind == "extended"


def test_mutual_information_orthogonal_beam_is_zero():
    cfg = make_config(n_tx=2, n_rx=2, rate_targets=(0.0,))
    inst = make_instance(cfg, ScattererModel.point(0.0, 1.0))
    # a(0) = [1, 1]; w orthogonal to it
    w = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert model.mutual_information(inst, w) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_point_closed_form():
    cfg = make_config()
    theta, beta2 = 17.0, 2.3
    inst = make_instance(cfg, ScattererModel.point(theta, beta2))
    rng = np.random.default_rng(1)
    a = model.steering_vector(theta, cfg.n_tx)
    for _ in range(10):
        w = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
        gain = abs(np.vdot(a, w)) ** 2
        expected = np.log(1.0 + (cfg.n_slots / cfg.radar_noise) * beta2 * cfg.n_rx * gain)
        assert model.mutual_information(inst, w) == pytest.approx(expected, rel=1e-10)


def test_mutual_information_decreases_with_noise():
    cfg_lo = make_config()
    cfg_hi = make_config(radar_noise=2.0)
    target = ScattererModel.point(0.0, 1.0)
    inst_lo = make_instance(cfg_lo, target)
    inst_hi = make_instance(cfg_hi, target)
    w = np.sqrt(cfg_lo.power_budget) * model.steering_vector(0.0, cfg_lo.n_tx) / 2.0
    assert model.mutual_information(inst_hi, w) < model.mutual_information(inst_lo, w)


def test_mutual_information_unitary_invariance():
    cfg = make_config(n_users=2, rate_targets=(1.0, 1.0))
    inst = make_instance(cfg, ScattererModel.point(5.0, 1.0),
                         ScattererModel((-30.0, -28.0), (2.0, 2.0)))
    rng = np.random.default_rng(2)
    w = rng.standard_normal((cfg.n_tx, 2)) + 1j * rng.standard_normal((cfg.n_tx, 2))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert model.mutual_information(inst, w @ q) == pytest.approx(
        model.mutual_information(inst, w), rel=1e-10)
    # K = 1 phase invariance
    cfg1 = make_config()
    inst1 = make_instance(cfg1, ScattererModel.point(5.0, 1.0))
    w1 = rng.standard_normal(cfg1.n_tx) + 1j * rng.standard_normal(cfg1.n_tx)
    assert model.mutual_information(inst1, np.exp(0.7j) * w1) == pytest.approx(
        model.mutual_information(inst1, w1), rel=1e-12)


def test_achievable_rate_matched_filter():
    cfg = make_config()
    inst = make_instance(cfg, ScattererModel.point(0.0, 1.0))
    h = inst.channel[0].conj()
    w = np.sqrt(cfg.power_budget) * h / np.linalg.norm(h)
    expected = np.log2(1.0 + cfg.power_budget * np.linalg.norm(h) ** 2 / cfg.comm_noise)
    assert model.achievable_rate(inst, w, 0) == pytest.approx(expected, rel=1e-12)


def test_achievable_rate_orthogonal_is_zero():
    cfg = make_config(n_tx=2)
    inst = make_instance(cfg, ScattererModel.point(0.0, 1.0))
    h = inst.channel[0].conj()
    w = np.array([-h[1].conj(), h[0].conj()])  # h^H w = 0
    assert abs(np.vdot(h, w)) <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(w)
    assert model.achievable_rate(inst, w, 0) == pytest.approx(0.0, abs=1e-12)


def test_achievable_rate_matches_scalar_sinr():
    rng = np.random.default_rng(3)
    for n_users in (2, 3):
        cfg = make_config(n_users=n_users, rate_targets=(1.0,) * n_users)
        inst = make_instance(cfg, ScattererModel.point(0.0, 1.0))
        w = rng.standard_normal((cfg.n_tx, n_users)) + 1j * rng.standard_normal((cfg.n_tx, n_users))
        rates = model.achieved_rates(inst, w)
        for k in range(n_users):
            h_k = inst.channel[k].conj()
            num = abs(np.vdot(h_k, w[:, k])) ** 2
            den = sum(abs(np.vdot(h_k, w[:, j])) ** 2 for j in range(n_users) if j != k)
            expected = np.log2(1.0 + num / (den + cfg.comm_noise))
            assert model.achievable_rate(inst, w, k) == pytest.approx(expected, rel=1e-12)
            assert rates[k] == pytest.approx(expected, rel=1e-12)


def test_vec_expansion_matrix_trivial():
    f = model.vec_expansion_matrix(1, 1, 1)
    assert np.array_equal(f, np.array([[1.0]]))


@pytest.mark.parametrize("n_tx,n_rx,n_users", [(3, 2, 2), (6, 6, 3), (2, 4, 1), (4, 3, 4)])
def test_vec_expansion_identity_exact(n_tx, n_rx, n_users):
    rng = np.random.default_rng(4)
    f = model.vec_expansion_matrix(n_tx, n_rx, n_users)
    assert f.shape == (n_tx * n_rx * n_rx * n_users, n_tx * n_users)
    assert np.all((f == 0.0) | (f == 1.0))
    assert np.all(f.sum(axis=1) <= 1.0)
    for _ in range(5):
        w = rng.standard_normal((n_tx, n_users)) + 1j * rng.standard_normal((n_tx, n_users))
        lhs = linalg.vec(model.expand_beamformer(w, n_rx))
        rhs = f @ linalg.vec(w).conj()
        assert np.array_equal(lhs, rhs)


def test_simulate_echo_deterministic_and_zero_beam():
    cfg = make_config()
    inst = make_instance(cfg, ScattererModel.point(0.0, 1.0),
                         ScattererModel.point(-30.0, 2.0))
    w = np.ones(cfg.n_tx)
    y1 = model.simulate_echo(inst, w, seed=5)
    y2 = model.simulate_echo(inst, w, seed=5)
    assert np.array_equal(y1, y2)
    draw = model.simulate_echo_parts(inst, np.zeros(cfg.n_tx), seed=5)
    assert np.array_equal(draw.y, draw.noise)


def test_simulate_echo_response_covariance():
    # vec(G^H) of each drawn response is CN(0, R); entry (a, b) of the sample
    # covariance over n draws then has standard deviation
    # sqrt(R_aa R_bb / n), and every entry must lie within 5 of those
    cfg = make_config(n_tx=3, n_rx=2)
    inst = make_instance(cfg, ScattererModel((10.0, 20.0), (2.0, 0.5)),
                         ScattererModel((-30.0, -25.0, -20.0), (3.0, 1.0, 0.25)))
    n_draws = 4000
    w = np.ones(cfg.n_tx)
    draws = [model.simulate_echo_parts(inst, w, seed=s) for s in range(n_draws)]
    for field, cov in (("g_target", inst.target_cov), ("g_interf", inst.interf_cov)):
        vecs = np.stack([linalg.vec(getattr(d, field).conj().T) for d in draws], axis=1)
        sample = vecs @ vecs.conj().T / n_draws
        diag = np.real(np.diag(cov))
        std = np.sqrt(np.outer(diag, diag) / n_draws)
        assert np.all(np.abs(sample - cov) <= 5.0 * std)


def test_simulate_echo_pure_noise_variance():
    cfg = make_config(n_rx=5, n_slots=2000)
    inst = make_instance(cfg, ScattererModel.point(0.0, 0.0),
                         ScattererModel.point(-30.0, 0.0))
    y = model.simulate_echo(inst, np.ones(cfg.n_tx), seed=7)
    sample_var = float(np.mean(np.abs(y) ** 2))
    assert abs(sample_var - cfg.radar_noise) <= 0.05 * cfg.radar_noise


@pytest.mark.parametrize("n_users", [1, 3])
@pytest.mark.parametrize("interfered", [True, False], ids=["interference", "clean"])
def test_mutual_information_is_bitwise_the_log_det_of_its_whitened_form(n_users, interfered):
    # the MI is read off the one sensing evaluation that the MM surrogate
    # shares; it must stay bit for bit logdet(I + delta Z^H Z) formed
    # directly, Z = L_i^{-1} Y_t, T_i = I + delta Y_i Y_i^H = L_i L_i^H
    cfg = make_config(n_users=n_users, rate_targets=(1.0,) * n_users)
    interference = ScattererModel.extended(-30.0, -25.0, 6, 50.0) if interfered else None
    inst = make_instance(cfg, ScattererModel((-5.0, 0.0, 5.0), (1.0, 2.0, 0.5)), interference)
    delta = cfg.n_slots / cfg.radar_noise
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.standard_normal((cfg.n_tx, n_users)) + 1j * rng.standard_normal((cfg.n_tx, n_users))
        y_t = model.expanded_times(w, inst.target_factor, cfg.n_rx)
        y_i = model.expanded_times(w, inst.interf_factor, cfg.n_rx)
        chol = np.linalg.cholesky(np.eye(y_i.shape[0])
                                  + delta * linalg.hermitianize(y_i @ y_i.conj().T))
        z = np.linalg.solve(chol, y_t)
        direct = linalg.logdet_hermitian(np.eye(y_t.shape[1])
                                         + delta * linalg.hermitianize(z.conj().T @ z))
        assert model.mutual_information(inst, w) == direct
        assert model.sensing_point(inst, w).mi == direct


def test_mutual_information_matches_unreduced_form():
    # with exactly orthogonal data rows (S S^H = L I) the large-frame
    # reduction is exact, not approximate
    rng = np.random.default_rng(8)
    for n_slots in (5, 30):
        cfg = make_config(n_users=2, n_slots=n_slots, rate_targets=(1.0, 1.0))
        inst = make_instance(cfg, ScattererModel.point(0.0, 1.0),
                             ScattererModel((-30.0, -27.0), (2.0, 1.0)))
        w = rng.standard_normal((cfg.n_tx, 2)) + 1j * rng.standard_normal((cfg.n_tx, 2))
        raw = rng.standard_normal((n_slots, cfg.n_users)) + \
            1j * rng.standard_normal((n_slots, cfg.n_users))
        q, _ = np.linalg.qr(raw)
        s = np.sqrt(n_slots) * q.conj().T          # (K, L), S S^H = L I
        assert np.allclose(s @ s.conj().T, n_slots * np.eye(cfg.n_users), atol=1e-10)

        wt = model.expand_beamformer(w, cfg.n_rx)
        st = np.kron(np.eye(cfg.n_rx), s.conj().T)  # (L N_R, K N_R)
        eye = np.eye(n_slots * cfg.n_rx)

        def unreduced(cov):
            inner = wt @ cov @ wt.conj().T
            return linalg.logdet_hermitian(
                linalg.hermitianize(st @ inner @ st.conj().T) + cfg.radar_noise * eye)

        full = unreduced(inst.target_cov + inst.interf_cov) - unreduced(inst.interf_cov)
        reduced = model.mutual_information(inst, w)
        assert abs(full - reduced) <= 1e-9
