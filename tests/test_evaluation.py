import numpy as np
import pytest

from mibeam import evaluation, model
from mibeam.model import ScattererModel, Scenario, SystemConfig


def make_config(**overrides):
    base = dict(
        n_tx=6, n_rx=6, n_users=1, n_slots=30,
        power_budget=10.0, comm_noise=0.1, radar_noise=1.0,
        rate_targets=(4.0,), rng_seed=0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def make_instance(cfg, target, interference=None, channel_seed=5):
    channel = model.rayleigh_channel(cfg.n_users, cfg.n_tx, channel_seed)
    return model.build_instance(Scenario(cfg, target, interference, channel))


def test_beampattern_matched_steering_peak():
    w = model.steering_vector(0.0, 8)
    spec = evaluation.beampattern(w, evaluation.default_grid(0.1))
    assert spec.angles_deg[int(np.argmax(spec.values_db))] == pytest.approx(0.0, abs=1e-9)
    assert np.max(spec.values_db) == pytest.approx(0.0, abs=1e-12)


def test_beampattern_flat_for_scaled_identity():
    w = 0.7 * np.eye(4)
    spec = evaluation.beampattern(w, evaluation.default_grid(0.5))
    assert np.max(np.abs(spec.values_db)) <= 1e-10


def test_beampattern_grid_size():
    spec = evaluation.beampattern(np.ones(4), evaluation.default_grid(0.1))
    assert spec.angles_deg.size == 1801


@pytest.mark.parametrize("step, half", [(0.05, 1800), (0.1, 900), (0.25, 360), (0.3, 300)])
def test_default_grid_unchanged_for_steps_dividing_90(step, half):
    assert np.array_equal(evaluation.default_grid(step), np.arange(-half, half + 1) * step)


@pytest.mark.parametrize("step", [0.07, 0.13, 0.33, 7.0, 60.0])
def test_default_grid_stays_inside_endfire(step):
    grid = evaluation.default_grid(step)
    assert grid[0] >= -90.0 and grid[-1] <= 90.0
    assert grid[-1] + step > 90.0            # no room for one more point
    assert 0.0 in grid
    assert np.array_equal(grid, -grid[::-1])
    np.testing.assert_allclose(np.diff(grid), step, rtol=1e-12)


def test_capon_strong_source_peak():
    cfg = make_config(n_slots=100)
    inst = make_instance(cfg, ScattererModel.point(0.0, 200.0))
    w = np.sqrt(cfg.power_budget) * model.steering_vector(0.0, cfg.n_tx) / np.sqrt(cfg.n_tx)
    y = model.simulate_echo(inst, w, seed=3)
    grid = evaluation.default_grid(0.1)
    spec = evaluation.capon_spectrum(y, grid)
    peak = spec.angles_deg[int(np.argmax(spec.values_db))]
    assert abs(peak) <= 0.1 + 1e-9
    assert np.max(spec.values_db) == pytest.approx(0.0, abs=1e-12)


def test_capon_pure_noise_is_flat():
    cfg = make_config(n_slots=2000)
    inst = make_instance(cfg, ScattererModel.point(0.0, 0.0))
    y = model.simulate_echo(inst, np.ones(cfg.n_tx), seed=4)
    spec = evaluation.capon_spectrum(y, evaluation.default_grid(0.5))
    assert np.max(spec.values_db) - np.min(spec.values_db) <= 3.0


def test_capon_matches_per_angle_reference():
    cfg = make_config(n_slots=40)
    inst = make_instance(cfg, ScattererModel.point(15.0, 5.0))
    w = np.sqrt(cfg.power_budget) * model.steering_vector(15.0, cfg.n_tx) / np.sqrt(cfg.n_tx)
    y = model.simulate_echo(inst, w, seed=12)
    grid = evaluation.default_grid(0.25)
    load = 1e-2
    spec = evaluation.capon_spectrum(y, grid, diagonal_load=load)
    cov = y @ y.conj().T / cfg.n_slots
    cov += load * (np.trace(cov).real / cfg.n_rx) * np.eye(cfg.n_rx)
    power = []
    for theta in grid:
        b = model.steering_vector(theta, cfg.n_rx)
        power.append(1.0 / np.vdot(b, np.linalg.solve(cov, b)).real)
    power = np.array(power)
    np.testing.assert_allclose(10.0 ** (spec.values_db / 10.0), power / power.max(), rtol=1e-12)


def test_mle_noiseless_exact():
    cfg = make_config(radar_noise=1.0)
    inst = make_instance(cfg, ScattererModel.point(0.0, 1.0))
    w = np.sqrt(cfg.power_budget) * model.steering_vector(0.0, cfg.n_tx) / np.sqrt(cfg.n_tx)
    draw = model.simulate_echo_parts(inst, w, seed=6)
    clean = draw.y - draw.noise  # noiseless echo, target only
    grid = evaluation.default_grid(0.05)
    est = evaluation.mle_angle(clean, w, inst, grid, tx_data=draw.tx_data)
    assert est == pytest.approx(0.0, abs=1e-12)
    est_free = evaluation.mle_angle(clean, w, inst, grid)
    assert est_free == pytest.approx(0.0, abs=1e-12)


def test_mle_high_snr_concentration():
    # high radar SNR (well above the 20 dB mark): nearly all estimates
    # inside 0.2 degrees
    cfg = make_config()
    snr_db = 30.0
    strength = evaluation.strength_for_radar_snr(snr_db, cfg)
    inst = make_instance(cfg, ScattererModel.point(0.0, strength))
    w = np.sqrt(cfg.power_budget) * model.steering_vector(0.0, cfg.n_tx) / np.sqrt(cfg.n_tx)
    grid = evaluation.default_grid(0.05)
    hits = 0
    trials = 200
    for trial in range(trials):
        draw = model.simulate_echo_parts(inst, w, seed=[7, trial])
        est = evaluation.mle_angle(draw.y, w, inst, grid, tx_data=draw.tx_data)
        hits += abs(est) <= 0.2
    assert hits >= int(0.95 * trials)


def _reference_mle(y, w_mat, inst, grid, tx_data=None):
    """The matched-subspace (or, without tx_data, beamforming) statistic
    evaluated one grid angle at a time."""
    cfg = inst.config
    stats = []
    for theta in grid:
        b = model.steering_vector(theta, cfg.n_rx)
        if tx_data is None:
            stats.append(float(np.real(b.conj() @ y @ y.conj().T @ b)))
            continue
        c = tx_data.conj().T @ (w_mat.conj().T @ model.steering_vector(theta, cfg.n_tx))
        norm = float(np.vdot(c, c).real)
        stats.append(abs(b.conj() @ y @ c) ** 2 / norm if norm > 0.0 else 0.0)
    return float(grid[int(np.argmax(stats))])


@pytest.mark.parametrize("n_users", [1, 3])
def test_mle_estimator_matches_per_angle_reference(n_users):
    cfg = make_config(n_users=n_users, rate_targets=(1.0,) * n_users)
    rng = np.random.default_rng(40 + n_users)
    w = rng.standard_normal((cfg.n_tx, n_users)) + 1j * rng.standard_normal((cfg.n_tx, n_users))
    w *= np.sqrt(cfg.power_budget) / np.linalg.norm(w)
    grid = evaluation.default_grid(0.25)
    for snr_db in (-10.0, 20.0):
        strength = evaluation.strength_for_radar_snr(snr_db, cfg)
        inst = make_instance(cfg, ScattererModel.point(12.0, strength))
        estimate = evaluation.mle_estimator(w, inst, grid)
        for trial in range(10):
            draw = model.simulate_echo_parts(inst, w, seed=[5, n_users, trial])
            for tx_data in (draw.tx_data, None):
                assert estimate(draw.y, tx_data) == _reference_mle(draw.y, w, inst, grid, tx_data)


def test_mle_estimator_reused_equals_fresh_mle_angle():
    cfg = make_config()
    inst = make_instance(cfg, ScattererModel.point(-20.0, evaluation.strength_for_radar_snr(0.0, cfg)))
    w = np.sqrt(cfg.power_budget) * model.steering_vector(-20.0, cfg.n_tx) / np.sqrt(cfg.n_tx)
    grid = evaluation.default_grid(0.05)
    estimate = evaluation.mle_estimator(w, inst, grid)
    for trial in range(8):
        draw = model.simulate_echo_parts(inst, w, seed=[8, trial])
        for tx_data in (draw.tx_data, None):
            assert estimate(draw.y, tx_data) == evaluation.mle_angle(draw.y, w, inst, grid,
                                                                     tx_data=tx_data)


def test_mle_estimator_zero_tx_data_is_finite():
    # every transmit filter norm is 0, so the denom > 0 guard sets the whole
    # statistic to 0 and the search returns the first grid angle
    cfg = make_config(n_users=3, rate_targets=(1.0,) * 3)
    inst = make_instance(cfg, ScattererModel.point(12.0, 1.0))
    w = np.sqrt(cfg.power_budget / (cfg.n_tx * 3)) * np.ones((cfg.n_tx, 3), dtype=complex)
    grid = evaluation.default_grid(0.25)
    draw = model.simulate_echo_parts(inst, w, seed=13)
    est = evaluation.mle_estimator(w, inst, grid)(draw.y, np.zeros_like(draw.tx_data))
    assert np.isfinite(est)
    assert est == grid[0]


def test_strength_for_radar_snr_roundtrip():
    cfg = make_config()
    strength = evaluation.strength_for_radar_snr(20.0, cfg)
    snr = 10.0 * np.log10(strength * cfg.n_slots * cfg.power_budget / cfg.radar_noise)
    assert snr == pytest.approx(20.0, rel=1e-12)


def test_sweep_spec_validation():
    with pytest.raises(Exception):
        evaluation.SweepSpec(variable="bogus", grid=(1.0,), scheme="closed")
    with pytest.raises(Exception):
        evaluation.SweepSpec(variable="radar_snr_db", grid=(), scheme="closed")
    with pytest.raises(Exception):
        evaluation.SweepSpec(variable="radar_snr_db", grid=(3.0, 1.0), scheme="closed")


def _scenario_for_rmse():
    cfg = make_config(rate_targets=(2.0,))
    channel = model.rayleigh_channel(1, cfg.n_tx, 11)
    return Scenario(cfg, ScattererModel.point(0.0, 1.0), None, channel)


def test_rmse_single_trial_is_absolute_error():
    scenario = _scenario_for_rmse()
    spec = evaluation.SweepSpec(variable="radar_snr_db", grid=(10.0,),
                                scheme="closed", trials=1, seed=3)
    [point] = evaluation.rmse_sweep(spec, scenario)
    assert point.rmse_deg == pytest.approx(abs(point.estimates_deg[0] - 0.0), rel=1e-12)
    assert point.trials == 1


def test_rmse_trials_prefix_deterministic():
    scenario = _scenario_for_rmse()
    spec_small = evaluation.SweepSpec(variable="radar_snr_db", grid=(5.0,),
                                      scheme="closed", trials=5, seed=9)
    spec_big = evaluation.SweepSpec(variable="radar_snr_db", grid=(5.0,),
                                    scheme="closed", trials=10, seed=9)
    [small] = evaluation.rmse_sweep(spec_small, scenario)
    [big] = evaluation.rmse_sweep(spec_big, scenario)
    assert big.estimates_deg[:5] == small.estimates_deg


def test_rmse_decreases_with_snr():
    scenario = _scenario_for_rmse()
    spec = evaluation.SweepSpec(variable="radar_snr_db", grid=(-10.0, 20.0),
                                scheme="closed", trials=60, seed=1)
    low, high = evaluation.rmse_sweep(spec, scenario)
    assert high.rmse_deg < low.rmse_deg


def test_rmse_sweep_estimates_are_pinned():
    # recorded from the three-operand einsum statistic; each estimate is
    # pinned as its index on the 0.05-degree grid
    scenario = _scenario_for_rmse()
    spec = evaluation.SweepSpec(variable="radar_snr_db", grid=(-10.0, 20.0),
                                scheme="closed", trials=20, seed=2)
    low, high = evaluation.rmse_sweep(spec, scenario)
    pinned = {
        -10.0: [94, -133, 52, 90, -812, -141, -15, -39, -247, -33,
                840, -414, -13, -132, 23, 8, 90, 133, 100, -732],
        20.0: [-1, -4, -1, 4, 4, -2, 8, 87, 1, 1, 9, -1, 0, 0, 6, 3, 2, 1, 1, 0],
    }
    for point in (low, high):
        assert point.estimates_deg == tuple((np.array(pinned[point.value]) * 0.05).tolist())
    assert low.rmse_deg == pytest.approx(16.76004549516498, rel=1e-12)
    assert high.rmse_deg == pytest.approx(0.988812419015862, rel=1e-12)
