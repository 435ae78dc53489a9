"""The sensing-subspace reduction of an instance and the solves that use it."""

import re
from dataclasses import replace

import numpy as np
import pytest

from mibeam import conic, dispatch, evaluation, mm, model, sdr
from mibeam.errors import NumericalError
from mibeam.model import ScattererModel, Scenario, SystemConfig

INTERFERERS = {
    "point": ScattererModel.point(-30.0, 100.0),
    "extended": ScattererModel.extended(-30.0, -25.0, 50, 100.0),
    "absent": None,
}


def make_scenario(n_tx, n_users, interference, target_strength=1.0, n_rx=None):
    cfg = SystemConfig(n_tx=n_tx, n_rx=n_rx or n_tx, n_users=n_users, n_slots=30,
                       power_budget=10.0, comm_noise=0.1, radar_noise=1.0,
                       rate_targets=(1.0,) * n_users)
    return Scenario(cfg, ScattererModel.point(0.0, target_strength), interference,
                    model.rayleigh_channel(n_users, n_tx, 3))


def sdr_point_scenario(channel_seed):
    """The point-target, point-interferer SDR instance family (6x6, 40 dBm,
    6 bits/s/Hz), on one raw channel seed."""
    cfg = SystemConfig(n_tx=6, n_rx=6, n_users=1, n_slots=30,
                       power_budget=model.dbm_to_watts(40.0),
                       comm_noise=model.dbm_to_watts(20.0),
                       radar_noise=model.dbm_to_watts(30.0), rate_targets=(6.0,))
    return Scenario(cfg, ScattererModel.point(0.0, 1.0), ScattererModel.point(-30.0, 100.0),
                    model.rayleigh_channel(1, 6, channel_seed))


def thin_set_scenario(slack, interference=True, channel_seed=1):
    """The SDR instance with the rate target that needs received power
    P0 ||h||^2 (1 - slack): strictly feasible, with a feasible set that
    thins as the slack falls."""
    base = sdr_point_scenario(channel_seed)
    cfg = base.config
    omega = cfg.power_budget * float(np.linalg.norm(base.channel) ** 2) * (1.0 - slack)
    rate = float(np.log2(1.0 + omega / cfg.comm_noise))
    return replace(base, config=replace(cfg, rate_targets=(rate,)),
                   interference=base.interference if interference else None)


@pytest.mark.parametrize("n_tx", [3, 6, 16])
@pytest.mark.parametrize("n_users", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(INTERFERERS))
@pytest.mark.parametrize("target_strength", [1.0, 0.0])
def test_reduction_is_exact(n_tx, n_users, kind, target_strength):
    inst = model.build_instance(
        make_scenario(n_tx, n_users, INTERFERERS[kind], target_strength, n_rx=4))
    reduced, basis = model.reduce_instance(inst)
    dim = basis.shape[1]
    assert basis.shape == (n_tx, dim) and reduced.config.n_tx == dim <= n_tx
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(dim), atol=1e-12)
    if dim == n_tx:
        assert reduced is inst
    rng = np.random.default_rng(n_tx * 100 + n_users * 10 + len(kind))
    for _ in range(3):
        z = rng.standard_normal((dim, n_users)) + 1j * rng.standard_normal((dim, n_users))
        w = basis @ z
        full_mi = model.mutual_information(inst, w)
        assert model.mutual_information(reduced, z) == pytest.approx(full_mi, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(model.achieved_rates(reduced, z),
                                   model.achieved_rates(inst, w), rtol=1e-9)
        assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(w), rel=1e-12)


@pytest.mark.parametrize("kind, target_strength, dim", [
    ("point", 1.0, 3), ("absent", 1.0, 2), ("point", 0.0, 2), ("absent", 0.0, 1),
])
def test_reduced_dimension_counts_steering_and_channel_directions(kind, target_strength, dim):
    inst = model.build_instance(make_scenario(16, 1, INTERFERERS[kind], target_strength))
    assert model.reduce_instance(inst)[1].shape[1] == dim


def test_full_rank_steering_span_returns_the_instance_itself():
    inst = model.build_instance(make_scenario(6, 1, INTERFERERS["extended"]))
    reduced, basis = model.reduce_instance(inst)
    assert reduced is inst
    np.testing.assert_array_equal(basis, np.eye(6))


def test_dispatch_reports_the_reduced_dimension():
    scenario = make_scenario(16, 1, INTERFERERS["point"])
    result = dispatch.solve_scenario(scenario, "sdr")
    assert result.extras["reduced_dim"] == 3 and result.w.shape == (16, 1)
    closed = replace(scenario, interference=None)
    assert dispatch.solve_scenario(closed, "closed").extras["reduced_dim"] == 16
    # neither scheme has an MM inner solve or finish
    assert result.extras["inner_steps"] is result.extras["finish_steps"] is None
    closed_extras = dispatch.solve_scenario(closed, "closed").extras
    assert closed_extras["inner_steps"] is closed_extras["finish_steps"] is None


@pytest.mark.parametrize("scheme, n_users", [("mm-single", 1), ("mm-multi", 3)])
def test_silent_target_reduced_solve_reports_zero_certificate(scheme, n_users):
    """Every feasible point is stationary when the MI is identically zero;
    the full-space certificate must say so, not fail on the flat surrogate."""
    scenario = make_scenario(16, n_users, INTERFERERS["extended"], target_strength=0.0)
    result = dispatch.solve_scenario(scenario, scheme)
    assert result.extras["reduced_dim"] < 16
    assert result.status == "converged" and result.mi_nats == 0.0
    assert (result.kkt_residual, result.extras["comp_power"], result.extras["comp_rate"]) \
        == (0.0, 0.0, 0.0)


def test_multi_user_reduced_solve_matches_full_space_solve():
    """Three users without echo interference (rmse-eval at -10 dB) reduce
    to dim 4: the same iterations as the full-space solve, the same MI, and
    a full-space certificate at the level where the finish stops."""
    cfg = SystemConfig(n_tx=6, n_rx=6, n_users=3, n_slots=30, power_budget=10.0,
                       comm_noise=0.1, radar_noise=1.0, rate_targets=(4.0,) * 3)
    strength = evaluation.strength_for_radar_snr(-10.0, cfg)
    scenario = Scenario(cfg, ScattererModel.point(0.0, strength), None,
                        model.rayleigh_channel(3, 6, 1))
    result = dispatch.solve_scenario(scenario, "mm-multi")
    full = mm.solve_multi_user(model.build_instance(scenario))
    assert result.extras["reduced_dim"] == 4
    assert (result.status, result.iterations) == (full.status, full.iterations)
    assert result.mi_nats == pytest.approx(model.mutual_information(
        model.build_instance(scenario), full.w), rel=1e-9)
    assert result.kkt_residual <= mm.FINISH_RTOL


# Design MI (nats) of the full-space SDR on the channels whose SDP ended
# uncentred when a feasibility phase, not a closed-form interior point,
# started it; the reduced SDR centres and beats each of them.
UNCENTRED_SDR_MI = {29: 8.834407590208308, 39: 9.224591638567277, 42: 9.22601464696466}


@pytest.mark.parametrize("channel_seed", sorted(UNCENTRED_SDR_MI))
def test_sdr_on_uncentred_channels_meets_its_bound(channel_seed):
    scenario = sdr_point_scenario(channel_seed)
    result = dispatch.solve_scenario(scenario, "sdr", dispatch.SolverOptions(seed=channel_seed))
    assert result.status == "optimal"
    assert result.extras["reduced_dim"] == 3
    assert result.mi_bits <= result.extras["mi_bound_bits"] * (1.0 + 1e-6)
    assert result.mi_nats >= UNCENTRED_SDR_MI[channel_seed]
    # from its start the full 6x6 SDP centres too, at the reduced bound
    inst = model.build_instance(scenario)
    full = conic.solve_sdp(sdr.build_sdp(inst))
    assert sdr.relaxed_mi_bound(full.aux, inst.config.radar_noise) / np.log(2.0) \
        == pytest.approx(result.extras["mi_bound_bits"], rel=1e-7)


def test_flat_reduced_sdp_ends_at_its_centring_floor():
    """Channel 27's reduced SDP has a flat direction: in the final round the
    merit Hessian's condition number is about 1e15, and the strict centring
    stalls at a squared decrement near 1e-9, above 2 CENTER_TOL.  The
    roundoff-floor test ends it there, centred to the loose tolerance, so
    the whole solve fits in one round's Newton budget."""
    reduced, _ = model.reduce_instance(model.build_instance(sdr_point_scenario(27)))
    report = conic.solve_sdp(sdr.build_sdp(reduced))
    assert report.iterations < conic.NEWTON_PER_ROUND


def test_uncentred_full_space_sdp_is_not_optimal():
    """Channel 4's thin feasible set at relative slack 1e-11: the full 6x6
    SDP ends its final centring far from the centre, so its gap bound
    certifies nothing, and the solve raises."""
    scenario = thin_set_scenario(1e-11, channel_seed=4)
    with pytest.raises(NumericalError, match="decrement") as failure:
        conic.solve_sdp(sdr.build_sdp(model.build_instance(scenario)))
    decrement = re.search(r"half squared decrement (\S+)", str(failure.value)).group(1)
    assert float(decrement) > conic.LOOSE_CENTER_TOL


def test_large_array_single_user_converges_with_full_space_certificate():
    """16x16, strength-100 extended interferer, channel 1: the full-space
    solve hits the iteration cap with a KKT residual near 0.5."""
    cfg = SystemConfig(n_tx=16, n_rx=16, n_users=1, n_slots=30,
                       power_budget=model.dbm_to_watts(40.0),
                       comm_noise=model.dbm_to_watts(20.0),
                       radar_noise=model.dbm_to_watts(30.0), rate_targets=(6.0,))
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0), INTERFERERS["extended"],
                        model.rayleigh_channel(1, 16, 1))
    result = dispatch.solve_scenario(scenario, "mm-single")
    assert result.status == "converged" and result.iterations <= 2000
    assert result.extras["reduced_dim"] < 16
    assert result.kkt_residual <= 1e-6
    inst = model.build_instance(scenario)
    full = mm.kkt_certificate(inst, result.w)
    assert result.kkt_residual == full[0]
