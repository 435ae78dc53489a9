"""Multi-user MM: the full-power step, the K-user KKT certificate, and an
exact SDR optimum for designs without echo interference."""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from mibeam import conic, evaluation, mm, model
from mibeam.config import parse_config
from mibeam.model import ScattererModel, Scenario, SystemConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
POWER_W = 10.0


def reference_config(rate):
    return SystemConfig(n_tx=6, n_rx=6, n_users=3, n_slots=30, power_budget=POWER_W,
                        comm_noise=0.1, radar_noise=1.0, rate_targets=(rate,) * 3,
                        rng_seed=0)


def interference_free(channel_seed, strength, rate):
    """Three users, point target at 0 deg, no echo interference."""
    cfg = reference_config(rate)
    channel = model.rayleigh_channel(cfg.n_users, cfg.n_tx, channel_seed)
    return model.build_instance(
        Scenario(cfg, ScattererModel.point(0.0, strength), None, channel))


def multi_user_config_instance():
    return model.build_instance(parse_config(CONFIGS / "multi_user.yaml").scenario)


def _blockdiag(blocks):
    n = blocks[0].shape[0]
    out = np.zeros((n * len(blocks),) * 2, dtype=complex)
    for j, block in enumerate(blocks):
        out[j * n:(j + 1) * n, j * n:(j + 1) * n] = block
    return out


def sdr_relaxation(inst) -> conic.SdpProblem:
    """The K-user design without echo interference as a linear SDP.

    The MI of the point target increases with a^H (sum_k w_k w_k^H) a, so
    with the diagonal blocks X_kk of X >= 0 in place of w_k w_k^H the
    relaxation minimizes -Tr(blockdiag(a a^H) X) under Tr X <= P0 and, per
    user k, Tr(H_k X_kk) - nu_k sum_{j != k} Tr(H_k X_jj) >= nu_k sigma^2,
    H_k = h_k h_k^H.  It is tight: some optimum has rank-one blocks (Huang &
    Palomar, IEEE TSP 2010).
    """
    cfg = inst.config
    a = model.steering_vector(0.0, cfg.n_tx)
    constraints = [conic.TraceConstraint(mat=np.eye(cfg.n_tx * cfg.n_users, dtype=complex),
                                         bound=cfg.power_budget, sense="le")]
    for k in range(cfg.n_users):
        h_k = inst.channel[k].conj()
        gram = np.outer(h_k, h_k.conj())
        nu_k = 2.0 ** cfg.rate_targets[k] - 1.0
        mat = _blockdiag([gram if j == k else -nu_k * gram for j in range(cfg.n_users)])
        constraints.append(conic.TraceConstraint(mat=mat, bound=nu_k * cfg.comm_noise,
                                                 sense="ge"))
    obj = -_blockdiag([np.outer(a, a.conj())] * cfg.n_users)
    return conic.SdpProblem(dim=obj.shape[0], obj_mat=obj, obj_t=0.0,
                            trace_constraints=tuple(constraints))


@functools.lru_cache(maxsize=None)
def sdr_design(channel_seed, rate):
    """Beamformer of the SDR optimum, from its rank-one diagonal blocks.

    A positive target strength only scales the objective, so one solve
    serves every strength.  The gap tolerance is tighter than the default,
    which leaves the blocks rank one only to about 1e-8.
    """
    inst = interference_free(channel_seed, 1.0, rate)
    report = conic.solve_sdp(sdr_relaxation(inst), tol=1e-10)
    assert report.status == conic.OPTIMAL
    n = inst.config.n_tx
    columns = []
    for k in range(inst.config.n_users):
        vals, vecs = np.linalg.eigh(report.solution[k * n:(k + 1) * n, k * n:(k + 1) * n])
        assert abs(vals[-2]) <= 1e-9 * vals[-1]
        columns.append(np.sqrt(vals[-1]) * vecs[:, -1])
    return np.stack(columns, axis=1)


def _strength(snr_db):
    return evaluation.strength_for_radar_snr(snr_db, reference_config(4.0))


# (channel seed, target strength, rate, relative MI tolerance against the SDR)
SDR_CASES = {
    "rmse-eval -10 dB": (1, _strength(-10.0), 4.0, 1e-6),
    "rmse-eval +20 dB": (1, _strength(20.0), 4.0, 1e-6),
    "criterion-14 shape ch 1": (1, 1.0, 4.0, 1e-6),
    "criterion-14 shape ch 2": (2, 1.0, 4.0, 1e-6),
    "criterion-14 shape ch 3": (3, 1.0, 4.0, 1e-6),
    # the gap left here is the subproblem's barrier slack
    "criterion-13 weak-free": (1, 25.0, 6.0, 1e-5),
}


@pytest.mark.parametrize("case", list(SDR_CASES))
def test_multi_user_reaches_sdr_optimum(case):
    channel_seed, strength, rate, rtol = SDR_CASES[case]
    inst = interference_free(channel_seed, strength, rate)
    report = mm.solve_multi_user(inst)
    mi_sdr = model.mutual_information(inst, sdr_design(channel_seed, rate))
    assert report.status == "converged"
    assert report.kkt_residual <= 1e-6
    assert np.linalg.norm(report.w) ** 2 == pytest.approx(POWER_W, rel=1e-12)
    assert report.mi_trace[-1] == pytest.approx(mi_sdr, rel=rtol)
    assert np.all(model.achieved_rates(inst, report.w) >= rate - 1e-6)


def test_criterion_14_designs_take_few_maps(monkeypatch):
    # a deterministic work count in place of wall time: the two designs of
    # the criterion-14 sweep took 955 maps in all while each subproblem
    # solution was kept below full power, and take 93 with the full-power
    # step and the certificate polish
    reports = []
    solve = mm.solve_multi_user

    def recording(inst, **kwargs):
        reports.append(solve(inst, **kwargs))
        return reports[-1]

    monkeypatch.setattr(mm, "solve_multi_user", recording)
    cfg = reference_config(4.0)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0), None,
                        model.rayleigh_channel(3, cfg.n_tx, 1))
    spec = evaluation.SweepSpec(variable="radar_snr_db", grid=(-10.0, 20.0),
                                scheme="mm-multi", trials=1, seed=14)
    evaluation.rmse_sweep(spec, scenario)
    assert len(reports) == 2
    assert sum(r.iterations for r in reports) <= 150
    for report in reports:
        assert np.linalg.norm(report.w) ** 2 == pytest.approx(POWER_W, rel=1e-12)


def test_multi_user_bounded_run_ends_at_full_power():
    inst = multi_user_config_instance()
    report = mm.solve_multi_user(inst, max_iters=5)
    assert report.status == "max_iterations"
    assert np.linalg.norm(report.w) ** 2 == pytest.approx(inst.config.power_budget, rel=1e-12)
    assert np.isfinite(report.kkt_residual)


def test_scaling_up_raises_mi_and_every_rate():
    # why the full-power step is an ascent step: MI(cW) and every SINR grow
    # with c > 1, here under the shipped config's extended interference
    inst = multi_user_config_instance()
    rng = np.random.default_rng(7)
    scales = (1.0, 1.01, 1.5, 4.0)
    for _ in range(5):
        w = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        mi = [model.mutual_information(inst, c * w) for c in scales]
        rates = np.array([model.achieved_rates(inst, c * w) for c in scales])
        assert np.all(np.diff(mi) > 0.0)
        assert np.all(np.diff(rates, axis=0) > 0.0)


def certificate(inst, w):
    return mm.kkt_certificate(inst, mm.build_surrogate(inst, w), w)


def three_users_optimum_and_start():
    """The SDR optimum without interference; the zero-forcing start of the
    shipped 3-user config."""
    start = multi_user_config_instance()
    return (interference_free(1, 1.0, 4.0), sdr_design(1, 4.0),
            start, mm.zero_forcing_init(start))


def one_user_optimum_and_start():
    """The converged MM design of the shipped single-user config and its
    start, the full-power matched filter."""
    inst = model.build_instance(parse_config(CONFIGS / "single_user_extended.yaml").scenario)
    h = inst.channel[0].conj()
    w_mrt = np.sqrt(inst.config.power_budget) * h / np.linalg.norm(h)
    return inst, mm.solve_single_user(inst).w, inst, w_mrt


@pytest.mark.parametrize("case", [three_users_optimum_and_start, one_user_optimum_and_start],
                         ids=["three_users", "one_user"])
def test_certificate_separates_optimum_from_start(case):
    inst_opt, w_opt, inst_start, w_start = case()
    assert max(certificate(inst_opt, w_opt)) <= 1e-6
    assert certificate(inst_start, w_start)[0] >= 1e-3


def test_nonnegative_fit_matches_enumeration():
    # the active-set fit against the best least-squares fit over every
    # subset of columns with nonnegative coefficients
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((12, 4))
        b = rng.standard_normal(12)
        x = mm._nonnegative_fit(a, b)
        assert np.all(x >= 0.0)
        best = np.linalg.norm(b)
        for size in range(1, 5):
            for cols in itertools.combinations(range(4), size):
                coef = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
                if np.all(coef >= 0.0):
                    best = min(best, np.linalg.norm(a[:, cols] @ coef - b))
        assert np.linalg.norm(a @ x - b) == pytest.approx(best, rel=1e-10, abs=1e-12)
