"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Reference-scale settings throughout: 6x6 antennas, 30 slots, 40 dBm budget,
20/30 dBm noise floors, point target at broadside with unit strength, and
(where present) interference from [-30, -25] degrees.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from mibeam import dispatch, evaluation, linalg, mm, model, sdr
from mibeam.dispatch import SolverOptions
from mibeam.model import ScattererModel, Scenario, SystemConfig
import reference

POWER_W = 10.0       # 40 dBm
COMM_NOISE_W = 0.1   # 20 dBm
RADAR_NOISE_W = 1.0  # 30 dBm
KNEE_CHANNEL_SEED = 6  # |h^H a(0)|^2 sits inside the knee window for r = 6


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def reference_config(n_users=1, rate=6.0, n_slots=30, power=POWER_W):
    return SystemConfig(n_tx=6, n_rx=6, n_users=n_users, n_slots=n_slots,
                        power_budget=power, comm_noise=COMM_NOISE_W,
                        radar_noise=RADAR_NOISE_W, rate_targets=(rate,) * n_users,
                        rng_seed=0)


def single_scenario(channel_seed, interference=None, rate=6.0, beta2=1.0):
    cfg = reference_config(rate=rate)
    channel = model.rayleigh_channel(1, cfg.n_tx, channel_seed)
    return Scenario(cfg, ScattererModel.point(0.0, beta2), interference, channel)


def extended_interference(strength=100.0, count=50):
    return ScattererModel.extended(-30.0, -25.0, count, strength)


def point_interference(strength=100.0):
    return ScattererModel.point(-30.0, strength)


@pytest.fixture(scope="module")
def ordering_runs():
    """Closed / SDR / MM solves of the three interference regimes, one channel.

    The MM run gets an iteration budget large enough to reach its stopping
    rule (neither criterion 3 nor 4 pins the iteration cap, only wall time).
    """
    runs = {}
    for scheme, interference, opts in (
            ("closed", None, SolverOptions()),
            ("sdr", point_interference(), SolverOptions()),
            ("mm-single", extended_interference(), SolverOptions(max_iters=30000))):
        scenario = single_scenario(1, interference)
        runs[scheme] = (scenario, dispatch.solve_scenario(scenario, scheme, opts))
    return runs


@pytest.fixture(scope="module")
def extended_runs():
    """Twenty extended-interference instances solved by the MM algorithm."""
    runs = []
    for channel_seed in range(1, 21):
        scenario = single_scenario(channel_seed, extended_interference())
        inst = model.build_instance(scenario)
        report = mm.solve_single_user(inst)
        runs.append((scenario, inst, report))
    return runs


def test_criterion_01_closed_form_matches_sdr():
    started = time.perf_counter()
    worst = 0.0
    for channel_seed in range(101, 121):
        scenario_cf = single_scenario(channel_seed)
        mi_cf = dispatch.solve_scenario(scenario_cf, "closed").mi_nats
        scenario_sdr = single_scenario(channel_seed, point_interference(1e-12))
        mi_sdr = dispatch.solve_scenario(scenario_sdr, "sdr").mi_nats
        worst = max(worst, abs(mi_sdr - mi_cf) / abs(mi_cf))
    elapsed = time.perf_counter() - started
    _report("criterion 1 (closed form = SDR without interference)",
            worst <= 1e-2 and elapsed < 10.0,
            f"worst relative MI difference {worst:.2e} over 20 instances, "
            f"{elapsed:.1f}s")


def test_criterion_02_rate_tradeoff_knee():
    started = time.perf_counter()
    mis = []
    for rate in range(1, 8):
        scenario = single_scenario(KNEE_CHANNEL_SEED, rate=float(rate))
        mis.append(dispatch.solve_scenario(scenario, "closed").mi_bits)
    flat = max(abs(v - mis[0]) for v in mis[:6])
    drop = mis[5] - mis[6]
    elapsed = time.perf_counter() - started
    _report("criterion 2 (rate-tradeoff knee at r = 7)",
            flat <= 1e-6 and drop > 1e-6 and elapsed < 5.0,
            f"flat spread {flat:.1e} bits for r<=6, drop {drop:.3e} bits at r=7, "
            f"{elapsed:.1f}s")


def test_criterion_03_interference_ordering(ordering_runs):
    started = time.perf_counter()
    mi_no = ordering_runs["closed"][1].mi_nats
    mi_pt = ordering_runs["sdr"][1].mi_nats
    mi_ext = ordering_runs["mm-single"][1].mi_nats
    ok = (mi_no >= mi_pt >= mi_ext) and (mi_no - mi_ext) > (mi_no - mi_pt)
    elapsed = time.perf_counter() - started
    _report("criterion 3 (interference ordering at 40 dBm)", ok,
            f"MI nats: none {mi_no:.4f} >= point {mi_pt:.4f} >= extended "
            f"{mi_ext:.4f}, {elapsed:.1f}s")


def test_criterion_04_beampattern_agreement_and_suppression(ordering_runs):
    started = time.perf_counter()
    mains = {scheme: evaluation.beampattern_dbw(run.w, 0.0)
             for scheme, (_, run) in ordering_runs.items()}
    spread = max(mains.values()) - min(mains.values())

    w_ext = ordering_runs["mm-single"][1].w
    spectrum = evaluation.beampattern(w_ext, evaluation.default_grid(0.1))
    own_main = spectrum.values_db[np.argmin(np.abs(spectrum.angles_deg))]
    band = (spectrum.angles_deg >= -30.0) & (spectrum.angles_deg <= -25.0)
    suppression = own_main - float(np.max(spectrum.values_db[band]))
    elapsed = time.perf_counter() - started
    _report("criterion 4 (mainlobe agreement and interference-band suppression)",
            spread <= 0.5 and suppression >= 5.0,
            f"mainlobe spread {spread:.3f} dB across schemes, suppression "
            f"{suppression:.1f} dB, {elapsed:.1f}s")


def test_criterion_05_mm_monotone_and_termination(extended_runs):
    worst_dip = 0.0
    converged = 0
    max_iters = 0
    for _, _, report in extended_runs:
        diffs = np.diff(np.asarray(report.mi_trace))
        if diffs.size:
            worst_dip = max(worst_dip, max(0.0, -float(diffs.min())))
        converged += report.status == "converged"
        max_iters = max(max_iters, report.iterations)
    monotone_ok = worst_dip <= 1e-9
    termination_ok = converged == len(extended_runs)
    _report("criterion 5 (MM monotone ascent and termination by eps1 within 2000)",
            monotone_ok and termination_ok,
            f"worst trace dip {worst_dip:.1e} nats (monotone "
            f"{'ok' if monotone_ok else 'violated'}); {converged}/20 instances "
            f"terminated by eps1 within 2000 iterations (max used {max_iters})")


def test_criterion_06_kkt_certificate(extended_runs):
    worst_resid = 0.0
    worst_comp = 0.0
    for _, _, report in extended_runs:
        worst_resid = max(worst_resid, report.kkt_residual)
        worst_comp = max(worst_comp, report.comp_power, report.comp_rate)
    _report("criterion 6 (KKT certificate at termination)",
            worst_resid <= 1e-4 and worst_comp <= 1e-6,
            f"worst stationarity residual {worst_resid:.2e} (tol 1e-4), worst "
            f"complementarity product {worst_comp:.2e} (tol 1e-6)")


def test_criterion_07_surrogate_validity():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_touch = 0.0
    worst_gap = -np.inf
    checked = 0
    for instance_seed in range(10):
        scenario = single_scenario(200 + instance_seed, extended_interference())
        inst = model.build_instance(scenario)
        cfg = inst.config
        h = inst.channel[0].conj()
        omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
        while True:
            w_ref = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
            w_ref *= np.sqrt(cfg.power_budget) / np.linalg.norm(w_ref)
            if abs(np.vdot(h, w_ref)) ** 2 >= omega:
                break
        sur = mm.build_surrogate(inst, w_ref)
        g_ref = model.mutual_information(inst, w_ref)
        touch = reference.surrogate_value(inst, sur, w_ref, w_ref)
        worst_touch = max(worst_touch, abs(touch - g_ref) / abs(g_ref))
        for _ in range(5):
            probe = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
            probe *= np.sqrt(cfg.power_budget) / np.linalg.norm(probe)
            gap = (reference.surrogate_value(inst, sur, w_ref, probe)
                   - model.mutual_information(inst, probe))
            worst_gap = max(worst_gap, gap)
            checked += 1
    elapsed = time.perf_counter() - started
    _report("criterion 7 (surrogate touches and minorizes)",
            worst_touch <= 1e-8 and worst_gap <= 1e-8 and elapsed < 60.0,
            f"worst touching error {worst_touch:.1e} rel, worst minorization "
            f"excess {worst_gap:.1e} over {checked} probes, {elapsed:.1f}s")


def test_criterion_08_stacking_identity_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    shapes = [(6, 6, 3), (6, 6, 1), (4, 6, 2), (6, 4, 3), (3, 2, 2)]
    checked = 0
    exact = True
    while checked < 100:
        n_tx, n_rx, n_users = shapes[checked % len(shapes)]
        f_map = model.vec_expansion_matrix(n_tx, n_rx, n_users)
        w = rng.standard_normal((n_tx, n_users)) + 1j * rng.standard_normal((n_tx, n_users))
        lhs = linalg.vec(reference.expand_beamformer(w, n_rx))
        rhs = f_map @ linalg.vec(w).conj()
        exact = exact and np.array_equal(lhs, rhs)
        checked += 1
    elapsed = time.perf_counter() - started
    _report("criterion 8 (stacking identity exact)",
            exact and elapsed < 5.0,
            f"{checked} random beamformers, zero error, {elapsed:.1f}s")


def test_criterion_09_power_monotone_in_multiplier():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_rise = 0.0
    for instance_seed in range(10):
        scenario = single_scenario(300 + instance_seed, extended_interference())
        inst = model.build_instance(scenario)
        cfg = inst.config
        h = inst.channel[0].conj()
        w_ref = np.sqrt(cfg.power_budget) * h / np.linalg.norm(h)
        sur = mm.build_surrogate(inst, w_ref)
        curv = mm.ShiftedCurvature(sur, mm.rate_cuts(inst), w_ref)
        powers = []
        for tau in np.linspace(1e-6, 2.0, 20):
            w, _ = mm.rate_constrained_step(curv, tau)
            powers.append(float(np.linalg.norm(w) ** 2))
        rises = np.diff(powers)
        worst_rise = max(worst_rise, max(0.0, float(rises.max())))
    elapsed = time.perf_counter() - started
    _report("criterion 9 (transmit power non-increasing in the multiplier)",
            worst_rise <= 1e-9 * POWER_W and elapsed < 60.0,
            f"worst rise {worst_rise:.1e} W over 10 instances x 20-point grids, "
            f"{elapsed:.1f}s")


def _ball_samples(rng, n_tx, p0, count):
    w = rng.standard_normal((count, n_tx)) + 1j * rng.standard_normal((count, n_tx))
    w *= (np.sqrt(p0) / np.linalg.norm(w, axis=1))[:, None]
    radius = rng.uniform(0.0, 1.0, count) ** (1.0 / (2.0 * n_tx))
    # half the budget of samples explores the interior, half the surface
    surface = rng.uniform(0.0, 1.0, count) < 0.5
    return w * np.where(surface, 1.0, radius)[:, None]


def _mi_samples(w, inst):
    """Vectorized exact MI for K = 1 instances (any N_R)."""
    cfg = inst.config
    n_tx, n_rx = cfg.n_tx, cfg.n_rx
    interf_cov = reference.interf_cov(inst)
    both4 = (reference.target_cov(inst) + interf_cov).reshape(n_rx, n_tx, n_rx, n_tx)
    intf4 = interf_cov.reshape(n_rx, n_tx, n_rx, n_tx)
    scale = float(cfg.n_slots)
    noise = cfg.radar_noise

    def logdet_noise(cov4):
        quad = np.einsum("si,minj,sj->smn", w.conj(), cov4, w)
        mats = scale * quad + noise * np.eye(n_rx)[None]
        sign, logdet = np.linalg.slogdet(mats)
        return logdet

    return logdet_noise(both4) - logdet_noise(intf4)


def test_criterion_10_desk_scale_optimality():
    # three desk-scale instances (channel seeds 0..2), unit-strength
    # scatterers; each solver must land within 1% of the best of 1e6
    # feasible random samples
    started = time.perf_counter()
    cfg = SystemConfig(n_tx=3, n_rx=2, n_users=1, n_slots=30,
                       power_budget=POWER_W, comm_noise=COMM_NOISE_W,
                       radar_noise=RADAR_NOISE_W, rate_targets=(2.0,), rng_seed=0)
    omega = model.rate_power_threshold(2.0, COMM_NOISE_W)
    details = []
    ok = True
    for channel_seed in (0, 1, 2):
        channel = model.rayleigh_channel(1, 3, channel_seed)
        h = channel[0].conj()
        rng = np.random.default_rng(10 + channel_seed)
        for scheme, interference in (
                ("mm-single", ScattererModel.extended(-30.0, -25.0, 2, 1.0)),
                ("sdr", ScattererModel.point(-30.0, 1.0))):
            scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0), interference,
                                channel)
            inst = model.build_instance(scenario)
            mi_solver = dispatch.solve_scenario(scenario, scheme).mi_nats
            best = -np.inf
            for _ in range(10):
                cands = _ball_samples(rng, 3, POWER_W, 100_000)
                feasible = np.abs(cands @ h.conj()) ** 2 >= omega
                if np.any(feasible):
                    best = max(best, float(np.max(_mi_samples(cands[feasible], inst))))
            ok = ok and mi_solver >= 0.99 * best
            details.append(f"{scheme}@{channel_seed}: {mi_solver:.4f}/{best:.4f}")
    elapsed = time.perf_counter() - started
    _report("criterion 10 (desk-scale optimality vs 1e6-sample oracle)",
            ok and elapsed < 600.0, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_11_mi_reduction_consistency():
    # unit-strength scatterers: the identity is exact in exact arithmetic
    # and the 1e-9 absolute tolerance leaves no room for the float64
    # roundoff that 1e2-strength covariances would inject at L N_R = 180
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for n_slots in (5, 30):
        cfg = reference_config(n_users=3, rate=6.0, n_slots=n_slots)
        channel = model.rayleigh_channel(3, cfg.n_tx, 11)
        scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0),
                            extended_interference(1.0), channel)
        inst = model.build_instance(scenario)
        for _ in range(5):
            w = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            raw = rng.standard_normal((n_slots, 3)) + 1j * rng.standard_normal((n_slots, 3))
            q, _ = np.linalg.qr(raw)
            s = np.sqrt(n_slots) * q.conj().T
            wt = reference.expand_beamformer(w, cfg.n_rx)
            st = np.kron(np.eye(cfg.n_rx), s.conj().T)
            eye = np.eye(n_slots * cfg.n_rx)

            def unreduced(cov):
                inner = wt @ cov @ wt.conj().T
                return linalg.logdet_hermitian(
                    linalg.hermitianize(st @ inner @ st.conj().T)
                    + cfg.radar_noise * eye)

            interf_cov = reference.interf_cov(inst)
            full = unreduced(reference.target_cov(inst) + interf_cov) - unreduced(interf_cov)
            worst = max(worst, abs(full - model.mutual_information(inst, w)))
    elapsed = time.perf_counter() - started
    _report("criterion 11 (slot-reduction identity with orthogonal frames)",
            worst <= 1e-9 and elapsed < 10.0,
            f"worst |difference| {worst:.1e} nats over L in {{5, 30}}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def multiuser_run():
    cfg = reference_config(n_users=3, rate=6.0)
    channel = model.rayleigh_channel(3, cfg.n_tx, 1)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0),
                        extended_interference(), channel)
    inst = model.build_instance(scenario)
    started = time.perf_counter()
    report = mm.solve_multi_user(inst)
    return scenario, inst, report, time.perf_counter() - started


def test_criterion_12_multiuser_rates(multiuser_run):
    scenario, inst, report, elapsed = multiuser_run
    rates = model.achieved_rates(inst, report.w)
    diffs = np.diff(np.asarray(report.mi_trace))
    ok = bool(np.all(rates >= 6.0 - 1e-6)) and \
        (diffs.size == 0 or float(diffs.min()) >= -1e-9) and elapsed < 900.0
    _report("criterion 12 (three-user rates met with monotone trace)", ok,
            f"rates {np.round(rates, 6).tolist()} bits, min trace step "
            f"{float(diffs.min()):.1e}, status {report.status}, {elapsed:.0f}s")


def test_criterion_13_capon_reproduction():
    started = time.perf_counter()
    grid = evaluation.default_grid(0.1)
    details = []
    ok = True
    for label, beta2, interference, expect in (
            ("weak-free", 25.0, None, "target"),
            ("weak", 25.0, extended_interference(1.0), "target"),
            ("strong", 1.0, extended_interference(100.0), "interference")):
        cfg = reference_config(n_users=3, rate=6.0)
        channel = model.rayleigh_channel(3, cfg.n_tx, 1)
        scenario = Scenario(cfg, ScattererModel.point(0.0, beta2), interference, channel)
        inst = model.build_instance(scenario)
        report = mm.solve_multi_user(inst)
        echo = model.simulate_echo(inst, report.w, seed=13)
        spectrum = evaluation.capon_spectrum(echo, grid)
        peak_angle = float(spectrum.angles_deg[int(np.argmax(spectrum.values_db))])
        if expect == "target":
            case_ok = abs(peak_angle) <= 0.1 + 1e-9
        else:
            band = (spectrum.angles_deg >= -30.0) & (spectrum.angles_deg <= -25.0)
            near0 = np.abs(spectrum.angles_deg) <= 0.5
            case_ok = float(np.max(spectrum.values_db[band])) > \
                float(np.max(spectrum.values_db[near0]))
        ok = ok and case_ok
        details.append(f"{label}: peak at {peak_angle:+.1f} deg "
                       f"({'ok' if case_ok else 'wrong'})")
    elapsed = time.perf_counter() - started
    _report("criterion 13 (Capon spectra: weak interference suppressed, strong "
            "interference dominates)", ok and elapsed < 120.0,
            "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_14_rmse_ordering():
    # the angle-estimation comparison runs without echo interference (the
    # baseline metrics it is measured against cannot handle any), three
    # users at 4 bits each
    started = time.perf_counter()
    cfg = reference_config(n_users=3, rate=4.0)
    channel = model.rayleigh_channel(3, cfg.n_tx, 1)
    scenario = Scenario(cfg, ScattererModel.point(0.0, 1.0), None, channel)
    spec = evaluation.SweepSpec(variable="radar_snr_db", grid=(-10.0, 20.0),
                                scheme="mm-multi", trials=200, seed=14)
    low, high = evaluation.rmse_sweep(spec, scenario)
    elapsed = time.perf_counter() - started
    _report("criterion 14 (angle RMSE improves with radar SNR)",
            high.rmse_deg < low.rmse_deg and elapsed < 1200.0,
            f"RMSE {low.rmse_deg:.3f} deg at -10 dB vs {high.rmse_deg:.3f} deg "
            f"at +20 dB, 200 trials each, {elapsed:.0f}s")


def test_criterion_15_runtime_ordering(extended_runs):
    started = time.perf_counter()
    closed_times, sdr_times = [], []
    for channel_seed in (31, 32, 33):
        scenario = single_scenario(channel_seed)
        closed_times.append(dispatch.solve_scenario(scenario, "closed").wall_time_s)
        scenario_pt = single_scenario(channel_seed, point_interference())
        sdr_times.append(dispatch.solve_scenario(scenario_pt, "sdr").wall_time_s)
    mm_times = [report.wall_time_s for _, _, report in extended_runs]
    med_closed = float(np.median(closed_times))
    med_sdr = float(np.median(sdr_times))
    med_mm = float(np.median(mm_times))
    elapsed = time.perf_counter() - started
    _report("criterion 15 (median runtime: closed < SDR < MM)",
            med_closed < med_sdr < med_mm,
            f"medians {med_closed * 1e3:.2f} ms < {med_sdr * 1e3:.1f} ms < "
            f"{med_mm:.2f} s, {elapsed:.1f}s")
