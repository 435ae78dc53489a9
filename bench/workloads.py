"""The benchmark's workloads: input generation, the work of one item, and the
correctness gate every item must pass.

A workload is one experiment config plus a rule for drawing inputs from the
workload seed.  Each item is one generated input and the fixed list of
program calls made on it; the program only ever receives the generated
``Scenario``.  The gate recomputes power, rates and mutual information with
plain numpy from the scenario itself, so it does not trust the program's own
numbers.
"""

from __future__ import annotations

import itertools
import sys
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mibeam" / "__init__.py").is_file():
        raise ImportError(f"no mibeam sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mibeam
    if Path(mibeam.__file__).resolve().parent != (SRC / "mibeam").resolve():
        raise ImportError(f"mibeam resolved to {mibeam.__file__}, not under {SRC}")
    return mibeam


import_program()

from mibeam import config, dispatch, evaluation, model  # noqa: E402
from mibeam.errors import MibeamError  # noqa: E402
from tracer import intercepted  # noqa: E402

# Outer-iteration bound for mm-multi-extended: full solves take 17-39 s, so
# each item is a bounded prefix of one.  The same bound applies on every
# commit compared.
MULTI_MAX_ITERS = 100
# Seed that no benchmark tuning used; a claimed gain must also hold on it.
HELD_OUT_SEED = 4242

POWER_RTOL = 1e-9
RATE_ATOL = 1e-6
TRACE_ATOL = 1e-9
MI_RTOL = 1e-6
# The SDR design's MI may not exceed the relaxation bound by more than this
# share of it.  At the seed code conic.solve_sdp stops short of the relaxed
# optimum, so about one channel in ten beats the reported "bound" by up to
# about 3e-3 of it; the strict excess is reported beside the gate.
SDR_BOUND_RTOL = 1e-2


@dataclass(frozen=True)
class Workload:
    """One config and its fixed work list of ``items`` generated inputs.

    ``channels`` says where each item's channel comes from:

    * ``family``: channel seeds s, s+1, ... after the config's own seed s (the
      acceptance criteria's instance families), the same for every workload
      seed.  An MM solve's cost depends on the channel and only a handful of
      solves fit in a run, so fresh draws would make the run time follow the
      draw rather than the code.
    * ``drawn``: a fresh channel per item drawn from the workload seed.
    * ``config``: the config's channel; only the item seed (the echo seed of
      the evaluation) is drawn from the workload seed.

    Why each workload exists is recorded beside its name in BENCHMARK.json.
    """

    name: str
    config: str                 # relative to the repo root
    items: int
    channels: str
    max_iters: Optional[int] = None


WORKLOADS = {w.name: w for w in (
    Workload("mm-single-extended", "configs/single_user_extended.yaml", 4, "family"),
    Workload("mm-multi-extended", "configs/multi_user.yaml", 10, "family",
             max_iters=MULTI_MAX_ITERS),
    Workload("sdr-point", "bench/configs/sdr_point.yaml", 50, "family"),
    Workload("rmse-eval", "bench/configs/rmse_eval.yaml", 1, "config"),
)}


@dataclass(frozen=True)
class Item:
    index: int
    scenario: model.Scenario
    seed: int  # channel seed, or the echo seed for rmse-eval; also the SDR randomization seed


def load_config(workload: Workload) -> config.ExperimentConfig:
    cfg = config.parse_config(ROOT / workload.config)
    if workload.max_iters is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, max_iters=workload.max_iters))
    return cfg


def zero_forcing_power(channel: np.ndarray, sys_cfg: model.SystemConfig) -> float:
    """Power the zero-forcing beamformer needs to meet every rate target."""
    omegas = (2.0 ** np.asarray(sys_cfg.rate_targets) - 1.0) * sys_cfg.comm_noise
    return float(np.sum(omegas * np.sum(np.abs(np.linalg.pinv(channel)) ** 2, axis=0)))


def work_list(workload: Workload, cfg: config.ExperimentConfig, seed: int) -> list[Item]:
    """The workload's items for one workload seed; deterministic.

    Channels whose rate targets cannot be met within the power budget are
    skipped: those inputs are invalid, and the program rejects them with
    ``Infeasible`` by design.
    """
    rng = np.random.default_rng([zlib.crc32(workload.name.encode()), seed])
    base = cfg.scenario
    sys_cfg = base.config
    family = itertools.count(int(cfg.raw["channel"]["seed"]))
    items = []
    while len(items) < workload.items:
        draw = next(family) if workload.channels == "family" else int(rng.integers(2 ** 31))
        scenario = base
        if workload.channels != "config":
            channel = model.rayleigh_channel(sys_cfg.n_users, sys_cfg.n_tx, draw)
            if not zero_forcing_power(channel, sys_cfg) < sys_cfg.power_budget:
                continue
            scenario = replace(base, channel=channel)
        items.append(Item(len(items), scenario, draw))
    return items


# ---------------------------------------------------------------------------
# Independent oracles and the gate


def _steering(theta_deg: float, n: int) -> np.ndarray:
    return np.exp(-1j * np.pi * np.arange(n) * np.sin(np.deg2rad(theta_deg)))


def rates_bits(channel: np.ndarray, w: np.ndarray, comm_noise: float) -> np.ndarray:
    amps = np.abs(channel @ w) ** 2               # (K users, K streams)
    signal = np.diag(amps)
    interference = amps.sum(axis=1) - signal
    return np.log2(1.0 + signal / (interference + comm_noise))


def mutual_information_nats(scenario: model.Scenario, w: np.ndarray) -> float:
    """Sensing MI from the factored scatterer form: the stacked filter maps
    conj(b) kron a to conj(b) kron (W^H a)."""
    cfg = scenario.config

    def received_cov(scatterer):
        cov = np.zeros((cfg.n_users * cfg.n_rx,) * 2, dtype=complex)
        if scatterer is None:
            return cov
        for theta, strength in zip(scatterer.angles_deg, scatterer.strengths):
            f = np.kron(_steering(theta, cfg.n_rx).conj(), w.conj().T @ _steering(theta, cfg.n_tx))
            cov += strength * np.outer(f, f.conj())
        return cov

    eye = cfg.radar_noise * np.eye(cfg.n_users * cfg.n_rx)
    interf = cfg.n_slots * received_cov(scenario.interference)
    both = interf + cfg.n_slots * received_cov(scenario.target)
    return float(np.linalg.slogdet(both + eye)[1] - np.linalg.slogdet(interf + eye)[1])


def check_design(scenario: model.Scenario, scheme: str, result) -> list[str]:
    """Failed checks of one solved design (empty when it is correct)."""
    cfg = scenario.config
    w = np.asarray(result.w, dtype=complex)
    failures = []
    power = float(np.sum(np.abs(w) ** 2))
    if not power <= cfg.power_budget * (1.0 + POWER_RTOL):
        failures.append(f"power {power:.9g} W over budget {cfg.power_budget:.9g} W")
    rates = rates_bits(np.asarray(scenario.channel), w, cfg.comm_noise)
    if not np.all(rates >= np.asarray(cfg.rate_targets) - RATE_ATOL):
        failures.append(f"rates {rates.tolist()} below targets {list(cfg.rate_targets)}")
    steps = np.diff(np.asarray(result.mi_trace_nats, dtype=float))
    if steps.size and not float(steps.min()) >= -TRACE_ATOL:
        failures.append(f"MI trace drops by {-float(steps.min()):.3g} nats")
    mi = mutual_information_nats(scenario, w)
    if not abs(mi - result.mi_nats) <= MI_RTOL * max(1.0, abs(mi)):
        failures.append(f"reported MI {result.mi_nats!r} nats, recomputed {mi!r}")
    if scheme == "sdr":
        bound = result.extras["mi_bound_bits"]
        if not result.mi_bits <= bound + SDR_BOUND_RTOL * abs(bound):
            failures.append(f"MI {result.mi_bits!r} bits above the relaxation bound {bound!r}")
    return failures


def check_spectrum(label: str, spectrum) -> list[str]:
    values = np.asarray(spectrum.values_db)
    if not (np.all(np.isfinite(values)) and float(values.max()) == 0.0):
        return [f"{label} is not a finite peak-normalized spectrum"]
    return []


# ---------------------------------------------------------------------------
# One item


MM_SCHEMES = ("mm-single", "mm-multi")


@dataclass(frozen=True)
class Solve:
    """What the report needs of one solved design; the result itself is not
    kept, so memory does not grow with the number of passes."""

    seconds: float
    mi_bits: float
    converged: Optional[bool]       # stopped by the eps rule; None without one
    kkt_residual: Optional[float]
    bound_excess: Optional[float]   # sdr: share of its bound the MI exceeds it by

    @staticmethod
    def of(seconds: float, scheme: str, result) -> "Solve":
        excess = None
        if scheme == "sdr":
            bound = result.extras["mi_bound_bits"]
            excess = max(0.0, (result.mi_bits - bound) / abs(bound))
        converged = result.status == "converged" if scheme in MM_SCHEMES else None
        return Solve(seconds, result.mi_bits, converged, result.kkt_residual, excess)


@dataclass
class Outcome:
    started: float = 0.0                           # clock at the first call
    seconds: float = 0.0
    solves: list = field(default_factory=list)     # Solve per design
    trials: int = 0
    failures: list = field(default_factory=list)


def run_item(workload: Workload, cfg: config.ExperimentConfig, item: Item,
             clock=time.perf_counter) -> Outcome:
    """Run one item's program calls (timed on ``clock``) and then its checks
    (untimed)."""
    if workload.name == "rmse-eval":
        return _run_eval_item(cfg, item, clock)
    out = Outcome()
    opts = replace(cfg.solver, seed=item.seed)
    started = out.started = clock()
    try:
        result = dispatch.solve_scenario(item.scenario, cfg.scheme, opts)
    except MibeamError as exc:
        out.seconds = clock() - started
        out.failures.append(f"{type(exc).__name__}: {exc}")
        return out
    out.seconds = clock() - started
    out.solves.append(Solve.of(out.seconds, cfg.scheme, result))
    out.failures += check_design(item.scenario, cfg.scheme, result)
    return out


def _run_eval_item(cfg: config.ExperimentConfig, item: Item, clock) -> Outcome:
    """``mibeam eval`` on one echo seed: the RMSE sweep (which solves one
    design per SNR), a beampattern per design, and a Capon spectrum of one
    simulated echo of the highest-SNR design."""
    out = Outcome()
    ev = cfg.evaluation
    spec = evaluation.SweepSpec(variable="radar_snr_db", grid=ev.snr_grid_db,
                                scheme=cfg.scheme, trials=ev.trials, seed=item.seed)
    designs = []  # (scenario, seconds, SolveResult) of the sweep's own solves

    def recording(solve):
        def record(scenario, *args, **kwargs):
            began = clock()
            result = solve(scenario, *args, **kwargs)
            designs.append((scenario, clock() - began, result))
            return result
        return record

    started = out.started = clock()
    try:
        with intercepted("mibeam", dispatch, "solve_scenario", recording):
            points = evaluation.rmse_sweep(spec, item.scenario, angle_step=ev.angle_grid_step)
        grid = evaluation.default_grid(ev.beampattern_step)
        patterns = [evaluation.beampattern(result.w, grid) for _, _, result in designs]
        top_scenario, _, top = designs[-1]
        echo = model.simulate_echo(model.build_instance(top_scenario), top.w,
                                   seed=[item.seed, ev.echo_seed])
        capon = evaluation.capon_spectrum(echo, grid, diagonal_load=ev.diagonal_load)
    except MibeamError as exc:
        out.seconds = clock() - started
        out.failures.append(f"{type(exc).__name__}: {exc}")
        return out
    out.seconds = clock() - started
    out.trials = sum(p.trials for p in points)

    for scenario, seconds, result in designs:
        out.solves.append(Solve.of(seconds, cfg.scheme, result))
        out.failures += check_design(scenario, cfg.scheme, result)
    for pattern in patterns:
        out.failures += check_spectrum("beampattern", pattern)
    out.failures += check_spectrum("Capon spectrum", capon)
    rmse = [p.rmse_deg for p in points]
    if not (np.all(np.isfinite(rmse)) and rmse[-1] < rmse[0]):
        out.failures.append(f"RMSE {rmse} deg does not improve from the lowest to the highest SNR")
    return out
