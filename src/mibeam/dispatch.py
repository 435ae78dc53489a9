"""Uniform front door to the four solver regimes.

Validates scheme/scenario compatibility, builds the :class:`model.Instance`
once, hands it to the right solver (the SDR and MM solvers read its
reduction to the sensing subspace; the closed form takes the target's
transmit steering vector and the channel), and returns
one report shape for the CLI, the sweep drivers, and the evaluation
pipeline.  For every scheme the reported MI is :func:`model.mutual_information`
of the returned design, and ``Infeasible`` is the verdict of
:func:`mm.zero_forcing_init`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import mm, model, sdr
from .closed_form import solve_closed_form
from .errors import ConfigError

SCHEMES = ("closed", "sdr", "mm-single", "mm-multi")


@dataclass(frozen=True)
class SolverOptions:
    eps1: float = mm.DEFAULT_EPS_SINGLE
    eps2: float = mm.DEFAULT_EPS_MULTI
    max_iters: int = mm.DEFAULT_MAX_ITERS
    n_randomizations: int = sdr.DEFAULT_RANDOMIZATIONS
    seed: int = 0

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"solver.{name}: must be in (0, 1)")
        if self.max_iters < 1:
            raise ConfigError(f"solver.max_iters: must be at least 1, got {self.max_iters}")
        if self.n_randomizations < 1:
            raise ConfigError(
                f"solver.randomizations: must be at least 1, got {self.n_randomizations}")


@dataclass
class SolveResult:
    scheme: str
    w: np.ndarray                 # (N_T, K)
    mi_nats: float
    mi_bits: float
    rates_bits: np.ndarray
    mi_trace_nats: list
    iterations: int
    status: str
    kkt_residual: Optional[float]
    wall_time_s: float
    extras: dict = field(default_factory=dict)


def _is_silent(scatterer: Optional[model.ScattererModel]) -> bool:
    return scatterer is None or all(s == 0.0 for s in scatterer.strengths)


def validate_scheme(scenario: model.Scenario, scheme: str) -> None:
    cfg = scenario.config
    if scheme not in SCHEMES:
        raise ConfigError(f"solver.name: unknown scheme {scheme!r} (choose from {SCHEMES})")
    if scheme in ("closed", "sdr", "mm-single") and cfg.n_users != 1:
        raise ConfigError(f"solver.name: {scheme!r} requires n_users == 1, got {cfg.n_users}")
    if scheme == "mm-multi" and cfg.n_users > cfg.n_tx:
        # both starts, zero forcing and the minimum-power design, need K <= N_T
        raise ConfigError(f"system.n_users: 'mm-multi' requires n_users <= system.n_tx, "
                          f"got {cfg.n_users} > {cfg.n_tx}")
    if scenario.target.kind != "point":
        raise ConfigError("target: all solvers assume a point sensing target")
    if scheme == "closed" and not _is_silent(scenario.interference):
        raise ConfigError("solver.name: 'closed' requires no echo interference")
    if scheme == "sdr" and not _is_silent(scenario.interference) \
            and scenario.interference.kind != "point":
        raise ConfigError("solver.name: 'sdr' requires a point (or absent) interferer")


def solve_scenario(scenario: model.Scenario, scheme: str,
                   opts: SolverOptions = SolverOptions()) -> SolveResult:
    """Solve one scenario with one scheme.

    The SDR and MM schemes run on :func:`model.reduce_instance` of the
    instance and map their design back as W = B Z (B is the identity when
    the reduction keeps every dimension); the closed form runs on the full
    instance.  MI, rates and the MM KKT certificate are those of the full
    instance.
    """
    validate_scheme(scenario, scheme)
    cfg = scenario.config
    inst = model.build_instance(scenario)
    started = time.perf_counter()

    if scheme == "closed":
        mm.zero_forcing_init(inst)  # the feasibility verdict of every scheme
        a = model.steering_vector(scenario.target.angles_deg[0], cfg.n_tx)
        omega = model.rate_power_threshold(cfg.rate_targets[0], cfg.comm_noise)
        w = solve_closed_form(a, inst.channel[0].conj(), cfg.power_budget, omega)[:, None]
        iterations, status, kkt, trace = 0, "closed_form", None, None
        extras = {"reduced_dim": cfg.n_tx, "inner_steps": None, "finish_steps": None}
    else:
        reduced, basis = model.reduce_instance(inst)
        if scheme == "sdr":
            report = sdr.solve_point_interference(reduced, opts.seed, opts.n_randomizations)
            w = basis @ report.w[:, None]
            iterations, status = report.conic_report.iterations, report.conic_report.status
            kkt, trace = None, None
            extras = {"mi_bound_bits": model.nats_to_bits(report.bound_nats),
                      "inner_steps": None, "finish_steps": None}
        else:
            if scheme == "mm-single":
                report = mm.solve_single_user(reduced, eps1=opts.eps1, max_iters=opts.max_iters)
            else:
                report = mm.solve_multi_user(reduced, eps2=opts.eps2, max_iters=opts.max_iters)
            # the solver's K-user design is column-major; basis @ it would be a
            # row-major copy, on which the MI and the certificate round otherwise
            w = report.w if reduced is inst else basis @ report.w
            iterations, status, trace = report.iterations, report.status, report.mi_trace
            kkt, comp_power, comp_rate = mm.kkt_certificate(inst, w)
            extras = {"comp_power": comp_power, "comp_rate": comp_rate,
                      "inner_steps": report.inner_steps, "finish_steps": report.finish_steps}
        extras["reduced_dim"] = basis.shape[1]

    wall = time.perf_counter() - started
    mi_nats = model.mutual_information(inst, w)
    if trace is None:
        trace = [mi_nats]
    return SolveResult(
        scheme=scheme, w=w, mi_nats=mi_nats,
        mi_bits=model.nats_to_bits(mi_nats),
        rates_bits=model.achieved_rates(inst, w),
        mi_trace_nats=list(trace), iterations=iterations, status=status,
        kkt_residual=kkt, wall_time_s=wall, extras=extras,
    )
