"""Experiment configuration: YAML schema, validation, canonical hashing.

Powers are tagged {dbm: x} or {watts: x} in the file and converted to linear
watts at parse time; angles are degrees throughout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import evaluation, model
from .dispatch import SolverOptions, validate_scheme
from .errors import ConfigError


def check_seed(seed: int, source: str) -> int:
    """A seed as numpy's generators take it: a nonnegative integer."""
    if seed < 0:
        raise ConfigError(f"{source}: must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class EvalOptions:
    trials: int = 200
    angle_grid_step: float = evaluation.DEFAULT_ANGLE_STEP
    beampattern_step: float = evaluation.DEFAULT_PATTERN_STEP
    diagonal_load: float = evaluation.DEFAULT_DIAGONAL_LOAD
    echo_seed: int = 0
    snr_grid_db: tuple = (-10.0, 0.0, 10.0, 20.0)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("eval.trials: must be >= 1")
        for name in ("angle_grid_step", "beampattern_step"):
            if not 0.0 < getattr(self, name) <= 90.0:
                raise ConfigError(f"eval.{name}: must be in (0, 90] degrees")
        if not self.diagonal_load >= 0.0:
            raise ConfigError("eval.diagonal_load: must be >= 0")
        check_seed(self.echo_seed, "eval.echo_seed")
        evaluation.check_grid(self.snr_grid_db, "eval.snr_grid_db")


@dataclass(frozen=True)
class SweepOptions:
    variable: str
    grid: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: model.Scenario
    scheme: str
    solver: SolverOptions
    evaluation: EvalOptions
    sweep: Optional[SweepOptions]
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _power_watts(node, path: str) -> float:
    if isinstance(node, dict):
        if set(node) == {"dbm"}:
            return model.dbm_to_watts(float(node["dbm"]))
        if set(node) == {"watts"}:
            return float(node["watts"])
        raise ConfigError(f"{path}: power must be tagged {{dbm: x}} or {{watts: x}}")
    raise ConfigError(f"{path}: power must be tagged {{dbm: x}} or {{watts: x}}")


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _scatterer(node, path: str) -> Optional[model.ScattererModel]:
    if node is None or node == "none":
        return None
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping or 'none'")
    try:
        if "span" in node:
            lo, hi = (float(v) for v in node["span"])
            return model.ScattererModel.extended(lo, hi, int(node.get("count", 50)),
                                                 float(_require(node, "strength", path)))
        angles = [float(a) for a in _require(node, "angles", path)]
        strengths = [float(s) for s in _require(node, "strengths", path)]
        return model.ScattererModel(tuple(angles), tuple(strengths))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _channel(node, cfg: model.SystemConfig, base: Path) -> np.ndarray:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError("channel.kind: must be 'rayleigh' or 'file'")
    kind = node["kind"]
    if kind == "rayleigh":
        seed = check_seed(int(node.get("seed", cfg.rng_seed)), "channel.seed")
        return model.rayleigh_channel(cfg.n_users, cfg.n_tx, seed)
    if kind == "file":
        path = base / str(_require(node, "path", "channel"))
        try:
            data = json.loads(Path(path).read_text())
            h = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        except Exception as exc:
            raise ConfigError(f"channel.path: cannot read matrix from {path}: {exc}") from exc
        if h.shape != (cfg.n_users, cfg.n_tx):
            raise ConfigError(
                f"channel.path: matrix shape {h.shape} != {(cfg.n_users, cfg.n_tx)}")
        return h
    raise ConfigError(f"channel.kind: unknown kind {kind!r}")


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    sys_node = _require(raw, "system", "config")
    cfg = model.SystemConfig(
        n_tx=int(_require(sys_node, "n_tx", "system")),
        n_rx=int(_require(sys_node, "n_rx", "system")),
        n_users=int(_require(sys_node, "n_users", "system")),
        n_slots=int(_require(sys_node, "n_slots", "system")),
        power_budget=_power_watts(_require(sys_node, "power_budget", "system"),
                                  "system.power_budget"),
        comm_noise=_power_watts(_require(sys_node, "comm_noise", "system"),
                                "system.comm_noise"),
        radar_noise=_power_watts(_require(sys_node, "radar_noise", "system"),
                                 "system.radar_noise"),
        rate_targets=tuple(float(r) for r in _require(sys_node, "rate_targets", "system")),
        rng_seed=int(sys_node.get("rng_seed", 0)),
    )

    target = _scatterer(_require(raw, "target", "config"), "target")
    if target is None:
        raise ConfigError("target: must be a scatterer, not 'none'")
    interference = _scatterer(raw.get("interference"), "interference")
    channel = _channel(_require(raw, "channel", "config"), cfg, path.parent)
    scenario = model.Scenario(cfg, target, interference, channel)

    solver_node = _require(raw, "solver", "config")
    scheme = str(_require(solver_node, "name", "solver"))
    validate_scheme(scenario, scheme)
    solver_default = SolverOptions()
    solver = SolverOptions(
        eps1=float(solver_node.get("eps1", solver_default.eps1)),
        eps2=float(solver_node.get("eps2", solver_default.eps2)),
        max_iters=int(solver_node.get("max_iters", solver_default.max_iters)),
        n_randomizations=int(solver_node.get("randomizations", solver_default.n_randomizations)),
        seed=check_seed(int(solver_node.get("seed", cfg.rng_seed)), "solver.seed"),
    )
    if solver.n_randomizations < 1:
        raise ConfigError(
            f"solver.randomizations: must be at least 1, got {solver.n_randomizations}")

    eval_node = raw.get("eval", {}) or {}
    eval_default = EvalOptions()
    eval_opts = EvalOptions(
        trials=int(eval_node.get("trials", eval_default.trials)),
        angle_grid_step=float(eval_node.get("angle_grid_step", eval_default.angle_grid_step)),
        beampattern_step=float(eval_node.get("beampattern_step", eval_default.beampattern_step)),
        diagonal_load=float(eval_node.get("diagonal_load", eval_default.diagonal_load)),
        echo_seed=int(eval_node.get("echo_seed", cfg.rng_seed)),
        snr_grid_db=tuple(float(v) for v in eval_node.get("snr_grid_db",
                                                          eval_default.snr_grid_db)),
    )

    sweep = None
    if raw.get("sweep") is not None:
        sweep_node = raw["sweep"]
        sweep = SweepOptions(
            variable=str(_require(sweep_node, "variable", "sweep")),
            grid=tuple(float(v) for v in _require(sweep_node, "grid", "sweep")),
        )
        if sweep.variable not in evaluation.SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable: unknown variable {sweep.variable!r} "
                              f"(choose from {evaluation.SWEEP_VARIABLES})")
        evaluation.check_grid(sweep.grid, "sweep.grid")

    return ExperimentConfig(
        scenario=scenario, scheme=scheme, solver=solver, evaluation=eval_opts,
        sweep=sweep, output_dir=str(raw.get("output", "out")), raw=raw,
    )
