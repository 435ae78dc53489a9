"""Experiment configuration: YAML schema, validation, canonical hashing.

Powers are tagged {dbm: x} or {watts: x} in the file and converted to linear
watts at parse time; angles are degrees throughout.  Each mapping takes
exactly the keys of its form, and an integer field takes an integer or a
float with no fractional part: anything else is a :class:`ConfigError`
naming the key.
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
from .evaluation import check_seed


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
        if not 0.0 <= self.diagonal_load < np.inf:
            raise ConfigError("eval.diagonal_load: must be finite and >= 0")
        check_seed(self.echo_seed, "eval.echo_seed")
        evaluation.check_grid(self.snr_grid_db, "eval.snr_grid_db")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: model.Scenario
    scheme: str
    solver: SolverOptions
    evaluation: EvalOptions
    sweep: Optional[evaluation.SweepSpec]
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_REQUIRED = object()
# the keys of each mapping without variants; `config` is the file's root
_KEYS = {
    "config": ("system", "target", "interference", "channel", "solver", "eval", "sweep",
               "output"),
    "system": ("n_tx", "n_rx", "n_users", "n_slots", "power_budget", "comm_noise",
               "radar_noise", "rate_targets", "rng_seed"),
    "solver": ("name", "eps1", "eps2", "max_iters", "randomizations"),
    "eval": ("trials", "angle_grid_step", "beampattern_step", "diagonal_load", "snr_grid_db",
             "echo_seed"),
    "sweep": ("variable", "grid"),
}


def _only(node, section: str, keys) -> None:
    """Reject a key of the mapping ``node`` outside ``keys``, naming it."""
    for key in node if isinstance(node, dict) else ():
        if key not in keys:
            raise ConfigError(f"{section}.{key}: unknown key (expected one of {', '.join(keys)})")


def _field(node, section: str, key: str, convert=lambda value: value, default=_REQUIRED):
    """``node[key]`` through ``convert``, or ``default`` when the key is
    absent.  A node that is no mapping, a missing required key, and a value
    that ``convert`` rejects with ValueError or TypeError are
    :class:`ConfigError`s naming <section> or <section>.<key>."""
    if not isinstance(node, dict):
        raise ConfigError(f"{section}: expected a mapping")
    if key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: missing required field")
        return default
    try:
        return convert(node[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}.{key}: cannot read {node[key]!r}: {exc}") from exc


def _integer(value) -> int:
    """A YAML integer, or a float with no fractional part; never a boolean."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("must be an integer")


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _span(values) -> tuple:
    lo, hi = _floats(values)
    return lo, hi


def _power_watts(node) -> float:
    """A power tagged {dbm: x} or {watts: x}, in watts."""
    if isinstance(node, dict) and set(node) == {"dbm"}:
        return model.dbm_to_watts(float(node["dbm"]))
    if isinstance(node, dict) and set(node) == {"watts"}:
        return float(node["watts"])
    raise ValueError("power must be tagged {dbm: x} or {watts: x}")


def _scatterer(node, path: str) -> Optional[model.ScattererModel]:
    if node is None or node == "none":
        return None
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping or 'none'")
    if "span" in node:
        _only(node, path, ("span", "count", "strength"))
        lo, hi = _field(node, path, "span", _span)
        return model.ScattererModel.extended(lo, hi, _field(node, path, "count", _integer, 50),
                                             _field(node, path, "strength", float))
    _only(node, path, ("angles", "strengths"))
    return model.ScattererModel(_field(node, path, "angles", _floats),
                                _field(node, path, "strengths", _floats))


def _channel(node, cfg: model.SystemConfig, base: Path) -> np.ndarray:
    kind = _field(node, "channel", "kind")
    if kind == "rayleigh":
        _only(node, "channel", ("kind", "seed"))
        seed = check_seed(_field(node, "channel", "seed", _integer, cfg.rng_seed),
                          "channel.seed")
        return model.rayleigh_channel(cfg.n_users, cfg.n_tx, seed)
    if kind == "file":
        _only(node, "channel", ("kind", "path"))
        path = base / _field(node, "channel", "path", str)
        try:
            data = json.loads(path.read_text())
            h = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        except Exception as exc:
            raise ConfigError(f"channel.path: cannot read matrix from {path}: {exc}") from exc
        if h.shape != (cfg.n_users, cfg.n_tx):
            raise ConfigError(
                f"channel.path: matrix shape {h.shape} != {(cfg.n_users, cfg.n_tx)}")
        if not np.all(np.isfinite(h)):
            raise ConfigError(f"channel.path: matrix in {path} has non-finite entries")
        return h
    raise ConfigError(f"channel.kind: unknown kind {kind!r} (choose 'rayleigh' or 'file')")


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
    for section, keys in _KEYS.items():
        _only(raw if section == "config" else raw.get(section), section, keys)

    sys_node = _field(raw, "config", "system")
    cfg = model.SystemConfig(
        **{key: _field(sys_node, "system", key, _integer)
           for key in ("n_tx", "n_rx", "n_users", "n_slots")},
        **{key: _field(sys_node, "system", key, _power_watts)
           for key in ("power_budget", "comm_noise", "radar_noise")},
        rate_targets=_field(sys_node, "system", "rate_targets", _floats),
        rng_seed=_field(sys_node, "system", "rng_seed", _integer, 0),
    )

    target = _scatterer(_field(raw, "config", "target"), "target")
    if target is None:
        raise ConfigError("target: must be a scatterer, not 'none'")
    interference = _scatterer(_field(raw, "config", "interference", default=None), "interference")
    channel = _channel(_field(raw, "config", "channel"), cfg, path.parent)
    scenario = model.Scenario(cfg, target, interference, channel)

    solver_node = _field(raw, "config", "solver")
    scheme = _field(solver_node, "solver", "name", str)
    validate_scheme(scenario, scheme)
    solver = SolverOptions(
        eps1=_field(solver_node, "solver", "eps1", float, SolverOptions.eps1),
        eps2=_field(solver_node, "solver", "eps2", float, SolverOptions.eps2),
        max_iters=_field(solver_node, "solver", "max_iters", _integer, SolverOptions.max_iters),
        n_randomizations=_field(solver_node, "solver", "randomizations", _integer,
                                SolverOptions.n_randomizations),
        seed=cfg.rng_seed,
    )

    eval_node = _field(raw, "config", "eval", default=None) or {}
    eval_opts = EvalOptions(
        trials=_field(eval_node, "eval", "trials", _integer, EvalOptions.trials),
        angle_grid_step=_field(eval_node, "eval", "angle_grid_step", float,
                               EvalOptions.angle_grid_step),
        beampattern_step=_field(eval_node, "eval", "beampattern_step", float,
                                EvalOptions.beampattern_step),
        diagonal_load=_field(eval_node, "eval", "diagonal_load", float, EvalOptions.diagonal_load),
        snr_grid_db=_field(eval_node, "eval", "snr_grid_db", _floats, EvalOptions.snr_grid_db),
        echo_seed=_field(eval_node, "eval", "echo_seed", _integer, cfg.rng_seed),
    )

    sweep_node = _field(raw, "config", "sweep", default=None)
    sweep = None if sweep_node is None else evaluation.SweepSpec(
        variable=_field(sweep_node, "sweep", "variable", str),
        grid=_field(sweep_node, "sweep", "grid", _floats), scheme=scheme)

    return ExperimentConfig(
        scenario=scenario, scheme=scheme, solver=solver, evaluation=eval_opts, sweep=sweep,
        output_dir=_field(raw, "config", "output", str, "out"), raw=raw,
    )
