"""Command-line front end: solve one design, sweep a variable, or produce
evaluation artifacts (beampattern / Capon spectrum / RMSE table).

All outputs are deterministic given the config and seed; every file embeds
the config hash, seed and tool version (JSON fields or CSV comment header).
Exit codes: 0 success, 2 config error, 3 infeasible, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, dispatch, evaluation, model
from .config import ExperimentConfig, check_grid, check_seed, parse_config
from .errors import ConfigError, Infeasible, MibeamError, NumericalError

CSV_FORMAT = "%.12g"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return CSV_FORMAT % float(value)


def _write_csv(path: Path, header: list, rows: list, meta: dict) -> None:
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _meta(cfg: ExperimentConfig, seed) -> dict:
    return {"config_hash": cfg.config_hash, "seed": seed, "version": __version__}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", newline="\n")


def _apply_variable(scenario: model.Scenario, variable: str, value: float) -> model.Scenario:
    cfg = scenario.config
    if variable == "power_dbm":
        return replace(scenario, config=replace(cfg, power_budget=model.dbm_to_watts(value)))
    if variable == "rate_target":
        return replace(scenario, config=replace(cfg, rate_targets=(value,) * cfg.n_users))
    if variable == "radar_snr_db":
        return scenario.with_target_strength(evaluation.strength_for_radar_snr(value, cfg))
    raise ConfigError(f"sweep.variable: unknown variable {variable!r}")


def _solve_grid_point(args):
    config_path, variable, value, index, seed = args
    cfg = parse_config(config_path)
    scenario = _apply_variable(cfg.scenario, variable, value)
    # deterministic per-point stream regardless of worker scheduling
    opts = replace(cfg.solver, seed=seed * 1_000_003 + index)
    result = dispatch.solve_scenario(scenario, cfg.scheme, opts)
    return index, value, result


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, seed: int) -> int:
    opts = replace(cfg.solver, seed=seed)
    started = time.perf_counter()
    result = dispatch.solve_scenario(cfg.scenario, cfg.scheme, opts)
    wall = time.perf_counter() - started

    payload = {
        "scheme": result.scheme,
        "w_re": np.real(result.w).tolist(),
        "w_im": np.imag(result.w).tolist(),
        "mi_bits": result.mi_bits,
        "rates_bits": result.rates_bits.tolist(),
        "iterations": result.iterations,
        "status": result.status,
        "kkt_residual": result.kkt_residual,
        "comp_power": result.extras.get("comp_power"),
        "comp_rate": result.extras.get("comp_rate"),
        "reduced_dim": result.extras["reduced_dim"],
        "inner_steps": result.extras["inner_steps"],
        **_meta(cfg, seed),
    }
    _write_json(out_dir / "solution.json", payload)
    _write_json(out_dir / "meta.json", {**_meta(cfg, seed), "wall_time_s": wall})
    trace_rows = [(i, model.nats_to_bits(v)) for i, v in enumerate(result.mi_trace_nats)]
    _write_csv(out_dir / "trace.csv", ["iteration", "mi_bits"], trace_rows,
               _meta(cfg, seed))
    print(f"solved: scheme={result.scheme} mi_bits={result.mi_bits:.6f} "
          f"status={result.status} -> {out_dir}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, seed: int, config_path: Path,
              threads: int, grid_override=None) -> int:
    variable = cfg.sweep.variable if cfg.sweep else "power_dbm"
    grid = list(grid_override if grid_override is not None else cfg.sweep.grid)

    jobs = [(str(config_path), variable, float(v), i, seed) for i, v in enumerate(grid)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = sorted(pool.map(_solve_grid_point, jobs))
    else:
        results = [_solve_grid_point(job) for job in jobs]

    n_users = cfg.scenario.config.n_users
    header = ["variable", "value", "scheme", "mi_bits"] + \
        [f"rate_{k + 1}_bits" for k in range(n_users)] + ["iterations", "seed"]
    sweep_rows = [tuple([variable, value, result.scheme, result.mi_bits]
                        + list(result.rates_bits) + [result.iterations, seed])
                  for _, value, result in results]
    _write_csv(out_dir / "sweep.csv", header, sweep_rows, _meta(cfg, seed))
    print(f"sweep: {len(grid)} points of {variable} -> {out_dir / 'sweep.csv'}")
    return 0


def cmd_eval(cfg: ExperimentConfig, kind: str, out_dir: Path, seed: int,
             grid_override=None) -> int:
    if kind not in ("beampattern", "capon", "rmse"):
        raise ConfigError(f"eval: unknown kind {kind!r}")
    scenario = cfg.scenario

    if kind == "rmse":
        grid = tuple(grid_override if grid_override is not None
                     else cfg.evaluation.snr_grid_db)
        spec = evaluation.SweepSpec(variable="radar_snr_db", grid=grid,
                                    scheme=cfg.scheme, trials=cfg.evaluation.trials,
                                    seed=seed)
        points = evaluation.rmse_sweep(spec, scenario,
                                       angle_step=cfg.evaluation.angle_grid_step)
        rows = [(p.value, p.rmse_deg, p.trials) for p in points]
        _write_csv(out_dir / "rmse.csv", ["snr_db", "rmse_deg", "trials"], rows,
                   _meta(cfg, seed))
        print(f"eval rmse: {len(rows)} grid points -> {out_dir / 'rmse.csv'}")
        return 0

    result = dispatch.solve_scenario(scenario, cfg.scheme, replace(cfg.solver, seed=seed))
    if kind == "beampattern":
        grid = evaluation.default_grid(cfg.evaluation.beampattern_step)
        spectrum = evaluation.beampattern(result.w, grid)
    else:
        inst = model.build_instance(scenario)
        echo = model.simulate_echo(inst, result.w, seed=[seed, cfg.evaluation.echo_seed])
        grid = evaluation.default_grid(cfg.evaluation.beampattern_step)
        spectrum = evaluation.capon_spectrum(echo, grid,
                                             diagonal_load=cfg.evaluation.diagonal_load)
    rows = list(zip(spectrum.angles_deg.tolist(), spectrum.values_db.tolist()))
    _write_csv(out_dir / "spectrum.csv", ["angle_deg", "value_db"], rows,
               _meta(cfg, seed))
    print(f"eval {kind}: {len(rows)} angles -> {out_dir / 'spectrum.csv'}")
    return 0


def _parse_grid(text: str) -> list:
    """Grid spec: comma list '30,35,40' or range 'start:stop:step' (inclusive)."""
    ranged = ":" in text
    try:
        grid = [float(p) for p in text.split(":" if ranged else ",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"--grid: cannot parse {text!r}") from exc
    if ranged:
        if len(grid) != 3 or grid[2] <= 0:
            raise ConfigError("--grid: range form is start:stop:step with step > 0")
        start, stop, step = grid
        grid = list(np.arange(start, stop + 0.5 * step, step))
    check_grid(grid, "--grid")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mibeam",
        description="Mutual-information ISAC beamforming designs and evaluations.",
    )
    parser.add_argument("--version", action="version", version=f"mibeam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=1, help="worker processes for sweeps")
        p.add_argument("--grid", default=None,
                       help="grid override: 'a,b,c' or 'start:stop:step'")

    common(sub.add_parser("solve", help="solve one design problem"))
    common(sub.add_parser("sweep", help="sweep a variable and record the MI"))
    eval_p = sub.add_parser("eval", help="produce an evaluation artifact")
    eval_p.add_argument("kind", choices=("beampattern", "capon", "rmse"))
    common(eval_p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        seed = (check_seed(args.seed, "--seed") if args.seed is not None
                else cfg.scenario.config.rng_seed)
        grid = _parse_grid(args.grid) if args.grid else None
        if args.command == "sweep" and cfg.sweep is None and grid is None:
            raise ConfigError("sweep: config has no sweep section and no --grid was given")
        out_dir = Path(args.out if args.out is not None else cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir, seed)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, seed, Path(args.config), args.threads, grid)
        return cmd_eval(cfg, args.kind, out_dir, seed, grid)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "reason": str(exc)}), file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(json.dumps({"error": "infeasible", "reason": str(exc)}), file=sys.stderr)
        return 3
    except (NumericalError, MibeamError) as exc:
        print(json.dumps({"error": "numerical", "reason": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
