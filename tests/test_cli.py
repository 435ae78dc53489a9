import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from mibeam import cli, dispatch, evaluation
from mibeam.config import EvalOptions, parse_config
from mibeam.dispatch import SolverOptions
from mibeam.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

PAPER_SYSTEM = {
    "n_tx": 6, "n_rx": 6, "n_users": 1, "n_slots": 30,
    "power_budget": {"dbm": 40.0}, "comm_noise": {"dbm": 20.0},
    "radar_noise": {"dbm": 30.0}, "rate_targets": [6.0], "rng_seed": 6,
}


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "system": dict(PAPER_SYSTEM),
        "target": {"angles": [0.0], "strengths": [1.0]},
        "interference": "none",
        "channel": {"kind": "rayleigh", "seed": 6},
        "solver": {"name": "closed"},
        "output": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        # a mapping updates the default one; a channel that names its kind replaces it
        if isinstance(value, dict) and isinstance(cfg.get(key), dict) and "kind" not in value:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_csv(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_minimal_config_parses_to_dataclass_defaults(tmp_path):
    # only the seeds come from the file (system.rng_seed); every other
    # solver and evaluation option is the dataclass default
    cfg = parse_config(write_config(tmp_path / "cfg.yaml"))
    seed = PAPER_SYSTEM["rng_seed"]
    assert cfg.solver == SolverOptions(seed=seed)
    assert cfg.evaluation == EvalOptions(echo_seed=seed)
    assert cfg.sweep is None


@pytest.mark.parametrize("path", sorted([*CONFIGS.glob("*.yaml"),
                                          *(ROOT / "bench" / "configs").glob("*.yaml")]),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_shipped_config_parses(path):
    # the benchmark runs the configs under bench/: a stricter check that
    # rejected one would fail every benchmark run
    parse_config(path)


def test_solve_paper_config_meets_rate(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml")
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert payload["rates_bits"][0] >= 6.0 - 1e-9
    assert payload["mi_bits"] > 0.0
    assert payload["reduced_dim"] == 6  # the closed form runs on the full instance
    assert payload["config_hash"]
    assert payload["version"]
    assert (tmp_path / "o" / "trace.csv").exists()
    assert (tmp_path / "o" / "meta.json").exists()


@pytest.mark.parametrize("config, overrides", [
    # a zero target's cut was identically zero: exit 4 at map 1
    ("multi_user.yaml", {"system": {"rate_targets": [0.0, 6.0, 6.0]},
                         "solver": {"max_iters": 20}}),
    # the multiplier of the flat directions was walked down to an overflow
    ("single_user_clean.yaml", {"solver": {"name": "mm-single"}}),
], ids=["zero-target", "mm-single-clean"])
def test_solve_shipped_config_variant_meets_every_target(tmp_path, config, overrides):
    cfg = yaml.safe_load((CONFIGS / config).read_text())
    for key, value in overrides.items():
        cfg[key].update(value)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "solution.json").read_text())
    targets = cfg["system"]["rate_targets"]
    assert all(rate >= target - 1e-6 for rate, target in zip(payload["rates_bits"], targets))


def test_solve_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml")
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    for name in ("solution.json", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_incompatible_solver_is_config_error(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.yaml",
        system={"n_users": 3, "rate_targets": [6.0, 6.0, 6.0]},
        solver={"name": "closed"},
    )
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "n_users" in err["reason"]
    assert not (tmp_path / "o").exists()


def test_more_users_than_antennas_is_config_error(tmp_path, capsys):
    # both mm-multi starts, zero forcing and the minimum-power design, need
    # n_users <= n_tx, so without that check the solve fails unproven
    cfg_path = write_config(
        tmp_path / "cfg.yaml",
        system={"n_tx": 3, "n_users": 4, "rate_targets": [1.5] * 4},
        channel={"kind": "rayleigh", "seed": 1},
        solver={"name": "mm-multi"},
    )
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "system.n_users" in err["reason"] and "system.n_tx" in err["reason"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", [0, -3])
def test_randomizations_below_one_is_config_error(tmp_path, capsys, count):
    # rejected at parse time, before any SDP is solved
    cfg_path = write_config(
        tmp_path / "cfg.yaml",
        interference={"angles": [-30.0], "strengths": [100.0]},
        solver={"name": "sdr", "randomizations": count},
    )
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "solver.randomizations" in err["reason"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, field, value", [
    ("beampattern", "beampattern_step", 0.0),
    ("capon", "beampattern_step", -0.1),
    ("rmse", "angle_grid_step", 0.0),
    ("capon", "diagonal_load", -1.0),
    ("rmse", "trials", 0),
    ("rmse", "snr_grid_db", []),
    ("rmse", "snr_grid_db", [10, 0]),
    ("rmse", "angle_grid_step", 90.5),
    ("beampattern", "beampattern_step", 120.0),
    ("capon", "diagonal_load", np.inf),
    ("rmse", "snr_grid_db", [0, np.nan]),
])
def test_invalid_eval_option_is_config_error(tmp_path, capsys, kind, field, value):
    # rejected at parse time, before any design is solved or file written
    cfg_path = write_config(tmp_path / "cfg.yaml", eval={field: value})
    code = cli.main(["eval", kind, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert f"eval.{field}" in err["reason"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, overrides, source", [
    (["eval", "capon"], {"eval": {"echo_seed": -1}}, "eval.echo_seed"),
    (["solve", "--seed", "-1"], {}, "--seed"),
    (["solve"], {"channel": {"seed": -2}}, "channel.seed"),
    (["solve"], {"system": {"rng_seed": -3}}, "system.rng_seed"),
], ids=["echo_seed", "cli_seed", "channel_seed", "rng_seed"])
def test_negative_seed_is_config_error(tmp_path, capsys, args, overrides, source):
    # rejected at parse time, before numpy sees the seed or a file is written
    cfg_path = write_config(tmp_path / "cfg.yaml", **overrides)
    if source == "system.rng_seed":  # the channel draws from rng_seed
        raw = yaml.safe_load(cfg_path.read_text())
        del raw["channel"]["seed"]
        cfg_path.write_text(yaml.safe_dump(raw))
    code = cli.main(args + ["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert source in err["reason"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, overrides, source", [
    (["sweep"], {"sweep": {"variable": "rate_target", "grid": []}}, "sweep.grid"),
    (["sweep"], {"sweep": {"variable": "rate_target", "grid": [2.0, 2.0]}}, "sweep.grid"),
    (["sweep", "--grid", ","], {"sweep": {"variable": "rate_target", "grid": [1.0]}},
     "--grid"),
    (["eval", "rmse", "--grid", "10,0"], {}, "--grid"),
    (["eval", "rmse", "--grid", "0:x:5"], {}, "--grid"),
    (["sweep", "--grid", "nan"], {"sweep": {"variable": "rate_target", "grid": [1.0]}},
     "--grid"),
    (["sweep", "--grid", ""], {"sweep": {"variable": "rate_target", "grid": [1.0]}},
     "--grid"),
    (["eval", "rmse", "--grid", ""], {}, "--grid"),
    (["eval", "capon", "--grid", "1,2,3"], {}, "--grid"),
    (["eval", "beampattern", "--grid", "1,2,3"], {}, "--grid"),
    # (stop - start) / step points: too many to solve, and numpy cannot
    # allocate them; the count is checked before any array is made
    (["sweep", "--grid", "1:3:1e-300"], {"sweep": {"variable": "rate_target", "grid": [1.0]}},
     "--grid"),
    (["eval", "rmse", "--grid", "0:inf:5"], {}, "--grid"),
], ids=["sweep_empty", "sweep_repeated", "cli_empty", "cli_decreasing", "cli_unparsable",
        "cli_nan", "sweep_empty_string", "rmse_empty_string", "capon_grid",
        "beampattern_grid", "cli_tiny_step", "cli_infinite_stop"])
def test_invalid_grid_is_config_error(tmp_path, capsys, args, overrides, source):
    cfg_path = write_config(tmp_path / "cfg.yaml", **overrides)
    code = cli.main(args + ["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert source in err["reason"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_config_error(tmp_path, capsys, threads):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            sweep={"variable": "rate_target", "grid": [1.0]})
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--threads", threads])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and err["reason"].startswith("--threads")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, out, source", [
    (["solve"], "file", "--out"),
    (["sweep"], "file/o", "--out"),
    (["eval", "beampattern"], None, "output"),
], ids=["out_file", "out_under_file", "config_output_file"])
def test_output_path_through_a_file_is_config_error(tmp_path, capsys, command, out, source):
    # an --out (or config output) naming an existing file, or a path under
    # one, cannot become the output directory
    (tmp_path / "file").write_text("kept\n")
    cfg_path = write_config(tmp_path / "cfg.yaml", output=str(tmp_path / "file"),
                            sweep={"variable": "rate_target", "grid": [1.0]})
    args = command + ["--config", str(cfg_path)]
    code = cli.main(args if out is None else args + ["--out", str(tmp_path / out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and err["reason"].startswith(source)
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("args", [
    ["solve", "--threads", "2"],
    ["solve", "--grid", "1,2"],
    ["eval", "capon", "--threads", "2"],
], ids=["solve_threads", "solve_grid", "eval_threads"])
def test_flag_the_command_does_not_use_is_usage_error(tmp_path, capsys, args):
    cfg_path = write_config(tmp_path / "cfg.yaml")
    with pytest.raises(SystemExit) as exited:
        cli.main(args + ["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eval_help_offers_the_grid_to_rmse_only(capsys):
    # the eval subparser takes its kind as a positional choice, so it cannot
    # drop --grid per kind; main rejects it for capon and beampattern, and
    # the help text must say so
    with pytest.raises(SystemExit) as exited:
        cli.main(["eval", "--help"])
    assert exited.value.code == 0
    words = " ".join(capsys.readouterr().out.split())
    grid_help = words[words.index("--grid GRID"):]
    assert "eval rmse only" in grid_help
    assert "beampattern and capon take none" in grid_help


def test_sweep_variable_has_one_check(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml", sweep={"variable": "n_slots", "grid": [1.0]})
    with pytest.raises(ConfigError) as parsed:
        parse_config(cfg_path)
    with pytest.raises(ConfigError) as spec:
        evaluation.SweepSpec(variable="n_slots", grid=(1.0,), scheme="closed")
    assert str(parsed.value) == str(spec.value)
    assert str(spec.value).startswith("sweep.variable: unknown variable 'n_slots'")


@pytest.mark.parametrize("overrides, source", [
    ({"sweep": {"variable": "n_slots", "grid": [1.0, 2.0]}}, "sweep.variable"),
    ({}, "sweep"),
], ids=["unknown_variable", "no_sweep_section"])
def test_invalid_sweep_is_config_error_before_output(tmp_path, capsys, overrides, source):
    cfg_path = write_config(tmp_path / "cfg.yaml", **overrides)
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--threads", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["reason"].startswith(source)
    assert not (tmp_path / "o").exists()


def test_invalid_sweep_value_is_config_error_before_output(tmp_path, capsys):
    # -1 passes the grid check (finite, increasing) but makes an invalid
    # scenario only once it is applied as a rate target
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            sweep={"variable": "rate_target", "grid": [1.0, 2.0]})
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--grid=-1,2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and err["reason"].startswith("system.rate_targets")
    assert not (tmp_path / "o").exists()


def write_channel(path: Path, h) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"re": np.real(h).tolist(), "im": np.imag(h).tolist()}))
    return path


@pytest.mark.parametrize("overrides, source", [
    ({"system": {"n_tx": "six"}}, "system.n_tx"),
    ({"system": {"rate_targets": 5}}, "system.rate_targets"),
    ({"system": {"power_budget": {"watts": "abc"}}}, "system.power_budget"),
    ({"channel": {"seed": "x"}}, "channel.seed"),
    ({"solver": {"max_iters": "many"}}, "solver.max_iters"),
    ({"solver": {"eps1": "tiny"}}, "solver.eps1"),
    ({"eval": {"trials": "x"}}, "eval.trials"),
    ({"sweep": {"variable": "power_dbm", "grid": 5}}, "sweep.grid"),
    ({"channel": {"kind": "file", "path": "h.json"}}, "channel.path"),
    ({"system": {"rate_targets": [np.nan]}}, "system.rate_targets"),
    ({"system": {"power_budget": {"watts": np.inf}}}, "system.power_budget"),
    ({"interference": {"span": [-30.0, -25.0], "count": 50, "strength": np.nan},
      "solver": {"name": "mm-single"}}, "scatterer: strengths"),
    ({"solver": {"eps1": np.nan}}, "solver.eps1"),
    ({"solver": {"max_iters": -5}}, "solver.max_iters"),
    # a key outside its mapping's form
    ({"system": {"n_txx": 6}}, "system.n_txx"),
    ({"solver": {"esp1": 1e-3}}, "solver.esp1"),
    ({"solver": {"max_iter": 20}}, "solver.max_iter"),
    ({"eval": {"trails": 5}}, "eval.trails"),
    ({"outptu": "elsewhere"}, "config.outptu"),
    ({"sweep": {"variable": "power_dbm", "grid": [30.0], "scheme": "sdr"}}, "sweep.scheme"),
    ({"channel": {"kind": "file", "path": "h.json", "seed": 3}}, "channel.seed"),
    ({"channel": {"kind": "rayleigh", "path": "h.json"}}, "channel.path"),
    ({"interference": {"angles": [-30.0], "strengths": [1.0], "count": 5}},
     "interference.count"),
    ({"interference": {"span": [-30.0, -25.0], "count": 50, "strength": 1.0,
                       "strengths": [1.0]}}, "interference.strengths"),
    # an integer field given a fraction or a boolean
    ({"system": {"n_tx": 6.7}}, "system.n_tx"),
    ({"system": {"n_rx": True}}, "system.n_rx"),
    ({"system": {"n_users": 1.5}}, "system.n_users"),
    ({"system": {"n_slots": 30.5}}, "system.n_slots"),
    ({"system": {"rng_seed": False}}, "system.rng_seed"),
    ({"channel": {"seed": 6.5}}, "channel.seed"),
    ({"interference": {"span": [-30.0, -25.0], "count": 50.9, "strength": 1.0},
      "solver": {"name": "mm-single"}}, "interference.count"),
    ({"solver": {"max_iters": 20.5}}, "solver.max_iters"),
    ({"solver": {"randomizations": True}}, "solver.randomizations"),
    ({"eval": {"trials": 2.5}}, "eval.trials"),
    ({"eval": {"echo_seed": 0.25}}, "eval.echo_seed"),
], ids=["n_tx", "rate_targets", "watts", "channel_seed", "max_iters", "eps1", "trials",
        "sweep_grid", "nan_channel", "nan_rate_target", "inf_watts", "nan_strength",
        "nan_eps1", "negative_max_iters", "unknown_system_key", "unknown_solver_key",
        "unknown_solver_max_iter", "unknown_eval_key", "unknown_root_key", "unknown_sweep_key",
        "file_channel_seed", "rayleigh_channel_path", "point_scatterer_count",
        "mixed_scatterer_forms", "fractional_n_tx", "boolean_n_rx", "fractional_n_users",
        "fractional_n_slots", "boolean_rng_seed", "fractional_channel_seed",
        "fractional_count", "fractional_max_iters", "boolean_randomizations",
        "fractional_trials", "fractional_echo_seed"])
def test_malformed_value_is_config_error_naming_its_field(tmp_path, capsys, overrides, source):
    h = np.ones((1, 6), dtype=complex)
    h[0, 2] = np.nan
    write_channel(tmp_path / "h.json", h)
    cfg_path = write_config(tmp_path / "cfg.yaml", **overrides)
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["reason"].startswith(source)
    assert not (tmp_path / "o").exists()


def test_integer_fields_take_floats_with_no_fraction(tmp_path):
    whole = write_config(tmp_path / "whole.yaml", system={"n_tx": 6.0, "rng_seed": 3.0},
                         interference={"span": [-30.0, -25.0], "count": 50.0, "strength": 1.0},
                         solver={"name": "mm-single", "max_iters": 20.0})
    exact = write_config(tmp_path / "exact.yaml", system={"n_tx": 6, "rng_seed": 3},
                         interference={"span": [-30.0, -25.0], "count": 50, "strength": 1.0},
                         solver={"name": "mm-single", "max_iters": 20})
    parsed, expected = parse_config(whole), parse_config(exact)
    assert parsed.scenario.config == expected.scenario.config
    assert parsed.scenario.interference == expected.scenario.interference
    assert parsed.solver == expected.solver


def test_file_channel_relative_to_config_reads_back_bit_identical(tmp_path):
    h = parse_config(write_config(tmp_path / "rayleigh.yaml")).scenario.channel
    write_channel(tmp_path / "configs" / "channels" / "h.json", h)
    cfg_path = write_config(tmp_path / "configs" / "cfg.yaml",
                            channel={"kind": "file", "path": "channels/h.json"})
    read = parse_config(cfg_path).scenario.channel
    assert read.dtype == h.dtype and np.array_equal(read, h)


def test_power_in_watts_equals_power_in_dbm(tmp_path):
    watts = parse_config(write_config(tmp_path / "w.yaml", system={"power_budget": {"watts": 10.0}}))
    dbm = parse_config(write_config(tmp_path / "d.yaml", system={"power_budget": {"dbm": 40.0}}))
    assert watts.scenario.config == dbm.scenario.config


def test_file_channel_of_the_wrong_shape_is_config_error(tmp_path, capsys):
    write_channel(tmp_path / "h.json", np.ones((2, 6), dtype=complex))
    cfg_path = write_config(tmp_path / "cfg.yaml", channel={"kind": "file", "path": "h.json"})
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "channel.path" in err["reason"]
    assert not (tmp_path / "o").exists()


def test_infeasible_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            system={"rate_targets": [30.0]})
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "infeasible"


SCHEME_CONFIGS = [CONFIGS / "single_user_clean.yaml", CONFIGS / "single_user_extended.yaml",
                  CONFIGS / "multi_user.yaml", ROOT / "bench" / "configs" / "sdr_point.yaml"]


def write_first_target(tmp_path: Path, config: Path, rate: float) -> Path:
    cfg = yaml.safe_load(config.read_text())
    cfg["system"]["rate_targets"][0] = rate
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.mark.parametrize("config", SCHEME_CONFIGS, ids=lambda path: path.name)
@pytest.mark.parametrize("rate", [54.0, 60.0, 1000.0, 1023.9])
def test_far_rate_target_is_infeasible_naming_the_power(tmp_path, capsys, config, rate):
    # past every budget here: the single-user power bound rejects them
    # before the least-power fixed point, which underflows near 1000
    cfg_path = write_first_target(tmp_path, config, rate)
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "infeasible"
    assert re.match(r"the rate targets need at least \S+ W, budget is 10 W", err["reason"])


@pytest.mark.parametrize("config", SCHEME_CONFIGS, ids=lambda path: path.name)
@pytest.mark.parametrize("rate", [1024.0, 2000.0])
def test_rate_target_past_the_float_range_is_config_error(tmp_path, capsys, config, rate):
    # the SINR target 2^r - 1 leaves the float range
    cfg_path = write_first_target(tmp_path, config, rate)
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and err["reason"].startswith("system.rate_targets:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scheme", ["closed", "sdr", "mm-single"])
@pytest.mark.parametrize("rate", [0.0, 2.0])
def test_zero_file_channel_is_infeasible_for_every_scheme(tmp_path, capsys, scheme, rate):
    write_channel(tmp_path / "h.json", np.zeros((1, 6), dtype=complex))
    cfg_path = write_config(tmp_path / "cfg.yaml", system={"rate_targets": [rate]},
                            channel={"kind": "file", "path": "h.json"},
                            solver={"name": scheme})
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "infeasible", "reason": "a user's channel is zero, so its "
                   "rate target is not strictly feasible"}


def write_sdr_point(tmp_path: Path, target_strength: float, channel_seed: int = 1) -> Path:
    cfg = yaml.safe_load((ROOT / "bench" / "configs" / "sdr_point.yaml").read_text())
    cfg["target"]["strengths"] = [target_strength]
    cfg["channel"]["seed"] = channel_seed
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.mark.parametrize("channel_seed", [3, 4])
def test_sdr_designs_a_strong_target(tmp_path, channel_seed):
    # radar SNR 44.8 dB: the SDP's path follower jumped from the start's
    # weight, about 8e-5, straight to t = 1, and its first round's Newton
    # budget could not centre there (exit 4)
    cfg_path = write_sdr_point(tmp_path, 100.0, channel_seed)
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "solution.json").read_text())
    w = np.asarray(payload["w_re"]) + 1j * np.asarray(payload["w_im"])
    assert np.linalg.norm(w) ** 2 <= 10.0 * (1.0 + 1e-9)
    assert payload["rates_bits"][0] >= 6.0 - 1e-6


def test_sdr_on_a_silent_target_designs_with_zero_mi(tmp_path):
    cfg_path = write_sdr_point(tmp_path, 0.0)
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert payload["mi_bits"] == 0.0


def test_rate_sweep_has_knee_at_paper_seed(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            sweep={"variable": "rate_target",
                                   "grid": [1, 2, 3, 4, 5, 6, 7]})
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "sweep.csv")
    mi = [float(r[header.index("mi_bits")]) for r in rows]
    assert max(abs(v - mi[0]) for v in mi[:6]) <= 1e-6
    assert mi[6] < mi[5] - 1e-6


def test_power_sweep_mi_non_decreasing(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.yaml",
        interference={"span": [-30.0, -25.0], "count": 50, "strength": 100.0},
        solver={"name": "mm-single", "max_iters": 400},
        sweep={"variable": "power_dbm", "grid": [30.0, 40.0, 50.0]},
    )
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "sweep.csv")
    mi = [float(r[header.index("mi_bits")]) for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(mi, mi[1:]))


def test_sweep_grid_override_and_empty_grid(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            sweep={"variable": "rate_target", "grid": [1.0, 2.0]})
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--grid", "1,3"]) == 0
    header, rows = read_csv(tmp_path / "o" / "sweep.csv")
    assert [float(r[1]) for r in rows] == [1.0, 3.0]
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--grid", "5,4"])
    assert code == 2
    capsys.readouterr()


def test_sweep_parses_its_config_once(tmp_path, monkeypatch):
    parsed = []

    def counting(path):
        parsed.append(path)
        return parse_config(path)

    monkeypatch.setattr(cli, "parse_config", counting)
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            sweep={"variable": "rate_target", "grid": [1.0, 2.0, 3.0]})
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert len(parsed) == 1


def test_sweep_threads_match_sequential(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            sweep={"variable": "rate_target", "grid": [1.0, 4.0]})
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "p"),
                     "--threads", "2"]) == 0
    assert (tmp_path / "s" / "sweep.csv").read_bytes() == \
        (tmp_path / "p" / "sweep.csv").read_bytes()


def test_eval_beampattern_row_count(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml")
    assert cli.main(["eval", "beampattern", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "spectrum.csv")
    assert header == ["angle_deg", "value_db"]
    assert len(rows) == 1801
    values = np.array([float(r[1]) for r in rows])
    assert values.max() == pytest.approx(0.0, abs=1e-9)


def test_eval_capon_runs_and_normalizes(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            target={"angles": [0.0], "strengths": [25.0]})
    assert cli.main(["eval", "capon", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "spectrum.csv")
    values = np.array([float(r[1]) for r in rows])
    assert values.max() == pytest.approx(0.0, abs=1e-9)


def test_eval_rmse_table_shape(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            eval={"trials": 50, "snr_grid_db": [-10, 0, 10, 20, 30]})
    assert cli.main(["eval", "rmse", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0
    header, rows = read_csv(tmp_path / "o" / "rmse.csv")
    assert header == ["snr_db", "rmse_deg", "trials"]
    assert len(rows) == 5
    assert all(int(r[2]) == 50 for r in rows)


def test_eval_rmse_solves_with_the_config_solver_options(tmp_path, monkeypatch):
    # every design of the sweep is solved with the config's solver section
    # and the run's seed, as ``solve`` does
    received = []
    solve = dispatch.solve_scenario

    def recording(scenario, scheme, opts=SolverOptions()):
        received.append(opts)
        return solve(scenario, scheme, opts)

    monkeypatch.setattr(dispatch, "solve_scenario", recording)
    cfg_path = write_config(tmp_path / "cfg.yaml", solver={"max_iters": 3},
                            eval={"trials": 2, "snr_grid_db": [0, 20]})
    assert cli.main(["eval", "rmse", "--config", str(cfg_path), "--seed", "11",
                     "--out", str(tmp_path / "o")]) == 0
    assert received == [SolverOptions(max_iters=3, seed=11)] * 2


@pytest.mark.parametrize("kind, name", [("rmse", "rmse.csv"), ("capon", "spectrum.csv")])
def test_eval_is_byte_identical(tmp_path, kind, name):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            eval={"trials": 50, "snr_grid_db": [-10, 0, 10, 20, 30]})
    for out in ("a", "b"):
        assert cli.main(["eval", kind, "--config", str(cfg_path),
                         "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_sdr_reports_reduced_dimension_and_reruns_identically(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            interference={"angles": [-30.0], "strengths": [100.0]},
                            solver={"name": "sdr", "randomizations": 200})
    for out in ("a", "b"):
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    payload = json.loads((tmp_path / "a" / "solution.json").read_text())
    assert payload["reduced_dim"] == 3  # target, interferer and the channel outside them
    assert len(payload["w_re"]) == 6
    assert payload["kkt_residual"] is payload["comp_power"] is payload["comp_rate"] is None
    assert payload["inner_steps"] is payload["finish_steps"] is None
    assert (tmp_path / "a" / "solution.json").read_bytes() == \
        (tmp_path / "b" / "solution.json").read_bytes()


def test_solve_sdr_silent_extended_interferer_designs_as_without_one(tmp_path):
    # every strength zero: the config is valid for sdr, which designs as if
    # there were no interferer instead of failing on its 50 components
    designs = []
    for name, interference in (("silent", {"span": [-30.0, -25.0], "count": 50, "strength": 0.0}),
                               ("none", "none")):
        cfg_path = write_config(tmp_path / f"{name}.yaml", interference=interference,
                                solver={"name": "sdr", "randomizations": 200})
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        payload = json.loads((tmp_path / name / "solution.json").read_text())
        designs.append((payload["w_re"], payload["w_im"]))
    assert designs[0] == designs[1]


def test_solve_zero_strength_target_exits_zero(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.yaml",
        target={"angles": [0.0], "strengths": [0.0]},
        interference={"span": [-30.0, -25.0], "count": 50, "strength": 100.0},
        solver={"name": "mm-single"},
    )
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert payload["mi_bits"] == 0.0
    assert payload["status"] == "converged"
    assert payload["rates_bits"][0] >= 6.0


def test_solve_multi_user_zero_strength_target_exits_zero(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.yaml",
        system={"n_users": 3, "rate_targets": [6.0, 6.0, 6.0]},
        target={"angles": [0.0], "strengths": [0.0]},
        interference={"span": [-30.0, -25.0], "count": 50, "strength": 100.0},
        solver={"name": "mm-multi"},
    )
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert payload["mi_bits"] == 0.0
    assert payload["kkt_residual"] == 0.0
    assert payload["status"] == "converged"
    assert min(payload["rates_bits"]) >= 6.0 - 1e-6


def test_solve_multi_user_config_reports_certificate_and_reruns_identically(tmp_path):
    # the shipped 3-user config, cut to 20 outer iterations
    raw = yaml.safe_load((CONFIGS / "multi_user.yaml").read_text())
    raw["solver"]["max_iters"] = 20
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    for out in ("a", "b"):
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    payload = json.loads((tmp_path / "a" / "solution.json").read_text())
    assert payload["scheme"] == "mm-multi"
    assert payload["iterations"] == 20
    assert payload["reduced_dim"] == 6  # 50 interferer angles span all 6 antennas
    assert np.isfinite(payload["kkt_residual"]) and payload["kkt_residual"] > 0.0
    assert payload["comp_power"] >= 0.0 and payload["comp_rate"] >= 0.0
    assert payload["inner_steps"] >= payload["iterations"]  # dual Newton steps
    assert payload["finish_steps"] == 0  # the cap came before the eps2 stop
    for name in ("solution.json", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_mm_single_reports_finish_steps_and_reruns_identically(tmp_path):
    cfg_path = CONFIGS / "single_user_extended.yaml"
    for out in ("a", "b"):
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    payload = json.loads((tmp_path / "a" / "solution.json").read_text())
    assert payload["status"] == "converged"
    assert payload["finish_steps"] >= 1 and payload["kkt_residual"] <= 1e-9
    for name in ("solution.json", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_csv_comment_header_carries_provenance(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            sweep={"variable": "rate_target", "grid": [1.0]})
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "sweep.csv").read_text()
    assert "# config_hash:" in text
    assert "# seed:" in text
    assert "# version:" in text
    assert "\r" not in text


def test_grid_spec_parsing():
    assert cli._parse_grid("1,2,3") == [1.0, 2.0, 3.0]
    assert cli._parse_grid("0:10:5") == [0.0, 5.0, 10.0]
