import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from mibeam import cli
from mibeam.config import EvalOptions, parse_config
from mibeam.dispatch import SolverOptions

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
        if isinstance(value, dict) and key in cfg and isinstance(cfg[key], dict):
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
    (["solve"], {"solver": {"seed": -1}}, "solver.seed"),
    (["solve"], {"system": {"rng_seed": -3}}, "system.rng_seed"),
], ids=["echo_seed", "cli_seed", "channel_seed", "solver_seed", "rng_seed"])
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
], ids=["sweep_empty", "sweep_repeated", "cli_empty", "cli_decreasing", "cli_unparsable"])
def test_invalid_grid_is_config_error(tmp_path, capsys, args, overrides, source):
    cfg_path = write_config(tmp_path / "cfg.yaml", **overrides)
    code = cli.main(args + ["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert source in err["reason"]
    assert not (tmp_path / "o").exists()


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


def test_infeasible_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.yaml",
                            system={"rate_targets": [30.0]})
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "infeasible"


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
    assert payload["inner_steps"] is None
    assert (tmp_path / "a" / "solution.json").read_bytes() == \
        (tmp_path / "b" / "solution.json").read_bytes()


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
