"""Tests of the benchmark itself: ``python -m pytest bench``."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from tracer import Tracer
from mibeam import linalg, mm, sdr


def _bindings(original):
    return [(name, attr) for name, module in sys.modules.items()
            if name == "mibeam" or name.startswith("mibeam.")
            for attr, value in vars(module).items() if value is original]


def test_tracer_restores_every_patched_binding():
    originals = {q: getattr(sys.modules[f"mibeam.{q.rsplit('.', 1)[0]}"], q.rsplit(".", 1)[1])
                 for q in run.TRACE_TARGETS}
    before = {q: _bindings(fn) for q, fn in originals.items()}
    # bound by name in mm and sdr as well as in linalg
    assert len(before["linalg.hermitian_sqrt"]) > 1

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched("mibeam", run.TRACE_TARGETS):
            for q, fn in originals.items():
                assert _bindings(fn) == [], f"{q} still bound unwrapped"
            assert sdr.hermitian_sqrt is mm.hermitian_sqrt is linalg.hermitian_sqrt
            assert linalg.hermitian_sqrt.__wrapped__ is originals["linalg.hermitian_sqrt"]
            raise RuntimeError("leave the block by an exception")
    assert {q: _bindings(fn) for q, fn in originals.items()} == before


def test_self_time_on_synthetic_nested_call():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = Tracer(clock=lambda: now[0])
    inner = tracer.wrap("inner", lambda: tick(2.0))

    def body():
        tick(1.0)
        inner()
        tick(3.0)
        inner()
        return 7

    outer = tracer.wrap("outer", body, count=lambda result: result)
    assert outer() == 7
    stats = tracer.stats
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 8.0, 4.0)
    assert (stats["inner"].calls, stats["inner"].total_s, stats["inner"].self_s) == (2, 4.0, 4.0)
    assert stats["outer"].counted == 7
    assert tracer.root_s == 8.0 and tracer.spans == 3


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    spec = wl.WORKLOADS[name]
    cfg = wl.load_config(spec)

    def draw(seed):
        parts = []
        for item in wl.work_list(spec, cfg, seed):
            sc = item.scenario
            parts.append(repr((item.index, item.seed, sc.config, sc.target,
                               sc.interference)).encode())
            parts.append(np.ascontiguousarray(sc.channel, dtype=complex).tobytes())
        return b"".join(parts)

    assert draw(3) == draw(3)
    assert (draw(3) != draw(4)) == (spec.channels != "family")


def _solved_design(name="sdr-point"):
    spec = wl.WORKLOADS[name]
    cfg = wl.load_config(spec)
    item = wl.work_list(spec, cfg, 1)[0]
    result = wl.dispatch.solve_scenario(item.scenario, cfg.scheme,
                                        replace(cfg.solver, seed=item.seed))
    return item.scenario, cfg.scheme, result


def test_gate_accepts_a_solved_design_and_rejects_an_over_budget_one():
    scenario, scheme, result = _solved_design()
    assert wl.check_design(scenario, scheme, result) == []

    w = result.w * np.sqrt(1.0 + 1e-6)
    over = replace(result, w=w, mi_nats=wl.mutual_information_nats(scenario, w))
    failures = wl.check_design(scenario, scheme, over)
    assert len(failures) == 1 and failures[0].startswith("power")


def test_gate_recomputes_mi_and_rates_itself():
    scenario, scheme, result = _solved_design()
    assert wl.mutual_information_nats(scenario, result.w) == pytest.approx(result.mi_nats, rel=1e-9)
    assert wl.check_design(scenario, scheme, replace(result, mi_nats=result.mi_nats * 1.01))
    weak = replace(scenario, channel=scenario.channel * 0.5)
    assert any(f.startswith("rates") for f in wl.check_design(weak, scheme, result))


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
