"""Benchmark of the mibeam beamformer designers and evaluation pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one thread (BLAS pinned below, before numpy loads), closed
loop over the workload's fixed work list (``workloads.py``): each item is one
generated input and the program calls made on it, one item at a time.  The
list is passed over again while another pass fits in ``--seconds``.  Every
item's output passes the correctness gate or the run exits 1.

``--trace 0`` reports the end-to-end metrics with tracing off: ``run_s`` is
the median time of one pass, ``solve_s_p50`` the median of single
``dispatch.solve_scenario`` calls, and ``setup_s`` the median of several
fresh-interpreter set-ups (import, config parse, work-list generation and
``model.build_instance`` of every item).  Times are scaled to the machine's
nominal speed (``speed.py``); the report keeps the raw wall times too.
``--trace 1`` wraps the layers' public functions from here, at every module
binding, and reports per-layer counts and self times derived from the spans.

The next-to-last stdout line is a full report (machine facts, every metric,
failures); the last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# Functions the speed probe hooks to sample inside long items: mm calls the
# MI twice per outer iteration, the RMSE sweep calls mle_angle once a trial.
PROBE_HOOKS = ("model.mutual_information", "evaluation.mle_angle")
LAYERS = ("dispatch", "model", "linalg", "mm", "conic", "sdr", "evaluation")
_iterations = operator.attrgetter("iterations")


# Functions traced at every binding, with an optional count read from the
# return value.  closed_form is deliberately left out (about 0.4 ms a solve).
TRACE_TARGETS = {
    "config.parse_config": None,
    "dispatch.solve_scenario": None,
    "model.build_instance": None,
    "model.vec_expansion_matrix": None,
    "model.mutual_information": None,
    "model.achieved_rates": None,
    "model.simulate_echo": None,
    "model.simulate_echo_parts": None,
    "linalg.logdet_hermitian": None,
    "linalg.hermitian_sqrt": None,
    "linalg.psd_floor": None,
    "mm.solve_single_user": _iterations,
    "mm.solve_multi_user": _iterations,
    "mm.zero_forcing_init": None,
    "mm.build_surrogate": None,
    "mm.bisect_power_multiplier": None,
    "mm.rate_constrained_step": None,
    "mm.multiuser_subproblem": None,
    "conic.solve_qcqp": _iterations,
    "conic.solve_sdp": _iterations,
    "sdr.solve_point_interference": None,
    "sdr.build_sdp": None,
    "sdr.randomize": None,
    "evaluation.rmse_sweep": None,
    "evaluation.mle_angle": None,
    "evaluation.capon_spectrum": None,
    "evaluation.beampattern": None,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "solve_s_p50": "s",
    "mi_bits_mean": "bits",
    "peak_rss_mb": "MB",
}

# (name, unit, end-to-end metric it should move and on which workloads)
PER_LAYER = (
    ("config.parse_config.ms", "ms", "setup_s on every workload"),
    ("dispatch.solve_scenario.self_ms", "ms", "solve_s_p50 on every workload"),
    ("model.build_instance.ms", "ms", "setup_s on every workload"),
    ("model.mutual_information.us_per_call", "us",
     "solve_s_p50 on mm-single-extended and mm-multi-extended; no change on sdr-point"),
    ("model.mutual_information.calls_per_iter", "calls/iter",
     "solve_s_p50 on mm-single-extended and mm-multi-extended; no change on sdr-point"),
    ("model.simulate_echo_parts.us_per_call", "us", "run_s (trials_per_s) on rmse-eval"),
    ("linalg.hermitian_sqrt.calls", "calls/item", "run_s (trials_per_s) on rmse-eval"),
    ("mm.outer_iters", "iters/solve",
     "solve_s_p50 and converged_frac on mm-single-extended and mm-multi-extended"),
    ("mm.build_surrogate.self_us_per_call", "us",
     "solve_s_p50 on mm-single-extended and mm-multi-extended"),
    ("mm.bisect_power_multiplier.self_us_per_call", "us",
     "solve_s_p50 on mm-single-extended only; no change on mm-multi-extended"),
    ("mm.rate_constrained_step.calls_per_iter", "calls/iter",
     "solve_s_p50 on mm-single-extended only; no change on mm-multi-extended"),
    ("mm.rate_constrained_step.us_per_call", "us",
     "solve_s_p50 on mm-single-extended only; no change on mm-multi-extended"),
    ("mm.multiuser_subproblem.us_per_call", "us",
     "solve_s_p50 on mm-multi-extended and run_s on rmse-eval"),
    ("conic.solve_qcqp.us_per_call", "us",
     "solve_s_p50 on mm-multi-extended and run_s on rmse-eval"),
    ("conic.solve_qcqp.calls", "calls/item",
     "solve_s_p50 on mm-multi-extended and run_s on rmse-eval"),
    ("conic.solve_qcqp.newton_steps_per_call", "steps/call",
     "solve_s_p50 on mm-multi-extended and run_s on rmse-eval"),
    ("conic.solve_sdp.us_per_call", "us", "solve_s_p50 on sdr-point"),
    ("conic.solve_sdp.newton_steps_per_call", "steps/call", "solve_s_p50 on sdr-point"),
    ("sdr.build_sdp.us_per_call", "us", "solve_s_p50 on sdr-point"),
    ("sdr.randomize.us_per_call", "us", "solve_s_p50 on sdr-point"),
    ("evaluation.mle_angle.us_per_call", "us", "run_s (trials_per_s) on rmse-eval"),
    ("evaluation.capon_spectrum.us_per_call", "us", "run_s (trials_per_s) on rmse-eval"),
    ("evaluation.beampattern.us_per_call", "us", "run_s (trials_per_s) on rmse-eval"),
) + tuple(
    (f"{layer}.self_frac", "frac", f"share of run_s spent in {layer} itself, every workload")
    for layer in LAYERS
) + (
    ("trace.overhead_frac", "frac", "none: estimated slowdown the tracing adds"),
    ("trace.covered_frac", "frac", "none: share of run_s inside top-level spans"),
)


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        env = {**os.environ, "GIT_OPTIONAL_LOCKS": "0"}
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], env=env,
                                    capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return facts
        if head.returncode == 0 and status.returncode == 0:
            facts["commit"] = head.stdout.strip()
            facts["dirty"] = bool(status.stdout.strip())
    return facts


def measure_setup(workload: str, seed: int, probe) -> list[dict]:
    """Set-up timings from fresh interpreters (the import is cached in this
    one), scaled by the speed probe sampled around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    runs = []
    probe.sample()
    for _ in range(SETUP_REPEATS):
        start = probe.clock()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        end = probe.clock()
        probe.sample()
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{done.stderr}")
        timings = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({name: value * probe.factor(start, end) for name, value in timings.items()})
    return runs


def setup_only(workload: str, seed: int) -> dict:
    """One set-up in a fresh interpreter: import numpy and the program, parse
    the config, generate the work list and build every item's instance."""
    started = time.perf_counter()
    import workloads as wl

    import_s = time.perf_counter() - started
    spec = wl.WORKLOADS[workload]
    cfg = wl.load_config(spec)
    for item in wl.work_list(spec, cfg, seed):
        wl.model.build_instance(item.scenario)
    return {"import_s": import_s, "setup_s": time.perf_counter() - started}


def measure(spec, cfg, items: list, seconds: float, probe=None) -> list:
    """Closed loop: passes over the work list, one item at a time, until the
    next pass would end past ``seconds``; at least one pass.  With a speed
    probe, items are timed on its clock and it samples between items and
    from its hooks inside them."""
    import workloads as wl

    clock = probe.clock if probe else time.perf_counter
    passes = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        outcomes = []
        for item in items:
            if probe:
                probe.due()
            outcome = wl.run_item(spec, cfg, item, clock)
            for failure in outcome.failures:
                print(f"FAIL item {item.index} (seed {item.seed}): {failure}", file=sys.stderr)
            outcomes.append(outcome)
        if probe:
            probe.sample()
        passes.append(outcomes)
        now = time.perf_counter()
        if now - started + (now - began) > seconds:
            return passes


def tail_percentile(values: list):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def end_to_end(passes: list, setups: list, probe) -> tuple[dict, dict]:
    """Timings are scaled to nominal machine speed (``speed.py``); the raw
    wall-clock figures are kept in the extra fields."""
    outcomes = [o for outcomes in passes for o in outcomes]
    scale = {id(o): probe.factor(o.started, o.started + o.seconds) for o in outcomes}
    solves = [(solve, scale[id(o)]) for o in outcomes for solve in o.solves]
    times = [solve.seconds * f for solve, f in solves]
    converged = [solve.converged for solve, _ in solves if solve.converged is not None]
    kkt = [solve.kkt_residual for solve, _ in solves if solve.kkt_residual is not None]
    excess = [solve.bound_excess for solve, _ in solves if solve.bound_excess is not None]
    trials = sum(o.trials for o in outcomes)
    failed = sum(1 for o in outcomes if o.failures)

    def median(values):
        return statistics.median(values) if values else None

    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "run_s": median([sum(o.seconds * scale[id(o)] for o in outcomes) for outcomes in passes]),
        "solve_s_p50": median(times),
        "mi_bits_mean": statistics.fmean(s.mi_bits for s, _ in solves) if solves else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = tail_percentile(times)
    extra = {
        "import_s": median([s["import_s"] for s in setups]),
        "items": len(outcomes),
        "passes": len(passes),
        "run_wall_s": median([sum(o.seconds for o in outcomes) for outcomes in passes]),
        "solve_samples": len(times),
        "solve_wall_s_p50": median([solve.seconds for solve, _ in solves]),
        "solve_s_tail": {"pct": tail[0], "value": tail[1]} if tail else None,
        "speed_factor": {"median": median(list(scale.values())),
                         "min": min(scale.values()), "max": max(scale.values())},
        "kkt_residual_max": max(kkt) if kkt else None,
        "converged_frac": sum(converged) / len(converged) if converged else None,
        "fail_frac": failed / len(outcomes),
        "trials_per_s": (trials / sum(o.seconds * scale[id(o)] for o in outcomes)
                         if trials else None),
        "sdr_bound_exceeded_frac": (sum(e > 0.0 for e in excess) / len(excess)
                                    if excess else None),
        "sdr_bound_excess_max": max(excess) if excess else None,
    }
    return metrics, extra


def per_layer(tracer, outcomes: list, covered_s: float, span_cost: float) -> dict:
    stats = tracer.stats
    item_s = sum(o.seconds for o in outcomes)

    def calls(name):
        return stats[name].calls if name in stats else 0

    def ratio(num, den):
        return num / den if den else 0.0

    def us(name):
        return ratio(stats[name].total_s, calls(name)) * 1e6 if name in stats else 0.0

    def self_us(name):
        return ratio(stats[name].self_s, calls(name)) * 1e6 if name in stats else 0.0

    def counted_per_call(name):
        return ratio(stats[name].counted, calls(name)) if name in stats else 0.0

    mm_solves = ("mm.solve_single_user", "mm.solve_multi_user")
    iters = sum(stats[n].counted for n in mm_solves if n in stats)
    overhead_s = tracer.spans * span_cost
    values = {
        "config.parse_config.ms": us("config.parse_config") / 1e3,
        "dispatch.solve_scenario.self_ms": self_us("dispatch.solve_scenario") / 1e3,
        "model.build_instance.ms": us("model.build_instance") / 1e3,
        "model.mutual_information.us_per_call": us("model.mutual_information"),
        "model.mutual_information.calls_per_iter": ratio(calls("model.mutual_information"), iters),
        "model.simulate_echo_parts.us_per_call": us("model.simulate_echo_parts"),
        "linalg.hermitian_sqrt.calls": ratio(calls("linalg.hermitian_sqrt"), len(outcomes)),
        "mm.outer_iters": ratio(iters, sum(calls(n) for n in mm_solves)),
        "mm.build_surrogate.self_us_per_call": self_us("mm.build_surrogate"),
        "mm.bisect_power_multiplier.self_us_per_call": self_us("mm.bisect_power_multiplier"),
        "mm.rate_constrained_step.calls_per_iter": ratio(calls("mm.rate_constrained_step"), iters),
        "mm.rate_constrained_step.us_per_call": us("mm.rate_constrained_step"),
        "mm.multiuser_subproblem.us_per_call": us("mm.multiuser_subproblem"),
        "conic.solve_qcqp.us_per_call": us("conic.solve_qcqp"),
        "conic.solve_qcqp.calls": ratio(calls("conic.solve_qcqp"), len(outcomes)),
        "conic.solve_qcqp.newton_steps_per_call": counted_per_call("conic.solve_qcqp"),
        "conic.solve_sdp.us_per_call": us("conic.solve_sdp"),
        "conic.solve_sdp.newton_steps_per_call": counted_per_call("conic.solve_sdp"),
        "sdr.build_sdp.us_per_call": us("sdr.build_sdp"),
        "sdr.randomize.us_per_call": us("sdr.randomize"),
        "evaluation.mle_angle.us_per_call": us("evaluation.mle_angle"),
        "evaluation.capon_spectrum.us_per_call": us("evaluation.capon_spectrum"),
        "evaluation.beampattern.us_per_call": us("evaluation.beampattern"),
        "trace.overhead_frac": ratio(overhead_s, item_s - overhead_s),
        "trace.covered_frac": ratio(covered_s, item_s),
    }
    for layer in LAYERS:
        own = sum(s.self_s for name, s in stats.items() if name.startswith(layer + "."))
        values[f"{layer}.self_frac"] = ratio(own, item_s)
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mibeam" / "__init__.py").is_file():
        print(f"bench: no mibeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    import workloads as wl
    from speed import SpeedProbe
    from tracer import Tracer, span_cost_s

    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} (choose from "
              f"{', '.join(wl.WORKLOADS)})", file=sys.stderr)
        return 2

    spec = wl.WORKLOADS[args.workload]
    report = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts()}
    if args.trace:
        tracer = Tracer()
        with tracer.patched("mibeam", TRACE_TARGETS):
            cfg = wl.load_config(spec)
            roots_before = tracer.root_s
            passes = measure(spec, cfg, wl.work_list(spec, cfg, args.seed), args.seconds)
            covered_s = tracer.root_s - roots_before
        outcomes = [o for outcomes in passes for o in outcomes]
        values = per_layer(tracer, outcomes, covered_s, span_cost_s())
        units = {name: unit for name, unit, _ in PER_LAYER}
        extra = {"items": len(outcomes), "spans": tracer.spans}
    else:
        probe = SpeedProbe()
        setups = measure_setup(spec.name, args.seed, probe)
        cfg = wl.load_config(spec)
        items = wl.work_list(spec, cfg, args.seed)
        with probe.hooked("mibeam", PROBE_HOOKS):
            passes = measure(spec, cfg, items, args.seconds, probe)
        outcomes = [o for outcomes in passes for o in outcomes]
        values, extra = end_to_end(passes, setups, probe)
        units = END_TO_END_UNITS

    failures = [f for o in outcomes for f in o.failures]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not failures and all(m["value"] is not None for m in metrics.values())
    report.update(metrics=metrics, extra=extra, failures=failures[:20])
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": sum(1 for o in outcomes if o.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
