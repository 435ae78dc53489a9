"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--seconds 25]
                             [--traced-seeds 1] [--out FILE]

Each run is a separate ``bench/run.py`` process, one at a time.  For every
workload and metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` returns them, and the spread
(q3 - q1) / median, next to the bound from ``BENCHMARK.json``.  With
``--out`` the summary, the machine facts of the first run, and the per-layer
predictions are written as JSON (the format of ``bench/BENCH_0.json``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{done.stderr}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    report["exit_code"] = done.returncode
    report["correct"] = result["correct"]
    return report


def summarize(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "values": []}
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def collect(reports: list) -> dict:
    metrics, extra = {}, {}
    for report in reports:
        for name, metric in report["metrics"].items():
            metrics.setdefault(name, {"unit": metric["unit"], "runs": []})["runs"].append(
                metric["value"])
        for name, value in report["extra"].items():
            if not isinstance(value, dict):
                extra.setdefault(name, []).append(value)
    return {
        "runs": len(reports),
        "all_correct": all(r["correct"] and r["exit_code"] == 0 for r in reports),
        "metrics": {name: {"unit": m["unit"], **summarize(m["runs"])}
                    for name, m in metrics.items()},
        "extra": {name: summarize(values) for name, values in extra.items()},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    import dataclasses

    import run
    import workloads

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": seed_list(args.seeds),
               "traced_seeds": seed_list(args.traced_seeds) if args.traced_seeds else [],
               "machine": None, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        entry = {}
        for trace, seeds in ((0, summary["seeds"]), (1, summary["traced_seeds"])):
            if not seeds:
                continue
            reports = [run_once(workload, seed, args.seconds, trace) for seed in seeds]
            summary["machine"] = summary["machine"] or reports[0]["machine"]
            entry["per_layer" if trace else "end_to_end"] = collect(reports)
            ok &= entry["per_layer" if trace else "end_to_end"]["all_correct"]
        summary["workloads"][workload] = entry
        for name, m in entry.get("end_to_end", {}).get("metrics", {}).items():
            spread = m.get("spread")
            flag = "" if spread is None or spread < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:20s} {name:14s} median {m['median']:.6g} {m['unit']:5s} "
                  f"spread {spread if spread is not None else float('nan'):.4f} "
                  f"(bound {bounds[name]}){flag}")
        print(f"{workload:20s} all runs correct: "
              f"{all(e['all_correct'] for e in entry.values())}", flush=True)
    summary["held_out_seed"] = workloads.HELD_OUT_SEED
    summary["work_lists"] = {
        w["name"]: {"why": w["why"], **dataclasses.asdict(workloads.WORKLOADS[w["name"]])}
        for w in spec["workloads"]}
    summary["predictions"] = [{"metric": name, "unit": unit, "moves": moves}
                              for name, unit, moves in run.PER_LAYER]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
