"""Run the benchmark over several seeds and summarize the spread.

Usage (from the repository root)::

    python3 perfbench/collect.py perfbench/trajectory/seed.json

For each of seeds 0-9 it runs every workload of ``BENCHMARK.json``, and
``paper-n30``, once with tracing off (workloads interleaved, so a slow spell
on the machine hits all of them), then one traced run per workload on seed
0.  It prints, per workload and end-to-end metric, the median, the quartiles
and their distance as a share of the median next to the metric's bound from
``BENCHMARK.json`` ("steady" when the spread is below a third of the bound),
and writes all of it, with the full per-layer table of the traced run, to
the given file; its name, without ``.json``, is the label of this trajectory
point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = 10
TRACE_SEED = 0
# Measured for the trajectory but kept out of BENCHMARK.json: its op time
# swings too much from run to run on a shared host to meet any allowed bound.
UNGATED = ("paper-n30",)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0].removeprefix("env "))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="write the summary JSON here")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] + list(UNGATED)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(SEEDS))

    samples = {w: {} for w in names}
    units = {}
    failed = {w: 0 for w in names}
    env = None
    for seed in seeds:
        for w in names:
            result, env = run(w, seed, seconds, 0)
            failed[w] += result["failed"]
            for m, v in result["metrics"].items():
                samples[w].setdefault(m, []).append(v["value"])
                units[m] = v["unit"]
            print(f"seed {seed} {w}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)

    summary = {"label": args.out.stem, "run_seconds": seconds, "seeds": seeds,
               "environment": {k: v for k, v in env.items() if k not in ("workload", "seed")},
               "workloads": {}}
    for w in names:
        e2e = {m: {"unit": units[m], **spread(v)} for m, v in samples[w].items()}
        entry = {"failed_ops": failed[w], "end_to_end": e2e}
        print(f"\n{w} ({len(seeds)} seeds, {failed[w]} failed ops)")
        for m, s in e2e.items():
            flag = ("not in BENCHMARK.json" if w in UNGATED else
                    "steady" if s["spread"] <= bounds[m] / 3 else
                    "within bound" if s["spread"] <= bounds[m] else "OVER BOUND")
            print(f"  {m:16s} {s['unit']:6s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g}"
                  f" q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bounds[m]} {flag}")
        result, _ = run(w, TRACE_SEED, seconds, 1)
        layers = result["metrics"]
        entry["per_layer"] = {"seed": TRACE_SEED, "failed_ops": result["failed"], "metrics": layers}
        print("  traced: " + ", ".join(f"{m}={v['value']:.4g}" for m, v in layers.items()))
        summary["workloads"][w] = entry

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
