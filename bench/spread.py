"""Run workloads over several seeds and report each end-to-end metric's
median and quartile spread, the way the benchmark's bounds are judged.

    python3 bench/spread.py --workloads train generate score --seeds 0-9

Runs go one after another (never two at once, so they do not slow each
other). For every metric the spread is (Q3 - Q1) / median over the seeds,
with quartiles from ``statistics.quantiles(values, n=4)``. ``--json`` keeps
every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every result here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    for wl in args.workloads:
        results = []
        for seed in args.seeds:
            r = run_once(wl, seed, args.seconds, 0)
            results.append(r)
            vals = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
            print(f"{wl} seed {seed}: correct {r['correct']} attempted {r['attempted']} "
                  f"failed {r['failed']} {vals}", flush=True)
        everything[wl] = results
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / med:.3f}"
            else:
                spread = "n/a"
            print(f"  {wl:<9} {name:<12} median {med:10.4f}  spread {spread}  bound {bound}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  {wl:<9} failed share per run: {sorted(shares)}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(everything, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
