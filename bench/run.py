"""Run one benchmark workload of moldiff from a seed.

    python3 bench/run.py --workload {train,generate,score} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from ``src/``
there. The run sets up three times (``setup_s`` is the median), runs one
untimed warm-up round, then identical timed rounds until ``--seconds`` have
passed, then the untimed checks. ``mol_per_ref_s`` is the median over rounds
of the work a round does divided by the time of its API calls, and
``setup_s`` the median set-up time; both times are in reference seconds,
wall time rescaled by the machine's speed at that moment (see ``speed.py``).
The wall-clock figures are printed and kept in the run record too.

With ``--trace 1`` the timed rounds alternate between untraced and traced;
the traced rounds record spans around each layer boundary (see
``instrument.py``), the per-layer metrics come from them, and
``trace.overhead_pct`` compares the two kinds of round.

The environment goes to stdout first; the last line of stdout is the JSON
result. Checkpoints go to a temporary directory under ``.bench_out/``, which
also keeps the per-run JSON and, for traced runs, the span file.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_ROUNDS = 5


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, scratch: Path,
            sizes=None) -> tuple[dict, dict, object]:
    """Set up, time rounds, check; return the result, a run record and the
    tracer (None when untraced)."""
    # these import moldiff, so they wait until main() has put src/ on the path
    import instrument
    import speed
    from spans import Tracer
    from workloads import WORKLOADS

    cls, default_sizes = WORKLOADS[name]
    wl = cls(seed, scratch, sizes or default_sizes)
    tracer = Tracer() if trace else None
    span = tracer.span if tracer else None

    if tracer:
        instrument.install(tracer)
    setup_times, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if tracer:
            with tracer.span("setup"):
                _, wall, ref = speed.timed(wl.setup)
        else:
            _, wall, ref = speed.timed(wl.setup)
        setup_times.append(wall)
        setup_ref.append(ref)
    if tracer:
        tracer.unwrap()
        tracer.counts.clear()

    wl.reference()
    warm = wl.round()
    attempted, failed = warm.attempted, warm.failed

    rates, traced_rates, wall_rates = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced_round = tracer is not None and len(rates) > len(traced_rates)
        if traced_round:
            instrument.install(tracer)
        gc.collect()
        r = wl.round(span) if traced_round else wl.round()
        if traced_round:
            tracer.unwrap()
        attempted += r.attempted
        failed += r.failed
        if r.seconds > 0:
            (traced_rates if traced_round else rates).append(r.work / r.ref_seconds)
            if not traced_round:
                wall_rates.append(r.work / r.seconds)
        if time.perf_counter() >= deadline and len(rates) + len(traced_rates) >= MIN_ROUNDS:
            break

    problems = wl.final_checks()
    for p in problems:
        print(f"check failed: {name}: {p}", file=sys.stderr)

    if tracer:
        wl.quality_checks()
        overhead = 100.0 * (statistics.median(rates) / statistics.median(traced_rates) - 1.0)
        values = instrument.layer_metrics(tracer, wl, overhead)
        units = {n: u for n, u, _ in instrument.PER_LAYER}
        print("\n".join(instrument.self_time_table(tracer, name)))
    else:
        values = {"mol_per_ref_s": statistics.median(rates) if rates else 0.0,
                  "setup_s": statistics.median(setup_ref),
                  "peak_rss_mb": peak_rss_mb()}
        units = {"mol_per_ref_s": "mol/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"wall clock: {statistics.median(wall_rates) if wall_rates else 0.0:.4f} "
              f"{wl.work_unit}/s, set-up {statistics.median(setup_times):.4f} s")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "work_unit": wl.work_unit, "setup_times": setup_times, "setup_ref": setup_ref,
              "round_rates": rates, "wall_round_rates": wall_rates,
              "traced_round_rates": traced_rates, "problems": problems, "result": result}
    return result, record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "moldiff" / "__init__.py").is_file():
        print(f"bench: no moldiff sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import moldiff

    if Path(moldiff.__file__).resolve().parent != SRC / "moldiff":
        print(f"bench: imported moldiff from {moldiff.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=out, prefix=f"{tag}-") as scratch:
        result, record, tracer = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace), Path(scratch))
    record["env"] = env
    (out / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(out / f"spans-{tag}.npz")
        print(f"spans written to {out / f'spans-{tag}.npz'}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
