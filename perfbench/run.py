"""spin1chain benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: fresh-interpreter set-up probes, then one fresh worker that runs
the workload's seeded op list back to back (a closed loop with one
client) several rounds over and checks every output; an op's latency is
its best time over its runs.  ``--trace 1`` runs the op list once in each
of two fresh workers, untraced and then with spans around every call into
the package's layers, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# the names in workloads.WORKLOADS, repeated here so that this parent
# process never imports numpy or spin1chain
WORKLOADS = ("scan", "spectra", "tomography")

# times the op list runs in one worker.  An op's latency is its best time
# over its runs (long ops cap their runs, see workloads.Op.rounds).  On a
# shared 2-vCPU VM the CPU's speed flips between about 1.0x and 1.6x in
# bursts of 0.1 s to tens of seconds, so one run of a short op lands in
# either mode and the median of single runs jumps between them; the best
# of runs a whole list apart is the op's cost when other tenants are not
# in its way.  spectra's ops take seconds each, so it runs its list once.
ROUNDS = {"scan": 9, "spectra": 1, "tomography": 7}
# fresh-interpreter set-up samples per --trace 0 run: the worker gives
# one, probe processes the rest
SETUP_SAMPLES = 4
# BLAS threads of every worker.  One thread: on a shared 2-vCPU VM a
# threaded eigh stalls whenever either vCPU is preempted, which made run
# times spread about twice as wide as single-threaded runs.
BLAS_THREADS = 1
# the whole benchmark ends within this many seconds
DEADLINE_S = 176.0


def tail_latency(latencies):
    """(percentile, value): the highest percentile with at least ten samples
    above it, taken as the 11th-largest sample (nearest rank)."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return 0.0, ordered[0]
    return 100.0 * (count - 10) / count, ordered[count - 11]


def fail_ratio(failed, attempted):
    """Failed share of the ops, as the rule-of-succession estimate
    (failed + 1) / (attempted + 2): never 0, and one new failure on a
    workload that had none doubles it."""
    return (failed + 1) / (attempted + 2)


def child_env():
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def spawn(deadline, *args):
    """Run one worker process to completion; returns its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise RuntimeError("benchmark deadline reached before a worker could start")
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=remaining, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_worker(deadline, args, trace, rounds):
    """Run the op list in one fresh worker; drops ops that never ran."""
    result = spawn(deadline, "--role", "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--rounds", str(rounds))
    ran = [(label, t) for label, t in zip(result["labels"], result["latencies"]) if t is not None]
    result["labels"] = [label for label, _ in ran]
    result["latencies"] = [t for _, t in ran]
    return result


def end_to_end(run, setups):
    latencies = run["latencies"]
    pct, tail = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (math.fsum(latencies), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "fail_ratio": (fail_ratio(run["failed"], run["attempted"]), "1"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    info = {"op_tail_percentile": round(pct, 3), "op_samples": len(latencies),
            "rounds": run["rounds"], "setup_samples": len(setups)}
    return metrics, info


def per_layer(untraced, traced):
    trace = traced["trace"]
    untraced_wall = math.fsum(untraced["latencies"])
    metrics = {name: (value, _unit(name)) for name, value in trace["metrics"].items()}
    metrics["trace.wall_s"] = (trace["wall_s"], "s")
    metrics["trace.unattributed_s"] = (trace["unattributed_s"], "s")
    metrics["trace.overhead_s"] = (trace["wall_s"] - untraced_wall, "s")
    info = {"spans": trace["spans"], "spans_path": trace["spans_path"],
            "untraced_wall_s": untraced_wall}
    return metrics, info


def _unit(name):
    quantity = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "hit_ratio": "1", "bytes_written": "B", "bytes_computed": "B",
            "hankel_cells_max": "cells", "max_dim": "dim", "dim3_sum": "dim3"}.get(
        quantity, "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spin1chain", "cli.py")):
        print(f"no spin1chain sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            untraced = run_worker(deadline, args, 0, 1)
            run = run_worker(deadline, args, 1, 1)
            metrics, info = per_layer(untraced, run)
            runs = (untraced, run)
        else:
            setups = [spawn(deadline, "--role", "setup", "--workload", args.workload)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            run = run_worker(deadline, args, 0, ROUNDS[args.workload])
            metrics, info = end_to_end(run, setups + [run["setup_s"]])
            runs = (run,)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = all(r["byte_identical"] and r["crashed"] == 0 and r["incorrect"] == 0
                  for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes = {key: [round(v, 6) for v in values] for key, values in run["notes"].items()}
    print("env " + json.dumps(run["env"], sort_keys=True))
    print("info " + json.dumps({**info, "workload": args.workload, "seed": args.seed,
                                "crashed": run["crashed"], "incorrect": run["incorrect"],
                                "byte_identical": run["byte_identical"], **notes},
                               sort_keys=True))
    by_label = {}
    for label, seconds in zip(run["labels"], run["latencies"]):
        by_label.setdefault(label, []).append(seconds)
    print("op medians ms " + json.dumps(
        {label: [len(v), round(statistics.median(v) * 1e3, 3)] for label, v in by_label.items()},
        sort_keys=True))
    for failure in run["failures"]:
        print("failed op " + failure.replace("\n", " ")[:300])
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
