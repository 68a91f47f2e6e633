"""One fresh benchmark process: a set-up probe or a timed run of a workload.

    python3 perfbench/worker.py --role setup --workload scan
    python3 perfbench/worker.py --role run --workload scan --seed 1 --seconds 30 \
        --trace 0 --rounds 8

Started by ``run.py``, which sets the BLAS thread count in the
environment before numpy loads.  numpy, spin1chain and ``workloads`` are
imported inside functions, after the set-up clock has started
(``tracing`` needs only the standard library).  The last line of
standard output is one JSON object with the process's results.
"""

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".perfbench")


def set_up(workload, workdir):
    """Import the CLI and run the workload's warm-up ops; returns seconds taken.

    Everything from the first spin1chain import (numpy and scipy included)
    to the end of the warm-up counts as set-up.
    """
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spin1chain.cli  # noqa: F401  (timed import)
    import workloads

    for op in workloads.warmup_ops(workload):
        workloads.prepare(op, workdir)
        problem = op.check(workloads.execute(op, workdir)[0])
        if problem is not None:
            raise SystemExit(f"warm-up op {op.label} failed: {problem}")
    return time.perf_counter() - start


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()
                 and line.rstrip().endswith(".so")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment():
    """Versions, CPU and BLAS threads, kernel backend and an 81x81 eigh probe.

    The probe's median time flags a process whose BLAS threading runs small
    eigendecompositions ~100x slower than normal; such runs are kept.
    """
    import importlib.util
    import platform

    import numpy as np
    import scipy

    from spin1chain import kernels

    rng = np.random.default_rng(81)
    mat = rng.normal(size=(81, 81)) + 1j * rng.normal(size=(81, 81))
    mat = mat + mat.conj().T
    probe = []
    for _ in range(21):
        start = time.perf_counter()
        np.linalg.eigh(mat)
        probe.append(time.perf_counter() - start)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.backend_name(),
        "eigh81_ms": round(statistics.median(probe) * 1e3, 4),
    }


class CpuPicker:
    """Keeps the worker on whichever of its CPUs runs a fixed probe fastest.

    On a shared VM each vCPU has its own slow and fast spells, as host
    cores are shared with other tenants.  Every ``interval`` seconds, and
    only between ops, the worker times an 81x81 complex ``eigh`` on each
    allowed CPU and pins itself to the fastest.  The op itself is timed as
    it runs; the pick only moves it off a CPU that is slow at the moment.
    """

    def __init__(self, interval=0.25):
        import numpy as np

        self.cpus = sorted(os.sched_getaffinity(0))
        self.interval = interval
        self.picked_at = -interval
        self.picks = {}
        rng = np.random.default_rng(81)
        mat = rng.normal(size=(81, 81)) + 1j * rng.normal(size=(81, 81))
        self._probe = functools.partial(np.linalg.eigh, mat + mat.conj().T)

    def _probe_time(self, cpu):
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(2):
            start = time.perf_counter()
            self._probe()
            times.append(time.perf_counter() - start)
        return min(times)

    def maybe_pick(self):
        if len(self.cpus) < 2 or time.perf_counter() - self.picked_at < self.interval:
            return
        best = min(self.cpus, key=self._probe_time)
        os.sched_setaffinity(0, {best})
        self.picks[best] = self.picks.get(best, 0) + 1
        self.picked_at = time.perf_counter()


def timed_phase(workload, seed, seconds, trace, rounds, workdir):
    """Run the op list ``rounds`` times over, checks outside the timed
    intervals, and make the byte-identity check after the first round.

    Round r runs, in list order, every op whose ``rounds`` cap exceeds r,
    so repeats of one op lie a whole list apart.  Returns each op's best
    latency over its runs (None for an op that never ran) and the failed
    runs.
    """
    import workloads

    ops = [op for session in workloads.build(workload, seed, seconds) for op in session]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    picker = CpuPicker()
    best = [None] * len(ops)
    failures, notes = {}, {}
    runs = failed = crashed = incorrect = 0
    reference = None
    for rnd in range(rounds):
        previous_ok = True
        for index, op in enumerate(ops):
            if op.rounds is not None and rnd >= op.rounds:
                continue
            runs += 1
            if op.needs_previous and not previous_ok:
                failed += 1
                failures.setdefault(index, f"{op.label}: not run, the op writing its input failed")
                continue
            workloads.prepare(op, workdir)
            picker.maybe_pick()
            around = (contextlib.nullcontext if tracer is None
                      else functools.partial(tracer.op, index, op.label))
            outcome, elapsed = workloads.execute(op, workdir, around)
            best[index] = elapsed if best[index] is None else min(best[index], elapsed)
            problem = op.check(outcome)
            previous_ok = outcome.code == 0
            if problem is not None:
                failed += 1
                failures.setdefault(index, f"{op.label}: {problem}"[:400])
                crashed += outcome.code == workloads.CRASH
                incorrect += op.exact
            elif op.note is not None and rnd == 0:
                key, value = op.note(outcome)
                notes.setdefault(key, []).append(value)
            if rnd == 0 and op.byte_check and outcome.code == 0 and reference is None:
                reference = (op, workloads.snapshot(workdir))

    # byte identity: rerun the first candidate op that succeeded in a fresh
    # directory and compare every artifact and manifest byte
    byte_failure = None
    if reference is None:
        byte_failure = "byte identity: no candidate op succeeded, nothing to compare"
    else:
        op, expected = reference
        fresh = workdir + "-rerun"
        os.makedirs(fresh)
        try:
            workloads.prepare(op, fresh)
            workloads.execute(op, fresh)
            if not expected or workloads.snapshot(fresh) != expected:
                byte_failure = f"{op.label}: rerun artifacts differ from the timed run's bytes"
        finally:
            shutil.rmtree(fresh, ignore_errors=True)

    result = {
        "labels": [op.label for op in ops],
        "latencies": best,
        "rounds": rounds,
        # every run of every op counts, and the byte-identity rerun once
        "attempted": runs + 1,
        "failed": failed + (byte_failure is not None),
        "failures": [failures[index] for index in sorted(failures)]
                    + ([byte_failure] if byte_failure else []),
        "byte_identical": byte_failure is None,
        "crashed": crashed,
        "incorrect": incorrect,
        "notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_picks": picker.picks,
    }
    if tracer is not None:
        metrics, wall, unattributed = tracing.layer_metrics(tracer.spans)
        spans_path = os.path.join(STATE_DIR, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write(spans_path)
        result["trace"] = {"metrics": metrics, "wall_s": wall, "unattributed_s": unattributed,
                           "spans": len(tracer.spans),
                           "spans_path": os.path.relpath(spans_path, ROOT)}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = {"setup_s": set_up(args.workload, workdir)}
        if args.role == "run":
            result["env"] = environment()
            result.update(timed_phase(args.workload, args.seed, args.seconds, bool(args.trace),
                                      args.rounds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
