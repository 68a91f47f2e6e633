"""Seeded workloads of the benchmark: their operations and output checks.

An operation ("op") is one CLI invocation (``spin1chain.cli.main(argv)``)
or one library analysis call.  Every op runs with the working directory
set to a scratch directory, writes its artifacts under ``out/`` there and
is timed from the call to its return; its output check runs afterwards,
outside the timed interval.

The ops of a workload come from ``build(workload, seed, seconds)``: the
same arguments always give the same op list.  ``seconds`` scales the op
counts of the workload's recipe (stated for ``NOMINAL_SECONDS``), so the
list is a fixed amount of work, not a time-box: a faster program finishes
it sooner and ``wall_s`` shows by how much.
"""

import contextlib
import functools
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import spin1chain
from spin1chain import cli, dynamics, hamiltonians

WORKLOADS = ("scan", "spectra", "tomography")

# the paper's chain interaction kinds (every kind except the engineered model)
PAPER_KINDS = ("heisenberg", "heisenberg_squared_mix", "heisenberg_squared_sum",
               "O1", "O2", "O3", "O4", "O5")

# --seconds at which the recipes below hold their stated op counts; other
# values scale the counts.  At that size, on a 2-vCPU x86 VM with one BLAS
# thread at the commit that defined the benchmark, one round of the scan
# and tomography op lists takes about 2.5 s (run.py runs nine and seven
# rounds) and the spectra list about 35 s (run once).
NOMINAL_SECONDS = 30

# largest record length: matrix_pencil's Hankel matrix is (K - K//2) x (K//2 + 1),
# so its SVD costs O(K^3) time and O(K^2) memory; K = 2048 takes about 2 s and
# 50 MB, K = 4000 about 10 s, and a 100k-sample record would need ~40 GB
MAX_SAMPLES = 2048


@dataclass
class Op:
    """One operation with the files it needs and the check of its output."""

    label: str
    argv: list | None = None       # CLI op: arguments of cli.main
    call: object = None            # library op: callable returning a result
    files: dict = field(default_factory=dict)   # name -> text written before the op
    check: object = None           # callable(Outcome) -> None or an error message
    byte_check: bool = False       # candidate for the byte-identity rerun
    # the check compares with an exact reference (closed form, identity,
    # invariant), so its failure makes the run incorrect; estimation-accuracy
    # checks (tomography) only count the op as failed
    exact: bool = True
    # reads the artifacts of the op before it, so out/ is not cleared before
    # it runs; when that op failed, this one is counted as failed unrun
    needs_previous: bool = False
    note: object = None            # callable(Outcome) -> (key, value) to report
    # runs in the first ``rounds`` rounds only (None: in every round); caps
    # the repeats of ops that take a second or more
    rounds: int | None = None


@dataclass
class Outcome:
    """What one op returned: exit code, captured streams, result and directory."""

    code: int
    stdout: str
    stderr: str
    result: object
    workdir: str

    def json_stdout(self):
        return json.loads(self.stdout)

    def read_json(self, name):
        with open(os.path.join(self.workdir, "out", name), encoding="utf-8") as fh:
            return json.load(fh)


def prepare(op, workdir):
    """Write the op's input files, clearing the previous op's artifacts
    unless the op reads them."""
    if not op.needs_previous:
        shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    for name, text in op.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


# exit code of an op that raised past the program's error contract
CRASH = -1


def execute(op, workdir, around=contextlib.nullcontext):
    """Run one op in ``workdir``; returns (Outcome, seconds spent in the op).

    ``around()`` is entered just outside the timed call (the traced run
    opens the op's root span there).

    CLI errors come back as the CLI's non-zero exit code.  A library op
    that raises ValueError or RuntimeError (the library's documented
    errors) gets exit code 1; any other exception, or one escaping
    ``cli.main``, is a crash with code CRASH and the traceback on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    failure = result = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), around():
            start = time.perf_counter()
            try:
                result = cli.main(list(op.argv)) if op.argv is not None else op.call()
            except Exception as exc:  # noqa: BLE001 - counted as a failed op, the run goes on
                failure = exc
            elapsed = time.perf_counter() - start
    finally:
        os.chdir(previous)
    if failure is not None:
        documented = op.argv is None and isinstance(failure, (ValueError, RuntimeError))
        code, result = (1 if documented else CRASH), None
        err.write("".join(traceback.format_exception(failure)))
    elif op.argv is not None:
        code, result = result, None  # cli.main returns the exit code
    else:
        code = 0
    return Outcome(code, out.getvalue(), err.getvalue(), result, workdir), elapsed


def snapshot(workdir):
    """Bytes of every artifact under out/, keyed by relative path."""
    root = os.path.join(workdir, "out")
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def build(workload, seed, seconds):
    """The op list of one run, as sessions: lists of ops that run back to
    back in one process.  The first session holds a byte-identity candidate;
    the others are in seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    scale = seconds / NOMINAL_SECONDS

    def count(nominal):
        return max(1, round(nominal * scale))

    return {"scan": _scan_ops, "spectra": _spectra_ops,
            "tomography": _tomography_ops}[workload](rng, count)


def warmup_ops(workload):
    """Small ops of every kind a workload runs, executed before timing."""
    return {"scan": _scan_warmup, "spectra": _spectra_warmup,
            "tomography": _tomography_warmup}[workload]()


def _spread(rng, count, low, high):
    """``count`` integers evenly spread over [low, high], in seeded order.

    The set of values is the same for every seed, so runs with different
    seeds do the same mix of problem sizes; the seed picks their order and
    everything else about the inputs.
    """
    values = np.rint(np.linspace(low, high, count)).astype(int)
    rng.shuffle(values)
    return [int(v) for v in values]


def _sessions(rng, first, rest):
    return [first] + [rest[k] for k in rng.permutation(len(rest))]


def _exited_ok(check):
    """``check`` runs only on ops that exited 0; other exit codes fail the op."""

    @functools.wraps(check)
    def checked(outcome):
        if outcome.code != 0:
            return f"exit code {outcome.code}: {outcome.stderr.strip()}"
        return check(outcome)

    return checked


def _spec_text(spec):
    return json.dumps(spec.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# scan: transfer scans and pst-check --scan over a few reused Hamiltonians
# ---------------------------------------------------------------------------

def _three_site(t):
    return (np.exp(1j * t) - 3 * np.exp(3j * t) + 2 * np.exp(4j * t)) / 6.0


@_exited_ok
def _check_three_site(outcome):
    data = np.loadtxt(os.path.join(outcome.workdir, "out", "scan_series.csv"),
                      delimiter=",", skiprows=1)
    series = data[:, 1] * np.exp(1j * data[:, 2])
    deviation = float(np.max(np.abs(series - _three_site(data[:, 0]))))
    if deviation > 1e-10:
        return f"three-site series deviates from the closed form by {deviation:.3e}"
    peak = outcome.read_json("scan_summary.json")["max_abs"]
    if abs(peak - math.sqrt(3) / 2) > 1e-6:
        return f"three-site maximum {peak!r} is not sqrt(3)/2"
    return None


def _check_summary(points, peak_at_pi=False):
    """Check of a transfer op from its summary: grid size, |amplitude| <= 1,
    and for preset channel scans the perfect transfer first reached at t = pi."""

    @_exited_ok
    def check(outcome):
        summary = outcome.read_json("scan_summary.json")
        if summary["grid"]["points"] != points:
            return f"grid has {summary['grid']['points']} points, expected {points}"
        if not 0.0 <= summary["max_abs"] <= 1.0 + 1e-9:
            return f"|amplitude| maximum {summary['max_abs']!r} outside [0, 1]"
        if peak_at_pi:
            if summary["max_abs"] < 1.0 - 1e-6:
                return f"preset channel maximum {summary['max_abs']!r} is not 1"
            if abs(summary["first_peak_time"] - math.pi) > 1e-2:
                return f"preset transfer first peaks at {summary['first_peak_time']!r}, not pi"
        return None

    return check


def _four_site_max(outcome):
    return "four_site_max_abs", outcome.read_json("scan_summary.json")["max_abs"]


def _check_pst(variant):
    # standard transfers up to a correctable phase, phase_exact with none
    key = "min_corrected_fidelity" if variant == "standard" else "min_raw_fidelity"

    @_exited_ok
    def check(outcome):
        fidelity = outcome.json_stdout()[key]
        if fidelity < 1.0 - 1e-8:
            return f"{variant} preset {key} at t=pi is {fidelity!r}, below 1 - 1e-8"
        return None

    return check


def _grid_points(t_max, dt):
    return int(np.arange(0.0, cli.parse_time(t_max), float(dt)).size)


def _transfer(label, spec, source, target, t_max, check, **extra):
    argv = ["transfer", "--spec", "spec.json", "--source", source, "--target", target,
            "--t-max", t_max, "--output-dir", "out", "--tag", "scan"]
    return Op(label, argv=argv, files={"spec.json": _spec_text(spec)}, check=check, **extra)


def _channel(n, variant, channel, t_max="4pi"):
    argv = ["transfer", "--preset-n", str(n), "--preset-variant", variant,
            "--channel", channel, "--t-max", t_max, "--output-dir", "out", "--tag", "scan"]
    return Op(f"transfer-channel-n{n}", argv=argv,
              check=_check_summary(_grid_points(t_max, "1e-3"), peak_at_pi=True))


def _pst(n, variant):
    argv = ["pst-check", "--n", str(n), "--variant", variant, "--scan",
            "--output-dir", "out", "--tag", "pst"]
    return Op(f"pst-check-{variant}", argv=argv, check=_check_pst(variant))


def _scan_sources(n):
    """Source states of a transfer session (the target is the mirrored
    state): one up and one down excitation, next to each other at the
    chain's end or one site in, or at both ends.  Which eigenvectors a pair
    overlaps sets the phase-sum size, so the pairs are fixed and every seed
    does the same work, in seeded order."""
    return ["1m" + "0" * (n - 2), "01m" + "0" * (n - 3), "m" + "0" * (n - 2) + "1"]


def _scan_ops(rng, count):
    # sessions: each scans one Hamiltonian several times in a row, so the
    # evolution cache is warm after a session's first op.  Every paper kind
    # at n=4 and n=5 with three source states (target: the mirrored state,
    # t in [0, 2pi]: short ops, whose best of many rounds is steady),
    # the three-site closed-form scan, the four-site [0, 40pi] scan, preset
    # sigma-channel scans and pst-check --scan of both preset variants.
    points = _grid_points("2pi", "1e-3")
    sessions = []
    for kind in PAPER_KINDS:
        for n in (4, 5):
            spec = hamiltonians.ChainSpec(n=n, kind=kind)
            session = []
            for k in range(count(3)):
                source = _scan_sources(n)[k % 3]
                session.append(_transfer(f"transfer-{kind}-n{n}", spec, source, source[::-1],
                                         "2pi", _check_summary(points)))
            sessions.append(session)
    # the three- and four-site scans are single-op sessions spread over the run
    three = hamiltonians.ChainSpec(n=3, kind="heisenberg_squared_sum")
    three_site = [[_transfer("transfer-3site", three, "001", "100", "4pi", _check_three_site,
                             byte_check=True)] for _ in range(count(3))]
    sessions += three_site[1:]
    four = hamiltonians.ChainSpec(n=4, kind="heisenberg_squared_mix")
    sessions += [[_transfer("transfer-4site-40pi", four, "0001", "1000", "40pi",
                            _check_summary(_grid_points("40pi", "1e-3")), note=_four_site_max,
                            rounds=4)]
                 for _ in range(count(1))]
    variants = hamiltonians.PRESET_VARIANTS
    for k, n in enumerate(_spread(rng, count(3), 3, 12)):
        sessions.append([_channel(n, variants[k % 2], channel) for channel in ("up", "down")])
    for n in _spread(rng, count(3), 2, 11):
        sessions.extend([_pst(n, variant)] for variant in variants)
    return _sessions(rng, three_site[0], sessions)


def _scan_warmup():
    three = hamiltonians.ChainSpec(n=3, kind="heisenberg_squared_sum")
    return [
        _transfer("warmup", three, "001", "100", "0.5pi", _check_summary(_grid_points("0.5pi", "1e-3"))),
        _channel(3, "standard", "up", t_max="1.5pi"),
        Op("warmup", argv=["pst-check", "--n", "3", "--variant", "phase_exact", "--scan",
                           "--t-max", "0.2pi", "--output-dir", "out", "--tag", "pst"],
           check=_check_pst("phase_exact")),
    ]


# ---------------------------------------------------------------------------
# spectra: cold full-space mirroring and parity analysis
# ---------------------------------------------------------------------------

def _mirror_symmetric(values):
    values = np.asarray(values, dtype=float)
    return tuple((values + values[::-1]) / 2.0)


def _random_mirror_chain(rng, n):
    """Engineered chain with couplings and fields symmetric under site reversal."""
    return hamiltonians.ChainSpec(
        n=n, kind="engineered",
        a=_mirror_symmetric(rng.uniform(0.5, 1.5, n - 1)),
        b=_mirror_symmetric(rng.uniform(0.5, 1.5, n - 1)),
        B=_mirror_symmetric(rng.uniform(-1.0, 1.0, n)),
        C=_mirror_symmetric(rng.uniform(0.5, 2.0, n)),
    )


def _mirror_analysis(spec):
    def call():
        ham = spin1chain.chain_hamiltonian(spec)
        return ham, spin1chain.mirror_check(ham, np.pi), spin1chain.parity_spectrum(
            ham, kind="chain_mirror")

    return call


@_exited_ok
def _check_mirror_analysis(outcome, tol=1e-10):
    ham, mirror, split = outcome.result
    mat = ham.dense()
    scale = max(float(np.max(np.abs(mat))), 1.0)
    eigensystem = dynamics.evolution_cache(mat).eigensystem
    residual = eigensystem.reconstruction_residual(mat) / scale
    if residual > tol:
        return f"eigensystem reconstruction residual {residual:.3e} above {tol:.0e}"
    deviation = eigensystem.unitarity_deviation()
    if deviation > tol:
        return f"eigenvector unitarity deviation {deviation:.3e} above {tol:.0e}"
    if mirror.commutator_residual > tol * scale:
        return f"[H, M] residual {mirror.commutator_residual:.3e} for a mirror-symmetric chain"
    if split.dim != mat.shape[0]:
        return f"parity split holds {split.dim} eigenvalues of {mat.shape[0]}"
    trace_gap = abs(sum(split.even) + sum(split.odd) - float(np.trace(mat).real))
    if trace_gap > 1e-8 * scale * mat.shape[0]:
        return f"parity split eigenvalues miss tr(H) by {trace_gap:.3e}"
    return None


@_exited_ok
def _check_cli_ok(outcome):
    return None


def _spectra_ops(rng, count):
    # the eight paper kinds at n=6 once each and seeded mirror-symmetric
    # engineered chains at n=6 and n=5, in seeded order; every Hamiltonian
    # is new to the process.  The CLI spectra op is the byte-identity op.
    # Most ops are n=6: they last seconds and so average over the host's
    # bursts of slow and fast speed, while single runs of small ops swing
    # with them.  The ten engineered n=6 chains cost about the same, and the
    # median (the 10th of 19 latencies) and the tail (the 9th) fall at the
    # foot of their group, above the six cheaper paper kinds, whose
    # costliest is close to them, and below O1 and O5; a median among the
    # cheaper paper kinds would jump between their unequal costs.
    mirror_ops = [Op(f"mirror-{kind}-n6", call=_mirror_analysis(
        hamiltonians.ChainSpec(n=6, kind=kind)), check=_check_mirror_analysis)
        for kind in PAPER_KINDS]
    for n, nominal in ((6, 8), (5, 2)):
        mirror_ops += [Op(f"mirror-engineered-n{n}",
                          call=_mirror_analysis(_random_mirror_chain(rng, n)),
                          check=_check_mirror_analysis) for _ in range(count(nominal))]
    cli_op = Op("spectra-cli", argv=["spectra", "--format", "json", "--output-dir", "out",
                                     "--tag", "spectra"], check=_check_cli_ok, byte_check=True)
    return _sessions(rng, [cli_op], [[op] for op in mirror_ops])


def _spectra_warmup():
    rng = np.random.default_rng(0)
    return [Op("warmup", call=_mirror_analysis(hamiltonians.ChainSpec(n=3, kind="O5")),
               check=_check_mirror_analysis),
            Op("warmup", call=_mirror_analysis(_random_mirror_chain(rng, 4)),
               check=_check_mirror_analysis),
            Op("warmup", argv=["spectra", "--op", "O1", "--format", "json"],
               check=_check_cli_ok)]


# ---------------------------------------------------------------------------
# tomography: one-end parameter estimation of hidden mirror-symmetric chains
# ---------------------------------------------------------------------------

SHOTS = 10 ** 6


def tolerance(shots):
    """Largest accepted error of |a|, |b|, B and C: 1e-6 on noise-free records,
    20 shot-noise units (20 / sqrt(shots)) on shot-sampled ones."""
    return 1e-6 if shots is None else max(1e-6, 20.0 / math.sqrt(shots))


def _estimate_error(payload, spec):
    pairs = ((payload["a_abs"], np.abs(spec.a)), (payload["b_abs"], np.abs(spec.b)),
             (payload["B"], spec.B), (payload["C"], spec.C))
    return max(float(np.max(np.abs(np.asarray(est) - np.asarray(true)))) for est, true in pairs)


def _check_tomography(spec, shots):
    @_exited_ok
    def check(outcome):
        error = _estimate_error(outcome.json_stdout(), spec)
        if not error <= tolerance(shots):
            return f"n={spec.n} shots={shots}: estimate error {error:.3e} above {tolerance(shots):.0e}"
        return None

    return check


def _tomography(spec, shots, seed, samples=None, emit=False, rounds=None):
    kind = "emit" if emit else "spec" if samples is None else f"k{samples}"
    argv = ["tomography", "--spec", "hidden.json", "--seed", str(seed),
            "--output-dir", "out", "--tag", "tomo"]
    if shots is not None:
        argv += ["--shots", str(shots)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    if emit:
        argv.append("--emit-records")
    label = f"tomography-{kind}-{'shots' if shots else 'exact'}"
    return Op(label, argv=argv, files={"hidden.json": _spec_text(spec)},
              check=_check_tomography(spec, shots), byte_check=emit, exact=False, rounds=rounds)


def _from_records(spec, shots):
    argv = ["tomography", "--record-up", "out/tomo_record_up.csv",
            "--record-down", "out/tomo_record_down.csv", "--order", str(spec.n),
            "--output-dir", "out", "--tag", "fromrec"]
    if shots is not None:
        argv += ["--shots", str(shots)]
    label = f"tomography-records-{'shots' if shots else 'exact'}"
    return Op(label, argv=argv, check=_check_tomography(spec, shots), exact=False,
              needs_previous=True)


def _tomography_ops(rng, count):
    # 5 sweeps, each with eight chain lengths spread over 3..40, each
    # noise-free and with 1e6 shots at the CLI's default sample count, and
    # one --emit-records -> --record-up/down round trip; plus 15 long
    # records at n=3..12: 12 of K=768 samples in three rounds, 2 of K=1024
    # in two and 1 of K=2048 in one.  The n range keeps the lengths where
    # reconstruction fails.  The K=768 records set the tail: the
    # 11th-largest latency falls in the middle of their group, where many
    # ops of one cost make it steady; among the default-length ops the
    # cost changes with n at every rank.
    sweeps = count(5)
    bands = ((3, 7), (8, 11), (12, 15), (16, 20), (21, 25), (26, 30), (31, 35), (36, 40))
    strata = [_spread(rng, sweeps, lo, hi) for lo, hi in bands]
    trip_n = _spread(rng, sweeps, 3, 40)
    sessions, trips = [], []
    for r in range(sweeps):
        for stratum in strata:
            spec = _random_mirror_chain(rng, stratum[r])
            for shots in (None, SHOTS):
                sessions.append([_tomography(spec, shots, int(rng.integers(1 << 30)))])
        spec = _random_mirror_chain(rng, trip_n[r])
        shots = None if r % 2 else SHOTS
        trips.append([_tomography(spec, shots, int(rng.integers(1 << 30)), emit=True),
                      _from_records(spec, shots)])
    long_k = [768] * count(12) + [1024] * count(2) + [MAX_SAMPLES] * count(1)
    for k, (n, samples) in enumerate(zip(_spread(rng, len(long_k), 3, 12), long_k)):
        sessions.append([_tomography(_random_mirror_chain(rng, n), SHOTS if k % 2 else None,
                                     int(rng.integers(1 << 30)), samples=samples,
                                     rounds={768: 3, 1024: 2}.get(samples, 1))])
    # the round trip at the smallest n goes first: it is the byte-identity op
    first = min(range(sweeps), key=lambda r: trip_n[r])
    return _sessions(rng, trips.pop(first), sessions + trips)


def _tomography_warmup():
    rng = np.random.default_rng(0)
    spec = _random_mirror_chain(rng, 3)
    return [_tomography(spec, SHOTS, 1, samples=256),
            _tomography(spec, None, 2, emit=True),
            _from_records(spec, None)]
