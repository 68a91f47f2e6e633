"""Command-line interface: chain specs in, CSV/JSON artifacts + manifests out.

Subcommands::

    spectra     parity-resolved spectra of the candidate two-site couplings
    swap-check  is exp(i t H) a SWAP gate (up to global phase)?
    transfer    amplitude scan over a time grid (full space or one band)
    pst-check   qutrit transfer fidelities of the engineered presets
    tomography  one-end parameter estimation of a hidden engineered chain
    validate    schema-check a chain-spec JSON file

Times are accepted as plain numbers or exact multiples of pi: ``pi``,
``0.5pi``, ``2pi/3``.  Exit codes: 0 success (and check passed), 2 usage or
input error (an input too large for memory and a file that cannot be read or
written included), 4 a verification-style check failed; errors are mirrored
as JSON on stderr.
"""

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .dynamics import (
    QUTRIT_TEST_STATES,
    amplitude_scan,
    band_scan,
    evolution_cache,
    qutrit_fidelity_series,
    qutrit_transfer_fidelities,
)
from .hamiltonians import (
    CANDIDATE_NAMES,
    CHANNELS,
    ChainSpec,
    PRESET_VARIANTS,
    SpecError,
    band,
    chain_hamiltonian,
    pst_preset,
    swap_check,
)
from .linalg import check_dense_sites
from .parity import CANDIDATE_FORMS, LITERATURE_SPECTRA, parity_spectrum, reference_comparison
from .reporting import (RunManifest, fmt, json_text, resolve_output_dir, write_csv,
                        write_json)
from .spin_ops import basis_index
from .tomography import (
    AmplitudeBoundError,
    probability_mode_analysis,
    read_record_csv,
    synthesize_records,
    synthesized_tomography,
    tomography_from_records,
    write_record_csv,
)

_TIME_RE = re.compile(r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)?\s*(pi)?\s*(?:/\s*([0-9]+))?$")


def parse_time(text):
    """Parse '0.5pi', 'pi', '2pi/3' or a plain float into a finite evolution time."""
    usage = f"cannot parse time {text!r}; use e.g. 1.5, pi, 0.5pi, 2pi/3"
    m = _TIME_RE.match(text.strip())
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(usage)
    value = float(m.group(1) or 1.0) * (np.pi if m.group(2) else 1.0)
    if m.group(3):
        if not m.group(2):
            raise ValueError(f"divisor without pi in {text!r}")
        divisor = int(m.group(3))
        if divisor == 0:
            raise ValueError(f"zero divisor in {text!r}")
        value /= divisor
    if not np.isfinite(value):
        raise ValueError(usage)
    return value


def _error(payload, code):
    json.dump({"error": payload}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return code


def _load_spec(args):
    if getattr(args, "spec", None):
        try:
            return ChainSpec.load(args.spec), args.spec
        except OSError as exc:  # its message names the file
            raise SpecError(f"cannot read spec file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"cannot read spec file {args.spec}: {exc}") from exc
    if getattr(args, "preset_n", None) is not None:
        return pst_preset(args.preset_n, args.preset_variant), None
    raise SpecError("provide --spec FILE or --preset-n N")


def _time_grid(args):
    t_max = parse_time(args.t_max)
    dt = float(args.dt)
    if not (0 < dt < np.inf and 0 < t_max):
        raise SpecError("time grid requires positive finite --t-max and --dt")
    return np.arange(0.0, t_max, dt)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectra(args):
    names = [args.op] if args.op else list(CANDIDATE_NAMES)
    entries = []
    all_adjudicated = True
    for name in names:
        split = parity_spectrum(chain_hamiltonian(ChainSpec(n=2, kind=name)))
        cmp = reference_comparison(name, split)
        all_adjudicated &= cmp["matches_adjudicated"]
        entries.append({
            "name": name,
            "form": CANDIDATE_FORMS[name],
            "even": list(split.even),
            "odd": list(split.odd),
            "literature_even": list(LITERATURE_SPECTRA[name][0]),
            "literature_odd": list(LITERATURE_SPECTRA[name][1]),
            **cmp,
        })
    payload = {"operators": entries, "all_match_adjudicated": all_adjudicated}
    text = None
    if args.output_dir or args.tag:
        outdir = resolve_output_dir(args.output_dir)
        base = os.path.join(outdir, args.tag or "spectra")
        text = write_json(base + "_spectra.json", payload)
        RunManifest("spectra", None, {"op": args.op or "all", "format": args.format},
                    (base + "_spectra.json",), None).write(base + "_manifest.json")
    if args.format == "json":
        sys.stdout.write(text or json_text(payload))
    else:
        for e in entries:
            # a level within rounding of zero, relative to the operator's largest, prints as 0
            floor = 1e-12 * max(1.0, *(abs(v) for v in e["even"] + e["odd"]))
            even, odd = (", ".join("0" if abs(v) <= floor else f"{v:.6g}" for v in e[sector])
                         for sector in ("even", "odd"))
            if e["matches_literature"]:
                flag = "ok"
            elif e["matches_adjudicated"]:
                flag = f"DIFFERS FROM TABULATED VALUES: {e['note']}"
            else:
                flag = f"MISMATCH ({e['deviation_from_adjudicated']:.2e})"
            print(f"{e['name']:3s}  {e['form']:40s} even: {{{even}}}  odd: {{{odd}}}  [{flag}]")
    if not all_adjudicated:
        return _error({"check": "spectra",
                       "message": "computed spectra deviate from the adjudicated references"}, 4)
    return 0


_SWAP_INTERACTIONS = {
    "mix": "heisenberg_squared_mix",
    "squared_sum": "heisenberg_squared_sum",
    "heisenberg": "heisenberg",
    **{name: name for name in CANDIDATE_NAMES},
}


def cmd_swap_check(args):
    t = parse_time(args.time)
    tol = _positive(args.tol, "--tol")
    ham = chain_hamiltonian(ChainSpec(n=2, kind=_SWAP_INTERACTIONS[args.interaction]))
    result = swap_check(evolution_cache(ham).unitary(args.sign * t), tol=tol)
    payload = {
        "interaction": args.interaction,
        "time": t,
        "is_swap_up_to_phase": result.is_swap_up_to_phase,
        "phase_re": result.phase.real,
        "phase_im": result.phase.imag,
        "residual": result.residual,
    }
    sys.stdout.write(json_text(payload))
    if not result.is_swap_up_to_phase:
        return _error({"check": "swap", "residual": result.residual}, 4)
    return 0


def _channel_site(site, default, flag, n):
    """A --channel scan's site (``default`` when unset), which must lie in 1..n."""
    site = default if site is None else site
    if not 1 <= site <= n:
        raise SpecError(f"site {site} is outside the chain's sites 1..{n}", flag)
    return site


def cmd_transfer(args):
    spec, spec_path = _load_spec(args)
    times = _time_grid(args)
    if args.channel:
        if spec.kind != "engineered":
            raise SpecError("--channel scans need an engineered chain")
        source_site = _channel_site(args.source_site, 1, "--source-site", spec.n)
        target_site = _channel_site(args.target_site, spec.n, "--target-site", spec.n)
        scan = band_scan(spec, args.channel, source_site - 1, target_site - 1, times)
        source_label = f"{args.channel}@{source_site}"
        target_label = f"{args.channel}@{target_site}"
    else:
        if not args.source or not args.target:
            raise SpecError("full-space scans need --source and --target basis labels")
        source, target = (basis_index(label, spec.n) for label in (args.source, args.target))
        # the dense cap is checked from n alone: building H past it costs about 3x
        # per site, and a spec's n is unbounded
        check_dense_sites(spec.n)
        scan = amplitude_scan(chain_hamiltonian(spec), source, target, times,
                              sign=spec.time_sign)
        source_label, target_label = args.source, args.target
    # the output directory is made once the inputs are accepted and the scan is done
    base = os.path.join(resolve_output_dir(args.output_dir), args.tag or "transfer")
    csv_path = base + "_series.csv"
    write_csv(csv_path, ("t", "abs", "arg"), scan.rows())
    summary = {
        "source": source_label,
        "target": target_label,
        "n": spec.n,
        "kind": spec.kind,
        "max_abs": scan.max_abs,
        "argmax_time": scan.argmax_time,
        "first_peak_time": scan.first_peak_time,
        "grid": {"t_max": float(times[-1] + float(args.dt)), "dt": float(args.dt),
                 "points": int(times.size)},
    }
    summary_path = base + "_summary.json"
    write_json(summary_path, summary)
    RunManifest("transfer", spec_path,
                {"source": source_label, "target": target_label, "t_max": args.t_max,
                 "dt": args.dt, "channel": args.channel,
                 "preset_n": args.preset_n, "preset_variant": args.preset_variant},
                (csv_path, summary_path), None).write(base + "_manifest.json")
    print(f"max |amplitude| = {fmt(scan.max_abs)} at t = {fmt(scan.argmax_time)} "
          f"(first peak t = {fmt(scan.first_peak_time)}); series -> {csv_path}")
    return 0


def cmd_pst_check(args):
    t = parse_time(args.time)
    spec = pst_preset(args.n, args.variant)
    fidelities = qutrit_transfer_fidelities(spec, QUTRIT_TEST_STATES, t)
    states = []
    for amp, (raw, corrected) in zip(QUTRIT_TEST_STATES, fidelities):
        states.append({
            "qutrit": [[z.real, z.imag] for z in map(complex, amp)],
            "raw_fidelity": raw,
            "corrected_fidelity": corrected,
        })
    payload = {
        "n": args.n,
        "variant": args.variant,
        "time": t,
        "couplings": list(spec.a),
        "quadratic_field": spec.C[0],
        "states": states,
        "min_raw_fidelity": min(s["raw_fidelity"] for s in states),
        "min_corrected_fidelity": min(s["corrected_fidelity"] for s in states),
    }
    text = None
    if args.output_dir or args.tag or args.scan:
        # a bad scan grid fails before any file is written
        grid = _time_grid(args) if args.scan else None
        outdir = resolve_output_dir(args.output_dir)
        base = os.path.join(outdir, args.tag or f"pst_{args.variant}_n{args.n}")
        outputs = [base + "_report.json"]
        text = write_json(base + "_report.json", payload)
        if args.scan:
            fidelity = qutrit_fidelity_series(spec, QUTRIT_TEST_STATES[3], grid,
                                              phase_correct=args.phase_correct)
            write_csv(base + "_fidelity.csv", ("t", "fidelity"),
                      np.column_stack((grid, fidelity)))
            outputs.append(base + "_fidelity.csv")
        RunManifest("pst-check", None,
                    {"n": args.n, "variant": args.variant, "time": args.time,
                     "scan": bool(args.scan), "phase_correct": bool(args.phase_correct),
                     "t_max": args.t_max, "dt": args.dt},
                    tuple(outputs), None).write(base + "_manifest.json")
    sys.stdout.write(text or json_text(payload))
    return 0


def _auto_dt(spec):
    """Safe sampling step from a Gershgorin bound on the bands."""
    bound = max(1e-6, *(float(np.max(_radii(*band(spec, c)))) for c in CHANNELS))
    return np.pi / (1.3 * bound)


def _radii(diag, off):
    """Gershgorin radii of a band: row i adds |off[i-1]|, |diag[i]| and |off[i]| as
    ``np.sum`` adds that row of the dense band, so the radii have its bits.  numpy's
    pairwise sum adds a row as eight partial sums of interleaved entries, paired
    (0 1)(2 3)(4 5)(6 7), then the tail past the last multiple of 8 one by one; a
    row of more than 128 entries is first split at multiples of 8, which keeps
    those pairs.  So off[i-1] is added last where i is even and i + 1 precedes the
    tail."""
    diag, left, right = np.abs(diag), np.abs(np.append(0.0, off)), np.abs(np.append(off, 0.0))
    row = np.arange(diag.size)
    last = (row % 2 == 0) & (row + 1 < diag.size - diag.size % 8)
    return np.where(last, left + (diag + right), (left + diag) + right)


def _positive(value, flag):
    """``value`` (None when the flag is unset), which must be positive and finite."""
    if value is not None and not 0 < value < np.inf:
        raise SpecError(f"must be positive and finite, got {value!r}", flag)
    return value


def cmd_tomography(args):
    _positive(args.shots, "--shots")
    # the binomial sampler draws int64 counts
    if args.shots is not None and args.shots > np.iinfo(np.int64).max:
        raise SpecError(f"must be at most 2**63 - 1, got {args.shots}", "--shots")
    _positive(args.order, "--order")
    emitted = ()
    seed = args.seed
    if args.record_up or args.record_down:
        if not (args.record_up and args.record_down and args.order is not None):
            raise SpecError("file-based tomography needs --record-up, --record-down "
                            "and --order")
        for flag, value in (("--spec", args.spec), ("--preset-n", args.preset_n)):
            if value is not None:
                raise SpecError("names a hidden chain, which record files replace", flag)
        records = []
        for path, channel in ((args.record_up, "up"), (args.record_down, "down")):
            try:
                records.append(read_record_csv(path, channel, shots=args.shots))
            except AmplitudeBoundError as exc:
                raise SpecError(f"{exc}; a shot-sampled record is read with the "
                                "--shots it was taken with", "--shots") from exc
        result = tomography_from_records(*records, args.order)
        payload = result.to_json_dict()
        spec_path = None
        parameters = {"mode": "amplitude", "order": args.order,
                      "record_up": args.record_up, "record_down": args.record_down}
    else:
        if args.order is not None:
            raise SpecError("applies to record files only; a hidden chain sets it", "--order")
        spec, spec_path = _load_spec(args)
        if spec.kind != "engineered":
            raise SpecError("tomography addresses engineered chains")
        dt = _positive(float(args.dt), "--dt") if args.dt else _auto_dt(spec)
        samples = _positive(args.samples, "--samples") or max(16 * spec.n, 64)
        times = dt * np.arange(samples)
        parameters = {"mode": args.mode, "dt": dt, "samples": int(samples),
                      "shots": args.shots, "preset_n": args.preset_n,
                      "preset_variant": args.preset_variant}
        if args.shots is not None and seed is None:
            # one seed from OS entropy, recorded, so that --seed repeats the run
            seed = int(np.random.SeedSequence().entropy)
        records = synthesize_records(spec, args.mode, times, shots=args.shots, seed=seed)
        if args.mode == "amplitude":
            payload = synthesized_tomography(spec, records).to_json_dict()
        else:
            payload = {"mode": "probability", "channels": {}}
            for channel, record in zip(("up", "down"), records):
                report = probability_mode_analysis(record)
                payload["channels"][channel] = {
                    "gaps": list(report.gaps),
                    "pair_weights": list(report.pair_weights),
                    "dc": report.dc,
                }
            payload["note"] = ("probability records determine eigenvalue gaps and weight "
                               "products only; absolute energies need amplitude records")
        if args.emit_records:
            emitted = records
    # the output directory is made once the inputs are accepted and the result found
    base = os.path.join(resolve_output_dir(args.output_dir), args.tag or "tomography")
    outputs = [base + "_result.json"]
    for channel, record in zip(("up", "down"), emitted):
        outputs.append(f"{base}_record_{channel}.csv")
        write_record_csv(record, outputs[-1])
    text = write_json(outputs[0], payload)
    RunManifest("tomography", spec_path, parameters,
                tuple(outputs), seed).write(base + "_manifest.json")
    sys.stdout.write(text)
    return 0


def cmd_validate(args):
    try:
        spec = ChainSpec.load(args.spec)
    except SpecError as exc:
        return _error({"stage": "schema", "path": exc.path, "message": str(exc)}, 2)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _error({"stage": "io", "message": f"cannot read spec file {args.spec}: {exc}"}, 2)
    print(json.dumps(spec.to_json_dict(), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="spin1chain", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"spin1chain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectra", help="parity-resolved spectra of candidate couplings")
    p.add_argument("--op", choices=CANDIDATE_NAMES, help="single coupling (default: all)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output-dir")
    p.add_argument("--tag")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("swap-check", help="test exp(i t H) against SWAP up to phase")
    p.add_argument("--interaction", choices=sorted(_SWAP_INTERACTIONS), default="mix")
    p.add_argument("--time", default="pi")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_swap_check)

    p = sub.add_parser("transfer", help="amplitude scan over a time grid")
    p.add_argument("--spec", help="chain-spec JSON file")
    p.add_argument("--preset-n", type=int, help="build a transfer preset instead of --spec")
    p.add_argument("--preset-variant", choices=PRESET_VARIANTS, default="standard")
    p.add_argument("--source", help="full-space source label over {1,0,m}, e.g. 001")
    p.add_argument("--target", help="full-space target label")
    p.add_argument("--channel", choices=CHANNELS,
                   help="scan one excitation band of an engineered chain instead")
    p.add_argument("--source-site", type=int)
    p.add_argument("--target-site", type=int)
    p.add_argument("--t-max", default="4pi")
    p.add_argument("--dt", default="1e-3")
    p.add_argument("--output-dir")
    p.add_argument("--tag")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("pst-check", help="preset qutrit transfer fidelities at a given time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=PRESET_VARIANTS, default="standard")
    p.add_argument("--time", default="pi")
    p.add_argument("--scan", action="store_true",
                   help="also write a t,fidelity series for the balanced qutrit")
    p.add_argument("--phase-correct", action="store_true",
                   help="scan the phase-corrected fidelity instead of the raw one")
    p.add_argument("--t-max", default="2pi")
    p.add_argument("--dt", default="1e-2")
    p.add_argument("--output-dir")
    p.add_argument("--tag")
    p.set_defaults(func=cmd_pst_check)

    p = sub.add_parser("tomography", help="estimate chain parameters from one-end records")
    p.add_argument("--spec", help="hidden chain-spec JSON file")
    p.add_argument("--preset-n", type=int)
    p.add_argument("--preset-variant", choices=PRESET_VARIANTS, default="standard")
    p.add_argument("--mode", choices=("amplitude", "probability"), default="amplitude")
    p.add_argument("--dt", help="sampling step (default: auto from a spectral bound)")
    p.add_argument("--samples", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--emit-records", action="store_true",
                   help="also write the measurement records as CSV files")
    p.add_argument("--record-up", help="consume an existing up-channel record CSV")
    p.add_argument("--record-down", help="consume an existing down-channel record CSV")
    p.add_argument("--order", type=int, help="band dimension when consuming record files")
    p.add_argument("--output-dir")
    p.add_argument("--tag")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("validate", help="schema-check a chain-spec JSON file")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


@functools.cache
def _parser():
    """The parser of this process, built on first use.

    Each ``parse_args`` call fills a new namespace from the parser's
    defaults, so no option value carries over from one call to the next.
    """
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        return _error({"stage": "spec", "path": exc.path, "message": str(exc)}, 2)
    except (ValueError, RuntimeError) as exc:
        return _error({"stage": args.command, "message": str(exc)}, 2)
    except MemoryError as exc:
        return _error({"stage": args.command, "message": f"out of memory: {exc}"}, 2)
    except OSError as exc:
        return _error({"stage": "io", "message": str(exc)}, 2)


if __name__ == "__main__":
    sys.exit(main())
