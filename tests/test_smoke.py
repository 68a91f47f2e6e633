"""Package smokes, each run in a fresh process through ``conftest.run_limited``.

The full-space memory smoke at n = 7: the mirror analyses and both eigensystem
self-checks of a 3^7-state chain stay within the memory of its largest sector:
mirror_check, parity_spectrum, reconstruction_residual and unitarity_deviation
must pass and the process must peak below 400 MB (187 MB for O5 and 51 MB for
Heisenberg on numpy 2.4; with the dense 2187 x 2187 eigenvector matrix and its
products they took 543 and 421 MB).

The CLI smokes call ``cli.main`` in the child with the command's arguments, as
the installed ``spin1chain`` entry point does: the tomography branches, the
perfect-transfer presets, the band memory at n = 2000 and the band cap.
"""

import json
import math

import pytest

FULL_SPACE_N7 = """
import resource, sys
import numpy as np
import spin1chain
from spin1chain.linalg import evolution_cache
ham = spin1chain.chain_hamiltonian(spin1chain.ChainSpec(n=7, kind=sys.argv[1]))
spin1chain.mirror_check(ham, np.pi)
spin1chain.parity_spectrum(ham, kind='chain_mirror')
es = evolution_cache(ham).eigensystem
scale = max(float(np.max(np.abs(ham.values))), 1.0)
checks = es.reconstruction_residual(ham) / scale, es.unitarity_deviation()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(sys.argv[1], checks, f'{peak:.0f} MB')
sys.exit(not (max(checks) < 1e-10 and peak < 400))
"""

# the command line's arguments after the subcommand's name, exit code as main returns it
CLI = """
import sys
from spin1chain.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("kind", ["O5", "heisenberg"])
def test_full_space_memory_at_n7(kind, run_limited):
    result = run_limited(FULL_SPACE_N7, kind)
    assert result.returncode == 0, result.stdout + result.stderr


def run_cli(run_limited, *argv, timeout=300):
    """``spin1chain argv`` in a fresh process; returns the CompletedProcess."""
    return run_limited(CLI, *argv, timeout=timeout)


@pytest.mark.parametrize("argv", [
    # probability mode picks its order from every singular value of the dense
    # forward-backward pencil (a real QR and SVD)
    ["--preset-n", "3", "--mode", "probability"],
    # a noise-free record of 2048 samples, with 8 * order < K // 2, shows rank
    # order to the noise probe and runs the subspace iteration of the K // 2 pencil
    ["--preset-n", "12", "--samples", "2048"],
    # a shot-sampled record of 768 samples (385 Hankel columns), with 8 * order <
    # K // 2, shows a noise floor to the probe taken first, runs the subspace
    # iteration, which hands it back, and then the dense pencil's Gram branch
    ["--preset-n", "13", "--samples", "768", "--shots", "1000000", "--seed", "7"],
    # a shot-sampled record of 192 samples (97 Hankel columns) shows a noise floor
    # to the thin probe, so its dense pencil reads the signal subspace from the
    # eigh of the Gram matrix T T^T
    ["--preset-n", "12", "--shots", "1000000", "--seed", "7"],
], ids=["probability", "long-record", "long-shot-record", "shot-record"])
def test_tomography_branches_exit_0(argv, tmp_path, run_limited):
    result = run_cli(run_limited, "tomography", *argv, "--output-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr


def test_default_length_gram_tomography(tmp_path, run_limited):
    # a shot-sampled record of 256 samples (129 Hankel columns, past
    # DENSE_PENCIL_COLS, with 8 * order >= K // 2) shows a noise floor to the
    # probe, so each channel takes the dense pencil's Gram branch, which reports
    # the top order + 10 singular values: 26 on the up channel
    result = run_cli(run_limited, "tomography", "--preset-n", "16", "--shots", "10000000000",
                     "--seed", "7", "--output-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "tomography_result.json").read_text())
    assert len(payload["diagnostics"]["up"]["singular_values"]) == 26


def test_perfect_transfer_presets(tmp_path, run_limited):
    # the engineered bands, each solved as its own tridiagonal matrix: at n = 12
    # the phase-exact preset sends every test qutrit at t = pi with no correction,
    # the standard preset only after the phase correction (its raw fidelity reads
    # 0.5), and the down channel peaks at t = pi
    pst, down = tmp_path / "pst", tmp_path / "pst-down"
    for argv in (["pst-check", "--n", "12", "--variant", "phase_exact", "--output-dir", str(pst)],
                 ["pst-check", "--n", "12", "--variant", "standard", "--output-dir", str(pst)],
                 ["transfer", "--preset-n", "12", "--channel", "down", "--t-max", "1.5pi",
                  "--output-dir", str(down)]):
        result = run_cli(run_limited, *argv)
        assert result.returncode == 0, (argv, result.stderr)
    exact, standard, down = (json.loads(path.read_text()) for path in (
        pst / "pst_phase_exact_n12_report.json", pst / "pst_standard_n12_report.json",
        down / "transfer_summary.json"))
    assert exact["min_raw_fidelity"] >= 1 - 1e-12
    assert standard["min_corrected_fidelity"] >= 1 - 1e-12
    assert standard["min_raw_fidelity"] < 0.51
    assert down["max_abs"] >= 0.9999 and abs(down["argmax_time"] - math.pi) <= 0.01


BAND_MEMORY = """
import contextlib, io, json, resource, sys
from spin1chain.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(['pst-check', '--n', '2000', '--time', 'pi'])
fidelity = json.loads(out.getvalue())['min_corrected_fidelity']
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(code, fidelity, f'{peak:.0f} MB')
sys.exit(not (code == 0 and fidelity >= 1 - 1e-12 and peak < 300))
"""


def test_band_memory_at_n2000(run_limited):
    # pst-check at n = 2000 solves two 2000-site bands, phase-fixes their vectors
    # and builds no 4001 x 4001 sigma block: it must exit 0, send every test qutrit
    # at t = pi after the phase correction, and peak below 300 MB (195 MB on
    # numpy 2.4; with the sigma block it took 417 MB)
    result = run_limited(BAND_MEMORY)
    assert result.returncode == 0, result.stdout + result.stderr


def test_band_cap_refuses_before_building(run_limited):
    # a band of 10000 sites is past the dense cap of 6561: pst-check must refuse
    # it before building anything, exiting 2 within 20 s with the cap named on stderr
    result = run_cli(run_limited, "pst-check", "--n", "10000", timeout=20)
    assert result.returncode == 2, result.stderr
    assert "exceeds the dense cap of 6561 sites" in result.stderr
