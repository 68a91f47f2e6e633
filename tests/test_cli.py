import json
import re
import sys

import numpy as np
import pytest

from spin1chain import cli, dynamics, kernels, linalg, parity, tomography
from spin1chain.cli import build_parser, main, parse_time
from spin1chain.dynamics import (QUTRIT_TEST_STATES, amplitude_scan, qutrit_fidelity_series,
                                 qutrit_transfer_fidelity)
from spin1chain.hamiltonians import KINDS, ChainSpec, chain_hamiltonian, pst_preset
from spin1chain.reporting import CSV_CHUNK_ROWS
from spin1chain.spin_ops import basis_index
from band_reference import dense_band
from test_reporting import per_value_csv

# a grid of more than one CSV chunk that is not a whole number of chunks
LONG_GRID = np.arange(0.0, 5.0, 1e-3)
assert LONG_GRID.size > CSV_CHUNK_ROWS and LONG_GRID.size % CSV_CHUNK_ROWS


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseTime:
    def test_forms(self):
        assert parse_time("pi") == np.pi
        assert parse_time("0.5pi") == 0.5 * np.pi
        assert np.isclose(parse_time("2pi/3"), 2 * np.pi / 3)
        assert parse_time("1.25") == 1.25
        assert parse_time("-2pi") == -2 * np.pi

    def test_rejects_garbage(self):
        for bad in ("", "piപ", "1/3", "two pi"):
            with pytest.raises(ValueError):
                parse_time(bad)

    def test_zero_divisor_is_an_input_error(self, capsys):
        with pytest.raises(ValueError, match="zero divisor"):
            parse_time("pi/0")
        code, out, err = run_cli(["swap-check", "--time", "pi/0"], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "swap-check" and "zero divisor" in error["message"]


    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e308pi", "1e400pi/3"])
    def test_rejects_times_that_overflow(self, text):
        with pytest.raises(ValueError, match=f"cannot parse time '{re.escape(text)}'"):
            parse_time(text)

    @pytest.mark.parametrize("argv", [["swap-check", "--time", "1e400"],
                                      ["swap-check", "--time", "1e308pi"],
                                      ["pst-check", "--n", "3", "--time", "1e400"],
                                      ["pst-check", "--n", "3", "--time", "1e308pi", "--scan"]])
    def test_subcommands_refuse_an_infinite_time(self, tmp_path, capsys, argv):
        outdir = ["--output-dir", str(tmp_path)] if argv[0] == "pst-check" else []
        code, out, err = run_cli([*argv, *outdir], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == argv[0] and "cannot parse time" in error["message"]
        assert not list(tmp_path.iterdir())


class TestValidate:
    def test_valid_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(pst_preset(3, "standard").to_json_dict()))
        code, out, _ = run_cli(["validate", "--spec", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_unknown_field(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 2, "kind": "heisenberg", "extra": 1}))
        code, _, err = run_cli(["validate", "--spec", str(path)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["stage"] == "schema"
        assert "extra" in payload["error"]["message"]

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["validate", "--spec", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert json.loads(err)["error"]["stage"] == "io"

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "true"])
    def test_non_finite_or_boolean_coupling(self, tmp_path, capsys, value):
        # Python's json reads NaN and Infinity; neither is a coupling
        path = tmp_path / "spec.json"
        path.write_text('{"n": 2, "kind": "engineered", "a": [%s], "b": [1], '
                        '"B": [0, 0], "C": [1, 1]}' % value)
        code, out, err = run_cli(["validate", "--spec", str(path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "schema" and error["path"] == "a"
        for scan in (["--source", "10", "--target", "01"], ["--channel", "up"]):
            code, out, err = run_cli(["transfer", "--spec", str(path), *scan,
                                      "--output-dir", str(tmp_path / "out")], capsys)
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["stage"] == "spec" and error["path"] == "a"
            assert "finite numbers" in error["message"]
        assert not (tmp_path / "out").exists()

    # a JSON integer converts to a float only below about 1.8e308; validate reads
    # the spec as a schema, transfer and tomography build the chain from it
    @pytest.mark.parametrize("argv,stage", [
        (["validate"], "schema"),
        (["transfer", "--source", "10", "--target", "01"], "spec"),
        (["tomography"], "spec"),
    ])
    def test_integer_coupling_too_large_for_a_float(self, tmp_path, capsys, argv, stage):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 2, "kind": "engineered", "a": [1], "b": [1], '
                        '"B": [0, 0], "C": [1, 1%s]}' % ("0" * 400))
        if argv[0] != "validate":
            argv = [*argv, "--output-dir", str(tmp_path / "out")]
        code, out, err = run_cli([*argv, "--spec", str(path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == stage and error["path"] == "C"
        if stage == "spec":
            assert error["message"].startswith("C: entry 1 is 1000")
            assert error["message"].endswith("couplings must be finite numbers")

    # an integer longer than Python's int-to-string digit limit (4300 digits by
    # default) cannot be read at all: the spec is refused, naming its file and the
    # limit, by validate as a schema and by transfer and tomography as a spec
    @pytest.mark.parametrize("argv,stage", [
        (["validate"], "schema"),
        (["transfer", "--source", "10", "--target", "01"], "spec"),
        (["tomography"], "spec"),
    ])
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, argv, stage):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 2, "kind": "engineered", "a": [1], "b": [1], '
                        '"B": [0, 0], "C": [1, %s]}' % ("1" * 5001))
        if argv[0] != "validate":
            argv = [*argv, "--output-dir", str(tmp_path / "out")]
        code, out, err = run_cli([*argv, "--spec", str(path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == stage
        assert error["message"] == (f"spec file {path} holds an integer longer than the "
                                    f"{sys.get_int_max_str_digits()} digits Python converts")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["true", "1.0"])
    def test_time_sign_must_be_an_integer(self, tmp_path, capsys, value):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 2, "kind": "heisenberg", "time_sign": %s}' % value)
        code, out, err = run_cli(["validate", "--spec", str(path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "schema" and error["path"] == "time_sign"


class TestSpectra:
    def test_json_report(self, tmp_path, capsys):
        # the paper's parity table: every candidate coupling matches the
        # adjudicated spectra, and the O2 and O3 rows differ from the tabulated
        # ones, whose sectors miss their operator's trace; the artifact holds
        # the report that stdout shows
        code, out, _ = run_cli(["spectra", "--format", "json", "--output-dir", str(tmp_path)],
                               capsys)
        assert code == 0
        assert (tmp_path / "spectra_spectra.json").read_text() == out
        payload = json.loads(out)
        assert payload["all_match_adjudicated"] is True
        assert len(payload["operators"]) == 5
        by_name = {e["name"]: e for e in payload["operators"]}
        assert by_name["O2"]["matches_literature"] is False
        assert by_name["O2"]["matches_adjudicated"] is True
        assert by_name["O2"]["note"]
        assert by_name["O3"]["matches_literature"] is False
        assert by_name["O1"]["matches_literature"] is True

    def test_single_operator(self, capsys):
        code, out, _ = run_cli(["spectra", "--op", "O4", "--format", "json"], capsys)
        assert code == 0
        entry = json.loads(out)["operators"][0]
        assert np.allclose(entry["even"], [1, 1, 1, 0, 0, 0], atol=1e-10)
        assert np.allclose(entry["odd"], [1, 0, 0], atol=1e-10)

    def test_text_prints_rounding_level_as_zero(self, capsys):
        # O5's zero levels come out of the solve at rounding level (-8.3e-17 with
        # numpy 2.4); the text report prints them as 0
        code, out, _ = run_cli(["spectra", "--op", "O5", "--format", "text"], capsys)
        assert code == 0
        assert "even: {2.44949, 1.41421, 0, 0, -1.41421, -2.44949}  odd: {0, 0, 0}  [ok]" in out

    def test_artifact_written(self, tmp_path, capsys):
        code, _, _ = run_cli(["spectra", "--format", "json",
                              "--output-dir", str(tmp_path), "--tag", "tbl"], capsys)
        assert code == 0
        assert (tmp_path / "tbl_spectra.json").exists()
        manifest = json.loads((tmp_path / "tbl_manifest.json").read_text())
        assert manifest["command"] == "spectra"


class TestSwapCheck:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(["swap-check"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_swap_up_to_phase"]
        assert abs(payload["phase_re"] + 1.0) <= 1e-10
        assert abs(payload["phase_im"]) <= 1e-10
        assert payload["residual"] <= 1e-12

    def test_half_pi_fails(self, capsys):
        code, out, err = run_cli(["swap-check", "--time", "0.5pi"], capsys)
        assert code == 4
        assert not json.loads(out)["is_swap_up_to_phase"]
        assert json.loads(err)["error"]["check"] == "swap"

    def test_heisenberg_cannot_swap(self, capsys):
        code, out, _ = run_cli(["swap-check", "--interaction", "heisenberg",
                                "--time", "pi"], capsys)
        assert code == 4
        assert not json.loads(out)["is_swap_up_to_phase"]

    @pytest.mark.parametrize("interaction, time, expected_code",
                             [("mix", "pi", 0), ("heisenberg", "0.5pi", 4)])
    def test_negative_sign_conjugates_the_phase(self, capsys, interaction, time, expected_code):
        # exp(-iHt) is the conjugate of exp(iHt) for a real H: the same verdict,
        # residual and exit code, with phase_im negated
        runs = {}
        for sign in ("1", "-1"):
            code, out, _ = run_cli(["swap-check", "--interaction", interaction, "--time", time,
                                    "--sign", sign], capsys)
            assert code == expected_code
            runs[sign] = json.loads(out)
        conjugated = dict(runs["1"], phase_im=-runs["1"]["phase_im"])
        assert runs["-1"] == conjugated

    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_tolerance_must_be_positive(self, capsys, tol):
        # a tolerance no residual can meet is a usage error, not a failed check
        code, out, err = run_cli(["swap-check", "--tol", tol], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == "--tol"


class TestTransfer:
    def test_three_site_scan(self, tmp_path, capsys):
        spec_path = tmp_path / "chain3.json"
        spec_path.write_text(json.dumps(
            {"n": 3, "kind": "heisenberg_squared_sum", "a": [], "b": [], "B": [], "C": [],
             "time_sign": 1}))
        code, out, _ = run_cli([
            "transfer", "--spec", str(spec_path), "--source", "001", "--target", "100",
            "--t-max", "4pi", "--dt", "1e-3", "--output-dir", str(tmp_path), "--tag", "t3",
        ], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "t3_summary.json").read_text())
        assert abs(summary["max_abs"] - np.sqrt(3) / 2) <= 1e-6
        assert abs(summary["first_peak_time"] - 2 * np.pi / 3) <= 5e-3
        header = (tmp_path / "t3_series.csv").read_text().splitlines()[0]
        assert header == "t,abs,arg"

    def test_full_space_series_is_the_library_series(self, tmp_path, capsys):
        spec = ChainSpec.from_json_dict({"n": 3, "kind": "heisenberg_squared_sum"})
        spec_path = tmp_path / "chain3.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()))
        code, _, _ = run_cli([
            "transfer", "--spec", str(spec_path), "--source", "001", "--target", "100",
            "--t-max", "5", "--dt", "1e-3", "--output-dir", str(tmp_path), "--tag", "long",
        ], capsys)
        assert code == 0
        scan = amplitude_scan(chain_hamiltonian(spec), basis_index("001", 3),
                              basis_index("100", 3), LONG_GRID, sign=spec.time_sign)
        assert ((tmp_path / "long_series.csv").read_bytes()
                == per_value_csv(("t", "abs", "arg"), scan.rows()))

    def test_sigma_scan_preset(self, tmp_path, capsys):
        code, out, _ = run_cli([
            "transfer", "--preset-n", "6", "--channel", "up", "--t-max", "2pi",
            "--dt", "1e-3", "--output-dir", str(tmp_path), "--tag", "p6",
        ], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "p6_summary.json").read_text())
        assert summary["max_abs"] >= 1 - 1e-6
        assert abs(summary["first_peak_time"] - np.pi) <= 5e-3

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        commands = {
            "transfer": ["transfer", "--preset-n", "3", "--channel", "up", "--t-max", "pi",
                         "--dt", "1e-2"],
            "pst": ["pst-check", "--n", "5", "--variant", "phase_exact", "--scan",
                    "--phase-correct"],
            "pst_raw": ["pst-check", "--n", "4", "--scan", "--t-max", "pi", "--dt", "1e-3"],
            "tomo": ["tomography", "--preset-n", "6", "--emit-records", "--shots", "1000",
                     "--seed", "4"],
            "tomo_prob": ["tomography", "--preset-n", "4", "--mode", "probability",
                          "--emit-records"],
        }
        for tag, args in commands.items():
            args = args + ["--output-dir", str(tmp_path / tag), "--tag", "rep"]
            assert main(args) == 0
            out_first = capsys.readouterr().out
            first = {p.name: p.read_bytes() for p in (tmp_path / tag).iterdir()}
            assert main(args) == 0
            assert capsys.readouterr().out == out_first
            second = {p.name: p.read_bytes() for p in (tmp_path / tag).iterdir()}
            assert first == second
            assert any(name.endswith(".csv") for name in first), tag

    def test_one_point_grid(self, tmp_path, capsys):
        code, _, _ = run_cli(["transfer", "--preset-n", "3", "--channel", "up",
                              "--t-max", "1e-4", "--dt", "1e-3",
                              "--output-dir", str(tmp_path), "--tag", "one"], capsys)
        assert code == 0
        rows = (tmp_path / "one_series.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("0,")
        grid = json.loads((tmp_path / "one_summary.json").read_text())["grid"]
        assert grid == {"t_max": 1e-3, "dt": 1e-3, "points": 1}

    @pytest.mark.parametrize("grid", [["--dt", "inf"], ["--dt", "nan"], ["--dt", "0"],
                                      ["--t-max", "1e999"]])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, grid):
        code, out, err = run_cli(["transfer", "--preset-n", "3", "--channel", "up", *grid,
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        # a --t-max that overflows to inf is refused by the time parser itself
        want = "cannot parse time '1e999'" if grid[0] == "--t-max" else "positive finite"
        assert want in json.loads(err)["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["transfer", "--channel", "up"],
                                      ["transfer", "--source", "00", "--target", "00"],
                                      ["tomography"], ["tomography", "--emit-records"]])
    def test_preset_n_zero_reports_the_preset_rule(self, tmp_path, capsys, argv):
        # 0 is a given --preset-n, not a missing one
        code, out, err = run_cli([*argv, "--preset-n", "0", "--output-dir", str(tmp_path)],
                                 capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "presets require n >= 2"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("channel, flag, site", [("up", "--source-site", "0"),
                                                     ("up", "--source-site", "5"),
                                                     ("down", "--target-site", "9")])
    def test_channel_site_outside_chain_rejected(self, tmp_path, capsys, channel, flag,
                                                 site):
        code, out, err = run_cli(["transfer", "--preset-n", "4", "--channel", channel,
                                  flag, site, "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == flag
        assert f"site {site} is outside" in error["message"]
        assert not list(tmp_path.iterdir())

    def test_missing_source_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "chain.json"
        spec_path.write_text(json.dumps({"n": 2, "kind": "heisenberg"}))
        code, _, err = run_cli(["transfer", "--spec", str(spec_path)], capsys)
        assert code == 2
        assert "source" in json.loads(err)["error"]["message"]

    def test_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["transfer", "--spec", str(path), "--source", "01",
                                "--target", "10"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["stage"] == "spec"

    # the cap is checked from n before H is built: building it took 1.2 s and
    # 798 MB at n = 12, ran out of memory at n = 14 and overflowed int64 at n = 40
    @pytest.mark.parametrize("n", [9, 14, 40])
    def test_full_space_past_dense_cap_fails_early(self, tmp_path, run_limited, n):
        spec_path = tmp_path / f"chain{n}.json"
        spec_path.write_text(json.dumps({"n": n, "kind": "heisenberg"}))
        proc = run_limited(
            "import resource, sys, time\n"
            "from spin1chain.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n",
            "transfer", "--spec", str(spec_path), "--source", "0" * (n - 1) + "1",
            "--target", "1" + "0" * (n - 1), "--t-max", "1", "--dt", "0.1",
            "--output-dir", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["stage"] == "transfer"
        assert f"dimension {3 ** n} exceeds cap 6561" in error["message"]
        elapsed, peak = proc.stdout.split()
        assert float(elapsed) < 5 and int(peak) < 100 * 1024  # peak RSS in KiB

    def test_long_full_space_scan_stays_small(self, tmp_path, run_limited):
        # about 640 of 729 energies on a 125664-point grid: an N x m phase
        # matrix chunk took the run to 1.4 GB
        spec_path = tmp_path / "chain6.json"
        spec_path.write_text(json.dumps({"n": 6, "kind": "heisenberg"}))
        proc = run_limited(
            "import resource, sys\n"
            "from spin1chain.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n",
            "transfer", "--spec", str(spec_path), "--source", "000001", "--target", "100000",
            "--t-max", "40pi", "--dt", "1e-3", "--output-dir", str(tmp_path), "--tag", "n6")
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.splitlines()[-1]) < 300 * 1024  # peak RSS in KiB
        assert len((tmp_path / "n6_series.csv").read_text().splitlines()) == 125664 + 1

    # a grid of 1e10 points needs 74.5 GiB
    @pytest.mark.parametrize("argv", [
        ["transfer", "--preset-n", "3", "--channel", "up", "--t-max", "1e4", "--dt", "1e-6"],
        ["pst-check", "--n", "3", "--scan", "--t-max", "1e4", "--dt", "1e-6"]])
    def test_grid_too_large_for_memory_is_an_input_error(self, tmp_path, run_limited, argv):
        proc = run_limited("import sys\nfrom spin1chain.cli import main\n"
                           "sys.exit(main(sys.argv[1:]))\n",
                           *argv, "--output-dir", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["stage"] == argv[0]
        assert error["message"].startswith("out of memory: ") and "GiB" in error["message"]

    # a band of 10000 sites is refused before its 10000 x 10000 matrix (or a
    # 20001 x 20001 sigma block) is built, so each command stops at once
    @pytest.mark.parametrize("argv", [
        ["pst-check", "--n", "10000"],
        ["transfer", "--preset-n", "10000", "--channel", "down"],
        ["tomography", "--preset-n", "10000"]], ids=["pst-check", "transfer", "tomography"])
    def test_band_past_dense_cap_fails_early(self, tmp_path, run_limited, argv):
        proc = run_limited(
            "import resource, sys, time\n"
            "from spin1chain.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n",
            *argv, "--output-dir", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["stage"] == argv[0]
        assert "10000 sites" in error["message"] and "6561" in error["message"]
        elapsed, peak = proc.stdout.split()
        assert float(elapsed) < 5 and int(peak) < 200 * 1024  # peak RSS in KiB


class TestPstCheck:
    def test_standard_n2(self, capsys):
        code, out, _ = run_cli(["pst-check", "--n", "2", "--variant", "standard"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["min_corrected_fidelity"] >= 1 - 1e-8
        assert payload["min_raw_fidelity"] < 1 - 1e-3

    def test_phase_exact_n5(self, capsys):
        code, out, _ = run_cli(["pst-check", "--n", "5", "--variant", "phase_exact"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["min_raw_fidelity"] >= 1 - 1e-8

    def test_vacuum_state_unaffected(self, capsys):
        code, out, _ = run_cli(["pst-check", "--n", "3"], capsys)
        assert code == 0
        vacuum_entry = json.loads(out)["states"][0]
        assert vacuum_entry["raw_fidelity"] >= 1 - 1e-10
        assert vacuum_entry["corrected_fidelity"] >= 1 - 1e-10

    def test_fidelity_scan_csv(self, tmp_path, capsys):
        code, _, _ = run_cli([
            "pst-check", "--n", "4", "--variant", "phase_exact", "--scan",
            "--t-max", "2pi", "--dt", "1e-2", "--output-dir", str(tmp_path),
            "--tag", "scan4",
        ], capsys)
        assert code == 0
        lines = (tmp_path / "scan4_fidelity.csv").read_text().splitlines()
        assert lines[0] == "t,fidelity"
        t, fid = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
        k = int(np.argmax(fid))
        assert abs(t[k] - np.pi) <= 2e-2
        assert fid[k] >= 1 - 1e-4

    @pytest.mark.parametrize("grid", [["--dt", "0"], ["--t-max", "0"], ["--dt", "inf"]])
    def test_bad_scan_grid_writes_no_file(self, tmp_path, capsys, grid):
        code, out, err = run_cli(["pst-check", "--n", "3", "--scan", *grid,
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert "time grid requires" in json.loads(err)["error"]["message"]
        assert not list(tmp_path.iterdir())

    def test_fidelity_scan_is_the_library_series(self, tmp_path, capsys):
        code, _, _ = run_cli([
            "pst-check", "--n", "4", "--scan", "--t-max", "5", "--dt", "1e-3",
            "--output-dir", str(tmp_path), "--tag", "long",
        ], capsys)
        assert code == 0
        fidelity = qutrit_fidelity_series(pst_preset(4, "standard"), QUTRIT_TEST_STATES[3],
                                          LONG_GRID)
        assert ((tmp_path / "long_fidelity.csv").read_bytes()
                == per_value_csv(("t", "fidelity"), np.column_stack((LONG_GRID, fidelity))))

    @pytest.mark.parametrize("variant, n", [("standard", 3), ("phase_exact", 7),
                                            ("standard", 11)])
    def test_one_band_series_per_report(self, variant, n, capsys, monkeypatch):
        # the report holds, bit for bit, the per-state qutrit_transfer_fidelity
        # values, and the op computes the band amplitudes once
        spec = pst_preset(n, variant)
        want = [(qutrit_transfer_fidelity(spec, amp, np.pi, phase_correct=False),
                 qutrit_transfer_fidelity(spec, amp, np.pi, phase_correct=True))
                for amp in QUTRIT_TEST_STATES]
        calls = []
        band_series = dynamics._band_series

        def counted(*args):
            calls.append(args)
            return band_series(*args)

        monkeypatch.setattr(dynamics, "_band_series", counted)
        code, out, _ = run_cli(["pst-check", "--n", str(n), "--variant", variant], capsys)
        assert code == 0 and len(calls) == 1
        got = [(s["raw_fidelity"], s["corrected_fidelity"]) for s in json.loads(out)["states"]]
        assert got == want
        assert json.loads(out)["min_raw_fidelity"] == min(raw for raw, _ in want)


class TestTomography:
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 15, 16, 17, 40, 127, 128, 129, 136, 300, 1000])
    def test_auto_dt_has_the_dense_bound_bits(self, n):
        # the radii add each band row's three entries as np.sum adds the dense
        # row, whose pairwise sum groups them by their places in the row
        rng = np.random.default_rng(n)
        specs = [pst_preset(n, "standard"), pst_preset(n, "phase_exact")] + [ChainSpec(
            n=n, kind="engineered", a=tuple(rng.uniform(-1.5, 1.5, n - 1)),
            b=tuple(rng.uniform(-1.5, 1.5, n - 1)), B=tuple(rng.uniform(-1.0, 1.0, n)),
            C=tuple(rng.uniform(-2.0, 2.0, n))) for _ in range(20)]
        for spec in specs:
            bound = max(1e-6, *(float(np.max(np.sum(np.abs(dense_band(spec, channel)), axis=1)))
                                for channel in ("up", "down")))
            assert cli._auto_dt(spec) == np.pi / (1.3 * bound), spec

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 13, 64, 127, 128, 129, 137, 300, 1000, 4097])
    def test_radii_add_as_the_dense_rows(self, n):
        # every row, not only the largest: rows in the tail past the last
        # multiple of 8 and rows across a split of a row of more than 128
        rng = np.random.default_rng(n)
        for _ in range(3):
            diag, off = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.5, 1.5, n - 1)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            assert cli._radii(diag, off).tobytes() == np.sum(np.abs(dense), axis=1).tobytes()

    def test_preset_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(["tomography", "--preset-n", "4",
                                "--output-dir", str(tmp_path), "--tag", "tomo"], capsys)
        assert code == 0
        payload = json.loads(out)
        spec = pst_preset(4, "standard")
        assert np.max(np.abs(np.array(payload["a_abs"]) - spec.a)) <= 1e-8
        assert np.max(np.abs(np.array(payload["C"]) - spec.C)) <= 1e-8
        assert np.max(np.abs(np.array(payload["B"]))) <= 1e-8
        manifest = json.loads((tmp_path / "tomo_manifest.json").read_text())
        assert manifest["command"] == "tomography"

    def test_hidden_spec_file(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        hidden = {
            "n": 3,
            "kind": "engineered",
            "a": list(rng.uniform(0.4, 1.5, 2)),
            "b": list(rng.uniform(0.4, 1.5, 2)),
            "B": list(rng.uniform(-0.8, 0.8, 3)),
            "C": list(rng.uniform(0.5, 2.0, 3)),
            "time_sign": 1,
        }
        path = tmp_path / "hidden.json"
        path.write_text(json.dumps(hidden))
        code, out, _ = run_cli(["tomography", "--spec", str(path),
                                "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert np.max(np.abs(np.array(payload["a_abs"]) - hidden["a"])) <= 1e-7
        assert np.max(np.abs(np.array(payload["B"]) - hidden["B"])) <= 1e-7

    def test_probability_mode(self, tmp_path, capsys):
        code, out, _ = run_cli(["tomography", "--preset-n", "3", "--mode", "probability",
                                "--output-dir", str(tmp_path), "--tag", "gaps"], capsys)
        assert code == 0
        payload = json.loads(out)
        up = payload["channels"]["up"]
        assert np.allclose(up["gaps"], [1.0, 2.0], atol=1e-6)
        assert "note" in payload

    @pytest.mark.parametrize("shots", ["1000", "1000000"])
    def test_probability_mode_shot_noise_named(self, tmp_path, capsys, shots):
        code, out, err = run_cli(["tomography", "--preset-n", "4", "--mode", "probability",
                                  "--shots", shots, "--seed", "1",
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith("33 of 33 singular values exceed the relative threshold "
                                  "1e-07 (smallest ratio ")
        assert "no floor below the threshold" in message
        assert "model order" not in message

    def test_seeded_shots_reproducible(self, tmp_path, capsys):
        args = ["tomography", "--preset-n", "2", "--shots", "100000", "--seed", "7",
                "--samples", "64", "--output-dir", str(tmp_path), "--tag", "noisy"]
        assert main(args) == 0
        capsys.readouterr()
        first = (tmp_path / "noisy_result.json").read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "noisy_result.json").read_bytes() == first

    def test_seedless_shots_record_their_seed(self, tmp_path, capsys):
        # a shot run without --seed draws one seed and records it in the
        # manifest and the payload; --seed with it repeats the result bytes
        args = ["tomography", "--preset-n", "3", "--shots", "100000", "--samples", "64",
                "--output-dir", str(tmp_path)]
        assert main(args + ["--tag", "fresh"]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "fresh_manifest.json").read_text())
        payload = json.loads((tmp_path / "fresh_result.json").read_text())
        seed = manifest["seed"]
        assert isinstance(seed, int) and payload["diagnostics"]["seed"] == seed
        assert main(args + ["--tag", "again", "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert ((tmp_path / "again_result.json").read_bytes()
                == (tmp_path / "fresh_result.json").read_bytes())
        assert json.loads((tmp_path / "again_manifest.json").read_text())["seed"] == seed

    def test_non_engineered_rejected(self, tmp_path, capsys):
        path = tmp_path / "heis.json"
        path.write_text(json.dumps({"n": 3, "kind": "heisenberg"}))
        code, _, err = run_cli(["tomography", "--spec", str(path)], capsys)
        assert code == 2
        assert "engineered" in json.loads(err)["error"]["message"]

    def test_emit_then_consume_records(self, tmp_path, capsys):
        code, _, _ = run_cli(["tomography", "--preset-n", "3", "--emit-records",
                              "--output-dir", str(tmp_path), "--tag", "emit"], capsys)
        assert code == 0
        up_csv = tmp_path / "emit_record_up.csv"
        down_csv = tmp_path / "emit_record_down.csv"
        assert up_csv.read_text().splitlines()[0] == "t,re,im"
        code, out, _ = run_cli([
            "tomography", "--record-up", str(up_csv), "--record-down", str(down_csv),
            "--order", "3", "--output-dir", str(tmp_path), "--tag", "fromfiles",
        ], capsys)
        assert code == 0
        payload = json.loads(out)
        spec = pst_preset(3, "standard")
        assert np.max(np.abs(np.array(payload["a_abs"]) - spec.a)) <= 1e-7

    # probability mode exits 2 on shot-sampled records, so it runs noise-free
    @pytest.mark.parametrize("mode, shots", [("amplitude", 10 ** 6), ("amplitude", None),
                                             ("probability", None)])
    def test_emit_records_synthesizes_each_record_once(self, tmp_path, capsys, monkeypatch,
                                                       mode, shots):
        calls = []
        synthesize = tomography.synthesize_record

        def counted(*args, **kwargs):
            calls.append(args[1])
            return synthesize(*args, **kwargs)

        # every module binding of the function counts
        monkeypatch.setattr(tomography, "synthesize_record", counted)
        monkeypatch.setattr(cli, "synthesize_record", counted, raising=False)
        argv = ["tomography", "--preset-n", "3", "--mode", mode, "--seed", "4",
                "--emit-records", "--output-dir", str(tmp_path), "--tag", "once"]
        code, _, _ = run_cli(argv + ([] if shots is None else ["--shots", str(shots)]), capsys)
        assert code == 0
        assert calls == ["up", "down"]
        # the files hold the records the analysis consumed: the same seeds
        spec = pst_preset(3, "standard")
        payload = json.loads((tmp_path / "once_manifest.json").read_text())
        params = payload["parameters"]
        times = params["dt"] * np.arange(params["samples"])
        for k, channel in enumerate(("up", "down")):
            record = synthesize(spec, channel, mode, times, shots=shots, seed=4 + k)
            expected = tmp_path / f"expected_{channel}.csv"
            tomography.write_record_csv(record, str(expected))
            assert (tmp_path / f"once_record_{channel}.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("header, short", [("t,re,im", "0.5,1"), ("t,p", "0.5")])
    def test_short_record_row(self, tmp_path, capsys, header, short):
        paths = []
        for channel in ("up", "down"):
            path = tmp_path / f"{channel}.csv"
            path.write_text(f"{header}\n{','.join(['0'] * len(header.split(',')))}\n"
                            f"{short}\n")
            paths.append(str(path))
        code, out, err = run_cli(["tomography", "--record-up", paths[0], "--record-down",
                                  paths[1], "--order", "1", "--output-dir", str(tmp_path)],
                                 capsys)
        assert code == 2 and out == ""
        message = json.loads(err)["error"]["message"]
        assert f"{paths[0]}, line 3" in message and header in message

    @pytest.mark.parametrize("content, named", [
        (b"t,re,im\n0,1,0\n0.1,abc,0\n", ", line 3: could not convert string to float: 'abc'"),
        (b"t,p\n0,1\n0.1,0.5\n0.2,0..5\n", ", line 4: could not convert string to float: '0..5'"),
        (b"t,re,im\n0,1,0\n0.1,\xff,0\n", ": not UTF-8 text"),
        (b"time,value\n0,1\n", ": unrecognized record header 'time,value'"),
        (b"t,re,im\n0,1,0\n0.1,nan,0\n", ": record values must be finite"),
        (b"t,re,im\n0,1,0\n", ": need at least two samples")],
        ids=["field", "probability-field", "not-utf8", "header", "non-finite", "one-sample"])
    def test_record_refusals_name_their_file(self, tmp_path, capsys, content, named):
        # the up file is sound and the down file is not: the refusal names the
        # down file, and the line of a field that is no number
        up, down = tmp_path / "up.csv", tmp_path / "down.csv"
        up.write_text("t,re,im\n0,1,0\n0.1,0.5,0.5\n")
        down.write_bytes(content)
        code, out, err = run_cli(["tomography", "--record-up", str(up), "--record-down",
                                  str(down), "--order", "1", "--output-dir", str(tmp_path)],
                                 capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "tomography"
        assert error["message"].startswith(f"{down}{named}")

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-3"),
                                             ("--dt", "0"), ("--dt", "-0.1"), ("--dt", "nan"),
                                             ("--dt", "inf"), ("--shots", "0"),
                                             ("--shots", "-5")])
    def test_non_positive_grid_flags_named(self, tmp_path, capsys, flag, value):
        code, out, err = run_cli(["tomography", "--preset-n", "3", flag, value,
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == flag
        assert error["message"].startswith(f"{flag}: must be positive and finite")
        assert list(tmp_path.iterdir()) == []

    def test_shots_beyond_int64_named(self, tmp_path, capsys):
        code, out, err = run_cli(["tomography", "--preset-n", "3", "--shots", str(2 ** 63),
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == "--shots"
        assert error["message"] == f"--shots: must be at most 2**63 - 1, got {2 ** 63}"
        assert list(tmp_path.iterdir()) == []

    def test_record_files_need_positive_shots(self, tmp_path, capsys):
        code, _, err = run_cli(["tomography", "--record-up", "x.csv", "--record-down",
                                "y.csv", "--order", "3", "--shots", "0"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["path"] == "--shots"

    def test_shot_sampled_records_read_back_need_shots(self, tmp_path, capsys):
        # a shot-sampled amplitude may exceed |f| = 1; read without --shots the
        # record is held to the exact bound, and the error names the flag
        code, _, _ = run_cli(["tomography", "--preset-n", "8", "--shots", "1000000", "--seed",
                              "1", "--emit-records", "--output-dir", str(tmp_path), "--tag",
                              "emit"], capsys)
        assert code == 0
        paths = [str(tmp_path / f"emit_record_{channel}.csv") for channel in ("up", "down")]
        argv = ["tomography", "--record-up", paths[0], "--record-down", paths[1], "--order",
                "8", "--output-dir", str(tmp_path), "--tag", "back"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == "--shots"
        assert "|f| <= 1" in error["message"] and paths[0] in error["message"]
        assert "--shots it was taken with" in error["message"]
        assert not list(tmp_path.glob("back_*"))
        code, _, _ = run_cli(argv + ["--shots", "1000000"], capsys)
        assert code == 0
        # an exact record keeps the bound without a hint
        with pytest.raises(tomography.AmplitudeBoundError, match=r"^survival amplitudes must "
                                                                 r"satisfy \|f\| <= 1$"):
            tomography.MeasurementRecord(np.arange(2.0), [1.0, 1.1], "up", "amplitude")

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_non_positive_order_named(self, tmp_path, capsys, order):
        code, _, _ = run_cli(["tomography", "--preset-n", "2", "--emit-records",
                              "--output-dir", str(tmp_path), "--tag", "emit"], capsys)
        assert code == 0
        code, out, err = run_cli(["tomography", "--record-up",
                                  str(tmp_path / "emit_record_up.csv"), "--record-down",
                                  str(tmp_path / "emit_record_down.csv"), "--order", order,
                                  "--output-dir", str(tmp_path), "--tag", "bad"], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == "--order"
        assert error["message"] == f"--order: must be positive and finite, got {order}"
        assert not list(tmp_path.glob("bad_*"))

    def test_long_shot_sampled_record(self, tmp_path, capsys):
        # 65536 samples: the K//2 pencil runs by subspace iteration, far past
        # the dense cap on its 32768x32769 Hankel matrix
        shots = 10 ** 6
        code, out, _ = run_cli(["tomography", "--preset-n", "3", "--samples", "65536",
                                "--shots", str(shots), "--seed", "3",
                                "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        spec = pst_preset(3, "standard")
        for key, truth in (("a_abs", np.abs(spec.a)), ("b_abs", np.abs(spec.b)),
                           ("B", spec.B), ("C", spec.C)):
            assert np.max(np.abs(np.array(payload[key]) - truth)) <= 20 / np.sqrt(shots)
        assert len(payload["diagnostics"]["up"]["singular_values"]) == 3 + 10

    def test_record_files_need_order(self, tmp_path, capsys):
        code, _, err = run_cli(["tomography", "--record-up", "x.csv",
                                "--record-down", "y.csv"], capsys)
        assert code == 2
        assert "--order" in json.loads(err)["error"]["message"]

    def test_wobbly_record_times_fit_on_the_exact_grid(self, tmp_path, capsys):
        # hand-made record times may miss the uniform grid within the 1e-9 of
        # MeasurementRecord.grid_step; the record is fitted, and its model
        # evaluated, on the grid times[0] + dt * k, so the estimates are those
        # of the exact record
        code, _, _ = run_cli(["tomography", "--preset-n", "3", "--emit-records",
                              "--output-dir", str(tmp_path), "--tag", "exact"], capsys)
        assert code == 0
        paths = {}
        for channel in ("up", "down"):
            exact = str(tmp_path / f"exact_record_{channel}.csv")
            record = tomography.read_record_csv(exact, channel)
            times = record.times.copy()
            times[2:] += 1e-12 * (-1.0) ** np.arange(times.size - 2)
            wobbly = tomography.MeasurementRecord(times, record.values, channel, "amplitude")
            assert wobbly.grid_step() == record.grid_step()
            with pytest.raises(ValueError, match="uniform grid"):
                kernels.uniform_step(times)
            paths[channel] = (exact, str(tmp_path / f"wobbly_{channel}.csv"))
            tomography.write_record_csv(wobbly, paths[channel][1])
        payloads = []
        for k, tag in enumerate(("fromexact", "fromwobbly")):
            code, out, err = run_cli(["tomography", "--record-up", paths["up"][k],
                                      "--record-down", paths["down"][k], "--order", "3",
                                      "--output-dir", str(tmp_path), "--tag", tag], capsys)
            assert code == 0, err
            payloads.append(json.loads(out))
        assert payloads[1] == payloads[0]

    def test_order_needs_record_files(self, tmp_path, capsys):
        # a synthesized record is fitted at the chain's own length, so --order
        # without record files is refused, not ignored
        code, out, err = run_cli(["tomography", "--preset-n", "3", "--samples", "8",
                                  "--order", "2", "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == "--order"
        assert error["message"].startswith("--order: applies to record files only")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--spec", "hidden.json"), ("--preset-n", "3")])
    def test_record_files_refuse_a_hidden_chain(self, tmp_path, capsys, flag, value):
        code, _, _ = run_cli(["tomography", "--preset-n", "3", "--emit-records",
                              "--output-dir", str(tmp_path), "--tag", "emit"], capsys)
        assert code == 0
        (tmp_path / "hidden.json").write_text(json.dumps(pst_preset(3, "standard").to_json_dict()))
        value = str(tmp_path / value) if flag == "--spec" else value
        code, out, err = run_cli(["tomography", "--record-up",
                                  str(tmp_path / "emit_record_up.csv"), "--record-down",
                                  str(tmp_path / "emit_record_down.csv"), "--order", "3",
                                  flag, value, "--output-dir", str(tmp_path), "--tag", "both"],
                                 capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "spec" and error["path"] == flag
        assert error["message"] == f"{flag}: names a hidden chain, which record files replace"
        assert not list(tmp_path.glob("both_*"))

    @pytest.mark.parametrize("missing", ["up", "down"])
    def test_unreadable_record_file(self, tmp_path, capsys, missing):
        code, _, _ = run_cli(["tomography", "--preset-n", "2", "--emit-records",
                              "--output-dir", str(tmp_path), "--tag", "emit"], capsys)
        assert code == 0
        paths = {ch: str(tmp_path / f"emit_record_{ch}.csv") for ch in ("up", "down")}
        paths[missing] = str(tmp_path / "absent.csv")
        code, out, err = run_cli(["tomography", "--record-up", paths["up"],
                                  "--record-down", paths["down"], "--order", "2",
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "io"
        assert "absent.csv" in error["message"]
        # a directory in place of a file is an OSError as well
        code, _, err = run_cli(["tomography", "--record-up", str(tmp_path),
                                "--record-down", paths["down"], "--order", "2",
                                "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(err)["error"]["stage"] == "io"


class TestFileErrors:
    def test_output_dir_that_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run_cli(["transfer", "--preset-n", "3", "--channel", "up",
                                  "--output-dir", str(target)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "io" and str(target) in error["message"]

    # a run refused for its inputs makes no output directory: a missing or
    # unreadable spec, a basis label of the wrong length, a chain past the cap
    @pytest.mark.parametrize("argv", [
        ["tomography", "--spec", "missing.json"],
        ["tomography", "--spec", "overflowing.json"],
        ["transfer", "--preset-n", "3", "--source", "1m00000000", "--target", "100"],
        ["transfer", "--spec", "heisenberg9.json", "--source", "m00000000",
         "--target", "00000000m"],
    ], ids=["missing-spec", "overflowing-spec", "long-label", "past-cap"])
    def test_refused_run_makes_no_output_dir(self, tmp_path, capsys, argv):
        (tmp_path / "overflowing.json").write_text(
            '{"n": 2, "kind": "engineered", "a": [1], "b": [1], "B": [0, 0], '
            '"C": [1, %s]}' % ("1" * 5001))
        (tmp_path / "heisenberg9.json").write_text('{"n": 9, "kind": "heisenberg"}')
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        code, out, _ = run_cli([*argv, "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert not (tmp_path / "out").exists()

    @staticmethod
    def unreadable_spec_error(tmp_path, capsys, argv, content):
        """The error payload of ``argv`` run on a spec file holding ``content``; the
        run fails with exit code 2, prints nothing and makes no output directory.
        The message names the file."""
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        argv = [str(tmp_path / arg) if arg == "out" else arg for arg in argv]
        code, out, err = run_cli([argv[0], "--spec", str(path), *argv[1:]], capsys)
        assert code == 2 and out == ""
        assert not (tmp_path / "out").exists()
        error = json.loads(err)["error"]
        assert error["message"].startswith(f"cannot read spec file {path}: ")
        return error

    # a spec file that is not UTF-8 is reported as an unreadable spec, as one that
    # is not JSON is: the codec error is no error of the subcommand's own
    SPEC_READERS = pytest.mark.parametrize("argv, stage", [
        (["transfer", "--source", "001", "--target", "100", "--output-dir", "out"], "spec"),
        (["tomography", "--output-dir", "out"], "spec"),
        (["validate"], "io")], ids=["transfer", "tomography", "validate"])

    @SPEC_READERS
    def test_spec_file_that_is_not_utf8(self, tmp_path, capsys, argv, stage):
        error = self.unreadable_spec_error(tmp_path, capsys, argv, b'\xff\xfe{"n": 3}')
        assert error["stage"] == stage and "can't decode byte 0xff" in error["message"]

    @SPEC_READERS
    def test_spec_file_that_is_not_json(self, tmp_path, capsys, argv, stage):
        error = self.unreadable_spec_error(tmp_path, capsys, argv, b'{n: 3}')
        assert error["stage"] == stage
        assert "Expecting property name enclosed in double quotes" in error["message"]

    def test_tag_into_missing_directory(self, tmp_path, capsys):
        code, out, err = run_cli(["pst-check", "--n", "3", "--tag", "missing/x",
                                  "--output-dir", str(tmp_path / "d")], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["stage"] == "io" and "x_report.json" in error["message"]


class TestJsonStdout:
    @pytest.mark.parametrize("argv, artifact", [
        (["tomography", "--preset-n", "3", "--seed", "2", "--shots", "1000"],
         "tomography_result.json"),
        (["pst-check", "--n", "4", "--variant", "phase_exact"],
         "pst_phase_exact_n4_report.json"),
        (["spectra", "--format", "json"], "spectra_spectra.json")],
        ids=["tomography", "pst-check", "spectra"])
    def test_stdout_is_the_result_file(self, argv, artifact, tmp_path, capsys):
        code, out, err = run_cli([*argv, "--output-dir", str(tmp_path)], capsys)
        assert code == 0, err
        assert out.encode() == (tmp_path / artifact).read_bytes()
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestOutputDirEnv:
    def test_env_var_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPIN1CHAIN_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(["spectra", "--format", "json", "--tag", "envtest"], capsys)
        assert code == 0
        assert (tmp_path / "envtest_spectra.json").exists()


class TestParserReuse:
    """One parser serves every call of a process, as a fresh one would."""

    SEQUENCE = (
        ["transfer", "--preset-n", "3", "--channel", "up", "--t-max", "pi", "--dt", "1e-2",
         "--tag", "first"],
        ["spectra", "--format", "json", "--tag", "spec"],
        ["tomography", "--preset-n", "3", "--seed", "2", "--shots", "1000", "--emit-records",
         "--tag", "tomo"],
        # no --channel and no --tag: must scan the full space under the default tag
        ["transfer", "--spec", "chain.json", "--source", "001", "--target", "100",
         "--t-max", "pi", "--dt", "1e-2"],
        ["transfer", "--no-such-option", "1"],
    )

    @staticmethod
    def run_sequence(workdir, capsys, monkeypatch, fresh):
        workdir.mkdir()
        (workdir / "chain.json").write_text(json.dumps({"n": 3, "kind": "heisenberg"}))
        monkeypatch.chdir(workdir)
        results = []
        for k, argv in enumerate(TestParserReuse.SEQUENCE):
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv + ["--output-dir", f"out{k}"])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outdir = workdir / f"out{k}"
            files = {p.name: p.read_bytes() for p in outdir.iterdir()} if outdir.exists() else {}
            results.append((code, captured.out, captured.err, files))
        return results

    def test_reused_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        cli._parser.cache_clear()
        reused = self.run_sequence(tmp_path / "reused", capsys, monkeypatch, fresh=False)
        fresh = self.run_sequence(tmp_path / "fresh", capsys, monkeypatch, fresh=True)
        assert [r[0] for r in reused] == [0, 0, 0, 0, 2]
        assert "transfer_series.csv" in reused[3][3]  # default tag, full-space scan
        assert "--no-such-option" in reused[4][2]
        for got, want in zip(reused, fresh):
            assert got == want

    def test_no_option_value_leaks(self):
        cli._parser.cache_clear()
        parser = cli._parser()
        for argv in self.SEQUENCE[:4]:
            assert vars(parser.parse_args(argv)) == vars(build_parser().parse_args(argv))
        assert cli._parser() is parser


@pytest.fixture
def no_dense_eigenvectors(monkeypatch):
    """An empty eigensystem cache, and a dense eigenvector matrix that cannot be assembled."""
    def refused(self):
        raise AssertionError(f"a dense {self.dim} x {self.dim} eigenvector matrix was assembled")

    monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
    monkeypatch.setattr(linalg.HermitianEigenSystem, "eigenvectors", property(refused))


class TestNoDenseEigenvectors:
    """The analyses and the CLI read eigensystems through their solves alone."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_mirror_analyses_at_six_sites(self, kind, no_dense_eigenvectors):
        # the engineered chain is the n = 6 preset, which reads the same from either end
        ham = chain_hamiltonian(pst_preset(6, "standard") if kind == "engineered"
                                else ChainSpec(n=6, kind=kind))
        result = dynamics.mirror_check(ham, np.pi)
        split = parity.parity_spectrum(ham, kind="chain_mirror")
        assert result.commutator_residual == 0
        assert split.dim == 729

    @pytest.mark.parametrize("argv", [
        ["transfer", "--spec", "chain.json", "--source", "1m000", "--target", "000m1",
         "--t-max", "pi", "--dt", "1e-2"],
        ["transfer", "--preset-n", "4", "--channel", "down", "--t-max", "pi", "--dt", "1e-2"],
        ["pst-check", "--n", "4", "--scan", "--t-max", "0.2pi"],
        ["pst-check", "--n", "5"],
        ["tomography", "--preset-n", "4", "--emit-records"],
        ["tomography", "--preset-n", "3", "--seed", "2", "--shots", "1000"],
        ["spectra", "--format", "json"],
        ["swap-check"]], ids=["transfer-full", "transfer-sigma", "pst-scan", "pst",
                              "tomography", "tomography-shots", "spectra", "swap-check"])
    def test_cli_runs(self, argv, tmp_path, capsys, monkeypatch, no_dense_eigenvectors):
        (tmp_path / "chain.json").write_text(json.dumps({"n": 5, "kind": "O5"}))
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli([*argv, "--output-dir", "out"] if argv[0] != "swap-check"
                               else argv, capsys)
        assert code == 0, err
