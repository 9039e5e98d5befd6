"""Command-line behavior: outputs, exit codes, determinism, atomic writes."""

import errno
import gc
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cli_env import cli_env
from touchalarm import cli, simulator
from touchalarm.cli import main
from touchalarm.units import QUOTE_LIMIT, quoted

TOUCH_SCENARIO = "1.0 touch_start\n1.2 touch_end\nduration 13\n"


@pytest.fixture
def touch_scenario(tmp_path):
    path = tmp_path / "touch.scn"
    path.write_text(TOUCH_SCENARIO)
    return str(path)


class TestDesign:
    def test_stock_text_report(self, capsys):
        assert main(["design"]) == 0
        out = capsys.readouterr().out
        assert "trigger_timeout" in out
        assert "11.374s" in out

    def test_kv_format(self, capsys):
        assert main(["design", "--format", "kv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "trigger_timeout=11.374s" in lines
        assert "r1_snapped=470Ω" in lines

    def test_circuit_override(self, tmp_path, capsys):
        circuit = tmp_path / "slow.circ"
        circuit.write_text("# bigger timing cap\nc2 = 100u\n")
        assert main(["design", str(circuit), "--format", "kv"]) == 0
        assert "trigger_timeout=24.2s" in capsys.readouterr().out.splitlines()

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["design", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert "trigger_timeout" in out.read_text()
        assert not (tmp_path / "report.txt.partial").exists()

    def test_missing_circuit_file(self, capsys):
        assert main(["design", "/nonexistent/x.circ"]) == 3
        assert "input error" in capsys.readouterr().err

    def test_invalid_circuit_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.circ"
        bad.write_text("r99 = 10\n")
        assert main(["design", str(bad)]) == 3

    def test_equation_error_exits_4(self, tmp_path, capsys):
        # parses and passes roster invariants, but the LED drop exceeds vcc
        bad = tmp_path / "lowvcc.circ"
        bad.write_text("vcc = 2\n")
        assert main(["design", str(bad)]) == 4
        assert "computation error" in capsys.readouterr().err

    def test_led1_error_names_the_secondary_supply(self, tmp_path, capsys):
        # r1 runs from the transformer secondary (18 V by default), not from vcc
        (tmp_path / "led.circ").write_text("v_led = 20\n")
        assert main(["design", str(tmp_path / "led.circ")]) == 4
        assert capsys.readouterr().err == \
            "computation error: r1_ideal: v_supply: must exceed v_led (18.0 <= 20.0)\n"

    def test_unwritable_out_leaves_no_file(self, tmp_path):
        assert main(["design", "--out", str(tmp_path / "no" / "dir" / "r.txt")]) == 3

    def test_unopenable_out_is_named_as_given(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.txt"
        assert main(["design", "--out", str(target)]) == 3
        assert capsys.readouterr().err \
            == f"output error: [Errno 2] No such file or directory: '{target}'\n"

    def test_deterministic_stdout(self, capsys):
        main(["design", "--format", "kv"])
        first = capsys.readouterr().out
        main(["design", "--format", "kv"])
        assert capsys.readouterr().out == first


class TestSimulate:
    def test_one_shot_summary_and_files(self, touch_scenario, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        wav_path = tmp_path / "siren.wav"
        code = main([
            "simulate", "--scenario", touch_scenario, "--one-shot",
            "--csv", str(csv_path), "--wav", str(wav_path),
        ])
        assert code == 0
        assert capsys.readouterr().out == "alarm_windows=1 sounding=11.374s\n"
        assert csv_path.stat().st_size > 0
        # 13 s at 16 kHz: 44-byte header + 208000 samples * 2 bytes
        assert wav_path.stat().st_size == 44 + 13 * 16000 * 2

    def test_level_hold_extends_but_one_shot_does_not(self, tmp_path, capsys):
        scenario = tmp_path / "held.scn"
        scenario.write_text("1.0 touch_start\n21.0 touch_end\nduration 25\n")
        wav = tmp_path / "x.wav"
        assert main(["simulate", "--scenario", str(scenario), "--wav", str(wav)]) == 0
        assert capsys.readouterr().out == "alarm_windows=1 sounding=20s\n"
        assert main(["simulate", "--scenario", str(scenario), "--one-shot", "--wav", str(wav)]) == 0
        assert capsys.readouterr().out == "alarm_windows=1 sounding=11.374s\n"

    def test_empty_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "empty.scn"
        scenario.write_text("duration 2\n")
        assert main(["simulate", "--scenario", str(scenario), "--csv", str(tmp_path / "e.csv")]) == 0
        assert capsys.readouterr().out == "alarm_windows=0 sounding=0s\n"

    def test_requires_an_output(self, touch_scenario, capsys):
        assert main(["simulate", "--scenario", touch_scenario]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path):
        assert main(["simulate", "--scenario", "/nonexistent.scn",
                     "--csv", str(tmp_path / "x.csv")]) == 3

    def test_invalid_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("5 mains_fail\n3 touch_start\n")
        assert main(["simulate", "--scenario", str(bad), "--csv", str(tmp_path / "x.csv")]) == 3

    def test_sample_rate_below_nyquist(self, touch_scenario, tmp_path, capsys):
        assert main(["simulate", "--scenario", touch_scenario, "--sample-rate", "900",
                     "--csv", str(tmp_path / "x.csv")]) == 2
        assert "Nyquist" in capsys.readouterr().err

    def test_huge_sample_rate(self, touch_scenario, tmp_path, capsys):
        # both signs get the short reason, whichever outputs are asked for
        for rate in ["1" + "0" * 400, "-1" + "0" * 400]:
            for outputs in (["--csv", str(tmp_path / "x.csv")], ["--wav", str(tmp_path / "x.wav")],
                            ["--csv", str(tmp_path / "x.csv"), "--wav", str(tmp_path / "x.wav")]):
                assert main(["simulate", "--scenario", touch_scenario, "--sample-rate", rate,
                             *outputs]) == 2
                err = capsys.readouterr().err
                assert err == "usage error: sample_rate is too large to convert to a float\n"
        # below the float limit but 301 digits long: still one short line, not an echo
        for rate in ["1" + "0" * 300, "-1" + "0" * 300]:
            for outputs in (["--csv", str(tmp_path / "x.csv")], ["--wav", str(tmp_path / "x.wav")]):
                assert main(["simulate", "--scenario", touch_scenario, "--sample-rate", rate,
                             *outputs]) == 2
                err = capsys.readouterr().err
                assert err.startswith("usage error: ") and err.count("\n") == 1
                assert "e+300" in err and len(err) < 120
        assert sorted(p.name for p in tmp_path.iterdir()) == ["touch.scn"]

    def test_wav_rate_range(self, touch_scenario, tmp_path):
        # 4 kHz clears Nyquist for the carrier but is below the WAV floor
        assert main(["simulate", "--scenario", touch_scenario, "--sample-rate", "4000",
                     "--wav", str(tmp_path / "x.wav")]) == 2
        assert main(["simulate", "--scenario", touch_scenario, "--sample-rate", "4000",
                     "--csv", str(tmp_path / "x.csv")]) == 0

    def test_ideal_pair(self, touch_scenario, tmp_path, capsys):
        csv_path = tmp_path / "pair.csv"
        assert main(["simulate", "--scenario", touch_scenario, "--ideal-pair", "470,490",
                     "--csv", str(csv_path)]) == 0
        assert "470.0" in csv_path.read_text()

    def test_bad_ideal_pair(self, touch_scenario, tmp_path):
        assert main(["simulate", "--scenario", touch_scenario, "--ideal-pair", "470",
                     "--csv", str(tmp_path / "x.csv")]) == 2
        assert main(["simulate", "--scenario", touch_scenario, "--ideal-pair", "470,abc",
                     "--csv", str(tmp_path / "x.csv")]) == 2

    def test_ideal_pair_still_refuses_a_carrier_fault(self, touch_scenario, tmp_path, capsys):
        # The two fixed tones replace the siren's, but the circuit is still checked as design checks it.
        (tmp_path / "odd.circ").write_text("c4 = 1e-320\n")
        assert main(["simulate", "--scenario", touch_scenario, "--circuit", str(tmp_path / "odd.circ"),
                     "--ideal-pair", "470,490", "--wav", str(tmp_path / "x.wav")]) == 4
        assert capsys.readouterr().err.startswith("computation error: high_t1: astable times are not finite: ")
        assert not (tmp_path / "x.wav").exists()

    def test_failed_write_leaves_no_partial_file(self, touch_scenario, tmp_path, capsys):
        target = tmp_path / "siren.wav"
        target.mkdir()
        assert main(["simulate", "--scenario", touch_scenario, "--wav", str(target)]) == 3
        assert "output error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["siren.wav", "touch.scn"]

    @pytest.mark.parametrize("missing", ["csv", "wav"])
    def test_unopenable_output_is_named_as_given(self, touch_scenario, tmp_path, capsys, missing):
        paths = {"csv": tmp_path / "t.csv", "wav": tmp_path / "t.wav"}
        paths[missing] = tmp_path / "missing" / f"t.{missing}"
        assert main(["simulate", "--scenario", touch_scenario,
                     "--csv", str(paths["csv"]), "--wav", str(paths["wav"])]) == 3
        assert capsys.readouterr().err \
            == f"output error: [Errno 2] No such file or directory: '{paths[missing]}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["touch.scn"]

    @pytest.mark.parametrize("argv, failing", [
        (["simulate", "--scenario", "touch.scn", "--csv", "t.csv", "--wav", "t.wav"], "t.csv"),
        (["simulate", "--scenario", "touch.scn", "--wav", "t.wav"], "t.wav"),
        (["design", "--out", "t.txt"], "t.txt"),
    ], ids=["simulate-csv-wav", "simulate-wav", "design"])
    def test_failed_write_names_its_output(self, touch_scenario, tmp_path, argv, failing):
        # The child lowers its own file-size limit.  CPython ignores SIGXFSZ, so a write past the
        # limit fails with EFBIG, mid-stream for the CSV and WAV and at the close for the report.
        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

        proc = subprocess.run([sys.executable, "-m", "touchalarm", *argv], cwd=tmp_path, preexec_fn=limit,
                              env=cli_env(PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"output error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{failing}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["touch.scn"]

    @pytest.mark.parametrize("flag", ["--circuit", "--scenario"])
    @pytest.mark.parametrize("name, problem", [("missing.txt", "[Errno 2] No such file or directory"),
                                               (".", "[Errno 21] Is a directory")])
    def test_unreadable_input_is_an_input_error(self, touch_scenario, tmp_path, capsys,
                                                flag, name, problem):
        bad = tmp_path / name
        argv = {"--scenario": touch_scenario, flag: str(bad)}
        assert main(["simulate", *[x for kv in argv.items() for x in kv],
                     "--csv", str(tmp_path / "t.csv")]) == 3
        assert capsys.readouterr().err == f"input error: {problem}: '{bad}'\n"
        assert not (tmp_path / "t.csv").exists()

    def test_wav_rate_rejected_before_simulating(self, touch_scenario, tmp_path, capsys,
                                                 monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated although the WAV rate is invalid")

        monkeypatch.setattr(simulator, "timeline", must_not_run)
        csv_path, wav_path = tmp_path / "a.csv", tmp_path / "b.wav"
        assert main(["simulate", "--scenario", touch_scenario, "--sample-rate", "4000",
                     "--csv", str(csv_path), "--wav", str(wav_path)]) == 2
        assert capsys.readouterr().err.startswith("usage error: sample_rate must be")
        assert not csv_path.exists() and not wav_path.exists()

    def test_unexpected_failure_exits_4_without_traceback(self, touch_scenario, tmp_path,
                                                          capsys, monkeypatch):
        # not a scenario, input or usage error: the last-resort handler
        def fail(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(simulator, "timeline", fail)
        assert main(["simulate", "--scenario", touch_scenario, "--wav", str(tmp_path / "x.wav")]) == 4
        err = capsys.readouterr().err
        assert err == "computation error: MemoryError: cannot allocate\n"

    @pytest.mark.parametrize(
        "circuit,scenario,rate,reason",
        [
            # held touch to the end: 1.6e304 samples, and modulator edges without end
            (None, "1.0 touch_start\nduration 1e300\n", "16000", "over the limit of 67108864"),
            (None, "1.0 touch_start\n1.2 touch_end\nduration 1e300\n", "16000",
             "over the limit of 67108864"),
            # c6 = 1p puts the modulator at about 32 MHz
            ("c6 = 1p\n", "1.0 touch_start\nduration 30\n", "16000",
             "Nyquist bound for the 3.206e+07 Hz modulator"),
        ],
        ids=["held-1e300", "released-1e300", "c6-1p"],
    )
    def test_budgets_reject_before_allocating(self, tmp_path, capsys, circuit, scenario, rate,
                                              reason):
        scenario_path = tmp_path / "big.scn"
        scenario_path.write_text(scenario)
        argv = ["simulate", "--scenario", str(scenario_path), "--sample-rate", rate,
                "--wav", str(tmp_path / "x.wav")]
        if circuit is not None:
            (tmp_path / "fast.circ").write_text(circuit)
            argv += ["--circuit", str(tmp_path / "fast.circ")]
        began = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - began < 1.0
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and reason in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize("line, message", [
        ("duration", "line 1: expected 'duration <seconds>'"),
        ("duration 1 2", "line 1: expected 'duration <seconds>'"),
        ("duration inf", "duration must be finite and >= 0, got inf"),
        ("duration nan", "duration must be finite and >= 0, got nan"),
    ])
    def test_bad_duration_line(self, tmp_path, capsys, line, message):
        (tmp_path / "s.scn").write_text(line + "\n")
        assert main(["simulate", "--scenario", str(tmp_path / "s.scn"), "--wav", str(tmp_path / "x.wav")]) == 3
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize("time, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
    def test_bad_event_time_before_a_duration(self, tmp_path, capsys, time, shown):
        # The duration line is explicit, so only the event-time check can refuse the scenario.
        (tmp_path / "s.scn").write_text(f"{time} touch_start\nduration 5\n")
        assert main(["simulate", "--scenario", str(tmp_path / "s.scn"), "--wav", str(tmp_path / "x.wav")]) == 3
        assert capsys.readouterr().err == f"input error: event time must be finite and >= 0, got {shown}\n"
        assert not (tmp_path / "x.wav").exists()

    def test_fast_modulator_fits_the_sample_budget(self, tmp_path, capsys):
        # a 16 kHz modulator at 48 kHz: the 1.9M-entry log is never built, and the samples fit
        (tmp_path / "s.scn").write_text("1.0 touch_start\nduration 60\n")
        (tmp_path / "fast.circ").write_text("c6 = 2n\n")
        assert main(["simulate", "--scenario", str(tmp_path / "s.scn"), "--circuit",
                     str(tmp_path / "fast.circ"), "--sample-rate", "48000",
                     "--wav", str(tmp_path / "x.wav")]) == 0
        assert capsys.readouterr() == ("alarm_windows=1 sounding=59s\n", "")
        assert (tmp_path / "x.wav").stat().st_size == 44 + 2 * 60 * 48000

    @pytest.mark.parametrize("flag", ["--wav", "--csv"])
    @pytest.mark.parametrize("circuit, message", [
        ("vcc = 1e200\n", "amp_p_out: p_out: must be a finite number, got inf\n"),  # the report refuses it first
        ("speaker_impedance = 1e308\n", "siren amplitude sqrt("),
    ], ids=["power", "impedance"])
    def test_overflowing_amplitude_writes_nothing(self, touch_scenario, tmp_path, circuit, message, flag):
        # A fresh interpreter, with warnings as errors as under pytest: the old garbage-WAV
        # bug then exits 4 too, but with a RuntimeWarning line instead of this message.
        (tmp_path / "big.circ").write_text(circuit)
        proc = subprocess.run(
            [sys.executable, "-m", "touchalarm", "simulate", "--circuit", str(tmp_path / "big.circ"),
             "--scenario", touch_scenario, flag, str(tmp_path / "out")],
            env=cli_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4
        assert proc.stderr.startswith(f"computation error: {message}")
        assert proc.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.circ", "touch.scn"]

    @pytest.mark.parametrize("circuit, command, message", [
        ("c6 = 1e308\n", "simulate", "low_t1: astable times are not finite: t1=inf s"),
        ("c6 = 1e308\n", "design", "low_t1: astable times are not finite: t1=inf s"),
        ("c6 = 1e308\n", "verify", "low_t1: astable times are not finite: t1=inf s"),
        ("c4 = 1e-320\n", "simulate", "high_t1: astable times are not finite: "),
        ("c4 = 1e-320\n", "design", "high_t1: astable times are not finite: "),
        ("r3 = 1e-320\n", "design", "trigger_frequency: 1/0.0 s is not finite"),
        ("r3 = 1e-320\n", "verify", "trigger_frequency: 1/0.0 s is not finite"),
        ("r3 = 1e300\nc2 = 1e10\n", "design", "trigger_timeout: 1.1*r*c: must be a finite number, got inf\n"),
        ("r3 = 1e300\nc2 = 1e10\n", "verify", "trigger_timeout: 1.1*r*c: must be a finite number, got inf\n"),
        ("r3 = 1e300\nc2 = 1e10\n", "simulate", "trigger_timeout: 1.1*r*c: must be a finite number, got inf\n"),
        ("amp_base_resistance = 1e-320\n", "design", "amp_i_b: i_b: must be a finite number, got inf\n"),
    ], ids=["c6-simulate", "c6-design", "c6-verify", "c4-simulate", "c4-design", "r3-design",
            "r3-verify", "timeout-design", "timeout-verify", "timeout-simulate", "amp-design"])
    def test_overflowing_timing_is_a_design_error(self, touch_scenario, tmp_path, circuit, command,
                                                  message):
        # A fresh interpreter, where a numpy RuntimeWarning is an error that stderr would name.
        (tmp_path / "odd.circ").write_text(circuit)
        argv = {"design": [str(tmp_path / "odd.circ")], "verify": ["--circuit", str(tmp_path / "odd.circ")],
                "simulate": ["--circuit", str(tmp_path / "odd.circ"), "--scenario", touch_scenario,
                             "--wav", str(tmp_path / "x.wav")]}[command]
        proc = subprocess.run([sys.executable, "-m", "touchalarm", command, *argv],
                              env=cli_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.startswith(f"computation error: {message}")
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
        assert not (tmp_path / "x.wav").exists()

    def test_byte_identical_files_across_runs(self, touch_scenario, tmp_path):
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        main(["simulate", "--scenario", touch_scenario, "--wav", str(first)])
        main(["simulate", "--scenario", touch_scenario, "--wav", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestSnap:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["snap", "--series", "E12", "451.43"], "451.43 -> 470\n"),
            (["snap", "--series", "E12", "--mode", "down", "451.43"], "451.43 -> 390\n"),
            (["snap", "--series", "E12", "470"], "470 -> 470\n"),
            (["snap", "--series", "E12", "980"], "980 -> 1000\n"),
            (["snap", "--series", "E6", "2.4056m"], "0.0024056 -> 0.0022\n"),
        ],
    )
    def test_snap_lines(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_bad_value(self, capsys):
        assert main(["snap", "wide"]) == 2
        assert main(["snap", "-470"]) == 2
        assert main(["snap", "0"]) == 2

    def test_bad_series_flag(self):
        assert main(["snap", "--series", "E13", "100"]) == 2

    def test_up_past_the_largest_float(self, capsys):
        assert main(["snap", "--mode", "up", "1.7e308"]) == 2
        assert capsys.readouterr().err == "usage error: 1.7e+308 is above the representable range\n"


class TestVerify:
    def test_default_exits_1_with_errata_table(self, capsys):
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "ERRATUM" in out
        assert "MATCH" in out
        assert "low_period" in out
        assert "claimed" in out

    def test_loose_tolerance_still_catches_gross_slips(self, capsys):
        assert main(["verify", "--tolerance", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "amp_gain" in out

    def test_everything_matches_above_the_worst_slip(self, capsys):
        assert main(["verify", "--tolerance", "0.95"]) == 0
        assert "ERRATUM" not in capsys.readouterr().out

    def test_bad_tolerance(self, capsys):
        for tolerance in ("-0.1", "0", "-0", "nan"):
            assert main(["verify", "--tolerance", tolerance]) == 2
            assert capsys.readouterr().err == \
                f"usage error: --tolerance: must be finite and > 0 as a percentage, got {float(tolerance)!r}\n"
        assert main(["verify", "--tolerance", "inf"]) == 2
        assert capsys.readouterr().err == \
            "usage error: --tolerance: must be finite and > 0 as a percentage, got inf\n"

    def test_tolerance_overflowing_as_a_percentage(self, capsys):
        assert main(["verify", "--tolerance", "1e307"]) == 2
        assert capsys.readouterr().err == \
            "usage error: --tolerance: must be finite and > 0 as a percentage, got 1e+307\n"
        assert main(["verify", "--tolerance", "1e300"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.endswith("  (tol 1e+302%)") for line in lines)

    def test_unreadable_circuit(self):
        assert main(["verify", "--circuit", "/nonexistent.circ"]) == 3

    def test_circuit_is_checked_before_the_tolerance(self, tmp_path, capsys):
        (tmp_path / "bad.circ").write_text("r3 = 1e-320\n")
        assert main(["verify", "--circuit", str(tmp_path / "bad.circ"), "--tolerance", "0"]) == 4
        assert capsys.readouterr().err == "computation error: trigger_frequency: 1/0.0 s is not finite\n"

    def test_deterministic_stdout(self, capsys):
        main(["verify"])
        first = capsys.readouterr().out
        main(["verify"])
        assert capsys.readouterr().out == first


# Each line was recorded from the per-run generator loop; the first one is
# the README example.  Seed 2**32 takes two entropy words and -1 masks to
# 2**64 - 1.  The last study's min lies just above the measured 10.60 s.
PINNED_TOLERANCE = [
    (["--tol", "0.10", "--runs", "10000", "--seed", "42"],
     "runs=10000 min=9.23057s mean=11.3896s max=13.7267s stddev=933.716ms "
     "contains_measured=true\n"),
    (["--circuit", "GENERATED", "--tol", "0.05", "--runs", "3000", "--seed", "7"],
     "runs=3000 min=7.23696s mean=7.99244s max=8.78188s stddev=331.829ms "
     "contains_measured=false\n"),
    (["--tol", "0.2", "--runs", "2000", "--seed", str(2**32)],
     "runs=2000 min=7.35158s mean=11.384s max=16.1999s stddev=1.88267s "
     "contains_measured=true\n"),
    (["--tol", "0.2", "--runs", "2000", "--seed", "-1"],
     "runs=2000 min=7.32686s mean=11.4308s max=16.2691s stddev=1.86186s "
     "contains_measured=true\n"),
    (["--tol", "0.035", "--runs", "200", "--seed", "2"],
     "runs=200 min=10.685s mean=11.3751s max=12.0996s stddev=344.305ms "
     "contains_measured=false\n"),
]


class TestTolerance:
    @pytest.mark.parametrize("argv, expected", PINNED_TOLERANCE)
    def test_pinned_output(self, argv, expected, tmp_path, capsys):
        circuit = tmp_path / "generated.circ"
        circuit.write_text("r3 = 330k\nc2 = 22u\n")
        argv = [str(circuit) if arg == "GENERATED" else arg for arg in argv]
        assert main(["tolerance", *argv]) == 0
        assert capsys.readouterr().out == expected

    def test_contains_measured(self, capsys):
        assert main(["tolerance", "--tol", "0.10", "--runs", "10000", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "contains_measured=true" in out
        assert out.startswith("runs=10000 min=")

    def test_run_budget(self, capsys):
        began = time.perf_counter()
        assert main(["tolerance", "--runs", str(simulator.MAX_RUNS + 1)]) == 2
        assert time.perf_counter() - began < 1.0
        assert capsys.readouterr().err == (
            "usage error: 4194305 Monte Carlo runs requested, over the limit of 4194304\n"
        )

    @pytest.mark.parametrize("circuit, stat", [("r3 = 1e308\n", "stddev=inf"),
                                               ("r3 = 1e160\nc2 = 1e150\n", "max=inf")])
    def test_overflowing_circuit_is_one_line(self, tmp_path, capsys, circuit, stat):
        path = tmp_path / "extreme.circ"
        path.write_text(circuit)
        assert main(["tolerance", "--circuit", str(path), "--runs", "100"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("computation error: trigger timeout samples overflow:") and stat in err
        assert err.count("\n") == 1 and "RuntimeWarning" not in err

    def test_tight_band_excludes_measured(self, capsys):
        assert main(["tolerance", "--tol", "0.001", "--runs", "100", "--seed", "42"]) == 0
        assert "contains_measured=false" in capsys.readouterr().out

    def test_zero_runs_is_usage_error(self, capsys):
        assert main(["tolerance", "--runs", "0"]) == 2
        assert capsys.readouterr().err == "usage error: runs must be >= 1, got 0\n"

    def test_bad_tol(self, capsys):
        for tol in ["0", "1", "1.5", "nan"]:
            assert main(["tolerance", "--tol", tol]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: rel_tolerance must be in (0, 1), got ")
            assert err.count("\n") == 1

    def test_deterministic(self, capsys):
        main(["tolerance", "--runs", "500", "--seed", "7"])
        first = capsys.readouterr().out
        main(["tolerance", "--runs", "500", "--seed", "7"])
        assert capsys.readouterr().out == first


class TestNonUtf8Input:
    @pytest.mark.parametrize("argv", [
        ["design", "BAD"],
        ["verify", "--circuit", "BAD"],
        ["tolerance", "--circuit", "BAD", "--runs", "10"],
        ["simulate", "--circuit", "BAD", "--scenario", "GOOD", "--wav", "OUT"],
        ["simulate", "--scenario", "BAD", "--wav", "OUT"],
    ], ids=["design", "verify", "tolerance", "simulate-circuit", "simulate-scenario"])
    def test_is_an_input_error(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe1 touch_start\n")
        (tmp_path / "good.scn").write_text(TOUCH_SCENARIO)
        files = {"BAD": str(bad), "GOOD": str(tmp_path / "good.scn"), "OUT": str(tmp_path / "x.wav")}
        assert main([files.get(arg, arg) for arg in argv]) == 3
        assert capsys.readouterr().err == \
            f"input error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"
        assert not (tmp_path / "x.wav").exists()


class TestInputBudgets:
    """Input files are refused past ``cli.MAX_INPUT_BYTES`` without being read whole."""

    # A limit on address space also bounds the peak RSS, and reading the input whole fails under
    # it.  64 MiB fits the numpy-free commands; importing numpy alone takes more.
    @pytest.mark.parametrize("argv, address_kib, seconds", [
        (["design", "HUGE"], 65536, 0.5),
        (["verify", "--circuit", "/dev/zero"], 65536, 0.5),
        (["simulate", "--wav", "OUT", "--scenario", "/dev/zero"], 600000, 1.0),
    ], ids=["sparse-3GB", "dev-zero", "dev-zero-scenario"])
    def test_huge_input_exits_3_quickly_in_bounded_memory(self, argv, address_kib, seconds, tmp_path):
        huge = tmp_path / "huge.circ"
        with open(huge, "wb") as file:
            file.truncate(3 << 30)  # sparse: no disk space taken
        files = {"HUGE": str(huge), "OUT": str(tmp_path / "x.wav")}
        argv = [files.get(arg, arg) for arg in argv]
        limited = ["sh", "-c", f'ulimit -v {address_kib} && exec "$0" "$@"', sys.executable, "-m", "touchalarm"]
        began = time.perf_counter()
        proc = subprocess.run([*limited, *argv], env=cli_env(), capture_output=True, text=True,
                              timeout=60)
        assert time.perf_counter() - began < seconds
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"input error: {argv[-1]}: more than {cli.MAX_INPUT_BYTES} bytes, over the limit\n"

    @pytest.mark.parametrize("flag", ["--scenario", "--circuit"])
    def test_limit_is_exact(self, flag, touch_scenario, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 64)
        path = tmp_path / "input.txt"
        argv = ["simulate", "--scenario", touch_scenario, flag, str(path), "--wav", str(tmp_path / "x.wav")]
        text = TOUCH_SCENARIO if flag == "--scenario" else "vcc = 9\n"
        path.write_bytes(text.encode().ljust(64, b"#"))
        assert main(argv) == 0
        capsys.readouterr()
        path.write_bytes(path.read_bytes() + b"#")
        assert main(argv) == 3
        assert capsys.readouterr().err == f"input error: {path}: more than 64 bytes, over the limit\n"

    def test_scenario_from_a_pipe(self, tmp_path, capsys):
        # what the shell passes for `--scenario <(printf ...)`
        read, write = os.pipe()
        os.write(write, TOUCH_SCENARIO.encode())
        os.close(write)
        try:
            assert main(["simulate", "--scenario", f"/dev/fd/{read}", "--wav", str(tmp_path / "x.wav")]) == 0
        finally:
            os.close(read)
        assert capsys.readouterr().out == "alarm_windows=1 sounding=11.374s\n"


LONG = "x" * 200_000


class TestQuotedInputIsCut:
    """An error message quotes at most ``units.QUOTE_LIMIT`` characters of an input text."""

    @pytest.mark.parametrize("flag, text", [
        ("--circuit", LONG),
        ("--circuit", f"{LONG[:100_000]} = 1"),
        ("--circuit", f"r3 = 1{LONG}"),
        ("--circuit", f"r3 = {LONG}"),
        ("--circuit", f"r3 = 1k{LONG}Ω"),
        ("--scenario", LONG),
        ("--scenario", f"{LONG} touch_start"),
        ("--scenario", f"1 {LONG}"),
        ("--scenario", f"duration {LONG}"),
    ], ids=["circuit-line", "key", "prefix", "number", "suffix", "scenario-line", "time", "kind",
            "duration"])
    def test_stderr_stays_short(self, flag, text, touch_scenario, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text(text + "\n", encoding="utf-8")
        argv = ["simulate", "--scenario", touch_scenario, flag, str(path), "--wav", str(tmp_path / "x.wav")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: line 1: ")
        assert err.count("\n") == 1
        assert " characters)" in err
        assert len(err) < 400

    def test_snap_value_is_cut_too(self, capsys):
        assert main(["snap", f"1{LONG}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 400

    @pytest.mark.parametrize("argv", [
        ["design", "--format", "VALUE"],
        ["design", "--format=VALUE"],
        ["snap", "--series", "VALUE", "1"],
        ["snap", "--mode", "VALUE", "1"],
        ["simulate", "--scenario", "s.scn", "--wav", "t.wav", "--sample-rate", "VALUE"],
        ["tolerance", "--runs", "VALUE"],
        ["verify", "--tolerance", "VALUE"],
        ["VALUE"],
    ], ids=["format", "format=", "series", "mode", "sample-rate", "runs", "tolerance", "command"])
    def test_usage_error_quotes_a_cut_value(self, argv, monkeypatch, capsys):
        def stderr(value):
            assert main([arg.replace("VALUE", value) for arg in argv]) == 2
            return capsys.readouterr().err

        err = stderr(LONG[:5000])
        assert err.startswith("usage error: argument ") and err.count("\n") == 1
        assert quoted(LONG[:5000]) in err and len(err) < 400

        at_limit = "it's" + "x" * 76
        cut = stderr(at_limit)
        monkeypatch.setattr(cli, "_QUOTED", "(?!)")  # a pattern that matches nothing
        assert cut == stderr(at_limit)  # argparse's message, byte for byte
        assert repr(at_limit) in cut

    # argparse echoes these values bare, without quotes
    @pytest.mark.parametrize("argv, prefix", [
        (["snap", "1", "VALUE"], ""),
        (["snap", "1", "--series", "E6", "VALUE"], ""),
        (["simulate", "--scenario", "s.scn", "--wav", "t.wav", "--c=VALUE"], "--c="),
    ], ids=["unrecognized", "unrecognized-after-flags", "ambiguous"])
    def test_usage_error_cuts_a_bare_value(self, argv, prefix, monkeypatch, capsys):
        def stderr(value):
            assert main([arg.replace("VALUE", value) for arg in argv]) == 2
            return capsys.readouterr().err

        err = stderr(LONG[:5000])
        assert err.startswith(("usage error: unrecognized arguments: '", "usage error: ambiguous option: '"))
        assert quoted(prefix + LONG[:5000]) in err and err.count("\n") == 1 and len(err) < 400

        at_limit = "x" * (QUOTE_LIMIT - len(prefix))
        assert quoted(prefix + at_limit + "y") in stderr(at_limit + "y")
        bare = stderr(at_limit)
        assert f" {prefix}{at_limit}" in bare and "'" not in bare
        monkeypatch.setattr(cli, "_BARE", "(?!)")  # a pattern that matches nothing
        assert bare == stderr(at_limit)  # up to the limit: argparse's message, byte for byte


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["demolish"]) == 2

    def test_unknown_flag(self):
        assert main(["design", "--color"]) == 2


def _imported(args):
    """Exit code and top-level names of the modules a fresh ``python -X importtime args`` loads."""
    exit_code, modules = _imported_modules(args)
    return exit_code, {name.split(".")[0] for name in modules}


def _imported_modules(args):
    """Exit code and full dotted names of the modules a fresh ``python -X importtime args`` loads."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, modules


calculator_runs = pytest.mark.parametrize("args, code", [
    (["-m", "touchalarm", "design"], 0),
    (["-m", "touchalarm", "design", "--format", "kv"], 0),
    (["-m", "touchalarm", "verify"], 1),
    (["-m", "touchalarm", "snap", "4.7k"], 0),
    (["-c", "import touchalarm, touchalarm.cli"], 0),
], ids=["design", "design-kv", "verify", "snap", "import"])


class TestNumpyFree:
    @calculator_runs
    def test_calculator_never_loads_numpy(self, args, code):
        exit_code, names = _imported(args)
        assert exit_code == code
        assert "touchalarm" in names
        assert "numpy" not in names

    @pytest.mark.parametrize("args, code", [
        (["-m", "touchalarm", "snap", "4.7k"], 0),
        (["-m", "touchalarm", "snap", "wide"], 2),
        (["-c", "import touchalarm.cli"], 0),
    ], ids=["snap", "snap-malformed", "import-cli"])
    def test_snap_never_loads_design(self, args, code):
        exit_code, modules = _imported_modules(args)
        assert exit_code == code
        assert "touchalarm.cli" in modules
        assert "touchalarm.design" not in modules

    def test_simulate_and_tolerance_load_it_when_they_run(self, touch_scenario, tmp_path):
        wav = str(tmp_path / "x.wav")
        for args in (["simulate", "--scenario", touch_scenario, "--wav", wav],
                     ["tolerance", "--runs", "100"]):
            exit_code, names = _imported(["-m", "touchalarm", *args])
            assert exit_code == 0
            assert "numpy" in names


@pytest.mark.parametrize("module", ["touchalarm.simulator", "touchalarm.export"])
def test_package_compiles_before_numpy(module):
    # A module's "import" audit event comes before it is compiled, so this order is the compile order.
    # (sys.modules is not: a module moves to its end once it has run.)
    probe = ("import sys\n"
             "sys.addaudithook(lambda event, args: event == 'import' and print(args[0]))\n"
             f"import {module}\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=cli_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    order = proc.stdout.split()
    assert max(order.index("touchalarm.design"), order.index("touchalarm.simulator")) < order.index("numpy")


class TestNoMaskedArrays:
    """Writing CSV or WAV and running a study never import ``numpy.ma`` (about 15 ms)."""

    @pytest.mark.parametrize("args", [
        ["simulate", "--scenario", "SCN", "--csv", "CSV", "--wav", "WAV"],
        ["simulate", "--scenario", "SCN", "--wav", "WAV"],
        ["tolerance", "--runs", "100"],
    ], ids=["simulate-csv-wav", "simulate-wav", "tolerance"])
    def test_never_loads_numpy_ma(self, args, touch_scenario, tmp_path):
        files = {"SCN": touch_scenario, "CSV": str(tmp_path / "x.csv"), "WAV": str(tmp_path / "x.wav")}
        exit_code, modules = _imported_modules(["-m", "touchalarm", *(files.get(a, a) for a in args)])
        assert exit_code == 0
        assert "numpy" in modules
        assert not [name for name in modules if name.split(".")[:2] == ["numpy", "ma"]]


class TestNoGeneratedCode:
    """The records are named tuples: no ``dataclasses``, which pulls in ``inspect``."""

    @calculator_runs
    def test_calculator_never_loads_dataclasses(self, args, code):
        exit_code, names = _imported(args)
        assert exit_code == code
        assert "touchalarm" in names
        assert not names & {"dataclasses", "inspect"}


def _assert_no_file_was_renamed(wav, job):
    """After ``job`` failed on its stdout: ``wav`` was not written, and a second failing run keeps an old one."""
    partial = wav.with_name(wav.name + ".partial")
    assert not wav.exists() and not partial.exists()
    wav.write_bytes(b"old")
    assert job().returncode == 3
    assert wav.read_bytes() == b"old" and not partial.exists()


class TestConsoleEntry:
    """``python -m touchalarm``: the exit path that runs the ``atexit`` handlers and skips the teardown."""

    @pytest.mark.parametrize("args, code", [
        (["design"], 0),
        (["verify"], 1),
        (["design", "--color"], 2),
        (["design", "MISSING"], 3),
        (["design", "BIG"], 4),
    ], ids=["design", "verify", "bad-flag", "missing-circuit", "overflow"])
    def test_exit_codes(self, args, code, tmp_path):
        (tmp_path / "big.circ").write_text("vcc = 1e200\n")
        files = {"MISSING": str(tmp_path / "missing.circ"), "BIG": str(tmp_path / "big.circ")}
        proc = subprocess.run([sys.executable, "-m", "touchalarm", *(files.get(a, a) for a in args)],
                              env=cli_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert proc.stderr.count("\n") == (0 if code in (0, 1) else 1)

    def test_verify_prints_the_golden_table(self):
        proc = subprocess.run([sys.executable, "-m", "touchalarm", "verify"],
                              env=cli_env(PYTHONUTF8="1"), capture_output=True, timeout=60)
        golden = Path(__file__).parent / "golden" / "verify_default.txt"
        assert proc.stdout == golden.read_bytes()

    @pytest.mark.parametrize("args, code", [
        (["design"], 0),
        (["simulate", "--scenario", "SCN", "--wav", "WAV"], 0),
        (["verify"], 1),
        (["snap", "wide"], 2),
    ], ids=["design", "simulate-wav", "verify", "snap-wide"])
    def test_exits_without_interpreter_teardown(self, args, code, touch_scenario, tmp_path):
        probe = ("import atexit, gc, os, sys\n"
                 "sys.addaudithook(lambda event, _, write=os.write:\n"
                 "                 event == 'cpython.PyInterpreterState_Clear' and write(2, b'teardown\\n'))\n"
                 "atexit.register(lambda: print('enabled', gc.isenabled(), file=sys.stderr))\n"
                 "from touchalarm.cli import run\n"
                 "run()\n")
        files = {"SCN": touch_scenario, "WAV": str(tmp_path / "x.wav")}
        proc = subprocess.run([sys.executable, "-c", probe, *(files.get(a, a) for a in args)],
                              env=cli_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert proc.stderr.endswith("enabled False\n")  # after snap's usage error line
        assert "teardown" not in proc.stderr

    @pytest.mark.parametrize("sink, reason", [("full", "[Errno 28] No space left on device"),
                                              ("pipe", "[Errno 32] Broken pipe")])
    @pytest.mark.parametrize("args", [
        ["snap", "4.7k"],
        ["design"],
        ["verify"],
        ["tolerance", "--runs", "100"],
        ["simulate", "--scenario", "SCN", "--wav", "WAV"],
    ], ids=["snap", "design", "verify", "tolerance", "simulate-wav"])
    def test_unwritable_stdout_is_an_output_error(self, sink, reason, args, touch_scenario, tmp_path):
        if sink == "full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        files = {"SCN": touch_scenario, "WAV": str(tmp_path / "x.wav")}

        def job():
            if sink == "full":
                stdout = os.open("/dev/full", os.O_WRONLY)
            else:
                read, stdout = os.pipe()
                os.close(read)  # the reader is gone before the job starts
            try:
                return subprocess.run([sys.executable, "-m", "touchalarm", *(files.get(a, a) for a in args)],
                                      env=cli_env(), stdout=stdout, stderr=subprocess.PIPE,
                                      text=True, timeout=60)
            finally:
                os.close(stdout)

        proc = job()
        assert proc.returncode == 3
        assert proc.stderr == f"output error: {reason}\n"
        if "WAV" in args:
            _assert_no_file_was_renamed(tmp_path / "x.wav", job)

    @pytest.mark.parametrize("args", [
        ["snap", "4.7k"],
        ["design"],
        ["verify"],
        ["tolerance", "--runs", "100"],
        ["simulate", "--scenario", "SCN", "--wav", "WAV"],
        ["--help"],
    ], ids=["snap", "design", "verify", "tolerance", "simulate-wav", "help"])
    def test_closed_stdout_is_an_output_error(self, args, touch_scenario, tmp_path):
        # Python starts with sys.stdout None when fd 1 is closed (`touchalarm design >&-`).
        files = {"SCN": touch_scenario, "WAV": str(tmp_path / "x.wav")}

        def job():
            return subprocess.run([sys.executable, "-m", "touchalarm", *(files.get(a, a) for a in args)],
                                  env=cli_env(), preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                                  text=True, timeout=60)

        proc = job()
        assert proc.returncode == 3
        assert proc.stderr == f"output error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '<stdout>'\n"
        if "WAV" in args:
            _assert_no_file_was_renamed(tmp_path / "x.wav", job)

    def test_closed_stdout_is_fine_for_a_job_that_prints_nothing(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "touchalarm", "design", "--out", str(tmp_path / "r.txt")],
                              env=cli_env(), preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "r.txt").read_bytes().startswith(b"quantity")

    @pytest.mark.parametrize("args, stream, code, stderr", [
        (["--help"], "stdout", 3, "output error: [Errno 28] No space left on device\n"),
        (["simulate", "--help"], "stdout", 3, "output error: [Errno 28] No space left on device\n"),
        (["design", "--bogus"], "stderr", 2, None),  # the usage error line is lost, its code is not
        (["snap", "4.7k", "--series", "E7"], "stderr", 2, None),
        (["design"], "stderr", 0, None),
    ], ids=["help", "simulate-help", "bogus-flag", "bad-choice", "design"])
    def test_unwritable_stdio_outside_a_command(self, args, stream, code, stderr):
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        full = os.open("/dev/full", os.O_WRONLY)
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: full}
        try:
            proc = subprocess.run([sys.executable, "-m", "touchalarm", *args], env=cli_env(), text=True,
                                  timeout=60, **pipes)
        finally:
            os.close(full)
        assert proc.returncode == code
        if stderr is not None:
            assert proc.stderr == stderr
        if stream == "stderr" and code:
            assert proc.stdout == ""

    def test_profiler_still_prints_its_stats(self):
        proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "touchalarm", "snap", "4.7k"],
                              env=cli_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("4700 -> 4700\n")
        assert " function calls " in proc.stdout

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc and two usable CPUs, where numpy's BLAS would start a worker")
    @pytest.mark.parametrize("blas_threads, tasks", [(None, 1), ("2", 2)], ids=["default", "user-set"])
    def test_no_idle_blas_worker(self, blas_threads, tasks):
        probe = ("import atexit, os, sys\n"
                 "atexit.register(lambda: print('tasks', len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
                 "from touchalarm.cli import run\n"
                 "run()\n")
        env = cli_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:  # the user's value wins
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        proc = subprocess.run([sys.executable, "-c", probe, "tolerance", "--runs", "100"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == f"tasks {tasks}\n"


class TestCollector:
    """``run`` turns the collector off: the cycles a job leaves must not grow with its size."""

    def test_each_job_leaves_the_same_garbage(self, tmp_path, capsys):
        for seconds in (5, 60):
            (tmp_path / f"{seconds}.scn").write_text(f"1.0 touch_start\n1.2 touch_end\nduration {seconds}\n")
        jobs = [["simulate", "--scenario", str(tmp_path / f"{seconds}.scn"),
                 "--csv", str(tmp_path / "x.csv"), "--wav", str(tmp_path / "x.wav")] for seconds in (5, 60)]
        jobs += [["tolerance", "--runs", str(runs)] for runs in (15000, 2**20)]
        assert gc.isenabled()
        for argv in jobs:  # first calls: the imports and one-time caches, with the collector on
            assert main(argv) == 0
            assert gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            counts = []
            for argv in jobs:
                for _ in range(2):
                    assert main(argv) == 0
                    assert not gc.isenabled()
                    counts.append(gc.collect())
        finally:
            gc.enable()
        assert len(set(counts)) == 1, counts
