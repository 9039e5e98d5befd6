"""Streamed `simulate` output: chunk edges change no byte, memory stays bounded,
and the output files appear all together or not at all."""

import collections
import functools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_env import cli_env
from touchalarm import cli, design, export, simulator
from touchalarm.cli import main
from touchalarm.export import write_csv, write_wav
from touchalarm.simulator import Scenario, ScenarioEvent, SimConfig, run
from touchalarm.units import quoted

# A 1.137 ms trigger timeout and a 3.1 ms modulator period, so windows,
# relay gaps and modulator edges all fit in a few hundred samples.
CIRCUIT = "c2 = 4.7n\nc6 = 100n\n"
SPEC = design.parse_circuit(CIRCUIT)
SWITCHOVER = 0.001

# 8192 Hz puts a half-nanosecond tie on every 16th CSV time cell.
RATES = [16000, 44100, 9973, 8001, 8192]

# The sampled arrays of a rendered piece, its grid included.
CHANNELS = ("times", "supply_on", "trigger_out", "modulator_high", "carrier_freq", "speaker")


def edge_scenario(rate, chunk, battery):
    """Touches and relay gaps around the first two chunk edges past sample 60.

    The first touch starts half a timeout before edge m1 and ends 40 samples
    after it; the second starts 60 samples before edge m2 and is held to the
    end.  Mains fails 4 samples before m2, so its relay gap straddles m2.
    With a battery mains comes back 60 samples later; without one the outage
    is never restored.
    """
    m1 = chunk * math.ceil(60 / chunk)
    m2 = m1 + chunk * math.ceil(120 / chunk)
    half_timeout = math.ceil(design.monostable_period(SPEC.r3, SPEC.c2, "approx") * rate / 2)
    events = [(m1 - half_timeout, "touch_start"), (m1 + 40, "touch_end"),
              (m2 - 60, "touch_start"), (m2 - 4, "mains_fail")]
    if battery:
        events.append((m2 + 60, "mains_restore"))
    return Scenario(tuple(ScenarioEvent(k / rate, kind) for k, kind in events),
                    (m2 + 150) / rate)


def scenario_text(scenario):
    return "".join(f"{e.time!r} {e.kind}\n" for e in scenario.events) \
        + f"duration {scenario.duration!r}\n"


def near_tie_rows(n, rate):
    scaled = np.arange(n) / rate * 1e9
    return np.flatnonzero(0.5 - np.abs(scaled - np.rint(scaled)) <= 4 * np.spacing(scaled))


class TestChunkEdges:
    @pytest.mark.parametrize("battery", [True, False])
    @pytest.mark.parametrize("retrigger", ["level_sensitive", "one_shot"])
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("chunk", [1, 7, 4097])
    def test_cli_files_match_whole_trace(self, tmp_path, monkeypatch, capsys, chunk, rate,
                                         retrigger, battery):
        scenario = edge_scenario(rate, chunk, battery)
        config = SimConfig(sample_rate=rate, retrigger=retrigger, battery_present=battery,
                           switchover_delay=SWITCHOVER)
        trace = run(SPEC, scenario, config)
        line = simulator.timeline(SPEC, scenario, config)
        assert line.sounding_seconds > 0 and not trace.supply_on.all()
        if rate == 8192 and chunk == 7:  # ties on both sides of some chunk edges
            ties = near_tie_rows(trace.n_samples, rate)
            assert {0, chunk - 1} <= set((ties % chunk).tolist())

        (tmp_path / "s.scn").write_text(scenario_text(scenario))
        (tmp_path / "c.circ").write_text(CIRCUIT)
        monkeypatch.setattr(simulator, "CHUNK", chunk)
        # the CLI has no flags for these two; patch the defaults it builds on
        monkeypatch.setattr(simulator, "SimConfig", functools.partial(
            SimConfig, battery_present=battery, switchover_delay=SWITCHOVER))
        argv = ["simulate", "--scenario", str(tmp_path / "s.scn"),
                "--circuit", str(tmp_path / "c.circ"), "--sample-rate", str(rate),
                "--csv", str(tmp_path / "t.csv"), "--wav", str(tmp_path / "t.wav")]
        if retrigger == "one_shot":
            argv.append("--one-shot")
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"alarm_windows={len(line.alarm_windows)} ")
        assert (tmp_path / "t.csv").read_bytes() == write_csv(trace)
        assert (tmp_path / "t.wav").read_bytes() == write_wav(trace)

    @pytest.mark.parametrize("retrigger", ["level_sensitive", "one_shot"])
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("chunk, block", [(7, 1), (4097, 7), (4097, 64)])
    def test_cli_csv_blocks_match_whole_trace(self, tmp_path, monkeypatch, capsys, chunk, block,
                                              rate, retrigger):
        config = SimConfig(sample_rate=rate, retrigger=retrigger, battery_present=False,
                           switchover_delay=SWITCHOVER)
        expected = write_csv(run(SPEC, edge_scenario(rate, chunk, False), config))
        monkeypatch.setattr(export, "_BLOCK", block)  # CSV rows per encoded buffer
        self.test_cli_files_match_whole_trace(tmp_path, monkeypatch, capsys, chunk, rate,
                                              retrigger, False)
        assert (tmp_path / "t.csv").read_bytes() == expected

    @given(
        rate=st.sampled_from(RATES),
        retrigger=st.sampled_from(["level_sensitive", "one_shot"]),
        battery=st.booleans(),
        chunk=st.sampled_from([1, 7, 64]),
        cuts=st.lists(st.floats(0, 1), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_render_pieces_concatenate_bit_exactly(self, rate, retrigger, battery, chunk, cuts):
        config = SimConfig(sample_rate=rate, retrigger=retrigger, battery_present=battery,
                           switchover_delay=SWITCHOVER)
        whole = simulator.timeline(SPEC, edge_scenario(rate, chunk, battery), config)
        n = whole.n_samples
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        pieces = [whole.render(i0, i1) for i0, i1 in zip(bounds, bounds[1:])]
        full_trace = whole.render(0, n)
        for name in CHANNELS:
            full = getattr(full_trace, name)
            joined = np.concatenate([getattr(piece, name) for piece in pieces])
            assert joined.dtype == full.dtype
            assert joined.view(np.uint8).tobytes() == full.view(np.uint8).tobytes(), name
            if full.dtype == np.float64:
                assert joined.view(np.uint64).tolist() == full.view(np.uint64).tolist()

    @pytest.mark.parametrize("rate", [8001, 16000])
    def test_pieces_are_traces_on_their_own_grid(self, rate):
        config = SimConfig(sample_rate=rate, switchover_delay=SWITCHOVER)
        whole = simulator.timeline(SPEC, edge_scenario(rate, simulator.CHUNK, True), config)
        n, edge = whole.n_samples, simulator.CHUNK
        assert 2 * edge < n < 3 * edge  # the last chunk is partial
        assert whole.render(edge - 50, edge + 50).speaker.any()
        for i0, i1 in [(0, 0), (edge, edge), (n, n), (edge - 50, edge + 50), (0, edge),
                       (edge, 2 * edge), (2 * edge, n), (n - 1, n)]:
            piece = whole.render(i0, i1)
            assert type(piece) is simulator.Trace and piece.start == i0, (i0, i1)
            assert piece.times.view(np.uint64).tolist() \
                == (np.arange(i0, i1) / rate).view(np.uint64).tolist(), (i0, i1)
            pcm = export.wav_pcm(piece.speaker, whole.amplitude).tobytes()
            assert write_wav(piece) == export.wav_header(rate, i1 - i0) + pcm, (i0, i1)
        assert [piece.start for piece in whole.chunks()] == [0, edge, 2 * edge]

    def test_empty_render(self):
        whole = simulator.timeline(SPEC, Scenario((), 0.0), SimConfig())
        assert whole.n_samples == 0 and list(whole.chunks()) == []
        assert all(len(getattr(whole.render(0, 0), name)) == 0 for name in CHANNELS)


def traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MB = 2**20


def job_usage(args, address_kib=None):
    """Peak RSS in bytes and minor page faults of ``python -m touchalarm args``, which must exit 0.

    It is started from a small Python: a child's peak RSS counts its parent's
    size at the fork.  ``address_kib`` limits its address space (``ulimit -v``).
    """
    job = [sys.executable, "-m", "touchalarm", *args]
    if address_kib is not None:
        job = ["sh", "-c", f'ulimit -v {address_kib} && exec "$0" "$@"', *job]
    probe = ("import os, subprocess, sys; "
             "job = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
             "_, status, usage = os.wait4(job.pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)")
    out = subprocess.run([sys.executable, "-c", probe, *job],
                         env=cli_env(), capture_output=True, text=True, timeout=60, check=True).stdout
    code, kib, minflt = map(int, out.split())
    assert code == 0
    return kib * 1024, minflt  # Linux counts ru_maxrss in KiB


def peak_rss(args, address_kib=None):
    return job_usage(args, address_kib)[0]


class TestBoundedMemory:
    def test_peak_does_not_grow_with_duration(self, tmp_path, capsys):
        peaks = {}
        for seconds in (12, 120):
            (tmp_path / "held.scn").write_text(f"1.0 touch_start\nduration {seconds}\n")
            peaks[seconds] = traced_peak([
                "simulate", "--scenario", str(tmp_path / "held.scn"),
                "--csv", str(tmp_path / "t.csv"), "--wav", str(tmp_path / "t.wav")])
            assert (tmp_path / "t.wav").stat().st_size == 44 + 2 * seconds * 16000
        (tmp_path / "t.csv").unlink()  # about 100 MB
        assert peaks[120] < 32 * 2**20
        assert peaks[120] <= 1.1 * peaks[12]

    def test_csv_of_a_piece_stays_below_its_size(self):
        line = simulator.timeline(design.CircuitSpec(),
                                  Scenario((ScenarioEvent(0.0, "touch_start"),), 10.0), SimConfig())
        tracemalloc.start()
        try:
            piece = line.render(simulator.CHUNK, 2 * simulator.CHUNK)
            rendered = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            collections.deque(export.csv_rows(piece), maxlen=0)  # drops each block, as writelines does
            peak = tracemalloc.get_traced_memory()[1] - rendered
        finally:
            tracemalloc.stop()
        assert piece.n_samples == simulator.CHUNK and piece.speaker.all()
        assert peak < 2 * 2**20  # the piece's CSV is 3.5 MiB

    def test_csv_adds_little_to_a_wav_job(self, tmp_path):
        (tmp_path / "touch.scn").write_text("0.5 touch_start\n3.0 touch_end\nduration 5\n")
        wav = ["simulate", "--scenario", str(tmp_path / "touch.scn"), "--wav", str(tmp_path / "t.wav")]
        assert peak_rss([*wav, "--csv", str(tmp_path / "t.csv")]) < peak_rss(wav) + 3e6

    def test_tolerance_runs_add_little(self):
        # holding the samples, std()'s copy of them and 2**16-run blocks would add about 3.9 MB
        assert peak_rss(["tolerance", "--runs", "16000"]) < peak_rss(["tolerance", "--runs", "1"]) + 1.5 * MB

    def test_long_render_reuses_heap_pages(self, tmp_path):
        # When glibc hands each chunk's freed temporaries back to the kernel, a 100 s job
        # takes about 3 500 more minor faults than a 1 s one: about 700 with the pages reused.
        faults = {}
        for seconds in (1, 100):
            (tmp_path / "held.scn").write_text(f"0 touch_start\nduration {seconds}\n")
            faults[seconds] = job_usage(["simulate", "--scenario", str(tmp_path / "held.scn"),
                                         "--wav", str(tmp_path / "t.wav")])[1]
        assert faults[100] - faults[1] < 1500

    def test_tolerance_at_the_run_limit(self):
        # Holding every sample and std()'s copy of them would take about 104 MB.  Handing
        # each redrawn leaf's heap pages back and faulting them in again would take about
        # 400 000 minor faults and 1.7 × the time: about 5 100 with the pages reused.
        peak, faults = job_usage(["tolerance", "--runs", str(simulator.MAX_RUNS)])
        assert peak < 45 * MB
        assert faults < 50_000

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n", "\u2028"], ids=["lf", "cr", "crlf", "ls"])
    def test_design_parses_a_4_mib_circuit_in_bounded_memory(self, tmp_path, end):
        # every line object at once would take about 121 MB: a MemoryError under the limit
        path = tmp_path / "comments.circ"
        line = f"#a{end}".encode()
        path.write_bytes(line * (cli.MAX_INPUT_BYTES // len(line)))
        assert peak_rss(["design", str(path)], address_kib=65536) < 40 * MB

    def test_simulate_parses_a_4_mib_scenario_in_bounded_memory(self, tmp_path):
        path = tmp_path / "comments.scn"
        text = "1.0 touch_start\n2.0 touch_end\n"
        path.write_text(text + "#a\n" * ((cli.MAX_INPUT_BYTES - len(text)) // 3))
        assert peak_rss(["simulate", "--scenario", str(path), "--wav", str(tmp_path / "t.wav")]) < 60 * MB


    def test_fast_modulator_job_stores_no_event_log(self, tmp_path):
        # A 600 s held touch with an 870 Hz modulator: a stored log of its million edges took about 205 MB.
        (tmp_path / "fast.circ").write_text("c6 = 36.85n\n")
        (tmp_path / "held.scn").write_text("0 touch_start\nduration 600\n")
        peak, _faults = job_usage(["simulate", "--circuit", str(tmp_path / "fast.circ"),
                                   "--scenario", str(tmp_path / "held.scn"), "--sample-rate", "8000",
                                   "--wav", str(tmp_path / "t.wav")])
        assert peak < 50 * MB

    def test_simulate_never_reads_the_event_log(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "t.scn").write_text("1.0 touch_start\n2.0 mains_fail\n2.5 mains_restore\nduration 4\n")

        def simulate(name):
            files = [str(tmp_path / f"{name}.csv"), str(tmp_path / f"{name}.wav")]
            assert main(["simulate", "--scenario", str(tmp_path / "t.scn"),
                         "--csv", files[0], "--wav", files[1]]) == 0
            return capsys.readouterr().out, [Path(f).read_bytes() for f in files]

        expected = simulate("plain")

        def no_log(self):
            raise AssertionError("the event log was read")

        monkeypatch.setattr(simulator.Timeline, "log", no_log)
        assert simulate("unlogged") == expected


class TestAllOrNothing:
    def test_directory_target_creates_neither_file(self, tmp_path, capsys):
        (tmp_path / "t.scn").write_text("1.0 touch_start\n1.2 touch_end\nduration 3\n")
        scenario = str(tmp_path / "t.scn")
        (tmp_path / "t.csv").mkdir()
        assert main(["simulate", "--scenario", scenario, "--csv", str(tmp_path / "t.csv"),
                     "--wav", str(tmp_path / "t.wav")]) == 3
        assert capsys.readouterr().err.startswith("output error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.scn"]

        (tmp_path / "t.csv").rmdir()
        (tmp_path / "t.wav").mkdir()
        assert main(["simulate", "--scenario", scenario, "--csv", str(tmp_path / "t.csv"),
                     "--wav", str(tmp_path / "t.wav")]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.scn", "t.wav"]

    def test_one_path_for_both_files_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "t.scn").write_text("1.0 touch_start\nduration 3\n")
        out = tmp_path / "both"
        assert main(["simulate", "--scenario", str(tmp_path / "t.scn"), "--csv", str(out),
                     "--wav", str(tmp_path / "." / "both")]) == 2
        assert capsys.readouterr().err == "usage error: --csv and --wav name the same file\n"
        assert not out.exists()

    @pytest.mark.parametrize("csv, wav", [("out.wav.partial", "out.wav"), ("out.csv", "out.csv.partial")])
    def test_a_target_that_is_another_targets_temp_file_is_a_usage_error(self, tmp_path, capsys, csv, wav):
        (tmp_path / "t.scn").write_text("1.0 touch_start\n1.2 touch_end\nduration 3\n")
        csv, wav = str(tmp_path / csv), str(tmp_path / wav)
        assert main(["simulate", "--scenario", str(tmp_path / "t.scn"), "--csv", csv, "--wav", wav]) == 2
        temp, target = (csv, wav) if csv.endswith(".partial") else (wav, csv)
        assert capsys.readouterr() == ("", f"usage error: {quoted(temp)} is an output and the temp file "
                                           f"of {quoted(target)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.scn"]

    def test_failure_mid_stream_keeps_old_targets(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "t.scn").write_text("1.0 touch_start\nduration 10\n")  # three chunks
        for name in ("t.csv", "t.wav"):
            (tmp_path / name).write_bytes(b"old")
        calls, wav_pcm = [], export.wav_pcm

        def failing_pcm(speaker, amplitude):
            calls.append(len(speaker))
            if len(calls) == 2:
                raise MemoryError("out of memory in chunk 2")
            return wav_pcm(speaker, amplitude)

        monkeypatch.setattr(export, "wav_pcm", failing_pcm)
        assert main(["simulate", "--scenario", str(tmp_path / "t.scn"),
                     "--csv", str(tmp_path / "t.csv"), "--wav", str(tmp_path / "t.wav")]) == 4
        assert capsys.readouterr().err == "computation error: MemoryError: out of memory in chunk 2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.scn", "t.wav"]
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t.wav").read_bytes() == b"old"
