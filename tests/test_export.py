"""CSV/WAV/report emitters: exact bytes, round-trips, self-consistent headers."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from touchalarm import export
from touchalarm.design import CircuitSpec, compute_report, parse_circuit, verify_reference_values
from touchalarm.export import (
    CSV_HEADER,
    ExportError,
    WAV_FULL_SCALE,
    check_wav_rate,
    csv_header,
    csv_rows,
    wav_pcm,
    write_csv,
    write_report,
    write_wav,
)
from touchalarm.simulator import Scenario, ScenarioEvent, SimConfig, Trace, run, timeline
from touchalarm.units import QUOTE_LIMIT

SPEC = CircuitSpec()


def make_trace(n, sample_rate=16000, speaker=None, amplitude=0.0, **channels):
    zeros_b = np.zeros(n, dtype=bool)
    zeros_f = np.zeros(n, dtype=np.float64)
    return Trace(
        sample_rate=sample_rate,
        supply_on=channels.get("supply_on", zeros_b.copy()),
        trigger_out=channels.get("trigger_out", zeros_b.copy()),
        modulator_high=channels.get("modulator_high", zeros_b.copy()),
        carrier_freq=channels.get("carrier_freq", zeros_f.copy()),
        speaker=zeros_f.copy() if speaker is None else np.asarray(speaker, dtype=np.float64),
        amplitude=amplitude,
    )


def alarm_trace(duration=2.0, sample_rate=16000):
    scenario = Scenario((ScenarioEvent(0.0, "touch_start"),), duration)
    return run(SPEC, scenario, SimConfig(sample_rate=sample_rate))


def reference_csv(trace):
    """The per-row CSV writer that the bulk writer replaced: one f-string per row.

    Kept as the byte-for-byte reference for ``write_csv``.
    """
    lines = [CSV_HEADER]
    times = trace.times
    supply = trace.supply_on
    trigger = trace.trigger_out
    modulator = trace.modulator_high
    carrier = trace.carrier_freq
    speaker = trace.speaker
    for i in range(trace.n_samples):
        lines.append(
            f"{times[i]:.9f},{int(supply[i])},{int(trigger[i])},{int(modulator[i])},"
            f"{float(carrier[i])!r},{float(speaker[i])!r}"
        )
    lines.append("")  # trailing LF
    return "\n".join(lines).encode("utf-8")


def table_trace(n, sample_rate=16000, carrier=None, speaker=None, seed=0):
    """Trace of n samples with random booleans and, by default, a few
    carrier/speaker values including -0.0 and NaN."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 477.1, 488.5, np.nan, -6.335, 6.335])
    if carrier is None:
        carrier = rng.choice(values, n)
    if speaker is None:
        speaker = rng.choice(values, n)
    flags = rng.integers(0, 2, (3, n)).astype(bool)
    return Trace(
        sample_rate=sample_rate,
        supply_on=flags[0],
        trigger_out=flags[1],
        modulator_high=flags[2],
        carrier_freq=np.asarray(carrier, dtype=np.float64),
        speaker=np.asarray(speaker, dtype=np.float64),
        amplitude=6.335,
    )


def parse_wav(blob):
    """Independent header parser used to cross-check the writer."""
    assert len(blob) >= 44
    (riff, riff_size, wave, fmt, fmt_size, audio_format, channels,
     rate, byte_rate, block_align, bits, data, data_size) = struct.unpack(
        "<4sI4s4sIHHIIHH4sI", blob[:44]
    )
    assert riff == b"RIFF"
    assert wave == b"WAVE"
    assert fmt == b"fmt "
    assert data == b"data"
    assert fmt_size == 16
    assert audio_format == 1
    assert riff_size == len(blob) - 8
    assert data_size == len(blob) - 44
    assert byte_rate == rate * block_align
    assert block_align == channels * bits // 8
    samples = np.frombuffer(blob[44:], dtype="<i2")
    return {"rate": rate, "channels": channels, "bits": bits, "samples": samples}


class TestCsv:
    def test_header_only_for_empty_trace(self):
        blob = write_csv(make_trace(0))
        assert blob == (CSV_HEADER + "\n").encode()
        assert len(blob) == len(CSV_HEADER) + 1

    def test_three_silent_samples(self):
        blob = write_csv(make_trace(3))
        assert blob == (
            b"t,supply_on,trigger_out,modulator_high,carrier_freq,speaker\n"
            b"0.000000000,0,0,0,0.0,0.0\n"
            b"0.000062500,0,0,0,0.0,0.0\n"
            b"0.000125000,0,0,0,0.0,0.0\n"
        )

    def test_roundtrip_reproduces_channels_exactly(self):
        trace = alarm_trace()
        rows = write_csv(trace).decode().splitlines()
        assert rows[0] == CSV_HEADER
        assert len(rows) == trace.n_samples + 1
        supply, trigger, modulator, carrier, speaker = [], [], [], [], []
        for row in rows[1:]:
            _t, s, g, m, c, v = row.split(",")
            supply.append(bool(int(s)))
            trigger.append(bool(int(g)))
            modulator.append(bool(int(m)))
            carrier.append(float(c))
            speaker.append(float(v))
        np.testing.assert_array_equal(trace.supply_on, supply)
        np.testing.assert_array_equal(trace.trigger_out, trigger)
        np.testing.assert_array_equal(trace.modulator_high, modulator)
        np.testing.assert_array_equal(trace.carrier_freq, carrier)
        np.testing.assert_array_equal(trace.speaker, speaker)

    def test_sounding_rows_carry_the_amplitude(self):
        trace = alarm_trace()
        values = {
            float(row.split(",")[5])
            for row in write_csv(trace).decode().splitlines()[1:]
            if row.split(",")[5] != "0.0"
        }
        assert values == {trace.amplitude, -trace.amplitude}
        assert max(values) == pytest.approx(6.335, abs=5e-4)

    def test_deterministic(self):
        trace = alarm_trace(duration=0.5)
        assert write_csv(trace) == write_csv(trace)


class TestCsvMatchesReference:
    """The bulk writer against the per-row reference, byte for byte."""

    # two touches around a mains outage, so both retrigger modes differ
    SCENARIO = Scenario(
        (ScenarioEvent(0.1, "touch_start"), ScenarioEvent(0.3, "touch_end"),
         ScenarioEvent(0.5, "mains_fail"), ScenarioEvent(0.9, "mains_restore"),
         ScenarioEvent(1.2, "touch_start"), ScenarioEvent(1.25, "touch_end")),
        1.5,
    )

    @pytest.mark.parametrize("retrigger", ["level_sensitive", "one_shot"])
    @pytest.mark.parametrize("sample_rate", [16000, 44100, 48000, 8001, 9973])
    def test_simulated_traces(self, sample_rate, retrigger):
        config = SimConfig(sample_rate=sample_rate, retrigger=retrigger, battery_present=False)
        trace = run(SPEC, self.SCENARIO, config)
        assert timeline(SPEC, self.SCENARIO, config).sounding_seconds > 0
        assert write_csv(trace) == reference_csv(trace)

    def test_special_times_and_values(self):
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -6.335]
        # whole seconds, binary fractions, 2.5 ns and 0.5 ns steps (near-ties), 1e-300
        for sample_rate in [1, 1024, 4 * 10**8, 2 * 10**9, 10**300]:
            trace = table_trace(16, sample_rate, carrier=special * 2, speaker=special[::-1] * 2)
            blob = write_csv(trace)
            assert blob == reference_csv(trace)
            assert b",-0.0," in blob and b",nan," in blob and b",1e+300," in blob
            assert b",-inf\n" in blob

    @pytest.mark.parametrize("sample_rate", [44100, 9973, 192000])
    def test_late_times_at_odd_rates(self, sample_rate):
        # the rows of a long run that start 5000 s in
        trace = table_trace(100_000, sample_rate, seed=sample_rate)._replace(start=5000 * sample_rate)
        assert write_csv(trace) == reference_csv(trace)

    def test_many_distinct_values(self):
        n = 5000
        trace = table_trace(n, sample_rate=7, carrier=np.arange(n)[::-1] * 1.3,
                            speaker=np.linspace(-6.5, 6.5, n))
        assert write_csv(trace) == reference_csv(trace)

    @pytest.mark.parametrize("sample_rate", [0, -1, 16000.0, 10**400])
    def test_rejects_rates_off_the_grid(self, sample_rate):
        with pytest.raises(ExportError, match="sample_rate must be a positive integer"):
            write_csv(make_trace(3, sample_rate=sample_rate))
        # So does csv_rows, the encoder that simulate streams through, and neither message
        # echoes more than QUOTE_LIMIT characters of the rate.
        longest = len("sample_rate must be a positive integer, got ... (401 characters)") + QUOTE_LIMIT
        for encode in (write_csv, lambda trace: next(csv_rows(trace))):
            with pytest.raises(ExportError, match="sample_rate must be a positive integer") as refused:
                encode(make_trace(3, sample_rate=sample_rate))
            assert len(str(refused.value)) <= longest

    @given(
        # 1024 Hz puts every odd row on an exact half-nanosecond tie
        st.one_of(st.sampled_from([1024, 8001, 9973, 44100]),
                  st.integers(1, int(sys.float_info.max))),
        st.lists(
            st.tuples(
                st.booleans(), st.booleans(), st.booleans(),
                st.one_of(st.floats(), st.sampled_from([0.0, 477.1, 488.5])),
                st.one_of(st.floats(), st.sampled_from([0.0, -6.335, 6.335])),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_small_traces(self, sample_rate, rows):
        columns = list(zip(*rows)) or [()] * 5
        supply, trigger, modulator, carrier, speaker = (np.array(c) for c in columns)
        trace = Trace(
            sample_rate=sample_rate,
            supply_on=supply.astype(bool),
            trigger_out=trigger.astype(bool),
            modulator_high=modulator.astype(bool),
            carrier_freq=carrier.astype(np.float64),
            speaker=speaker.astype(np.float64),
            amplitude=6.335,
        )
        assert write_csv(trace) == reference_csv(trace)


def near_ties(times):
    """Rows whose nanosecond count lies within four ulps of a half-nanosecond tie."""
    scaled = times * 1e9
    return 0.5 - np.abs(scaled - np.rint(scaled)) <= 4 * np.spacing(scaled)


def held_touch(duration, spec=SPEC, sample_rate=16000, **config):
    scenario = Scenario((ScenarioEvent(0.0, "touch_start"),), duration)
    return timeline(spec, scenario, SimConfig(sample_rate=sample_rate, **config))


class TestCsvRowsOfChunks:
    """``csv_rows`` and ``write_csv`` on rendered chunks, against the per-row reference."""

    def assert_matches_reference(self, chunk, sample_rate):
        assert chunk.sample_rate == sample_rate
        expected = reference_csv(chunk)
        assert csv_header() + b"".join(csv_rows(chunk)) == expected
        assert write_csv(chunk) == expected
        return expected

    # rows before the boundary: one, mid-block, a whole 8192-row block
    @pytest.mark.parametrize("before", [1, 4097, 8192])
    @pytest.mark.parametrize("boundary", [10, 100])
    @pytest.mark.parametrize("sample_rate", [16000, 44100, 8192])
    def test_time_cells_widen_inside_a_chunk(self, sample_rate, boundary, before):
        line = held_touch(boundary + 4, sample_rate=sample_rate)  # the chunk ends before 3 s past it
        i0 = boundary * sample_rate - before
        chunk = line.render(i0, i0 + 3 * 8192 + 5)
        rows = self.assert_matches_reference(chunk, sample_rate).splitlines()[1:]
        widths = {len(row.split(b".")[0]) for row in rows}
        assert widths == {len(str(boundary)) - 1, len(str(boundary))}
        assert chunk.speaker.any()

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("sample_rate", [16000, 44100, 8192])
    def test_time_cells_widen_at_a_block_edge(self, monkeypatch, sample_rate, block):
        monkeypatch.setattr(export, "_BLOCK", block)
        i0 = 10 * sample_rate - 3 * block  # row 3 * block is the first at 10 s
        chunk = held_touch(11, sample_rate=sample_rate).render(i0, i0 + 5 * block + 2)
        rows = self.assert_matches_reference(chunk, sample_rate).splitlines()[1:]
        assert [row.index(b".") for row in rows[3 * block - 1:3 * block + 1]] == [1, 2]

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("side", [0, 1])
    def test_near_ties_at_block_edges(self, monkeypatch, block, side):
        monkeypatch.setattr(export, "_BLOCK", block)
        # Row k is a tie when k % 16 == 8, so from i0 % 16 == 8 ties open blocks
        # and from i0 % 16 == 9 they close them (in each block for 64 rows).
        i0 = 70000 + 8 + side
        chunk = held_touch(30.0, sample_rate=8192, battery_present=False).render(i0, i0 + 2000)
        edge = block - 1 if side else 0
        assert edge in (np.flatnonzero(near_ties(chunk.times)) % block).tolist()
        self.assert_matches_reference(chunk, 8192)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_form_band_changes_at_a_block_edge(self, monkeypatch, block):
        monkeypatch.setattr(export, "_BLOCK", block)
        line = timeline(SPEC, Scenario((ScenarioEvent(0.5, "touch_start"),), 1.0), SimConfig())
        onset = 8000  # the first sounding row, at the touch
        chunk = line.render(onset - 2 * block, onset + 2 * block + 3)
        rows = self.assert_matches_reference(chunk, 16000).splitlines()[1:]
        form_len = [len(row) - row.index(b",") for row in rows]
        assert form_len[2 * block - 1] + 20 < form_len[2 * block]  # silent, then sounding

    def test_fast_modulator(self):
        spec = parse_circuit("c6 = 4.7n\n")
        chunk = held_touch(2.0, spec).render(1000, 1000 + 30000)
        runs = 1 + np.count_nonzero((np.diff(chunk.carrier_freq) != 0) | (np.diff(chunk.speaker) != 0))
        assert runs > len(chunk.times) / 3  # about two rows per run
        self.assert_matches_reference(chunk, 16000)

    def test_near_ties_mixed_with_exact_rows(self):
        chunk = held_touch(30.0, sample_rate=8192, battery_present=False).render(70000, 70000 + 20000)
        ties = near_ties(chunk.times)
        assert 0 < np.count_nonzero(ties) < len(ties)
        self.assert_matches_reference(chunk, 8192)

    def test_times_off_the_grid(self):
        # ulps around half-nanosecond ties, past 2**48 ns, negative, and not finite
        ties = np.array([(m + 0.5) / 1e9 for m in (0, 7, 12345, 10**9 + 3, 123456789012)])
        times = np.concatenate([
            (ties[:, None] + np.arange(-6, 7) * np.spacing(ties)[:, None]).ravel(),
            [2.0**48 / 1e9, 9.9e6, 1e7 + 0.25, 1e15, 1e300, -0.0, -1.5, -1e-12,
             np.nan, np.inf, -np.inf, 9.9999999995, 99.9999999996, 0.0]])

        class OffGrid(Trace):
            @property
            def times(self):
                return times[self.start:self.start + self.n_samples]

        trace = OffGrid(*table_trace(len(times)))
        assert write_csv(trace) == reference_csv(trace)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_times_off_the_grid_in_blocks(self, monkeypatch, block):
        monkeypatch.setattr(export, "_BLOCK", block)
        self.test_times_off_the_grid()

    @given(st.sampled_from([8001, 8192, 9973, 16000, 44100]),
           st.floats(0.0, 120.0), st.floats(0.001, 130.0), st.booleans(),
           st.floats(0.0, 1.0), st.integers(0, 3 * 8192))
    @settings(max_examples=40, deadline=None)
    def test_random_render_ranges(self, sample_rate, touch, duration, one_shot, where, length):
        events = (ScenarioEvent(touch, "touch_start"), ScenarioEvent(touch + 0.01, "touch_end"),
                  ScenarioEvent(touch + 0.5, "mains_fail"), ScenarioEvent(touch + 0.7, "mains_restore"))
        config = SimConfig(sample_rate=sample_rate, battery_present=False,
                           retrigger="one_shot" if one_shot else "level_sensitive")
        line = timeline(SPEC, Scenario(tuple(e for e in events if e.time < duration), duration),
                        config)
        i0 = int(where * line.n_samples)
        chunk = line.render(i0, min(i0 + length, line.n_samples))
        self.assert_matches_reference(chunk, sample_rate)


class TestWav:
    def test_empty_trace_is_header_only(self):
        blob = write_wav(make_trace(0))
        assert len(blob) == 44
        assert parse_wav(blob)["samples"].size == 0

    def test_one_second_at_16k_is_32044_bytes(self):
        blob = write_wav(alarm_trace(duration=1.0))
        assert len(blob) == 44 + 32000 == 32044
        parsed = parse_wav(blob)
        assert parsed["rate"] == 16000
        assert parsed["channels"] == 1
        assert parsed["bits"] == 16

    def test_full_amplitude_maps_to_29490(self):
        amplitude = 6.0
        speaker = np.array([amplitude, -amplitude, 0.0])
        blob = write_wav(make_trace(3, speaker=speaker, amplitude=amplitude))
        samples = parse_wav(blob)["samples"]
        assert WAV_FULL_SCALE == math.floor(0.9 * 32767) == 29490
        np.testing.assert_array_equal(samples, [29490, -29490, 0])

    def test_alarm_trace_samples_are_tristate(self):
        blob = write_wav(alarm_trace(duration=1.0))
        samples = parse_wav(blob)["samples"]
        assert set(np.unique(samples)) <= {-WAV_FULL_SCALE, 0, WAV_FULL_SCALE}
        assert WAV_FULL_SCALE in samples

    def test_rate_range(self):
        for rate in (4000, 7999, 192001, 16000.0, "16000", None):
            with pytest.raises(ExportError, match="sample_rate must be an integer in"):
                check_wav_rate(rate)
        with pytest.raises(ExportError):
            write_wav(make_trace(3, sample_rate=7999))
        for rate in (8000, 192000):
            check_wav_rate(rate)
            assert parse_wav(write_wav(make_trace(3, sample_rate=rate)))["rate"] == rate
        # A 401-digit rate prints as its first 80 characters and its length.
        cut = "1" + "0" * 79 + "... (401 characters)"
        for refuse in (check_wav_rate, lambda rate: export.wav_header(rate, 3),
                       lambda rate: write_wav(make_trace(3, sample_rate=rate))):
            with pytest.raises(ExportError) as refused:
                refuse(10**400)
            assert str(refused.value) == f"sample_rate must be an integer in (8000, 192000), got {cut}"

    def test_zero_crossing_count_of_steady_tone(self):
        # 1 s of a steady f Hz square has 2f ± 1 sign flips.
        f, rate, amplitude = 481.0, 16000, 6.0
        times = np.arange(rate) / rate
        speaker = amplitude * np.where(np.floor(2.0 * f * times) % 2 == 0, 1.0, -1.0)
        blob = write_wav(make_trace(rate, speaker=speaker, amplitude=amplitude))
        samples = parse_wav(blob)["samples"]
        flips = np.count_nonzero(np.diff(np.sign(samples)))
        assert abs(flips - 2 * f) <= 1

    def test_deterministic(self):
        trace = alarm_trace(duration=0.5)
        assert write_wav(trace) == write_wav(trace)

    @pytest.mark.parametrize("amplitude", [6.0, 1e-300, 3e300, 0.0, -1.0, math.nan])
    def test_pcm_matches_the_plain_expression(self, amplitude):
        speaker = np.array([6.0, -6.0, 0.0, -0.0, 2.9999, 3.0000001, 1e6, -1e6, 1e-310, -5e-324,
                            math.inf, -math.inf, 6.0 / 29490 * 0.5, -6.0 / 29490 * 1.5])
        before = speaker.copy()
        if amplitude > 0:
            with np.errstate(over="ignore", under="ignore"):
                expected = np.clip(np.rint(WAV_FULL_SCALE * speaker / amplitude),
                                   -32768, 32767).astype("<i2")
        else:
            expected = np.zeros(len(speaker), "<i2")
        with np.errstate(over="ignore", under="ignore"):
            got = wav_pcm(speaker, amplitude)
        assert got.dtype == np.dtype("<i2") and got.tobytes() == expected.tobytes()
        assert speaker.view(np.uint64).tolist() == before.view(np.uint64).tolist()


class TestReports:
    def test_design_kv_contains_stock_timeout(self):
        blob = write_report(compute_report(SPEC), "kv")
        lines = blob.decode().splitlines()
        assert "trigger_timeout=11.374s" in lines
        assert "r1_snapped=470Ω" in lines
        assert "r2_snapped=1kΩ" in lines
        assert "filter_c_snapped=2.2mF" in lines

    def test_design_kv_order_is_stable(self):
        report = compute_report(SPEC)
        names = [line.split("=")[0] for line in write_report(report, "kv").decode().splitlines()]
        assert names.index("r1_ideal") < names.index("r1_snapped") < names.index("led1_current")
        assert names[-2:] == ["f_lo_tone", "f_hi_tone"]

    def test_design_kv_roundtrips_through_units_grammar(self):
        from touchalarm.units import parse_quantity

        report = compute_report(SPEC)
        units = {record.name: record.unit for record in report}
        for line in write_report(report, "kv").decode().splitlines():
            name, _, value = line.partition("=")
            unit = units.get(name, units.get(name.replace("_snapped", "_ideal"), "ohm"))
            parsed = parse_quantity(value, unit)
            base = name.replace("_snapped", "_ideal") if name.endswith("_snapped") else name
            record = report.get(base)
            target = record.snapped if name.endswith("_snapped") else record.ideal
            assert parsed.magnitude == pytest.approx(target, rel=1e-12)

    def test_design_text_is_aligned_table(self):
        text = write_report(compute_report(SPEC), "text").decode()
        lines = text.splitlines()
        assert lines[0].startswith("quantity")
        assert any("trigger_timeout" in line and "11.374s" in line for line in lines)
        assert any("r5_ideal" in line and "4.7kΩ" in line for line in lines)

    def test_errata_text_flags_low_stage_period(self):
        errata = verify_reference_values(compute_report(SPEC))
        text = write_report(errata, "text").decode()
        assert "1.46601s vs claimed 2.037s" in text
        row = next(line for line in text.splitlines() if line.startswith("low_period"))
        assert "ERRATUM" in row
        match_row = next(line for line in text.splitlines() if line.startswith("trigger_timeout"))
        assert "MATCH" in match_row

    def test_errata_kv(self):
        errata = verify_reference_values(compute_report(SPEC))
        lines = write_report(errata, "kv").decode().splitlines()
        assert "high_duty=ERRATUM" in lines
        assert "trigger_timeout=MATCH" in lines
        assert len(lines) == len(errata)

    def test_empty_errata(self):
        from touchalarm.design import ErrataReport

        assert write_report(ErrataReport(()), "text") == b"no entries\n"
        assert write_report(ErrataReport(()), "kv") == b"no entries\n"

    def test_bad_format(self):
        with pytest.raises(ExportError):
            write_report(compute_report(SPEC), "json")
        with pytest.raises(ExportError, match="^cannot render object$"):
            write_report(object())

    def test_deterministic(self):
        report = compute_report(SPEC)
        for fmt in ("text", "kv"):
            assert write_report(report, fmt) == write_report(report, fmt)
