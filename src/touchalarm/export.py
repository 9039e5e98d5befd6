"""Bit-exact emitters for traces and reports: CSV, 16-bit PCM WAV, text/kv.

Everything here is a pure function from immutable inputs to bytes, so
repeated exports are byte-identical and safe to golden-test.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .design import DesignReport, ErrataReport
from .simulator import Trace
from .units import Quantity, format_quantity

CSV_HEADER = "t,supply_on,trigger_out,modulator_high,carrier_freq,speaker"

# 16-bit full scale with 10% headroom: floor(0.9 * 32767).
WAV_FULL_SCALE = 29490

_WAV_RATE_RANGE = (8000, 192000)


class ExportError(ValueError):
    """Export parameters do not fit the data being written."""


@dataclass(frozen=True)
class WavParams:
    sample_rate: int
    channels: int = 1
    bits_per_sample: int = 16

    def __post_init__(self) -> None:
        if not isinstance(self.sample_rate, int) or not (
            _WAV_RATE_RANGE[0] <= self.sample_rate <= _WAV_RATE_RANGE[1]
        ):
            raise ExportError(
                f"sample_rate must be an integer in {_WAV_RATE_RANGE}, got {self.sample_rate!r}"
            )
        if self.channels != 1:
            raise ExportError("only mono output is supported")
        if self.bits_per_sample != 16:
            raise ExportError("only 16-bit PCM output is supported")


def write_csv(trace: Trace) -> bytes:
    """Waveform table: time to 9 decimals, booleans as 0/1, floats as repr.

    Each row reads ``f"{t:.9f},{s},{g},{m},{carrier!r},{speaker!r}"``, but
    the file is laid out in one uint8 buffer instead of one string per row:

    - row offsets come from a cumulative sum of the row lengths;
    - the time cell is written from the integer nanosecond ``rint(t * 1e9)``:
      the fraction's last eight digits as one word from a four-digit table,
      the rest by ``% 10`` passes.  Rows where that could round differently
      from ``.9f`` (within a few ulps of a half-nanosecond tie, negative,
      -0.0, non-finite or huge times) are formatted with ``.9f`` one by one;
    - the rest of a row, its form, depends only on the three booleans and
      the bit patterns of carrier and speaker.  Each distinct form is
      formatted once and copied into its rows eight bytes at a time.
    """
    return _csv_buffer(trace).tobytes()


def _words(buf: np.ndarray) -> np.ndarray:
    """Little-endian uint64 view of the last axis of ``buf``: item k is bytes k..k+7."""
    return np.ndarray(buf.shape[:-1] + (buf.shape[-1] - 7,), "<u8", buf,
                      strides=buf.strides[:-1] + (1,))


def _csv_buffer(trace: Trace) -> np.ndarray:
    header = np.frombuffer((CSV_HEADER + "\n").encode(), np.uint8)
    times = np.asarray(trace.times, dtype=np.float64)
    n = len(times)

    # --- time cells: integer nanoseconds, exact unless near a tie -----------
    with np.errstate(all="ignore"):
        scaled = times * 1e9
        nanos = np.rint(scaled)
        exact = (
            (0.5 - np.abs(scaled - nanos) > 4 * np.spacing(scaled))
            & np.isfinite(times) & ~np.signbit(times) & (scaled < 2.0**62)
        )
    seconds, fraction = np.divmod(np.where(exact, nanos, 0).astype(np.int64), 10**9)
    del scaled, nanos
    # digits before the point: one more than the powers of ten <= seconds
    width = 1 + np.searchsorted(10 ** np.arange(1, 19, dtype=np.int64), seconds, "right")
    slow = np.flatnonzero(~exact)
    slow_cells = [f"{t:.9f}".encode() for t in times[slow].tolist()]
    time_len = width + 10
    time_len[slow] = [len(cell) for cell in slow_cells]

    # --- forms: the distinct rests of a row, found among run starts ---------
    carrier = np.ascontiguousarray(trace.carrier_freq, np.float64).view(np.uint64)
    speaker = np.ascontiguousarray(trace.speaker, np.float64).view(np.uint64)
    flags = (np.asarray(trace.supply_on, bool).view(np.uint8) << 2) \
        | (np.asarray(trace.trigger_out, bool).view(np.uint8) << 1) \
        | np.asarray(trace.modulator_high, bool).view(np.uint8)
    run_start = np.ones(n, bool)
    run_start[1:] = (carrier[1:] != carrier[:-1]) | (speaker[1:] != speaker[:-1]) \
        | (flags[1:] != flags[:-1])
    run_start = np.flatnonzero(run_start)
    carrier_bits, carrier_id = np.unique(carrier[run_start], return_inverse=True)
    speaker_bits, speaker_id = np.unique(speaker[run_start], return_inverse=True)
    keys, run_form = np.unique(
        (carrier_id * len(speaker_bits) + speaker_id) * 8 + flags[run_start],
        return_inverse=True)
    row_form = np.repeat(run_form, np.diff(run_start, append=n))
    del carrier, speaker, flags, run_start, carrier_id, speaker_id, run_form
    carriers = carrier_bits.view(np.float64).tolist()
    speakers = speaker_bits.view(np.float64).tolist()
    forms = []
    for key in keys.tolist():
        pair, flag = divmod(key, 8)
        c, v = divmod(pair, len(speakers))
        forms.append(
            f",{flag >> 2},{flag >> 1 & 1},{flag & 1},{carriers[c]!r},{speakers[v]!r}\n".encode())
    form_len = np.array([len(form) for form in forms], dtype=np.int64)
    form_table = np.zeros((len(forms), int(form_len.max(initial=8))), np.uint8)
    for i, form in enumerate(forms):
        form_table[i, :len(form)] = np.frombuffer(form, np.uint8)
    row_form_len = form_len[row_form]

    # --- layout ---------------------------------------------------------------
    row_len = time_len + row_form_len
    start = np.cumsum(row_len) - row_len + len(header)
    buf = np.empty(len(header) + int(row_len.sum()), np.uint8)
    buf[:len(header)] = header
    words = _words(buf)
    del row_len

    # Every row gets digits; a slow row's "0.000000000" fits in the shortest
    # row (3 + 15 bytes) and is overwritten by its own cell and form below.
    point = start + width
    buf[point] = ord(".")
    # item i of four_digits is the ASCII of f"{i:04d}" read little-endian
    i = np.arange(10**4, dtype=np.uint64)
    four_digits = sum((i // 10**k % 10 + ord("0")) << np.uint64(8 * (3 - k)) for k in range(4))
    high, low = np.divmod(fraction, 10**4)
    words[point + 2] = four_digits[high % 10**4] | four_digits[low] << np.uint64(32)
    buf[point + 1] = high // 10**4 + ord("0")
    del fraction, high, low
    for j in range(int(width.max(initial=0))):  # integer digits, right to left
        seconds, digit = np.divmod(seconds, 10)
        rows = np.flatnonzero(width > j)
        buf[point[rows] - 1 - j] = digit[rows] + ord("0")
    del point, seconds, width
    for row, cell in zip(slow.tolist(), slow_cells):
        buf[start[row]:start[row] + len(cell)] = np.frombuffer(cell, np.uint8)

    # Forms go in word by word; a form's last word ends at its last byte.
    tail = start + time_len
    del start, time_len
    form_words = _words(form_table)
    for length in np.unique(form_len).tolist():
        rows = np.flatnonzero(row_form_len == length)
        at, their = tail[rows], row_form[rows]
        for k in [*range(0, length - 8, 8), length - 8]:
            words[at + k] = form_words[:, k].take(their)
    return buf


def write_wav(trace: Trace, params: WavParams | None = None) -> bytes:
    """Canonical 44-byte RIFF/WAVE header plus little-endian PCM samples.

    The speaker amplitude maps to ±WAV_FULL_SCALE; silence stays at 0.
    """
    if params is None:
        params = WavParams(int(trace.sample_rate))
    if params.sample_rate != trace.sample_rate:
        raise ExportError(
            f"params sample_rate {params.sample_rate} != trace sample_rate {trace.sample_rate}"
        )
    if trace.amplitude > 0:
        scaled = np.rint(WAV_FULL_SCALE * trace.speaker / trace.amplitude)
    else:
        scaled = np.zeros(trace.n_samples)
    data = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()

    block_align = params.channels * params.bits_per_sample // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(data),
        b"WAVE",
        b"fmt ",
        16,  # fmt chunk size
        1,  # PCM
        params.channels,
        params.sample_rate,
        params.sample_rate * block_align,
        block_align,
        params.bits_per_sample,
        b"data",
        len(data),
    )
    return header + data


def write_report(report: DesignReport | ErrataReport, format: str = "text") -> bytes:
    """Render a report as an aligned text table or stable ``name=value`` lines."""
    if format not in ("text", "kv"):
        raise ExportError(f"format must be 'text' or 'kv', got {format!r}")
    if isinstance(report, DesignReport):
        text = _design_kv(report) if format == "kv" else _design_text(report)
    elif isinstance(report, ErrataReport):
        text = _errata_kv(report) if format == "kv" else _errata_text(report)
    else:
        raise ExportError(f"cannot render {type(report).__name__}")
    return text.encode("utf-8")


def _snapped_name(name: str) -> str:
    return name[: -len("_ideal")] + "_snapped" if name.endswith("_ideal") else name + "_snapped"


def _design_kv(report: DesignReport) -> str:
    lines = []
    for record in report:
        lines.append(f"{record.name}={format_quantity(record.ideal_quantity())}")
        if record.snapped is not None:
            lines.append(
                f"{_snapped_name(record.name)}={format_quantity(record.snapped_quantity())}"
            )
    return "\n".join(lines) + "\n"


def _design_text(report: DesignReport) -> str:
    rows = [("quantity", "ideal", "snapped", "formula")]
    for record in report:
        snapped = "-" if record.snapped is None else format_quantity(
            record.snapped_quantity(), digits=6
        )
        rows.append(
            (record.name, format_quantity(record.ideal_quantity(), digits=6),
             snapped, record.formula)
        )
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        f"{name:<{widths[0]}}  {ideal:>{widths[1]}}  {snapped:>{widths[2]}}  {formula}".rstrip()
        for name, ideal, snapped, formula in rows
    ]
    return "\n".join(lines) + "\n"


def _errata_kv(report: ErrataReport) -> str:
    if not report.entries:
        return "no entries\n"
    return "\n".join(f"{entry.name}={entry.verdict}" for entry in report) + "\n"


def _errata_text(report: ErrataReport) -> str:
    if not report.entries:
        return "no entries\n"
    rows = []
    for entry in report:
        comparison = (
            f"{format_quantity(Quantity(entry.computed, entry.unit), digits=6)}"
            f" vs claimed {format_quantity(Quantity(entry.claimed, entry.unit), digits=6)}"
        )
        rows.append((entry.name, comparison, entry.verdict, f"(tol {entry.tolerance * 100:g}%)"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        f"{name:<{widths[0]}}  {comparison:<{widths[1]}}  {verdict:<{widths[2]}}  {tol}"
        for name, comparison, verdict, tol in rows
    ]
    return "\n".join(lines) + "\n"
