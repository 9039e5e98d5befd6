"""Bit-exact emitters for traces: CSV and 16-bit PCM WAV.

Everything here is a pure function from immutable inputs to bytes, so
repeated exports are byte-identical and safe to golden-test.  CSV and WAV
come as a header plus an encoder per chunk of samples (``csv_rows``,
``wav_pcm``), so a file can be streamed; ``write_csv`` and ``write_wav``
encode a whole trace the same way.
"""

from __future__ import annotations

import struct
import sys

import numpy as np

from .design import ExportError
from .design import write_report  # only so that bench/run.py --trace 1 can wrap export.write_report
from .simulator import Chunk, Trace, _rate_text

CSV_HEADER = "t,supply_on,trigger_out,modulator_high,carrier_freq,speaker"

# 16-bit full scale with 10% headroom: floor(0.9 * 32767).
WAV_FULL_SCALE = 29490

_WAV_RATE_RANGE = (8000, 192000)


def check_wav_rate(rate) -> None:
    """Raise ExportError unless ``rate`` is an integer WAV sample rate in range."""
    if not isinstance(rate, int) or not _WAV_RATE_RANGE[0] <= rate <= _WAV_RATE_RANGE[1]:
        raise ExportError(f"sample_rate must be an integer in {_WAV_RATE_RANGE}, got {_rate_text(rate)}")


def write_csv(trace: Trace) -> bytes:
    """The whole CSV file: ``csv_header()`` followed by ``csv_rows(trace)``."""
    if not isinstance(trace.sample_rate, int) or not 0 < trace.sample_rate <= sys.float_info.max:
        raise ExportError(f"sample_rate must be a positive integer, got {_rate_text(trace.sample_rate)}")
    return b"".join((csv_header(), csv_rows(trace)))


def csv_header() -> bytes:
    return (CSV_HEADER + "\n").encode()


def _words(buf: np.ndarray) -> np.ndarray:
    """Little-endian uint64 view of the last axis of ``buf``: item k is bytes k..k+7."""
    return np.ndarray(buf.shape[:-1] + (buf.shape[-1] - 7,), "<u8", buf,
                      strides=buf.strides[:-1] + (1,))


def csv_rows(chunk: Trace | Chunk) -> np.ndarray:
    """Waveform rows: time to 9 decimals, booleans as 0/1, floats as repr.

    Each row reads ``f"{t:.9f},{s},{g},{m},{carrier!r},{speaker!r}"`` for
    ``t`` in ``chunk.times``, but the rows are laid out in one uint8 buffer
    instead of one string each:

    - row offsets come from a cumulative sum of the row lengths;
    - the time cell is written from the integer nanosecond ``rint(t * 1e9)``:
      the fraction's last eight digits as one word from a four-digit table,
      the rest by ``% 10`` passes.  Rows where that could round differently
      from ``.9f``, within a few ulps of a half-nanosecond tie, are
      formatted with ``.9f`` one by one;
    - the rest of a row, its form, depends only on the three booleans and
      the bit patterns of carrier and speaker.  Each distinct form is
      formatted once and copied into its rows eight bytes at a time.

    Each row depends on its own sample alone, so the rows of consecutive
    chunks concatenate to the rows of the whole trace.
    """
    times = chunk.times
    n = len(times)
    if n == 0:  # the word view below needs at least eight bytes
        return np.empty(0, np.uint8)

    # --- time cells: integer nanoseconds, exact unless near a tie -----------
    scaled = times * 1e9
    nanos = np.rint(scaled)
    exact = 0.5 - np.abs(scaled - nanos) > 4 * np.spacing(scaled)
    seconds, fraction = np.divmod(np.where(exact, nanos, 0).astype(np.int64), 10**9)
    del scaled, nanos
    # digits before the point: one more than the powers of ten <= seconds
    width = 1 + np.searchsorted(10 ** np.arange(1, 19, dtype=np.int64), seconds, "right")
    slow = np.flatnonzero(~exact)
    slow_cells = [f"{t:.9f}".encode() for t in times[slow].tolist()]
    time_len = width + 10
    time_len[slow] = [len(cell) for cell in slow_cells]

    # --- forms: the distinct rests of a row, found among run starts ---------
    carrier = np.ascontiguousarray(chunk.carrier_freq, np.float64).view(np.uint64)
    speaker = np.ascontiguousarray(chunk.speaker, np.float64).view(np.uint64)
    flags = (np.asarray(chunk.supply_on, bool).view(np.uint8) << 2) \
        | (np.asarray(chunk.trigger_out, bool).view(np.uint8) << 1) \
        | np.asarray(chunk.modulator_high, bool).view(np.uint8)
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
    start = np.cumsum(row_len) - row_len
    buf = np.empty(int(row_len.sum()), np.uint8)
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


def write_wav(trace: Trace) -> bytes:
    """The whole WAV file: ``wav_header`` followed by ``wav_pcm`` of the speaker."""
    header = wav_header(trace.sample_rate, trace.n_samples)
    return b"".join((header, wav_pcm(trace.speaker, trace.amplitude)))


def wav_header(sample_rate: int, n_samples: int) -> bytes:
    """Canonical 44-byte RIFF/WAVE header for mono 16-bit PCM at ``sample_rate``."""
    check_wav_rate(sample_rate)
    data_size = 2 * n_samples
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + data_size,
        b"WAVE",
        b"fmt ",
        16,  # fmt chunk size
        1,  # PCM
        1,  # mono
        sample_rate,
        2 * sample_rate,  # byte rate
        2,  # block align
        16,  # bits per sample
        b"data",
        data_size,
    )


def wav_pcm(speaker: np.ndarray, amplitude: float) -> np.ndarray:
    """Little-endian 16-bit samples: ``amplitude`` maps to ±WAV_FULL_SCALE, silence to 0."""
    if not amplitude > 0:
        return np.zeros(len(speaker), "<i2")
    scaled = np.multiply(WAV_FULL_SCALE, speaker, dtype=np.float64)  # never into the caller's array
    np.rint(np.divide(scaled, amplitude, out=scaled), out=scaled)
    return np.clip(scaled, -32768, 32767, out=scaled).astype("<i2")
