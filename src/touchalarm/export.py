"""Bit-exact emitters for traces: CSV and 16-bit PCM WAV.

Everything here is a pure function from immutable inputs to bytes, so
repeated exports are byte-identical and safe to golden-test.  CSV and WAV
come as a header plus an encoder per piece of samples (``wav_pcm``, and ``csv_rows``
of a ``Trace`` from ``Timeline.render``, in buffers of ``_BLOCK`` rows), so a file can
be streamed; ``write_csv`` and ``write_wav`` encode a whole trace the same way.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Iterator

import numpy as np

from .design import ExportError
from .design import write_report  # only so that bench/run.py --trace 1 can wrap export.write_report
from .simulator import Trace, _rate_text

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
    return b"".join((csv_header(), *csv_rows(trace)))


def csv_header() -> bytes:
    return (CSV_HEADER + "\n").encode()


_BLOCK = 2**13  # rows per buffer that csv_rows yields, which bounds its memory


def _records(buf: np.ndarray, width: int, offset: int = 0, stride: int = 1) -> np.ndarray:
    """The ``width``-byte items of ``buf``'s bytes that start at ``offset + k * stride``."""
    count = max(0, (buf.nbytes - offset - width) // stride + 1)  # a block may be shorter than a form
    return np.ndarray(count, f"V{width}", buf, offset, (stride,))


def csv_rows(chunk: Trace) -> Iterator[np.ndarray]:
    """Waveform rows, ``_BLOCK`` to a uint8 buffer: time to 9 decimals, booleans as 0/1, floats as repr.

    Each row reads ``f"{t:.9f},{s},{g},{m},{carrier!r},{speaker!r}"`` for ``t``
    in ``chunk.times``, read a block at a time as the ``times`` of the block's
    own ``Trace``.  A time cell is three words from tables of digit groups:
    eight seconds digits that end at the point, the point and nine fraction
    digits of ``rint(t * 1e9)``.  Rows near a half-nanosecond tie, where that
    could round differently from ``.9f``, and negative or non-finite times are
    formatted with ``.9f``.  The rest of a row, its form, depends only on the
    booleans and the bits of carrier and speaker; each distinct form in the
    chunk is formatted once.  Each row gets two record writes: its form, padded
    on the left to the longest form of its band of lengths and right-aligned at
    the row's end, then its time cell.  Bands are narrow enough that the padding
    falls inside the row's own time cell, so no write reaches another row and
    the order in which numpy scatters does not matter.  Each row depends on its
    own sample alone, so the blocks, and the rows of consecutive chunks,
    concatenate to the rows of the whole trace.  A ``sample_rate`` that is not a
    positive integer that converts to a float raises ExportError.
    """
    if not isinstance(chunk.sample_rate, int) or not 0 < chunk.sample_rate <= sys.float_info.max:
        raise ExportError(f"sample_rate must be a positive integer, got {_rate_text(chunk.sample_rate)}")
    n = chunk.n_samples

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
    row_form = np.repeat(run_form.astype(np.min_scalar_type(len(keys))), np.diff(run_start, append=n))
    del carrier, speaker, flags, run_start, carrier_id, speaker_id, run_form
    pair, flag = np.divmod(keys, 8)
    forms = [f",{g >> 2},{g >> 1 & 1},{g & 1},{c!r},{v!r}\n".encode() for g, c, v in zip(
        flag.tolist(), carrier_bits.view(np.float64)[pair // len(speaker_bits)].tolist(),
        speaker_bits.view(np.float64)[pair % len(speaker_bits)].tolist())]
    form_len = np.array([len(form) for form in forms])
    spill, tops = 3, []  # the narrowest time cell ("nan"); the longest form of each band
    for length in sorted(set(form_len.tolist())):
        if not tops or length > low + spill:
            low = length
            tops.append(length)
        tops[-1] = length
    tables = [np.frombuffer(b"".join(form.rjust(top)[-top:] for form in forms), f"V{top}")
              for top in tops]
    form_band = np.searchsorted(tops, form_len)
    # Digit groups as little-endian ASCII: two[i] is f"{i:02d}", four[i] f"{i:04d}", high[i]
    # the same four bytes after four others and dot[i] f".{i:03d}" (ord("0") - 2 is ord(".")).
    k = np.arange(100, dtype=np.uint64)
    two = (k // 10 + ord("0")) | (k % 10 + ord("0")) << np.uint64(8)
    four = (two[:, None] | two << np.uint64(16)).reshape(-1)
    high, dot = four << np.uint64(32), four[:1000] - 2
    for b0 in range(0, n, _BLOCK):
        block = chunk._replace(start=chunk.start + b0, supply_on=chunk.supply_on[b0:b0 + _BLOCK]).times
        m = len(block)  # Trace.times of this block alone: the piece's grid is never held whole

        # --- time cells: integer nanoseconds, exact unless near a tie -------
        with np.errstate(over="ignore", invalid="ignore"):  # huge and infinite times are slow
            scaled = block * 1e9
            nanos = np.rint(scaled)
            # 4 ulps of scaled are at most scaled * 2**-50
            exact = (np.abs(scaled - nanos) < 0.5 - scaled * 2.0**-49) & ~np.signbit(block)
        nanos[~exact] = 0
        seconds = np.floor((nanos + 0.5) * 1e-9).astype(np.uint32)  # exact, as nanos < 2**48
        fraction = (nanos - seconds * 1e9).astype(np.uint32)
        del scaled, nanos
        powers = (10**k for k in range(1, len(str(seconds.max()))))
        lead = sum((seconds >= power for power in powers), np.ones(m, np.int16))  # digits before "."
        slow = np.flatnonzero(~exact)
        slow_cells = [f"{t:.9f}" for t in block[slow].tolist()]
        lead[slow] = [len(cell) - 10 for cell in slow_cells]

        # --- layout -----------------------------------------------------------
        their = row_form[b0:b0 + m]
        bounds = np.zeros(m + 1, np.int64)
        start, end = bounds[:-1], bounds[1:]
        np.cumsum(form_len.take(their) + lead + 10, out=end)
        buf = np.empty(int(end[-1]), np.uint8)
        for b, (top, table) in enumerate(zip(tops, tables)):
            rows = np.flatnonzero(form_band.take(their) == b) if len(tops) > 1 else slice(None)
            _records(buf, top)[end[rows] - top] = table.take(their[rows])
        point = 8 * max(1, -(-int(lead.max()) // 8))  # row k's cell: bytes point - lead[k]:point + 10
        words = np.empty((m, point // 8 + 2), np.uint64)
        q, f6, f2 = seconds // 10**4, fraction // 10**6, fraction // 100  # x % d is slow: x - x // d * d
        words[:, point // 8 - 1] = four.take(q) | high.take(seconds - q * 10**4)
        words[:, point // 8] = dot.take(f6) | high.take(f2 - f6 * 10**4)
        words[:, point // 8 + 1] = two.take(fraction - f2 * 100)
        edges = [0, *(np.flatnonzero(lead[1:] != lead[:-1]) + 1).tolist(), m]
        for i0, i1 in zip(edges, edges[1:]):
            width = int(lead[i0]) + 10
            cells = _records(words, width, point + 10 - width, words.shape[1] * 8)
            _records(buf, width)[start[i0:i1]] = cells[i0:i1]
        for length in set(map(len, slow_cells)):
            pick = [i for i, text in enumerate(slow_cells) if len(text) == length]
            text = "".join(slow_cells[i] for i in pick).encode()
            _records(buf, length)[start[slow[pick]]] = np.frombuffer(text, f"V{length}")
        del words, cells  # free before the next block, as is buf once written
        yield buf
        del buf


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
