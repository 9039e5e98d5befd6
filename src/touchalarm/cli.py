"""Command-line front end.

Commands: ``design`` (sizing report), ``simulate`` (scenario to CSV/WAV),
``snap`` (preferred-value lookup), ``verify`` (audit the reference worked
figures; exits 1 when errata are found), ``tolerance`` (Monte Carlo spread
of the trigger timeout).

Exit codes: 0 success, 1 errata found, 2 usage error, 3 input- or output-file
error, 4 computation error, 130 and 143 after SIGINT and SIGTERM.  Reports,
summaries and ``--help`` go to stdout, diagnostics to stderr.  ``_commit``
makes all of a command's output visible at once: files are written to temp
names, then the stdout text is written and flushed, and only then are the
files renamed; ``simulate`` streams its samples into them chunk by chunk.
Existing targets that are not regular files are refused; symlinks are
followed.  ``snap`` loads neither ``design`` nor numpy; only
``simulate`` and ``tolerance`` load the numpy-backed ``simulator`` and
``export``.  ``run`` (``python -m touchalarm``, the ``touchalarm`` script)
turns the collector off, sets ``OPENBLAS_NUM_THREADS=1`` unless set (no idle
BLAS worker), turns SIGTERM into the unwinding that Ctrl-C takes, runs the
``atexit`` handlers once ``main`` returns and leaves through ``os._exit``,
skipping teardown (``SystemExit`` under a profiler, a tracer or ``-i``);
``main`` leaves the collector and the signal handlers alone.
"""

from __future__ import annotations

import _signal  # loaded at start-up: `signal` would build its enum classes on every job
import argparse
import atexit
import contextlib
import errno
import gc
import os
import re
import sys

from .units import (QUOTE_LIMIT, SERIES, SNAP_MODES, CircuitFileError, DesignError, ExportError,
                    Quantity, QuantityError, ScenarioError, SimulationError, format_number,
                    format_quantity, parse_number, quoted, snap_preferred)

EXIT_OK = 0
EXIT_ERRATA = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_COMPUTE = 4
EXIT_SIGINT = 130  # 128 + the signal number, as a shell reports a process the signal ended
EXIT_SIGTERM = 143

# Budget for each circuit or scenario file: room for a scenario at
# simulator.MAX_EVENTS events with 64 bytes a line.
MAX_INPUT_BYTES = 2**22


class UsageError(Exception):
    pass


_QUOTED = r"""(['"])(?:\\.|(?!\1)[^\\])*\1"""  # a value as argparse quotes it, by repr
_BARE = r"(?s)(?<=^unrecognized arguments: ).*|(?<=^ambiguous option: ).*(?= could match )"  # or echoes it


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # --help passes no file: its text is committed as a report is
        _commit(self.format_help())

    def error(self, message):  # keep argparse from calling sys.exit directly
        message = re.sub(_BARE, lambda m: quoted(m[0]) if len(m[0]) > QUOTE_LIMIT else m[0], message)
        raise UsageError(re.sub(_QUOTED, _cut, message))  # compiled on the first usage error


def _cut(value: re.Match) -> str:
    """``units.quoted`` of a value that argparse quoted, if the quoted value is over the limit."""
    return quoted(value[0][1:-1]) if len(value[0]) > QUOTE_LIMIT + 2 else value[0]


def build_parser() -> _Parser:
    parser = _Parser(
        prog="touchalarm",
        description="Design calculator and behavioral simulator for the touch-activated alarm.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_design = sub.add_parser("design", help="compute the full sizing/timing report")
    p_design.add_argument("circuit", nargs="?", default=None,
                          help="circuit file (omitted: stock values)")
    p_design.add_argument("--format", choices=("text", "kv"), default="text")
    p_design.add_argument("--out", default=None, help="write the report to a file")

    p_sim = sub.add_parser("simulate", help="run a touch/mains scenario")
    p_sim.add_argument("--circuit", default=None)
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--sample-rate", dest="sample_rate", type=int, default=16000)
    p_sim.add_argument("--csv", default=None, help="write the sampled waveforms as CSV")
    p_sim.add_argument("--wav", default=None, help="write the siren audio as 16-bit WAV")
    p_sim.add_argument("--one-shot", dest="one_shot", action="store_true",
                       help="fixed-width trigger window instead of level-sensitive hold")
    p_sim.add_argument("--ideal-pair", dest="ideal_pair", default=None, metavar="F_LO,F_HI",
                       help="replace the control-pin siren model with two fixed tones")

    p_snap = sub.add_parser("snap", help="snap a value to a preferred series")
    p_snap.add_argument("--series", choices=tuple(SERIES), default="E12")
    p_snap.add_argument("--mode", choices=SNAP_MODES, default="nearest")
    p_snap.add_argument("value")

    p_verify = sub.add_parser("verify", help="audit the reference design's worked figures")
    p_verify.add_argument("--circuit", default=None)
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="uniform relative tolerance overriding the per-entry defaults")

    p_tol = sub.add_parser("tolerance", help="Monte Carlo spread of the trigger timeout")
    p_tol.add_argument("--circuit", default=None)
    p_tol.add_argument("--tol", type=float, default=0.10)
    p_tol.add_argument("--runs", type=int, default=10000)
    p_tol.add_argument("--seed", type=int, default=0)

    return parser


def _read_input(path: str, error: type[ValueError]) -> str:
    """An input file's text.

    A failed read, more than MAX_INPUT_BYTES bytes or non-UTF-8 bytes raise
    ``error`` (exit 3).  No more than one byte past the limit is ever read,
    so a huge file, a pipe or ``/dev/zero`` is refused in bounded memory.
    """
    try:
        with open(path, "rb") as file:
            data = file.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise error(str(exc)) from None
    if len(data) > MAX_INPUT_BYTES:
        raise error(f"{path}: more than {MAX_INPUT_BYTES} bytes, over the limit")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_spec(path: str | None) -> design.CircuitSpec:
    from . import design

    if path is None:
        return design.CircuitSpec()
    return design.parse_circuit(_read_input(path, CircuitFileError))


def _commit(text: str, paths=(), pieces=()) -> None:
    """Make a command's output visible at once: ``text`` on stdout and every file of ``paths``, or none of it.

    Each ``(i, blocks)`` of ``pieces`` goes to a new ``.partial`` file beside
    ``paths[i]``, or beside the file a symlink there resolves to; a stale
    entry at that name is removed first, so a symlink there redirects
    nothing.  Once all are closed, ``text`` is written to stdout and flushed
    (empty text needs no stdout; one closed at start-up, so ``None``, cannot
    take any), and only then are the files renamed.  An existing target that
    is not a regular file, or that is another target's ``.partial`` file, is
    refused before anything is opened; a file error names its target as
    given.  Any failure or interrupt removes every ``.partial`` file and
    leaves every target alone.
    """
    reals = [os.path.realpath(path) for path in paths]  # renamed onto, so a symlink target keeps its link
    temps = [real + ".partial" for real in reals]
    for path, real, tmp in zip(paths, reals, temps):
        if os.path.realpath(tmp) in reals:
            raise UsageError(f"{quoted(tmp)} is an output and the temp file of {quoted(path)}")
        if os.path.lexists(real) and not os.path.isfile(real):  # a directory, FIFO, socket, device or link loop
            raise OSError(f"not a regular file: {quoted(path)}")
    i = None  # the file at fault, if any: its error is reported under its target's name
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for i, tmp in enumerate(temps):
                _remove(tmp)  # a stale entry; one that reappears fails the exclusive create
                stack.callback(_remove, tmp)  # gone already after a successful rename
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # O_EXCL: never through a symlink
                stack.callback(os.close, fd)  # the file does not own fd: unregistered, it neither closes nor warns
                files.append(stack.enter_context(open(fd, "wb", closefd=False)))
            for i, blocks in pieces:
                files[i].writelines(blocks)
            for i, file in enumerate(files):
                file.close()
            i = None  # stdout's errors name stdout, not a file
            if text:
                if sys.stdout is None:
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
                sys.stdout.write(text)
                sys.stdout.flush()  # a report that cannot be written is an output error however stdout is buffered
            for i, (tmp, real) in enumerate(zip(temps, reals)):
                os.replace(tmp, real)
    except OSError as exc:  # raised once every .partial file is closed and removed
        raise exc if i is None else OSError(exc.errno, exc.strerror, paths[i]) from None


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def cmd_design(args) -> int:
    from . import design

    blob = design.write_report(design.compute_report(_load_spec(args.circuit)), args.format)
    if args.out is None:
        _commit(blob.decode("utf-8"))
    else:
        _commit("", [args.out], [(0, [blob])])
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.csv is None and args.wav is None:
        raise UsageError("nothing to write: pass --csv and/or --wav")
    if args.csv is not None and args.wav is not None \
            and os.path.realpath(args.csv) == os.path.realpath(args.wav):
        raise UsageError("--csv and --wav name the same file")
    ideal_pair = None
    if args.ideal_pair is not None:
        parts = args.ideal_pair.split(",")
        if len(parts) != 2:
            raise UsageError("--ideal-pair takes two frequencies, e.g. 470,490")
        try:
            ideal_pair = (parse_number(parts[0]), parse_number(parts[1]))
        except QuantityError as exc:
            raise UsageError(str(exc)) from exc
    spec = _load_spec(args.circuit)
    from . import export, simulator  # after the spec: a circuit that cannot load exits before numpy is imported
    scenario = simulator.parse_scenario(_read_input(args.scenario, ScenarioError))
    config = simulator.SimConfig(
        sample_rate=args.sample_rate,
        ideal_pair=ideal_pair,
        retrigger="one_shot" if args.one_shot else "level_sensitive",
    )
    if args.wav is not None:
        export.check_wav_rate(config.sample_rate)
    timeline = simulator.timeline(spec, scenario, config)

    # (path, header, chunk encoder to buffers) per requested file
    outputs = []
    if args.csv is not None:
        outputs.append((args.csv, export.csv_header(), export.csv_rows))
    if args.wav is not None:
        outputs.append((args.wav, export.wav_header(timeline.sample_rate, timeline.n_samples),
                        lambda chunk: (export.wav_pcm(chunk.sign, chunk.amplitude),)))
    paths, headers, encoders = zip(*outputs)

    def pieces():  # (output, blocks): each header, then each chunk as every output encodes it
        yield from enumerate([header] for header in headers)
        for chunk in timeline.chunks():
            yield from enumerate(encode(chunk) for encode in encoders)

    sounding = format_quantity(Quantity(timeline.sounding_seconds, "second"))
    _commit(f"alarm_windows={len(timeline.alarm_windows)} sounding={sounding}\n", paths, pieces())
    return EXIT_OK


def cmd_snap(args) -> int:
    try:
        value = parse_number(args.value)
        snapped = snap_preferred(value, args.series, args.mode)
    except QuantityError as exc:
        raise UsageError(str(exc)) from exc
    _commit(f"{format_number(value)} -> {format_number(snapped)}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import design

    report = design.compute_report(_load_spec(args.circuit))
    try:
        errata = design.verify_reference_values(report, args.tolerance)
    except DesignError as exc:  # its one check is of the tolerance
        raise UsageError(f"--{exc}") from exc
    _commit(design.write_report(errata, "text").decode("utf-8"))
    return EXIT_ERRATA if errata.has_errata else EXIT_OK


def cmd_tolerance(args) -> int:
    spec = _load_spec(args.circuit)
    from . import simulator  # after the spec: a circuit that cannot load exits before numpy is imported
    result = simulator.monte_carlo_timeout(spec, args.tol, args.runs, args.seed)
    contains = "true" if result.contains(simulator.MEASURED_TIMEOUT_SECONDS) else "false"

    def fmt(x: float) -> str:
        return format_quantity(Quantity(x, "second"), digits=6)

    _commit(
        f"runs={result.runs} min={fmt(result.min)} mean={fmt(result.mean)} "
        f"max={fmt(result.max)} stddev={fmt(result.stddev)} contains_measured={contains}\n"
    )
    return EXIT_OK


_COMMANDS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "snap": cmd_snap,
    "verify": cmd_verify,
    "tolerance": cmd_tolerance,
}


def _diagnose(code: int, line: str) -> int:
    """Write ``line`` to stderr and return ``code``, which a closed or unwritable stderr keeps."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.write(line + "\n")
            sys.stderr.flush()
    return code


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as done:  # argparse's exit after --help, which _Parser.print_help has committed
            return done.code
        return _COMMANDS[args.command](args)
    except (UsageError, ExportError, SimulationError) as exc:
        return _diagnose(EXIT_USAGE, f"usage error: {exc}")
    except (CircuitFileError, ScenarioError) as exc:
        return _diagnose(EXIT_INPUT, f"input error: {exc}")
    except OSError as exc:  # inputs are read through _read_input, so this is an output
        return _diagnose(EXIT_INPUT, f"output error: {exc}")
    except (DesignError, QuantityError) as exc:
        return _diagnose(EXIT_COMPUTE, f"computation error: {exc}")
    except Exception as exc:  # last resort: exit 1 is reserved for errata found
        return _diagnose(EXIT_COMPUTE, f"computation error: {type(exc).__name__}: {exc}")


def _terminate(signum, frame):
    raise KeyboardInterrupt(EXIT_SIGTERM)  # unwinds as Ctrl-C does


def run() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no linear algebra here: start no idle BLAS worker
    gc.disable()  # a job leaves a bounded set of cycles (the parser's): skip the collector's passes
    if _signal.getsignal(_signal.SIGTERM) == _signal.SIG_DFL:  # one ignored by the parent stays ignored
        _signal.signal(_signal.SIGTERM, _terminate)
    try:
        code = main()
    except KeyboardInterrupt as stop:  # Ctrl-C or SIGTERM: the unwinding has removed every .partial file
        code = _diagnose(stop.args[0] if stop.args else EXIT_SIGINT, "interrupted")
    if sys.flags.inspect or sys.getprofile() or sys.gettrace():  # -i, a profiler or a tracer has work after it
        raise SystemExit(code)
    atexit._run_exitfuncs()
    for stream in sys.stdout, sys.stderr:  # main has reported its own write failures
        if stream is not None:  # closed at start-up
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(code)  # every output file is closed and renamed: skip tearing down numpy and every module
