"""Command-line front end.

Commands: ``design`` (sizing report), ``simulate`` (scenario to CSV/WAV),
``snap`` (preferred-value lookup), ``verify`` (audit the reference worked
figures; exits 1 when errata are found), ``tolerance`` (Monte Carlo spread
of the trigger timeout).

Exit codes: 0 success, 1 errata found, 2 usage error, 3 input- or output-file
error, 4 computation error.  Reports and summaries go to stdout, diagnostics to
stderr.  Output files are written to temp names and renamed only once all
of a command's files are complete; ``simulate`` streams its samples into
them chunk by chunk.  ``simulate`` and ``tolerance`` import the
numpy-backed ``simulator`` and ``export`` when they run; the other commands
never load numpy.  ``run`` (``python -m touchalarm`` and the ``touchalarm``
script) freezes the heap with ``gc.freeze()`` once ``main`` returns, so the
interpreter's exit collections skip it; ``main`` itself never freezes.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import re
import sys
from pathlib import Path

from . import design
from .units import (QUOTE_LIMIT, SERIES, SNAP_MODES, Quantity, QuantityError, format_number,
                    format_quantity, parse_number, quoted, snap_preferred)

EXIT_OK = 0
EXIT_ERRATA = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_COMPUTE = 4

# Budget for each circuit or scenario file: room for a scenario at
# simulator.MAX_EVENTS events with 64 bytes a line.
MAX_INPUT_BYTES = 2**22


class UsageError(Exception):
    pass


_QUOTED = r"""(['"])(?:\\.|(?!\1)[^\\])*\1"""  # a value as argparse quotes it, by repr
_BARE = r"(?s)(?<=^unrecognized arguments: ).*|(?<=^ambiguous option: ).*(?= could match )"  # or echoes it


class _Parser(argparse.ArgumentParser):
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
    if path is None:
        return design.CircuitSpec()
    return design.parse_circuit(_read_input(path, design.CircuitFileError))


@contextlib.contextmanager
def _atomic_files(paths):
    """Open a ``.partial`` file for each path; rename them all once the block succeeds.

    A target that is a directory or another target's ``.partial`` file is
    refused before anything is opened, and a ``.partial`` file that cannot be
    opened is reported under its target's name.  Any failure removes every
    ``.partial`` file and leaves every target alone.
    """
    targets = [Path(path) for path in paths]
    temps = [target.with_name(target.name + ".partial") for target in targets]
    resolved = {target.resolve() for target in targets}
    for tmp, target in zip(temps, targets):
        if tmp.resolve() in resolved:
            raise UsageError(f"{quoted(str(tmp))} is an output and the temp file of {quoted(str(target))}")
    for target in targets:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    with contextlib.ExitStack() as stack:
        files = []
        for tmp, target in zip(temps, targets):
            stack.callback(tmp.unlink, missing_ok=True)  # gone already after a successful rename
            try:
                files.append(stack.enter_context(open(tmp, "wb")))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(target)) from None
        yield files
        for file in files:
            file.close()
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)


def _emit(blob: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(blob.decode("utf-8"))
    else:
        with _atomic_files([out]) as (file,):
            file.write(blob)


def cmd_design(args) -> int:
    report = design.compute_report(_load_spec(args.circuit))
    _emit(design.write_report(report, args.format), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import export, simulator

    if args.csv is None and args.wav is None:
        raise UsageError("nothing to write: pass --csv and/or --wav")
    if args.csv is not None and args.wav is not None \
            and Path(args.csv).resolve() == Path(args.wav).resolve():
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
    scenario = simulator.parse_scenario(_read_input(args.scenario, design.ScenarioError))
    config = simulator.SimConfig(
        sample_rate=args.sample_rate,
        ideal_pair=ideal_pair,
        retrigger="one_shot" if args.one_shot else "level_sensitive",
    )
    config.validate()
    if args.wav is not None:
        export.check_wav_rate(config.sample_rate)
    timeline = simulator.timeline(spec, scenario, config)

    # (path, header, chunk encoder to buffers) per requested file
    outputs = []
    if args.csv is not None:
        outputs.append((args.csv, export.csv_header(), export.csv_rows))
    if args.wav is not None:
        outputs.append((args.wav, export.wav_header(timeline.sample_rate, timeline.n_samples),
                        lambda chunk: (export.wav_pcm(chunk.speaker, chunk.amplitude),)))
    paths, headers, encoders = zip(*outputs)
    with _atomic_files(paths) as files:
        for file, header in zip(files, headers):
            file.write(header)
        for chunk in timeline.chunks():
            for file, encode in zip(files, encoders):
                file.writelines(encode(chunk))

    sounding = format_quantity(Quantity(timeline.sounding_seconds, "second"))
    sys.stdout.write(f"alarm_windows={len(timeline.alarm_windows)} sounding={sounding}\n")
    return EXIT_OK


def cmd_snap(args) -> int:
    try:
        value = parse_number(args.value)
        snapped = snap_preferred(value, args.series, args.mode)
    except QuantityError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(f"{format_number(value)} -> {format_number(snapped)}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = design.compute_report(_load_spec(args.circuit))
    try:
        errata = design.verify_reference_values(report, args.tolerance)
    except design.DesignError as exc:  # its one check is of the tolerance
        raise UsageError(f"--{exc}") from exc
    sys.stdout.write(design.write_report(errata, "text").decode("utf-8"))
    return EXIT_ERRATA if errata.has_errata else EXIT_OK


def cmd_tolerance(args) -> int:
    from . import simulator

    spec = _load_spec(args.circuit)
    result = simulator.monte_carlo_timeout(spec, args.tol, args.runs, args.seed)
    contains = "true" if result.contains(simulator.MEASURED_TIMEOUT_SECONDS) else "false"

    def fmt(x: float) -> str:
        return format_quantity(Quantity(x, "second"), digits=6)

    sys.stdout.write(
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, design.ExportError, design.SimulationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (design.CircuitFileError, design.ScenarioError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # inputs are read through _read_input, so this is an output
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (design.DesignError, QuantityError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:  # last resort: exit 1 is reserved for errata found
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def run() -> None:
    code = main()
    gc.freeze()  # the process is ending: spare its exit collections a walk over the whole heap
    raise SystemExit(code)
