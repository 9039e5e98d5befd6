"""How a ``touchalarm`` process ends: output targets that are not regular files, signals and stdio states.

Every output target here is a file, FIFO, directory or symlink inside
``tmp_path``.  No test names a path under ``/dev`` as an output: the suite
may run as root, and a program at fault would then replace a device node
(``/dev/full`` only ever stands in for a stdout or stderr).
"""

import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cli_env import cli_env
from test_cli_fuzz import command
from touchalarm.cli import main

REPORT_START = "quantity "


@pytest.mark.parametrize("kind", ["fifo", "directory", "link-loop"])
@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_a_target_that_is_not_a_regular_file_is_refused(kind, flag, tmp_path, capsys):
    target = tmp_path / "target"
    if kind == "fifo":
        os.mkfifo(target)
    elif kind == "directory":
        target.mkdir()
    else:
        target.symlink_to("target")
    (tmp_path / "s.scn").write_text("duration 1\n")
    argv = ["design", "--out", str(target)] if flag == "--out" else \
        ["simulate", "--scenario", str(tmp_path / "s.scn"), "--wav", str(tmp_path / "x.wav"), "--csv", str(target)]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"output error: not a regular file: {str(target)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.scn", "target"]
    assert {"fifo": target.is_fifo, "directory": target.is_dir, "link-loop": target.is_symlink}[kind]()


@pytest.mark.parametrize("argv, name", [
    (["design", "--out", "LINK"], "report.txt"),
    (["simulate", "--scenario", "SCN", "--csv", "LINK"], "trace.csv"),
], ids=["design", "simulate"])
def test_a_symlink_target_is_followed(argv, name, tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    real = tmp_path / "sub" / name
    real.write_text("old\n")
    link = tmp_path / "link"
    link.symlink_to(Path("sub") / name)
    (tmp_path / "s.scn").write_text("1.0 touch_start\n1.2 touch_end\nduration 2\n")
    files = {"LINK": str(link), "SCN": str(tmp_path / "s.scn")}
    assert main([files.get(arg, arg) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert link.is_symlink() and os.readlink(link) == str(Path("sub") / name)
    if argv[0] == "design":
        assert out == "" and real.read_text().startswith(REPORT_START)
    else:
        assert out.startswith("alarm_windows=1 ") and real.read_text().startswith("t,supply_on,")
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["link", "s.scn", "sub", name])


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_signal_ends_the_job_with_one_line_and_no_partial_file(signum, tmp_path):
    # 1390 s of siren at 48 kHz: a WAV-only job of 2^26 samples, 128 MiB written over about a second.
    (tmp_path / "held.scn").write_text("1.0 touch_start\nduration 1390\n")
    (tmp_path / "x.wav").write_bytes(b"old")
    partial = tmp_path / "x.wav.partial"
    proc = subprocess.Popen([sys.executable, "-m", "touchalarm", "simulate", "--scenario", "held.scn",
                             "--sample-rate", "48000", "--wav", "x.wav"],
                            cwd=tmp_path, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not partial.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert partial.exists(), "the job wrote no .partial file"
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (128 + signum, "", "interrupted\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["held.scn", "x.wav"]
    assert (tmp_path / "x.wav").read_bytes() == b"old"


BAD_STDOUT = ["stdout-closed", "stdout-full", "stdout-broken-pipe"]
STDIO = ["default", "stderr-full", *BAD_STDOUT] if os.path.exists("/dev/full") else \
    ["default", "stdout-closed", "stdout-broken-pipe"]
FILE_LIMIT = 2**22  # bytes an output file may take, so that a long drawn scenario fails fast (EFBIG, exit 3)


@st.composite
def process_case(draw):
    """An argv list from ``test_cli_fuzz.command`` (with ``design --out``, ``--help`` and unknown flags), its files,
    whether the output targets exist before the job, and a stdio state."""
    argv, circuit, scenario, _encodings = draw(command())
    if argv[0] == "design" and draw(st.booleans()):
        argv = [*argv, "--out", "OUT/r.txt"]
    argv = draw(st.sampled_from([argv, argv, argv, [*argv, "--help"], [*argv, "--bogus"], ["--help"]]))
    return argv, circuit, scenario, draw(st.booleans()), draw(st.sampled_from(STDIO))


def _run_in(directory: Path, argv, state):
    """Run ``python -m touchalarm`` in ``directory`` with stdio in ``state``; (exit code, stderr or None)."""
    def child():
        resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_LIMIT, FILE_LIMIT))
        if state == "stdout-closed":
            os.close(1)

    fds = []
    stdout = stderr = subprocess.PIPE
    if state in ("stdout-full", "stderr-full"):
        fds.append(os.open("/dev/full", os.O_WRONLY))
        stdout, stderr = (fds[0], subprocess.PIPE) if state == "stdout-full" else (subprocess.PIPE, fds[0])
    elif state == "stdout-broken-pipe":
        read, write = os.pipe()
        os.close(read)
        fds.append(stdout := write)
    try:
        proc = subprocess.run([sys.executable, "-m", "touchalarm", *argv], cwd=directory, env=cli_env(),
                              stdout=stdout, stderr=stderr, preexec_fn=child, text=True, timeout=60)
    finally:
        for fd in fds:
            os.close(fd)
    return proc.returncode, proc.stderr


@given(case=process_case())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_process_ends_in_a_documented_exit(case, tmp_path):
    argv, circuit, scenario, existing, state = case
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        directory = Path(tmp)
        (directory / "OUT").mkdir()
        (directory / "c.circ").write_text(circuit or "")
        (directory / "s.scn").write_text(scenario)
        targets = [directory / arg for arg in argv if arg.startswith("OUT/")]
        for target in targets if existing else ():
            target.write_bytes(b"old")
        argv = [{"CIRCUIT": "c.circ", "SCENARIO": "s.scn"}.get(arg, arg) for arg in argv]
        code, err = _run_in(directory, argv, state)
        event(f"{argv[0]} {state} exit {code}")
        assert code in (0, 2, 3, 4) or (code == 1 and argv[0] == "verify"), (code, err)
        if err is not None:
            assert "Traceback" not in err and "Exception ignored" not in err, err
            assert err.count("\n") == (0 if code in (0, 1) else 1), err
        assert not list(directory.rglob("*.partial"))
        if state in BAD_STDOUT and code == 0:  # only a job that prints nothing can succeed
            assert "--out" in argv and "--help" not in argv, argv
        if code != 0:  # a failed job changed no existing target and made no new one
            assert [t.read_bytes() if t.exists() else None for t in targets] \
                == [b"old" if existing else None] * len(targets)
