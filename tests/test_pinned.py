"""Every byte the benchmark records and the README shows, checked in-process.

``bench/expected.json`` holds the exit code, stdout hash and file hashes of
each benchmark job, which ``bench/workloads.make_job`` rebuilds from its key;
each job is replayed here through ``cli.main``.  The README's ``$ touchalarm``
lines run through a ``python -m touchalarm`` shim and its ``python`` blocks run
as written, both in a temporary directory, and every output they show is
compared.  Nothing under ``bench/`` is written.
"""

import builtins
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cli_env import cli_env
from touchalarm.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _bench_workloads():
    """``bench/workloads.py`` as a module, imported from its file without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through sys.modules
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()
RECORDS = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))["jobs"]


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _replay(job, job_dir: Path) -> list[str]:
    """Run one job in-process in ``job_dir`` and list how it differs from its record."""
    record = RECORDS[job.key]
    job_dir.mkdir()
    for name, text in job.inputs:
        (job_dir / name).write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(job.argv(str(job_dir)))
    stdout = out.getvalue().encode("utf-8")
    problems = []
    if record["input"] != job.input_digest():
        problems.append(f"{job.key}: generated input differs from the recorded one")
    if code != record["exit"]:
        problems.append(f"{job.key}: exit {code}, expected {record['exit']}")
    if _sha256(stdout) != record["stdout"]:
        problems.append(f"{job.key}: stdout differs")
    for name, digest in record["files"].items():
        path = job_dir / name
        if (_sha256(path.read_bytes()) if path.exists() else "missing") != digest:
            problems.append(f"{job.key}: {name} differs")
    if job.args == ("verify",) and stdout != (ROOT / WORKLOADS.GOLDEN_VERIFY).read_bytes():
        problems.append(f"{job.key}: stdout differs from {WORKLOADS.GOLDEN_VERIFY}")
    for path in job_dir.iterdir():  # a 5 s CSV is several MB: keep one job's files at a time
        path.unlink()
    return problems


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_bench_records_replay(workload, tmp_path):
    jobs = list(WORKLOADS.all_jobs(workload))
    assert jobs
    problems = [problem for i, job in enumerate(jobs) for problem in _replay(job, tmp_path / str(i))]
    assert not problems, f"{len(problems)} mismatches:\n" + "\n".join(problems)


def test_every_record_is_replayed():
    keys = {job.key for workload in WORKLOADS.WORKLOADS for job in WORKLOADS.all_jobs(workload)}
    assert keys == set(RECORDS)


def _shell_examples() -> list[tuple[str, list[str]]]:
    """Each README ``$ `` line with the output lines shown under it."""
    examples, shown = [], None
    for line in README.splitlines():
        if line.startswith("$ "):
            shown = []
            examples.append((line[2:], shown))
        elif shown is not None and line.strip() and not line.startswith("```"):
            shown.append(line)
        else:
            shown = None  # a blank line or the fence ends the shown output
    return examples


def test_readme_shell_examples(tmp_path):
    examples = _shell_examples()
    assert len(examples) == 5 and sum(1 for c, _ in examples if c.startswith("touchalarm ")) == 4
    shim = tmp_path / "bin" / "touchalarm"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m touchalarm "$@"\n')
    shim.chmod(0o755)
    env = cli_env(PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}", PYTHONUTF8="1")
    work = tmp_path / "work"
    work.mkdir()
    for command, shown in examples:
        done = subprocess.run(command, shell=True, cwd=work, env=env, capture_output=True, text=True,
                              timeout=60)
        assert (done.returncode, done.stdout.splitlines()) == (0, shown), (command, done.stderr)
    assert (work / "siren.wav").stat().st_size > 44


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_python_examples(tmp_path, monkeypatch):
    """The blocks run in order in one namespace; each ``print(...)  # shown`` line prints what it shows."""
    blocks = _python_blocks()
    assert len(blocks) == 5
    printed: dict[tuple[str, int], list[str]] = {}

    def record(*args, **kwargs):
        caller = sys._getframe(1)
        text = io.StringIO()
        builtins.print(*args, **kwargs, file=text)
        printed.setdefault((caller.f_code.co_filename, caller.f_lineno), []).append(text.getvalue())

    monkeypatch.chdir(tmp_path)
    namespace = {"print": record}
    expected = {}
    for i, block in enumerate(blocks):
        name = f"README.md python block {i + 1}"
        for lineno, line in enumerate(block.splitlines(), start=1):
            code, _, comment = line.partition("#")
            if "print(" in code and comment:
                expected[(name, lineno)] = [comment.strip() + "\n"]
        exec(compile(block, name, "exec"), namespace)
    assert len(expected) == 4
    assert {key: printed.get(key) for key in expected} == expected
    assert (tmp_path / "siren.wav").stat().st_size > 44
