"""Run one job as a ``python -m touchalarm`` subprocess and check its outputs.

A job's record (from ``expected.json``) holds the exit code, the SHA-256 of
stdout and the SHA-256 of each written file.  ``check`` compares a run with
its record; any difference makes the job count as failed.
"""

from __future__ import annotations

import hashlib
import os
import select
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import GOLDEN_VERIFY, Job


@dataclass
class Outcome:
    exit_code: int | None  # None: killed at its timeout
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    file_digests: dict[str, str]


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUTF8"] = "1"  # stdout bytes must not depend on the caller's locale
    return env


def prepare(job: Job, job_dir: Path) -> None:
    """Empty ``job_dir`` and write the job's input files into it."""
    if job_dir.exists():
        shutil.rmtree(job_dir)
    job_dir.mkdir(parents=True)
    for name, text in job.inputs:
        (job_dir / name).write_text(text, encoding="utf-8")


def collect(job: Job, job_dir: Path) -> dict[str, str]:
    """Digests of the job's output files; a missing file digests as ``missing``."""
    return {
        name: sha256_file(job_dir / name) if (job_dir / name).exists() else "missing"
        for name in job.outputs
    }


def spawn(argv: list[str], env: dict[str, str], stdout_path: Path, timeout_s: float):
    """Start ``argv``, wait for it (killing it after ``timeout_s``) and return
    ``(exit_code or None, wall seconds, child peak RSS in KiB)``."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout_s)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status) if ready else None
    return code, wall, usage.ru_maxrss


def run_subprocess(job: Job, job_dir: Path, env: dict[str, str]) -> Outcome:
    prepare(job, job_dir)
    stdout_path = job_dir.parent / (job_dir.name + ".stdout")
    argv = [sys.executable, "-m", "touchalarm", *job.argv(str(job_dir))]
    code, wall, rss = spawn(argv, env, stdout_path, job.timeout_s)
    stdout = stdout_path.read_bytes()
    return Outcome(code, wall, rss, stdout, collect(job, job_dir))


def record_of(outcome: Outcome, job: Job) -> dict:
    return {
        "input": job.input_digest(),
        "exit": outcome.exit_code,
        "stdout": sha256_bytes(outcome.stdout),
        "files": outcome.file_digests,
    }


def check(job: Job, record: dict | None, outcome: Outcome, root: Path) -> list[str]:
    """Differences between an outcome and the job's record (empty when it matches)."""
    if record is None:
        return [f"{job.key}: no record"]
    problems = []
    if record["input"] != job.input_digest():
        problems.append(f"{job.key}: generated input differs from the recorded one")
    if outcome.exit_code is None:
        problems.append(f"{job.key}: timed out after {job.timeout_s:g} s")
    elif outcome.exit_code != record["exit"]:
        problems.append(f"{job.key}: exit {outcome.exit_code}, expected {record['exit']}")
    if sha256_bytes(outcome.stdout) != record["stdout"]:
        problems.append(f"{job.key}: stdout differs")
    for name, digest in record["files"].items():
        if outcome.file_digests.get(name) != digest:
            problems.append(f"{job.key}: {name} differs")
    if job.args == ("verify",):
        golden = (root / GOLDEN_VERIFY).read_bytes()
        if outcome.stdout != golden:
            problems.append(f"{job.key}: stdout differs from {GOLDEN_VERIFY}")
    return problems
