#!/usr/bin/env python3
"""Write ``expected.json``: what the current tree prints and writes for every job.

    python3 bench/record.py

Runs every pool instance of every workload once as a subprocess and records
its exit code, the SHA-256 of its stdout and of each output file.  Run it
only on a tree whose outputs are known to be right; the benchmark then
treats any difference from these records as a failed job.  It refuses to
record a generated input that does not validate, an exit code other than 0
(or 1 for ``verify``), or a stock ``verify`` that differs from the golden
table.
"""

from __future__ import annotations

import json
import shutil
import sys

import jobs
import workloads
from run import EXPECTED, ROOT, WORK, environment


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from touchalarm import design, simulator

    env = jobs.child_env(ROOT)
    job_dir = WORK / "record" / "job"
    records = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.all_jobs(workload):
            for name, text in job.inputs:
                if name.endswith(".circ"):
                    design.parse_circuit(text).validate()
                else:
                    simulator.parse_scenario(text).validate()
            outcome = jobs.run_subprocess(job, job_dir, env)
            allowed = (0, 1) if job.args[0] == "verify" else (0,)
            if outcome.exit_code not in allowed:
                raise SystemExit(f"{job.key}: exit {outcome.exit_code}")
            if "missing" in outcome.file_digests.values():
                raise SystemExit(f"{job.key}: an output file was not written")
            records[job.key] = jobs.record_of(outcome, job)
            problems = jobs.check(job, records[job.key], outcome, ROOT)
            if problems:
                raise SystemExit("; ".join(problems))
            print(f"{job.key} exit={outcome.exit_code} {outcome.wall_s:.3f}s", flush=True)
    shutil.rmtree(WORK / "record", ignore_errors=True)
    EXPECTED.write_text(json.dumps(
        {"recorded_with": environment(ROOT), "jobs": records}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
