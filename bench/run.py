#!/usr/bin/env python3
"""Benchmark of the touchalarm CLI: one closed-loop client, one job at a time.

    python3 bench/run.py --workload trace_csv|outage_storm|calc_cli \\
        --seed N --seconds S --trace 0|1

Run from the repository root (or a copy of its committed files); it needs
``src/`` and ``tests/golden/``.  Each job is a fresh ``python -m touchalarm``
subprocess built from the seeded generator in ``workloads.py``; its exit
code, stdout and output files are checked against ``expected.json``.

``--trace 0`` times jobs for ``--seconds`` and reports the end-to-end
metrics, with times scaled to a reference CPU speed (``speed.py``).
``--trace 1`` repeats one cycle of the workload's jobs for
``--seconds`` (at least once): each job runs as a subprocess, then
in-process through ``cli.main`` untraced, traced, and (first cycle only)
traced under tracemalloc.  It reports per-layer self times, counts and
peaks, per cycle.  The last line of stdout is the JSON result; scratch
files, spans and full results go to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import spans
import speed
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"
EXPECTED = HERE / "expected.json"

# Set-up is sampled through the run, not only at its start, so that its
# median averages over the machine's speed drift.
SETUP_EVERY_S = 4.0
MIN_JOBS = stats.TAIL_BEYOND + 1
MB = 1 << 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def environment(root: Path) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(root),
        "src_sha256": src_digest(root),
    }


def measure_setup(env, work: Path) -> float:
    """Scaled wall time of a fresh interpreter that imports touchalarm.cli and exits."""
    scaler = speed.scaler("spawn", env)
    code, wall, _ = jobs.spawn([sys.executable, "-c", "import touchalarm.cli"], env,
                               work / "setup.stdout", 60.0)
    if code != 0:
        raise RuntimeError(f"'import touchalarm.cli' exited {code}")
    return scaler.scale(wall)


def run_untraced(args, records, env, work: Path):
    measure_setup(env, work)  # warm-up: writes the bytecode cache
    setup = [measure_setup(env, work) for _ in range(2)]
    scaler = speed.scaler(workloads.WORKLOADS[args.workload].probe, env)
    walls, scaled, problems = [], [], []
    ok = samples = peak_kb = 0
    job_dir = work / "job"
    start = time.perf_counter()
    deadline = start + args.seconds
    next_setup = start + SETUP_EVERY_S
    for job in workloads.schedule(args.workload, args.seed):
        if len(walls) >= MIN_JOBS and time.perf_counter() >= deadline:
            break
        if time.perf_counter() >= next_setup:
            setup.append(measure_setup(env, work))
            next_setup += SETUP_EVERY_S
        outcome = jobs.run_subprocess(job, job_dir, env)
        scaled.append(scaler.scale(outcome.wall_s))
        walls.append(outcome.wall_s)
        peak_kb = max(peak_kb, outcome.maxrss_kb)
        found = jobs.check(job, records.get(job.key), outcome, ROOT)
        if found:
            problems += found
        else:
            ok += 1
            samples += job.samples
    pct, tail_s = stats.tail(scaled)
    busy = sum(scaled)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(scaled), "s"),
        "job_s.tail": (tail_s, "s"),
        "jobs_per_s": (ok / busy, "1/s"),
        "samples_per_s": (samples / busy, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    notes = {
        "jobs": len(walls),
        "failed": len(walls) - ok,
        "error_rate": (len(walls) - ok) / len(walls),
        "tail_percentile": pct,
        "tail_samples_beyond": stats.TAIL_BEYOND,
        "elapsed_s": time.perf_counter() - start,
        "unscaled_job_s.p50": statistics.median(walls),
        "unscaled_job_s.tail": stats.tail(walls)[1],
        "probe_s.p50": statistics.median(scaler.probes),
        "probe_ref_s": scaler.ref_s,
        "setup_samples_s": setup,
    }
    return metrics, notes, len(walls), len(walls) - ok, problems


# --- traced run -----------------------------------------------------------------

UNITS_NAMES = ("Quantity", "format_number", "format_quantity", "parse_number", "snap_preferred")


def _calls(result, *args, **kwargs):
    return {"calls": 1}


def _run_counts(trace, spec, scenario, *args, **kwargs):
    return {
        "calls": 1,
        "samples": trace.n_samples,
        "breakpoints": len(scenario.events) + len(trace.alarm_windows)
        + len(trace.sounding_intervals),
        "log_events": len(trace.events),
    }


def install(tracer: spans.Tracer, pkg) -> None:
    """Wrap the public entry points that ``cli.main`` reaches."""
    cli, design, export, simulator = pkg
    tracer.wrap(design, "parse_circuit", "design.parse_circuit", _calls)
    tracer.wrap(design, "compute_report", "design.compute_report", _calls)
    tracer.wrap(design, "verify_reference_values", "design.verify", _calls)
    tracer.wrap(simulator, "parse_scenario", "simulator.parse_scenario",
                lambda r, *a, **k: {"calls": 1, "events": len(r.events)})
    tracer.wrap(simulator, "run", "simulator.run", _run_counts)
    tracer.wrap(simulator, "monte_carlo_timeout", "simulator.monte_carlo",
                lambda r, *a, **k: {"calls": 1, "runs": r.runs})
    tracer.wrap(export, "write_csv", "export.csv",
                lambda r, trace, *a, **k: {"calls": 1, "bytes": len(r), "rows": trace.n_samples})
    tracer.wrap(export, "write_wav", "export.wav", lambda r, *a, **k: {"calls": 1, "bytes": len(r)})
    tracer.wrap(export, "write_report", "export.report", _calls)
    for name in UNITS_NAMES:
        tracer.wrap(cli, name, f"units.{name}", _calls)


def run_inprocess(job, job_dir: Path, main) -> jobs.Outcome:
    jobs.prepare(job, job_dir)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(job.argv(str(job_dir)))
    wall = time.perf_counter() - start
    return jobs.Outcome(code, wall, 0, out.getvalue().encode("utf-8"), jobs.collect(job, job_dir))


def summarize(cycle_spans) -> tuple[dict, dict]:
    """Per span name: summed self time, and summed counts."""
    busy: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    selfs = spans.self_times(cycle_spans)
    for s in cycle_spans:
        busy[s.name] = busy.get(s.name, 0.0) + selfs[s.id]
        bucket = counts.setdefault(s.name, {})
        for key, value in s.counts.items():
            bucket[key] = bucket.get(key, 0) + value
    return busy, counts


def run_traced(args, records, env, work: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import tracemalloc

    from touchalarm import cli, design, export, simulator

    pkg = (cli, design, export, simulator)
    w = workloads.WORKLOADS[args.workload]
    cycle = list(itertools.islice(workloads.schedule(args.workload, args.seed), len(w.kinds)))
    tracer = spans.Tracer()
    job_dir = work / "job"
    problems: list[str] = []
    attempted = failed = 0
    cycles = []  # per-cycle figures
    job_counts: list[dict] = []  # per cycle and pass: job key -> span name -> counts
    peaks: dict[str, float] = {}

    def traced_main(argv):
        return tracer.call("cli.main", cli.main, argv)

    def checked(job, outcome):
        nonlocal attempted, failed
        attempted += 1
        found = jobs.check(job, records.get(job.key), outcome, ROOT)
        if found:
            failed += 1
            problems.extend(found)
        return outcome

    start = time.perf_counter()
    while not cycles or time.perf_counter() < start + args.seconds:
        n = len(cycles)
        passes = ("time", "memory") if n == 0 else ("time",)
        figures = {"sub_s": 0.0, "inproc_s": 0.0, "traced_s": 0.0, "bytes_written": 0}
        for job in cycle:
            sub = checked(job, jobs.run_subprocess(job, job_dir, env))
            figures["sub_s"] += sub.wall_s
            plain = checked(job, run_inprocess(job, job_dir, cli.main))
            figures["inproc_s"] += plain.wall_s
            figures["bytes_written"] += len(plain.stdout) + sum(
                (job_dir / name).stat().st_size for name in job.outputs if (job_dir / name).exists())
            for p in passes:
                tracer.job = f"{n}:{p}:{job.key}"
                tracer.track_memory = p == "memory"
                install(tracer, pkg)
                if p == "memory":
                    tracemalloc.start()
                try:
                    traced = checked(job, run_inprocess(job, job_dir, traced_main))
                finally:
                    tracemalloc.stop()
                    tracer.track_memory = False
                    tracer.unpatch()
                if p == "time":
                    figures["traced_s"] += traced.wall_s
        for p in passes:
            these = [s for s in tracer.spans if s.job.startswith(f"{n}:{p}:")]
            per_job: dict[str, dict] = {}
            for s in these:
                if s.counts:
                    key = s.job.split(":", 2)[2]
                    bucket = per_job.setdefault(key, {}).setdefault(s.name, {})
                    for k, v in s.counts.items():
                        bucket[k] = bucket.get(k, 0) + v
            job_counts.append(per_job)
            if p == "memory":
                for s in these:
                    if s.peak_bytes is not None and s.name in ("simulator.run", "export.csv"):
                        peaks[s.name] = max(peaks.get(s.name, 0.0), s.peak_bytes / MB)
            else:
                figures["busy"], figures["counts"] = summarize(these)
        cycles.append(figures)
    shutil.rmtree(job_dir, ignore_errors=True)

    # Count determinism within the run: every cycle and pass saw the same counts.
    deterministic = all(c == job_counts[0] for c in job_counts)
    if not deterministic:
        problems.append("per-layer counts differ between cycles or passes")
    same_code_and_jobs = hashlib.sha256(
        "".join([src_digest(ROOT)] + [job.input_digest() for job in cycle]).encode()).hexdigest()
    counts_file = WORK / "counts" / f"{args.workload}-seed{args.seed}-{same_code_and_jobs[:16]}.json"
    if counts_file.exists():
        if json.loads(counts_file.read_text()) != job_counts[0]:
            deterministic = False
            problems.append(f"per-layer counts differ from the earlier run in {counts_file.name}")
    else:
        counts_file.parent.mkdir(parents=True, exist_ok=True)
        counts_file.write_text(json.dumps(job_counts[0], indent=1, sort_keys=True))

    metrics = layer_metrics(args.workload, cycles, peaks)
    table = layer_table(cycles, peaks)
    spans_path = WORK / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                "id": s.id, "job": s.job, "counts": s.counts,
                                "peak_bytes": s.peak_bytes}) + "\n")
    notes = {
        "cycles": len(cycles),
        "jobs_per_cycle": [job.key for job in cycle],
        "deterministic_counts": deterministic,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "table": table,
    }
    return metrics, notes, attempted, failed, problems, deterministic


def layer_metrics(workload: str, cycles: list[dict], peaks: dict) -> dict:
    def med(fn) -> float:
        return statistics.median([fn(c) for c in cycles])

    def busy(*names):
        return lambda c: sum(v for k, v in c["busy"].items() if k in names or k.split(".")[0] in names)

    first = cycles[0]["counts"]

    def count(name, key):
        return first.get(name, {}).get(key, 0)

    def per(value, denominator, scale):
        return value * scale / denominator if denominator else 0.0

    run_s = med(busy("simulator.run"))
    csv_s = med(busy("export.csv"))
    mc_s = med(busy("simulator.monte_carlo"))
    process_s = med(lambda c: c["sub_s"] - c["inproc_s"])
    named = {
        "trace_csv": lambda c: busy("export.csv")(c) / c["sub_s"],
        "outage_storm": lambda c: busy("simulator.run")(c) / c["sub_s"],
        "calc_cli": lambda c: (c["sub_s"] - c["inproc_s"] + busy("simulator.monte_carlo")(c))
        / c["sub_s"],
    }[workload]
    samples = count("simulator.run", "samples")
    rows = count("export.csv", "rows")
    runs = count("simulator.monte_carlo", "runs")
    m = {
        "cli.process_s": (process_s, "s"),
        "cli.self_s": (med(busy("cli.main")), "s"),
        "cli.bytes_written": (cycles[0]["bytes_written"], "bytes"),
        "design.parse_circuit.busy_s": (med(busy("design.parse_circuit")), "s"),
        "design.parse_circuit.calls": (count("design.parse_circuit", "calls"), "count"),
        "design.compute_report.busy_s": (med(busy("design.compute_report")), "s"),
        "design.compute_report.calls": (count("design.compute_report", "calls"), "count"),
        "design.verify.busy_s": (med(busy("design.verify")), "s"),
        "units.busy_s": (med(busy("units")), "s"),
        "units.calls": (sum(count(f"units.{n}", "calls") for n in UNITS_NAMES), "count"),
        "simulator.parse_scenario.busy_s": (med(busy("simulator.parse_scenario")), "s"),
        "simulator.parse_scenario.events": (count("simulator.parse_scenario", "events"), "count"),
        "simulator.run.busy_s": (run_s, "s"),
        "simulator.run.samples": (samples, "count"),
        "simulator.run.breakpoints": (count("simulator.run", "breakpoints"), "count"),
        "simulator.run.log_events": (count("simulator.run", "log_events"), "count"),
        "simulator.run.ns_per_sample": (per(run_s, samples, 1e9), "ns"),
        "simulator.run.peak_mb": (peaks.get("simulator.run", 0.0), "MB"),
        "simulator.monte_carlo.busy_s": (mc_s, "s"),
        "simulator.monte_carlo.runs": (runs, "count"),
        "simulator.monte_carlo.us_per_run": (per(mc_s, runs, 1e6), "us"),
        "export.csv.busy_s": (csv_s, "s"),
        "export.csv.bytes": (count("export.csv", "bytes"), "bytes"),
        "export.csv.ns_per_row": (per(csv_s, rows, 1e9), "ns"),
        "export.csv.peak_mb": (peaks.get("export.csv", 0.0), "MB"),
        "export.wav.busy_s": (med(busy("export.wav")), "s"),
        "export.wav.bytes": (count("export.wav", "bytes"), "bytes"),
        "export.report.busy_s": (med(busy("export.report")), "s"),
        "trace.overhead_s": (med(lambda c: c["traced_s"] - c["inproc_s"]), "s"),
        "named_layer.share": (med(named), "ratio"),
    }
    return m


def layer_table(cycles: list[dict], peaks: dict) -> list[str]:
    names = sorted(cycles[0]["busy"])
    lines = [f"{'span':<28} {'self_s/cycle':>13} {'counts/cycle':<40} {'peak_MB':>8}"]
    for name in names:
        self_s = statistics.median([c["busy"].get(name, 0.0) for c in cycles])
        counts = ",".join(f"{k}={v}" for k, v in sorted(cycles[0]["counts"].get(name, {}).items()))
        peak = f"{peaks[name]:.1f}" if name in peaks else "-"
        lines.append(f"{name:<28} {self_s:>13.6f} {counts:<40} {peak:>8}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "touchalarm" / "cli.py").is_file():
        print(f"bench: no touchalarm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / workloads.GOLDEN_VERIFY).is_file():
        print(f"bench: missing {workloads.GOLDEN_VERIFY}", file=sys.stderr)
        return 2
    records = json.loads(EXPECTED.read_text(encoding="utf-8"))["jobs"]
    env_info = environment(ROOT)
    env_info["pinned_cpu"] = speed.pin_to_one_cpu()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = jobs.child_env(ROOT)
    try:
        if args.trace:
            metrics, notes, attempted, failed, problems, deterministic = run_traced(
                args, records, env, work)
        else:
            metrics, notes, attempted, failed, problems = run_untraced(args, records, env, work)
            deterministic = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0 and not problems and deterministic
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_info, "notes": notes,
        "problems": problems[:50], "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"env: {json.dumps(env_info, sort_keys=True)}")
    for line in problems[:20]:
        print(f"FAILED {line}")
    if args.trace:
        print(f"cycles={notes['cycles']} of {len(notes['jobs_per_cycle'])} jobs")
        print(*notes["table"], sep="\n")
        share = metrics["named_layer.share"][0]
        layer = workloads.WORKLOADS[args.workload].layer
        verdict = "meets" if share >= 0.5 else "DOES NOT meet"
        print(f"named layer {layer}: {share:.1%} of subprocess job time ({verdict} the 50% target)")
    else:
        print(f"jobs={notes['jobs']} failed={notes['failed']} error_rate={notes['error_rate']:g} "
              f"tail=p{notes['tail_percentile']:.1f} (n={notes['jobs']}, "
              f"{stats.TAIL_BEYOND} beyond)")
        print(f"job times scaled by the {workloads.WORKLOADS[args.workload].probe} probe "
              f"(reference {notes['probe_ref_s'] * 1e3:g} ms, median here "
              f"{notes['probe_s.p50'] * 1e3:.2f} ms); unscaled "
              f"job_s.p50={notes['unscaled_job_s.p50']:.6g} s "
              f"job_s.tail={notes['unscaled_job_s.tail']:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" if isinstance(value, float) else f"{name} = {value} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
