"""Tests of the benchmark's own parts (not of touchalarm).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    for name in workloads.WORKLOADS:
        first = list(itertools.islice(workloads.schedule(name, 7), 40))
        again = list(itertools.islice(workloads.schedule(name, 7), 40))
        other = list(itertools.islice(workloads.schedule(name, 8), 40))
        assert first == again
        assert [j.key for j in first] != [j.key for j in other]
        assert workloads.make_job(name, first[0].kind, 3) == workloads.make_job(name, first[0].kind, 3)


def test_schedule_keeps_the_kind_cycle():
    for name, w in workloads.WORKLOADS.items():
        kinds = [j.kind for j in itertools.islice(workloads.schedule(name, 3), 3 * len(w.kinds))]
        assert kinds == list(w.kinds) * 3


def test_generated_inputs_validate():
    from touchalarm import design, simulator

    for name in workloads.WORKLOADS:
        for job in workloads.all_jobs(name):
            for file_name, text in job.inputs:
                if file_name.endswith(".circ"):
                    design.parse_circuit(text).validate()
                else:
                    simulator.parse_scenario(text).validate()


def test_every_pool_instance_has_a_record_for_its_input():
    import json

    records = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["jobs"]
    for name in workloads.WORKLOADS:
        for job in workloads.all_jobs(name):
            assert records[job.key]["input"] == job.input_digest(), job.key


def test_digest_gate_catches_a_flipped_byte(tmp_path):
    job = workloads.Job("calc_cli/design_text/1", ("design", "--out", "@/r.txt"), (),
                        ("r.txt",), 0, 5.0)
    (tmp_path / "r.txt").write_bytes(b"quantity ideal\n")
    files = jobs.collect(job, tmp_path)
    outcome = jobs.Outcome(0, 0.1, 1000, b"table\n", files)
    record = jobs.record_of(outcome, job)
    assert jobs.check(job, record, outcome, ROOT) == []

    flipped = bytearray(b"quantity ideal\n")
    flipped[3] ^= 0x01
    (tmp_path / "r.txt").write_bytes(bytes(flipped))
    bad_file = jobs.Outcome(0, 0.1, 1000, b"table\n", jobs.collect(job, tmp_path))
    assert jobs.check(job, record, bad_file, ROOT) == [f"{job.key}: r.txt differs"]

    bad_stdout = jobs.Outcome(0, 0.1, 1000, b"tablf\n", files)
    assert jobs.check(job, record, bad_stdout, ROOT) == [f"{job.key}: stdout differs"]

    bad_exit = jobs.Outcome(4, 0.1, 1000, b"table\n", files)
    assert jobs.check(job, record, bad_exit, ROOT) == [f"{job.key}: exit 4, expected 0"]


def test_digest_gate_holds_stock_verify_to_the_golden_table():
    job = workloads.Job("calc_cli/verify/0", ("verify",), (), (), 0, 5.0)
    golden = (ROOT / workloads.GOLDEN_VERIFY).read_bytes()
    good = jobs.Outcome(1, 0.1, 1000, golden, {})
    assert jobs.check(job, jobs.record_of(good, job), good, ROOT) == []
    wrong = jobs.Outcome(1, 0.1, 1000, golden.replace(b"MATCH", b"MATCh", 1), {})
    problems = jobs.check(job, jobs.record_of(wrong, job), wrong, ROOT)
    assert problems == [f"{job.key}: stdout differs from {workloads.GOLDEN_VERIFY}"]


def _span(id, name, start, end, parent=None):
    return spans.Span(id, name, "job", parent, start, end)


def test_self_time_on_nested_spans():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "simulator.run", 1.0, 4.0, parent=0),
        _span(2, "design.x", 2.0, 3.0, parent=1),
        _span(3, "export.csv", 5.0, 9.0, parent=0),
        _span(4, "units.a", 6.0, 7.5, parent=3),
        _span(5, "units.b", 7.0, 8.0, parent=3),  # overlaps its sibling: counted once
    ]
    assert spans.self_times(tree) == pytest.approx(
        {0: 10.0 - 3.0 - 4.0, 1: 3.0 - 1.0, 2: 1.0, 3: 4.0 - 2.0, 4: 1.5, 5: 1.0})


def test_tracer_records_parent_and_counts():
    tracer = spans.Tracer()
    tracer.job = "j1"

    owner = types.SimpleNamespace(inner=lambda x: x * 2)

    def outer(x):
        return owner.inner(x) + 1

    tracer.wrap(owner, "inner", "layer.inner", lambda r, x: {"calls": 1, "value": r})
    assert tracer.call("cli.main", outer, 5) == 11
    tracer.unpatch()
    assert owner.inner(1) == 2 and not hasattr(owner.inner, "__wrapped__")
    root, child = tracer.spans
    assert (root.name, root.parent, child.name, child.parent) == ("cli.main", None, "layer.inner", 0)
    assert child.job == "j1" and child.counts == {"calls": 1, "value": 10}
    assert root.start <= child.start <= child.end <= root.end


@pytest.mark.parametrize("n, percentile, index", [
    (10, None, None),
    (11, 100 / 11, 0),
    (20, 50.0, 9),
    (30, 200 / 3, 19),
    (100, 90.0, 89),
    (1000, 99.0, 989),
])
def test_tail_percentile_rule(n, percentile, index):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    result = stats.tail(values)
    if percentile is None:
        assert result is None
        return
    pct, value = result
    assert pct == pytest.approx(percentile)
    assert value == sorted(values)[index]
    assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_scaler_uses_the_probes_on_either_side():
    probes = iter([0.010, 0.030, 0.0115])
    scaler = speed.Scaler(lambda: next(probes), 0.012)
    # first job: probes 10 ms before and 30 ms after, mean 20 ms
    assert scaler.scale(2.0) == pytest.approx(2.0 * 0.012 / 0.020)
    # second job: 30 ms before, 11.5 ms after
    assert scaler.scale(1.0) == pytest.approx(0.012 / ((0.030 + 0.0115) / 2))
    assert scaler.probes == [0.010, 0.030, 0.0115]
