"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import kbgen  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402

SEED = 9001
SCRATCH = run.HERE / ".work" / "test"


@pytest.fixture(scope="module")
def small():
    """The small-kbs workload, set up once, with cider imported from src/."""
    cwd = Path.cwd()
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        os.chdir(run.ROOT)
        _t, specs, paths, modules = run.setup("small-kbs", SEED, SCRATCH)
        yield specs, paths, modules
    finally:
        os.chdir(cwd)


def _queries(small, kinds=None, n_kbs=3):
    specs, paths, modules = small
    queries = run.build_queries("small-kbs", specs[:n_kbs], paths[:n_kbs], modules)
    return [q for q in queries if kinds is None or q.kind in kinds]


@pytest.mark.parametrize("workload", sorted(kbgen.WORKLOADS))
def test_generator_repeats_bytes_for_a_seed(workload):
    first = [s.to_yaml() for s in kbgen.generate(workload, 7)]
    again = [s.to_yaml() for s in kbgen.generate(workload, 7)]
    other = [s.to_yaml() for s in kbgen.generate(workload, 8)]
    assert first == again
    assert first != other


def test_generated_shapes_do_not_depend_on_the_seed():
    for workload in ("world-queries", "strategy-search"):
        shapes = [
            [{k: v for k, v in s.shape().items() if k != "distinct_restrictions"}
             for s in kbgen.generate(workload, seed)]
            for seed in (1, 2, 3)
        ]
        assert shapes[0] == shapes[1] == shapes[2]
    (wq,) = kbgen.generate("world-queries", 1)
    assert wq.shape()["worlds"] == 2048
    assert wq.shape()["distinct_restrictions"] <= 16


def test_every_query_kind_passes_its_check_while_the_clock_probes(small):
    _specs, _paths, modules = small
    clock = refclock.RefClock()
    runner = run.Runner(modules["cli"], clock)
    queries = _queries(small)
    runner.run_pass(queries)
    assert {q.kind for q in queries} == set(run.KINDS)
    assert runner.failed == 0, runner.problems
    assert runner.attempted == len(queries)
    assert all(e > 0 for ts in runner.latencies.values() for _t, e in ts)


def test_traced_and_untraced_stdout_match_and_counts_repeat(small):
    _specs, _paths, modules = small
    queries = _queries(small)
    counts = []
    for attempt in range(2):
        runner = run.Runner(modules["cli"])
        metrics, _passes = run.traced(runner, queries, modules,
                                      SCRATCH / f"spans{attempt}.tsv.gz")
        # one untraced and one traced pass; a differing report is a failure
        assert runner.failed == 0, runner.problems
        assert runner.attempted == 2 * len(queries)
        counts.append({name: m[0] for name, m in metrics.items()
                       if m[1] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["el.is_subsumed.calls"] > 0
    assert counts[0]["optimizer.strategies_enumerated"] > 0
    assert counts[0]["diagram.worlds.yielded"] > 0
    per_layer = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == per_layer


def test_a_planted_wrong_expected_cost_is_a_failure(small, monkeypatch):
    _specs, _paths, modules = small
    dg = modules["diagram"]
    real = dg.expected_cost
    monkeypatch.setattr(dg, "expected_cost", lambda d, s: real(d, s) + 1e-3)
    queries = _queries(small, kinds={"expected-cost"})
    runner = run.Runner(modules["cli"])
    runner.run_pass(queries)
    assert runner.attempted == len(queries) > 0
    assert runner.failed == len(queries)


def test_a_report_that_changes_between_runs_is_a_failure(small, monkeypatch):
    _specs, _paths, modules = small
    queries = _queries(small, kinds={"expected-cost"})
    runner = run.Runner(modules["cli"])
    runner.run_pass(queries)
    assert runner.failed == 0, runner.problems
    monkeypatch.setattr(modules["cli"], "PROB_TOL", "1e-08")
    runner.run_pass(queries)
    assert runner.failed == len(queries)


def test_the_clock_divides_out_the_machine_speed_around_each_timing():
    clock = refclock.RefClock()
    clock.times = [float(t) for t in range(20)]
    # the machine runs at half speed from t = 10 on
    clock.seconds = [refclock.NOMINAL_S] * 10 + [2 * refclock.NOMINAL_S] * 10
    assert clock.scale(2.5, 3.5) == pytest.approx(1.0)
    assert clock.scale(15.5, 16.5) == pytest.approx(0.5)
    assert clock.scale(9.5, 9.6) == pytest.approx(2 / 3)  # the mean of the middle two
    assert clock.scale(9.5, 14.5) == pytest.approx(0.5)  # mostly samples from during it
    assert clock.busy(9.5, 14.5) == pytest.approx(5 * 2 * refclock.NOMINAL_S)
    assert clock.scale(-5.0, -4.0) == pytest.approx(1.0)  # one side only
    assert clock.scale(30.0, 31.0) == pytest.approx(0.5)
    assert refclock.reference_kernel() == refclock.reference_kernel()


def test_without_sources_the_benchmark_exits_non_zero():
    bare = run.HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-kbs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
