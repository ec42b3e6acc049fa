#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cider command line.

    python3 perfbench/run.py --workload world-queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a source checkout; it imports ``cider`` from
``src/``.  One client in one process sends queries in a closed loop: each
query calls ``cider.cli.main(argv)`` with stdout captured, so its latency
covers argument parsing, YAML load, validation, the query and the report.
The KB files come from ``kbgen`` and the seed; the program only sees the
files.  Every answer is checked against ``oracle``; a wrong answer, a
non-zero exit or a report that differs from an earlier run of the same
query counts as a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer counts and times from one traced
pass over the query list (``tracing``), and the tracing overhead against
an untraced pass.  ``--workload all`` runs every workload in turn and
exits non-zero if any answer check failed.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import kbgen  # noqa: E402
import tracing  # noqa: E402
from oracle import Reference, close  # noqa: E402
from refclock import NOMINAL_S, RefClock  # noqa: E402

SETUPS = 5
COLD_STARTS = 21
DECIDE_BOUND = 10.5
LP_TOL = 1e-7
MODES = ("opt", "pes")

# query kind -> end-to-end metric
KINDS = {
    "validate": "validate_s",
    "subsume": "subsume_s",
    "expected-cost": "expected_cost_s",
    "worlds": "worlds_s",
    "prob-subsume": "prob_subsume_s",
    "cond-cost": "cond_cost_s",
    "optimize-pure": "optimize_pure_s",
    "optimize-evidence": "optimize_evidence_s",
    "decide": "decide_s",
    "optimize-lp": "optimize_lp_s",
    "export-game-tree": "export_tree_s",
}


@dataclass
class Query:
    kind: str
    argv: list
    check: Callable  # stdout -> problem description, or None


# Kinds that take well under a second on the two large workloads.  Each
# pass runs them three times, spread between the slow queries, so that
# their medians rest on samples taken at different times: this machine
# has spells of a few seconds in which everything runs up to twice as
# fast or slow.
SPREAD_BLOCKS = 3
SPREAD = {
    "world-queries": {"validate", "subsume", "expected-cost", "worlds", "optimize-pure",
                      "optimize-lp", "export-game-tree"},
    "strategy-search": {"validate", "subsume", "expected-cost", "worlds", "prob-subsume",
                        "cond-cost", "optimize-pure"},
}


# --- answer checks -----------------------------------------------------------


def _sha256(path):
    return hashlib.sha256((ROOT / path).read_bytes()).hexdigest()


def _result(stdout, argv, path, tolerance=None):
    """'key: value' pairs of a report's result block, after checking its header."""
    lines = stdout.splitlines()
    header = [f"command: {' '.join(argv)}", f"input: {path} sha256={_sha256(path)}"]
    if tolerance:
        header.append(f"tolerance: abs={tolerance}")
    header.append("result:")
    if lines[: len(header)] != header:
        raise ValueError(f"unexpected report header {lines[: len(header)]}")
    body = [line[2:] for line in lines[len(header):]]
    pairs = {}
    for line in body:
        if not line.startswith(" ") and ":" in line:
            key, _, value = line.partition(":")
            pairs[key] = value.strip()
    return pairs, body


def _strategy_tables(body):
    """Tables of the 'strategy:' block: {decision: {row: probability}}."""
    tables, current = {}, None
    for line in body[body.index("strategy:") + 1:]:
        if line.startswith("    "):
            key, _, value = line.strip().partition(": ")
            tables[current][key.strip('"')] = float(value)
        else:
            current = line.strip().split(" ", 1)[0]
            tables[current] = {}
    return tables


def _checked(fn, argv):
    """Bind a check to its query; a report it cannot read is a failure."""
    def check(stdout):
        try:
            return fn(stdout, argv)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable report: {exc!r}"
    return check


def kb_queries(spec, path, ref, kinds, strategy, pairs, brute_force=None,
               evidence_modes=MODES, problems=("d-opt", "d-dom-opt")):
    """Queries of the given kinds against one KB, each with its check."""
    tables = spec.strategies[strategy]
    out = []

    def add(kind, argv, fn):
        out.append(Query(kind, argv, _checked(fn, argv)))

    if "validate" in kinds:
        argv = ["validate", path]
        add("validate", argv, lambda s, argv: None if _result(s, argv, path)[1] == ["ok"]
            else "validate did not report ok")

    if "subsume" in kinds:
        lhs, rhs = pairs[0]
        argv = ["query", path, "subsume", "--world", spec.world_bits, lhs, rhs]
        world = dict(zip(spec.variables, (b == "1" for b in spec.world_bits)))

        def check_subsume(s, argv, lhs=lhs, rhs=rhs):
            want = ref.entails(ref.restriction(world), lhs, rhs)
            got = _result(s, argv, path)[0]["subsumed"]
            return None if got == str(want).lower() else f"subsumed {got}, expected {want}"
        add("subsume", argv, check_subsume)

    if "expected-cost" in kinds:
        argv = ["query", path, "expected-cost", "--strategy", strategy]

        def check_cost(s, argv):
            pairs_, body = _result(s, argv, path, "1e-09")
            want = ref.expected_cost(tables)
            if not close(float(pairs_["expected_cost"]), want):
                return f"expected_cost {pairs_['expected_cost']}, expected {want!r}"
            dist = ref.distribution(tables)
            rows = body[body.index("distribution:") + 1:]
            if len(rows) != len(dist):
                return "distribution has the wrong number of rows"
            for row, cost in zip(rows, sorted(dist)):
                c, _, p = row.strip().partition(": ")
                if float(c) != cost or not close(float(p), dist[cost]):
                    return f"distribution row {row.strip()!r}, expected {cost}: {dist[cost]!r}"
            return None
        add("expected-cost", argv, check_cost)

    if "worlds" in kinds:
        argv = ["query", path, "worlds", "--strategy", strategy]

        def check_worlds(s, argv):
            body = _result(s, argv, path)[1]
            rows = body[1:]
            if body[0] != "worlds:" or len(rows) != len(ref.worlds):
                return "worlds report has the wrong number of rows"
            for row, (bits, _w, _p, cost), joint in zip(rows, ref.worlds, ref.joints(tables)):
                got_bits, prob, got_cost = row.strip()[2:].split(" ")
                if (got_bits != bits or not close(float(prob.split("=")[1]), joint)
                        or float(got_cost.split("=")[1]) != cost):
                    return f"world row {row.strip()!r}, expected {bits} {joint!r} {cost}"
            return None
        add("worlds", argv, check_worlds)

    for lhs, rhs in pairs if "prob-subsume" in kinds else ():
        argv = ["query", path, "prob-subsume", "--strategy", strategy, lhs, rhs]

        def check_prob(s, argv, lhs=lhs, rhs=rhs):
            got = float(_result(s, argv, path, "1e-09")[0]["probability"])
            want = ref.prob_subsumption(tables, lhs, rhs)
            return None if close(got, want) else f"probability {got!r}, expected {want!r}"
        add("prob-subsume", argv, check_prob)

    for i, (lhs, rhs) in enumerate(pairs if "cond-cost" in kinds else ()):
        # with several pairs, the modes alternate between them
        for mode in MODES if len(pairs) == 1 else MODES[i % 2: i % 2 + 1]:
            argv = ["query", path, "cond-cost", "--strategy", strategy, "--mode", mode, lhs, rhs]
            add("cond-cost", argv, _cond_cost_check(ref, tables, path, lhs, rhs, mode,
                                                    brute_force))

    if "optimize-pure" in kinds:
        argv = ["query", path, "optimize", "--pure"]
        add("optimize-pure", argv, _optimum_check(ref, path, None, None, +1))

    lhs, rhs = pairs[0]
    for mode in evidence_modes if "optimize-evidence" in kinds else ():
        argv = ["query", path, "optimize", "--pure", "--evidence", lhs, rhs, "--mode", mode]
        sign = +1 if mode == "opt" else -1
        add("optimize-evidence", argv, _optimum_check(ref, path, lhs, rhs, sign))

    if "decide" in kinds:
        for problem in problems:
            evidence = (lhs, rhs) if problem == "d-dom-opt" else ()
            argv = ["query", path, "decide", "--problem", problem, "--bound", str(DECIDE_BOUND)]
            argv += ["--evidence", *evidence] if evidence else []
            add("decide", argv, _decide_check(ref, path, *(evidence or (None, None))))

    if "optimize-lp" in kinds:
        argv = ["query", path, "optimize", "--lp"]

        def check_lp(s, argv):
            pairs_, body = _result(s, argv, path, "1e-07")
            value = float(pairs_["value"])
            pure = ref.pure_optimum()
            if value > pure + LP_TOL:
                return f"LP value {value!r} exceeds the pure optimum {pure!r}"
            entries = [p for t in _strategy_tables(body).values() for p in t.values()]
            if not entries or any(not 0.0 <= p <= 1.0 for p in entries):
                return "LP strategy table entry outside [0, 1]"
            return None
        add("optimize-lp", argv, check_lp)

    if "export-game-tree" in kinds:
        argv = ["query", path, "export-game-tree"]

        def check_tree(s, argv):
            lines = s.splitlines()
            leaves = sum("shape=diamond" in line for line in lines)
            boxes = sum("shape=box" in line for line in lines)
            want_boxes = sum(2 ** spec.variables.index(d) for d in spec.decisions)
            if lines[0] != "digraph game_tree {" or lines[-1] != "}":
                return "not a DOT digraph"
            if leaves != len(ref.worlds) or boxes != want_boxes:
                return f"{leaves} leaves and {boxes} decision nodes, expected " \
                       f"{len(ref.worlds)} and {want_boxes}"
            return None
        add("export-game-tree", argv, check_tree)
    return out


def _cond_cost_check(ref, tables, path, lhs, rhs, mode, brute_force):
    sign = +1 if mode == "opt" else -1

    def check(s, argv):
        text = _result(s, argv, path, "1e-09")[0]["conditional"]
        got = json.loads(text)
        want = ref.bound(tables, lhs, rhs, sign)
        if not close(got["value"], want):
            return f"{mode} bound {got['value']!r}, expected {want!r}"
        # the reported worlds must carry the reported mass and average
        joint = dict(zip((w[0] for w in ref.worlds), ref.joints(tables)))
        cost = {w[0]: w[3] for w in ref.worlds}
        forced, _ = ref.classified(tables, lhs, rhs)
        included = got["included_worlds"]
        if forced and not {b for b, _p, _c in forced} <= set(included):
            return "a forced world is missing from included_worlds"
        mass = sum(joint[b] for b in included)
        if not close(got["evidence_probability"], mass):
            return f"evidence_probability {got['evidence_probability']!r}, expected {mass!r}"
        average = sum(joint[b] * cost[b] for b in included) / mass
        if not close(got["value"], average):
            return f"value {got['value']!r} is not the average {average!r} of its worlds"
        if brute_force is not None:
            low, high = brute_force(lhs, rhs)
            oracle_value = low if sign > 0 else high
            if not close(got["value"], oracle_value):
                return f"{mode} bound {got['value']!r}, subset oracle {oracle_value!r}"
        return None
    return check


def _optimum_check(ref, path, lhs, rhs, sign):
    def check(s, argv):
        pairs_, body = _result(s, argv, path, "1e-09")
        value = float(pairs_["value"])
        want = ref.pure_optimum(lhs, rhs, sign)
        if not close(value, want):
            return f"optimum {value!r}, expected {want!r}"
        tables = _strategy_tables(body)
        achieved = (ref.expected_cost(tables) if lhs is None
                    else ref.bound(tables, lhs, rhs, sign))
        if not close(value, achieved):
            return f"reported strategy scores {achieved!r}, not {value!r}"
        return None
    return check


def _decide_check(ref, path, lhs, rhs):
    def check(s, argv):
        pairs_ = _result(s, argv, path)[0]
        optimum = ref.pure_optimum(lhs, rhs, +1)
        if not close(float(pairs_["optimum"]), optimum):
            return f"optimum {pairs_['optimum']}, expected {optimum!r}"
        if abs(optimum - DECIDE_BOUND) > 1e-6 and pairs_["answer"] != str(optimum < DECIDE_BOUND).lower():
            return f"answer {pairs_['answer']} for optimum {optimum!r}"
        return None
    return check


# --- workloads ---------------------------------------------------------------

ALL_KINDS = tuple(KINDS)


def build_queries(workload, specs, paths, modules):
    """The workload's query list, one pass of the closed loop."""
    queries = _workload_queries(workload, specs, paths, modules)
    fast = [q for q in queries if q.kind in SPREAD.get(workload, ())]
    if not fast:
        return queries
    slow = [q for q in queries if q.kind not in SPREAD[workload]]
    return [q for i in range(SPREAD_BLOCKS) for q in fast + slow[i::SPREAD_BLOCKS]]


def _workload_queries(workload, specs, paths, modules):
    el = modules["el"]
    refs = [Reference(spec, el) for spec in specs]
    if workload == "world-queries":
        (spec,), (path,), (ref,) = specs, paths, refs
        return (
            kb_queries(spec, path, ref, ("validate", "subsume", "expected-cost", "worlds"),
                       "mixed", spec.concept_pairs)
            + kb_queries(spec, path, ref, ("expected-cost",), "pure", spec.concept_pairs)
            + kb_queries(spec, path, ref, ("prob-subsume", "cond-cost"), "mixed",
                         spec.concept_pairs)
            # the strategy kinds are not what this workload is for: each runs
            # once, without the second evidence mode and decision problem,
            # which repeat the same search
            + kb_queries(spec, path, ref, ("optimize-pure", "optimize-evidence", "decide",
                                           "optimize-lp", "export-game-tree"),
                         "mixed", spec.concept_pairs[:1], evidence_modes=("opt",),
                         problems=("d-opt",))
        )
    if workload == "strategy-search":
        queries = kb_queries(specs[0], paths[0], refs[0], ALL_KINDS[:-2], "mixed",
                             specs[0].concept_pairs)
        for spec, path, ref in zip(specs[1:], paths[1:], refs[1:]):
            queries += kb_queries(spec, path, ref, ("optimize-lp", "export-game-tree"),
                                  "pure", spec.concept_pairs)
        return queries
    evidence = modules["evidence"]
    queries = []
    for spec, path, ref in zip(specs, paths, refs):
        doc = modules["kbfile"].load_kb_text(spec.to_yaml())

        def brute_force(lhs, rhs, doc=doc):
            query = evidence.EvidenceQuery(el.parse_concept(lhs), el.parse_concept(rhs))
            return evidence.brute_force_conditional_bounds(doc.kb, doc.strategy("pure"), query)

        queries += kb_queries(spec, path, ref, ALL_KINDS, "pure", spec.concept_pairs,
                              brute_force=brute_force)
    return queries


# --- running -----------------------------------------------------------------


def fresh_import():
    """Import cider from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "cider" or m.startswith("cider.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("cider.cli")
    return {layer: sys.modules[f"cider.{layer}"] for layer in tracing.LAYERS}


def run_cli(main, argv, clock=None):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.
    With a clock, the kernel samples it takes during the call are left out
    of the call's seconds."""
    out, err = io.StringIO(), io.StringIO()
    probing = clock.probing() if clock else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), probing:
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed query, not a crash
            code = f"exception {exc!r}"
        end = perf_counter()
    elapsed = end - start - (clock.busy(start, end) if clock else 0.0)
    return code, out.getvalue(), err.getvalue(), elapsed


def setup(workload, seed, workdir):
    """Generate and write the KB files, import cider and warm up once."""
    start = perf_counter()
    specs = kbgen.generate(workload, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    paths = []
    for spec in specs:
        path = workdir / f"{spec.name}.kb"
        path.write_text(spec.to_yaml(), encoding="utf-8")
        paths.append(str(path.relative_to(ROOT)))
    modules = fresh_import()
    run_cli(modules["cli"].main, ["validate", paths[0]])
    return perf_counter() - start, specs, paths, modules


def cold_start(path):
    """Wall time of `python -m cider.cli validate` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cider.cli", "validate", path],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return perf_counter() - start, proc


class Runner:
    """Runs queries, times them and checks every answer."""

    def __init__(self, cli, clock=None):
        self.cli = cli  # main is looked up per call, so tracing can wrap it
        self.clock = clock  # samples machine speed during each query, if set
        self.latencies = defaultdict(list)  # (kind, argv) -> (start, seconds) per run
        self.verdicts = {}  # argv -> (stdout digest, problem or None)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {problem}")

    def run(self, query):
        start = perf_counter()
        code, stdout, stderr, elapsed = run_cli(self.cli.main, query.argv, self.clock)
        self.latencies[query.kind, tuple(query.argv)].append((start, elapsed))
        if code != 0:
            problem = f"exit {code}: {stderr.strip()[-300:]}"
        else:
            key = tuple(query.argv)
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            if key not in self.verdicts:
                self.verdicts[key] = (digest, query.check(stdout))
            first, problem = self.verdicts[key]
            if digest != first:
                problem = "stdout differs from an earlier run of the same query"
        self.record(" ".join(query.argv), problem)
        return elapsed

    def run_pass(self, queries, deadline=None, on_query=None):
        """One pass over the query list; returns the summed query time.
        Stops early, between queries, once the deadline has passed."""
        # Objects alive now (modules, reference answers, verdicts) are
        # left out of later collections, so a query's collection work
        # depends on its own allocations, not on what ran before it.
        gc.collect()
        gc.freeze()
        total = 0.0
        for i, query in enumerate(queries):
            if deadline is not None and perf_counter() >= deadline:
                break
            if on_query:
                on_query(i)
            total += self.run(query)
        return total


def percentile_summary(values):
    """Highest of p75/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return ""


def end_to_end(runner, seconds, queries, samples, samplers, clock):
    """Passes over the query list until the time is up (at least one).

    ``samplers`` maps a metric to (count, function returning one timed
    sample), added to ``samples`` as (start, seconds).  Those calls are
    spread evenly over the run rather than bunched, so that one slow spell
    of the machine does not hit all of them.  Every timing is scaled to
    the nominal machine speed by ``clock``, which samples between and during
    queries.
    """
    start = perf_counter()
    due = sorted((start + (j + 0.5) * seconds / count, name)
                 for name, (count, _fn) in samplers.items() for j in range(count))

    def take(name):
        clock.bracket()
        samples[name].append((perf_counter(), samplers[name][1]()))
        clock.bracket()

    def between_queries(_i):
        clock.tick()
        if due and perf_counter() >= due[0][0]:
            take(due.pop(0)[1])

    passes = 0
    while True:
        runner.run_pass(queries, deadline=None if passes == 0 else start + seconds,
                        on_query=between_queries)
        passes += 1
        if perf_counter() - start >= seconds:
            break
    for _time, name in due:
        take(name)
    clock.bracket()

    def scaled(timings):
        return [elapsed * clock.scale(t, t + elapsed) for t, elapsed in timings]

    def unscaled(value):  # the report also shows each timing as measured
        return f"unscaled={value:.6g}"

    metrics = {name: (statistics.median(scaled(ts)), "s", len(ts),
                      unscaled(statistics.median(e for _t, e in ts)))
               for name, ts in samples.items()}
    # Each query's median over the passes, so that a pass cut short by the
    # deadline does not change the mix of queries a metric summarizes.
    latencies = {key: scaled(ts) for key, ts in runner.latencies.items()}
    per_query = {key: statistics.median(ts) for key, ts in latencies.items()}
    raw = {key: statistics.median(e for _t, e in ts) for key, ts in runner.latencies.items()}
    n_samples = sum(len(ts) for ts in latencies.values())
    metrics["throughput_qps"] = (len(per_query) / sum(per_query.values()), "1/s", n_samples,
                                 unscaled(len(raw) / sum(raw.values())))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", 1, "")
    for kind, name in KINDS.items():
        medians = [t for (k, _argv), t in per_query.items() if k == kind]
        ts = [t for (k, _argv), ts in latencies.items() if k == kind for t in ts]
        measured = statistics.median(t for (k, _argv), t in raw.items() if k == kind)
        metrics[name] = (statistics.median(medians), "s", len(ts),
                         f"{percentile_summary(ts)} {unscaled(measured)}".strip())
    return metrics, passes


def write_samples(path, runner, samples, clock):
    """Every timing of the run and its scale, and every kernel sample, as
    tab-separated (what, start, seconds, scale) rows for later study."""
    rows = [(name, t, e, clock.scale(t, t + e)) for name, ts in samples.items() for t, e in ts]
    rows += [(" ".join(argv), t, e, clock.scale(t, t + e))
             for (_kind, argv), ts in runner.latencies.items() for t, e in ts]
    rows += [("kernel", t, e, "") for t, e in zip(clock.times, clock.seconds)]
    with open(path, "w", encoding="utf-8") as out:
        out.writelines("\t".join(map(str, row)) + "\n" for row in sorted(rows, key=lambda r: r[1]))


def traced(runner, queries, modules, spans_path):
    """One untraced pass, then one traced pass over the same queries.

    The untraced pass also computes the reference answers, so the traced
    pass times only the program; the difference between the two passes'
    query time is the tracing overhead.
    """
    tracer = tracing.Tracer(modules)

    def on_query(i):
        tracer.request = i

    untraced_s = runner.run_pass(queries)
    tracer.install()
    try:
        traced_s = runner.run_pass(queries, on_query=on_query)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, [q.argv for q in queries])
    count = tracer.counters()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit, 1, "")

    for name, unit in PER_LAYER_COUNTS:
        put(name, count.get(COUNT_SOURCES.get(name, name), 0), unit)
    calls = count.get("el.is_subsumed.calls", 0)
    put("el.entailment_useful_ratio",
        count["el.is_subsumed.distinct_tboxes"] / calls if calls else 0.0, "ratio")
    for name, value in _layer_times(tracer).items():
        put(name, value, "s")
    put("trace.spans", tracer.span_count(), "count")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.overhead_ratio", (traced_s - untraced_s) / untraced_s, "ratio")
    return metrics, 2


# per-layer count metric -> tracer counter, where the names differ
COUNT_SOURCES = {
    "diagram.worlds.yielded": "diagram.worlds",
    "optimizer.strategies_enumerated": "optimizer.enumerate_pure_strategies",
}
PER_LAYER_COUNTS = [
    ("kbfile.load_kb_text.calls", "count"),
    ("kbfile.bytes_parsed", "bytes"),
    ("diagram.worlds.yielded", "count"),
    ("diagram.joint_probability.calls", "count"),
    ("diagram.cost_distribution.calls", "count"),
    ("contextual.restrict.calls", "count"),
    ("el.is_subsumed.calls", "count"),
    ("el.is_subsumed.distinct_tboxes", "count"),
    ("evidence.classify_worlds.calls", "count"),
    ("optimizer.strategies_enumerated", "count"),
    ("optimizer.tree_leaves", "count"),
    ("optimizer.sequences", "count"),
    ("optimizer.infosets", "count"),
    ("simplex.minimize.rows", "count"),
    ("simplex.minimize.cols", "count"),
]
# per-layer time metric -> traced function whose inclusive time it is
INCLUSIVE_TIMES = {
    "kbfile.load_kb_text.s": "kbfile.load_kb_text",
    "diagram.validate.s": "diagram.validate",
    "diagram.joint_probability.s": "diagram.joint_probability",
    "diagram.cost_distribution.s": "diagram.cost_distribution",
    "contextual.restrict.s": "contextual.restrict",
    "el.is_subsumed.s": "el.is_subsumed",
    "el.normalize.s": "el.normalize",
    "el.saturate.s": "el.saturate",
    "evidence.classify_worlds.s": "evidence.classify_worlds",
    "optimizer.build_game_tree.s": "optimizer.build_game_tree",
    "optimizer.assemble_lp.s": "optimizer.assemble_lp",
    "optimizer.plan_to_strategy.s": "optimizer.plan_to_strategy",
    "simplex.minimize.s": "simplex.minimize",
}


def _layer_times(tracer):
    out = {name: tracer.inclusive.get(key, 0.0) for name, key in INCLUSIVE_TIMES.items()}
    st = tracer.self_time
    out["cli.main.self_s"] = st.get("cli.main", 0.0)
    out["contextual.prob_subsumption.self_s"] = st.get("contextual.prob_subsumption", 0.0)
    out["evidence.bound.self_s"] = (st.get("evidence.optimistic_expected_cost", 0.0)
                                    + st.get("evidence.pessimistic_expected_cost", 0.0))
    out["optimizer.optimal_pure_strategy.self_s"] = st.get("optimizer.optimal_pure_strategy", 0.0)
    for layer, t in tracer.layer_self_times().items():
        if layer != "cli":
            out[f"{layer}.self_s"] = t
    return out


def run_workload(workload, seed, seconds, trace):
    """Everything one benchmark run does; returns (result dict, report lines)."""
    workdir = HERE / ".work" / f"{workload}-seed{seed}"
    started = perf_counter()
    elapsed, specs, paths, modules = setup(workload, seed, workdir)
    src = str(ROOT / "src")
    if not modules["cli"].__file__.startswith(src):
        raise SystemExit(f"error: imported cider from {modules['cli'].__file__}, not {src}")
    main = modules["cli"].main
    clock = None if trace else RefClock()
    runner = Runner(modules["cli"], clock)

    # a fresh interpreter must print what the in-process call prints
    _code, want, _err, _t = run_cli(main, ["validate", paths[0]])

    def timed_cold_start():
        elapsed, proc = cold_start(paths[0])
        runner.record("cold start", None if proc.returncode == 0 and proc.stdout == want
                      else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return elapsed

    queries = build_queries(workload, specs, paths, modules)
    if trace:
        metrics, passes = traced(runner, queries, modules, workdir / "spans.tsv.gz")
    else:
        # the later set-ups import cider again, into a separate directory;
        # the queries keep using the modules imported first
        samplers = {
            "setup_s": (SETUPS - 1, lambda: setup(workload, seed, workdir / "setup")[0]),
            "cold_start_s": (COLD_STARTS, timed_cold_start),
        }
        samples = {"setup_s": [(started, elapsed)], "cold_start_s": []}
        metrics, passes = end_to_end(runner, seconds, queries, samples, samplers, clock)
        write_samples(workdir / "samples.tsv", runner, samples, clock)

    lines = [f"workload {workload} seed {seed}: {len(queries)} queries per pass, "
             f"{passes} pass(es), trace={int(trace)}"]
    for spec in specs:
        shape = " ".join(f"{k}={v}" for k, v in spec.shape().items())
        lines.append(f"  input {spec.name}: {shape}")
    lines.append(f"  {'metric':40} {'value':>14} {'unit':6} {'samples':>7}")
    for name, (value, unit, n, extra) in metrics.items():
        lines.append(f"  {name:40} {value:14.6g} {unit:6} {n:7d} {extra}".rstrip())
    if not trace:
        lines.append(f"  reference kernel: median {clock.median_s() * 1e3:.3f} ms over "
                     f"{len(clock.seconds)} samples; times above are scaled to "
                     f"{NOMINAL_S * 1e3:g} ms")
    for problem in runner.problems:
        lines.append(f"  FAILED {problem}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n, _x) in metrics.items()},
    }
    return result, lines


def run_all(seed, seconds, trace):
    """Each workload in its own interpreter; non-zero exit if any check failed."""
    results = {}
    ok = True
    for workload in kbgen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        results[workload] = json.loads(lines[-1])
        ok = ok and results[workload]["correct"]
    print(json.dumps(results, sort_keys=True))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*kbgen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cider" / "__init__.py").is_file():
        print(f"error: no cider sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the benchmark and its cold-start subprocesses, so that
        # the kernel samples the speed of the CPU the program runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
