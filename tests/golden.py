"""Committed digests of cider's reports, so byte identity is a tier-1 check.

    python tests/golden.py           # compare with golden_reports.tsv
    python tests/golden.py --write   # rewrite golden_reports.tsv

Each line of ``golden_reports.tsv`` is one command line, tab-separated:
the argv (shell-quoted), the exit code, and the SHA-256 of its stdout
and of its stderr.  The commands run through ``cider.cli.main`` in a
fresh directory that holds the benchmark's generated KBs at seed 1, so a
KB is named by its file name and every ``input:`` line reads the same
wherever the set runs.  They are the README's command-line tour, then
for every KB every subcommand with both of its strategies, both modes,
every ``optimize`` and ``decide`` variant and the ``--forgetful`` ones.

A change that alters a report on purpose rewrites the file and names
the lines it changed.
"""

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "golden_reports.tsv"
SEED = 1
BOUND = "10.5"


def bench_specs(seed=SEED):
    """The benchmark's generated KB specs of every workload at one seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import kbgen
    finally:
        sys.path.pop(0)
    return [
        spec
        for workload in ("world-queries", "strategy-search", "small-kbs")
        for spec in kbgen.generate(workload, seed)
    ]


def tour_commands():
    """Each cider line of the README's command-line tour, as an argv."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text[text.index("## Command-line tour"):text.index("\nExit codes")]
    lines = [re.sub(r" *[#|].*$", "", line) for line in tour.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("cider ")]


def kb_commands(spec):
    """The commands asked of one generated KB."""
    kb = f"{spec.name}.kb"
    query = ["query", kb]
    out = [["validate", kb]]
    pairs = [list(pair) for pair in spec.concept_pairs]
    for pair in pairs:
        out.append(query + ["subsume", "--world", spec.world_bits, *pair])
    for name in sorted(spec.strategies):
        strategy = ["--strategy", name]
        out.append(query + ["expected-cost", *strategy])
        out.append(query + ["worlds", *strategy])
        out.append(query + ["prob-subsume", *strategy, "--context", spec.variables[0],
                            *pairs[0]])
        for pair in pairs:
            out.append(query + ["prob-subsume", *strategy, *pair])
            for mode in ("opt", "pes"):
                out.append(query + ["cond-cost", *strategy, "--mode", mode, *pair])
    optimize = query + ["optimize"]
    for direction in ("min", "max"):
        out.append(optimize + ["--pure", "--direction", direction])
        for pair in pairs:
            for mode in ("opt", "pes"):
                out.append(optimize + ["--pure", "--evidence", *pair, "--mode", mode,
                                       "--direction", direction])
    out.append(optimize + ["--pure", "--evidence", *pairs[0]])
    out.append(optimize + ["--lp"])
    out.append(optimize + ["--lp", "--fully-mixed", "0.01"])
    for problem in ("d-opt", "d-pes"):
        out.append(query + ["decide", "--problem", problem, "--bound", BOUND])
    for pair in pairs:
        for problem in ("d-dom-opt", "d-dom-pes"):
            out.append(query + ["decide", "--problem", problem, "--bound", BOUND,
                                "--evidence", *pair])
    out.append(query + ["export-game-tree"])
    forgetful = ["--forgetful"] + query
    out.append(forgetful + ["expected-cost", "--strategy", sorted(spec.strategies)[0]])
    out.append(forgetful + ["optimize", "--pure"])
    out.append(forgetful + ["optimize", "--lp"])
    for mode in ("opt", "pes"):
        out.append(forgetful + ["optimize", "--pure", "--evidence", *pairs[0],
                                "--mode", mode])
    out.append(forgetful + ["decide", "--problem", "d-dom-opt", "--bound", BOUND,
                            "--evidence", *pairs[0]])
    return out


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_reports(directory):
    """(argv, exit code, stdout digest, stderr digest) of every command,
    run in directory after writing the KBs there."""
    from cider import cli

    directory = Path(directory)
    specs = bench_specs()
    for spec in specs:
        (directory / f"{spec.name}.kb").write_text(spec.to_yaml(), encoding="utf-8")
    commands = tour_commands() + [argv for spec in specs for argv in kb_commands(spec)]
    rows = []
    start = os.getcwd()
    os.chdir(directory)  # contextlib.chdir needs Python 3.11
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            rows.append((shlex.join(argv), str(code), _sha256(out.getvalue()),
                         _sha256(err.getvalue())))
    finally:
        os.chdir(start)
    return rows


def read_digests(path=DIGESTS):
    return [tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines()]


def write_digests(rows, path=DIGESTS):
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def differences(rows, expected):
    """Lines of a report comparing two digest tables, empty when equal."""
    if [row[0] for row in rows] != [row[0] for row in expected]:
        return ["the command set differs from the committed one; "
                "rewrite it with: python tests/golden.py --write"]
    return [f"{argv}: exit {code} {out[:12]} {err[:12]}, committed "
            f"exit {want[1]} {want[2][:12]} {want[3][:12]}"
            for (argv, code, out, err), want in zip(rows, expected)
            if (argv, code, out, err) != want]


def main(argv=None):
    import tempfile

    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as directory:
        rows = run_reports(directory)
    if args == ["--write"]:
        write_digests(rows)
        print(f"wrote {len(rows)} lines to {DIGESTS}")
        return 0
    problems = differences(rows, read_digests())
    print("\n".join(problems) or f"{len(rows)} reports match")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
