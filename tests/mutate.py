"""Mutation check: each mutant of ``mutants.tsv`` is killed by its tests.

    python tests/mutate.py

Each row of ``mutants.tsv`` is tab-separated: a file of the repository,
an exact text that occurs in it once, the text that replaces it, and the
space-separated test ids that must fail once it is replaced.  An id
without a parameter stands for every parametrization of the test.

The tree is copied to a temporary directory: ``src``, ``tests``,
``pyproject.toml``, ``README.md`` (the tour and library tests read it)
and ``perfbench/kbgen.py``, which ``conftest.bench_specs`` imports.  The
copy's ``src`` goes first on ``PYTHONPATH``, so an installed ``cider``
is not the one the tests import, and the script checks that.  The
listed tests must first pass on the unchanged copy; then each mutant is
applied alone, its tests are run, and the file is restored.

Exits 1 when an old text does not occur exactly once, when a listed
test fails on the unchanged copy, or when a mutant survives: pytest
passes, or the failed tests miss a listed id.  A run past TIMEOUT
seconds counts as killed.
"""

import csv
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).resolve().parent / "mutants.tsv"
COPIED = ("src", "tests", "pyproject.toml", "README.md", "perfbench/kbgen.py")
TIMEOUT = 600


def read_rows():
    with open(TABLE, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter="\t", quoting=csv.QUOTE_NONE)
        header = next(reader)
        assert header == ["file", "old", "new", "tests"], header
        return [(path, old, new, ids.split()) for path, old, new, ids in reader]


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source, target = ROOT / name, dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if source.is_dir():
            shutil.copytree(source, target, ignore=ignore)
        else:
            shutil.copy2(source, target)


def environment(tree):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_tests(tree, ids):
    """(pytest's exit code, the ids of the failed and errored tests);
    the code is None past TIMEOUT."""
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--no-header", *ids]
    try:
        proc = subprocess.run(command, cwd=tree, env=environment(tree), timeout=TIMEOUT,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return None, set()
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed


def missed(ids, failed):
    """The listed ids of which no parametrization failed."""
    return [i for i in ids if not any(f == i or f.startswith(i + "[") for f in failed)]


def main():
    rows = read_rows()
    with tempfile.TemporaryDirectory(prefix="cider-mutate-") as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        where = subprocess.run([sys.executable, "-c", "import cider; print(cider.__file__)"],
                               cwd=tree, env=environment(tree), capture_output=True, text=True,
                               check=True).stdout.strip()
        if not Path(where).is_relative_to(tree / "src"):
            print(f"the copy imports cider from {where}", file=sys.stderr)
            return 1
        bad = []
        for n, (path, old, _, _) in enumerate(rows, 1):
            count = (tree / path).read_text(encoding="utf-8").count(old)
            if count != 1:
                bad.append(n)
                print(f"row {n}: {path} holds its old text {count} times, not once: {old!r}")
        every = sorted({i for *_, ids in rows for i in ids})
        code, failed = run_tests(tree, every)
        if code != 0:
            print(f"unmutated: pytest exit {code}; failed {sorted(failed)}")
            return 1
        for n, (path, old, new, ids) in enumerate(rows, 1):
            if n in bad:
                continue
            target = tree / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code, failed = run_tests(tree, ids)
            finally:
                target.write_text(original, encoding="utf-8")
            took = f"{time.perf_counter() - start:.1f} s"
            if code is None:
                print(f"row {n}: killed (timeout) in {took}: {path}")
            elif code == 1 and not missed(ids, failed):
                print(f"row {n}: killed in {took}: {path}")
            else:
                bad.append(n)
                print(f"row {n}: SURVIVED in {took} (pytest exit {code}, "
                      f"not failing: {missed(ids, failed)}): {path}: {old!r} -> {new!r}")
    print(f"{len(rows) - len(bad)} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
