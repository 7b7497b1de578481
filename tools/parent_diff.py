"""Compare what `wbary` writes and prints on the working tree and on a git
revision.

    python tools/parent_diff.py REV

Checks REV out into a temporary `git worktree` (removed again on exit) and,
on both trees, runs every `wbary run` kind at each p of P_GRID for each seed
of SEEDS, plus `wbary selftest` and `wbary selftest --fast`.  Each is a fresh
`python -m wbary.cli` process with PYTHONPATH=<tree>/src and one BLAS
thread.  Prints one table: identical runs, runs whose artifacts differ (each
differing file with every differing JSON key and both values, or with its
first differing text line and the count of differing lines), runs whose
stdout or stderr differ (the same line detail, selftest seconds stripped)
and exit-code changes.
Timings are ignored.  Exits 1 when anything differs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_MISSING = object()
# A superset of the exit-code ledger's grid in tests/test_cli.py
# (_LEDGER_P, seeds of _LEDGER).  The ledger pins exit codes only, in
# process, within a Tier-1 time budget; this tool compares whole outputs
# across trees, so it adds p = 1.7 and 2.5, off the ledger's grid, where a
# change can move artifacts without moving an exit code.  A p added to the
# ledger belongs here too.
P_GRID = (1.05, 1.2, 1.3, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0)
SEEDS = (0, 7)
CATEGORIES = ("artifacts", "stdout", "stderr", "exit code")
# The wall seconds that selftest appends to each check line.
_SECONDS = re.compile(r"  \[\d+\.\d+ s\]$", re.M)


def commands(kinds) -> list:
    """(name, argv) of every command of the matrix."""
    runs = [
        (f"run-{kind}-p{p}-s{seed}",
         ["run", "--kind", kind, "--p", str(p), "--seed", str(seed),
          "--out", "artifacts"])
        for kind in kinds for p in P_GRID for seed in SEEDS
    ]
    return runs + [("selftest", ["selftest"]),
                   ("selftest-fast", ["selftest", "--fast"])]


def run_matrix(tree: Path, out: Path, cmds) -> None:
    """Run each command on tree in its own directory out/NAME, keeping its
    artifacts, stdout, stderr and exit code there."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, argv in cmds:
        where = out / name
        where.mkdir(parents=True)
        res = subprocess.run([sys.executable, "-m", "wbary.cli", *argv],
                             cwd=where, env=env, capture_output=True,
                             text=True)
        (where / "stdout.txt").write_text(res.stdout)
        # Tracebacks and warnings name the tree's own files.
        (where / "stderr.txt").write_text(res.stderr.replace(str(tree), "."))
        (where / "exit_code.txt").write_text(f"{res.returncode}\n")


def _json_keys(a, b, path=""):
    """'PATH: A -> B' for every key or index at which a and b differ, with
    PATH dotted and both values as JSON (a key one side lacks reads as
    missing there); lists of unequal length differ as a whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [found for key in sorted(set(a) | set(b))
                for found in _json_keys(a.get(key, _MISSING),
                                        b.get(key, _MISSING), f"{path}{key}.")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [found for i, (x, y) in enumerate(zip(a, b))
                for found in _json_keys(x, y, f"{path}{i}.")]
    if a == b:
        return []
    x, y = ("missing" if v is _MISSING else json.dumps(v) for v in (a, b))
    return [f"{path.rstrip('.') or '(top level)'}: {x} -> {y}"]


def _artifact_diffs(a: Path, b: Path) -> list:
    """One detail per artifact file that differs between directories a and
    b (either may be missing): every differing JSON key with both values,
    or the first differing text line and the count of differing lines.
    manifest.json goes last: it only holds the digests of the others."""
    def files(d):
        return {f.relative_to(d) for f in d.rglob("*") if f.is_file()}

    fa, fb = files(a), files(b)
    out = []
    for rel in sorted(fa | fb, key=lambda r: (r.name == "manifest.json", r)):
        if rel not in fa or rel not in fb:
            out.append(f"{rel} only in {'change' if rel in fb else 'parent'}")
            continue
        x, y = (a / rel).read_bytes(), (b / rel).read_bytes()
        if x == y:
            continue
        if rel.suffix == ".json":
            keys = _json_keys(json.loads(x), json.loads(y))
            out.append(f"{rel} " + ("; ".join(f"key {k}" for k in keys)
                                    or "bytes"))
        else:
            out.append(f"{rel} {_line_diff(x.decode(), y.decode())}")
    return out


def _line_diff(a: str, b: str) -> str:
    """The first differing line of a and b, line ends included (a line one
    side lacks reads as missing there), and how many of the lines differ."""
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    n = max(len(la), len(lb))
    la += [None] * (n - len(la))
    lb += [None] * (n - len(lb))
    diff = [i for i in range(n) if la[i] != lb[i]]
    x, y = ("missing" if v is None else repr(v)
            for v in (la[diff[0]], lb[diff[0]]))
    return f"line {diff[0] + 1}: {x} -> {y} ({len(diff)} of {n} lines differ)"


def compare(parent: Path, change: Path) -> dict:
    """{name: [(category, detail), ...]} for every command directory in
    either result tree; the list is empty for an identical run."""
    out = {}
    for name in sorted({d.name for d in parent.iterdir()}
                       | {d.name for d in change.iterdir()}):
        a, b = parent / name, change / name
        if not (a.is_dir() and b.is_dir()):
            side = "change" if b.is_dir() else "parent"
            out[name] = [("artifacts", f"run only in {side}")]
            continue
        diffs = [("artifacts", detail) for detail in
                 _artifact_diffs(a / "artifacts", b / "artifacts")]
        for stream in ("stdout", "stderr"):
            x = _SECONDS.sub("", (a / f"{stream}.txt").read_text())
            y = _SECONDS.sub("", (b / f"{stream}.txt").read_text())
            if x != y:
                diffs.append((stream, _line_diff(x, y)))
        ca = (a / "exit_code.txt").read_text().strip()
        cb = (b / "exit_code.txt").read_text().strip()
        if ca != cb:
            diffs.append(("exit code", f"{ca} -> {cb}"))
        out[name] = diffs
    return out


def table(result: dict) -> str:
    """The comparison as one table: a count per category, then one line per
    difference."""
    counts = {"identical": sum(not d for d in result.values())}
    counts.update({cat: sum(any(c == cat for c, _ in d)
                            for d in result.values()) for cat in CATEGORIES})
    lines = [f"{cat:<12}{n:>5}" for cat, n in counts.items()]
    lines += [f"  {cat:<10} {name}: {detail}"
              for name, diffs in result.items() for cat, detail in diffs]
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rev = sys.argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    from wbary.cli import KINDS

    cmds = commands(KINDS)
    with tempfile.TemporaryDirectory(prefix="parent-diff-") as tmp:
        tmp = Path(tmp)
        parent_tree = tmp / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        "--quiet", str(parent_tree), rev], check=True)
        try:
            with ThreadPoolExecutor(2) as pool:
                list(pool.map(run_matrix, (parent_tree, ROOT),
                              (tmp / "parent", tmp / "change"), (cmds, cmds)))
        finally:
            # check=False: a failed removal must not hide an error from the
            # runs above.
            removed = subprocess.run(["git", "-C", str(ROOT), "worktree",
                                      "remove", "--force", str(parent_tree)])
            if removed.returncode:
                print(f"warning: could not remove the worktree {parent_tree};"
                      " run `git worktree prune`", file=sys.stderr)
        result = compare(tmp / "parent", tmp / "change")
        codes = Counter((d / "exit_code.txt").read_text().strip()
                        for d in (tmp / "change").iterdir())
    print(f"{rev} against the working tree, {len(result)} commands; exit "
          "codes on the working tree: "
          + ", ".join(f"{c} x{n}" for c, n in sorted(codes.items())))
    print(table(result))
    return 1 if any(result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
