"""The comparison step of tools/parent_diff.py on hand-made result trees."""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "parent_diff.py"
_spec = importlib.util.spec_from_file_location("parent_diff", _TOOL)
parent_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parent_diff)


def _result(root, name, code=0, stdout="", stderr="", artifacts=None):
    where = root / name
    (where / "artifacts").mkdir(parents=True)
    (where / "stdout.txt").write_text(stdout)
    (where / "stderr.txt").write_text(stderr)
    (where / "exit_code.txt").write_text(f"{code}\n")
    for fname, content in (artifacts or {}).items():
        (where / "artifacts" / fname).write_text(content)


def test_compare_reports_each_kind_of_difference(tmp_path):
    summary = {"ok": True, "lp": {"iterations": 12, "status": "optimal"}}
    moved = {"ok": True, "lp": {"iterations": 13, "status": "optimal"}}
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, summ, code, table in ((parent, summary, 0, "z\n1.0\n"),
                                    (change, moved, 3, "z\n1.0\n")):
        _result(root, "same", artifacts={"z.csv": table})
        _result(root, "json", artifacts={
            "manifest.json": json.dumps({"files": {"summary.json": code}}),
            "summary.json": json.dumps(summ)})
        _result(root, "code", code=code)
    _result(parent, "csv", artifacts={"a.csv": "1\n", "b.csv": "2\n"})
    _result(change, "csv", artifacts={"a.csv": "1\n", "b.csv": "2.5\n"})
    # A text artifact names its first differing line, as for pushforward.csv
    # (CRLF line ends, and a row that only one side has).
    head = "x0,value\r\n0.5,1\r\n"
    _result(parent, "grid", artifacts={"p.csv": head + "1.5,2\r\n"})
    _result(change, "grid", artifacts={"p.csv": head + "1.5,2.25\r\n"})
    _result(parent, "rows", artifacts={"p.csv": head})
    _result(change, "rows", artifacts={"p.csv": head + "1.5,2\r\n"})
    _result(parent, "extra", artifacts={"a.csv": "1\n"})
    _result(change, "extra", artifacts={"a.csv": "1\n", "b.csv": "2\n"})
    _result(parent, "selftest", code=3,
            stdout="PASS  one: fine  [1.25 s]\nFAIL  two: bad  [0.50 s]\n")
    _result(change, "selftest", code=3,
            stdout="PASS  one: fine  [2.00 s]\nFAIL  two: bad  [0.75 s]\n")
    _result(parent, "err", code=2, stderr="error: tolerance 1e-12\n")
    _result(change, "err", code=2, stderr="error: tolerance 1e-11\n")
    _result(parent, "gone")
    # A key that one side lacks reads as missing there.
    _result(parent, "key", artifacts={"summary.json": json.dumps({"a": 1})})
    _result(change, "key", artifacts={
        "summary.json": json.dumps({"a": 1, "b": [1.5]})})

    got = parent_diff.compare(parent, change)
    assert got == {
        "code": [("exit code", "0 -> 3")],
        "csv": [("artifacts", "b.csv line 1: '2' -> '2.5'")],
        "err": [("stderr", "line 1: 'error: tolerance 1e-12' -> "
                           "'error: tolerance 1e-11'")],
        "extra": [("artifacts", "b.csv only in change")],
        "gone": [("artifacts", "run only in parent")],
        "grid": [("artifacts", "p.csv line 3: '1.5,2' -> '1.5,2.25'")],
        "json": [("artifacts", "summary.json key lp.iterations: 12 -> 13")],
        "key": [("artifacts", "summary.json key b: missing -> [1.5]")],
        "rows": [("artifacts", "p.csv 2 -> 3 lines")],
        "same": [],
        "selftest": [],
    }
    lines = parent_diff.table(got).splitlines()
    assert lines[:5] == ["identical       2", "artifacts       7",
                         "stdout          0", "stderr          1",
                         "exit code       1"]
    assert len(lines) == 5 + 9


def test_matrix_covers_every_kind_p_and_seed():
    cmds = parent_diff.commands(("mmot", "bounds"))
    names = [name for name, _ in cmds]
    assert len(set(names)) == len(names) == 2 * 9 * 2 + 2
    assert cmds[-2:] == [("selftest", ["selftest"]),
                         ("selftest-fast", ["selftest", "--fast"])]
    assert cmds[0][1] == ["run", "--kind", "mmot", "--p", "1.05", "--seed",
                          "0", "--out", "artifacts"]
