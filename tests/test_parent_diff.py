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
    # A text artifact names its first differing line, line end included, and
    # counts the lines that differ (CRLF line ends, and a row that only one
    # side has).
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
    # Every key that moves or is new is named, not only the first.
    _result(parent, "keys", artifacts={"summary.json": json.dumps(
        {"blowup_q0": 2.0089, "blowup_slope": -0.9955, "ok": True})})
    _result(change, "keys", artifacts={"summary.json": json.dumps(
        {"blowup_q0": 2.0067, "blowup_q0_theory": 2.0,
         "blowup_slope": -0.9967, "ok": True})})
    # Line ends count: CRLF -> LF moves every line and no value.
    _result(parent, "crlf", artifacts={"p.csv": head + "1.5,2\r\n"})
    _result(change, "crlf", artifacts={"p.csv": "x0,value\n0.5,1\n1.5,2\n"})

    got = parent_diff.compare(parent, change)
    assert got == {
        "code": [("exit code", "0 -> 3")],
        "crlf": [("artifacts", "p.csv line 1: 'x0,value\\r\\n' -> "
                               "'x0,value\\n' (3 of 3 lines differ)")],
        "csv": [("artifacts", "b.csv line 1: '2\\n' -> '2.5\\n' "
                              "(1 of 1 lines differ)")],
        "err": [("stderr", "line 1: 'error: tolerance 1e-12\\n' -> "
                           "'error: tolerance 1e-11\\n' (1 of 1 lines differ)")],
        "extra": [("artifacts", "b.csv only in change")],
        "gone": [("artifacts", "run only in parent")],
        "grid": [("artifacts", "p.csv line 3: '1.5,2\\r\\n' -> "
                               "'1.5,2.25\\r\\n' (1 of 3 lines differ)")],
        "json": [("artifacts", "summary.json key lp.iterations: 12 -> 13"),
                 ("artifacts", "manifest.json key files.summary.json: 0 -> 3")],
        "key": [("artifacts", "summary.json key b: missing -> [1.5]")],
        "keys": [("artifacts", "summary.json key blowup_q0: 2.0089 -> 2.0067; "
                               "key blowup_q0_theory: missing -> 2.0; "
                               "key blowup_slope: -0.9955 -> -0.9967")],
        "rows": [("artifacts", "p.csv line 3: missing -> '1.5,2\\r\\n' "
                               "(1 of 3 lines differ)")],
        "same": [],
        "selftest": [],
    }
    lines = parent_diff.table(got).splitlines()
    assert lines[:5] == ["identical       2", "artifacts       9",
                         "stdout          0", "stderr          1",
                         "exit code       1"]
    assert len(lines) == 5 + 12


def test_matrix_covers_every_kind_p_and_seed():
    cmds = parent_diff.commands(("mmot", "bounds"))
    names = [name for name, _ in cmds]
    assert len(set(names)) == len(names) == 2 * 9 * 2 + 2
    assert cmds[-2:] == [("selftest", ["selftest"]),
                         ("selftest-fast", ["selftest", "--fast"])]
    assert cmds[0][1] == ["run", "--kind", "mmot", "--p", "1.05", "--seed",
                          "0", "--out", "artifacts"]
