"""tools/output_digest.py, run in-process on one seed of one workload."""

import hashlib
import json
import os
import re
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tree(path):
    """Every file under path, with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in path.rglob("*")}


def run_tool(monkeypatch, capsys, argv):
    """The tool's module and printed lines after main(argv), which must
    return 0 and leave every file under bench/ as it was."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    before = tree(ROOT / "bench")
    had_workloads = "workloads" in sys.modules
    path = ROOT / "tools" / "output_digest.py"
    tool = types.ModuleType("output_digest")
    tool.__file__ = str(path)
    try:
        exec(compile(path.read_text(), path, "exec"), tool.__dict__)  # no bytecode cache
        assert tool.main(argv) == 0
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)
    assert tree(ROOT / "bench") == before
    return tool, capsys.readouterr().out.splitlines()


def test_one_line_per_workload_and_nothing_written_under_bench(monkeypatch, capsys):
    tool, out = run_tool(monkeypatch, capsys, ["--seeds", "1", "--workload", "stress-corpus"])
    n_cases = len(tool.workloads.generate("stress-corpus", 1))
    assert len(out) == 1
    m = re.fullmatch(r"stress-corpus: [0-9a-f]{64} \((\d+) cases\)", out[0])
    assert m, out
    assert int(m.group(1)) == n_cases > 0


def test_per_case_lines_name_each_case(monkeypatch, capsys):
    """--per-case prints, in case order, "<workload> <seed> <label>: <sha256>"
    of the case's own bytes, then the workload's usual line."""
    tool, out = run_tool(monkeypatch, capsys,
                         ["--seeds", "1", "--workload", "reduced-routes", "--per-case"])
    cases = tool.workloads.generate("reduced-routes", 1)
    assert len(out) == len(cases) + 1
    assert re.fullmatch(rf"reduced-routes: [0-9a-f]{{64}} \({len(cases)} cases\)", out[-1])
    for line, case in zip(out, cases):
        head = f"reduced-routes 1 {case.label}"
        assert re.fullmatch(re.escape(head) + r": [0-9a-f]{64}", line), line
    case = cases[1]
    text = f"reduced-routes 1 {case.label}\n".encode() + tool.case_bytes(case)
    assert out[1] == f"reduced-routes 1 {case.label}: {hashlib.sha256(text).hexdigest()}"


def test_dump_then_against_names_the_cases_that_moved(monkeypatch, capsys, tmp_path):
    """--against a --dump of the same tree moves nothing; a dump edited at
    one support number and one stage's Newton count names that case, with
    the relative support change, and an edited outcome names its case."""
    argv = ["--seeds", "1", "--workload", "reduced-routes"]
    tool, out = run_tool(monkeypatch, capsys, argv + ["--dump", str(tmp_path)])
    n = len(tool.workloads.generate("reduced-routes", 1))
    _, again = run_tool(monkeypatch, capsys, argv + ["--against", str(tmp_path)])
    assert again == out + [f"reduced-routes: 0 of {n} cases moved, 0 switched"]

    path = tmp_path / "reduced-routes.jsonl"
    cases = [json.loads(line) for line in path.read_text().splitlines()]
    (head, text), (head2, text2) = cases[0], cases[1]
    outcome, body, report = tool.outcome(text)
    assert outcome == "ok" and report["loop_history"]
    h = body["support"]
    h1 = h[1]
    h[1] = h1 * (1.0 + 1e-9)
    report["loop_history"][0]["newton_iters"] += 1
    cases[0][1] = (tool.dumps_canonical(body) + "\n" + tool.dumps_canonical(report) + "\n")
    cases[1][1] = "NoConvergenceError: made up\n"
    path.write_text("".join(json.dumps(case) + "\n" for case in cases))
    _, moved = run_tool(monkeypatch, capsys, argv + ["--against", str(tmp_path)])
    dh = abs(h[1] - h1) / max(map(abs, h))
    assert moved == [
        f"{head}: moved, ok -> ok, max |dh| / max h {dh:.2e} on {len(h)} equal normals, "
        "Newton counts differ, continuation counts same, m_final same",
        f"{head2}: moved, NoConvergenceError -> {tool.outcome(text2)[0]}, "
        "no report on one side",
        out[0],
        f"reduced-routes: 2 of {n} cases moved, 0 switched",
    ]


def test_against_labels_switched_solutions(monkeypatch, capsys, tmp_path):
    """An ok case whose support moved by more than 1e-3 of max h is
    labelled "switched" and counted as such; one moved by 1e-9 is not.  The
    dump, the old side, holds the larger support number."""
    argv = ["--seeds", "1", "--workload", "reduced-routes"]
    tool, out = run_tool(monkeypatch, capsys, argv + ["--dump", str(tmp_path)])
    path = tmp_path / "reduced-routes.jsonl"
    cases = [json.loads(line) for line in path.read_text().splitlines()]
    ok = [case for case in cases if tool.outcome(case[1])[0] == "ok"]
    lines = []
    for case, rel in zip(ok, (1e-2, 1e-9)):
        _, body, report = tool.outcome(case[1])
        h = body["support"]
        i = max(range(len(h)), key=lambda j: abs(h[j]))
        h[i] *= 1.0 + rel
        case[1] = tool.dumps_canonical(body) + "\n" + tool.dumps_canonical(report) + "\n"
        lines.append(f"{case[0]}: moved, {'switched, ' if rel > 1e-3 else ''}ok -> ok, "
                     f"max |dh| / max h {rel / (1.0 + rel):.2e} on {len(h)} equal normals, "
                     "Newton counts same, continuation counts same, m_final same")
    path.write_text("".join(json.dumps(case) + "\n" for case in cases))
    _, moved = run_tool(monkeypatch, capsys, argv + ["--against", str(tmp_path)])
    assert moved == lines + [out[0], f"reduced-routes: 2 of {len(cases)} cases moved, 1 switched"]


def test_against_says_when_only_the_report_moved(monkeypatch, capsys, tmp_path):
    """A case whose body bytes are the same on both sides reads "body same"
    and names the report keys that differ, a list's entries as "key[]",
    instead of a zero support change."""
    argv = ["--seeds", "1", "--workload", "reduced-routes"]
    tool, out = run_tool(monkeypatch, capsys, argv + ["--dump", str(tmp_path)])
    path = tmp_path / "reduced-routes.jsonl"
    cases = [json.loads(line) for line in path.read_text().splitlines()]
    case = next(case for case in cases if tool.outcome(case[1])[0] == "ok"
                and tool.outcome(case[1])[2].get("loop_history"))
    _, body, report = tool.outcome(case[1])
    report["residual"] *= 2.0
    report["loop_history"][-1]["residual"] *= 2.0
    case[1] = tool.dumps_canonical(body) + "\n" + tool.dumps_canonical(report) + "\n"
    path.write_text("".join(json.dumps(case) + "\n" for case in cases))
    _, moved = run_tool(monkeypatch, capsys, argv + ["--against", str(tmp_path)])
    assert moved == [
        f"{case[0]}: moved, ok -> ok, body same, report differs in "
        "(loop_history[].residual, residual), Newton counts same, continuation counts same, "
        "m_final same",
        out[0],
        f"reduced-routes: 1 of {len(cases)} cases moved, 0 switched",
    ]
    assert tool.differing_keys({"a": [1, {"b": 2}], "c": 3}, {"a": [1, {"b": 4}], "d": 3}) == [
        "a[].b", "c", "d"]
    assert tool.differing_keys({"a": [1, 2]}, {"a": [1]}) == ["a"]
