"""tools/output_digest.py, run in-process on one seed of one workload."""

import hashlib
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
