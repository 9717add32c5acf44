"""tools/output_digest.py, run in-process on one seed of one workload."""

import os
import re
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tree(path):
    """Every file under path, with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in path.rglob("*")}


def test_one_line_per_workload_and_nothing_written_under_bench(monkeypatch, capsys):
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
        assert tool.main(["--seeds", "1", "--workload", "stress-corpus"]) == 0
        n_cases = len(list(tool.workloads.generate("stress-corpus", 1)))
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)
    out = capsys.readouterr().out
    m = re.fullmatch(r"stress-corpus: [0-9a-f]{64} \((\d+) cases\)\n", out)
    assert m, out
    assert int(m.group(1)) == n_cases > 0
    assert tree(ROOT / "bench") == before
