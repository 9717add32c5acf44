"""tools/traffic.py, run in-process on seed 1 of every workload, and in a
subprocess on one test file."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tree(path):
    """Every file under path, with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in path.rglob("*")}


def test_seed_1_of_every_workload(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    before = {d: tree(ROOT / d) for d in ("bench", "tools", "src")}
    tracer = sys.gettrace()
    loaded = {name for name in ("output_digest", "workloads") if name in sys.modules}
    path = ROOT / "tools" / "traffic.py"
    tool = types.ModuleType("traffic")
    tool.__file__ = str(path)
    try:
        exec(compile(path.read_text(), path, "exec"), tool.__dict__)  # no bytecode cache
        assert tool.main(["--seeds", "1"]) == 0
    finally:
        for name in {"output_digest", "workloads"} - loaded:
            sys.modules.pop(name, None)
    assert sys.gettrace() is tracer
    assert {d: tree(ROOT / d) for d in before} == before
    out = capsys.readouterr().out.splitlines()

    never = re.compile(r"never entered: (\w+)\.([\w.]+) \((\w+)\.py:\d+\)")
    not_run = re.compile(r"not run: \w+\.[\w.]+: \d+(-\d+)?(, \d+(-\d+)?)*")
    total = re.fullmatch(r"(\d+) of (\d+) functions entered", out[-1])
    assert total and 0 < int(total.group(1)) < int(total.group(2)), out[-1]
    for line in out[:-1]:
        m = never.fullmatch(line)
        assert (m and m.group(1) == m.group(3)) or not_run.fullmatch(line), line
    names = [m.group(1) + "." + m.group(2) for m in map(never.fullmatch, out) if m]
    assert len(names) == int(total.group(2)) - int(total.group(1))
    assert "solver._continuation_newton" in names
    assert "serialization.dumps_canonical" not in names
    assert {"serialization._format17", "serialization._template"}.isdisjoint(names)


def test_tests_option_traces_one_test_file():
    before = {d: tree(ROOT / d) for d in ("bench", "tools", "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "traffic.py"), "--tests",
         "tests/test_bench_inputs.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {d: tree(ROOT / d) for d in before} == before
    out = proc.stdout.splitlines()

    # pytest's own output first, then the report
    never = re.compile(r"never entered: (\w+)\.([\w.]+) \((\w+)\.py:\d+\)")
    not_run = re.compile(r"not run: \w+\.[\w.]+: \d+(-\d+)?(, \d+(-\d+)?)*")
    first = next(k for k, line in enumerate(out)
                 if never.fullmatch(line) or not_run.fullmatch(line))
    assert any(re.fullmatch(r"\d+ passed in .*", line) for line in out[:first]), out[:first]
    total = re.fullmatch(r"(\d+) of (\d+) functions entered", out[-1])
    assert total and 0 < int(total.group(1)) < int(total.group(2)), out[-1]
    for line in out[first:-1]:
        m = never.fullmatch(line)
        assert (m and m.group(1) == m.group(3)) or not_run.fullmatch(line), line
    names = [m.group(1) + "." + m.group(2) for m in map(never.fullmatch, out) if m]
    assert len(names) == int(total.group(2)) - int(total.group(1))
    # the file parses every workload's measures and solves none of them
    assert "serialization.measure_spec_from_dict" not in names
    assert {"solver.solve_discrete", "serialization.dumps_canonical"} <= set(names)
