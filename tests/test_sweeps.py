"""tools/sweeps.py, run in-process on a few trials of each sweep."""

import json
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def tree(path):
    """Every file under path, with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in path.rglob("*")}


@pytest.fixture
def tool(monkeypatch):
    """tools/sweeps.py as a module, loaded without a bytecode cache; every
    file under bench/ must be as it was afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    before = tree(ROOT / "bench")
    loaded = {name for name in ("output_digest", "workloads") if name in sys.modules}
    path = ROOT / "tools" / "sweeps.py"
    module = types.ModuleType("sweeps")
    module.__file__ = str(path)
    try:
        exec(compile(path.read_text(), path, "exec"), module.__dict__)
        yield module
    finally:
        for name in {"output_digest", "workloads"} - loaded:
            sys.modules.pop(name, None)
    assert tree(ROOT / "bench") == before


def pick(trials, ids):
    """The trials whose id is in ids, in sweep order."""
    return [trial for trial in trials if trial[0] in ids]


# A few trials of each sweep: ROADMAP's known give-ups, and solves.
PICKS = {
    "atomic": {(0, 0): "ok", (0, 59): "ok", (1, 375): "NoConvergenceError"},
    "semicircle": {(5, 0): "ok", (5, 99): "NoConvergenceError", (6, 1): "ok"},
    "symmetric": {0: "ok", 1: "ok", 232: "NoConvergenceError"},
}


@pytest.mark.parametrize("name", list(PICKS))
def test_picked_trials_then_against_their_own_dump(tool, capsys, tmp_path, name):
    trials = pick(tool.SWEEPS[name](), PICKS[name])
    assert [ident for ident, _ in trials] == list(PICKS[name])
    with open(tmp_path / "dump.jsonl", "w") as dump:
        got = tool.run_sweep(name, trials, dump=dump)
    failures = [ident for ident, state in PICKS[name].items() if state != "ok"]
    assert (got["solved"], got["n"], got["failures"]) == (2, 3, failures)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{name}: 2 of 3 solved, {got['newton']} Newton steps, ")
    assert out[1] == f"{name} failures: {failures[0]}"
    assert out[2].startswith(f"{name} causes: 1 ") and list(got["causes"].values()) == [1]
    assert got["fastest"] == got["slowest"]
    assert out[2].endswith(f"; slowest give-up {failures[0]} {got['slowest'][1]:.3f} s, "
                           f"fastest {failures[0]} {got['slowest'][1]:.2g} s")
    lines = [json.loads(line) for line in (tmp_path / "dump.jsonl").read_text().splitlines()]
    assert [head for head, _ in lines] == [f"{name} {ident}" for ident in PICKS[name]]
    assert [tool.digest.outcome(text)[0] for _, text in lines] == list(PICKS[name].values())

    with open(tmp_path / "dump.jsonl") as against:
        again = tool.run_sweep(name, trials, against=against)
    assert (again["moved"], again["switched"]) == (0, 0)
    assert capsys.readouterr().out.splitlines()[3] == (
        f"{name}: 0 of 3 moved, 0 switched, largest move ok -> ok nan of max h")


def test_atomic_steps_follow_the_budget(tool, capsys):
    # (0, 59) solves cold in 186 Newton steps; (1, 375) gives up after 352
    got = tool.run_sweep("atomic", pick(tool.SWEEPS["atomic"](), {(0, 59), (1, 375)}))
    assert (got["solved"], got["newton"]) == (1, 186 + 352)


def test_give_up_causes(tool, capsys):
    """(1, 375) gives up with the branch lost; symmetric trial 14 with
    Newton's error within tolerance, and 289 with the branch lost."""
    got = tool.run_sweep("atomic", pick(tool.SWEEPS["atomic"](), {(0, 0), (1, 375)}))
    assert got["causes"] == {"branch lost": 1} and got["slowest"][0] == (1, 375)
    got = tool.run_sweep("symmetric", pick(tool.SWEEPS["symmetric"](), {0, 14, 289}))
    assert got["causes"] == {"Newton's error <= tol": 1, "branch lost": 1}
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("atomic causes: 1 branch lost; slowest give-up (1, 375) ")
    assert out[5].startswith("symmetric causes: 1 Newton's error <= tol, 1 branch lost; ")


def test_give_up_cause_reads_the_message(tool):
    cause = tool.give_up_cause
    head = "NoConvergenceError: residual 2.0e-05 above tolerance 1.0e-06: "
    assert cause(head + "Newton's error 3.000e-07\n{}") == "Newton's error <= tol"
    assert cause(head + "Newton's error 3.000e-06\n{}") == "Newton's error > tol"
    assert cause(head + "first pad stage ended at error 1.2e+00\n") == "first pad stage ended"
    assert cause("NoConvergenceError: stage m = 64: " + head.split(": ", 1)[1]
                 + "stage cap reached at pad 8.210e-03\n{}") == "stage cap reached"
    assert cause("ConcentratedError: measure is semicircle\n") == "ConcentratedError"


def test_against_counts_moves_and_switches(tool, capsys, tmp_path):
    """A dump edited at one support number of each solved trial: one by
    1e-9 of max h moves, one by 1e-2 switches, and the summary names the
    largest move of a trial ok on both sides."""
    trials = pick(tool.SWEEPS["symmetric"](), PICKS["symmetric"])
    path = tmp_path / "symmetric.jsonl"
    with open(path, "w") as dump:
        tool.run_sweep("symmetric", trials, dump=dump)
    capsys.readouterr()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for line, rel in zip(lines, (1e-9, 1e-2)):
        _, body, report = tool.digest.outcome(line[1])
        h = body["support"]
        i = max(range(len(h)), key=lambda j: abs(h[j]))
        h[i] *= 1.0 + rel
        dumps = tool.digest.dumps_canonical
        line[1] = dumps(body) + "\n" + dumps(report) + "\n"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with open(path) as against:
        got = tool.run_sweep("symmetric", trials, against=against)
    assert (got["moved"], got["switched"]) == (2, 1)
    assert got["largest"] == pytest.approx(1e-2 / (1.0 + 1e-2))
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("symmetric 0: moved, ok -> ok, max |dh| / max h 1.00e-09")
    assert out[1].startswith("symmetric 1: moved, switched, ok -> ok")
    assert out[-1] == "symmetric: 2 of 3 moved, 1 switched, largest move ok -> ok 9.90e-03 of max h"


def test_dump_and_against_exclude_each_other(tool, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--dump", str(tmp_path), "--against", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())
