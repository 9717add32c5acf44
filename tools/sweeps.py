"""ROADMAP's three shared sweeps, rebuilt from their recipes and summarized.

    python3 tools/sweeps.py --sweep all
    python3 tools/sweeps.py --sweep atomic --dump DIR
    python3 tools/sweeps.py --sweep semicircle --against DIR

The sweeps:

- atomic, the 4x400 atomic sweep: bench/workloads._stress_measures(
  default_rng(s), 400) for s = 0..3, one solve_discrete(DiscreteMeasure(t,
  m), p) per measure, trial (s, i).
- semicircle: for seeds 5, 6 and 7, default_rng(seed) draws 400 trials,
  each n = integers(4, 12), w = uniform(0, 2 pi), p = uniform(0.05, 0.95),
  normals w + [-a, sort(uniform(-a, a, n - 2)), a] mod 2 pi with a = pi / 2
  - 0.01, and masses 10**uniform(-4, 4, n); pipeline.solve solves each,
  trial (seed, i).
- symmetric: default_rng(8) draws 600 trials, each k = integers(2, 7), a
  dihedral flag integers(0, 2), s = integers(2, 9), p = uniform(0.05,
  0.95), then a sector of s atoms, sort(uniform(0, 2 pi / k, s)), or for
  D_k a half sector half = sort(uniform(0.02, pi / k - 0.02, s)) mirrored to
  [half, 2 pi / k - half[::-1]], then masses 10**uniform(-4, 4, s) (mirrored
  with the half sector); the sector turns by 2 pi j / k, j < k, and
  solve_discrete solves it under C_k or D_k with axis 0, trial i.

For each sweep the script prints "<sweep>: <solved> of <n> solved, <steps>
Newton steps, <seconds> s", then "<sweep> failures: <ids>".  A trial fails
when lpmink raises; its report, if any, still counts its Newton steps.
Then "<sweep> causes: <count> <cause>, ...; slowest give-up <id> <seconds>
s, fastest <id> <seconds> s" tallies the failures by the cause their
message names after "above tolerance T: " (the number dropped; "Newton's
error E" reads "Newton's error <= tol" or "> tol" by E against T), or by
the error's type when it names none, and names the slowest and the fastest
failing trial.  A failing trial is solved three times and timed as the
fastest of the three, as README quotes give-up times; three solves whose
bytes differ stop the script naming the trial.  <seconds> of the first
line is the sweep's wall time, these repeats included.
--dump DIR writes each trial's bytes, tools/output_digest.py's body and
report text or error, to DIR/<sweep>.jsonl.  --against DIR compares each
trial with such a dump made by another tree, prints output_digest's line
for each trial that moved, and then "<sweep>: <k> of <n> moved, <s>
switched, largest move ok -> ok <d> of max h": a trial ok on both sides
with max |dh| / max h above output_digest's 1e-3 has switched solution.
Nothing under bench/ is written or changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True  # no bytecode cache under tools/ or bench/
sys.path.insert(0, str(Path(__file__).resolve().parent))

import argparse  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import output_digest as digest  # noqa: E402  (sets the BLAS threads and sys.path)
from output_digest import workloads  # noqa: E402  (bench/workloads.py)
from lpmink import DiscreteMeasure, MeasureSpec, SymmetryGroup, solve_discrete  # noqa: E402
from lpmink.pipeline import solve  # noqa: E402

TWO_PI = 2.0 * math.pi


def atomic_trials():
    """((s, i), solve) for each measure of the 4x400 atomic sweep."""
    for s in range(4):
        for i, (_, p, _, t, m) in enumerate(workloads._stress_measures(
                np.random.default_rng(s), 400)):
            yield (s, i), lambda t=t, m=m, p=p: solve_discrete(DiscreteMeasure(t, m), p)


def semicircle_trials():
    """((seed, i), solve) for each trial of the semicircle sweep."""
    a = 0.5 * math.pi - 0.01
    for seed in (5, 6, 7):
        rng = np.random.default_rng(seed)
        for i in range(400):
            n = int(rng.integers(4, 12))
            w = rng.uniform(0.0, TWO_PI)
            p = float(rng.uniform(0.05, 0.95))
            t = (w + np.concatenate(([-a], np.sort(rng.uniform(-a, a, n - 2)), [a]))) % TWO_PI
            m = 10.0 ** rng.uniform(-4.0, 4.0, n)
            yield (seed, i), lambda t=t, m=m, p=p: solve(MeasureSpec(DiscreteMeasure(t, m)), p)


def symmetric_trials():
    """(i, solve) for each trial of the symmetric sweep."""
    rng = np.random.default_rng(8)
    for i in range(600):
        k = int(rng.integers(2, 7))
        dihedral = bool(rng.integers(0, 2))
        s = int(rng.integers(2, 9))
        p = float(rng.uniform(0.05, 0.95))
        if dihedral:
            half = np.sort(rng.uniform(0.02, math.pi / k - 0.02, s))
            sector = np.concatenate((half, TWO_PI / k - half[::-1]))
            m = 10.0 ** rng.uniform(-4.0, 4.0, s)
            m = np.concatenate((m, m[::-1]))
            G = SymmetryGroup.dihedral(k, 0.0)
        else:
            sector = np.sort(rng.uniform(0.0, TWO_PI / k, s))
            m = 10.0 ** rng.uniform(-4.0, 4.0, s)
            G = SymmetryGroup.cyclic(k)
        t = np.concatenate([sector + TWO_PI * j / k for j in range(k)])
        yield i, lambda t=t, m=np.tile(m, k), p=p, G=G: solve_discrete(DiscreteMeasure(t, m), p, G)


SWEEPS = {"atomic": atomic_trials, "semicircle": semicircle_trials,
          "symmetric": symmetric_trials}

# A NoConvergenceError's tolerance, the cause its message names after it,
# and the number that ends that cause.
CAUSE = re.compile(r"above tolerance (\S+): (.*?)(?: at (?:pad|error))? (\S+)$")


def give_up_cause(text: str) -> str:
    """The cause a failing trial's text names, without its number, or the
    error's type when its message names none."""
    error = text.partition("\n")[0]
    match = CAUSE.search(error)
    if match is None:
        return error.split(":", 1)[0]
    tol, cause, value = match.groups()
    if cause == "Newton's error":
        return f"{cause} {'<=' if float(value) <= float(tol) else '>'} tol"
    return cause


def timed(run):
    """(the text of run's bytes, seconds it took)."""
    began = time.perf_counter()
    out = digest.result_bytes(run).decode()
    return out, time.perf_counter() - began


def run_sweep(name: str, trials, dump=None, against=None) -> dict:
    """Solve each (id, solve) of trials, print the sweep's lines and return
    them as numbers: solved, n, newton, failures, causes (a count per
    cause), slowest and fastest ((id, seconds) of the slowest and the
    fastest failure, each the fastest of three solves; (None, 0.0) and
    (None, inf) if none), moved, switched and the largest move of a trial
    ok on both sides (NaN if none).  dump and against are open files of
    output_digest-style lines, or None."""
    solved = newton = 0
    failures, n, largest = [], 0, math.nan
    ledger = digest.Ledger(dump, against, "trials")
    causes, slowest, fastest = Counter(), (None, 0.0), (None, math.inf)
    start = time.perf_counter()
    for ident, run in trials:
        out, took = timed(run)
        state, body, report = digest.outcome(out)
        n += 1
        newton += report["newton_iters"] if report else 0
        head = f"{name} {ident}"
        if state == "ok":
            solved += 1
        else:
            for _ in range(2):
                again, again_took = timed(run)
                if again != out:
                    raise SystemExit(f"{head}: three solves gave different bytes")
                took = min(took, again_took)
            failures.append(ident)
            causes[give_up_cause(out)] += 1
            slowest = max(slowest, (ident, took), key=lambda trial: trial[1])
            fastest = min(fastest, (ident, took), key=lambda trial: trial[1])
        was = ledger.record(head, out)
        old = None if was is None else digest.outcome(was)[1]
        if old is not None and body is not None:
            largest = np.fmax(largest, digest.support_move(old, body)[0])
    seconds = time.perf_counter() - start
    print(f"{name}: {solved} of {n} solved, {newton} Newton steps, {seconds:.2f} s")
    print(f"{name} failures: {' '.join(map(str, failures)) or 'none'}")
    tally = ", ".join(f"{count} {cause}" for cause, count in sorted(causes.items()))
    print(f"{name} causes: {tally or 'none'}" + (
        f"; slowest give-up {slowest[0]} {slowest[1]:.3f} s, "
        f"fastest {fastest[0]} {fastest[1]:.2g} s" if failures else ""))
    if against:
        ledger.finish()
        print(f"{name}: {ledger.moved} of {n} moved, {ledger.switched} switched, "
              f"largest move ok -> ok {largest:.2e} of max h")
    return {"solved": solved, "n": n, "newton": newton, "failures": failures,
            "causes": dict(causes), "slowest": slowest, "fastest": fastest,
            "moved": ledger.moved, "switched": ledger.switched, "largest": float(largest)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sweep", default="all", choices=["all", *SWEEPS])
    io = ap.add_mutually_exclusive_group()
    io.add_argument("--dump", type=Path, metavar="DIR",
                    help="write every trial's bytes to DIR/<sweep>.jsonl")
    io.add_argument("--against", type=Path, metavar="DIR",
                    help="name the trials that moved against a --dump of another tree")
    args = ap.parse_args(argv)
    for name in SWEEPS if args.sweep == "all" else [args.sweep]:
        with digest.dump_files(name, args.dump, args.against) as (dump, against):
            run_sweep(name, SWEEPS[name](), dump, against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
