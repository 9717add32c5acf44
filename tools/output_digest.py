"""One sha256 per benchmark workload over every output byte lpmink gives it.

    python3 tools/output_digest.py --seeds 1-5
    python3 tools/output_digest.py --seeds 1,3 --workload reduced-routes
    python3 tools/output_digest.py --seeds 1 --per-case
    python3 tools/output_digest.py --seeds 0-30 --dump DIR
    python3 tools/output_digest.py --seeds 0-30 --against DIR

For each workload and seed, every case of bench/workloads.py runs once as
`lpmink solve` runs it: parse the measure JSON, read --symmetry, solve, and
write the canonical body and report JSON.  The digest takes, per case in
order, the workload, seed and case label, then the body and report bytes,
or the error's type, message and report when lpmink raised.  Two commits
that print the same digests produce the same bytes on every case.  With
--per-case, a line "<workload> <seed> <label>: <sha256>" over the same
bytes of that one case comes before each workload's line, so a change that
moves one case names it.

--dump DIR writes every case's bytes to DIR/<workload>.jsonl, one case a
line.  --against DIR compares each case with such a dump, made by another
tree on the same seeds, and prints a line for each case that moved: the
outcome on both sides (ok or the error's type), the largest |dh| / max h
over the normals both bodies have, or "body same" and the report keys that
differ when the body bytes are the same (a list's entries as "key[]"), and
whether the per-stage Newton counts, the per-stage continuation counts and
m_final match.  A case that is ok on both sides with max |dh| / max h above
1e-3 is labelled "switched": lpmink returned another solution of the same
input, not the same solution moved by rounding.  After the workload's line
comes "<workload>: <k> of <n> cases moved, <s> switched".  Nothing under
bench/ is written or changed; the script only imports its input generators.
"""

from __future__ import annotations

import os

# One BLAS thread, as bench/run.py pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # no bytecode cache under bench/ either

import workloads  # noqa: E402  (bench/workloads.py)
from lpmink.cli import parse_symmetry  # noqa: E402
from lpmink.errors import LpMinkError  # noqa: E402
from lpmink.pipeline import solve  # noqa: E402
from lpmink.serialization import (  # noqa: E402
    dumps_canonical,
    measure_spec_from_dict,
    polygon_to_dict,
)


def case_bytes(case) -> bytes:
    """The body and report text `lpmink solve` would write, or the error."""
    def run():
        spec = measure_spec_from_dict(json.loads(case.measure_json))
        return solve(spec, case.p, parse_symmetry(case.symmetry, spec))
    return result_bytes(run)


def result_bytes(run) -> bytes:
    """The body and report text of run(), a solve returning (body, report),
    or the error it raised: its type, message and report."""
    try:
        P, report = run()
    except (LpMinkError, ValueError) as exc:
        report = getattr(exc, "report", None)
        text = f"{type(exc).__name__}: {exc}\n"
        if report is not None:
            text += dumps_canonical(report.to_dict()) + "\n"
        return text.encode()
    body = dumps_canonical(polygon_to_dict(P)) + "\n"
    return (body + dumps_canonical(report.to_dict()) + "\n").encode()


def outcome(text: str):
    """(outcome, body dict or None, report dict or None) of a case's text:
    outcome is "ok" or the error's type."""
    if not text.startswith("{"):
        error, _, rest = text.partition("\n")
        return error.split(":", 1)[0], None, json.loads(rest) if rest else None
    body, end = json.JSONDecoder().raw_decode(text)
    return "ok", body, json.loads(text[end:])


def counts(report) -> tuple:
    """Per-stage Newton and continuation counts, and m_final, of a report."""
    stages = report.get("loop_history") or [report]
    return ([s["newton_iters"] for s in stages], [s["outer_iters"] for s in stages],
            report.get("m_final"))


def body_text(text: str) -> str:
    """The body JSON that an ok case's text starts with."""
    return text[:json.JSONDecoder().raw_decode(text)[1]]


def differing_keys(a, b, path: str = "") -> list[str]:
    """Where the JSON values a and b differ, as key paths in a's key order,
    each once; a list's entries read "key[]", a list whose length differs
    reads "key"."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = dict.fromkeys([*a, *b])
        paths = [differing_keys(a.get(k), b.get(k), f"{path}.{k}" if path else k) for k in keys]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        paths = [differing_keys(x, y, f"{path}[]") for x, y in zip(a, b)]
    else:
        return [] if a == b else [path]
    return list(dict.fromkeys(key for keys in paths for key in keys))


# Relative support change above which an ok -> ok case counts as another
# solution of the same input (a "switched" case).
SWITCHED = 1e-3


def support_move(body0: dict, body1: dict) -> tuple[float, int]:
    """The largest |dh| / max h of body0 over the normals both bodies have
    (NaN if none), and how many they have."""
    t0, h0 = np.array(body0["normals_theta"]), np.array(body0["support"])
    t1, h1 = np.array(body1["normals_theta"]), np.array(body1["support"])
    _, i0, i1 = np.intersect1d(t0, t1, assume_unique=True, return_indices=True)
    dh = float(np.abs(h1[i1] - h0[i0]).max() / np.abs(h0).max()) if len(i0) else math.nan
    return dh, len(i0)


def moved_line(head: str, old: str, new: str) -> tuple[str, bool]:
    """How the case head moved from the text old to the text new, and
    whether it switched solution."""
    (was, body0, rep0), (now, body1, rep1) = outcome(old), outcome(new)
    detail, switched = "", False
    if body0 is not None and body1 is not None and body_text(old) == body_text(new):
        detail = f", body same, report differs in ({', '.join(differing_keys(rep0, rep1))})"
    elif body0 is not None and body1 is not None:
        dh, shared = support_move(body0, body1)
        detail = f", max |dh| / max h {dh:.2e} on {shared} equal normals"
        switched = dh > SWITCHED
    line = f"{head}: moved, {'switched, ' if switched else ''}{was} -> {now}{detail}"
    if rep0 is None or rep1 is None:
        return line + ", no report on one side", switched
    same = [a == b for a, b in zip(counts(rep0), counts(rep1))]
    for name, eq in zip(("Newton counts", "continuation counts", "m_final"), same):
        line += f", {name} {'same' if eq else 'differ'}"
    return line, switched


@contextlib.contextmanager
def dump_files(name: str, dump_dir, against_dir):
    """(dump, against): DIR/<name>.jsonl opened to write under dump_dir,
    made if missing, and to read under against_dir; None for a directory
    not given."""
    with contextlib.ExitStack() as files:
        dump = against = None
        if dump_dir:
            dump_dir.mkdir(parents=True, exist_ok=True)
            dump = files.enter_context(open(dump_dir / f"{name}.jsonl", "w"))
        if against_dir:
            against = files.enter_context(open(against_dir / f"{name}.jsonl"))
        yield dump, against


class Ledger:
    """The cases of one workload or sweep, in order, and their dumps: each
    case's [head, text] line goes to the open file dump, and the open file
    against, another tree's dump of the same cases, gives the case's text
    there.  Either may be None.  noun names the cases in a refusal: a dump
    that holds other cases, or more, ends the run."""

    def __init__(self, dump, against, noun: str):
        self.dump, self.against, self.noun = dump, against, noun
        self.moved = self.switched = 0

    def record(self, head: str, text: str):
        """Dump the case, and when against holds another text for it, print
        moved_line's line, count it and return that text; else None."""
        if self.dump:
            self.dump.write(json.dumps([head, text]) + "\n")
        if not self.against:
            return None
        was_head, was = json.loads(self.against.readline() or "[null, null]")
        if was_head != head:
            self._refuse()
        if was == text:
            return None
        line, switched = moved_line(head, was, text)
        print(line)
        self.moved += 1
        self.switched += switched
        return was

    def finish(self) -> None:
        """Refuse an against file that holds lines past the last case."""
        if self.against and self.against.readline():
            self._refuse()

    def _refuse(self):
        raise SystemExit(f"{self.against.name} holds other {self.noun}")


def parse_seeds(text: str) -> list[int]:
    """"1-5" or "1,3,4" (ranges inclusive)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-5", help='e.g. "1-5" or "1,3"')
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--per-case", action="store_true",
                    help="also print one sha256 per workload, seed and case label")
    ap.add_argument("--dump", type=Path, metavar="DIR",
                    help="write every case's bytes to DIR/<workload>.jsonl")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="name the cases that moved against a --dump of another tree")
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        with dump_files(name, args.dump, args.against) as (dump, against):
            ledger = Ledger(dump, against, "cases")
            digest, n = hashlib.sha256(), 0
            for seed in parse_seeds(args.seeds):
                for case in workloads.generate(name, seed):
                    head = f"{name} {seed} {case.label}"
                    out = case_bytes(case)
                    text = f"{head}\n".encode() + out
                    digest.update(text)
                    n += 1
                    if args.per_case:
                        print(f"{head}: {hashlib.sha256(text).hexdigest()}")
                    ledger.record(head, out.decode())
            ledger.finish()
            print(f"{name}: {digest.hexdigest()} ({n} cases)")
            if against:
                print(f"{name}: {ledger.moved} of {n} cases moved, {ledger.switched} switched")
    return 0

if __name__ == "__main__":
    sys.exit(main())
