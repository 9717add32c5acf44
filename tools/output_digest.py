"""One sha256 per benchmark workload over every output byte lpmink gives it.

    python3 tools/output_digest.py --seeds 1-5
    python3 tools/output_digest.py --seeds 1,3 --workload reduced-routes
    python3 tools/output_digest.py --seeds 1 --per-case

For each workload and seed, every case of bench/workloads.py runs once as
`lpmink solve` runs it: parse the measure JSON, read --symmetry, solve, and
write the canonical body and report JSON.  The digest takes, per case in
order, the workload, seed and case label, then the body and report bytes,
or the error's type, message and report when lpmink raised.  Two commits
that print the same digests produce the same bytes on every case.  With
--per-case, a line "<workload> <seed> <label>: <sha256>" over the same
bytes of that one case comes before each workload's line, so a change that
moves one case names it.  Nothing under bench/ is written or changed; the
script only imports its input generators.
"""

from __future__ import annotations

import os

# One BLAS thread, as bench/run.py pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

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
    try:
        spec = measure_spec_from_dict(json.loads(case.measure_json))
        P, report = solve(spec, case.p, parse_symmetry(case.symmetry, spec))
    except (LpMinkError, ValueError) as exc:
        report = getattr(exc, "report", None)
        text = f"{type(exc).__name__}: {exc}\n"
        if report is not None:
            text += dumps_canonical(report.to_dict()) + "\n"
        return text.encode()
    body = dumps_canonical(polygon_to_dict(P)) + "\n"
    return (body + dumps_canonical(report.to_dict()) + "\n").encode()


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
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        digest, n = hashlib.sha256(), 0
        for seed in parse_seeds(args.seeds):
            for case in workloads.generate(name, seed):
                text = f"{name} {seed} {case.label}\n".encode() + case_bytes(case)
                digest.update(text)
                n += 1
                if args.per_case:
                    print(f"{name} {seed} {case.label}: {hashlib.sha256(text).hexdigest()}")
        print(f"{name}: {digest.hexdigest()} ({n} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
