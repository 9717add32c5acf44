"""Seeded benchmark of lpmink's four solve routes.

    python3 bench/run.py --workload density-loop --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # every workload, one table
    python3 bench/run.py --smoke                               # a few inputs, names checked

One process, one op at a time (a closed loop).  An op does what `lpmink
solve` does: parse the measure JSON, call lpmink.pipeline.solve, and write
the canonical body and report JSON (to memory).  The timed phase runs passes
over the workload's cases until --seconds have elapsed; every case runs at
least twice, so its output bytes can be compared.  A case's time is the
median of its op times, each rescaled by the machine-speed meter
(bench/meter.py).
Each case's first output is checked independently of the solver: the body
parses back to the same support data, atomic solves have a recomputed
measure residual within RESIDUAL_TOL, and density solves are within
SUPPORT_ERR_TOL of the support function they were manufactured from.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
attempted counts the workload's cases, and failed the cases where lpmink
gave up (NoConvergenceError, or a refinement loop that hit m_max) or whose
body failed a check; repeats of a case must give the same bytes, so neither
count depends on how many ops fit in the run.  A failed check, a repeated
case whose bytes differ, or any other exception makes the run incorrect, and
it exits with code 1.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads: the machine is shared
# and threaded BLAS made single ops vary far more than the pinned run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["density-loop", "atomic-large", "stress-corpus", "reduced-routes"]
SETUP_ROUNDS = 3
# Scheduling of the timed phase.  A visit runs a case REPEATS times back to
# back, or until VISIT_S has passed, and every case gets MIN_VISITS visits.
# A case whose first op took HEAVY_S or more (a give-up op takes up to 10 s)
# runs exactly MIN_VISITS times when the workload has lighter cases, its
# second run once half of --seconds has passed; the light cases get the rest
# of the run, so their visits spread over all of it.
MIN_VISITS = 2
HEAVY_S = 1.0
VISIT_S = 1.0
REPEATS = 5
# Accuracy the checks demand, fixed here rather than read from lpmink's
# defaults so that a change to a default cannot loosen them.
RESIDUAL_TOL = 1e-6  # measure residual of an atomic solve (README: tol 1e-6)
SUPPORT_ERR_TOL = 1e-3  # support error of a density solve, relative to max h
ODE_RESIDUAL_TOL = 0.1
SUPPORT_GRID = 8192

END_TO_END = {
    "setup_s": "s",
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "solves_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
QUALITY = {"residual.max": "ratio", "support_err.max": "ratio", "ode_residual.max": "ratio"}
# Per-layer metrics.  Counts, work and self times are per op, averaged over
# the traced ops; self time is a span minus the wrapped spans inside it.
LAYER_FUNCS = {
    "geometry.diameter": ("pairs",),
    "geometry.support_values": ("pairs",),
    "geometry.support_distance": (),
    "geometry.polygon_from_support": ("normals",),
    "measure.weak_distance": ("lp_vars",),
    "measure.lp_surface_measure": (),
    "measure.classify": (),
    "pipeline.solve": (),
    "pipeline.discretize": ("atoms",),
    "pipeline.discretize_symmetric": ("atoms",),
    "pipeline.classify_spec": (),
    "pipeline.solve_semicircle": (),
    "solver.solve_discrete": (),
    "solver.measure_residual": ("atom_pairs",),
    "serialization.dumps_canonical": ("bytes",),
    "serialization.parse": (),
}


def per_layer_names() -> dict:
    names = {}
    for fn, work in LAYER_FUNCS.items():
        names[f"{fn}.calls"] = "calls/op"
        names[f"{fn}.self_s"] = "s/op"
        for w in work:
            names[f"{fn}.{w}"] = "count/op"
    names.update({
        "solver.solve_discrete.success_ratio": "ratio",
        "solver.newton_iters": "count/op",
        "solver.outer_iters": "count/op",
        "solver.no_convergence": "count/op",
        "pipeline.stages": "count/op",
        "pipeline.m_final": "count",
        "op.self_s": "s/op",
        "trace.overhead_s": "s",
        "trace.spans": "count/op",
    })
    names.update(QUALITY)
    return names


PER_LAYER = per_layer_names()


class CheckFailed(Exception):
    """An output failed an independent check."""


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def child_import_seconds() -> float:
    """Time `import lpmink` in a fresh interpreter, as each CLI call pays it."""
    code = "import time; t = time.perf_counter(); import lpmink; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class Bench:
    """One workload's cases, the op that runs a case, and its checks."""

    def __init__(self, workload: str, seed: int, max_cases: int | None, recorder=None):
        import lpmink.cli as cli
        import lpmink.pipeline as pipeline
        import lpmink.serialization as serialization
        import lpmink.solver as solver
        import workloads

        self.cli, self.pipeline, self.serialization, self.solver = cli, pipeline, serialization, solver
        self.workloads = workloads
        self.workload, self.seed, self.max_cases = workload, seed, max_cases
        self.recorder = recorder
        self.cfg = pipeline.PipelineConfig()
        self.cases = []

    def generate(self) -> None:
        self.cases = self.workloads.generate(self.workload, self.seed)[: self.max_cases]

    def _parse(self, text: str):
        return self.serialization.measure_spec_from_dict(json.loads(text))

    def op(self, case, cfg=None):
        """Parse, solve and serialize one case.  Returns (outcome, body text,
        report text, spec, report, body); outcome is "ok" or "gave_up"."""
        from lpmink.errors import NoConvergenceError

        rec, ser = self.recorder, self.serialization
        if rec is not None and rec.installed:
            spec = rec.span("serialization.parse", self._parse, case.measure_json)
        else:
            spec = self._parse(case.measure_json)
        G = self.cli.parse_symmetry(case.symmetry, spec)
        try:
            P, report = self.pipeline.solve(spec, case.p, G, cfg or self.cfg)
        except NoConvergenceError as exc:
            err = {"error": type(exc).__name__, "message": str(exc),
                   "report": exc.report.to_dict() if exc.report is not None else None}
            return "gave_up", "", ser.dumps_canonical(err) + "\n", spec, exc.report, None
        body = ser.dumps_canonical(ser.polygon_to_dict(P)) + "\n"
        report_text = ser.dumps_canonical(report.to_dict()) + "\n"
        outcome = "gave_up" if self.pipeline.NO_CONVERGENCE_WARNING in report.warnings else "ok"
        return outcome, body, report_text, spec, report, P

    def check(self, case, body: str, spec, solved) -> dict:
        """Independent checks of a returned body; returns its quality numbers.
        The checks run on the body parsed back from its JSON text."""
        import numpy as np

        P = self.serialization.polygon_from_dict(json.loads(body))
        if not (np.array_equal(P.normals, solved.normals)
                and np.array_equal(P.support, solved.support)):
            raise CheckFailed(f"{case.label}: body JSON does not parse back to its support data")
        out = {}
        if spec.is_purely_atomic():
            res = self.solver.measure_residual(P, spec.atoms, case.p)
            out["residual.max"] = res
            if not res <= RESIDUAL_TOL:
                raise CheckFailed(f"{case.label}: recomputed residual {res:.3e} above tolerance")
        if case.exact_support is not None:
            t = 2.0 * math.pi * np.arange(SUPPORT_GRID) / SUPPORT_GRID
            exact = case.exact_support(t)
            err = float(np.max(np.abs(P.support_values(t) - exact)) / exact.max())
            out["support_err.max"] = err
            if not err <= SUPPORT_ERR_TOL:
                raise CheckFailed(f"{case.label}: support error {err:.3e} above {SUPPORT_ERR_TOL}")
        if case.ode_check:
            ode = self.pipeline.monge_ampere_residual(P, spec, case.p)
            out["ode_residual.max"] = ode
            if not ode <= ODE_RESIDUAL_TOL:
                raise CheckFailed(f"{case.label}: support-ODE residual {ode:.3e} above {ODE_RESIDUAL_TOL}")
        return out

    def warm_up(self) -> None:
        """Small solves through every route's first-call paths (lazy imports,
        the LP backend, the sparse Newton branch)."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        small = self.pipeline.PipelineConfig(m_max=256)
        knots = 2.0 * math.pi * np.arange(256) / 256
        F = self.workloads.Fourier(1.0, (2,), (0.05,), (float(rng.uniform(0, 2 * math.pi)),))
        self.op(self.workloads.manufactured_density(F, 0.5, knots), small)
        t, m = self.workloads.jittered_atoms(rng, 512)
        self.op(self.workloads.Case("warm-up atoms", 0.5, self.workloads.atoms_doc(t, m)))


class Tally:
    """Runs ops and keeps what the metrics need: per-case op start and end
    times, the first output of each case, outcomes, quality numbers and
    errors."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.first = {}  # case index -> (body, report, outcome) of its first run
        self.quality = {k: [] for k in QUALITY}
        self.times = {False: defaultdict(list), True: defaultdict(list)}  # traced? -> case -> [(t0, t1)]
        self.outcomes = {"ok": 0, "gave_up": 0, "wrong": 0}
        self.errors: list[str] = []
        self.m_finals, self.stages = [], []
        self.attempted = 0
        self.last = 0.0  # duration of the latest op

    def run(self, i: int, case, recorder=None) -> None:
        """One timed op (traced when a recorder is given)."""
        gc.collect()  # start every op with the same collector state
        if recorder is not None:
            recorder.op_id = self.attempted
            recorder.begin("op")
        t0 = time.perf_counter()
        try:
            outcome, body, report_text, spec, report, solved = self.bench.op(case)
        except Exception as exc:  # any other exception is a defect: record it, keep going
            outcome, body, report_text, spec, report, solved = "wrong", "", "", None, None, None
            self.errors.append(f"{case.label}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        self.last = t1 - t0
        if recorder is not None:
            recorder.end()
        self.attempted += 1
        self.times[recorder is not None][i].append((t0, t1))
        if report is not None and report.m_final is not None:
            self.m_finals.append(report.m_final)
            self.stages.append(len(report.loop_history or ()))
        if i in self.first:
            if self.first[i][:2] != (body, report_text):
                self.errors.append(f"{case.label}: repeated input gave different output bytes")
            outcome = self.first[i][2]
        elif outcome == "ok":  # first runs fall in pass 0, which is never traced
            try:
                for k, v in self.bench.check(case, body, spec, solved).items():
                    self.quality[k].append(v)
            except CheckFailed as exc:
                outcome = "wrong"
                self.errors.append(str(exc))
        self.first.setdefault(i, (body, report_text, outcome))
        self.outcomes[outcome] += 1


def run_workload(args) -> int:
    import lpmink
    import meter

    if Path(lpmink.__file__).resolve().parent != SRC / "lpmink":
        print(f"error: imported lpmink from {lpmink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
    bench = Bench(args.workload, args.seed, args.max_cases, recorder)

    # Set-up: import (in a fresh interpreter), input generation, warm-up.
    setups = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        bench.generate()
        bench.warm_up()
        setups.append(child_import_seconds() + time.perf_counter() - t0)

    gc.freeze()  # set-up objects live for the whole run; keep them out of collections
    tally = Tally(bench)
    speed = meter.SpeedMeter()
    heavy = set()  # cases whose first op took HEAVY_S or more
    visits = [0] * len(bench.cases)
    passes = 0
    speed.start()
    start = time.perf_counter()
    try:
        while True:
            traced = recorder is not None and passes % 2 == 1
            if traced:
                recorder.install()
            light = len(heavy) < len(bench.cases)
            for i, case in enumerate(bench.cases):
                elapsed = time.perf_counter() - start
                if i in heavy and light:
                    # in a traced run, the second run falls in a traced pass
                    if (visits[i] >= MIN_VISITS or elapsed < visits[i] * args.seconds / MIN_VISITS
                            or (recorder is not None and not traced)):
                        continue
                elif visits[i] >= MIN_VISITS and elapsed >= args.seconds:
                    continue
                visits[i] += 1
                visit = time.perf_counter()
                for _ in range(REPEATS):
                    tally.run(i, case, recorder if traced else None)
                    if i in heavy or time.perf_counter() - visit >= VISIT_S:
                        break
                if passes == 0 and tally.last >= HEAVY_S:
                    heavy.add(i)
            if traced:
                recorder.uninstall()
            passes += 1
            if time.perf_counter() - start >= args.seconds and min(visits) >= MIN_VISITS:
                break
    finally:
        speed.stop()
    elapsed = time.perf_counter() - start

    first, quality = tally.first, tally.quality
    attempted = len(first)
    failed = sum(f[2] != "ok" for f in first.values())
    correct = not tally.errors
    env = environment()
    raw = case_times(tally.times.values(), lambda t0, t1: t1 - t0)
    scaled = case_times(tally.times.values(), speed.rescale)
    e2e = {
        "setup_s": statistics.median(setups),
        "solve_s.p50": statistics.median(scaled),
        "solve_s.p90": quantile(scaled, 0.9),
        "solves_per_s": len(scaled) / sum(scaled),
        "ok_ratio": sum(f[2] == "ok" for f in first.values()) / len(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    qual = {k: (max(v) if v else 0.0) for k, v in quality.items()}

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {int(args.trace)}: {len(bench.cases)} cases ({len(heavy)} heavy), "
          f"{passes} passes, {tally.attempted} ops in {elapsed:.1f} s")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# outcomes per op {json.dumps(tally.outcomes)}")
    print(f"# speed meter: {len(speed.dt)} probes, median {statistics.median(speed.dt):.6g} s "
          f"(nominal {meter.PROBE_NOMINAL_S:g} s); unscaled p50 {statistics.median(raw):.6g} s, "
          f"p90 {quantile(raw, 0.9):.6g} s, solves_per_s {len(raw) / sum(raw):.6g} 1/s")
    samples = {"setup_s": f"n={SETUP_ROUNDS} rounds", "solve_s.p50": f"n={len(scaled)} cases",
               "solve_s.p90": f"n={len(scaled)} cases", "solves_per_s": f"n={len(scaled)} cases",
               "ok_ratio": f"n={len(first)} cases", "fail_ratio": f"n={attempted} cases"}
    rows = list(e2e.items()) + [("fail_ratio", failed / attempted)] + list(qual.items())
    units = dict(END_TO_END, fail_ratio="ratio", **QUALITY)
    for name, value in rows:
        note = samples.get(name, f"n={len(quality[name])} checks" if name in quality else "")
        print(f"# metric {name} {value:.6g} {units[name]} {note}")
    for line in tally.errors[:20]:
        print(f"# ERROR {line}")

    if recorder is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        traced_times = tally.times[True]
        layer = layer_metrics(recorder, sum(map(len, traced_times.values())))
        layer.update(qual)
        layer["pipeline.stages"] = statistics.fmean(tally.stages) if tally.stages else 0.0
        layer["pipeline.m_final"] = statistics.median(tally.m_finals) if tally.m_finals else 0.0
        layer["trace.overhead_s"] = (statistics.median(case_times([traced_times], speed.rescale))
                                     - statistics.median(case_times([tally.times[False]], speed.rescale)))
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                              "metrics": {k: v["value"] for k, v in metrics.items()}})
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile (numpy's default); one value is itself."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def case_times(runs, op_time) -> list:
    """Each case's median op time over the given {case: [(t0, t1)]} maps."""
    merged = defaultdict(list)
    for run in runs:
        for case, spans in run.items():
            merged[case].extend(op_time(t0, t1) for t0, t1 in spans)
    return [statistics.median(ts) for ts in merged.values()]


def layer_metrics(rec, n_ops: int) -> dict:
    """Per-op averages over the traced ops."""
    out = {}
    per_op = 1.0 / max(n_ops, 1)
    for fn, work in LAYER_FUNCS.items():
        out[f"{fn}.calls"] = rec.calls.get(fn, 0) * per_op
        out[f"{fn}.self_s"] = rec.self_s.get(fn, 0.0) * per_op
        for w in work:
            out[f"{fn}.{w}"] = rec.work.get(f"{fn}.{w}", 0) * per_op
    calls = rec.calls.get("solver.solve_discrete", 0)
    out["solver.solve_discrete.success_ratio"] = rec.solver["success"] / calls if calls else 0.0
    for k in ("newton_iters", "outer_iters", "no_convergence"):
        out[f"solver.{k}"] = rec.solver[k] * per_op
    out["op.self_s"] = rec.self_s.get("op", 0.0) * per_op
    out["trace.spans"] = len(rec.spans) * per_op
    return out


def run_all(args) -> int:
    """Each workload in its own process, then one table per mode.  The
    untraced table adds the `# metric` lines (fail_ratio and the quality
    numbers).  With --smoke, both modes run and every metric name and unit
    must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    modes = (0, 1) if args.smoke else (args.trace,)
    status = 0
    tables = {mode: {} for mode in modes}  # mode -> metric -> (unit, {workload: value})
    for name in WORKLOAD_NAMES:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(mode)]
            if args.max_cases:
                cmd += ["--max-cases", str(args.max_cases)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={mode}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[mode]:
                print(f"{name} trace={mode}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(expected[mode].items()) ^ set(got.items()))}")
                status = 1
            rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
            if mode == 0:
                rows = [(f[2], float(f[3]), f[4]) for f in map(str.split, lines)
                        if f[:2] == ["#", "metric"]]
            rows += [(k, result[k], "") for k in ("attempted", "failed", "correct")]
            for metric, value, unit in rows:
                tables[mode].setdefault(metric, (unit, {}))[1][name] = value
    for mode, table in tables.items():
        print(f"\n{'trace=%d' % mode:<40}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES) + "  unit")
        for metric, (unit, vals) in table.items():
            cells = (vals.get(w, "-") for w in WORKLOAD_NAMES)
            print(f"{metric:<40}" + "".join(f"{v:>16.6g}" if isinstance(v, float) else f"{str(v):>16}"
                                            for v in cells) + f"  {unit}")
    return status


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-cases", type=int, default=None,
                    help="use only the first N cases of each pass")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, 2 cases, 1 s, both modes; check metric names")
    args = ap.parse_args(argv)
    if args.max_cases is not None and args.max_cases < 1:
        ap.error("--max-cases must be at least 1")
    if args.smoke:
        args.workload, args.seconds, args.max_cases = "all", 1.0, args.max_cases or 2
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpmink" / "__init__.py").is_file():
        print(f"error: no lpmink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
