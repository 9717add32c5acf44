"""Command-line front end: solve / verify / measure / discretize / gallery.

Exit codes: 0 success, 1 input, schema or usage error, 2 nonexistence
(antipodal pair), 3 no convergence.  Set LPMINK_LOG to quiet|info|debug.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
from pathlib import Path

from .errors import (
    AntipodalPairError,
    LpMinkError,
    NoConvergenceError,
    SchemaError,
)
from .gallery import (
    boundary_graph_profile,
    unbounded_limit_table,
    unbounded_polytope_3d,
    write_csv,
)
from .geometry import SymmetryGroup
from .measure import lp_surface_measure, weak_distance
from .pipeline import (
    NO_CONVERGENCE_WARNING,
    PipelineConfig,
    check_group_order,
    classify_spec,
    detect_symmetry,
    discretize,
    monge_ampere_residual,
    solve,
    stage_measure,
)
from .serialization import (
    discrete_measure_to_dict,
    dumps_canonical,
    measure_spec_from_dict,
    polygon_from_dict,
    polygon_to_dict,
    write_canonical,
)
from .solver import measure_residual
from .svgplot import save_svg

log = logging.getLogger("lpmink")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONEXISTENCE = 2
EXIT_NO_CONVERGENCE = 3


def _setup_logging():
    level = os.environ.get("LPMINK_LOG", "quiet").lower()
    mapping = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=mapping.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _error_json(exc: Exception) -> str:
    return dumps_canonical(
        {"error": type(exc).__name__, "message": str(exc)}
    )


def _load_json(path: str) -> dict:
    import json

    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"$: input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: invalid JSON in {path}: {exc}") from exc


# The spec grammar, narrower than int() and float(), which also take
# surrounding whitespace, a leading '+', '_' between digits and non-ASCII
# digits.  A signed order parses, so that C-3 is reported as an order below 1.
_ORDER = re.compile(r"-?[0-9]+")
_AXIS = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                   r"|[+-]?(?i:inf|infinity|nan)")


def parse_symmetry(text: str, spec=None) -> SymmetryGroup:
    """Group from a `--symmetry` spec: none|trivial, C<k>, D<k>[:<axis>] or
    auto, with the order k in ASCII digits and the axis a decimal number.
    Anything else, an order below 1 or an axis that is not a finite number
    raises SchemaError naming the spec."""
    t = text.strip()
    if t in ("none", "trivial", ""):
        return SymmetryGroup.trivial()
    if t == "auto":
        if spec is None:
            raise SchemaError("symmetry: 'auto' needs a measure to inspect")
        return detect_symmetry(spec)
    if t.startswith("C"):
        if not _ORDER.fullmatch(t[1:]):
            raise SchemaError(f"symmetry: bad cyclic spec {text!r}")
        k = int(t[1:])
        if k < 1:
            raise SchemaError(f"symmetry: group order must be at least 1 in {text!r}")
        return SymmetryGroup.cyclic(k)
    if t.startswith("D"):
        body = t[1:]
        axis = 0.0
        if ":" in body:
            body, axis_text = body.split(":", 1)
            if not _AXIS.fullmatch(axis_text):
                raise SchemaError(f"symmetry: bad axis in {text!r}")
            axis = float(axis_text)
            if not math.isfinite(axis):
                raise SchemaError(f"symmetry: axis must be a finite number in {text!r}")
        if not _ORDER.fullmatch(body):
            raise SchemaError(f"symmetry: bad dihedral spec {text!r}")
        k = int(body)
        if k < 1:
            raise SchemaError(f"symmetry: group order must be at least 1 in {text!r}")
        return SymmetryGroup.dihedral(k, axis)
    raise SchemaError(f"symmetry: unknown spec {text!r} (none|C<k>|D<k>:<axis>|auto)")


def _pipeline_config(args) -> PipelineConfig:
    given = {"tol_residual": args.tol, "m0": args.m0, "m_max": args.m_max}
    return PipelineConfig(**{k: v for k, v in given.items() if v is not None})


def _check_resolution(m: int, limit: int, name: str) -> None:
    """Refuse a --m above limit before any grid is built."""
    if m > limit:
        raise SchemaError(f"m: resolution {m} is above {name} = {limit}, the largest grid resolution")


def _report_path(output: str) -> Path:
    out = Path(output)
    return out.with_suffix(".report.json") if out.suffix else out.parent / (out.name + ".report.json")


def cmd_solve(args) -> int:
    spec = measure_spec_from_dict(_load_json(args.input))
    G = parse_symmetry(args.symmetry, spec)
    cfg = _pipeline_config(args)
    P, report = solve(spec, args.p, G, cfg)
    write_canonical(polygon_to_dict(P), args.output)
    write_canonical(report.to_dict(), _report_path(args.output))
    if args.svg:
        save_svg(args.svg, P, discretize(spec, 64))
    log.info("solved: residual %.3e, symmetry %s", report.residual, report.symmetry)
    if NO_CONVERGENCE_WARNING in report.warnings:
        print(_error_json(NoConvergenceError(NO_CONVERGENCE_WARNING)), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.tol is not None and not 0.0 < args.tol < math.inf:  # NaN fails too
        raise SchemaError("tol: must be a positive finite number")
    P = polygon_from_dict(_load_json(args.body))
    spec = measure_spec_from_dict(_load_json(args.input))
    if spec.is_purely_atomic():
        res = measure_residual(P, spec.atoms, args.p)
        tol = args.tol if args.tol is not None else 1e-4
    else:
        # density comparisons only resolve at the grid scale: compare the
        # boundary measure weakly against the discretized input
        m = args.m if args.m is not None else max(64, P.n)
        _check_resolution(m, max(PipelineConfig().m_max, P.n), "max(m_max, facets)")
        mu_m = discretize(spec, m)
        res = weak_distance(lp_surface_measure(P, args.p), mu_m) / spec.total_mass()
        tol = args.tol if args.tol is not None else 2 * math.pi / min(m, P.n)
    out = {"residual": res}
    ma = monge_ampere_residual(P, spec, args.p)
    if ma is not None:
        out["monge_ampere_residual"] = ma
    print(dumps_canonical(out))
    return EXIT_OK if res <= tol else EXIT_NO_CONVERGENCE


def _send(doc, output, write=write_canonical) -> int:
    """Write doc to the --output path with write, or print it to stdout as
    canonical JSON; a table, a list of rows, prints one document per row."""
    if output:
        write(doc, output)
    else:
        for row in doc if isinstance(doc, list) else [doc]:
            print(dumps_canonical(row))
    return EXIT_OK


def cmd_measure(args) -> int:
    P = polygon_from_dict(_load_json(args.body))
    return _send(discrete_measure_to_dict(lp_surface_measure(P, args.p)), args.output)


def cmd_discretize(args) -> int:
    spec = measure_spec_from_dict(_load_json(args.input))
    G = parse_symmetry(args.symmetry, spec)
    m_max = PipelineConfig().m_max
    check_group_order(G, m_max)
    _check_resolution(args.m, m_max, "m_max")
    mu = stage_measure(spec, args.m, G, classify_spec(spec))
    return _send(discrete_measure_to_dict(mu), args.output)


def cmd_gallery(args) -> int:
    if args.kind == "origin-boundary":
        profile = boundary_graph_profile(args.p, args.n, args.samples)
        return _send(list(profile.rows()), args.output, write_csv)
    # unbounded-3d, the one other kind the parser's choices admit
    m_list = [int(x) for x in args.m_list.split(",")] if args.m_list else [args.m]
    _send(unbounded_limit_table(args.p, m_list), args.output, write_csv)
    if args.json:
        inst = unbounded_polytope_3d(args.p, m_list[-1])
        write_canonical(inst.to_dict(), args.json)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an exception, so main maps it to exit 1:
    argparse's own exit code 2 is this CLI's nonexistence code."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpmink",
        description="Planar Lp Minkowski problem solver (0 < p < 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp):
        sp.add_argument("--p", type=float, required=True,
                        help="exponent in (0, 1)")

    sp = sub.add_parser("solve", help="solve a measure JSON for a body")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True,
                    help="body JSON path; the report lands at <output>.report.json")
    add_p(sp)
    sp.add_argument("--symmetry", default="none")
    sp.add_argument("--m0", type=int, default=None)
    sp.add_argument("--m-max", dest="m_max", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--svg", default=None, help="optional SVG plot path")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="residuals of a body against a measure")
    sp.add_argument("--body", required=True)
    sp.add_argument("--input", required=True)
    add_p(sp)
    sp.add_argument("--m", type=int, default=None,
                    help="discretization level for density comparisons")
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("measure", help="Lp surface area measure of a body")
    sp.add_argument("--body", required=True)
    add_p(sp)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("discretize", help="grid discretization of a measure")
    sp.add_argument("--input", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--symmetry", default="none")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_discretize)

    sp = sub.add_parser("gallery", help="explicit construction tables")
    sp.add_argument("kind", choices=["origin-boundary", "unbounded-3d"])
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--m", type=int, default=100)
    sp.add_argument("--m-list", dest="m_list", default=None)
    sp.add_argument("--output", default=None, help="CSV output path")
    sp.add_argument("--json", default=None, help="polytope JSON path (unbounded-3d)")
    sp.set_defaults(func=cmd_gallery)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "p") and not 0.0 < args.p < 1.0:
            if not (args.command == "gallery" and args.kind == "origin-boundary"):
                raise SchemaError("p: must lie in (0, 1)")
        return args.func(args)
    except AntipodalPairError as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_NONEXISTENCE
    except NoConvergenceError as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (argparse.ArgumentError, LpMinkError, ValueError, OSError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
