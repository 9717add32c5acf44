"""Which functions and statements of src/lpmink the benchmark's cases, or the tests, run.

    python3 tools/traffic.py
    python3 tools/traffic.py --seeds 1 --workload stress-corpus
    python3 tools/traffic.py --tests
    python3 tools/traffic.py --tests tests/test_cli.py -q

Each case of bench/workloads.py runs once as tools/output_digest.py's
case_bytes runs it (parse the measure JSON, solve, write the body and
report), under sys.settrace; the benchmark's own checks on the parsed-back
body are not run.  With --tests, the test suite runs instead: pytest.main,
in this process, with the arguments after --tests (none: the tests under
the repository's testpaths, when run from its root), and --seeds and
--workload are ignored.  Only this process's main thread is traced, so a
test's subprocesses and threads count for nothing.  The script then
prints, after pytest's own output if any, in source order:

    never entered: <module>.<function> (<file>:<line>)

for each function (a def, a method or a nested def) that no case entered,

    not run: <module>.<function>: <line>, <line>-<line>, ...

for each entered function with statements that never ran (a compound
statement by its header, a docstring never), and last "<k> of <n>
functions entered".  The script itself writes nothing; with --tests it
exits with pytest's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True  # no bytecode cache under tools/ or bench/
sys.path.insert(0, str(Path(__file__).resolve().parent))

import argparse  # noqa: E402
import ast  # noqa: E402

import output_digest as digest  # noqa: E402  (sets the BLAS threads and sys.path)
from output_digest import workloads  # noqa: E402  (bench/workloads.py)
import lpmink  # noqa: E402

SRC = Path(lpmink.__file__).parent  # src/lpmink, as the traced code names it


def _header_end(stmt: ast.stmt) -> int:
    """The last line of stmt's own text: all of a simple statement, up to
    the first line of its body for a compound one."""
    body = getattr(stmt, "body", None)
    return body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno


def _statements(fn) -> list[tuple[int, int]]:
    """(first, last) lines of each statement fn runs itself, nested defs
    and classes left to their own entries, the docstring left out."""
    body = fn.body[1:] if ast.get_docstring(fn, clean=False) is not None else fn.body
    spans, todo = [], list(body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        spans.append((stmt.lineno, max(stmt.lineno, _header_end(stmt))))
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                todo.append(child)
            elif isinstance(child, ast.excepthandler):
                todo.extend(child.body)
    return sorted(spans)


def functions(path: Path) -> list[tuple]:
    """(name, first line of its code, def line, statement spans) of every
    function in path, in source order."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append((prefix + child.name, first, child.lineno, _statements(child)))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return sorted(found, key=lambda f: f[1])


def trace(run) -> tuple:
    """Call run() under sys.settrace: its result, the (file, first line) of
    each src/lpmink code object entered, and the (file, line) of each line
    run there."""
    src, entered, ran = str(SRC), set(), set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(src):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return line

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(outer)
    return result, entered, ran


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 5-7"."""
    runs = []
    for k in lines:
        if runs and k == runs[-1][1] + 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def report(entered: set, ran: set) -> list[str]:
    """The printed lines for what trace_cases recorded."""
    out, k, n = [], 0, 0
    for path in sorted(SRC.glob("*.py")):
        file = str(path)
        for name, first, line, spans in functions(path):
            n += 1
            qual = f"{path.stem}.{name}"
            if (file, first) not in entered:
                out.append(f"never entered: {qual} ({path.name}:{line})")
                continue
            k += 1
            missed = [a for a, b in spans
                      if not any((file, j) in ran for j in range(a, b + 1))]
            if missed:
                out.append(f"not run: {qual}: {ranges(missed)}")
    return out + [f"{k} of {n} functions entered"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-3", help='e.g. "0-3" or "1,3"')
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--tests", nargs=argparse.REMAINDER, metavar="PYTEST ARGS",
                    help="trace the test suite, run with these pytest arguments")
    args = ap.parse_args(argv)
    if args.tests is not None:
        import pytest

        status, entered, ran = trace(lambda: int(pytest.main(args.tests)))
    else:
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        cases = [case for name in names for seed in digest.parse_seeds(args.seeds)
                 for case in workloads.generate(name, seed)]

        def run_cases():
            for case in cases:
                digest.case_bytes(case)
            return 0

        status, entered, ran = trace(run_cases)
    print("\n".join(report(entered, ran)))
    return status


if __name__ == "__main__":
    sys.exit(main())
