"""Module ownership: each job lives in the module that owns it.

No lpmink module imports another's underscore-prefixed name or reads an
underscore-prefixed attribute of any object but self, the planar measure
module defines nothing 3-D, and the package still exports the 3-D measure
from the gallery, its only user.
"""

import ast
from pathlib import Path

import lpmink
from lpmink import gallery, measure

SRC = Path(lpmink.__file__).resolve().parent


def private_imports(path):
    """(module, name) of each underscore-prefixed name the file imports from
    another lpmink module, relatively or as lpmink.<module>."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "lpmink" and not module.startswith("lpmink."):
            continue
        found += [(module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def private_attribute_reads(path):
    """(line, expression) of each underscore-prefixed attribute, dunders
    aside, that the file reads on an object other than self."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_module_imports_another_modules_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"gallery.py", "measure.py", "cli.py"}
    offenders = {p.name: private_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_checker_sees_a_private_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .measure import DiscreteMeasure, _fan_area\n"
                    "from lpmink.geometry import _clears_margin\n"
                    "from numpy import _private\n")
    assert private_imports(path) == [("measure", "_fan_area"), ("lpmink.geometry", "_clears_margin")]


def test_no_module_reads_a_private_attribute_of_another_object():
    offenders = {p.name: private_attribute_reads(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_checker_sees_a_private_attribute_read(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(self, spec):\n"
                    "    x = self._cache, self.__class__, spec.__dict__\n"
                    "    return spec.density._t + x._f\n")
    assert private_attribute_reads(path) == [(3, "spec.density._t"), (3, "x._f")]


def test_the_3d_measure_lives_in_the_gallery():
    from lpmink import DiscreteMeasure3, lp_surface_measure_3d

    assert DiscreteMeasure3 is gallery.DiscreteMeasure3
    assert lp_surface_measure_3d is gallery.lp_surface_measure_3d
    for name in ("DiscreteMeasure3", "lp_surface_measure_3d", "_fan_area", "NonPlanarFacetError"):
        assert not hasattr(measure, name)
