"""Generators for two instructive explicit constructions.

1. A rotational graph patch z = |x|^q whose Lp boundary measure has a
   positive continuous density even though the body touches the origin:
   witnesses that solutions to density data may have o on the boundary.
2. A family of 3-D polytopes whose Lp boundary measures converge weakly to a
   fixed measure while the bodies grow without bound: witnesses that the
   planar boundedness mechanism fails in higher dimension.

The 3-D atomic measure and the Lp surface measure of a polytope, which only
these constructions use, live here, as does write_csv, which writes both
tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponentError, NonPlanarFacetError, OriginOutsideError


@dataclass(eq=False)
class BoundaryGraphProfile:
    """Sampled profile of the origin-touching rotational graph body.  == is
    identity: comparing the arrays field by field would raise."""

    p: float
    n: int
    q: float
    r: np.ndarray
    grad_norm: np.ndarray
    a: np.ndarray            # (1 + |grad|^2)^(1/2)
    h: np.ndarray            # support at the outward normal over radius r
    curvature: np.ndarray    # Gauss curvature at that normal
    density: np.ndarray      # Radon-Nikodym derivative of the Lp measure

    def exponent_gap(self) -> float:
        """q(1-p) - (q-2)(n-1); identically zero for the defining q."""
        return self.q * (1.0 - self.p) - (self.q - 2.0) * (self.n - 1.0)

    def rows(self):
        for k in range(len(self.r)):
            yield {
                "r": float(self.r[k]),
                "grad_norm": float(self.grad_norm[k]),
                "a": float(self.a[k]),
                "h": float(self.h[k]),
                "curvature": float(self.curvature[k]),
                "density": float(self.density[k]),
            }


def boundary_graph_profile(p: float, n: int, samples: int = 64) -> BoundaryGraphProfile:
    """Closed-form profile of the graph z = |x|^q with q = 2(n-1)/(n+p-2),
    at samples radii spaced logarithmically from 1e-6 to 0.99.

    Valid for n >= 2 and p in (2-n, 1), where q > 2 and the density
    h^(1-p)/kappa is positive and continuous all the way to the origin.
    """
    if n < 2:
        raise InvalidExponentError("need dimension n >= 2")
    if not (2.0 - n < p < 1.0):
        raise InvalidExponentError(f"p = {p} outside (2 - n, 1) for n = {n}")
    if samples < 8:
        raise ValueError("need at least 8 radial samples")
    q = 2.0 * (n - 1.0) / (n + p - 2.0)
    if q <= 2.0:
        raise InvalidExponentError(f"exponent q = {q} fails q > 2")
    r = np.logspace(math.log10(1e-6), math.log10(0.99), samples)
    grad = q * r ** (q - 1.0)
    a = np.sqrt(1.0 + grad ** 2)
    h = (q - 1.0) * r ** q / a
    curvature = (q - 1.0) * q ** (n - 1.0) * a ** (-(n + 1.0)) * r ** ((q - 2.0) * (n - 1.0))
    density = (q - 1.0) ** (-p) * q ** (1.0 - n) * a ** (n + p)
    return BoundaryGraphProfile(p, n, q, r, grad, a, h, curvature, density)


@dataclass(eq=False)
class DiscreteMeasure3:
    """Finite atomic measure on S^2 (gallery support)."""

    directions: np.ndarray  # (N, 3) unit vectors
    masses: np.ndarray

    def __init__(self, directions, masses):
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        m = np.atleast_1d(np.asarray(masses, dtype=float))
        if not (np.isfinite(d).all() and np.isfinite(m).all()):
            raise ValueError("atom directions and masses must be finite numbers")
        if np.any(m <= 0):
            raise ValueError("masses must be positive")
        self.directions = d
        self.masses = m

    def total_mass(self) -> float:
        return float(math.fsum(self.masses))


def _fan_area(pts: np.ndarray) -> float:
    v0 = pts[0]
    total = 0.0
    for a, b in zip(pts[1:-1], pts[2:]):
        total += 0.5 * np.linalg.norm(np.cross(a - v0, b - v0))
    return float(total)


def lp_surface_measure_3d(vertices, facets, normals, p: float) -> DiscreteMeasure3:
    """Per-facet masses h(u)^(1-p) * area(facet) for a 3-D polytope.

    `facets` lists vertex indices in cyclic order; `normals` are the outward
    unit facet normals.  Facet areas come from a fan triangulation.  A facet
    off its plane, or below 0, by over 1e-9 times the coordinate scale raises.
    """
    V = np.asarray(vertices, dtype=float)
    scale = max(1.0, float(np.abs(V).max()))
    dirs, masses = [], []
    for idx, nrm in zip(facets, normals):
        nrm = np.asarray(nrm, dtype=float)
        pts = V[list(idx)]
        heights = pts @ nrm
        h = float(heights.max())
        if np.max(np.abs(heights - h)) > 1e-9 * scale:
            raise NonPlanarFacetError(
                f"facet {idx} deviates from its plane by {np.max(np.abs(heights - h)):.3g}"
            )
        if h < -1e-9 * scale:
            raise OriginOutsideError("facet support negative: origin outside polytope")
        if h <= 0.0:
            continue
        massv = h ** (1.0 - p) * _fan_area(pts)
        if massv > 0.0:
            dirs.append(nrm)
            masses.append(massv)
    return DiscreteMeasure3(np.array(dirs), np.array(masses))


@dataclass(eq=False)
class Polytope3Instance:
    """One member of the unbounded 3-D family: six vertices, five facets.
    == is identity: comparing the arrays field by field would raise."""

    m: int
    p: float
    a: float                  # slab half-thickness m^(-(2-p))
    t: float                  # translation magnitude along -x
    vertices: np.ndarray      # (6, 3), untranslated
    facets: list              # vertex index cycles
    normals: np.ndarray       # (5, 3) outward unit facet normals

    def translated_vertices(self) -> np.ndarray:
        shift = np.array([self.t, 0.0, 0.0])
        return self.vertices - shift

    def facet_supports(self, translated: bool = True) -> np.ndarray:
        """Closed-form facet support values.

        Vertex dot products suffer catastrophic cancellation here: the slab
        facets pass through the origin before translation, and after it
        their support t*a/s is far below float resolution of the vertex
        coordinates for large m.
        """
        mf, a, s = float(self.m), self.a, math.sqrt(self.a ** 2 + float(self.m) ** 2)
        base = np.array([mf, mf / math.sqrt(2.0), mf / math.sqrt(2.0), 0.0, 0.0])
        if not translated:
            return base
        # translating by -t along x adds -t * u_x to each support value
        ux = self.normals[:, 0]
        return base - self.t * ux

    def facet_areas(self) -> np.ndarray:
        return np.array([_fan_area(self.vertices[list(idx)]) for idx in self.facets])

    def facet_masses(self, translated: bool = True) -> np.ndarray:
        """h(u)^(1-p) * facet area per facet (zeros kept, order as listed)."""
        h = self.facet_supports(translated)
        areas = self.facet_areas()
        return np.where(h > 0, h ** (1.0 - self.p) * areas, 0.0)

    def boundary_measure(self) -> DiscreteMeasure3:
        masses = self.facet_masses()
        keep = masses > 0
        return DiscreteMeasure3(self.normals[keep], masses[keep])

    def diameter(self) -> float:
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(math.sqrt(d2.max()))

    def to_dict(self) -> dict:
        """The translated body, as `lpmink gallery unbounded-3d --json` writes it."""
        return {
            "vertices": self.translated_vertices().tolist(),
            "facets": [list(map(int, f)) for f in self.facets],
            "normals": self.normals.tolist(),
        }


def unbounded_polytope_3d(p: float, m: int) -> Polytope3Instance:
    """Slab-like polytope of width ~m whose five Lp facet masses stay bounded.

    Vertices (0, +-m, 0) and (m, +-2m, +-a) with a = m^(-(2-p)); the body is
    then translated along -x so the support at the top normal equals
    m^(-2/(1-p)).  Facet normals are cross-checked against their closed
    forms.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if m < 2:
        raise ValueError("need m >= 2")
    a = float(m) ** (-(2.0 - p))
    mf = float(m)
    vertices = np.array(
        [
            [0.0, mf, 0.0],     # 0: y+ apex
            [mf, 2 * mf, a],    # 1
            [mf, 2 * mf, -a],   # 2
            [0.0, -mf, 0.0],    # 3: y- apex
            [mf, -2 * mf, a],   # 4
            [mf, -2 * mf, -a],  # 5
        ]
    )
    facets = [
        (1, 2, 5, 4),  # front rectangle, normal +x
        (0, 1, 2),     # left triangle
        (3, 5, 4),     # right triangle
        (0, 3, 4, 1),  # top trapezoid
        (0, 2, 5, 3),  # bottom trapezoid
    ]
    s = math.sqrt(a * a + mf * mf)
    normals = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0],
            [-1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0],
            [-a / s, 0.0, mf / s],
            [-a / s, 0.0, -mf / s],
        ]
    )
    centroid = vertices.mean(axis=0)
    for idx, nrm in zip(facets, normals):
        pts = vertices[list(idx)]
        fitted = _facet_normal(pts, centroid)
        if np.max(np.abs(fitted - nrm)) > 1e-12:
            raise AssertionError(
                f"facet normal mismatch: computed {fitted}, closed form {nrm}"
            )
    # translation fixing the support at the top normal to m^(-2/(1-p))
    target = mf ** (-2.0 / (1.0 - p))
    t = target * s / a
    return Polytope3Instance(m, p, a, t, vertices, facets, normals)


def _facet_normal(pts: np.ndarray, interior_point: np.ndarray) -> np.ndarray:
    nrm = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    nrm = nrm / np.linalg.norm(nrm)
    if float(nrm @ (pts.mean(axis=0) - interior_point)) < 0:
        nrm = -nrm
    return nrm


def unbounded_limit_table(p: float, m_list) -> list[dict]:
    """Per-m facet masses (translated body), diameter, and t/m ratio."""
    rows = []
    for m in m_list:
        inst = unbounded_polytope_3d(p, int(m))
        masses = inst.facet_masses()
        rows.append(
            {
                "m": int(m),
                "mass_front": float(masses[0]),
                "mass_left": float(masses[1]),
                "mass_right": float(masses[2]),
                "mass_top": float(masses[3]),
                "mass_bottom": float(masses[4]),
                "diameter": inst.diameter(),
                "t_over_m": inst.t / float(m),
            }
        )
    return rows


def write_csv(rows: list[dict], path):
    """Write a table of rows, dicts with the same keys in the same order, as
    CSV: a header of the first row's keys, then each row with its floats as
    %.17g and its other values as written."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.17g}" if isinstance(v, float) else v
                             for k, v in row.items()})
