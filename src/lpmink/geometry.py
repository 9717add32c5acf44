"""Planar convex-polygon kernel.

Bodies are intersections of half-planes {x : <x, u_i> <= h_i} with unit
normals u_i given by sorted angles.  All values are plain floats / numpy
arrays; unit vectors are represented by their angle in [0, 2*pi).
Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateBodyError,
    EmptyBodyError,
    NotClosedUnderGroupError,
    UnboundedError,
)

TWO_PI = 2.0 * math.pi

# Tolerance regime (absolute, for coordinates of order one; callers at other
# scales pre-normalize).
ANGLE_TOL = 1e-12     # sorting / dedup of normal angles
GEOM_TOL = 1e-10      # vertex / constraint satisfaction
EDGE_TOL = 1e-12      # edges shorter than this are flagged inactive


def canonical_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi), -0.0 to 0.0 as canonical_angles does."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod roundoff at the seam
        t = 0.0
    return t + 0.0


def canonical_angles(thetas) -> np.ndarray:
    t = np.asarray(thetas, dtype=float) % TWO_PI
    t[t >= TWO_PI] = 0.0
    return t


def circular_distance(a: float, b: float) -> float:
    """Arc-length distance between two directions."""
    d = abs(canonical_angle(a) - canonical_angle(b))
    return min(d, TWO_PI - d)


def circular_distances(a, b) -> np.ndarray:
    """circular_distance elementwise, for directions a and b in any range:
    the difference less its nearest multiple of 2 pi, as an unreduced one
    can reach 3 pi."""
    d = a - b
    d -= TWO_PI * np.rint(d * (1.0 / TWO_PI))
    return np.abs(d, out=d)


def angles_antipodal(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    return abs(circular_distance(a, b) - math.pi) <= tol


def unit_vector(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def unit_vectors(thetas) -> np.ndarray:
    t = np.atleast_1d(np.asarray(thetas, dtype=float))
    u = np.empty((len(t), 2))
    u[:, 0], u[:, 1] = np.cos(t), np.sin(t)
    return u


def cyclic_shift(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift, axis=0) as one concatenation of two slices, at a
    fraction of np.roll's fixed cost: entry i is a[(i - shift) % n], in a
    new array."""
    k = -shift % len(a) if len(a) else 0
    return np.concatenate((a[k:], a[:k]))


def circular_gaps(sorted_thetas: np.ndarray) -> np.ndarray:
    """Gaps between consecutive sorted angles, wrapping around 2*pi."""
    t = np.asarray(sorted_thetas, dtype=float)
    if t.size == 0:
        return np.array([])
    if t.size == 1:
        return np.array([TWO_PI])
    g = np.empty_like(t)
    np.subtract(t[1:], t[:-1], out=g[:-1])
    g[-1] = t[0] + TWO_PI - t[-1]
    return g


@dataclass(frozen=True)
class Isometry2:
    """Orthogonal map of the plane: rotation by `parameter` or reflection
    across the line through the origin at axis angle `parameter`."""

    kind: str  # "rotation" | "reflection"
    parameter: float

    def __post_init__(self):
        if self.kind not in ("rotation", "reflection"):
            raise ValueError(f"unknown isometry kind {self.kind!r}")

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.parameter), math.sin(self.parameter)
        if self.kind == "rotation":
            return np.array([[c, -s], [s, c]])
        c2, s2 = math.cos(2 * self.parameter), math.sin(2 * self.parameter)
        return np.array([[c2, s2], [s2, -c2]])

    def apply_angle(self, theta: float) -> float:
        if self.kind == "rotation":
            return canonical_angle(theta + self.parameter)
        return canonical_angle(2.0 * self.parameter - theta)

    def apply_angles(self, thetas) -> np.ndarray:
        t = np.asarray(thetas, dtype=float)
        if self.kind == "rotation":
            return canonical_angles(t + self.parameter)
        return canonical_angles(2.0 * self.parameter - t)

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float) @ self.matrix.T


IDENTITY = Isometry2("rotation", 0.0)


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite subgroup of O(2): trivial, cyclic C_k, or dihedral D_k with a
    distinguished reflection-axis angle."""

    kind: str  # "trivial" | "cyclic" | "dihedral"
    order_k: int = 1
    axis: float = 0.0

    def __post_init__(self):
        if self.kind not in ("trivial", "cyclic", "dihedral"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind != "trivial" and self.order_k < 1:
            raise ValueError("group order must be >= 1")

    @classmethod
    def trivial(cls) -> "SymmetryGroup":
        return cls("trivial")

    @classmethod
    def cyclic(cls, k: int) -> "SymmetryGroup":
        return cls("trivial") if k <= 1 else cls("cyclic", k)

    @classmethod
    def dihedral(cls, k: int, axis: float = 0.0) -> "SymmetryGroup":
        return cls("dihedral", max(k, 1), canonical_angle(axis))

    @property
    def is_trivial(self) -> bool:
        return self.kind == "trivial"

    def elements(self) -> list[Isometry2]:
        if self.kind == "trivial":
            return [IDENTITY]
        k = self.order_k
        rots = [Isometry2("rotation", canonical_angle(TWO_PI * j / k)) for j in range(k)]
        if self.kind == "cyclic":
            return rots
        refls = [
            Isometry2("reflection", canonical_angle(self.axis + math.pi * j / k))
            for j in range(k)
        ]
        return rots + refls

    def label(self) -> str:
        if self.kind == "trivial":
            return "trivial"
        if self.kind == "cyclic":
            return f"C{self.order_k}"
        return f"D{self.order_k}:{self.axis:.12g}"


@dataclass(eq=False)
class Polygon:
    """Convex body from support data.

    normals: sorted angles in [0, 2*pi), pairwise distinct.
    support: support numbers h_i (one per normal).
    vertices: counterclockwise vertex chain.  A chain of more than five
      vertices turns by the margin of _clears_margin at every vertex:
      construction drops the vertices that do not (_margin_chain).
    active: normals whose constraint carries an edge longer than EDGE_TOL.
    lengths: per-normal edge length (0 for normals not on the boundary).
    No edge's end points are kept: _chain recomputes them from normals and
    support.

    The arrays must not be mutated after construction: the normal cones of
    the chain are built once, on first use, and kept.  == is identity:
    comparing the arrays field by field would raise.
    """

    normals: np.ndarray
    support: np.ndarray
    vertices: np.ndarray
    active: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        self.vertices = _margin_chain(self.vertices)

    @property
    def n(self) -> int:
        return len(self.normals)

    @cached_property
    def _cones(self):
        """(phi, r) of _normal_cones for a chain of more than five vertices,
        else None; support_values and diameter share it."""
        if len(self.vertices) <= _SHORT:
            return None
        return _normal_cones(*self.vertices.T.copy())

    def support_values(self, thetas) -> np.ndarray:
        """max_j (x_j cos t + y_j sin t) for each direction t, elementwise, so
        a value depends neither on the BLAS build nor on the other directions
        of the call.  Each direction looks up the vertex whose normal cone
        holds it (_normal_cones, keyed by atan2(sin t, cos t)) and takes the
        max over the window of +-_WINDOW vertices around it, O(log V) per
        direction, which equals the max over all vertices bit for bit.  A
        chain of at most _SHORT vertices takes no lookup: the window around
        vertex 0 holds every vertex.  The window is gathered window-major,
        one row per offset and one column per direction, so the products
        form in place and the max reduces across rows, along the long axis.
        Every value is x*c + y*s, then a max, then + 0.0 to turn a -0.0
        maximum into 0.0, so a tie of signed zeros cannot depend on the order
        of the window."""
        t = np.atleast_1d(np.asarray(thetas, dtype=float))
        c, s = np.cos(t), np.sin(t)
        x, y = self.vertices.T.copy()
        if self._cones is not None:
            phi, r = self._cones
            j = r + np.searchsorted(phi, np.arctan2(s, c))
        else:
            j = np.zeros(t.shape, dtype=np.intp)
        idx = (np.arange(-_WINDOW, _WINDOW + 1)[:, None] + j) % len(x)
        xw, yw = x[idx], y[idx]
        xw *= c
        xw += np.multiply(yw, s, out=yw)
        return xw.max(axis=0) + 0.0

    def diameter(self) -> float:
        """Largest vertex distance.  A chain of at most five vertices compares
        all pairs.  On a longer chain each edge looks up, in the normal cones
        of _normal_cones, the vertex farthest from its line, and its start
        is paired with that vertex and its two neighbours: O(V log V).

        The diametral pair (a, b) is antipodal: some direction u lies in the
        normal cone [phi_{a-1}, phi_a] of a while -u lies in that of b.  Two
        closed arcs shorter than pi that meet share the smaller of their two
        upper ends, so phi_a + pi lies in b's cone or phi_b + pi in a's: b
        is farthest from the line of the edge that starts at a, or a from
        that of the edge that starts at b.  The computed key of an edge and
        the computed cone bounds are each within 8.5 eps of the exact angles
        (see _normal_cones), 17 eps in all, while every cone is wider than
        30 eps, so the lookup lands on the farthest vertex or a neighbour,
        and the window holds the pair.  Each squared distance is
        dx*dx + dy*dy, as in an all-pairs scan, so the value is that scan's
        maximum unless another pair's computed square exceeds the diametral
        pair's by rounding alone."""
        x, y = self.vertices.T.copy()
        n = len(x)
        if n > _SHORT:
            phi, r = self._cones
            ex, ey = cyclic_shift(x, -1) - x, cyclic_shift(y, -1) - y
            j = r + np.searchsorted(phi, np.arctan2(ex, -ey))
            far = (np.arange(-1, 2)[:, None] + j) % n
        else:
            far = np.arange(n)[:, None]
        dx, dy = x - x[far], y - y[far]
        dx *= dx
        dx += np.multiply(dy, dy, out=dy)
        return math.sqrt(float(dx.max()))


_WINDOW = 2          # vertices on each side of support_values' looked-up vertex
_SHORT = 2 * _WINDOW + 1  # chains this short take no lookup: the window holds them
_MARGIN = 64.0 * np.finfo(float).eps  # turn margin per unit of A and |e|_1


def _clears_margin(v: np.ndarray) -> np.ndarray:
    """Per vertex j = (x_j, y_j) of a CCW chain v: does its computed turn
    clear the margin cross(e_{j-1}, e_j) > 64 eps A max(|e_{j-1}|_1, |e_j|_1),
    with eps the machine epsilon, A = max |x_j| + |y_j| and
    |e|_1 = |ex| + |ey|?  The bounds this margin buys are in _normal_cones."""
    vv = np.concatenate((v[-1:], v, v[:1]))
    e = vv[1:] - vv[:-1]  # edge j enters vertex j, edge j + 1 leaves it
    ex, ey = e[:, 0], e[:, 1]
    cross = ex[:-1] * ey[1:] - ey[:-1] * ex[1:]
    e, v = np.abs(e), np.abs(v)
    e1 = e[:, 0] + e[:, 1]
    scale = _MARGIN * (v[:, 0] + v[:, 1]).max()
    return cross > scale * np.maximum(e1[:-1], e1[1:])


def _margin_chain(vertices) -> np.ndarray:
    """The CCW chain without the vertices whose turn fails the margin:
    every failing vertex is dropped, pass after pass, until none fails or at
    most five vertices remain.  Such a vertex is dented or lies within
    rounding of the chord of its neighbours, so the support values barely
    move; near-parallel support lines whose intersections rounding leaves
    out of convex position give such chains."""
    v = np.asarray(vertices, dtype=float)
    while len(v) > _SHORT:
        keep = _clears_margin(v)
        if keep.all():
            break
        v = v[keep]
    return v


def _normal_cones(x: np.ndarray, y: np.ndarray):
    """(phi, r) for a CCW chain that clears the margin at every vertex.
    phi[k] is the outward normal angle of the edge from vertex r + k to
    r + k + 1, increasing in k: the chain's atan2 angles rotated to start at
    the smallest, which unwraps them because a convex chain's normals wind
    once.  Vertex r + k supports the directions between phi[k - 1] and
    phi[k]; below phi[0] or above phi[-1] it is vertex r.  Every Polygon
    chain of more than five vertices qualifies, so a chain that does not
    raises RuntimeError.

    Margin (_clears_margin).  Rounding of the edges and of a cross product
    moves it by at most 2 eps |e_{j-1}|_1 |e_j|_1, and |e|_1 <= 2A, so every
    exact cross product exceeds 60 eps A max(|e_{j-1}|, |e_j|).
    - Values.  For u in the normal cone of vertex j, the values fall from j
      to the lowest vertex and rise back, so j - 2 and j + 2 bound every
      vertex two or more steps from j.  Each of them is below j by at least
      min(|e|) sin(turn) = cross / max(|e|) over the two edges and the turn
      between it and j; when the lowest vertex is j + 1 (or j - 1), j + 2
      (or j - 2) is on the rising side, below the other one.  So the gap is
      > 60 eps A, while each computed x*c + y*s is within 1.01 eps A of the
      exact value, and the elementwise winner is j - 1, j or j + 1.
    - Cones.  Each turn has sin = cross / (|e_{j-1}| |e_j|)
      > 60 eps A / min(|e_{j-1}|, |e_j|) >= 30 eps.  The computed edge
      normal angles are within eps/2 + 4 ulps of atan2 (8 eps on [-pi, pi])
      of the exact ones, and atan2(s, c) within 8 eps of the angle of the
      vector (c, s), 16.5 eps in all, so the lookup lands within one vertex
      of j, and the window of +-2 holds j - 1, j and j + 1."""
    if not _clears_margin(np.column_stack((x, y))).all():
        raise RuntimeError("vertex chain turns below the convexity margin")
    ex, ey = cyclic_shift(x, -1) - x, cyclic_shift(y, -1) - y
    phi = np.arctan2(-ex, ey)
    r = int(np.argmin(phi))
    phi = cyclic_shift(phi, -r)
    if not (phi[1:] > phi[:-1]).all():
        raise RuntimeError("vertex chain winds more than once")
    return phi, r


def _line_intersection(ux: list, uy: list, h: list, i: int, j: int) -> tuple[float, float]:
    """Intersection of support lines i and j, in Python floats: the same
    IEEE operations, in the same order, as _consecutive_intersections."""
    det = ux[i] * uy[j] - uy[i] * ux[j]
    if abs(det) < 1e-15:
        # Parallel support lines; only reachable transiently for consistent
        # antipodal pairs.  Report a far point along edge i's travel direction.
        return ux[i] * h[i] + 1e18 * -uy[i], uy[i] * h[i] + 1e18 * ux[i]
    return (h[i] * uy[j] - h[j] * uy[i]) / det, (h[j] * ux[i] - h[i] * ux[j]) / det


def _consecutive_intersections(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row k: the intersection of lines k and k + 1 (cyclically), by the
    arithmetic of _line_intersection, whose far point stands in for a
    parallel pair."""
    un, hn = cyclic_shift(u, -1), cyclic_shift(h, -1)
    ux, uy, vx, vy = u[:, 0], u[:, 1], un[:, 0], un[:, 1]
    det = ux * vy - uy * vx
    parallel = np.abs(det) < 1e-15
    far = parallel.any()
    if far:
        det[parallel] = 1.0  # those rows are overwritten below
    X = np.empty((len(h), 2))
    np.divide(h * vy - hn * uy, det, out=X[:, 0])
    np.divide(hn * ux - h * vx, det, out=X[:, 1])
    if far:
        up = u[parallel]
        X[parallel] = up * h[parallel, None] + 1e18 * np.column_stack([-up[:, 1], up[:, 0]])
    return X


def _no_constraint_cut(u: np.ndarray, h: np.ndarray, X: np.ndarray) -> bool:
    """True exactly when the deque sweep of _halfplane_chain would drop no
    line, so its chain is all of X.  Without drops, the sweep tests at step
    k >= 2 the vertices X[k-2] and X[0] against line k, and at the end the
    vertex X[n-2] against line 0; each test here is the sweep's own,
    x0*u_k0 + x1*u_k1 > h_k + GEOM_TOL, by the same IEEE operations."""
    n = len(h)
    ux, uy, bound = u[2:, 0], u[2:, 1], h[2:] + GEOM_TOL
    (x0, y0), (x, y) = X[0].tolist(), X[n - 2].tolist()
    if x * u[0, 0] + y * u[0, 1] > h[0] + GEOM_TOL:
        return False
    cut = X[: n - 2, 0] * ux + X[: n - 2, 1] * uy > bound
    cut |= x0 * ux + y0 * uy > bound
    return not cut.any()


def _halfplane_chain(u: np.ndarray, h: np.ndarray) -> list[int]:
    """Indices of the constraints on the boundary, in CCW order, by a deque
    sweep over the sorted normals, in Python floats.  The candidate vertices
    come from _line_intersection, and line k cuts off the vertex x when
    x0*u_k0 + x1*u_k1 > h_k + GEOM_TOL, computed elementwise with no BLAS
    call, as in _no_constraint_cut."""
    ux, uy, hs = u[:, 0].tolist(), u[:, 1].tolist(), h.tolist()

    def violates(k: int, i: int, j: int) -> bool:
        x, y = _line_intersection(ux, uy, hs, i, j)
        return x * ux[k] + y * uy[k] > hs[k] + GEOM_TOL

    dq: deque[int] = deque()
    for k in range(len(hs)):
        while len(dq) >= 2 and violates(k, dq[-2], dq[-1]):
            dq.pop()
        while len(dq) >= 2 and violates(k, dq[0], dq[1]):
            dq.popleft()
        dq.append(k)
    changed = True
    while changed and len(dq) >= 3:
        changed = False
        if violates(dq[0], dq[-2], dq[-1]):
            dq.pop()
            changed = True
        if len(dq) >= 3 and violates(dq[-1], dq[0], dq[1]):
            dq.popleft()
            changed = True
    if len(dq) < 3:
        raise EmptyBodyError("half-plane intersection is empty or lower-dimensional")
    return list(dq)


def _check_antipodal_pairs(theta: np.ndarray, h: np.ndarray) -> None:
    """Raise EmptyBodyError on the first (i, j) pair, in index order, of
    antipodal normals whose half-planes leave an empty strip.  No pair can
    when 2 min(h) >= -GEOM_TOL: rounding is monotone, so every computed
    h_i + h_j is at least the exact 2 min(h).  A NaN fails that test and
    takes the pair search."""
    if 2.0 * h.min() >= -GEOM_TOL:
        return
    n = theta.size
    lo = np.searchsorted(theta, theta + math.pi - 1e-9)
    count = np.maximum(np.searchsorted(theta, theta + math.pi + 1e-9, side="right") - lo, 0)
    i = np.repeat(np.arange(n), count)
    j = lo[i] + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    empty = h[i] + h[j] < -GEOM_TOL
    for a, b in zip(i[empty].tolist(), j[empty].tolist()):
        if angles_antipodal(theta[a], theta[b], 1e-9):
            raise EmptyBodyError(
                f"antipodal constraints at angles {theta[a]:.6g}, {theta[b]:.6g} "
                f"leave no feasible point (h_i + h_j = {h[a] + h[b]:.3g} < 0)"
            )


def polygon_from_support(normals, support) -> Polygon:
    """Build the bounded intersection of supporting half-planes.

    Raises EmptyBodyError / UnboundedError / DegenerateBodyError per the
    standard taxonomy.  Redundant constraints are kept in the normal list but
    flagged inactive with zero edge length.

    A line cuts off a vertex x when x0*u_0 + x1*u_1 > h + GEOM_TOL, computed
    elementwise with no BLAS call.  _chain finds the boundary, by the deque
    sweep (_halfplane_chain) only when some line cuts.
    """
    theta = canonical_angles(normals)
    h = np.asarray(support, dtype=float).copy()
    if theta.shape != h.shape or theta.ndim != 1:
        raise ValueError("normals and support must be 1-D arrays of equal length")
    n = theta.size
    if n >= 2:
        # Normals more than ANGLE_TOL apart in increasing order, the
        # solver's, are what the stable sort would return.
        gaps = theta[1:] - theta[:-1]
        if not gaps.min() > ANGLE_TOL:
            order = np.argsort(theta, kind="stable")
            theta, h = theta[order], h[order]
            gaps = theta[1:] - theta[:-1]
            if gaps.min() <= ANGLE_TOL:
                raise ValueError("duplicate normal angles (merge atoms upstream)")
        seam = theta[0] + TWO_PI - theta[-1]
        if seam <= ANGLE_TOL:
            raise ValueError("duplicate normal angles across the seam")

    # Inconsistent antipodal pairs mean an empty strip regardless of the rest.
    _check_antipodal_pairs(theta, h)

    # The largest of the circular gaps; np.maximum keeps a NaN as their max would.
    if n < 3 or np.maximum(gaps.max(), seam) >= math.pi - ANGLE_TOL:
        raise UnboundedError("normals fit in a closed half-circle; body unbounded")

    idx, verts = _chain(theta, h)

    # Signed area of the vertex chain; also rejects inconsistent chains.
    x, y = verts[:, 0], verts[:, 1]
    area2 = float(np.dot(x, cyclic_shift(y, -1)) - np.dot(y, cyclic_shift(x, -1)))
    if not np.isfinite(area2) or area2 <= 2.0 * GEOM_TOL:
        if area2 < -GEOM_TOL:
            raise EmptyBodyError("half-plane intersection is empty")
        raise DegenerateBodyError(f"intersection area {0.5 * area2:.3g} below tolerance")

    # Edge idx[k] runs from verts[k - 1] to verts[k] (see _chain).
    step = np.hypot(*(verts - cyclic_shift(verts, 1)).T)
    keep = step > EDGE_TOL
    if idx is None:
        lengths, active = step, keep
    else:
        lengths = np.zeros(n)
        lengths[idx] = step
        active = lengths > EDGE_TOL

    # Drop duplicate chain vertices (collapsed edges) from the stored chain.
    chain = verts if keep.all() or np.count_nonzero(keep) < 3 else verts[keep]

    return Polygon(theta, h, chain, active, lengths)


def _chain(theta: np.ndarray, h: np.ndarray):
    """(idx, verts) of the boundary of the half-planes at sorted angles
    theta: idx lists the constraints on the boundary in increasing (CCW)
    order, None when all n are, and verts[k] is the intersection of lines idx[k] and
    idx[k + 1], so edge idx[k] runs from verts[k - 1] to verts[k].  The
    solver's bodies have every facet active: when no consecutive
    intersection is cut off by a line the deque sweep would test it
    against (_no_constraint_cut), the chain is all n lines and the sweep
    (_halfplane_chain) does not run.  Either way the vertices come from
    _consecutive_intersections."""
    u = unit_vectors(theta)
    verts = _consecutive_intersections(u, h)
    if _no_constraint_cut(u, h, verts):
        return None, verts
    idx = np.array(_halfplane_chain(u, h))
    return idx, _consecutive_intersections(u[idx], h[idx])


def edge_midpoints(P: Polygon, edges) -> np.ndarray:
    """Midpoints of P's active edges at the given indices, from _chain."""
    idx, verts = _chain(P.normals, P.support)
    k = np.asarray(edges) if idx is None else np.searchsorted(idx, edges)
    return (verts[k - 1] + verts[k]) / 2.0


def edge_lengths(P: Polygon) -> np.ndarray:
    """Per-normal boundary edge lengths (0 where the constraint is slack)."""
    return P.lengths.copy()


def area(P: Polygon) -> float:
    """Area = (1/2) sum h_i * edge_i."""
    return 0.5 * float(np.dot(P.support, P.lengths))


def support_distance(P: Polygon, Q: Polygon) -> float:
    """Exact max |h_P - h_Q| over all directions.  Between consecutive
    directions a < b of either body's normals, each support function is
    one vertex's, so h_P - h_Q = w.u(t) for one vector w, which a 2x2 solve
    on the end values d_a, d_b gives.  On such an arc |w.u(t)| peaks at an
    end, or at the crest |w| when the slope w.u'(t) changes sign, that is
    when +-w points into the arc.  Arcs shorter than 1e-9 keep their end
    values only: the 2x2 system is near singular there, and a crest can
    exceed the larger end by at most |w| (b - a)^2 / 8.  A normal the two
    bodies share gives an arc of length 0, so the directions are merged by
    a sort alone (np.union1d would import numpy.ma, about 1.5 MB)."""
    t = np.sort(np.concatenate((P.normals, Q.normals)))
    d = P.support_values(t) - Q.support_values(t)
    c, s = np.cos(t), np.sin(t)
    arc = circular_gaps(t) >= 1e-9
    c1, s1, d1 = cyclic_shift(c, -1)[arc], cyclic_shift(s, -1)[arc], cyclic_shift(d, -1)[arc]
    c0, s0, d0 = c[arc], s[arc], d[arc]
    det = c0 * s1 - s0 * c1
    wx, wy = (d0 * s1 - d1 * s0) / det, (d1 * c0 - d0 * c1) / det
    crest = (wy * c0 - wx * s0) * (wy * c1 - wx * s1) < 0.0
    return float(max(np.abs(d).max(), np.hypot(wx[crest], wy[crest]).max(initial=0.0)))


def translate(P: Polygon, xi) -> Polygon:
    """Body re-anchored at xi: returns P - xi, so h'_i = h_i - <xi, u_i>."""
    xi = np.asarray(xi, dtype=float)
    shift = unit_vectors(P.normals) @ xi
    return Polygon(
        P.normals.copy(),
        P.support - shift,
        P.vertices - xi,
        P.active.copy(),
        P.lengths.copy(),
    )


def dilate(P: Polygon, lam: float) -> Polygon:
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    return Polygon(
        P.normals.copy(),
        P.support * lam,
        P.vertices * lam,
        P.active.copy(),
        P.lengths * lam,
    )


def apply_isometry(P: Polygon, A: Isometry2) -> Polygon:
    """Image body A(P); normals are re-sorted after the action on angles."""
    theta = A.apply_angles(P.normals)
    order = np.argsort(theta, kind="stable")
    verts = A.apply_points(P.vertices)
    if A.kind == "reflection":
        verts = verts[::-1]
    return Polygon(
        theta[order],
        P.support[order],
        verts,
        P.active[order],
        P.lengths[order],
    )


def in_positive_hull(theta: float, generators) -> bool:
    """Is u(theta) a nonnegative combination of the generator directions?

    In the plane this is angular containment: if the generators positively
    span R^2 (no closed half-plane contains them all) every direction
    qualifies; otherwise the hull is the cone over the minimal enclosing arc.
    """
    gens = np.sort(canonical_angles(generators))
    if gens.size == 0:
        raise ValueError("need at least one generator")
    t = canonical_angle(theta)
    gaps = circular_gaps(gens)
    gmax = float(gaps.max())
    if gmax < math.pi - ANGLE_TOL:
        return True  # cone is the whole plane
    k = int(np.argmax(gaps))
    start = gens[(k + 1) % gens.size]  # arc runs CCW from here, width 2pi - gmax
    width = TWO_PI - gmax
    offset = canonical_angle(t - start)
    return offset <= width + ANGLE_TOL or offset >= TWO_PI - ANGLE_TOL


def group_orbit_map(normals: np.ndarray, A: Isometry2, tol: float = 1e-9) -> np.ndarray:
    """The index map sending each normal to its image under A, the nearer
    of the image's two cyclic neighbours among the sorted normals, ties to
    the later one, when it lies within tol; NotClosedUnderGroupError names
    the first normal whose image is not in the set.  Only the traced
    benchmark still wraps it; no lpmink code path calls it."""
    theta = canonical_angles(normals)
    n = len(theta)
    image = A.apply_angles(theta)
    order = np.argsort(theta, kind="stable")
    sorted_theta = theta[order]
    j = np.searchsorted(sorted_theta, image)
    cand = np.stack([j - 1, j]) % n
    d = circular_distances(sorted_theta[cand], image)
    later = d[1] <= np.minimum(d[0], tol)
    hit = later | (d[0] <= tol)
    if not hit.all():
        i = int(np.argmin(hit))
        raise NotClosedUnderGroupError(
            f"normal at {theta[i]:.12g} maps to {image[i]:.12g}, not in the set"
        )
    return order[np.where(later, cand[1], cand[0])]
