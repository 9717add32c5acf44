"""Measures on the circle and Lp surface area measures of convex bodies.

A DiscreteMeasure is a finite atomic measure on the unit circle; MeasureSpec
adds an optional piecewise-linear density.  The flat (bounded-Lipschitz)
distance metrizes weak convergence for measures of unequal total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyMeasureError,
    OriginOutsideError,
    PreconditionViolatedError,
)
from .geometry import (
    ATOM_MERGE_TOL,
    TWO_PI,
    Isometry2,
    Polygon,
    angles_antipodal,
    canonical_angle,
    canonical_angles,
    circular_gaps,
    cyclic_shift,
    edge_midpoints,
    nearest_angles,
    unit_vector,
)

GENERAL_POSITION = "general-position"
SINGLE_DIRECTION = "single-direction"
SEMICIRCLE = "semicircle"
ANTIPODAL_PAIR = "antipodal-pair"


def _merge_sorted_atoms(thetas: np.ndarray, masses: np.ndarray, tol: float):
    """Merge runs of near-coincident sorted angles by adding their (possibly
    signed) masses."""
    if thetas.size < 2 or ((thetas[1:] - thetas[:-1] > tol).all()
                           and thetas[0] + TWO_PI - thetas[-1] > tol):
        return thetas, masses
    out_t, out_m = [], []
    for t, m in zip(thetas, masses):
        if out_t and t - out_t[-1] <= tol:
            out_m[-1] += m
        else:
            out_t.append(t)
            out_m.append(m)
    # wraparound: last atom may coincide with the first across 2*pi
    if len(out_t) >= 2 and (out_t[0] + TWO_PI - out_t[-1]) <= tol:
        out_m[0] += out_m.pop()
        out_t.pop()
    return np.asarray(out_t), np.asarray(out_m)


@dataclass(eq=False)
class DiscreteMeasure:
    """Finite atomic measure on S^1: sorted angles + positive masses.

    The arrays must not be mutated after construction: the total mass is
    summed once, on first use, and kept.  == is identity: comparing the
    arrays field by field would raise."""

    thetas: np.ndarray
    masses: np.ndarray

    def __init__(self, thetas, masses):
        t = np.atleast_1d(np.asarray(thetas, dtype=float))
        m = np.atleast_1d(np.asarray(masses, dtype=float))
        if t.shape != m.shape:
            raise ValueError("thetas and masses must have equal length")
        if not (np.isfinite(t).all() and np.isfinite(m).all()):
            raise ValueError("atom angles and masses must be finite numbers")
        if (m < 0).any():
            raise ValueError("negative atom mass")
        keep = m > 0.0
        t, m = canonical_angles(t[keep]), m[keep]
        if t.size == 0:
            raise EmptyMeasureError("measure has no mass")
        # Angles increasing by more than ATOM_MERGE_TOL, such as a body's
        # active normals, are already sorted and merged but for the seam.
        if t.size >= 2 and not (t[1:] - t[:-1]).min() > ATOM_MERGE_TOL:
            order = np.argsort(t, kind="stable")
            t, m = _merge_sorted_atoms(t[order], m[order], ATOM_MERGE_TOL)
        elif t.size >= 2 and t[0] + TWO_PI - t[-1] <= ATOM_MERGE_TOL:
            t, m = _merge_sorted_atoms(t, m, ATOM_MERGE_TOL)
        self.thetas = t
        self.masses = m

    @property
    def n(self) -> int:
        return len(self.thetas)

    def total_mass(self) -> float:
        return self._total_mass

    @cached_property
    def _total_mass(self) -> float:
        return math.fsum(self.masses.tolist())

    def mass_at(self, theta: float, tol: float = ATOM_MERGE_TOL) -> float:
        """The mass of the atom nearest theta (nearest_angles), 0 when it is
        more than tol away."""
        j, d = nearest_angles(self.thetas, canonical_angle(theta))
        return float(self.masses[j]) if d <= tol else 0.0

    def pushforward(self, A: Isometry2) -> "DiscreteMeasure":
        return DiscreteMeasure(A.apply_angles(self.thetas), self.masses.copy())


class PiecewiseLinearDensity:
    """Periodic piecewise-linear density on [0, 2*pi) from sample knots."""

    def __init__(self, thetas, values):
        t = np.atleast_1d(np.asarray(thetas, dtype=float))
        f = np.atleast_1d(np.asarray(values, dtype=float))
        if t.shape != f.shape or t.size < 1:
            raise ValueError("density needs matching theta/f samples")
        if not (np.isfinite(t).all() and np.isfinite(f).all()):
            raise ValueError("density knots and values must be finite numbers")
        if np.any(f < 0):
            raise ValueError("density samples must be nonnegative")
        t = canonical_angles(t)
        order = np.argsort(t, kind="stable")
        t, f = t[order], f[order]
        if t.size >= 2 and (t[1:] - t[:-1]).min() <= 0:
            raise ValueError("duplicate density knots")
        self.knots = t
        self.values = f
        # closed knot list over one period for integration
        self._t = np.append(t, t[0] + TWO_PI)
        self._f = np.append(f, f[0])
        seg = 0.5 * (self._f[:-1] + self._f[1:]) * np.diff(self._t)
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])

    def total_mass(self) -> float:
        return float(self._cum[-1])

    def eval(self, theta) -> np.ndarray:
        x = canonical_angles(np.atleast_1d(theta))
        # shift into [t0, t0 + 2pi)
        x = self._t[0] + (x - self._t[0]) % TWO_PI
        i = np.clip(np.searchsorted(self._t, x, side="right") - 1, 0, len(self._t) - 2)
        w = (x - self._t[i]) / (self._t[i + 1] - self._t[i])
        return self._f[i] * (1 - w) + self._f[i + 1] * w

    def arc_masses(self, a, b) -> np.ndarray:
        """Integrals over the CCW arcs from a[k] to b[k] (b - a in (0, 2*pi]
        after adding 2*pi to nonpositive spans)."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        span = b - a
        span = np.where(span <= 0, span + TWO_PI, span)
        a0 = self._t[0] + (a - self._t[0]) % TWO_PI
        b0 = a0 + span
        inside = b0 <= self._t[-1]  # else the arc crosses t0 + 2*pi
        total = self._cum[-1]
        # Integral from knot t0 to x, x in [t0, t0 + 2pi].
        x = np.stack([a0, np.where(inside, b0, b0 - TWO_PI)])
        i = np.clip(np.searchsorted(self._t, x, side="right") - 1, 0, len(self._t) - 2)
        dt = x - self._t[i]
        slope = (self._f[i + 1] - self._f[i]) / (self._t[i + 1] - self._t[i])
        F = self._cum[i] + self._f[i] * dt + 0.5 * slope * dt * dt
        out = np.where(inside, F[1] - F[0], total - F[0] + F[1])
        return np.where(span >= TWO_PI - 1e-15, total, out)


@dataclass
class MeasureSpec:
    """General input measure: atoms plus an optional piecewise-linear density."""

    atoms: DiscreteMeasure | None
    density: PiecewiseLinearDensity | None

    def __init__(self, atoms=None, density=None):
        if atoms is not None and not isinstance(atoms, DiscreteMeasure):
            raise TypeError("atoms must be a DiscreteMeasure or None")
        self.atoms = atoms
        self.density = density
        if self.total_mass() <= 0:
            raise EmptyMeasureError("measure spec has zero total mass")

    def atom_mass(self) -> float:
        return self.atoms.total_mass() if self.atoms is not None else 0.0

    def density_mass(self) -> float:
        return self.density.total_mass() if self.density is not None else 0.0

    def total_mass(self) -> float:
        return self.atom_mass() + self.density_mass()

    def is_purely_atomic(self) -> bool:
        return self.density_mass() <= 0.0


@dataclass
class MeasureClass:
    """Support classification: where the measure sits on the circle."""

    tag: str
    arc_width: float
    v: float | None = None  # semicircle endpoint direction (axis of reflection)
    w: float | None = None  # arc midpoint / single direction


def classify(mu: DiscreteMeasure) -> MeasureClass:
    """Classify atomic support: general position, single direction,
    antipodal pair, or concentrated on a closed semicircle."""
    if mu.n == 1:
        w = float(mu.thetas[0])
        return MeasureClass(SINGLE_DIRECTION, 0.0, v=canonical_angle(w + math.pi / 2), w=w)
    gaps = circular_gaps(mu.thetas)
    gmax = float(gaps.max())
    if mu.n == 2 and abs(gmax - math.pi) <= ATOM_MERGE_TOL:
        return MeasureClass(ANTIPODAL_PAIR, math.pi, v=float(mu.thetas[0]), w=None)
    if gmax < math.pi - ATOM_MERGE_TOL:
        return MeasureClass(GENERAL_POSITION, TWO_PI - gmax)
    k = int(np.argmax(gaps))
    start = float(mu.thetas[(k + 1) % mu.n])
    width = TWO_PI - gmax
    w = canonical_angle(start + width / 2.0)
    return MeasureClass(SEMICIRCLE, width, v=canonical_angle(w + math.pi / 2.0), w=w)


def lp_surface_measure(P: Polygon, p: float) -> DiscreteMeasure:
    """Atomic measure with mass h_i^(1-p) * edge_i at each active normal.

    Requires the origin in the body; normals with h_i = 0 contribute no mass
    (the exponent 1 - p is positive) and are omitted.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    h = P.support
    act = P.active
    if (h[act] < -1e-10).any():
        raise OriginOutsideError("support numbers negative: origin outside the body")
    mask = act & (h > 0.0) & (P.lengths > 0.0)
    masses = h[mask] ** (1.0 - p) * P.lengths[mask]
    if masses.size == 0:
        raise EmptyMeasureError("body carries no Lp surface mass (all h_i = 0)")
    return DiscreteMeasure(P.normals[mask], masses)


def _min_open_cap_mass(mu: DiscreteMeasure, t: float) -> float:
    """inf over v of mu{u : <u,v> > t}, exact by a critical-angle sweep: the
    open cap about each midpoint of consecutive critical angles (atoms +- the
    cap's half-width) takes its mass from prefix sums over the atoms tiled
    three times, O(n log n) in all."""
    rho = math.acos(max(-1.0, min(1.0, t)))  # angular half-width of the cap
    crit = np.sort(
        canonical_angles(np.concatenate([mu.thetas + rho, mu.thetas - rho]))
    )
    mids = (crit + cyclic_shift(crit, -1)) / 2.0
    mids[-1] = canonical_angle(crit[-1] + (crit[0] + TWO_PI - crit[-1]) / 2.0)
    tiled = np.concatenate([mu.thetas - TWO_PI, mu.thetas, mu.thetas + TWO_PI])
    cum = np.concatenate([[0.0], np.cumsum(np.tile(mu.masses, 3))])
    hi = np.searchsorted(tiled, mids + rho, side="left")  # open cap: both ends out
    lo = np.searchsorted(tiled, mids - rho, side="right")
    return float((cum[hi] - cum[lo]).min())


def hemisphere_delta(mu: DiscreteMeasure) -> float | None:
    """A delta in (0, 1/2) with mu(open cap at height delta) > delta for every
    direction and total mass < 1/delta; None when some open semicircle has
    zero mass (then no such delta exists)."""
    if float(circular_gaps(mu.thetas).max()) >= math.pi - 1e-15:
        return None
    total = mu.total_mass()
    worst_semi = _min_open_cap_mass(mu, 0.0)
    if worst_semi <= 0.0:
        return None
    delta = 0.5 * min(worst_semi, 1.0 / total, 1.0)
    delta = min(delta, 0.5 - 1e-12)
    for _ in range(200):
        if _min_open_cap_mass(mu, delta) > delta:
            return float(delta)
        delta *= 0.5
    return None


def weak_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Flat (bounded-Lipschitz) distance between two finite atomic measures.

    sup of integral of g d(mu - nu) over 1-Lipschitz g with |g| <= 1, solved
    exactly as an LP on the union of atom angles.  Arc distance is the
    shortest-path metric of the cyclic neighbor graph, so Lipschitz
    constraints between consecutive angles imply all pairs.
    """
    # imported here: only verification calls the LP, and importing its
    # backend takes longer than most solves
    import scipy.sparse as sp
    from scipy.optimize import linprog

    t = np.concatenate([mu.thetas, nu.thetas])
    c = np.concatenate([mu.masses, -nu.masses])
    order = np.argsort(t, kind="stable")
    t, c = _merge_sorted_atoms(t[order], c[order], ATOM_MERGE_TOL)
    n = len(t)
    if n == 1:
        return float(abs(c[0]))
    gaps = circular_gaps(t)
    rows, cols, vals, rhs = [], [], [], []
    for k in range(n):
        j = (k + 1) % n
        r = len(rhs)
        rows += [r, r, r + 1, r + 1]
        cols += [j, k, k, j]
        vals += [1.0, -1.0, 1.0, -1.0]
        rhs += [gaps[k], gaps[k]]
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n))
    res = linprog(
        c=-c,  # maximize c . g
        A_ub=A,
        b_ub=np.asarray(rhs),
        bounds=[(-1.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"flat-distance LP failed: {res.message}")
    return float(max(0.0, -res.fun))


def chord_mass_bound(P: Polygon, i1: int, i2: int, u_theta: float, p: float):
    """Chord-versus-total-mass inequality for two boundary points.

    x1, x2 are midpoints of the active edges i1, i2 (edge_midpoints, whose
    ends come from the normals and support: on a body from
    polygon_from_support they are its own vertices).  Returns (lhs, rhs) with
    lhs = min(h(nu(x1)), <x1, nu(x2)>)^(1-p) * <x2 - x1, u> and rhs the total
    Lp boundary mass; the contract is lhs <= rhs.  Raises
    PreconditionViolatedError naming any failed hypothesis.
    """
    for i, name in ((i1, "i1"), (i2, "i2")):
        if not (0 <= i < P.n) or not P.active[i]:
            raise PreconditionViolatedError(f"edge index {name}={i} is not an active edge")
    th1, th2 = float(P.normals[i1]), float(P.normals[i2])
    if angles_antipodal(th1, th2):
        raise PreconditionViolatedError("edges are opposite (antipodal normals)")
    x1, x2 = edge_midpoints(P, (i1, i2))
    nu2 = unit_vector(th2)
    u = unit_vector(u_theta)
    inner = float(x1 @ nu2)
    if inner <= 0.0:
        raise PreconditionViolatedError(f"<x1, nu(x2)> = {inner:.3g} is not positive")
    advance = float((x2 - x1) @ u)
    if advance <= 0.0:
        raise PreconditionViolatedError(f"<x2 - x1, u> = {advance:.3g} is not positive")
    h1 = float(P.support[i1])
    if h1 < 0.0:
        raise PreconditionViolatedError("origin outside the body (h(nu(x1)) < 0)")
    lhs = min(h1, inner) ** (1.0 - p) * advance
    rhs = lp_surface_measure(P, p).total_mass()
    return lhs, rhs
