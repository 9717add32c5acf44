"""Shared generators and independent oracles for the test suite.

The oracles here recompute expected values by routes independent of the
library code they check: brute-force half-plane enumeration, all-pairs
Lipschitz LPs, dense grid sweeps and finite differences.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from lpmink import DiscreteMeasure, lp_surface_measure, polygon_from_support
from lpmink.errors import NotClosedUnderGroupError
from lpmink.geometry import (
    Isometry2,
    SymmetryGroup,
    canonical_angle,
    canonical_angles,
    circular_distance,
    circular_distances,
    cyclic_shift,
)
from lpmink.measure import GENERAL_POSITION, classify

TWO_PI = 2.0 * math.pi
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def orbit_index_sets(orb):
    """Each orbit's indices in increasing order (the rows of orb.blocks),
    the orbits ordered by their smallest index."""
    return sorted((row for rows in orb.blocks for row in rows), key=lambda row: row[0])


def reference_group_orbit_map(normals, A, tol=1e-9):
    """One scalar nearest-neighbour match per normal."""
    theta = canonical_angles(normals)
    images = A.apply_angles(theta)
    order = np.argsort(theta, kind="stable")
    sorted_theta = theta[order]
    perm = np.empty(len(theta), dtype=int)
    for i, img in enumerate(images):
        j = int(np.searchsorted(sorted_theta, img))
        best, bestdist = -1, tol
        for cand in (j - 1, j, j % len(theta)):
            c = cand % len(theta)
            d = circular_distance(sorted_theta[c], img)
            if d <= bestdist:
                best, bestdist = c, d
        if best < 0:
            raise NotClosedUnderGroupError(
                f"normal at {theta[i]:.12g} maps to {img:.12g}, not in the set"
            )
        perm[i] = order[best]
    return perm


def reference_detect_symmetry(mu, tol=1e-9):
    """The group of an atomic measure by brute probing, as detect_symmetry
    found it before it asked orbit_partition: every rotation order up to
    the atom count and every axis (t[0] + t[j]) / 2 mod pi through the
    first atom's images, each element matched atom by atom with
    reference_group_orbit_map and the masses compared to tol times
    max(1, largest mass).  The order is the largest that passes and the
    axis the least."""
    t, masses = mu.thetas, mu.masses

    def invariant(A):
        try:
            j = reference_group_orbit_map(t, A, tol)
        except NotClosedUnderGroupError:
            return False
        return np.max(np.abs(masses[j] - masses)) <= tol * max(1.0, masses.max())

    k = max([d for d in range(2, len(t) + 1) if invariant(Isometry2("rotation", TWO_PI / d))],
            default=1)
    axes = sorted({canonical_angle((t[0] + tj) / 2.0) % math.pi for tj in t})
    axis = next((a for a in axes if invariant(Isometry2("reflection", a))), None)
    return SymmetryGroup.cyclic(k) if axis is None else SymmetryGroup.dihedral(k, axis)


def reference_orbit_partition(normals, G, tol=1e-9):
    """Union-find over the matches of every group element."""
    theta = np.asarray(normals, dtype=float)
    n = len(theta)
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for A in G.elements():
        perm = reference_group_orbit_map(theta, A, tol)
        for i in range(n):
            ri, rj = find(i), find(perm[i])
            if ri != rj:
                parent[ri] = rj
    roots, orbits = {}, []
    index_to_orbit = np.empty(n, dtype=int)
    for i in range(n):
        r = find(i)
        if r not in roots:
            roots[r] = len(orbits)
            orbits.append([])
        orbits[roots[r]].append(i)
        index_to_orbit[i] = roots[r]
    orbits = [np.asarray(o, dtype=int) for o in orbits]
    return orbits, np.array([int(o.min()) for o in orbits]), index_to_orbit


def import_bench_module(name):
    """bench/<name>.py as a module, imported without writing a bytecode
    cache next to it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def brute_force_halfplanes(thetas, h, tol=1e-9):
    """Vertices / area / per-normal edge lengths by pairwise enumeration."""
    thetas = np.asarray(thetas, float)
    h = np.asarray(h, float)
    n = len(thetas)
    U = np.column_stack([np.cos(thetas), np.sin(thetas)])
    pts = []
    for i in range(n):
        for j in range(i + 1, n):
            det = U[i, 0] * U[j, 1] - U[i, 1] * U[j, 0]
            if abs(det) < 1e-12:
                continue
            x = (h[i] * U[j, 1] - h[j] * U[i, 1]) / det
            y = (h[j] * U[i, 0] - h[i] * U[j, 0]) / det
            pts.append((x, y))
    feas = [p for p in pts if np.all(U @ p <= h + tol)]
    if not feas:
        return None
    feas = np.array(feas)
    # dedupe
    keep = []
    for p in feas:
        if not any(np.hypot(*(p - q)) < 1e-8 for q in keep):
            keep.append(p)
    verts = np.array(keep)
    if len(verts) < 3:
        return None
    c = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - c[1], verts[:, 0] - c[0]))
    verts = verts[order]
    x, y = verts[:, 0], verts[:, 1]
    area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    lengths = np.zeros(n)
    for i in range(n):
        on_line = [p for p in verts if abs(p @ U[i] - h[i]) < 1e-7]
        if len(on_line) >= 2:
            dmax = max(
                np.hypot(*(a - b)) for a in on_line for b in on_line
            )
            lengths[i] = dmax
    return verts, area, lengths


def flat_distance_all_pairs(mu, nu):
    """Flat distance via the LP with every pairwise Lipschitz constraint."""
    t = np.concatenate([mu.thetas, nu.thetas])
    c = np.concatenate([mu.masses, -nu.masses])
    order = np.argsort(t)
    t, c = t[order], c[order]
    merged_t, merged_c = [t[0]], [c[0]]
    for ti, ci in zip(t[1:], c[1:]):
        if ti - merged_t[-1] <= 1e-9:
            merged_c[-1] += ci
        else:
            merged_t.append(ti)
            merged_c.append(ci)
    t, c = np.array(merged_t), np.array(merged_c)
    n = len(t)
    if n == 1:
        return abs(c[0])
    rows, cols, vals, rhs = [], [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(t[i] - t[j])
            d = min(d, TWO_PI - d)
            r = len(rhs)
            rows += [r, r, r + 1, r + 1]
            cols += [i, j, j, i]
            vals += [1.0, -1.0, 1.0, -1.0]
            rhs += [d, d]
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n))
    res = linprog(-c, A_ub=A, b_ub=np.array(rhs), bounds=[(-1, 1)] * n, method="highs")
    assert res.success
    return max(0.0, -res.fun)


def dense_min_open_cap_mass(mu, t):
    """inf over v of mu{u : <u,v> > t} by the critical-angle sweep with a
    (2n x n) membership matrix: each midpoint of consecutive critical angles
    (atoms +- the cap's half-width) against every atom."""
    rho = math.acos(max(-1.0, min(1.0, t)))
    crit = np.sort(canonical_angles(np.concatenate([mu.thetas + rho, mu.thetas - rho])))
    mids = (crit + cyclic_shift(crit, -1)) / 2.0
    mids[-1] = canonical_angle(crit[-1] + (crit[0] + TWO_PI - crit[-1]) / 2.0)
    inside = circular_distances(mids[:, None], mu.thetas[None, :]) < rho  # open cap
    return float((inside * mu.masses[None, :]).sum(axis=1).min())


def graph_gauss_curvature_fd(q, n, r, step=1e-5):
    """Finite-difference Gauss curvature of the rotational graph z = |x|^q
    at radius r: det(Hessian) / (1 + |grad|^2)^((n+1)/2), with the Hessian of
    the (n-1)-variable function estimated by central differences."""
    d = n - 1

    def g(x):
        return float(np.linalg.norm(x) ** q)

    x0 = np.zeros(d)
    x0[0] = r
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            e_i = np.zeros(d)
            e_j = np.zeros(d)
            e_i[i] = step
            e_j[j] = step
            if i == j:
                H[i, i] = (g(x0 + e_i) - 2.0 * g(x0) + g(x0 - e_i)) / step ** 2
            else:
                H[i, j] = (
                    g(x0 + e_i + e_j) - g(x0 + e_i - e_j)
                    - g(x0 - e_i + e_j) + g(x0 - e_i - e_j)
                ) / (4.0 * step ** 2)
    grad = np.zeros(d)
    for i in range(d):
        e_i = np.zeros(d)
        e_i[i] = step
        grad[i] = (g(x0 + e_i) - g(x0 - e_i)) / (2.0 * step)
    det = float(np.linalg.det(H)) if d > 1 else float(H[0, 0])
    return det / (1.0 + float(grad @ grad)) ** ((n + 1.0) / 2.0)


def random_general_position_polygon(rng, nmin=3, nmax=40, hmin=0.5, hmax=2.0):
    """Random bounded polygon with the origin interior whose boundary
    measure is in general position."""
    while True:
        n = int(rng.integers(nmin, nmax + 1))
        th = np.sort(rng.uniform(0.0, TWO_PI, n))
        if n > 1 and np.min(np.diff(th)) < 1e-3:
            continue
        gaps = np.diff(np.append(th, th[0] + TWO_PI))
        if gaps.max() >= math.pi - 0.05:
            continue
        h = rng.uniform(hmin, hmax, n)
        try:
            P = polygon_from_support(th, h)
        except Exception:
            continue
        if classify(lp_surface_measure(P, 0.5)).tag != GENERAL_POSITION:
            continue
        return P


def random_general_position_measure(rng, nmin=3, nmax=30, log_spread=1.5):
    while True:
        n = int(rng.integers(nmin, nmax + 1))
        th = np.sort(rng.uniform(0.0, TWO_PI, n))
        if n > 1 and np.min(np.diff(th)) < 1e-3:
            continue
        gaps = np.diff(np.append(th, th[0] + TWO_PI))
        if gaps.max() >= math.pi - 0.05:
            continue
        mu = DiscreteMeasure(th, np.exp(rng.uniform(-log_spread, log_spread, n)))
        if classify(mu).tag != GENERAL_POSITION:
            continue
        return mu


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
