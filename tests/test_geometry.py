"""Polygon kernel tests against brute-force and closed-form oracles."""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from conftest import brute_force_halfplanes, random_general_position_polygon

from lpmink import (
    EmptyBodyError,
    Isometry2,
    SymmetryGroup,
    UnboundedError,
    apply_isometry,
    area,
    chord_mass_bound,
    dilate,
    edge_lengths,
    in_positive_hull,
    polygon_from_support,
    support_distance,
    translate,
)
import lpmink.geometry as geometry
from lpmink.errors import DegenerateBodyError, PreconditionViolatedError
from lpmink.geometry import (
    angles_antipodal,
    canonical_angle,
    canonical_angles,
    circular_gaps,
    edge_midpoints,
    group_orbit_map,
    unit_vector,
    unit_vectors,
)
from lpmink.measure import MeasureSpec, PiecewiseLinearDensity
from lpmink.pipeline import PipelineConfig, solve

SQ_NORMALS = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


def square(h=1.0):
    return polygon_from_support(SQ_NORMALS, [h] * 4)


class TestConstruction:
    def test_equality_is_identity(self):
        # Comparing the array fields would raise; == compares identity.
        P = square()
        assert P == P
        assert not P == polygon_from_support(P.normals, P.support)
        assert P != polygon_from_support(P.normals, P.support)

    def test_unit_square(self):
        P = square()
        assert area(P) == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(sorted(np.abs(P.vertices).ravel()), 1.0, atol=1e-12)
        assert P.active.all()

    def test_redundant_normal_flagged_inactive(self):
        P = polygon_from_support(
            [0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2],
            [1.0, 2.0, 1.0, 1.0, 1.0],
        )
        # the pi/4 constraint passes through no boundary point: <(1,1),u> = sqrt(2) < 2
        i = int(np.argmin(np.abs(P.normals - math.pi / 4)))
        assert not P.active[i]
        assert P.lengths[i] == 0.0
        assert area(P) == pytest.approx(4.0, abs=1e-10)

    def test_inconsistent_pair_is_empty(self):
        with pytest.raises(EmptyBodyError):
            polygon_from_support([0.0, math.pi], [1.0, -2.0])

    def test_open_halfcircle_normals_unbounded(self):
        with pytest.raises(UnboundedError):
            polygon_from_support([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])

    def test_strip_with_extra_constraint_unbounded(self):
        with pytest.raises(UnboundedError):
            polygon_from_support([0.0, math.pi / 2, math.pi], [1.0, 1.0, 1.0])

    def test_empty_triangle(self):
        with pytest.raises(EmptyBodyError):
            polygon_from_support(
                [0.0, 2 * math.pi / 3, 4 * math.pi / 3], [-1.0, -1.0, -1.0]
            )

    def test_duplicate_normals_rejected(self):
        with pytest.raises(ValueError):
            polygon_from_support([0.0, 0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                                 [1.0, 1.0, 1.0, 1.0, 1.0])

    def test_degenerate_point_body(self):
        from lpmink.errors import DegenerateBodyError, EmptyBodyError

        with pytest.raises((DegenerateBodyError, EmptyBodyError)):
            polygon_from_support(
                [0.0, 2 * math.pi / 3, 4 * math.pi / 3], [0.0, 0.0, 0.0]
            )

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 16))
            th = np.sort(rng.uniform(0, 2 * math.pi, n))
            if n > 1 and np.min(np.diff(th)) < 1e-2:
                continue
            if circular_gaps(th).max() >= math.pi - 0.05:
                continue
            h = rng.uniform(0.2, 2.5, n)
            oracle = brute_force_halfplanes(th, h)
            try:
                P = polygon_from_support(th, h)
            except Exception:
                assert oracle is None or oracle[1] < 1e-8
                continue
            verts, a, lengths = oracle
            assert area(P) == pytest.approx(a, rel=1e-8)
            assert np.allclose(np.sort(P.lengths), np.sort(lengths), atol=1e-7)


class TestEdgeLengthsAndArea:
    def test_square_edges(self):
        assert np.allclose(edge_lengths(square()), 2.0, atol=1e-12)

    def test_corner_triangle_edge(self):
        # normals pi/2, 7pi/6, 11pi/6 with support (1, 0, 0)
        P = polygon_from_support(
            [math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6], [1.0, 0.0, 0.0]
        )
        i = int(np.argmin(np.abs(P.normals - math.pi / 2)))
        assert P.lengths[i] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
        assert area(P) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_edge_closure(self, rng):
        for _ in range(40):
            P = random_general_position_polygon(rng)
            u = np.column_stack([np.cos(P.normals), np.sin(P.normals)])
            resid = np.linalg.norm(P.lengths @ u)
            assert resid <= 1e-9 * P.lengths.sum()

    def test_area_dilation_scaling(self, rng):
        for _ in range(20):
            P = random_general_position_polygon(rng)
            lam = float(rng.uniform(0.1, 8.0))
            assert area(dilate(P, lam)) == pytest.approx(lam ** 2 * area(P), rel=1e-12)

    def test_redundancy_robustness(self, rng):
        for _ in range(25):
            P = random_general_position_polygon(rng, nmax=12)
            # add a redundant constraint strictly outside the body
            t_new = float(rng.uniform(0, 2 * math.pi))
            if np.min(np.abs(np.append(P.normals - t_new, P.normals - t_new + 2 * math.pi))) < 1e-3:
                continue
            h_new = float(P.support_values([t_new])[0]) + 0.5
            th2 = np.append(P.normals, t_new)
            h2 = np.append(P.support, h_new)
            Q = polygon_from_support(th2, h2)
            assert support_distance(P, Q) <= 1e-10
            i = int(np.argmin(np.abs(Q.normals - canonical_angle(t_new))))
            assert not Q.active[i]


class TestSupportDistance:
    def test_identical(self):
        assert support_distance(square(), square()) == 0.0

    def test_translated_square(self):
        P = square()
        Q = translate(P, (0.3, 0.0))
        assert support_distance(P, Q) == pytest.approx(0.3, abs=1e-12)

    def test_inflated_square(self):
        eps = 1e-3
        P = square()
        Q = polygon_from_support(SQ_NORMALS, [1.0 + eps] * 4)
        d = support_distance(P, Q)
        assert eps <= d <= math.sqrt(2.0) * eps * (1 + 1e-6)

    def test_crest_inside_an_arc(self):
        """h_P - h_Q = (0.3, 0.4).u(t) peaks at |(0.3, 0.4)| = 0.5 inside
        the arc (0, pi / 2), away from every normal."""
        assert support_distance(square(), translate(square(), (0.3, 0.4))) == pytest.approx(
            0.5, rel=1e-15)

    def test_dense_reference(self, rng):
        """Random pairs, unrelated or P against a translate of P: the exact
        value is at most 2 ulp below the dense grid's maximum and at most
        delta^2 / 8 of itself above it (|w| cos(delta / 2) bounds the grid
        near a crest |w|)."""
        inside = 0
        for k in range(16):
            P = random_general_position_polygon(rng, nmin=3, nmax=40)
            Q = (random_general_position_polygon(rng, nmin=3, nmax=40) if k % 2
                 else translate(P, rng.normal(size=2)))
            d = support_distance(P, Q)
            grid, delta = dense_support_distance(P, Q)
            assert grid - 2 * np.spacing(d) <= d <= grid * (1 + delta ** 2 / 8)
            t = np.union1d(P.normals, Q.normals)
            inside += d > np.abs(P.support_values(t) - Q.support_values(t)).max()
        assert inside >= 8  # the maximum lies strictly inside an arc


def dense_support_distance(P, Q, n=400_000):
    """max |h_P - h_Q| over n equally spaced directions plus both normal
    sets, and the grid spacing."""
    t = np.concatenate([np.linspace(0.0, 2 * math.pi, n, endpoint=False), P.normals, Q.normals])
    return float(np.abs(P.support_values(t) - Q.support_values(t)).max()), 2 * math.pi / n


def all_pairs_diameter(vertices):
    """O(V^2) reference: the largest squared distance dx*dx + dy*dy over all
    vertex pairs, 256 rows at a time."""
    x, y = vertices[:, 0], vertices[:, 1]
    best = 0.0
    for i in range(0, len(x), 256):
        dx, dy = x[i : i + 256, None] - x, y[i : i + 256, None] - y
        best = max(best, float(np.max(dx * dx + dy * dy)))
    return math.sqrt(best)


def ellipse_polygon(rng, n):
    """n random normals on a rotated, off-center ellipse: all facets active."""
    th = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    while circular_gaps(th).max() >= math.pi - 0.1:
        th = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    a, b = 1.0, float(rng.uniform(0.05, 1.0))
    phi, c = float(rng.uniform(0.0, math.pi)), rng.uniform(-0.02, 0.02, 2)
    h = np.hypot(a * np.cos(th - phi), b * np.sin(th - phi)) + c @ [np.cos(th), np.sin(th)]
    return polygon_from_support(th, h)


def bent_polygon(rng, k, per_side):
    """A convex k-gon whose sides are arcs of circles of radius 1e2..1e6, each
    traced by per_side vertices: chains of near-collinear vertices."""
    ang = np.sort(rng.uniform(0.0, 2 * math.pi, k))
    while circular_gaps(ang).max() >= math.pi - 0.1:
        ang = np.sort(rng.uniform(0.0, 2 * math.pi, k))
    corners = np.column_stack([np.cos(ang), np.sin(ang)])
    pts = []
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        half = float(np.hypot(*(b - a))) / 2
        along = (b - a) / (2 * half)
        out = np.array([along[1], -along[0]])
        R = 10.0 ** rng.uniform(2.0, 6.0)
        s = half * (2.0 * np.arange(per_side) / per_side - 1.0)
        # height of the arc above the chord, written without cancellation
        sag = (half - s) * (half + s) / (np.sqrt(R * R - s * s) + math.sqrt(R * R - half * half))
        pts.append((a + b) / 2 + s[:, None] * along + sag[:, None] * out)
    v = np.concatenate(pts)
    e = np.roll(v, -1, axis=0) - v
    normals = np.arctan2(-e[:, 0], e[:, 1])
    return polygon_from_support(normals, np.einsum("ij,ij->i", v, unit_vectors(normals)))


@pytest.fixture
def raw_chains(monkeypatch):
    """Every vertex chain handed to Polygon construction, in order, before
    the vertices that fail the convexity margin are dropped."""
    chains = []
    clean = geometry._margin_chain

    def recorded(vertices):
        chains.append(np.array(vertices, dtype=float))
        return clean(vertices)

    monkeypatch.setattr(geometry, "_margin_chain", recorded)
    return chains


class TestDiameter:
    """Polygon.diameter against all vertex pairs, bit for bit, on the
    normal-cone lookup (chains of six or more vertices) and on the all-pairs
    comparison (chains of at most five vertices)."""

    def test_square(self):
        assert not takes_lookup(square())
        assert square().diameter() == math.sqrt(8.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 40, 2000, 2100])
    def test_matches_all_pairs_on_ellipses(self, rng, n):
        for _ in range(2 if n > 1000 else 20):
            P = ellipse_polygon(rng, n)
            assert P.diameter() == all_pairs_diameter(P.vertices)

    def test_matches_all_pairs_on_random_polygons(self, rng):
        for _ in range(50):
            P = random_general_position_polygon(rng, nmax=60)
            assert P.diameter() == all_pairs_diameter(P.vertices)

    @pytest.mark.parametrize("k, per_side", [(3, 20), (5, 60), (3, 500), (5, 700)])
    def test_matches_all_pairs_on_near_collinear_chains(self, rng, k, per_side):
        for _ in range(3):
            P = bent_polygon(rng, k, per_side)
            assert P.diameter() == all_pairs_diameter(P.vertices)

    # the name predates the all-pairs path: chains of at most five vertices
    # skip the lookup and compare all pairs
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chains_of_at_most_five_vertices_take_the_walk(self, rng, n):
        for _ in range(20):
            P = ellipse_polygon(rng, n)
            assert not takes_lookup(P)
            assert P.diameter() == all_pairs_diameter(P.vertices)

    @pytest.mark.parametrize("n", [6, 7, 40, 300, 2000])
    def test_ellipses_take_the_lookup(self, rng, n):
        for _ in range(3 if n > 1000 else 20):
            P = grid_ellipse_polygon(rng, n)
            assert takes_lookup(P)
            assert P.diameter() == all_pairs_diameter(P.vertices)

    @pytest.mark.parametrize("n", [6, 8, 64, 1000, 1001])
    def test_regular_polygons_with_tied_far_vertices(self, n):
        for phase in (0.0, 0.1):
            P = polygon_from_support(phase + 2 * math.pi * np.arange(n) / n, np.ones(n))
            assert takes_lookup(P)
            assert P.diameter() == all_pairs_diameter(P.vertices)

    # as in TestSupportValuesElementwise: the half-plane build leaves the
    # longer arcs' intersection chains dented, and construction drops the
    # dents, so every stored chain takes the lookup
    @pytest.mark.parametrize("k, per_side, dents", [(3, 20, False), (4, 150, True), (5, 200, True)])
    def test_near_collinear_chains_take_the_path_their_turns_allow(self, rng, raw_chains, k,
                                                                    per_side, dents):
        for _ in range(3):
            P = bent_polygon(rng, k, per_side)
            assert not is_dented(P.vertices) and takes_lookup(P)
            assert P.diameter() == all_pairs_diameter(P.vertices)
        assert any(is_dented(chain) for chain in raw_chains) == dents

    def test_solved_loop_bodies_take_the_lookup(self):
        t = 2 * math.pi * np.arange(512) / 512
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, 1.0 + 0.4 * np.cos(2 * t + 0.3)))
        for m in (64, 128, 256):
            P, _ = solve(spec, 0.5, None, PipelineConfig(m0=m, m_max=m))
            assert takes_lookup(P)
            assert P.diameter() == all_pairs_diameter(P.vertices)


def reference_line_intersection(u, h, i, j):
    det = u[i, 0] * u[j, 1] - u[i, 1] * u[j, 0]
    if abs(det) < 1e-15:
        far = np.array([-u[i, 1], u[i, 0]])
        return u[i] * h[i] + 1e18 * far
    x = (h[i] * u[j, 1] - h[j] * u[i, 1]) / det
    y = (h[j] * u[i, 0] - h[i] * u[j, 0]) / det
    return np.array([x, y])


def reference_margin_chain(chain):
    """Polygon's chain cleanup as a scalar loop: while more than five
    vertices remain, drop every vertex whose turn fails the margin
    cross(e_prev, e) > 64 eps A max(|e_prev|_1, |e|_1)."""
    eps = np.finfo(float).eps
    chain = [tuple(v) for v in chain.tolist()]
    while len(chain) > 5:
        m = len(chain)
        A = max(abs(x) + abs(y) for x, y in chain)
        keep = []
        for k in range(m):
            (x0, y0), (x1, y1), (x2, y2) = chain[k - 1], chain[k], chain[(k + 1) % m]
            ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x1, y2 - y1
            if ax * by - ay * bx > 64.0 * eps * A * max(abs(ax) + abs(ay), abs(bx) + abs(by)):
                keep.append(chain[k])
        if len(keep) == m:
            break
        chain = keep
    return np.array(chain)


def reference_sorted(normals, support):
    """The normals and support numbers in the stable order of the angles."""
    theta = canonical_angles(normals)
    order = np.argsort(theta, kind="stable")
    return theta[order], np.asarray(support, dtype=float)[order]


def reference_sweep(u, h):
    """The deque sweep, step by step, over lines already in increasing
    order: the constraints on the boundary in CCW order."""
    tol = geometry.GEOM_TOL

    def violates(k, x):
        return x[0] * u[k, 0] + x[1] * u[k, 1] > h[k] + tol

    dq = deque()
    for k in range(len(h)):
        while len(dq) >= 2 and violates(k, reference_line_intersection(u, h, dq[-2], dq[-1])):
            dq.pop()
        while len(dq) >= 2 and violates(k, reference_line_intersection(u, h, dq[0], dq[1])):
            dq.popleft()
        dq.append(k)
    changed = True
    while changed and len(dq) >= 3:
        changed = False
        if violates(dq[0], reference_line_intersection(u, h, dq[-2], dq[-1])):
            dq.pop()
            changed = True
        if len(dq) >= 3 and violates(dq[-1], reference_line_intersection(u, h, dq[0], dq[1])):
            dq.popleft()
            changed = True
    if len(dq) < 3:
        raise EmptyBodyError("half-plane intersection is empty or lower-dimensional")
    return list(dq)


def reference_polygon_from_support(normals, support):
    """The half-plane build as a scalar loop: a per-normal antipodal scan,
    the deque sweep for every input, per-edge lengths and the chain
    cleanup.  Returns (vertices, lengths, edge_ends, active)."""
    tol = geometry.GEOM_TOL
    theta = canonical_angles(normals)
    h = np.asarray(support, dtype=float).copy()
    order = np.argsort(theta, kind="stable")
    theta, h = theta[order], h[order]
    n = theta.size
    for i in range(n):
        j = int(np.searchsorted(theta, theta[i] + math.pi - 1e-9))
        while j < n and theta[j] <= theta[i] + math.pi + 1e-9:
            if angles_antipodal(theta[i], theta[j], 1e-9) and h[i] + h[j] < -tol:
                raise EmptyBodyError(
                    f"antipodal constraints at angles {theta[i]:.6g}, {theta[j]:.6g} "
                    f"leave no feasible point (h_i + h_j = {h[i] + h[j]:.3g} < 0)"
                )
            j += 1
    if n < 3 or circular_gaps(theta).max() >= math.pi - geometry.ANGLE_TOL:
        raise UnboundedError("normals fit in a closed half-circle; body unbounded")
    u = unit_vectors(theta)
    idx = reference_sweep(u, h)
    m = len(idx)
    verts = np.array(
        [reference_line_intersection(u, h, idx[k], idx[(k + 1) % m]) for k in range(m)]
    )
    x, y = verts[:, 0], verts[:, 1]
    area2 = float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    if not np.isfinite(area2) or area2 <= 2.0 * tol:
        if area2 < -tol:
            raise EmptyBodyError("half-plane intersection is empty")
        raise DegenerateBodyError(f"intersection area {0.5 * area2:.3g} below tolerance")
    lengths = np.zeros(n)
    edge_ends = np.full((n, 2, 2), np.nan)
    for k, i in enumerate(idx):
        a, b = verts[k - 1], verts[k]
        lengths[i] = float(np.hypot(*(b - a)))
        edge_ends[i, 0], edge_ends[i, 1] = a, b
    keep = [k for k in range(m) if np.hypot(*(verts[k] - verts[k - 1])) > geometry.EDGE_TOL]
    chain = verts[keep] if len(keep) >= 3 else verts
    return reference_margin_chain(chain), lengths, edge_ends, lengths > geometry.EDGE_TOL


class TestHalfPlaneChainBitIdentity:
    """polygon_from_support against the scalar reference, array for array.
    `sweeps` counts the calls of the deque sweep, to pin which path ran."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = geometry._halfplane_chain

        def counted(u, h):
            calls.append(len(h))
            return sweep(u, h)

        monkeypatch.setattr(geometry, "_halfplane_chain", counted)
        return calls

    @staticmethod
    def assert_matches(P, ref):
        vertices, lengths, _, active = ref
        assert np.array_equal(P.vertices, vertices)
        assert np.array_equal(P.lengths, lengths)
        assert np.array_equal(P.active, active)

    def assert_same(self, normals, support):
        P = polygon_from_support(normals, support)
        self.assert_matches(P, reference_polygon_from_support(normals, support))
        return P

    @pytest.mark.parametrize("n", [3, 4, 7, 60, 1000])
    def test_all_active_polygons_skip_the_sweep(self, rng, sweeps, n):
        for _ in range(5):
            P = ellipse_polygon(rng, n)
            sweeps.clear()
            self.assert_same(P.normals, P.support)
            assert sweeps == []

    def test_near_collinear_chains(self, rng, sweeps):
        for k, per_side in [(3, 20), (5, 60), (4, 150), (3, 500)]:
            for _ in range(2):
                P = bent_polygon(rng, k, per_side)
                self.assert_same(P.normals, P.support)
        assert sweeps  # some chains drop near-parallel lines

    def test_redundant_normals_take_the_sweep(self, rng, sweeps):
        for _ in range(30):
            P = ellipse_polygon(rng, 12)
            extra = np.sort(rng.uniform(0.0, 2 * math.pi, 5))
            normals = np.concatenate([P.normals, extra])
            support = np.concatenate([P.support, P.support_values(extra) + rng.uniform(0.01, 1.0, 5)])
            sweeps.clear()
            Q = self.assert_same(normals, support)
            assert sweeps and np.count_nonzero(~Q.active) >= 5

    def test_cut_half_body(self, rng, sweeps):
        # a line through the origin clips the body: the sweep drops the lines it cuts off
        P = ellipse_polygon(rng, 40)
        w = float(P.normals[7]) + 1e-3
        K = self.assert_same(*half_body(P, w))
        assert sweeps == [41] and np.count_nonzero(K.active) < 40

    def test_chord_midpoints_are_the_reference_edge_midpoints(self, rng, sweeps):
        # edge_midpoints and chord_mass_bound's lhs, bit for bit, from the
        # midpoints of the reference build's edge ends, on all-active bodies
        # and on bodies with redundant normals, which take the sweep
        checked = 0
        for trial in range(60):
            P = ellipse_polygon(rng, int(rng.integers(5, 40)))
            normals, support = P.normals, P.support
            if trial % 2:
                extra = rng.uniform(0.0, 2 * math.pi, 4)
                normals = np.concatenate([normals, extra])
                support = np.concatenate([support, P.support_values(extra) + rng.uniform(0.01, 1.0, 4)])
            Q = polygon_from_support(normals, support)
            _, _, ends, _ = reference_polygon_from_support(normals, support)
            p = float(rng.uniform(0.05, 0.95))
            for _ in range(5):
                i1, i2 = (int(i) for i in rng.choice(np.flatnonzero(Q.active), 2, replace=False))
                u = float(rng.uniform(0.0, 2 * math.pi))
                x1, x2 = ends[i1].mean(axis=0), ends[i2].mean(axis=0)
                assert np.array_equal(edge_midpoints(Q, (i1, i2)), [x1, x2])
                inner = float(x1 @ unit_vector(Q.normals[i2]))
                advance = float((x2 - x1) @ unit_vector(u))
                if inner <= 0.0 or advance <= 0.0:
                    with pytest.raises(PreconditionViolatedError):
                        chord_mass_bound(Q, i1, i2, u, p)
                    continue
                lhs, _ = chord_mass_bound(Q, i1, i2, u, p)
                assert lhs == min(float(Q.support[i1]), inner) ** (1.0 - p) * advance
                checked += 1
        assert checked >= 60 and len(sweeps) >= 30

    def assert_same_outcome(self, normals, support) -> bool:
        """Same arrays, or the same empty, degenerate or unbounded error;
        True when a body was built."""
        def outcome(build):
            try:
                return build(normals, support)
            except (EmptyBodyError, UnboundedError, DegenerateBodyError) as exc:
                return type(exc), str(exc)

        ref = outcome(reference_polygon_from_support)
        got = outcome(polygon_from_support)
        if isinstance(ref[0], type):
            assert got == ref
            return False
        self.assert_matches(got, ref)
        return True

    def test_random_support_numbers(self, rng):
        built = 0
        for _ in range(300):
            n = int(rng.integers(3, 12))
            built += self.assert_same_outcome(rng.uniform(0.0, 2 * math.pi, n),
                                              rng.uniform(-0.5, 2.0, n))
        assert 50 <= built <= 250

    @staticmethod
    def near_threshold_inputs(rng, draws):
        """Line 2 runs through the vertex X of lines 0 and 1, within
        rounding: h2 + GEOM_TOL steps from 2 ulps below the elementwise sum
        s = X0 u20 + X1 u21 to 2 ulps above it, so the sweep's first test, X
        against line 2, lands on both sides.  Yields (normals, support,
        cut), cut = s > h2 + GEOM_TOL, for every step that an h2 reaches."""
        for _ in range(draws):
            normals = np.array([rng.uniform(0.0, 0.5), rng.uniform(1.5, 2.2), rng.uniform(2.4, 3.0),
                                rng.uniform(3.8, 4.4), rng.uniform(5.0, 5.8)])
            support = np.concatenate([rng.uniform(0.5, 1.5, 2), [0.0], rng.uniform(1.0, 2.0, 2)])
            u = unit_vectors(normals)
            X = reference_line_intersection(u, support, 0, 1)
            s = float(X[0]) * float(u[2, 0]) + float(X[1]) * float(u[2, 1])
            bound = s
            for _ in range(2):
                bound = np.nextafter(bound, -math.inf)
            for _ in range(5):
                h2 = bound - geometry.GEOM_TOL
                for _ in range(4):
                    if h2 + geometry.GEOM_TOL != bound:
                        h2 = np.nextafter(h2, math.inf if h2 + geometry.GEOM_TOL < bound else -math.inf)
                if h2 + geometry.GEOM_TOL == bound:
                    yield normals, np.concatenate([support[:2], [h2], support[3:]]), bool(s > bound)
                bound = np.nextafter(bound, math.inf)

    def test_near_threshold_tests_take_the_elementwise_sum(self, rng, sweeps):
        # The sweep cuts X off exactly when s exceeds the bound, so line 1
        # leaves the chain; a 1-D `X @ u2` that BLAS fuses need not agree.
        cuts = []
        for normals, support, cut in self.near_threshold_inputs(rng, 40):
            sweeps.clear()
            self.assert_same(normals, support)
            assert sweeps == [5] or not cut
            assert (1 not in geometry._halfplane_chain(unit_vectors(normals), support)) == cut
            cuts.append(cut)
        assert len(cuts) >= 150 and 0 < sum(cuts) < len(cuts)

    @staticmethod
    def fast_path_taken(normals, support) -> bool:
        """_no_constraint_cut on the sorted lines, asserted to hold exactly
        when the sweep keeps every line."""
        theta = canonical_angles(normals)
        order = np.argsort(theta, kind="stable")
        u, h = unit_vectors(theta[order]), np.asarray(support, dtype=float)[order]
        fast = geometry._no_constraint_cut(u, h, geometry._consecutive_intersections(u, h))
        assert fast == (geometry._halfplane_chain(u, h) == list(range(len(h))))
        return fast

    def test_fast_path_iff_the_sweep_drops_no_line(self, rng):
        for n in (3, 4, 7, 60, 1000):
            for _ in range(5):
                P = ellipse_polygon(rng, n)
                assert self.fast_path_taken(P.normals, P.support)
        bent = [self.fast_path_taken(P.normals, P.support)
                for k, per_side in [(3, 20), (5, 60), (4, 150), (3, 500)] for _ in range(2)
                for P in [bent_polygon(rng, k, per_side)]]
        assert set(bent) == {True, False}
        for _ in range(30):
            P = ellipse_polygon(rng, 12)
            extra = np.sort(rng.uniform(0.0, 2 * math.pi, 5))
            support = np.concatenate([P.support, P.support_values(extra) + rng.uniform(0.01, 1.0, 5)])
            assert not self.fast_path_taken(np.concatenate([P.normals, extra]), support)
        near = [self.fast_path_taken(normals, support)
                for normals, support, _ in self.near_threshold_inputs(rng, 40)]
        assert 0 < sum(near) < len(near)

    def test_parallel_and_antipodal_pairs(self, rng, monkeypatch):
        parallel, parallel_rows = [], []
        meet, rows = geometry._line_intersection, geometry._consecutive_intersections

        def counted(ux, uy, h, i, j):
            x = meet(ux, uy, h, i, j)
            if abs(ux[i] * uy[j] - uy[i] * ux[j]) < 1e-15:
                u, hh = np.column_stack([ux, uy]), np.array(h)
                assert np.array_equal(x, reference_line_intersection(u, hh, i, j))
                parallel.append((i, j))
            return x

        def counted_rows(u, h):
            X = rows(u, h)
            m = len(h)
            for k in range(m):
                if abs(u[k, 0] * u[(k + 1) % m, 1] - u[k, 1] * u[(k + 1) % m, 0]) < 1e-15:
                    assert np.array_equal(X[k], reference_line_intersection(u, h, k, (k + 1) % m))
                    parallel_rows.append(k)
            return X

        monkeypatch.setattr(geometry, "_line_intersection", counted)
        monkeypatch.setattr(geometry, "_consecutive_intersections", counted_rows)
        # A strip about GEOM_TOL wide between the antipodal lines phi and
        # phi + pi, and a far line at phi + pi / 2 whose vertex with line phi
        # the line phi + pi cuts off within rounding: once that far line is
        # popped, the sweep meets the parallel pair.
        for phi in rng.uniform(0.0, 2 * math.pi, 8):
            normals = phi + np.array([0.0, 0.5, 1.0, 1.5]) * math.pi
            for j in range(-5, 6):
                support = [1.0, 1000.0, -1.0 - geometry.GEOM_TOL + j * 2e-14, 1.0]
                self.assert_same_outcome(normals, support)
        assert parallel and parallel_rows
        # Consistent antipodal pairs, exact and within 1e-15, among
        # redundant constraints.
        built = 0
        for _ in range(200):
            k = int(rng.integers(1, 4))
            base = rng.uniform(0.0, 2 * math.pi, k)
            off = rng.choice([0.0, 3e-16, -3e-16, 9e-16], k)
            normals = np.concatenate([base, base + math.pi + off,
                                      rng.uniform(0.0, 2 * math.pi, int(rng.integers(2, 6)))])
            support = rng.uniform(0.2, 2.0, len(normals))
            support[k:2 * k] = -support[:k] + rng.choice([0.0, 1e-11, 0.5], k)
            built += self.assert_same_outcome(normals, support)
        assert built >= 10

    def test_cut_half_of_a_loop_sized_doubled_body(self, rng, sweeps):
        # A body symmetric across the line v, on 1020 normals as a
        # refinement stage's, halved along that line.
        v = float(rng.uniform(0.0, 2 * math.pi))
        n = 1020
        s = (np.arange(n) + 0.5) * (2 * math.pi / n)
        K2 = polygon_from_support(v + s, 1.0 + 0.3 * np.cos(s) + 0.05 * np.cos(2 * s)
                                  + 0.02 * np.cos(3 * s))
        assert K2.active.all()
        K = self.assert_same(*half_body(K2, canonical_angle(v - math.pi / 2)))
        assert sweeps == [n + 1]
        assert np.count_nonzero(K.active) < n // 2 + 3

    def test_antipodal_shortcut_at_its_bound(self, rng):
        """The pair search is skipped when 2 min(h) >= -GEOM_TOL.  Antipodal
        pairs at h = -GEOM_TOL / 2 (no empty strip), one ulp lower (an empty
        strip, named as the reference names it) and at NaN give the
        reference's outcome."""
        tol = geometry.GEOM_TOL
        empty = 0
        for a in (-tol / 2, np.nextafter(-tol / 2, -1.0), -0.3, math.nan):
            for _ in range(20):
                k = int(rng.integers(1, 4))
                base = rng.uniform(0.0, 2 * math.pi, k)
                normals = np.concatenate([base, base + math.pi, rng.uniform(0.0, 2 * math.pi, 3)])
                support = rng.uniform(0.2, 2.0, len(normals))
                support[:2 * k] = a
                try:
                    geometry._check_antipodal_pairs(*reference_sorted(normals, support))
                except EmptyBodyError:
                    empty += 1
                self.assert_same_outcome(normals, support)
        assert empty == 40

    @pytest.mark.parametrize("n", [3, 4])
    def test_no_constraint_cut_agrees_with_the_sweep(self, rng, n):
        kept = []
        while len(kept) < 300:
            normals = np.sort(rng.uniform(0.0, 2 * math.pi, n))
            if circular_gaps(normals).max() >= math.pi - 0.05:
                continue
            h = rng.uniform(-0.5, 2.0, n)
            u = unit_vectors(normals)
            fast = geometry._no_constraint_cut(u, h, geometry._consecutive_intersections(u, h))
            try:
                keeps_all = geometry._halfplane_chain(u, h) == list(range(n))
            except EmptyBodyError:
                keeps_all = False
            assert fast == keeps_all
            kept.append(fast)
        assert 0 < sum(kept) < len(kept)

    def test_inconsistent_antipodal_pair_message(self):
        # two empty strips; the error names the first in angle order
        normals = [0.1, 0.1 + math.pi / 2, 0.1 + math.pi, 0.1 + 3 * math.pi / 2,
                   1.0, 1.0 + math.pi, 0.5, 0.5 + math.pi]
        support = [1.0, 1.0, 1.0, 1.0, 0.5, -0.75, 0.2, -0.3]
        with pytest.raises(EmptyBodyError) as ref:
            reference_polygon_from_support(normals, support)
        with pytest.raises(EmptyBodyError) as got:
            polygon_from_support(normals, support)
        assert str(got.value) == str(ref.value)
        assert "angles 0.5, 3.64159" in str(got.value)


def half_body(K2, w):
    """The normals and support numbers of K2 clipped by the line through the
    origin with normal w + pi: that normal, at support 0, replaces any normal
    of K2 within ANGLE_TOL of it, and goes last."""
    cut = canonical_angle(w + math.pi)
    keep = np.abs(K2.normals - cut) > geometry.ANGLE_TOL
    return np.append(K2.normals[keep], cut), np.append(K2.support[keep], 0.0)


def assert_cut_matches(K2, w):
    """polygon_from_support(*half_body(K2, w)) gives the scalar reference
    build's five arrays byte for byte."""
    normals, support = half_body(K2, w)
    K = polygon_from_support(normals, support)
    got = (K.normals, K.support, K.vertices, K.lengths, K.active)
    vertices, lengths, _, active = reference_polygon_from_support(normals, support)
    want = (*reference_sorted(normals, support), vertices, lengths, active)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return K


def symmetric_body(v, n, shift=0.0, offset=0.5):
    """A body on n normals v + s, s = (j + offset) 2 pi / n, with even support
    in s, so symmetric across the line at angle v, moved by shift along
    v + pi / 2: its two vertices on that line end up at distance |shift|
    from it, beyond it for shift > 0 as seen from the normal v + pi / 2."""
    s = (np.arange(n) + offset) * (2 * math.pi / n)
    h = 1.0 + 0.3 * np.cos(s) + 0.05 * np.cos(2 * s) + 0.02 * np.cos(3 * s)
    return polygon_from_support(v + s, h + shift * np.cos(s - math.pi / 2))


class TestCutHalfBitIdentity:
    """Bodies clipped by one line through the origin against the scalar
    reference build: the sweep's tests must come out as the step-by-step
    reference's, including the ones GEOM_TOL decides."""

    def test_vertices_within_geom_tol_of_the_cut_line(self, rng):
        tol = geometry.GEOM_TOL
        for v in rng.uniform(0.0, 2 * math.pi, 6):
            n = 2 * int(rng.integers(10, 300))
            w = canonical_angle(v - math.pi / 2)
            for shift in (-2 * tol, -tol, -tol / 2, -1e-15, 0.0, 1e-15, tol / 2, tol * (1 - 1e-6),
                          tol, tol * (1 + 1e-6), 2 * tol):
                assert_cut_matches(symmetric_body(v, n, shift), w)

    @pytest.mark.parametrize("eps", [0.0, 5e-13, -5e-13, 9e-13, -9e-13, 3e-12, -3e-12])
    def test_a_normal_within_angle_tol_of_the_cut_normal(self, rng, eps):
        for _ in range(3):
            v = float(rng.uniform(0.1, 2 * math.pi - 3.0))  # cut normal v + pi / 2 clear of 0
            n = 4 * int(rng.integers(10, 100))
            K2 = symmetric_body(v, n, offset=0.0)  # a normal at v + pi / 2
            normals = K2.normals.copy()
            normals[np.argmin(np.abs(normals - (v + math.pi / 2)))] += eps
            K2 = polygon_from_support(normals, K2.support)
            K = assert_cut_matches(K2, canonical_angle(v - math.pi / 2))
            assert K.n == n + (abs(eps) > geometry.ANGLE_TOL)

    def test_cut_at_every_place_in_the_sweep(self, rng):
        # The cut line's place among the sorted normals decides where line 0
        # falls: near 0 or 2 pi, the clip removes it.
        for cut in (1e-3, 0.05, 1.0, math.pi, 4.0, 2 * math.pi - 0.05, 2 * math.pi - 1e-3):
            for n in (50, 511):
                v = cut - math.pi / 2 + float(rng.uniform(-1e-4, 1e-4))
                assert_cut_matches(symmetric_body(v, n), canonical_angle(v - math.pi / 2))
                # off the symmetry line, and through the middle of the body
                K2 = ellipse_polygon(rng, n)
                assert_cut_matches(K2, canonical_angle(cut + float(rng.uniform(-0.5, 0.5))))


def reference_support(vertices, thetas):
    """Scalar definition of the support values: max_j x_j cos t + y_j sin t
    in Python floats, one direction and one vertex at a time."""
    t = np.asarray(thetas, dtype=float)
    rows = vertices.tolist()
    return np.array([max(x * c + y * s for x, y in rows) + 0.0
                     for c, s in zip(np.cos(t).tolist(), np.sin(t).tolist())])


def grid_ellipse_polygon(rng, n):
    """n jittered grid normals on a rotated, off-center ellipse: a strictly
    convex vertex chain with every facet active."""
    th = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (2 * math.pi / n) + rng.uniform(0, 1)
    a, b = 1.0, float(rng.uniform(0.05, 1.0))
    phi, c = float(rng.uniform(0.0, math.pi)), rng.uniform(-0.5, 0.5, 2)
    h = np.hypot(a * np.cos(th - phi), b * np.sin(th - phi)) + c @ [np.cos(th), np.sin(th)]
    return polygon_from_support(th, h)


def probe_directions(rng, P):
    """Random directions inside and far outside [0, 2*pi), the seam, and (up
    to 300 of each) the body's normals and the atan2 normal angles of its
    vertex chain's edges, also shifted by multiples of 2*pi.  The
    permutations come from a child generator, so the body's vertex count
    does not change what the test rng draws next."""
    v = P.vertices
    e = np.roll(v, -1, axis=0) - v
    edge = np.arctan2(-e[:, 0], e[:, 1])
    child = rng.spawn(1)[0]
    normals = child.permutation(P.normals)[:300]
    edge = child.permutation(edge)[:300]
    seam = [0.0, -0.0, 2 * math.pi, math.pi, -math.pi,
            np.nextafter(2 * math.pi, 0.0), np.nextafter(0.0, -1.0)]
    return np.concatenate([rng.uniform(0.0, 2 * math.pi, 300), rng.uniform(-60.0, 60.0, 100),
                           normals, normals - 2 * math.pi, edge, edge + 4 * math.pi, seam])


def takes_lookup(P):
    """support_values and diameter look up normal cones: the chain has more
    than five vertices (_normal_cones raises on a chain it rejects)."""
    if len(P.vertices) <= 5:
        return False
    geometry._normal_cones(*P.vertices.T.copy())
    return True


def is_dented(chain):
    """Some vertex of the chain turns by <= 0 (as computed)."""
    e = np.roll(chain, -1, axis=0) - chain
    return bool(np.any(np.roll(e[:, 0], 1) * e[:, 1] - np.roll(e[:, 1], 1) * e[:, 0] <= 0.0))


class TestSupportValuesElementwise:
    """support_values against the scalar definition, bit for bit, on both
    the normal-cone lookup and chains of at most five vertices."""

    @staticmethod
    def assert_exact(P, rng):
        t = probe_directions(rng, P)
        assert np.array_equal(P.support_values(t), reference_support(P.vertices, t))

    @pytest.mark.parametrize("n", [6, 7, 40, 300, 2000])
    def test_ellipses_take_the_lookup(self, rng, n):
        for _ in range(3 if n > 1000 else 15):
            P = grid_ellipse_polygon(rng, n)
            assert takes_lookup(P)
            self.assert_exact(P, rng)

    # the half-plane build leaves the longer arcs' intersection chains
    # dented; construction drops the dents, so every chain takes the lookup
    @pytest.mark.parametrize("k, per_side, dents", [(3, 20, False), (4, 150, True), (5, 200, True)])
    def test_near_collinear_chains(self, rng, raw_chains, k, per_side, dents):
        for _ in range(4):
            P = bent_polygon(rng, k, per_side)
            assert not is_dented(P.vertices) and takes_lookup(P)
            self.assert_exact(P, rng)
        assert any(is_dented(chain) for chain in raw_chains) == dents

    def test_isometries_translation_and_dilation(self, rng):
        for _ in range(10):
            P = grid_ellipse_polygon(rng, int(rng.integers(6, 400)))
            images = [apply_isometry(P, Isometry2("reflection", float(rng.uniform(0, math.pi)))),
                      apply_isometry(P, Isometry2("rotation", float(rng.uniform(0, 2 * math.pi)))),
                      translate(P, rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3)),
                      dilate(P, 10.0 ** float(rng.uniform(-6, 6)))]
            for Q in images:
                assert takes_lookup(Q)
                self.assert_exact(Q, rng)

    def test_random_polygons_triangles_and_quadrilaterals(self, rng):
        for nmax in (3, 4, 60):
            for _ in range(15):
                P = random_general_position_polygon(rng, nmin=3, nmax=nmax)
                self.assert_exact(P, rng)
        assert not takes_lookup(square())
        self.assert_exact(square(), rng)

    @pytest.mark.parametrize("bulge, kept", [(1e-13, True), (3e-15, False), (1e-15, False)])
    def test_turns_below_the_margin_are_dropped(self, rng, bulge, kept):
        """A 12-gon plus an edge midpoint pushed out by `bulge`: convex as
        computed, with a turn below the margin for the two smaller bulges,
        whose vertex construction drops."""
        v = unit_vectors(2 * math.pi * np.arange(12) / 12)
        mid = (v[0] + v[1]) / 2
        chain = np.insert(v, 1, mid + bulge * mid / np.hypot(*mid), axis=0)
        assert not is_dented(chain)
        e = np.roll(chain, -1, axis=0) - chain
        normal = np.arctan2(-e[:, 0], e[:, 1])
        assert normal[1] > normal[0]  # the turn at the pushed-out vertex
        P = polygon_from_support(2 * math.pi * (np.arange(12) + 0.5) / 12,
                                 np.full(12, math.cos(math.pi / 12)))
        Q = dataclasses.replace(P, vertices=chain)
        assert np.array_equal(Q.vertices, chain if kept else v)
        t = rng.uniform(-10.0, 10.0, 2000)
        assert np.array_equal(Q.support_values(t), reference_support(Q.vertices, t))
        slack = 64 * np.finfo(float).eps * np.max(np.abs(chain).sum(axis=1))
        assert np.all(np.abs(Q.support_values(t) - reference_support(chain, t)) <= slack)

    def test_chains_winding_more_than_once_raise(self, rng):
        for n, step in ((7, 2), (9, 4), (11, 3), (40, 13)):
            star = unit_vectors(2 * math.pi * step * np.arange(n) / n) * rng.uniform(0.5, 2.0)
            assert np.array_equal(geometry._margin_chain(star), star)  # every turn is positive
            with pytest.raises(RuntimeError, match="winds more than once"):
                geometry._normal_cones(*star.T.copy())

    def test_zero_maximum_is_positive_zero(self, rng):
        t = np.array([1.25 * math.pi])  # cos and sin < 0: 0*cos + 0*sin is -0.0
        for P, lookup in ((grid_ellipse_polygon(rng, 50), True),
                          (bent_polygon(rng, 4, 150), True), (square(), False)):
            assert takes_lookup(P) == lookup
            k = int(np.argmax(P.vertices @ unit_vectors(t)[0]))
            h = translate(P, P.vertices[k]).support_values(t)
            assert h[0] == 0.0 and not np.signbit(h[0])

    def test_shapes(self, rng):
        for Q in (grid_ellipse_polygon(rng, 50), bent_polygon(rng, 4, 150), square()):
            assert Q.support_values(np.array([])).shape == (0,)
            assert Q.support_values(1.5).shape == (1,)

    def test_batch_independent(self, rng):
        t = rng.uniform(0.0, 2 * math.pi, 3000)
        for P, lookup in ((grid_ellipse_polygon(rng, 512), True), (bent_polygon(rng, 4, 150), True),
                          (random_general_position_polygon(rng, nmin=5, nmax=5), False)):
            assert takes_lookup(P) == lookup
            h = P.support_values(t)
            assert all(P.support_values(t[k : k + 1])[0] == h[k] for k in range(t.size))



class TestChainInvariant:
    """Every stored chain of more than five vertices clears the convexity
    margin, so support_values and diameter both take the normal-cone lookup,
    and the vertices that construction dropped move neither the support
    values nor the diameter by more than 64 eps A against the chain handed
    to construction (A = max |x| + |y| over that chain)."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        calls = []
        cones = geometry._normal_cones

        def counted(x, y):
            calls.append(len(x))
            return cones(x, y)

        monkeypatch.setattr(geometry, "_normal_cones", counted)
        return calls

    @staticmethod
    def assert_invariant(P, raw, lookups, rng):
        assert len(P.vertices) > 5
        t = rng.uniform(0.0, 2 * math.pi, 300)
        lookups.clear()
        h, d = P.support_values(t), P.diameter()
        assert lookups == [len(P.vertices)]  # built once, shared by both
        slack = 64 * np.finfo(float).eps * np.max(np.abs(raw).sum(axis=1))
        full = np.max(raw[:, 0] * np.cos(t)[:, None] + raw[:, 1] * np.sin(t)[:, None], axis=1)
        assert np.all(np.abs(h - full) <= slack)
        assert abs(d - all_pairs_diameter(raw)) <= slack

    @pytest.mark.parametrize("k, per_side", [(3, 20), (5, 60), (4, 150), (5, 200), (3, 500),
                                             (5, 700)])
    def test_near_collinear_chains(self, rng, raw_chains, lookups, k, per_side):
        for _ in range(2):
            P = bent_polygon(rng, k, per_side)
            self.assert_invariant(P, raw_chains[-1], lookups, rng)

    def test_random_normal_8192_gons(self, rng, raw_chains, lookups):
        for _ in range(2):
            P = ellipse_polygon(rng, 8192)
            self.assert_invariant(P, raw_chains[-1], lookups, rng)

    def test_random_polygons_and_cut_halves(self, rng, raw_chains, lookups):
        checked = 0
        for _ in range(30):
            P = random_general_position_polygon(rng, nmin=6, nmax=60)
            if len(raw_chains[-1]) > 5:
                self.assert_invariant(P, raw_chains[-1], lookups, rng)
                checked += 1
            K = polygon_from_support(*half_body(ellipse_polygon(rng, 200),
                                                float(rng.uniform(0.0, 2 * math.pi))))
            self.assert_invariant(K, raw_chains[-1], lookups, rng)
        assert checked >= 10

    def test_translation_dilation_and_isometry_images(self, rng, raw_chains, lookups):
        for P in (bent_polygon(rng, 5, 200), bent_polygon(rng, 3, 500),
                  ellipse_polygon(rng, 1000), grid_ellipse_polygon(rng, 300)):
            for _ in range(3):
                images = (translate(P, rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3)),
                          dilate(P, 10.0 ** float(rng.uniform(-6, 6))),
                          apply_isometry(P, Isometry2("rotation", float(rng.uniform(0, 2 * math.pi)))),
                          apply_isometry(P, Isometry2("reflection", float(rng.uniform(0, math.pi)))))
                for Q, raw in zip(images, raw_chains[-4:]):
                    self.assert_invariant(Q, raw, lookups, rng)

    def test_cones_built_once_per_body(self, rng, lookups):
        """support_values, diameter and support_distance share one build of
        each body's cones, equal to a fresh build."""
        P, Q = grid_ellipse_polygon(rng, 200), bent_polygon(rng, 4, 150)
        t = rng.uniform(0.0, 2 * math.pi, 300)
        lookups.clear()
        for _ in range(2):
            h = P.support_values(t)
            d = (P.diameter(), Q.diameter())
            dist = (support_distance(P, Q), support_distance(Q, P))
            assert np.array_equal(Q.support_values(t), reference_support(Q.vertices, t))
        assert sorted(lookups) == sorted([len(P.vertices), len(Q.vertices)])
        assert np.array_equal(h, reference_support(P.vertices, t))
        assert d == (all_pairs_diameter(P.vertices), all_pairs_diameter(Q.vertices))
        grid, delta = dense_support_distance(P, Q)
        assert dist[0] == dist[1]
        assert grid - 2 * np.spacing(grid) <= dist[0] <= grid * (1 + delta ** 2 / 8)
        for R in (P, Q):
            phi, r = R._cones
            fresh_phi, fresh_r = geometry._normal_cones(*R.vertices.T.copy())
            assert np.array_equal(phi, fresh_phi) and r == fresh_r

    def test_short_chains_build_no_cones(self, lookups):
        P = square()
        assert P._cones is None
        assert P.diameter() == math.sqrt(8.0)
        assert support_distance(P, dilate(P, 2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert lookups == []


class TestCyclicShift:
    """cyclic_shift equals np.roll along axis 0 bit for bit, signed zeros
    included, and returns a new array."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("shape", ["1-D", "(n, 2)"])
    def test_equals_roll(self, rng, n, shape):
        a = rng.standard_normal(n if shape == "1-D" else (n, 2))
        a.flat[::2] = -0.0
        a.flat[1::4] = 0.0
        for shift in range(-n - 1, n + 2):
            got, ref = geometry.cyclic_shift(a, shift), np.roll(a, shift, axis=0)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            assert got.dtype == ref.dtype and not np.shares_memory(got, a)
        assert np.array_equal(geometry.cyclic_shift(a, -1), np.roll(a, -1, axis=0))
        assert np.array_equal(geometry.cyclic_shift(a, 1), np.roll(a, 1, axis=0))

    def test_empty_and_index_arrays(self):
        assert geometry.cyclic_shift(np.array([]), 1).shape == (0,)
        idx = np.arange(5)
        assert np.array_equal(geometry.cyclic_shift(idx, -1), [1, 2, 3, 4, 0])


class TestIsometries:
    def test_dilate_support(self):
        assert np.allclose(dilate(square(), 2.0).support, 2.0)

    def test_rotate_square(self):
        A = Isometry2("rotation", math.pi / 4)
        Q = apply_isometry(square(), A)
        assert np.allclose(
            Q.normals, [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        )
        assert area(Q) == pytest.approx(4.0, abs=1e-10)

    def test_translate_support_numbers(self):
        Q = translate(square(), (0.5, 0.0))
        # h_{K - xi}(u) = h_K(u) - <xi, u>
        assert np.allclose(Q.support, [0.5, 1.0, 1.5, 1.0], atol=1e-12)

    def test_isometry_permutes_edge_lengths(self, rng):
        for _ in range(20):
            P = random_general_position_polygon(rng, nmax=15)
            if rng.random() < 0.5:
                A = Isometry2("rotation", float(rng.uniform(0, 2 * math.pi)))
            else:
                A = Isometry2("reflection", float(rng.uniform(0, math.pi)))
            Q = apply_isometry(P, A)
            # image normal angles match, lengths carried along
            back = {canonical_angle(A.apply_angle(t)): l
                    for t, l in zip(P.normals, P.lengths)}
            for t, l in zip(Q.normals, Q.lengths):
                assert l == pytest.approx(back[canonical_angle(t)], abs=1e-9)

    def test_reflection_preserves_area_and_vertices_ccw(self, rng):
        P = random_general_position_polygon(rng)
        Q = apply_isometry(P, Isometry2("reflection", 0.7))
        assert area(Q) == pytest.approx(area(P), rel=1e-10)
        x, y = Q.vertices[:, 0], Q.vertices[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0


class TestPositiveHull:
    def test_quarter_cone_contains(self):
        assert in_positive_hull(math.pi / 4, [0.0, math.pi / 2])

    def test_quarter_cone_excludes(self):
        assert not in_positive_hull(3 * math.pi / 4, [0.0, math.pi / 2])

    def test_full_plane_cone(self):
        gens = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        for t in np.linspace(0, 2 * math.pi, 37):
            assert in_positive_hull(float(t), gens)

    def test_nonnegative_system_oracle(self, rng):
        # membership agrees with solving u = sum lambda_i u_i, lambda >= 0
        from scipy.optimize import nnls

        for _ in range(200):
            k = int(rng.integers(1, 6))
            gens = rng.uniform(0, 2 * math.pi, k)
            t = float(rng.uniform(0, 2 * math.pi))
            G = np.column_stack([np.cos(gens), np.sin(gens)]).T  # 2 x k
            target = np.array([math.cos(t), math.sin(t)])
            _, resid = nnls(G, target)
            assert in_positive_hull(t, gens) == (resid < 1e-8)

    def test_hull_bound_property(self, rng):
        # for x in the dual cone and u in the hull: <u,x> >= min_i <u_i,x> - 1e-12
        for _ in range(100):
            k = int(rng.integers(2, 5))
            gens = np.sort(rng.uniform(0, math.pi * 0.9, k))
            for _ in range(50):
                x = rng.normal(size=2) * rng.uniform(0.1, 3)
                dots = np.cos(gens) * x[0] + np.sin(gens) * x[1]
                if np.all(dots >= 0):
                    break
            else:
                continue
            t = float(rng.uniform(gens.min(), gens.max()))
            assert in_positive_hull(t, gens)
            assert math.cos(t) * x[0] + math.sin(t) * x[1] >= dots.min() - 1e-12


def circular_distances(a, b):
    """Elementwise arc distance between arrays of angles in [0, 2 pi)."""
    d = np.abs(a - b)
    return np.minimum(d, 2 * math.pi - d)


class TestGroups:
    def test_cyclic_elements(self):
        G = SymmetryGroup.cyclic(4)
        angles = sorted(e.parameter for e in G.elements())
        assert np.allclose(angles, [0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_dihedral_closure(self):
        G = SymmetryGroup.dihedral(3, axis=0.4)
        els = G.elements()
        assert len(els) == 6
        # closed under composition: on probe angles, every product acts as
        # some group element
        probe = np.array([0.1, 1.3, 2.9, 4.4, 6.2])
        for a in els:
            for b in els:
                got = a.apply_angles(b.apply_angles(probe))
                assert any(circular_distances(got, e.apply_angles(probe)).max() <= 1e-12
                           for e in els)

    def test_reflection_is_involution(self):
        A = Isometry2("reflection", 1.1)
        probe = np.array([0.0, 0.7, 1.1, 3.0, 5.9])
        assert circular_distances(A.apply_angles(A.apply_angles(probe)), probe).max() <= 1e-12
