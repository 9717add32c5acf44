"""Measure layer tests: Lp boundary measures, classification, flat distance."""

import math

import numpy as np
import pytest

from conftest import (
    flat_distance_all_pairs,
    random_general_position_measure,
    random_general_position_polygon,
)

from lpmink import (
    DiscreteMeasure,
    Isometry2,
    MeasureSpec,
    OriginOutsideError,
    PiecewiseLinearDensity,
    apply_isometry,
    chord_mass_bound,
    classify,
    dilate,
    hemisphere_delta,
    lp_surface_measure,
    lp_surface_measure_3d,
    polygon_from_support,
    weak_distance,
)
from lpmink.errors import (
    EmptyMeasureError,
    NonPlanarFacetError,
    PreconditionViolatedError,
)
from lpmink.geometry import canonical_angles
from lpmink.measure import (
    ANTIPODAL_PAIR,
    ATOM_MERGE_TOL,
    GENERAL_POSITION,
    SEMICIRCLE,
    SINGLE_DIRECTION,
    DiscreteMeasure3,
    _merge_sorted_atoms,
)
from lpmink.pipeline import discretize

TWO_PI = 2 * math.pi
SQ = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


class TestDiscreteMeasure:
    def test_equality_is_identity(self):
        # Comparing the array fields would raise; == compares identity, for
        # the grid measures of the refinement loop too.
        mu = DiscreteMeasure([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert mu == mu
        assert not mu == DiscreteMeasure([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        grid = discretize(MeasureSpec(mu), 12)
        assert grid == grid and grid != discretize(MeasureSpec(mu), 12)

    def test_sphere_measure_equality_is_identity(self):
        # == on the 3-D measure compares identity and does not raise
        dirs, masses = np.eye(3), [1.0, 2.0, 3.0]
        mu = DiscreteMeasure3(dirs, masses)
        assert mu == mu
        assert not mu == DiscreteMeasure3(dirs, masses)
        assert mu != DiscreteMeasure3(dirs, masses)

    def test_merge_coincident(self):
        mu = DiscreteMeasure([0.1, 0.1 + 1e-12, 2.0], [1.0, 2.0, 3.0])
        assert mu.n == 2
        assert mu.total_mass() == pytest.approx(6.0)
        assert mu.mass_at(0.1) == pytest.approx(3.0)

    def test_wraparound_merge(self):
        mu = DiscreteMeasure([1e-12, TWO_PI - 1e-12], [1.0, 1.0])
        assert mu.n == 1
        assert mu.total_mass() == pytest.approx(2.0)

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0], [-1.0])
        with pytest.raises(EmptyMeasureError):
            DiscreteMeasure([0.0], [0.0])

    @pytest.mark.parametrize("thetas, masses", [
        ([0.0, 2.0, 4.0, 5.0], [1.0, math.nan, 1.0, 1.0]),  # no longer dropped as mass 0
        ([0.0, 2.0, 4.0, 5.0], [1.0, math.inf, 1.0, 1.0]),
        ([0.0, math.nan, 4.0], [1.0, 1.0, 1.0]),  # no longer classified as a semicircle
        ([0.0, -math.inf, 4.0], [1.0, 1.0, 1.0]),
    ], ids=["nan-mass", "inf-mass", "nan-angle", "inf-angle"])
    def test_rejects_non_finite_numbers(self, thetas, masses):
        with pytest.raises(ValueError, match="atom angles and masses must be finite numbers"):
            DiscreteMeasure(thetas, masses)

    def test_sorted_angles_build_what_sorting_builds(self, rng):
        """Angles increasing by more than ATOM_MERGE_TOL skip the sort; the
        arrays are those of the stable sort and the merge, seam included."""
        for _ in range(200):
            n = int(rng.integers(1, 12))
            t = np.sort(rng.uniform(0.0, TWO_PI, n))
            t[rng.uniform(size=n) < 0.2] -= rng.choice([0.0, 5e-10, 2e-9])
            if rng.uniform() < 0.3:  # first and last atom across the seam
                t[0], t[-1] = 0.0, TWO_PI - rng.choice([1e-12, 5e-10, 2e-9])
            m = rng.uniform(0.5, 2.0, n)
            for perm in (np.arange(n), rng.permutation(n)):
                c = canonical_angles(t[perm])
                order = np.argsort(c, kind="stable")
                want_t, want_m = _merge_sorted_atoms(c[order], m[perm][order], ATOM_MERGE_TOL)
                mu = DiscreteMeasure(t[perm], m[perm])
                assert np.array_equal(mu.thetas, want_t) and np.array_equal(mu.masses, want_m)


def reference_merge(thetas, masses, tol):
    """Run-start merge of sorted angles as a scalar loop."""
    out_t, out_m = [], []
    for t, m in zip(thetas, masses):
        if out_t and t - out_t[-1] <= tol:
            out_m[-1] += m
        else:
            out_t.append(t)
            out_m.append(m)
    if len(out_t) >= 2 and (out_t[0] + TWO_PI - out_t[-1]) <= tol:
        out_m[0] += out_m.pop()
        out_t.pop()
    return np.asarray(out_t), np.asarray(out_m)


class TestMergeSortedAtoms:
    @pytest.mark.parametrize("spacing", ["spread", "runs", "seam"])
    def test_matches_scalar_merge(self, rng, spacing):
        for n in (1, 2, 5, 300):
            t = np.sort(rng.uniform(0.0, TWO_PI, n))
            if spacing == "runs":  # chains of gaps just under and over the tolerance
                t = 1.0 + np.cumsum(rng.choice([0.6, 0.9, 1.1, 5.0], n)) * ATOM_MERGE_TOL
            elif spacing == "seam":
                t = np.concatenate([[0.0, 4e-10], t[1:-1], [TWO_PI - 5e-10]])[:max(n, 2)]
                t = np.sort(t)
            m = rng.uniform(-1.0, 2.0, t.size)  # signed, as in the flat distance
            got, ref = _merge_sorted_atoms(t, m, ATOM_MERGE_TOL), reference_merge(t, m, ATOM_MERGE_TOL)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


class TestPiecewiseLinearDensity:
    @pytest.mark.parametrize("knots, values", [
        ([0.0, 2.0, 4.0], [1.0, math.nan, 1.0]),
        ([0.0, 2.0, 4.0], [1.0, math.inf, 1.0]),
        ([0.0, math.nan, 4.0], [1.0, 1.0, 1.0]),
        ([0.0, math.inf, 4.0], [1.0, 1.0, 1.0]),
    ], ids=["nan-value", "inf-value", "nan-knot", "inf-knot"])
    def test_rejects_non_finite_numbers(self, knots, values):
        # accepted before, with a total mass of nan or inf
        with pytest.raises(ValueError, match="density knots and values must be finite numbers"):
            PiecewiseLinearDensity(knots, values)


class TestLpSurfaceMeasure:
    def test_square_half(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        mu = lp_surface_measure(P, 0.5)
        assert mu.n == 4
        assert np.allclose(mu.masses, 2.0, atol=1e-12)

    def test_corner_triangle_single_atom(self):
        P = polygon_from_support(
            [math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6], [1.0, 0.0, 0.0]
        )
        for p in (0.2, 0.5, 0.8):
            mu = lp_surface_measure(P, p)
            assert mu.n == 1
            assert mu.thetas[0] == pytest.approx(math.pi / 2)
            assert mu.masses[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_dilation_covariance(self, rng):
        for _ in range(20):
            P = random_general_position_polygon(rng)
            p = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.2, 5.0))
            a = lp_surface_measure(P, p)
            b = lp_surface_measure(dilate(P, lam), p)
            assert np.allclose(b.masses, lam ** (2 - p) * a.masses, rtol=1e-10)

    def test_isometry_equivariance(self, rng):
        for _ in range(20):
            P = random_general_position_polygon(rng)
            p = float(rng.uniform(0.05, 0.95))
            if rng.random() < 0.5:
                A = Isometry2("rotation", float(rng.uniform(0, TWO_PI)))
            else:
                A = Isometry2("reflection", float(rng.uniform(0, math.pi)))
            lhs = lp_surface_measure(apply_isometry(P, A), p)
            rhs = lp_surface_measure(P, p).pushforward(A)
            assert lhs.n == rhs.n
            assert np.allclose(lhs.thetas, rhs.thetas, atol=1e-9)
            assert np.allclose(lhs.masses, rhs.masses, atol=1e-10 * rhs.masses.max())

    def test_origin_outside_rejected(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        Q = P
        from lpmink import translate

        Q = translate(P, (1.5, 0.0))  # origin now outside
        with pytest.raises(OriginOutsideError):
            lp_surface_measure(Q, 0.5)


class TestLpSurfaceMeasure3d:
    def test_unit_cube(self):
        # cube centered at the origin, h = 1/2 per facet
        v = np.array(
            [[sx * 0.5, sy * 0.5, sz * 0.5]
             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        )
        facets, normals = [], []
        for axis in range(3):
            for sign in (-1.0, 1.0):
                pts = [i for i in range(8) if v[i, axis] * sign > 0]
                center = v[pts].mean(axis=0)
                nrm = np.zeros(3)
                nrm[axis] = sign
                e1 = np.zeros(3)
                e1[(axis + 1) % 3] = 1.0
                e2 = np.cross(nrm, e1)
                ang = [math.atan2(float((v[i] - center) @ e2),
                                  float((v[i] - center) @ e1)) for i in pts]
                facets.append([pts[j] for j in np.argsort(ang)])
                normals.append(nrm)
        mu = lp_surface_measure_3d(v, facets, normals, 0.5)
        assert mu.masses.shape == (6,)
        assert np.allclose(mu.masses, math.sqrt(0.5) * 1.0, atol=1e-12)

    def test_nonplanar_rejected(self):
        v = np.array([[0, 0, 0.0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0], [0.5, 0.5, -3]])
        with pytest.raises(NonPlanarFacetError):
            lp_surface_measure_3d(v, [[0, 1, 2, 3]], [[0.0, 0.0, 1.0]], 0.5)


class TestClassify:
    def test_axes_general_position(self):
        assert classify(DiscreteMeasure(SQ, [1.0] * 4)).tag == GENERAL_POSITION

    def test_antipodal(self):
        cls = classify(DiscreteMeasure([0.0, math.pi], [1.0, 2.0]))
        assert cls.tag == ANTIPODAL_PAIR

    def test_two_atom_semicircle(self):
        cls = classify(DiscreteMeasure([math.pi / 3, 2 * math.pi / 3], [1.0, 1.0]))
        assert cls.tag == SEMICIRCLE
        assert cls.w == pytest.approx(math.pi / 2)
        assert cls.v == pytest.approx(math.pi)

    def test_single(self):
        cls = classify(DiscreteMeasure([1.0], [2.0]))
        assert cls.tag == SINGLE_DIRECTION
        assert cls.w == pytest.approx(1.0)

    def test_rotation_invariance(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            th = rng.uniform(0, TWO_PI, n)
            mu = DiscreteMeasure(th, np.ones(n))
            phi = float(rng.uniform(0, TWO_PI))
            rot = Isometry2("rotation", phi)
            a, b = classify(mu), classify(mu.pushforward(rot))
            assert a.tag == b.tag
            if a.tag in (SEMICIRCLE, SINGLE_DIRECTION):
                dw = abs((b.w - a.w - phi) % TWO_PI)
                assert min(dw, TWO_PI - dw) < 1e-9


class TestHemisphereDelta:
    def test_four_axes(self):
        mu = DiscreteMeasure(SQ, [1.0] * 4)
        assert hemisphere_delta(mu) == pytest.approx(0.125)

    def test_antipodal_none(self):
        assert hemisphere_delta(DiscreteMeasure([0.0, math.pi], [1, 1])) is None

    def test_single_none(self):
        assert hemisphere_delta(DiscreteMeasure([0.3], [5.0])) is None

    def test_sweep_oracle(self, rng):
        # returned delta satisfies the strict cap bound on a dense grid
        grid = np.linspace(0, TWO_PI, 10_000, endpoint=False)
        for _ in range(50):
            mu = random_general_position_measure(rng)
            delta = hemisphere_delta(mu)
            assert delta is not None
            assert 0 < delta < 0.5
            assert mu.total_mass() < 1.0 / delta
            d = np.abs(grid[:, None] - mu.thetas[None, :])
            d = np.minimum(d, TWO_PI - d)
            cap_mass = ((np.cos(d) > delta) * mu.masses[None, :]).sum(axis=1)
            assert cap_mass.min() > delta


class TestWeakDistance:
    def test_zero_for_equal(self):
        mu = DiscreteMeasure([0.1, 2.0], [1.0, 3.0])
        assert weak_distance(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_move_one_atom(self):
        for eps in (0.1, 0.5, 1.2, 1.9):
            a = DiscreteMeasure([0.0], [1.0])
            b = DiscreteMeasure([eps], [1.0])
            assert weak_distance(a, b) == pytest.approx(eps, abs=1e-9)

    def test_mass_creation(self):
        a = DiscreteMeasure([0.0], [1.0])
        b = DiscreteMeasure([0.0], [2.0])
        assert weak_distance(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_against_all_pairs_lp(self, rng):
        for _ in range(40):
            na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = DiscreteMeasure(rng.uniform(0, TWO_PI, na), rng.uniform(0.1, 2, na))
            b = DiscreteMeasure(rng.uniform(0, TWO_PI, nb), rng.uniform(0.1, 2, nb))
            assert weak_distance(a, b) == pytest.approx(
                flat_distance_all_pairs(a, b), abs=1e-8
            )

    def test_metric_properties(self, rng):
        ms = [
            DiscreteMeasure(rng.uniform(0, TWO_PI, 4), rng.uniform(0.1, 2, 4))
            for _ in range(3)
        ]
        d01 = weak_distance(ms[0], ms[1])
        d10 = weak_distance(ms[1], ms[0])
        assert d01 == pytest.approx(d10, abs=1e-9)
        d02 = weak_distance(ms[0], ms[2])
        d12 = weak_distance(ms[1], ms[2])
        assert d02 <= d01 + d12 + 1e-9

    def test_convergence_proxy(self, rng):
        # bodies converging in support distance have weakly converging measures
        P = random_general_position_polygon(rng, nmax=12)
        pert = rng.uniform(-1, 1, P.n) * 0.2
        p = 0.5
        base = lp_surface_measure(P, p)
        dists = []
        for k in range(1, 21):
            Q = polygon_from_support(P.normals, P.support + pert * 2.0 ** (-k))
            dists.append(weak_distance(lp_surface_measure(Q, p), base))
        for a, b in zip(dists, dists[1:]):
            assert b <= 2.0 * a + 1e-12
        assert dists[-1] < 1e-4


class TestChordMassBound:
    def test_precondition_fails_on_centered_square(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        # midpoints (1,0) and (0,1): <x1, nu(x2)> = 0 is not positive
        with pytest.raises(PreconditionViolatedError):
            chord_mass_bound(P, 0, 1, math.pi / 4, 0.5)

    def test_worked_offset_square(self):
        P = polygon_from_support(SQ, [1.5, 1.5, 0.5, 0.5])
        lhs, rhs = chord_mass_bound(P, 0, 1, 3 * math.pi / 4, 0.5)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(4 * (math.sqrt(1.5) + math.sqrt(0.5)), abs=1e-12)
        assert lhs <= rhs

    def test_random_admissible_instances(self, rng):
        checked = 0
        while checked < 120:
            P = random_general_position_polygon(rng, nmax=12)
            p = float(rng.uniform(0.05, 0.95))
            act = np.flatnonzero(P.active)
            i1, i2 = rng.choice(act, size=2, replace=False)
            u = float(rng.uniform(0, TWO_PI))
            try:
                lhs, rhs = chord_mass_bound(P, int(i1), int(i2), u, p)
            except PreconditionViolatedError:
                continue
            checked += 1
            assert lhs <= rhs + 1e-9 * abs(rhs)


class TestMeasureSpec:
    def test_density_total_mass_exact(self):
        t = np.linspace(0, TWO_PI, 8, endpoint=False)
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, np.full(8, 1.0)))
        assert spec.total_mass() == pytest.approx(TWO_PI, rel=1e-15)

    def test_piecewise_linear_integral(self):
        # triangle-shaped density: exact integral by hand
        t = np.array([0.0, 1.0, 2.0])
        f = np.array([0.0, 2.0, 0.0])
        d = PiecewiseLinearDensity(t, f)
        whole, rise, middle, wrap = d.arc_masses([0.0, 0.0, 0.5, 2.0], [2.0, 1.0, 1.5, TWO_PI])
        assert whole == pytest.approx(2.0, rel=1e-14)
        assert rise == pytest.approx(1.0, rel=1e-14)
        assert middle == pytest.approx(2.0 - 2 * (0.5 * 0.5 * 1.0), rel=1e-12)
        # wrap-around arc covers the zero stretch
        assert wrap == pytest.approx(0.0, abs=1e-14)

    def test_density_eval_periodic(self):
        t = np.array([0.0, math.pi])
        f = np.array([1.0, 3.0])
        d = PiecewiseLinearDensity(t, f)
        assert d.eval(math.pi / 2)[0] == pytest.approx(2.0)
        assert d.eval(3 * math.pi / 2)[0] == pytest.approx(2.0)
        assert d.eval(TWO_PI - 1e-12)[0] == pytest.approx(1.0, abs=1e-9)
