"""Discrete solver tests: dual objective, anchor, closed forms, round trips."""

import importlib.machinery
import importlib.util
import json
import math

import numpy as np
import pytest

from conftest import (
    import_bench_module,
    orbit_index_sets,
    random_general_position_polygon,
    reference_group_orbit_map,
    reference_orbit_partition,
)

from lpmink import (
    DiscreteMeasure,
    MeasureSpec,
    SymmetryGroup,
    anchor_objective,
    apply_isometry,
    area,
    dilate,
    lp_surface_measure,
    measure_residual,
    optimal_anchor,
    orbit_partition,
    polygon_from_support,
    solve_discrete,
    support_distance,
    weak_distance,
)
from lpmink.errors import (
    AnchorOutsideError,
    AntipodalPairError,
    ConcentratedError,
    NoConvergenceError,
    NotClosedUnderGroupError,
    NotSymmetricError,
)
from lpmink.geometry import (
    Isometry2,
    canonical_angles,
    group_orbit_map,
    unit_vectors,
)
from lpmink import solver
from lpmink.cli import parse_symmetry
from lpmink.pipeline import solve
from lpmink.serialization import measure_spec_from_dict
from lpmink.solver import SolverConfig, _newton_polish, _Workspace, invariant_orbits

TWO_PI = 2 * math.pi
SQ = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


def square_measure(alpha=1.0):
    return DiscreteMeasure(SQ, [alpha] * 4)


class TestAnchorObjective:
    def test_square_at_origin(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        assert anchor_objective(P, (0, 0), square_measure(), 0.5) == pytest.approx(4.0)

    def test_square_along_axis(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        for t in (0.0, 0.3, 0.9):
            val = anchor_objective(P, (t, 0.0), square_measure(), 0.5)
            expected = math.sqrt(1 - t) + 2.0 + math.sqrt(1 + t)
            assert val == pytest.approx(expected, abs=1e-12)
        # concavity peaks at the center
        assert anchor_objective(P, (0, 0), square_measure(), 0.5) >= val

    def test_triangle_single_atom(self):
        P = polygon_from_support(
            [math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6], [1.0, 0.0, 0.0]
        )
        mu = DiscreteMeasure([math.pi / 2], [1.0])
        assert anchor_objective(P, (0, 0), mu, 0.5) == pytest.approx(1.0)

    def test_outside_anchor_rejected(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        with pytest.raises(AnchorOutsideError):
            anchor_objective(P, (2.0, 0.0), square_measure(), 0.5)


class TestOptimalAnchor:
    def test_symmetric_square_centers(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        xi = optimal_anchor(P, square_measure(), 0.5)
        assert np.allclose(xi, 0.0, atol=1e-10)

    def test_weighted_square_moves_left(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        mu = DiscreteMeasure(SQ, [2.0, 1.0, 1.0, 1.0])
        xi = optimal_anchor(P, mu, 0.5)
        assert xi[0] < -1e-3
        assert abs(xi[1]) < 1e-10

    def test_against_grid_search(self, rng):
        for _ in range(5):
            P = random_general_position_polygon(rng, nmax=10)
            n = P.n
            mu = DiscreteMeasure(P.normals, rng.uniform(0.5, 2.0, n))
            p = 0.5
            xi = optimal_anchor(P, mu, p)
            val = anchor_objective(P, xi, mu, p)
            lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
            xs = np.linspace(lo[0], hi[0], 60)
            ys = np.linspace(lo[1], hi[1], 60)
            best = -np.inf
            for x in xs:
                for y in ys:
                    try:
                        best = max(best, anchor_objective(P, (x, y), mu, p))
                    except AnchorOutsideError:
                        continue
            assert val >= best - 1e-6

    def test_group_fixed_point(self, rng):
        # symmetric data pin the anchor to the fixed point of the group
        G = SymmetryGroup.dihedral(3, axis=0.2)
        base = 0.9
        angles = []
        for A in G.elements():
            angles.append(A.apply_angle(base))
        mu = DiscreteMeasure(angles, np.full(len(angles), 1.0))
        P = polygon_from_support(mu.thetas, np.full(mu.n, 1.0))
        xi = optimal_anchor(P, mu, 0.4)
        assert np.allclose(xi, 0.0, atol=1e-9)


class TestGradients:
    def test_envelope_gradient_matches_fd(self, rng):
        # d/dh_i of sup_xi Phi equals the partial at the fixed maximizer
        failures = 0
        for _ in range(30):
            P = random_general_position_polygon(rng, nmin=4, nmax=10)
            if not P.active.all():
                continue
            p = float(rng.uniform(0.2, 0.8))
            mu = DiscreteMeasure(P.normals, rng.uniform(0.5, 2.0, P.n))
            xi = optimal_anchor(P, mu, p)
            slack = P.support_values(mu.thetas) - (
                np.cos(mu.thetas) * xi[0] + np.sin(mu.thetas) * xi[1]
            )
            grad = mu.masses * p * slack ** (p - 1.0)
            i = int(rng.integers(0, P.n))
            eps = 1e-5
            vals = []
            for s in (+1, -1):
                h2 = P.support.copy()
                h2[i] += s * eps
                Q = polygon_from_support(P.normals, h2)
                xi2 = optimal_anchor(Q, mu, p)
                vals.append(anchor_objective(Q, xi2, mu, p))
            fd = (vals[0] - vals[1]) / (2 * eps)
            if abs(fd - grad[i]) > 1e-5 * max(1.0, abs(grad[i])):
                failures += 1
        assert failures == 0

    def test_volume_gradient_matches_fd(self, rng):
        for _ in range(30):
            P = random_general_position_polygon(rng, nmin=4, nmax=12)
            i = int(rng.integers(0, P.n))
            if not P.active[i]:
                continue
            eps = 1e-6
            vals = []
            for s in (+1, -1):
                h2 = P.support.copy()
                h2[i] += s * eps
                vals.append(area(polygon_from_support(P.normals, h2)))
            fd = (vals[0] - vals[1]) / (2 * eps)
            assert fd == pytest.approx(P.lengths[i], rel=1e-6, abs=1e-8)


class TestSolveDiscrete:
    def test_square_closed_form(self):
        for p in (0.1, 0.5, 0.9):
            for alpha in (0.7, 2.0, 11.0):
                P, rep = solve_discrete(DiscreteMeasure(SQ, [alpha] * 4), p)
                expect = (alpha / 2.0) ** (1.0 / (2.0 - p))
                assert np.allclose(P.support, expect, rtol=1e-6)
                assert rep.residual <= 1e-6

    def test_triangle_closed_form(self):
        tri = [math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6]
        for p in (0.25, 0.6):
            for alpha in (1.0, 2.0, 5.0):
                P, rep = solve_discrete(DiscreteMeasure(tri, [alpha] * 3), p)
                expect = (alpha / (2 * math.sqrt(3.0))) ** (1.0 / (2.0 - p))
                assert np.allclose(P.support, expect, rtol=1e-6)

    def test_concentrated_rejected(self):
        with pytest.raises(ConcentratedError):
            solve_discrete(DiscreteMeasure([0.0, 1.0], [1.0, 1.0]), 0.5)

    def test_not_symmetric_rejected(self):
        mu = DiscreteMeasure(SQ, [1.0, 2.0, 1.0, 2.0])
        with pytest.raises(NotSymmetricError):
            solve_discrete(mu, 0.5, SymmetryGroup.cyclic(4))

    def test_round_trip_weak_distance(self, rng):
        for _ in range(25):
            P = random_general_position_polygon(rng)
            p = float(rng.choice([0.2, 0.5, 0.8]))
            mu = lp_surface_measure(P, p)
            Q, rep = solve_discrete(mu, p)
            assert rep.residual <= 1e-6
            # flat distance <= total variation <= residual * mass: why the
            # refinement loop needs no flat-distance check of its own
            d = weak_distance(lp_surface_measure(Q, p), mu)
            assert d <= rep.residual * mu.total_mass() * (1 + 1e-9)

    def test_kkt_ratio_constant(self, rng):
        for _ in range(10):
            P = random_general_position_polygon(rng, nmax=15)
            p = 0.5
            mu = lp_surface_measure(P, p)
            Q, rep = solve_discrete(mu, p)
            act = Q.active & (Q.lengths > 1e-12)
            ratios = (
                mu.masses * p * Q.support_values(mu.thetas) ** (p - 1.0)
            )[act[: mu.n]] / Q.lengths[act]
            spread = ratios.max() / ratios.min() - 1.0
            assert spread <= 1e-5

    def test_scale_equivariance(self, rng):
        P = random_general_position_polygon(rng, nmax=10)
        p = 0.5
        mu = lp_surface_measure(P, p)
        s = 3.7
        mu_s = DiscreteMeasure(mu.thetas, mu.masses * s)
        A, _ = solve_discrete(mu, p)
        B, _ = solve_discrete(mu_s, p)
        assert support_distance(B, dilate(A, s ** (1.0 / (2.0 - p)))) <= 1e-5

    def test_group_invariant_output(self):
        G = SymmetryGroup.dihedral(4, axis=0.0)
        mu = square_measure(2.0)
        P, rep = solve_discrete(mu, 0.3, G)
        for A in G.elements():
            assert support_distance(P, apply_isometry(P, A)) <= 1e-8
        assert rep.symmetry == "D4:0"

    def test_rescale_exponent(self, rng):
        # if S_{P,p} = c * mu then dilating by c^(-1/(2-p)) solves mu
        P = random_general_position_polygon(rng, nmax=8)
        p = 0.4
        mu = lp_surface_measure(P, p)
        c = 2.5
        scaled = DiscreteMeasure(mu.thetas, mu.masses * c)
        # P solves mu, so dilate(P, c^(1/(2-p))) must solve c * mu
        Q = dilate(P, c ** (1.0 / (2.0 - p)))
        assert measure_residual(Q, scaled, p) <= 1e-10

    def test_warm_start(self, rng):
        P = random_general_position_polygon(rng, nmax=20)
        p = 0.5
        mu = lp_surface_measure(P, p)
        Q, rep = solve_discrete(mu, p, h0=P.support_values(mu.thetas) * 1.05)
        assert rep.residual <= 1e-6

    def test_bad_warm_start_length_rejected(self):
        with pytest.raises(ValueError):
            solve_discrete(square_measure(2.0), 0.5, h0=np.ones(7))

    def test_hard_contrast_needs_continuation(self):
        # n=5, p=0.9, contrast 4.76e3: cold Newton misses the basin and the
        # pad continuation finds it
        mu = DiscreteMeasure(
            [0.11482450833021093, 1.3420353963911296, 1.5089272747781641,
             4.159925717130762, 6.187363933305546],
            [1.0, 4755.4683179281965, 1394.685109426898, 364.8074287060013,
             1.1852602066858096],
        )
        _, rep = solve_discrete(mu, 0.9)
        assert rep.outer_iters > 0
        assert rep.residual <= 1e-6

    def test_first_pad_stage_gives_up(self, monkeypatch):
        # 4 atoms on a semicircle at p = 0.129, masses over four decades
        # (semicircle sweep trial (5, 99)): cold Newton misses, and the pad
        # continuation's first stage stays above 1e-5, so the continuation
        # returns its start at once and solve raises
        runs = []
        continuation = solver._continuation_newton

        def recording(ws, h0, cfg):
            runs.append((h0, continuation(ws, h0, cfg)))
            return runs[-1][1]

        monkeypatch.setattr(solver, "_continuation_newton", recording)
        mu = DiscreteMeasure(
            [5.453808770452389, 0.26373893550463745, 2.233864702382898, 2.2922161168625963],
            [0.5667584032987523, 29.341944916587845, 1701.2888567892837, 467.28583956559925],
        )
        with pytest.raises(NoConvergenceError) as exc:
            solve(MeasureSpec(mu, None), 0.1290989854792371)
        assert exc.value.report.outer_iters == 1
        (h0, (h, err, _, stages)), = runs
        assert h is h0 and err == math.inf and stages == 1


def dense_cyclic_jacobian(thetas, h, p):
    """d/dh of h^(1-p) * (L h), with L assembled entry by entry from the
    edge-length formula of a polygon with all facets active."""
    n = len(thetas)
    gaps = np.diff(np.append(thetas, thetas[0] + TWO_PI))
    L = np.zeros((n, n))
    for i in range(n):
        L[i, (i + 1) % n] += 1.0 / math.sin(gaps[i])
        L[i, (i - 1) % n] += 1.0 / math.sin(gaps[i - 1])
        L[i, i] -= 1.0 / math.tan(gaps[i]) + 1.0 / math.tan(gaps[i - 1])
    ell = L @ h
    return L, h[:, None] ** (1.0 - p) * L + np.diag((1.0 - p) * h ** (-p) * ell)


class TestNewtonLinearSolve:
    @pytest.mark.parametrize("n", [3, 4, 401])
    def test_matches_dense_solve(self, rng, n):
        # at n = 3 the corner entries sit next to the band
        thetas = np.sort(rng.uniform(0.0, TWO_PI, n))
        while np.diff(np.append(thetas, thetas[0] + TWO_PI)).max() >= math.pi - 0.1:
            thetas = np.sort(rng.uniform(0.0, TWO_PI, n))
        p = 0.6
        h = rng.uniform(0.5, 2.0, n)
        rhs = rng.standard_normal(n)
        ws = _Workspace(thetas, np.ones(n), p)
        L, J = dense_cyclic_jacobian(thetas, h, p)
        ell = ws.edge_form(h)
        assert np.allclose(ell, L @ h, rtol=1e-12, atol=1e-12 * np.abs(L).max())
        x = ws.solve_linear(ws.jacobian(h, h ** (1.0 - p), ell), rhs)
        ref = np.linalg.solve(J, rhs)
        cond = np.linalg.cond(J)
        assert cond < 1e8
        assert np.linalg.norm(x - ref) <= 1e-13 * cond * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [3, 40])
    def test_successive_solves_share_no_answer(self, rng, n):
        """The workspace reuses one right-hand-side buffer for gtsv; each
        solve still returns its own array, which the next solve leaves
        untouched, and each matches the dense solve."""
        thetas = np.sort(rng.uniform(0.0, TWO_PI, n))
        while np.diff(np.append(thetas, thetas[0] + TWO_PI)).max() >= math.pi - 0.1:
            thetas = np.sort(rng.uniform(0.0, TWO_PI, n))
        p = 0.4
        ws = _Workspace(thetas, np.ones(n), p)
        answers = []
        for _ in range(2):
            h = rng.uniform(0.5, 2.0, n)
            rhs = rng.standard_normal(n)
            x = ws.solve_linear(ws.jacobian(h, h ** (1.0 - p), ws.edge_form(h)), rhs)
            answers.append((x, x.copy(), h, rhs))
        (x1, x1_copy, *_), (x2, *_) = answers
        assert not np.shares_memory(x1, x2)
        assert np.array_equal(x1, x1_copy)
        for x, _, h, rhs in answers:
            _, J = dense_cyclic_jacobian(thetas, h, p)
            ref = np.linalg.solve(J, rhs)
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.cond(J) * np.linalg.norm(ref)

    def test_nonfinite_step_ends_newton_like_singular(self, rng, monkeypatch):
        P = random_general_position_polygon(rng, nmin=6, nmax=10)
        mu = lp_surface_measure(P, 0.5)
        ws = _Workspace(mu.thetas, mu.masses, 0.5)
        h = P.support_values(mu.thetas) * 1.3

        def singular(self, J, rhs):
            raise np.linalg.LinAlgError("singular matrix")

        def nonfinite(self, J, rhs):
            return np.full_like(rhs, np.nan)

        results = []
        for fault in (singular, nonfinite):
            monkeypatch.setattr(_Workspace, "solve_linear", fault)
            results.append(_newton_polish(ws, h, mu.masses, 1e-10))
        (h1, err1, it1), (h2, err2, it2) = results
        assert it1 == it2 == 0
        assert err1 == err2 > 1e-10
        assert np.array_equal(h1, h2)

    def test_zero_correction_denominator_ends_newton(self, monkeypatch):
        # a C2 measure (n = 10, p = 0.115) on which, after 151 Newton steps,
        # the next linear solve meets 1 + vz == 0.0 in the Sherman-Morrison
        # correction: the step comes back non-finite and Newton stops there,
        # as on a singular band
        p = 0.11495529008053947
        thetas = [0.40497104451348337, 0.7833569011812178, 1.2977030293506093,
                  1.7281395429795692, 2.736689373774479, 3.5465636981032764,
                  3.924949554771011, 4.439295682940402, 4.8697321965693625, 5.878282027364272]
        masses = [0.0006598338911029582, 0.0013192387708744896, 0.0007971350674816649,
                  0.44761817214639915, 37.302640663833564] * 2
        h = np.array([1.3589077589953205, 0.02017014872362935, 1.6536638124642007,
                      0.1823761908110557, 0.00013660395965933562, 1.6323253521111056,
                      0.3208736412367208, 0.007082102774407636, 0.16548243105513533,
                      0.11445703333377151])
        mu = DiscreteMeasure(thetas, masses)
        target = mu.masses / float(mu.masses.mean())
        ws = _Workspace(mu.thetas, target, p, None,
                        orbit_partition(mu.thetas, SymmetryGroup.cyclic(2)))
        finite = []
        solve_linear = _Workspace.solve_linear

        def spy(self, J, rhs):
            x = solve_linear(self, J, rhs)
            finite.append(bool(np.isfinite(x).all()))
            return x

        monkeypatch.setattr(_Workspace, "solve_linear", spy)
        h_out, err, iters = _newton_polish(ws, h, target, 1e-7, 300)
        assert finite == [True] * 151 + [False]
        assert iters == 151 and 1e-7 < err < math.inf
        assert np.isfinite(h_out).all() and h_out.min() > 0


def half_body_case(rng, n, ends=False, w=None):
    """Sorted normals on the closed semicircle about w (random if None), on
    both sides of w, the chord normal w + pi, and the support numbers there
    of a centred ellipse with an axis along w: the half of a body symmetric
    across the chord, with every facet active.  With ends, two of the
    normals are the semicircle's ends w -+ pi / 2."""
    w = float(rng.uniform(0.0, TWO_PI)) if w is None else w
    s = rng.uniform(0.05, 0.5 * math.pi - 0.05, n - 2 if ends else n)
    s[: len(s) // 2] *= -1.0
    if ends:
        s = np.append(s, [-0.5 * math.pi, 0.5 * math.pi])
    theta = np.sort(canonical_angles(w + s))
    a, b = 1.0, float(rng.uniform(0.4, 1.0))
    h = np.hypot(a * np.cos(theta - w), b * np.sin(theta - w))
    return theta, canonical_angles([w + math.pi])[0], h


# w for a chord just above 0 and just below 2 pi: the chord's insertion
# point k is 0 or n, and the couplings across it are the cyclic corners
SEAM_W = {"k=0": math.pi + 0.02, "k=n": math.pi - 0.02}


def across(theta, chord):
    """The chord's insertion point k among the sorted normals theta and the
    normals i = (k - 1) % n and j = k % n on either side of it."""
    k = int(np.searchsorted(theta, chord))
    return k, (k - 1) % len(theta), k % len(theta)


def half_body(theta, chord, h):
    """The half body: support h at the normals theta and 0 at the chord."""
    k, _, _ = across(theta, chord)
    return polygon_from_support(np.insert(theta, k, chord), np.insert(h, k, 0.0))


def chord_edge(ws, theta, chord, h):
    """The chord's edge length at the unknowns h: L's chord row, h = 0 at
    the chord."""
    _, i, j = across(theta, chord)
    return h[i] / math.sin(ws.gaps[i]) + h[j] / math.sin(ws.before[j])


def dense_cyclic(J):
    """The n x n matrix of the cyclic band J = (lo, diag, up)."""
    lo, d, up = J
    n = len(d)
    A = np.diag(d)
    np.add.at(A, (np.arange(n), (np.arange(n) + 1) % n), up)
    np.add.at(A, (np.arange(n), (np.arange(n) - 1) % n), lo)
    return A


class TestPinnedChord:
    """_Workspace with a chord, the half problem's Newton core: the chord
    normal opposite a semicircle, its support pinned at 0, and the whole
    circle's cyclic system on the sorted normals with the two couplings
    across the chord, (k - 1, k) for its insertion point k, cut."""

    @staticmethod
    def assert_half_body(theta, chord, h):
        n = len(theta)
        ws = _Workspace(theta, np.ones(n), 0.5, chord)
        P = half_body(theta, chord, h)
        assert P.active.all()
        k, _, _ = across(theta, chord)
        assert np.allclose(ws.edge_form(h), np.delete(P.lengths, k), rtol=1e-12, atol=1e-12)
        assert chord_edge(ws, theta, chord, h) == pytest.approx(P.lengths[k], rel=1e-12)

    @staticmethod
    def assert_jacobian(ws, h, cut):
        n, p = ws.n, ws.p
        ell = ws.edge_form(h)
        assert ell.min() > 0.0
        J = dense_cyclic(ws.jacobian(h, h ** (1.0 - p), ell))

        def F(x):
            return x ** (1.0 - p) * ws.edge_form(x)

        step = 1e-6
        fd = np.column_stack([(F(h + step * e) - F(h - step * e)) / (2 * step)
                              for e in np.eye(n)])
        assert np.allclose(J, fd, rtol=1e-6, atol=1e-6 * np.abs(J).max())
        # no row couples the two normals next to the chord
        i, j = cut
        assert fd[i, j] == fd[j, i] == J[i, j] == J[j, i] == 0.0

    @staticmethod
    def assert_solve(rng, ws, h):
        n, p = ws.n, ws.p
        rhs = rng.standard_normal(n)
        J = ws.jacobian(h, h ** (1.0 - p), ws.edge_form(h))
        dense = dense_cyclic(J)
        x = ws.solve_linear(J, rhs)
        ref = np.linalg.solve(dense, rhs)
        cond = np.linalg.cond(dense)
        assert cond < 1e10
        assert np.linalg.norm(x - ref) <= 1e-13 * cond * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_edge_form_is_the_half_body(self, rng, n):
        for ends in (False, True)[: n - 1]:  # n = 2 at both ends is an antipodal pair
            self.assert_half_body(*half_body_case(rng, n, ends))

    def test_chord_edge_is_positive_with_its_neighbours(self, rng):
        # Newton tests h > 0 and the rows of edge_form; the chord's edge
        # needs no test of its own: both its sines lie in (0, 1], so it is
        # positive in floating point even at the least positive supports.
        tiny = np.nextafter(0.0, 1.0)
        for n in (2, 3, 40):
            for ends in (False, True)[: n - 1]:
                theta, chord, _ = half_body_case(rng, n, ends)
                ws = _Workspace(theta, np.ones(n), 0.5, chord)
                _, i, j = across(theta, chord)
                sines = np.sin([ws.gaps[i], ws.before[j]])
                assert (sines > 0.0).all() and (sines <= 1.0).all()
                for hi, hj in ((tiny, tiny), (tiny, 1e300), (1.0, tiny)):
                    h = np.ones(n)
                    h[i], h[j] = hi, hj
                    assert chord_edge(ws, theta, chord, h) > 0.0

    @pytest.mark.parametrize("n", [3, 40])
    def test_jacobian_matches_central_differences(self, rng, n):
        theta, chord, h = half_body_case(rng, n)
        ws = _Workspace(theta, np.ones(n), 0.4, chord)
        self.assert_jacobian(ws, h, across(theta, chord)[1:])

    @pytest.mark.parametrize("n", [2, 3, 401])
    def test_cut_cyclic_solve_matches_dense_solve(self, rng, n):
        theta, chord, h = half_body_case(rng, n)
        self.assert_solve(rng, _Workspace(theta, np.ones(n), 0.6, chord), h)

    @pytest.mark.parametrize("seam", sorted(SEAM_W))
    def test_seam_chord_cuts_the_cyclic_corners(self, rng, seam):
        # k = 0 or n: the normals next to the chord are the last and the
        # first, so the cut couplings are the corners J[n-1, 0] and J[0, n-1]
        n = 40
        theta, chord, h = half_body_case(rng, n, ends=True, w=SEAM_W[seam])
        k, i, j = across(theta, chord)
        assert k == {"k=0": 0, "k=n": n}[seam] and (i, j) == (n - 1, 0)
        ws = _Workspace(theta, np.ones(n), 0.4, chord)
        assert ws.up[-1] == ws.lo[0] == 0.0
        assert (ws.up[:-1] > 0.0).all() and (ws.lo[1:] > 0.0).all()
        self.assert_half_body(theta, chord, h)
        self.assert_jacobian(ws, h, (i, j))
        self.assert_solve(rng, ws, h)

    @pytest.mark.parametrize("n", [3, 4, 60])
    def test_half_disc_reactivation_target(self, rng, n):
        # Support 1 on the normals and 0 on the chord: every facet is
        # active, with normals at the semicircle's ends too.
        inputs = [half_body_case(rng, n, ends)[:2] for ends in (False, True)]
        w0 = float(rng.uniform(0.0, TWO_PI))  # test_halving_identities' normals
        th = np.sort(canonical_angles([w0 - math.pi / 2, w0 - 0.3, w0 + 0.8, w0 + math.pi / 2]))
        inputs.append((th, canonical_angles([w0 + math.pi])[0]))
        for theta, chord in inputs:
            ws = _Workspace(theta, np.ones(len(theta)), 0.5, chord)
            one = np.ones(ws.n)
            ell = ws.edge_form(one)
            assert ell.min() > ws.n * 1e-15 and chord_edge(ws, theta, chord, one) > 0.0
            assert half_body(theta, chord, one).active.all()
            # a start with a facet pushed out is blended back into the cone
            h = one.copy()
            i = int(np.argmin(ws.diag))
            assert ws.diag[i] < 0.0
            h[i] += 2.0 * ell[i] / -ws.diag[i]
            assert ws.edge_form(h)[i] < 0.0
            blend, _ = solver._reactivate(ws, h)
            assert blend.min() > 0.0 and ws.edge_form(blend).min() > 0.0

    def test_semicircle_atoms_solve_on_the_half_body(self, rng):
        theta, chord, _ = half_body_case(rng, 24, ends=True)
        mu = DiscreteMeasure(theta, np.exp(rng.uniform(-1.0, 1.0, 24)))
        P, rep = solve_discrete(mu, 0.4, chord=chord)
        assert rep.residual <= 1e-6 and rep.classification == "semicircle"
        assert P.n == 25 and P.active.all()
        assert P.support[P.normals == chord].tolist() == [0.0]
        with pytest.raises(ConcentratedError):
            solve_discrete(mu, 0.4)
        for off in (0.1, -0.1, math.pi / 2):
            with pytest.raises(ValueError, match="normals next to the chord"):
                solve_discrete(mu, 0.4, chord=canonical_angles([chord + off])[0])


class TestHalfProblemGroup:
    """solve_discrete with a chord takes the caller's group, enforces the
    part of it that fits the semicircle (half_group) and names the caller's
    group in its report, solved or not."""

    W = 0.9

    def symmetric_atoms(self):
        # symmetric across lin(W): offsets -+0.4 and -+1.2 with equal masses
        w = self.W
        return DiscreteMeasure([w - 1.2, w - 0.4, w, w + 0.4, w + 1.2],
                               [1.0, 2.0, 0.5, 2.0, 1.0])

    def chord(self):
        return canonical_angles([self.W + math.pi])[0]

    @pytest.mark.parametrize("mu", [DiscreteMeasure([0.9], [2.0]),
                                    DiscreteMeasure([0.9, 0.9 + math.pi], [1.0, 1.0])],
                             ids=["single-atom", "antipodal-pair"])
    def test_a_measure_without_a_proper_semicircle_is_refused(self, mu):
        with pytest.raises(ConcentratedError, match="the chord needs a proper semicircle"):
            solve_discrete(mu, 0.5, chord=self.chord())

    def test_a_group_that_moves_the_chord_is_refused_by_half_group(self):
        mu = self.symmetric_atoms()
        with pytest.raises(NotSymmetricError, match="symmetry C2 is incompatible with a "
                                                    "semicircle-supported measure"):
            solve_discrete(mu, 0.5, SymmetryGroup.cyclic(2), chord=self.chord())
        v = self.W + math.pi / 2
        with pytest.raises(NotSymmetricError, match="semicircle onto the opposite one"):
            solve_discrete(mu, 0.5, SymmetryGroup.dihedral(1, v), chord=self.chord())

    def test_the_report_names_the_group_asked_for(self):
        mu = self.symmetric_atoms()
        G = SymmetryGroup.dihedral(1, self.W + math.pi)
        assert G.label() == f"D1:{self.W + math.pi:.12g}"
        P, rep = solve_discrete(mu, 0.5, G, chord=self.chord())
        assert rep.symmetry == G.label() and rep.residual <= 1e-6
        h = dict(zip(P.normals.tolist(), P.support.tolist()))
        for off in (0.4, 1.2):  # every iterate is constant on each orbit
            a, b = canonical_angles([self.W - off, self.W + off]).tolist()
            assert h[a] == h[b]
        with pytest.raises(NoConvergenceError) as exc:
            solve_discrete(mu, 0.5, G, SolverConfig(tol_residual=1e-30), chord=self.chord())
        assert exc.value.report.symmetry == G.label()
        assert exc.value.report.classification == "semicircle"


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_the_residual_gate_needs_a_positive_finite_tolerance(self, tol):
        # a NaN or infinite tolerance would pass every residual: res > tol is False
        with pytest.raises(ValueError, match="tol_residual must be a positive finite number"):
            SolverConfig(tol_residual=tol)


def reference_jacobian(ws, h, ell):
    """_Workspace.jacobian as it was before it took h^(1-p) from the caller."""
    p = ws.p
    w = h ** (1.0 - p)
    return w * ws.lo, w * ws.diag + (1.0 - p) * h ** (-p) * ell, w * ws.up


def reference_solve_linear(ws, J, rhs):
    """_Workspace.solve_linear as it was with numpy-scalar corner arithmetic
    and a copied diagonal."""
    lo, diag, up = J
    beta, alpha = lo[0], up[-1]
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= alpha * beta / gamma
    b = np.empty((len(rhs), 2), order="F")
    b[:, 0] = rhs
    b[:, 1] = 0.0
    b[0, 1], b[-1, 1] = gamma, alpha
    *_, yz, info = solver.dgtsv(lo[1:], d, up[:-1], b, overwrite_d=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    y, z = yz[:, 0], yz[:, 1]
    vy = y[0] + beta / gamma * y[-1]
    vz = z[0] + beta / gamma * z[-1]
    return y - (vy / (1.0 + vz)) * z


def reference_newton_polish(ws, h, target, tol, max_iters=80, trials=None):
    """_newton_polish as plain sequential halving, recomputing h^(1-p) for
    every Jacobian: ws.average takes the start and each step, and no trial.
    A list trials collects every trial."""
    p = ws.p
    h = solver._reactivate(ws, ws.average(h))[0]
    ell = ws.edge_form(h)
    if ell.min() <= 0 or h.min() <= 0:
        return h, math.inf, 0
    S = h ** (1.0 - p) * ell
    F = S - target
    err = float((np.abs(F) / target).max())
    iters = 0
    for it in range(max_iters):
        if err <= tol:
            break
        try:
            step = ws.average(reference_solve_linear(ws, reference_jacobian(ws, h, ell), -F))
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(step).all():
            break
        found = reference_line_search(ws, h, step, target, math.sqrt(F.dot(F)), trials)
        iters = it + 1
        if found is None:
            break
        h, ell, F = found
        err = float((np.abs(F) / target).max())
    return h, err, iters


def reference_line_search(ws, h, step, target, fnorm, trials=None):
    """Plain sequential halving: the first of t = 1, 1/2, ..., 2^-49 that
    passes, as (h, L h, F) there, else None.  A list trials collects every
    trial."""
    t = 1.0
    for _ in range(50):
        h_try = h + t * step
        if trials is not None:
            trials.append(h_try)
        if h_try.min() > 0:
            ell_try = ws.edge_form(h_try)
            if ell_try.min() > 0:
                F_try = h_try ** (1.0 - ws.p) * ell_try - target
                if math.sqrt(F_try.dot(F_try)) <= (1.0 - 0.25 * t) * fnorm:
                    return h_try, ell_try, F_try
        t *= 0.5
    return None


def record_polishes(monkeypatch):
    """The list of (arguments, result) of every _newton_polish call made
    while monkeypatch is in force."""
    calls = []
    polish = solver._newton_polish

    def recorded(ws, h, target, tol, max_iters=80):
        args = (ws, h.copy(), target.copy(), tol, max_iters)
        calls.append((args, polish(ws, h, target, tol, max_iters)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "_newton_polish", recorded)
    return calls


def assert_orbit_constant(orbits, x):
    """x, or each row of a block x, is bitwise constant on every orbit."""
    for rows in orbits.blocks:
        v = x[..., rows]
        assert (v == v[..., :1]).all()


class TestNewtonCoreBitForBit:
    """Every Newton solve a whole solve makes, replayed on the reference
    Newton core above: the same h bytes, err and step count."""

    @pytest.fixture
    def polishes(self, monkeypatch):
        return record_polishes(monkeypatch)

    @staticmethod
    def assert_replayed(calls):
        for (ws, h, target, tol, max_iters), (h_got, err, iters) in calls:
            h_ref, err_ref, iters_ref = reference_newton_polish(ws, h, target, tol, max_iters)
            assert h_got.tobytes() == h_ref.tobytes()
            assert float(err).hex() == float(err_ref).hex()
            assert iters == iters_ref

    @pytest.mark.parametrize("index", [0, 1, 2, 3, 59, 70])
    def test_stress_measures(self, polishes, index):
        """Cases 59 (gives up after the pad continuation) and 70 (solved by
        it) of the benchmark's stress corpus, and four solved by Newton from
        the start."""
        workloads = import_bench_module("workloads")
        n, p, C, t, m = workloads._stress_measures(np.random.default_rng(0), 120)[index]
        try:
            _, report = solve_discrete(DiscreteMeasure(t, m), p)
        except NoConvergenceError as exc:
            report = exc.report
            assert index == 59
        assert (report.outer_iters > 0) == (index in (59, 70))
        assert len(polishes) == 1 + report.outer_iters
        self.assert_replayed(polishes)

    def test_c4_orbit_averaged_stages(self, polishes):
        workloads = import_bench_module("workloads")
        case = workloads.symmetric_density(np.random.default_rng(3), 4, False, 0.5, 512)
        spec = measure_spec_from_dict(json.loads(case.measure_json))
        _, report = solve(spec, case.p, SymmetryGroup.cyclic(4))
        assert report.symmetry == "C4" and len(report.loop_history) >= 2
        assert polishes
        assert all(isinstance(getattr(args[0].average, "__self__", None), solver.OrbitStructure)
                   for args, _ in polishes)
        self.assert_replayed(polishes)


class TestInvariantIterates:
    """Under a group, Newton averages its start and each step, and no
    trial: every trial edge_form sees in _newton_polish, one by one or in
    blocks, and every h it returns, is bitwise constant on each orbit, here
    through whole C4 and D5 density solves."""

    @pytest.mark.parametrize("k, dihedral, knots", [(4, False, 4096), (5, True, 4000)])
    def test_density_solves(self, monkeypatch, k, dihedral, knots):
        workloads = import_bench_module("workloads")
        case = workloads.symmetric_density(np.random.default_rng(3), k, dihedral, 0.5, knots)
        spec = measure_spec_from_dict(json.loads(case.measure_json))
        polish = solver._newton_polish
        calls = []

        def checked(ws, h, target, tol, max_iters=80):
            orbits = ws.average.__self__
            edge_form = ws.edge_form

            def constant(x):
                assert_orbit_constant(orbits, x)
                return edge_form(x)

            ws.edge_form = constant
            try:
                calls.append(polish(ws, h, target, tol, max_iters))
            finally:
                del ws.edge_form
            assert_orbit_constant(orbits, calls[-1][0])
            return calls[-1]

        monkeypatch.setattr(solver, "_newton_polish", checked)
        G = parse_symmetry(case.symmetry)
        _, report = solve(spec, case.p, G)
        assert report.symmetry == G.label() and len(report.loop_history) >= 2
        assert len(calls) >= len(report.loop_history)


class TestLineSearch:
    """The halving in _newton_polish, which skips the trials that provably
    fail h > 0 and evaluates the trials after a failed decrease test in
    blocks, against plain halving.  A recording edge_form on the workspace
    sees each trial evaluated one by one that has h > 0, and each block;
    the skipped trials, and those that fail h > 0, never reach it."""

    @staticmethod
    def search(monkeypatch, ws, h, step):
        """One Newton step along ws.average(step) from an orbit-constant h,
        against reference_line_search: the arrays edge_form saw after the
        start's, what each _skip_nonpositive call returned, and plain
        halving's (h, L h, F) or None."""
        F = h ** (1.0 - ws.p) * ws.edge_form(h) - ws.alpha
        want = reference_line_search(ws, h, ws.average(step), ws.alpha, math.sqrt(F.dot(F)))
        monkeypatch.setattr(ws, "solve_linear", lambda J, rhs: step.copy())
        seen, skips = [], []
        edge_form, skip = ws.edge_form, solver._skip_nonpositive

        def recorded(x):
            seen.append(x.copy())
            return edge_form(x)

        def counted(h, step):
            skips.append(skip(h, step))
            return skips[-1]

        monkeypatch.setattr(ws, "edge_form", recorded)
        monkeypatch.setattr(solver, "_skip_nonpositive", counted)
        h_got, err, iters = _newton_polish(ws, h, ws.alpha, 0.0, 1)
        assert iters == 1 and seen[0].tobytes() == h.tobytes()
        assert h_got.tobytes() == (h if want is None else want[0]).tobytes()
        if want is not None:
            assert err == float((np.abs(want[2]) / ws.alpha).max())
        return seen[1:], skips, want

    @staticmethod
    def hexagon():
        ws = _Workspace(np.arange(6) * (TWO_PI / 6), np.full(6, 2.0), 0.5)
        h = np.ones(6)
        h[0] = 0.75
        assert ws.edge_form(h).min() > 0
        return ws, h

    @pytest.mark.parametrize("s0, first", [
        (-6.0, 1 / 16),  # 0.75 + step_0 / 8 == 0 exactly: 1/8 is skipped
        (-np.nextafter(6.0, 7.0), 1 / 16),  # below 0 at 1/8
        (-np.nextafter(6.0, 0.0), 1 / 8),  # the least positive double at 1/8
        (-5.0, 1 / 8),
    ])
    def test_skips_exactly_the_trials_that_fail_positivity(self, monkeypatch, s0, first):
        ws, h = self.hexagon()
        step = np.zeros(6)
        step[0] = s0
        assert (0.75 + first * s0 > 0) and not (0.75 + 2 * first * s0 > 0)
        seen, skips, _ = self.search(monkeypatch, ws, h, step)
        # the full step and the skipped trials before t = first
        assert skips == [(first, round(-math.log2(first)))]
        assert seen[0].tobytes() == (h + first * step).tobytes()

    def test_a_group_takes_the_skip(self, monkeypatch):
        # under C2 the orbit {0, 2} averages the step to -8 on it, so the
        # full step takes h below 0 there and h + step / 8 is 0 exactly:
        # the skip decides 1, 1/2, 1/4 and 1/8, and the first trial that
        # edge_form sees is t = 1/16, constant on each orbit
        theta = np.arange(4) * (TWO_PI / 4)
        orbits = orbit_partition(theta, SymmetryGroup.cyclic(2))
        ws = _Workspace(theta, np.full(4, 3.0), 0.5, orbits=orbits)
        h = np.ones(4)
        step = np.array([-12.0, 0.0, -4.0, 0.0])
        seen, skips, want = self.search(monkeypatch, ws, h, step)
        assert skips == [(1 / 16, 4)]
        assert seen[0].tobytes() == np.array([0.5, 1.0, 0.5, 1.0]).tobytes()
        # h falls where the masses ask it to grow: blocks to the budget's end
        assert want is None and all(x.ndim == 2 for x in seen[1:])
        assert sum(len(x) for x in seen[1:]) == 50 - 5

    def test_skips_through_the_whole_budget(self, monkeypatch):
        ws, h = self.hexagon()
        step = np.zeros(6)
        step[0] = -0.75 * 2.0**52  # every t >= 2^-49 takes h_0 below 0
        seen, skips, want = self.search(monkeypatch, ws, h, step)
        assert want is None and seen == [] and skips == [(2.0**-50, 50)]

    @pytest.mark.parametrize("scale", [0.25, 1.0, 1e6])
    def test_exhausted_budget_after_blocks(self, monkeypatch, scale):
        # an ascent direction: |F| grows to first order at every t, so each
        # trial fails, and those after the first that has h > 0 and L h > 0
        # go in blocks
        ws, h = self.hexagon()
        ell = ws.edge_form(h)
        w = h ** (1.0 - ws.p)
        newton = ws.solve_linear(ws.jacobian(h, w, ell), ws.alpha - w * ell)
        seen, skips, want = self.search(monkeypatch, ws, h, -scale * newton)
        assert want is None
        single = [x for x in seen if x.ndim == 1]
        blocks = seen[len(single):]
        assert single and all(x.ndim == 2 for x in blocks)
        positive = [x.min() > 0 and _Workspace.edge_form(ws, x).min() > 0 for x in single]
        assert positive == [False] * (len(single) - 1) + [True]
        assert (len(single), len(skips)) == {0.25: (1, 0), 1.0: (1, 1), 1e6: (2, 1)}[scale]
        # the blocks take every trial after those skipped and those seen singly
        tries = sum(skipped for _, skipped in skips) + len(single)
        assert sum(len(x) for x in blocks) == 50 - tries

    @staticmethod
    def count_calls(monkeypatch, *names):
        """Wrap the solver functions names to count their calls."""
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, f=getattr(solver, name), name=name):
                counts[name] += 1
                return f(*args)
            monkeypatch.setattr(solver, name, counted)
        return counts

    def test_semicircle_atoms_replay(self, monkeypatch):
        """Hard-contrast atoms on a semicircle, solved on the half body (the
        chord workspace) through skips and blocks, replayed on the
        reference Newton core."""
        counts = self.count_calls(monkeypatch, "_skip_nonpositive", "_block_search")
        polishes = record_polishes(monkeypatch)
        rng = np.random.default_rng(37)
        theta = np.sort(rng.uniform(0.02, math.pi - 0.02, 24))
        mu = DiscreteMeasure(theta, 10.0 ** rng.uniform(0.0, 4.0, 24))
        _, report = solve_discrete(mu, 0.5, chord=1.5 * math.pi)
        assert report.classification == "semicircle"
        assert counts["_skip_nonpositive"] > 0 and counts["_block_search"] > 0
        assert all((args[0].up == 0.0).any() for args, _ in polishes)
        TestNewtonCoreBitForBit.assert_replayed(polishes)

    def test_symmetric_atoms_replay(self, monkeypatch):
        """C2 atoms at p = 0.13 that cold Newton misses: the pad
        continuation solves them through skips and blocks, every iterate
        constant on each orbit, replayed on the reference Newton core."""
        counts = self.count_calls(monkeypatch, "_skip_nonpositive", "_block_search")
        polishes = record_polishes(monkeypatch)
        sector = np.array([0.36955206312544575, 1.1873501453976922])
        mu = DiscreteMeasure(np.concatenate([sector, sector + math.pi]),
                             np.tile([942.1351404601947, 10424.830467179368], 2))
        _, report = solve_discrete(mu, 0.13, SymmetryGroup.cyclic(2))
        assert report.outer_iters > 0 and report.residual <= 1e-6
        assert counts["_skip_nonpositive"] > 0 and counts["_block_search"] > 0
        orbits = polishes[0][0][0].average.__self__
        for _, (h, _, _) in polishes:
            assert_orbit_constant(orbits, h)
        TestNewtonCoreBitForBit.assert_replayed(polishes)

    def test_give_up_case_counts(self, monkeypatch):
        """Base-seed stress case 59 gives up after 656 Newton steps in 18
        pad stages.  Plain halving evaluates 7714 trials that fail only
        h > 0; the skip leaves at most one, the full step, per Newton step."""
        workloads = import_bench_module("workloads")
        n, p, C, t, m = workloads._stress_measures(np.random.default_rng(0), 120)[59]
        counts = self.count_calls(monkeypatch, "_skip_nonpositive")
        polishes = record_polishes(monkeypatch)
        with pytest.raises(NoConvergenceError) as exc:
            solve_discrete(DiscreteMeasure(t, m), p)
        report = exc.value.report
        assert (report.newton_iters, report.outer_iters) == (656, 18)
        trials = []
        for args, _ in polishes:
            reference_newton_polish(*args, trials=trials)
        assert sum(not x.min() > 0 for x in trials) == 7714
        # each skip follows the one full step of its search that failed h > 0
        assert counts["_skip_nonpositive"] == 643


class TestLapackLoader:
    """solver loads scipy's LAPACK extension without scipy.linalg's package
    init; the routine must be the one scipy.linalg.lapack exposes."""

    def test_dgtsv_is_scipys(self):
        import scipy.linalg.lapack

        assert solver.dgtsv is scipy.linalg.lapack.dgtsv
        assert solver._load_dgtsv() is scipy.linalg.lapack.dgtsv

    def test_missing_extension_names_the_directory(self, tmp_path, monkeypatch):
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        fake = importlib.machinery.ModuleSpec("scipy", None, origin=str(tmp_path / "scipy" / "__init__.py"))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        with pytest.raises(ImportError) as err:
            solver._load_dgtsv()
        assert str(tmp_path / "scipy" / "linalg") in str(err.value)

    def test_missing_scipy_raises(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy is not installed"):
            solver._load_dgtsv()


class TestMeasureResidual:
    def test_exact_solution_zero(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        mu = lp_surface_measure(P, 0.5)
        assert measure_residual(P, mu, 0.5) <= 1e-12

    def test_mass_mismatch(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        mu = DiscreteMeasure(SQ, [2.2] * 4)
        assert measure_residual(P, mu, 0.5) == pytest.approx(0.2 / 2.2, abs=1e-12)

    def test_off_support_mass_counts(self):
        P = polygon_from_support(SQ, [1.0] * 4)
        # measure missing one body normal: that boundary mass is off-support
        mu = DiscreteMeasure(SQ[:3], [2.0] * 3)
        r = measure_residual(P, mu, 0.5)
        assert r == pytest.approx(2.0 / 6.0, abs=1e-12)


def reference_measure_residual(P, mu, p):
    """measure_residual as a scalar loop: each atom of mu takes the argmin of
    the circular distance over all atoms of S_{P,p}."""
    nu = lp_surface_measure(P, p)
    total = mu.total_mass()
    matched = np.zeros(nu.n, dtype=bool)
    worst = 0.0
    for a, m in zip(mu.thetas, mu.masses):
        d = np.abs(nu.thetas - a)
        d = np.minimum(d, 2.0 * math.pi - d)
        j = int(np.argmin(d))
        got = 0.0
        if d[j] <= 1e-9:
            got = float(nu.masses[j])
            matched[j] = True
        worst = max(worst, abs(got - m) / max(m, 1e-30))
    off = float(np.sum(nu.masses[~matched]))
    return worst + off / max(total, 1e-30)


class TestMeasureResidualShortcuts:
    def test_candidates_equal_the_sorted_pair_at_the_seam(self, rng):
        for n in (1, 2, 3, 40):
            grid = np.sort(rng.uniform(0.1, 2 * math.pi - 0.1, n))
            x = np.concatenate([[0.0, 0.05, grid[0], 2 * math.pi - 0.05, grid[-1]],
                                rng.uniform(0.0, 2 * math.pi, 50)])
            k = np.searchsorted(grid, x)
            assert {0, n} <= set(k.tolist())
            want = np.sort([(k - 1) % n, k % n], axis=0)
            assert np.array_equal(solver._cyclic_neighbours(grid, x), want)

    def test_total_mass_is_the_exact_sum(self, rng):
        for n in (1, 7, 1000):
            masses = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-12, 12, n)
            mu = DiscreteMeasure(rng.uniform(0.0, 2 * math.pi, n), masses)
            assert mu.total_mass() == math.fsum(mu.masses)
            assert mu.total_mass() == mu.total_mass()
            assert type(mu.total_mass()) is float


class TestMeasureResidualMatch:
    """measure_residual against the scalar reference, value for value."""

    def test_perturbed_boundary_measures(self, rng):
        for _ in range(60):
            P = random_general_position_polygon(rng, nmax=30)
            p = float(rng.choice([0.1, 0.5, 0.9]))
            nu = lp_surface_measure(P, p)
            keep = rng.uniform(size=nu.n) < 0.8  # dropped atoms: extra nu mass
            t = nu.thetas[keep] + rng.choice([0.0, 4e-10, -4e-10, 3e-9], keep.sum())
            m = nu.masses[keep] * rng.choice([1.0, 1.0 + 1e-7, 0.5], keep.sum())
            extra = rng.uniform(0.0, 2 * math.pi, 3)  # unmatched mu atoms
            mu = DiscreteMeasure(np.append(t, extra), np.append(m, [0.3, 1.0, 2.0]))
            assert measure_residual(P, mu, p) == reference_measure_residual(P, mu, p)

    def test_atoms_at_the_seam(self):
        normals = [0.0, 1.5, 3.0, 4.5, 2 * math.pi - 2e-9]
        P = polygon_from_support(normals, [1.0, 1.2, 0.9, 1.1, 1.0])
        assert lp_surface_measure(P, 0.5).n == 5
        for t in ([0.0, 1.5, 3.0], [2 * math.pi - 1e-9, 3.0], [2 * math.pi - 4e-10, 4.5],
                  [1e-10, 2 * math.pi - 2.5e-9], [2 * math.pi - 1.5e-9, 0.5e-9]):
            mu = DiscreteMeasure(t, np.linspace(1.0, 2.0, len(t)))
            assert measure_residual(P, mu, 0.5) == reference_measure_residual(P, mu, 0.5)

    def test_equidistant_tie_goes_to_lower_index(self):
        # nu atoms 2^-29 apart, a mu atom exactly halfway: both within tolerance
        normals = [1.0, 1.0 + 2.0**-29, 2.5, 4.0, 5.5]
        P = polygon_from_support(normals, [1.0] * 5)
        nu = lp_surface_measure(P, 0.5)
        assert nu.n == 5 and nu.masses[0] != nu.masses[1]
        mu = DiscreteMeasure([1.0 + 2.0**-30, 4.0], [nu.masses[0], 1.0])
        got = measure_residual(P, mu, 0.5)
        assert got == reference_measure_residual(P, mu, 0.5)
        # matched to index 0, so the atom at 1 + 2^-29 is off-support mass
        off = nu.masses[1] + nu.masses[2] + nu.masses[4]
        assert got == max(abs(nu.masses[3] - 1.0), 0.0) + off / mu.total_mass()

    def test_single_atom_boundary_measure(self):
        w = 0.7
        P = polygon_from_support([w, w + 2 * math.pi / 3, w - 2 * math.pi / 3], [1.0, 0.0, 0.0])
        assert lp_surface_measure(P, 0.5).n == 1
        for t in ([w], [w + 5e-10], [w + 0.5], [w - 3e-10, w + math.pi]):
            mu = DiscreteMeasure(t, np.full(len(t), 1.3))
            assert measure_residual(P, mu, 0.5) == reference_measure_residual(P, mu, 0.5)


class TestOrbits:
    def test_c4_single_orbit(self):
        orb = orbit_partition(np.array(SQ), SymmetryGroup.cyclic(4))
        assert [o.tolist() for o in orbit_index_sets(orb)] == [[0, 1, 2, 3]]

    def test_reflection_orbits(self):
        orb = orbit_partition(np.array(SQ), SymmetryGroup.dihedral(1, axis=0.0))
        sets = sorted(o.tolist() for o in orbit_index_sets(orb))
        assert sets == [[0], [1, 3], [2]]

    def test_d4_on_eighth_roots(self):
        th = np.array([k * math.pi / 4 for k in range(8)])
        orb = orbit_partition(th, SymmetryGroup.dihedral(4, axis=0.0))
        sets = sorted(o.tolist() for o in orbit_index_sets(orb))
        assert sets == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_not_closed(self):
        with pytest.raises(NotClosedUnderGroupError):
            orbit_partition(np.array([0.0, 1.0, 2.0]), SymmetryGroup.cyclic(4))

    def test_equality_is_identity(self):
        # Comparing the blocks array by array would raise; == compares identity.
        orb = orbit_partition(np.array(SQ), SymmetryGroup.dihedral(1, axis=0.0))
        assert orb == orb
        assert orb != orbit_partition(np.array(SQ), SymmetryGroup.dihedral(1, axis=0.0))


def reference_average(orbits, values):
    out = np.empty_like(values, dtype=float)
    for orb in orbits:
        out[orb] = float(np.mean(values[orb]))
    return out


def invariant_normals(rng, G, n_free, n_axis=0, seam=False, extra=()):
    """G-orbits of random angles, plus orbits of points on reflection axes
    (half size under D_k), of points near the seam at 0 and of the extra
    points."""
    base = list(rng.uniform(0.0, TWO_PI, n_free)) + list(extra)
    if G.kind == "dihedral":
        k = G.order_k
        base += [G.axis + math.pi * j / k for j in rng.integers(0, 2 * k, n_axis)]
    if seam:
        base.append(float(rng.choice([3e-13, TWO_PI - 3e-13, TWO_PI - 2e-12])))
    images = np.sort(np.concatenate([A.apply_angles(base) for A in G.elements()]))
    # one normal per orbit point, shuffled so orbits interleave in index order
    gaps = np.diff(np.append(images, images[0] + TWO_PI))
    return rng.permutation(images[gaps > 1e-9])


GROUPS = [SymmetryGroup.cyclic(2), SymmetryGroup.cyclic(4), SymmetryGroup.cyclic(5),
          SymmetryGroup.dihedral(1, 0.0), SymmetryGroup.dihedral(3, 0.4),
          SymmetryGroup.dihedral(4, 2.9), SymmetryGroup.dihedral(5, 0.7),
          SymmetryGroup.dihedral(6, 0.0), SymmetryGroup.dihedral(12, 1.1)]


class TestOrbitMapAgainstUnionFind:
    """The image-labelled orbits against the union-find they replace."""

    @pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.label())
    def test_same_orbits_and_bit_equal_average(self, rng, G):
        for trial in range(4):
            theta = invariant_normals(rng, G, int(rng.integers(1, 8)),
                                      n_axis=int(rng.integers(1, 4)), seam=trial % 2 == 1)
            orbits, reps, index_to_orbit = reference_orbit_partition(theta, G)
            orb = orbit_partition(theta, G)
            sets = orbit_index_sets(orb)
            assert len(sets) == len(orbits)
            for got, want in zip(sets, orbits):
                assert np.array_equal(got, want)
            assert np.array_equal([o[0] for o in sets], reps)
            ito = np.empty(len(theta), dtype=int)
            for k, o in enumerate(sets):
                ito[o] = k
            assert np.array_equal(ito, index_to_orbit)
            if G.kind == "dihedral" and not trial % 2:
                assert len({len(o) for o in sets}) == 2  # axis orbits are half size
            values = rng.uniform(0.0, 1.0, len(theta)) * 10.0 ** rng.uniform(-8, 8, len(theta))
            assert orb.average(values).tobytes() == reference_average(orbits, values).tobytes()

    @pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.label())
    def test_group_orbit_map_matches_scalar_rule(self, rng, G):
        theta = invariant_normals(rng, G, 5, n_axis=2, seam=True)
        # perturb within the tolerance so the nearest-neighbour rule matters
        theta = canonical_angles(theta + rng.uniform(-3e-10, 3e-10, len(theta)))
        for A in G.elements():
            assert np.array_equal(group_orbit_map(theta, A), reference_group_orbit_map(theta, A))

    def test_group_orbit_map_permutes_a_regular_polygon(self):
        theta = np.array([0.3 + TWO_PI * j / 6 for j in range(6)])[::-1]
        perm = group_orbit_map(theta, Isometry2("rotation", TWO_PI / 6))
        assert perm.tolist() == [5, 0, 1, 2, 3, 4]
        refl = group_orbit_map(theta, Isometry2("reflection", 0.3))
        assert refl.tolist() == [4, 3, 2, 1, 0, 5]

    def test_group_orbit_map_tie_goes_to_later_candidate(self):
        # the reflection across 0.75 maps 0.5 to 1.0, which lies exactly
        # halfway between the normals 1 -+ 2**-31 (all exact in binary)
        x = 2.0 ** -31
        theta = np.array([0.5, 1.0 - x, 1.0 + x])
        A = Isometry2("reflection", 0.75)
        assert group_orbit_map(theta, A).tolist() == [2, 0, 0]
        assert reference_group_orbit_map(theta, A).tolist() == [2, 0, 0]

    def test_group_orbit_map_names_first_missing_normal(self):
        theta = np.array([0.5, 1.0, 2.0, 0.5 + math.pi])
        with pytest.raises(NotClosedUnderGroupError) as exc:
            group_orbit_map(theta, Isometry2("rotation", math.pi))
        with pytest.raises(NotClosedUnderGroupError) as ref:
            reference_group_orbit_map(theta, Isometry2("rotation", math.pi))
        assert str(exc.value) == str(ref.value)
        assert str(exc.value).startswith("normal at 1 maps to")

    @pytest.mark.parametrize("G, sub", [
        (SymmetryGroup.cyclic(4), SymmetryGroup.cyclic(2)),
        (SymmetryGroup.cyclic(6), SymmetryGroup.cyclic(3)),
        (SymmetryGroup.dihedral(4, 0.3), SymmetryGroup.cyclic(4)),
        (SymmetryGroup.dihedral(4, 0.3), SymmetryGroup.dihedral(2, 0.3)),
        (SymmetryGroup.dihedral(5, 1.0), SymmetryGroup.dihedral(1, 1.0)),
    ], ids=lambda G: G.label())
    def test_not_closed_messages_name_the_first_failing_element(self, rng, G, sub):
        # Normals closed under a subgroup of G only.  n not a multiple of k
        # is named as such; else the message names the first sorted normal
        # that the first failing generator (rotation by 2 pi / k, then the
        # reflection) maps out of the set, as the reference match does.
        k = G.order_k
        generators = [Isometry2("rotation", TWO_PI / k)]
        if G.kind == "dihedral":
            generators.append(Isometry2("reflection", G.axis))
        for _ in range(3):
            theta = invariant_normals(rng, sub, 4, n_axis=1)
            if len(theta) % k:
                want = f"{len(theta)} normals cannot be invariant under {G.label()}: "
                want += f"{k} does not divide {len(theta)}"
            else:
                for A in generators:
                    try:
                        reference_group_orbit_map(np.sort(theta), A)
                    except NotClosedUnderGroupError as exc:
                        want = str(exc)
                        break
            with pytest.raises(NotClosedUnderGroupError) as got:
                orbit_partition(theta, G)
            assert str(got.value) == want
            mu = DiscreteMeasure(theta, np.ones(len(theta)))
            with pytest.raises(NotSymmetricError) as wrapped:
                solve_discrete(mu, 0.5, G)
            assert str(wrapped.value) == f"measure is not invariant under {G.label()}: {want}"

    def test_non_injective_match_raises(self):
        # pairs of normals 1.5e-9 apart: every image under C2 lies within
        # the tolerance of a normal, but a nearest match maps both normals
        # of a pair onto one, which is no group action, so the index map
        # fails with every image in the set; the union-find merged them
        x = 0.75e-9
        theta = np.array([0.0, 2 * x, math.pi + x, 1.0 - x, 1.0 + x, math.pi + 1.0])
        G = SymmetryGroup.cyclic(2)
        assert len(reference_orbit_partition(theta, G)[0]) == 2
        with pytest.raises(NotClosedUnderGroupError,
                           match="^the images of the normal at 0 under C2 do not form an orbit$"):
            orbit_partition(theta, G)
        mu = DiscreteMeasure(theta, [1.0] * 6)
        assert mu.n == 6
        with pytest.raises(NotSymmetricError, match="do not form an orbit"):
            solve_discrete(mu, 0.5, G)
        with pytest.raises(NotClosedUnderGroupError, match="^3 normals cannot be invariant under "
                                                           "C2: 2 does not divide 3$"):
            orbit_partition(theta[:3], G)

    @pytest.mark.parametrize("G", [SymmetryGroup.cyclic(3), SymmetryGroup.dihedral(4, 0.3)],
                             ids=lambda G: G.label())
    def test_normals_outside_the_canonical_range(self, rng, G):
        # shifted by whole turns, as given or permuted, the normals take the
        # canonicalizing branch and give the sorted canonical normals' orbits
        # at the input's own indices
        theta = np.sort(invariant_normals(rng, G, 3, n_axis=1))
        want = [o.tolist() for o in orbit_index_sets(orbit_partition(theta, G))]
        n = len(theta)
        for shift in (TWO_PI, -TWO_PI, -2.0 * TWO_PI, rng.choice([0.0, TWO_PI, -TWO_PI], n)):
            for perm in (np.arange(n), rng.permutation(n)):
                normals = theta[perm] + (shift[perm] if np.ndim(shift) else shift)
                assert not (normals.min() >= 0.0 and normals.max() < TWO_PI)
                got = orbit_index_sets(orbit_partition(normals, G))
                assert sorted(sorted(perm[o].tolist()) for o in got) == want

    def test_index_arithmetic_equals_the_union_find(self, rng):
        # 420 random C_k and D_k invariant sets, k <= 12, shuffled, some with
        # points on reflection axes and one within 1e-13 of the seam; each
        # partitioned as given and, on the fast path, sorted
        for trial in range(420):
            k = int(rng.integers(1, 13))
            if trial % 2 or k == 1:
                G = SymmetryGroup.dihedral(k, float(rng.uniform(0.0, TWO_PI)))
            else:
                G = SymmetryGroup.cyclic(k)
            seam = [float(rng.choice([5e-14, 9e-14, TWO_PI - 5e-14, TWO_PI - 9e-14]))]
            theta = invariant_normals(rng, G, int(rng.integers(1, 5)), int(rng.integers(0, 3)),
                                      extra=seam if trial % 3 == 0 else ())
            want = reference_orbit_partition(theta, G)[0]
            rank = np.argsort(np.argsort(theta))  # index in the sorted normals
            want_sorted = sorted((np.sort(rank[o]) for o in want), key=lambda o: o[0])
            for normals, orbits in ((theta, want), (np.sort(theta), want_sorted)):
                orb = orbit_partition(normals, G)
                got = orbit_index_sets(orb)
                assert len(got) == len(orbits)
                assert all(np.array_equal(a, b) for a, b in zip(got, orbits))
                values = rng.uniform(0.5, 2.0, len(normals))
                assert orb.average(values).tobytes() == reference_average(orbits, values).tobytes()

    def test_blocks_are_c_contiguous(self, rng):
        # average sums each block row-wise only in C order: an F-ordered
        # block is summed column-wise, which moves a mean in its last bit
        for trial in range(120):
            G = GROUPS[trial % len(GROUPS)]
            theta = invariant_normals(rng, G, int(rng.integers(1, 5)), int(rng.integers(0, 3)),
                                      seam=trial % 3 == 0)
            for normals in (theta, np.sort(theta)):
                assert all(rows.flags.c_contiguous for rows in orbit_partition(normals, G).blocks)

    def test_k2_image_differences_wrap_mod_two_pi(self):
        # A D2 pair the rotation by pi fixes: the reflection across 1.0 maps
        # 2.6 to -0.6, and the difference 2.6 + pi - (-0.6) is just above
        # 2 pi, so read without its reduction mod 2 pi, 2 pi - d is negative
        # and the check would pass
        theta = np.array([2.6, 2.6 + math.pi])
        G = SymmetryGroup.dihedral(2, 1.0)
        with pytest.raises(NotClosedUnderGroupError) as ref:
            reference_orbit_partition(theta, G)
        with pytest.raises(NotClosedUnderGroupError) as got:
            orbit_partition(theta, G)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith("normal at 2.6 maps to 5.68318530718")
        assert orbit_index_sets(orbit_partition(theta, SymmetryGroup.cyclic(2)))[0].tolist() == [0, 1]

    @pytest.mark.parametrize("G", [SymmetryGroup.cyclic(64), SymmetryGroup.dihedral(80, 0.2)],
                             ids=lambda G: G.label())
    def test_average_bit_equal_on_large_orbits(self, rng, G):
        # orbits of 64 and 160 values: numpy's pairwise sum unrolls by 8 and
        # splits blocks above 128, and a row-wise mean must do the same
        theta = invariant_normals(rng, G, 3, n_axis=1)
        orb = orbit_partition(theta, G)
        values = rng.uniform(0.0, 1.0, len(theta)) * 10.0 ** rng.uniform(-8, 8, len(theta))
        assert np.array_equal(orb.average(values), reference_average(orbit_index_sets(orb), values))

    def test_invariant_orbits(self):
        # masses within 1e-8 of their orbit's mean come back averaged; other
        # masses and normal sets G does not map to themselves are refused
        theta = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        G = SymmetryGroup.cyclic(2)
        vals = np.array([1.0, 2.0, 1.0 + 5e-9, 2.0])
        orb, means = invariant_orbits(theta, vals, G)
        want = orbit_index_sets(orbit_partition(theta, G))
        assert [r.tolist() for r in orbit_index_sets(orb)] == [r.tolist() for r in want]
        assert np.array_equal(means, orb.average(vals))
        lacks = "^measure is not invariant under C2: "
        with pytest.raises(NotSymmetricError,
                           match=lacks + "atom masses are not constant on group orbits$"):
            invariant_orbits(theta, np.array([1.0, 2.0, 1.0 + 2e-8, 2.0]), G)
        with pytest.raises(NotSymmetricError,
                           match=lacks + "3 normals cannot be invariant under C2") as got:
            invariant_orbits(theta[:3], vals[:3], G)
        assert isinstance(got.value.__cause__, NotClosedUnderGroupError)


def reference_reactivate(ws, h):
    """solver._reactivate as it was: 60 bisection steps on whole-array edge
    forms."""
    if (ws.edge_form(h)).min() > ws.n * 1e-15:
        return h
    target = float(h.mean()) * np.ones_like(h)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        trial = (1 - mid) * h + mid * target
        if ws.edge_form(trial).min() > ws.n * 1e-15:
            hi = mid
        else:
            lo = mid
    s = min(1.0, hi * 1.25)
    return (1 - s) * h + s * target


class TestReactivationBitForBit:
    """_reactivate blends a start into the all-active cone in closed form.
    Every row of the blend must clear the floor, and the blend must match
    the whole-array bisection it replaces to rounding, 1e-11 of max |h|;
    an all-active start and a NaN one come back exactly as before.  (The
    name, from when the blend was the bisection's to the bit, keeps the
    test ids.)"""

    @staticmethod
    def warm_start(rng, n, failing=()):
        """A workspace on n jittered grid normals and the support numbers of
        an ellipse there, every edge positive, with each row of failing
        pushed out until its edge value is 0.2 to 3 times its old length
        below zero."""
        theta = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (TWO_PI / n)
        ws = _Workspace(theta, rng.uniform(0.5, 2.0, n), 0.5)
        a, b, phi = 1.0, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, math.pi))
        h = np.hypot(a * np.cos(theta - phi), b * np.sin(theta - phi)) + 0.1
        ell = ws.edge_form(h)
        assert ell.min() > 0.0
        for i in failing:
            h[i] += ell[i] * rng.uniform(1.2, 4.0) / -ws.diag[i]
        return ws, h

    def assert_blend(self, ws, h, atol=None):
        """The blend clears the floor on every row and is the bisection's to
        rounding: atol, by default 1e-11 of max |h|."""
        got, ell = solver._reactivate(ws, h.copy())
        want = reference_reactivate(ws, h.copy())
        assert ell is None and ws.edge_form(got).min() > ws.n * 1e-15
        assert np.abs(got - want).max() <= (atol or 1e-11 * np.abs(h).max())

    @pytest.mark.parametrize("draw", [0, 32, 10**9])
    @pytest.mark.parametrize("n", [12, 60, 252, 510])
    def test_one_two_and_half_the_rows_failing(self, n, draw):
        # Each draw seeds its own stream: three independent sets of
        # workspaces and failing rows per n.
        rng = np.random.default_rng((20240817, draw))
        for failing in ([int(rng.integers(n))], [3, n // 2], range(0, n, 2)):
            for _ in range(3):
                ws, h = self.warm_start(rng, n, failing)
                assert np.count_nonzero(ws.edge_form(h) <= 0.0) == len(failing)
                self.assert_blend(ws, h)

    def test_every_row_failing(self, rng):
        # h = <x0, u_i> - eps: the edge form of a point minus eps L(1), so
        # every row fails by about eps times its two half-gap tangents,
        # while the mean of h, with x0 along the mean normal, stays
        # positive; every row then passes once s > eps / (mean + eps).
        # Each row is a sum of terms up to S_i = (|diag_i| + |up_i| +
        # |lo_i|) max |h| that cancel to a fraction of it (1e-9 at n = 510),
        # so both blends are only as good as the rounding of the rows: a few
        # eps S_i / (ellc_i - ell_i) in s, times 1.25, times max |h - c|.
        for n in (40, 510):
            theta = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (TWO_PI / n)
            ws = _Workspace(theta, rng.uniform(0.5, 2.0, n), 0.5)
            u = unit_vectors(theta)
            x0 = 1000.0 * u.mean(axis=0) / np.hypot(*u.mean(axis=0))
            h = u @ x0
            h -= 0.5 * h.mean()
            ell, c = ws.edge_form(h), float(h.mean())
            assert (ell <= ws.n * 1e-15).all() and c > 0.0
            S = (np.abs(ws.diag) + np.abs(ws.up) + np.abs(ws.lo)) * np.abs(h).max()
            ds = 1.25 * float((4.0 * np.finfo(float).eps * S
                               / (ws.edge_form(c * np.ones(n)) - ell)).max())
            self.assert_blend(ws, h, ds * np.abs(h - c).max())

    def test_all_active_start_is_returned_with_its_edge_form(self, rng):
        ws, h = self.warm_start(rng, 60)
        got, ell = solver._reactivate(ws, h)
        assert got is h and ell.tobytes() == ws.edge_form(h).tobytes()

    def test_a_row_inside_the_margin(self, rng):
        # Row i passes the floor at h by less than 64 eps S_i, with S_i =
        # (|diag_i| + |up_i| + |lo_i|) max(|h|_inf, |c|), the rounding slack
        # of its edge value; row j fails.  Row i still clears the floor in
        # the blend, which is the bisection's to rounding.
        hits = 0
        for _ in range(20):
            n = int(rng.integers(20, 300))
            i, j = 5, n // 2
            ws, h = self.warm_start(rng, n, [j])
            floor = ws.n * 1e-15
            for _ in range(4):
                scale = max(np.abs(h).max(), abs(float(h.mean())))
                bound = floor + 64.0 * np.finfo(float).eps * (
                    abs(ws.diag[i]) + abs(ws.up[i]) + abs(ws.lo[i])) * scale
                h[i] += (ws.edge_form(h)[i] - 0.5 * (floor + bound)) / -ws.diag[i]
            if not floor < ws.edge_form(h)[i] <= bound:
                continue
            self.assert_blend(ws, h)
            hits += 1
        assert hits >= 15

    def test_a_mean_at_or_below_zero_blends_all_the_way(self, rng):
        # c <= 0 puts every row of edge_form(c) at or below the floor, so
        # the blend is the constant c itself, as the bisection's is.
        for shift in (1e-12, 0.5):
            ws, h = self.warm_start(rng, 60, [7])
            h -= h.mean() + shift
            c = float(h.mean())
            got, ell = solver._reactivate(ws, h.copy())
            assert c <= 0.0 and ell is None
            assert got.tobytes() == (c * np.ones(60)).tobytes()
            assert got.tobytes() == reference_reactivate(ws, h.copy()).tobytes()

    def test_nan_entries(self, rng):
        # A NaN entry fails the floor, with or without a failing row beside
        # it, and the blend is all NaN.
        for k, failing in ((1, []), (3, []), (1, [10]), (3, [10])):
            ws, h = self.warm_start(rng, 60, failing)
            h[rng.choice(60, k, replace=False)] = math.nan
            got, ell = solver._reactivate(ws, h.copy())
            assert ell is None and np.isnan(got).all()
            assert np.isnan(reference_reactivate(ws, h.copy())).all()

    def test_trivial_group_newton_reuses_the_edge_form(self, rng, monkeypatch):
        # At a solution Newton takes no step, and the one edge form of h is
        # _reactivate's.
        ws, h = self.warm_start(rng, 60)
        target = h ** (1.0 - ws.p) * ws.edge_form(h)
        calls = []
        edge_form = ws.edge_form

        def counted(x):
            calls.append(x)
            return edge_form(x)

        monkeypatch.setattr(ws, "edge_form", counted)
        h_out, err, iters = _newton_polish(ws, h, target, 1e-6)
        assert (err, iters) == (0.0, 0) and h_out.tobytes() == h.tobytes()
        assert len(calls) == 1

    def test_symmetric_newton_takes_the_edge_form_of_the_average(self, rng, monkeypatch):
        # Averaging moves h, and Newton averages before _reactivate, whose
        # edge form, of the averaged h, is then the only one Newton needs
        # at a start it does not step from; orbits of five make the
        # averages round.
        G = SymmetryGroup.cyclic(5)
        for _ in range(5):
            theta = np.sort(invariant_normals(rng, G, 6))
            orb = orbit_partition(theta, G)
            ws = _Workspace(theta, orb.average(rng.uniform(0.5, 2.0, len(theta))), 0.5,
                            orbits=orb)
            h = 1.0 + rng.normal(0.0, 1e-6, len(theta))
            blend, ell = solver._reactivate(ws, h)
            assert blend is h and not np.array_equal(orb.average(h), h)
            for tol in (1e-9, 0.5, math.inf):  # the answer after several steps, one and none
                got = _newton_polish(ws, h, ws.alpha, tol)
                want = reference_newton_polish(ws, h, ws.alpha, tol)
                assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
            calls = []
            monkeypatch.setattr(ws, "edge_form", lambda x, f=ws.edge_form: calls.append(x) or f(x))
            _newton_polish(ws, h, ws.alpha, math.inf)
            assert [x.tobytes() for x in calls] == [orb.average(h).tobytes()]
