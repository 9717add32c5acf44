"""End-to-end pipeline tests: discretization, routing, reduction, residuals."""

import json
import logging
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    import_bench_module,
    reference_detect_symmetry,
    orbit_index_sets,
    random_general_position_measure,
    random_general_position_polygon,
    reference_orbit_partition,
)

from lpmink import (
    AntipodalPairError,
    DiscreteMeasure,
    MeasureSpec,
    PiecewiseLinearDensity,
    SymmetryGroup,
    classify,
    classify_spec,
    discretize,
    discretize_symmetric,
    lp_surface_measure,
    measure_residual,
    monge_ampere_residual,
    solve,
    solve_semicircle,
    weak_distance,
)
from lpmink.measure import (
    ANTIPODAL_PAIR,
    GENERAL_POSITION,
    MeasureClass,
    SEMICIRCLE,
    SINGLE_DIRECTION,
)
from lpmink import geometry, pipeline, solver
from lpmink.cli import parse_symmetry
from lpmink.errors import ConcentratedError, NoConvergenceError, NotSymmetricError
from lpmink.geometry import (
    Isometry2,
    apply_isometry,
    canonical_angle,
    canonical_angles,
    support_distance,
)
from lpmink.pipeline import (
    NO_CONVERGENCE_WARNING,
    PipelineConfig,
    _symmetric_base_angles,
    detect_symmetry,
    ma_residual_from_samples,
)
from lpmink.serialization import dumps_canonical, measure_spec_from_dict, polygon_to_dict
from lpmink.solver import SolverConfig, _Workspace, orbit_partition

TWO_PI = 2 * math.pi


def uniform_density_spec(value=1.0, knots=64):
    t = np.linspace(0, TWO_PI, knots, endpoint=False)
    return MeasureSpec(None, PiecewiseLinearDensity(t, np.full(knots, value)))


class TestDiscretize:
    def test_weak_convergence_of_discretization(self, rng):
        # grid measures converge weakly: distance to a fine grid
        # <= density mass * 2pi/m + 1/m, since only the density moves
        mu = DiscreteMeasure(rng.uniform(0, TWO_PI, 6), rng.uniform(0.3, 2.0, 6))
        spec = MeasureSpec(mu, random_knot_density(rng, 23))
        fine = discretize(spec, 2048)
        assert weak_distance(discretize(MeasureSpec(mu, None), 64), mu) == 0.0
        prev = None
        for m in (64, 128, 256, 512):
            d = weak_distance(discretize(spec, m), fine)
            assert d <= spec.density_mass() * TWO_PI / m + 1.0 / m + 1e-12
            if prev is not None:
                assert d <= prev
            prev = d

    def test_atoms_keep_their_angles(self, rng):
        # each atom joins the grid measure as it is, but for one within
        # 1e-9 of an arc midpoint (j pi / 16 here), whose mass it joins
        thetas = np.append(rng.uniform(0, TWO_PI, 7), [3 * math.pi / 16 + 5e-10, 0.0])
        masses = rng.uniform(0.3, 2.0, 9)
        spec = MeasureSpec(DiscreteMeasure(thetas, masses), uniform_density_spec().density)
        mu = discretize_symmetric(spec, SymmetryGroup.trivial(), 4, 4)
        assert mu.n == 32 + 7
        for t, w in zip(thetas[:7], masses[:7]):
            assert mu.mass_at(t, tol=0.0) == w
        for t, w in zip(thetas[7:], masses[7:]):
            assert mu.mass_at(t) == pytest.approx(math.pi / 16 + w, rel=1e-12)
        assert mu.total_mass() == pytest.approx(spec.total_mass(), rel=1e-12)


class TestDiscretizeSymmetric:
    def test_uniform_c2_equal_atoms(self):
        spec = uniform_density_spec()
        mu = discretize_symmetric(spec, SymmetryGroup.cyclic(2), 4, 2)
        assert mu.n == 16
        assert np.allclose(mu.masses, math.pi / 8.0, rtol=1e-12)

    def test_reflection_invariance_exact(self, monkeypatch):
        atoms = DiscreteMeasure([0.0, 1.0, TWO_PI - 1.0], [2.0, 0.7, 0.7])
        dens = PiecewiseLinearDensity(
            np.linspace(0, TWO_PI, 16, endpoint=False),
            1.0 + 0.5 * np.cos(np.linspace(0, TWO_PI, 16, endpoint=False)),
        )
        spec = MeasureSpec(atoms, dens)
        G = SymmetryGroup.dihedral(1, axis=0.0)
        mu = discretize_symmetric(spec, G, 4, 3)
        # the binned masses are mirror-symmetric up to rounding; the
        # solver's Newton targets and support numbers EXACTLY
        for t, m in zip(mu.thetas, mu.masses):
            assert mu.mass_at(TWO_PI - t) == pytest.approx(m, rel=1e-12)
        targets = record_targets(monkeypatch)
        P, _ = solver.solve_discrete(mu, 0.5, G)
        (thetas, alphas), = targets
        assert np.array_equal(thetas, mu.thetas) and np.array_equal(P.normals, mu.thetas)
        mirror = np.argmin(np.abs(canonical_angles(-thetas)[:, None] - thetas), axis=1)
        assert np.array_equal(np.sort(mirror), np.arange(len(thetas)))
        assert np.array_equal(alphas[mirror], alphas)  # bitwise: the orbit means
        assert np.array_equal(P.support[mirror], P.support)

    def test_trivial_group_preserves_total_exactly(self, rng):
        spec = MeasureSpec(
            DiscreteMeasure(rng.uniform(0, TWO_PI, 4), rng.uniform(0.5, 2, 4)),
            PiecewiseLinearDensity(
                np.linspace(0, TWO_PI, 16, endpoint=False), rng.uniform(0, 1, 16)
            ),
        )
        mu = discretize_symmetric(spec, SymmetryGroup.trivial(), 4, 4)
        assert mu.total_mass() == pytest.approx(spec.total_mass(), rel=1e-12)

    def test_arc_width_bound(self):
        spec = uniform_density_spec()
        l, m = 4, 3
        mu = discretize_symmetric(spec, SymmetryGroup.cyclic(4), l, m)
        gaps = np.diff(np.append(mu.thetas, mu.thetas[0] + TWO_PI))
        assert gaps.max() <= TWO_PI / (l * m) + 1e-12

    @pytest.mark.parametrize("G, l", [(SymmetryGroup.trivial(), 3), (SymmetryGroup.cyclic(4), 4),
                                      (SymmetryGroup.dihedral(3, 0.7), 6),
                                      (SymmetryGroup.dihedral(5, 2.1), 5)],
                             ids=lambda x: x.label() if isinstance(x, SymmetryGroup) else str(x))
    def test_base_angles_match_the_image_set_rule(self, G, l):
        # the cut points are the images of phi0 + pi / (2 lm) under the
        # lm-gon's group, and the arc midpoints are phi0 + j pi / lm
        for m in (2, 3, 8):
            lm = l * m
            phi0 = G.axis if G.kind == "dihedral" else 0.0
            pts = _symmetric_base_angles(G, l, m)
            assert len(pts) == 2 * lm
            assert np.allclose(pts, reference_base_angles(G, l, m), rtol=0.0, atol=1e-12)
            mids = np.sort(canonical_angles(0.5 * (pts + np.append(pts[1:], pts[0] + TWO_PI))))
            want = np.sort(canonical_angles(phi0 + math.pi * np.arange(2 * lm) / lm))
            assert np.allclose(mids, want, rtol=0.0, atol=1e-12)

    def test_base_angles_bounded_memory_at_lm_4096(self):
        # 4 C4-invariant atoms on a density at lm = 4096: the grid and the
        # stage measure stay O(lm)
        thetas = 0.37 + np.arange(4) * math.pi / 2
        spec = MeasureSpec(DiscreteMeasure(thetas, np.ones(4)), uniform_density_spec().density)
        tracemalloc.start()
        try:
            mu = discretize_symmetric(spec, SymmetryGroup.cyclic(4), 4, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mu.n == 2 * 4096 + 4  # every arc's midpoint, and the atoms unmoved
        assert np.isin(thetas, mu.thetas).all()
        assert peak < 16 * 2 ** 20

    def test_unrelated_errors_in_the_orbit_helper_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise MemoryError("out of memory")

        monkeypatch.setattr(solver, "orbit_partition", broken)
        G = SymmetryGroup.cyclic(2)
        mu = discretize_symmetric(uniform_density_spec(), G, 4, 2)
        with pytest.raises(MemoryError, match="out of memory"):
            solver.solve_discrete(mu, 0.5, G)

    def test_only_bins(self, monkeypatch):
        # no invariance test and no orbit build: not even a measure that
        # no group maps to itself is refused, and the masses are the arcs'
        def broken(*args, **kwargs):
            raise AssertionError("discretize_symmetric built orbits")

        spec = MeasureSpec(DiscreteMeasure([0.3, 0.3 + math.pi / 2], [1.0, 3.0]),
                           random_knot_density(np.random.default_rng(5), 11))
        G = SymmetryGroup.dihedral(4, 0.2)
        want = reference_discretize_symmetric(spec, G, 4, 3)
        for module, name in ((solver, "orbit_partition"), (solver, "invariant_orbits"),
                             (pipeline, "invariant_orbits")):
            monkeypatch.setattr(module, name, broken)
        assert_same_measure(discretize_symmetric(spec, G, 4, 3), want)
        assert_same_measure(discretize(spec, 12, G), want)

    def test_not_invariant_raises(self):
        # the density is C4-invariant and the atoms are not: the grid is
        # binned as asked, and the solver refuses it
        atoms = DiscreteMeasure([0.3, 0.3 + math.pi / 2], [1.0, 1.0])
        spec = MeasureSpec(atoms, uniform_density_spec().density)
        G = SymmetryGroup.cyclic(4)
        mu = discretize_symmetric(spec, G, 4, 2)
        assert mu.n == 2 * 4 * 2 + 2
        with pytest.raises(NotSymmetricError, match="not invariant under C4"):
            solver.solve_discrete(mu, 0.5, G)
        with pytest.raises(NotSymmetricError, match="not invariant under C4"):
            solve(spec, 0.5, G)

    def test_unequal_masses_raise_the_solvers_refusal(self):
        # zero-mass arcs carry no atom: the stage measure is the atoms
        G = SymmetryGroup.cyclic(2)
        atoms = DiscreteMeasure(np.arange(4) * math.pi / 2, [1.0, 2.0, 1.0 + 2e-8, 2.0])
        refusal = ("^measure is not invariant under C2: "
                   "atom masses are not constant on group orbits$")
        mu = discretize_symmetric(MeasureSpec(atoms, None), G, 4, 2)
        assert_same_measure(mu, atoms)
        with pytest.raises(NotSymmetricError, match=refusal):
            solver.solve_discrete(mu, 0.5, G)
        with pytest.raises(NotSymmetricError, match=refusal):
            solve(MeasureSpec(atoms, None), 0.5, G)

    def test_masses_within_the_tolerance_give_orbit_constant_targets(self, monkeypatch):
        # masses that agree on each C2 orbit only within 1e-8 pass the
        # invariance test; Newton's targets are their orbit means, bitwise
        # constant on each orbit like every iterate, and the gate reads the
        # masses as given
        G = SymmetryGroup.cyclic(2)
        atoms = DiscreteMeasure(np.arange(4) * math.pi / 2, [1.0, 2.0, 1.0 + 5e-9, 2.0])
        targets = record_targets(monkeypatch)
        P, rep = solve(MeasureSpec(atoms, None), 0.5, G)
        (_, alphas), = targets
        assert alphas[0] == alphas[2] and alphas[1] == alphas[3]
        assert P.support[0] == P.support[2] and P.support[1] == P.support[3]
        assert rep.residual == measure_residual(P, atoms, 0.5) > 0.0


def reference_density_arc_mass(d, a, b):
    """PiecewiseLinearDensity.arc_masses at one arc as a difference of scalar
    antiderivative evaluations."""

    def F(x):
        i = int(np.clip(np.searchsorted(d._t, x, side="right") - 1, 0, len(d._t) - 2))
        dt = x - d._t[i]
        slope = (d._f[i + 1] - d._f[i]) / (d._t[i + 1] - d._t[i])
        return float(d._cum[i] + d._f[i] * dt + 0.5 * slope * dt * dt)

    span = b - a
    if span <= 0:
        span += TWO_PI
    if span >= TWO_PI - 1e-15:
        return d.total_mass()
    a0 = d._t[0] + (a - d._t[0]) % TWO_PI
    b0 = a0 + span
    if b0 <= d._t[-1]:
        return F(b0) - F(a0)
    return d.total_mass() - F(a0) + F(b0 - TWO_PI)


def reference_base_angles(G, l, m):
    """The cut points as the image set of the base point phi0 + pi / (2 lm)
    under the symmetry group of the regular lm-gon with an axis at phi0,
    one isometry at a time."""
    phi0 = G.axis if G.kind == "dihedral" else 0.0
    lm = l * m
    images = [A.apply_angles(np.array([phi0 + math.pi / (2.0 * lm)]))[0]
              for A in SymmetryGroup.dihedral(lm, phi0).elements()]
    return np.sort(canonical_angles(np.array(images)))


def reference_discretize_symmetric(spec, G, l, m):
    """Per-arc scalar density masses at the midpoints and the atoms added
    as they are: binned, never averaged."""
    pts = _symmetric_base_angles(G, l, m)
    n = len(pts)
    mids, masses = np.empty(n), np.zeros(n)
    for k in range(n):
        a = pts[k]
        b = pts[(k + 1) % n] + (TWO_PI if k == n - 1 else 0.0)
        mids[k] = 0.5 * (a + b) % TWO_PI
        if spec.density is not None:
            masses[k] = reference_density_arc_mass(spec.density, a, b)
    if spec.atoms is not None:
        mids = np.concatenate([mids, spec.atoms.thetas])
        masses = np.concatenate([masses, spec.atoms.masses])
    return DiscreteMeasure(mids, masses)


def record_targets(monkeypatch):
    """The (thetas, targets) of each Newton workspace solve_discrete makes
    from here on, in a list it fills."""
    made = []

    class Recording(_Workspace):
        def __init__(self, thetas, alphas, *args, **kwargs):
            made.append((thetas, alphas))
            super().__init__(thetas, alphas, *args, **kwargs)

    monkeypatch.setattr(solver, "_Workspace", Recording)
    return made


def random_knot_density(rng, knots):
    """Knots off any grid, with zero stretches so some arcs carry no mass."""
    t = np.sort(rng.uniform(0.0, TWO_PI, knots))
    f = rng.uniform(0.0, 2.0, knots)
    f[rng.uniform(size=knots) < 0.2] = 0.0
    return PiecewiseLinearDensity(t, f)


def assert_same_measure(mu, ref):
    assert np.array_equal(mu.thetas, ref.thetas)
    assert np.array_equal(mu.masses, ref.masses)


class TestDiscretizersBitIdentity:
    """The vectorized discretizers against per-cell scalar references."""

    def test_density_arc_masses(self, rng):
        d = random_knot_density(rng, 37)
        a = np.concatenate([rng.uniform(-1.0, 8.0, 200), [0.0, d.knots[3], 1.0, 2.0]])
        b = np.concatenate([rng.uniform(-1.0, 8.0, 200), [TWO_PI, d.knots[3], 1.0 + TWO_PI, 1.0]])
        got = d.arc_masses(a, b)
        for k in range(a.size):
            ref = reference_density_arc_mass(d, a[k], b[k])
            assert got[k] == ref
            assert float(d.arc_masses(a[k], b[k])) == ref

    @pytest.mark.parametrize("l, m", [(3, 2), (4, 5), (6, 40)])
    def test_discretize_symmetric_trivial_group(self, rng, l, m):
        atoms = DiscreteMeasure(rng.uniform(0.0, TWO_PI, 9), rng.uniform(0.1, 3.0, 9))
        for spec in (MeasureSpec(None, random_knot_density(rng, 29)),
                     MeasureSpec(atoms, None), MeasureSpec(atoms, random_knot_density(rng, 7))):
            G = SymmetryGroup.trivial()
            assert_same_measure(discretize_symmetric(spec, G, l, m),
                                reference_discretize_symmetric(spec, G, l, m))

    @pytest.mark.parametrize("G", [SymmetryGroup.cyclic(3), SymmetryGroup.dihedral(2, 0.3)])
    def test_discretize_symmetric_invariant_measures(self, rng, G):
        base = rng.uniform(0.0, TWO_PI, 4)
        masses = rng.uniform(0.1, 3.0, 4)
        images = [A.apply_angles(base) for A in G.elements()]
        atoms = DiscreteMeasure(np.concatenate(images), np.tile(masses, len(images)))
        t = 0.3 + np.linspace(0.0, TWO_PI, 60, endpoint=False)  # knots invariant too
        density = PiecewiseLinearDensity(t, 1.0 + 0.5 * np.cos(6.0 * (t - 0.3)))
        for spec in (MeasureSpec(atoms, None), MeasureSpec(atoms, density),
                     MeasureSpec(None, density)):
            for m in (2, 9):
                assert_same_measure(discretize_symmetric(spec, G, 6, m),
                                    reference_discretize_symmetric(spec, G, 6, m))

    def test_discretize_symmetric_crowded_arcs(self, rng):
        # arcs holding 1, 3, 9 and 20 atoms, one of them across the seam,
        # and atoms within 1e-9 of a midpoint on either side, which merge
        # into it: every other atom keeps its angle
        l, m = 4, 4
        step = TWO_PI / (l * m)
        crowds = [s + rng.uniform(0.1, 0.9, c) * step for s, c in
                  ((step, 1), (3 * step, 3), (5 * step, 9), (8 * step, 20), (-0.5 * step, 9))]
        near = step * np.array([2.5, 6.5, 10.5]) + np.array([-8e-10, 0.0, 8e-10])
        thetas = np.concatenate(crowds + [near]) % TWO_PI
        atoms = DiscreteMeasure(thetas, rng.uniform(0.1, 3.0, len(thetas)) * 10.0 ** rng.uniform(-6, 6, len(thetas)))
        assert atoms.n == 45
        for spec in (MeasureSpec(atoms, None), MeasureSpec(atoms, random_knot_density(rng, 13))):
            assert_same_measure(discretize_symmetric(spec, SymmetryGroup.trivial(), l, m),
                                reference_discretize_symmetric(spec, SymmetryGroup.trivial(), l, m))


class TestClassifySpec:
    def test_atomic_delegates(self):
        spec = MeasureSpec(DiscreteMeasure([0.0, math.pi], [1, 1]), None)
        assert classify_spec(spec).tag == ANTIPODAL_PAIR

    def test_full_density_general_position(self):
        assert classify_spec(uniform_density_spec()).tag == GENERAL_POSITION

    def test_half_circle_density(self):
        # density positive exactly on (0, pi): support is the closed arc [0, pi]
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, math.pi, 4.0, 5.0, 6.0])
        f = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, f))
        cls = classify_spec(spec)
        assert cls.tag == SEMICIRCLE
        assert cls.w == pytest.approx(math.pi / 2, abs=1e-9)

    def test_atoms_plus_density_span(self):
        # density on a quarter arc plus an atom on the far side
        t = np.array([0.0, 0.5, 1.0, 1.4, 2.0, 3.0, 4.0, 5.0])
        f = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        spec = MeasureSpec(
            DiscreteMeasure([3.5], [1.0]), PiecewiseLinearDensity(t, f)
        )
        assert classify_spec(spec).tag == GENERAL_POSITION


def reference_classify_spec(spec):
    """classify_spec as one Python pass over the knot intervals."""
    if spec.is_purely_atomic():
        return classify(spec.atoms)
    intervals = []
    if spec.atoms is not None:
        for t in spec.atoms.thetas:
            intervals.append((float(t), float(t)))
    knots, vals = spec.density._t, spec.density._f
    for k in range(len(knots) - 1):
        if vals[k] > 0.0 or vals[k + 1] > 0.0:
            intervals.append((float(knots[k]), float(knots[k + 1])))
    intervals = [(canonical_angle(a), canonical_angle(a) + (b - a)) for a, b in intervals]
    intervals.sort()
    merged = []
    for a, b in intervals:
        if merged and a <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    if len(merged) >= 2 and merged[0][0] + TWO_PI <= merged[-1][1] + 1e-12:
        merged[0][0] = merged[-1][0] - TWO_PI
        merged[0][1] = max(merged[0][1], merged[-1][1] - TWO_PI)
        merged.pop()
        # the joined interval takes in the pieces it now reaches
        while len(merged) >= 2 and merged[1][0] <= merged[0][1] + 1e-12:
            merged[0][1] = max(merged[0][1], merged.pop(1)[1])
    if len(merged) == 1 and merged[0][1] - merged[0][0] >= TWO_PI - 1e-12:
        return MeasureClass(GENERAL_POSITION, TWO_PI)
    gaps = []
    for k in range(len(merged)):
        nxt = merged[(k + 1) % len(merged)]
        start_next = nxt[0] + (TWO_PI if k == len(merged) - 1 else 0.0)
        gaps.append((start_next - merged[k][1], k))
    gmax, kmax = max(gaps)
    if gmax < math.pi - 1e-12:
        return MeasureClass(GENERAL_POSITION, TWO_PI - gmax)
    start = merged[(kmax + 1) % len(merged)][0]
    width = TWO_PI - gmax
    w = canonical_angle(start + width / 2.0)
    return MeasureClass(SEMICIRCLE, width, v=canonical_angle(w + math.pi / 2.0), w=w)


def arc_density(start, width, knots=256):
    """sin^2-tapered density, positive inside the arc (start, start + width)
    and 0.0 at both ends and at 7 knots on the rest of the circle."""
    s = np.linspace(0.0, width, knots)
    f = np.sin(math.pi * s / width) ** 2 * (1.0 + 0.3 * np.cos(s))
    f[0] = f[-1] = 0.0  # sin(pi) is 1.2e-16
    rest = width + (TWO_PI - width) * np.arange(1, 8) / 8
    return PiecewiseLinearDensity(start + np.append(s, rest), np.append(f, np.zeros(7)))


def random_support_spec(rng, kind):
    """Specs for the classification identity: zero runs, seam crossings,
    atoms plus density, full support and widths at pi."""
    atoms = None
    if kind == "width":
        width = math.pi + float(rng.choice([-1e-2, -1e-9, -1.1e-12, -0.9e-12, 0.0,
                                            0.9e-12, 1.1e-12, 1e-9, 1e-2]))
        dens = arc_density(float(rng.uniform(0.0, TWO_PI)), width, int(rng.integers(3, 200)))
    elif kind == "full":
        t = np.unique(rng.uniform(0.0, TWO_PI, int(rng.integers(1, 50))))
        dens = PiecewiseLinearDensity(t, rng.uniform(0.1, 2.0, t.size))
    elif kind == "touch":  # pieces and an atom within about 1e-12 of each other
        c = float(rng.uniform(0.0, TWO_PI))
        gap = rng.choice([5e-13, 9e-13, 1.1e-12, 2e-12], 2)
        w1, w2 = rng.uniform(0.3, 2.0, 2)
        closed = rng.uniform() < 0.5  # the second piece ends gap[1] before the first
        if closed:
            w2 = TWO_PI - w1 - gap[0] - gap[1]
        s1 = np.linspace(0.0, w1, 5)
        s2 = w1 + gap[0] + np.linspace(0.0, w2, 5)
        f = np.tile([0.0, 1.0, 0.5, 2.0, 0.0], 2)
        dens = PiecewiseLinearDensity(c + np.append(s1, s2), f)
        if not closed:
            atoms = DiscreteMeasure([c + s2[-1] + gap[1]], [1.0])
    elif kind == "seam":
        dens = arc_density(float(rng.uniform(TWO_PI - 2.0, TWO_PI)),
                           float(rng.uniform(0.5, 4.0)), int(rng.integers(3, 100)))
    else:  # zero runs, optionally with atoms in and out of them
        n = int(rng.integers(2, 300))
        t = np.unique(rng.uniform(0.0, TWO_PI, n) if rng.uniform() < 0.5
                      else (rng.uniform(0.0, TWO_PI) + TWO_PI * np.arange(n) / n) % TWO_PI)
        f = rng.uniform(0.0, 2.0, t.size)
        runs = rng.uniform(size=t.size) < rng.uniform(0.0, 0.95)
        f[runs | np.roll(runs, 1)] = 0.0
        if not f.any():
            f[0] = 1.0
        dens = PiecewiseLinearDensity(t, f)
        if kind == "atoms":
            k = int(rng.integers(1, 6))
            th = rng.choice(np.append(dens.knots, rng.uniform(0.0, TWO_PI, k)), k)
            atoms = DiscreteMeasure(th, rng.uniform(0.1, 2.0, k))
    return MeasureSpec(atoms, dens)


def class_bits(cls):
    """The tag, then each number field's type and exact bits."""
    return [cls.tag] + [(type(x), None if x is None else np.float64(x).tobytes())
                        for x in (cls.arc_width, cls.v, cls.w)]


class TestClassifySpecBitIdentity:
    """The array-pass classify_spec against the per-interval loop."""

    @pytest.mark.parametrize("kind", ["zero-runs", "atoms", "touch", "seam", "full", "width"])
    def test_random_specs(self, rng, kind):
        tags = set()
        for _ in range(150):
            spec = random_support_spec(rng, kind)
            got = classify_spec(spec)
            assert class_bits(got) == class_bits(reference_classify_spec(spec))
            tags.add(got.tag)
        if kind == "width":
            assert tags == {GENERAL_POSITION, SEMICIRCLE}

    def test_positive_density_shortcut(self, rng, monkeypatch):
        merged = []
        merge = pipeline._classify_intervals
        monkeypatch.setattr(pipeline, "_classify_intervals",
                            lambda spec: merged.append(spec) or merge(spec))
        for trial in range(100):
            t = np.unique(rng.uniform(0.0, TWO_PI, int(rng.integers(1, 300))))
            dens = PiecewiseLinearDensity(t, rng.uniform(1e-300, 2.0, t.size))
            atoms = None
            if trial % 2:  # some before the first knot
                k = int(rng.integers(1, 6))
                atoms = DiscreteMeasure(rng.uniform(0.0, t[0] if trial % 4 == 1 else TWO_PI, k),
                                        rng.uniform(0.1, 2.0, k))
            spec = MeasureSpec(atoms, dens)
            got, want = classify_spec(spec), merge(spec)
            assert class_bits(got) == class_bits(MeasureClass(GENERAL_POSITION, TWO_PI))
            assert class_bits(got) == class_bits(want)
        assert merged == []

    @pytest.mark.parametrize("atoms", [[0.3, 0.6], [0.3, 0.6, 0.9]])
    def test_atoms_before_the_first_knot_join_across_the_seam(self, atoms):
        # The density's wrap interval reaches past 2 pi over every atom, so
        # the one gap is the zero run from knot 50 to knot 52.
        t = np.linspace(1.0, TWO_PI - 0.01, 200)
        f = np.ones(200)
        f[50:53] = 0.0
        spec = MeasureSpec(DiscreteMeasure(atoms, np.ones(len(atoms))),
                           PiecewiseLinearDensity(t, f))
        got = classify_spec(spec)
        assert got.tag == GENERAL_POSITION
        assert got.arc_width == TWO_PI - (t[52] - t[50])
        assert got.arc_width == pytest.approx(6.230188, abs=1e-6)
        assert class_bits(got) == class_bits(reference_classify_spec(spec))

    def test_one_zero_sample_takes_the_merge(self, rng, monkeypatch):
        merged = []
        merge = pipeline._classify_intervals
        monkeypatch.setattr(pipeline, "_classify_intervals",
                            lambda spec: merged.append(spec) or merge(spec))
        t = np.unique(rng.uniform(0.0, TWO_PI, 50))
        f = rng.uniform(0.1, 2.0, t.size)
        f[17] = 0.0
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, f))
        got = classify_spec(spec)
        assert merged == [spec]
        assert class_bits(got) == class_bits(reference_classify_spec(spec))

    def test_tied_widest_gaps(self):
        # an atom opposite a 2^-42-wide density bump: two widest gaps, equal
        # to the last bit, so the tie rule picks the semicircle
        d = 2.0 ** -42
        for c in (0.5, 1.0, 2.0, 3.0):
            dens = PiecewiseLinearDensity([c, c + d / 2, c + d, c + 2, c + 4], [0, 1, 0, 0, 0])
            spec = MeasureSpec(DiscreteMeasure([c + d / 2 + math.pi], [1.0]), dens)
            got = classify_spec(spec)
            assert got.tag == SEMICIRCLE
            assert class_bits(got) == class_bits(reference_classify_spec(spec))

    def test_noisy_half_sine(self):
        t = TWO_PI * np.arange(1024) / 1024
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, np.maximum(np.sin(t), 0.0)))
        got = classify_spec(spec)
        assert got.tag == GENERAL_POSITION
        assert class_bits(got) == class_bits(reference_classify_spec(spec))

    def test_semicircle_directions(self, rng):
        for _ in range(50):
            spec = MeasureSpec(None, arc_density(float(rng.uniform(0.0, TWO_PI)),
                                                 float(rng.uniform(0.1, 3.0))))
            got = classify_spec(spec)
            assert got.tag == SEMICIRCLE
            assert class_bits(got) == class_bits(reference_classify_spec(spec))


class TestSolveSemicircle:
    def test_single_direction_closed_form(self):
        mu = DiscreteMeasure([math.pi / 2], [3.0])
        P, rep = solve_semicircle(mu, classify(mu), 0.5)
        lam0 = (3.0 * math.sqrt(3.0) / 2.0) ** (2.0 / 3.0)
        i = int(np.argmin(np.abs(P.normals - math.pi / 2)))
        assert P.support[i] == pytest.approx(lam0, abs=1e-10)
        assert rep.residual <= 1e-10

    def test_antipodal_raises(self):
        mu = DiscreteMeasure([0.0, math.pi], [1.0, 1.0])
        with pytest.raises(AntipodalPairError):
            solve_semicircle(mu, classify(mu), 0.5)

    def test_general_position_is_refused(self):
        mu = DiscreteMeasure([0.0, 2.0, 4.0], [1.0, 1.0, 1.0])
        assert classify(mu).tag == GENERAL_POSITION
        with pytest.raises(ConcentratedError, match="needs a concentrated classification"):
            solve_semicircle(mu, classify(mu), 0.5)

    def test_two_atom_reduction(self):
        mu = DiscreteMeasure([math.pi / 3, 2 * math.pi / 3], [1.0, 1.0])
        cls = classify(mu)
        K, rep = solve_semicircle(mu, cls, 0.5, SolverConfig(tol_residual=1e-9))
        assert measure_residual(K, mu, 0.5) <= 1e-8
        # origin sits on the boundary: support in the -w direction is 0
        assert K.support_values([cls.w + math.pi])[0] == pytest.approx(0.0, abs=1e-12)

    def test_halving_identities(self, rng):
        # atoms at both semicircle endpoints: masses there must halve exactly
        for p in (0.3, 0.6):
            w0 = float(rng.uniform(0, TWO_PI))
            th = [w0 - math.pi / 2, w0 - 0.3, w0 + 0.8, w0 + math.pi / 2]
            mu = DiscreteMeasure(th, [1.5, 1.0, 2.0, 0.5])
            cls = classify(mu)
            assert cls.tag == SEMICIRCLE
            K, rep = solve_semicircle(mu, cls, p, SolverConfig(tol_residual=1e-9))
            S = lp_surface_measure(K, p)
            for vv in (cls.v, cls.v + math.pi):
                assert abs(S.mass_at(vv) - mu.mass_at(vv)) <= 1e-8
            # no boundary mass in the open half-circle around -w
            for t, m in zip(S.thetas, S.masses):
                if math.cos(t - (cls.w + math.pi)) > 1e-12:
                    assert m <= 1e-10


class TestAtomicReducedRoutesHonourTheGroup:
    """solve passes the caller's group to the semicircle and single-atom
    routes, which accept it only when the measure can carry it."""

    def semicircle_atoms(self, w):
        # symmetric across the line at w: offsets -+0.4 and -+1.2 with equal masses
        th = [w - 1.2, w - 0.4, w, w + 0.4, w + 1.2]
        return MeasureSpec(DiscreteMeasure(th, [1.0, 2.0, 0.5, 2.0, 1.0]), None)

    def test_incompatible_groups_raise(self):
        spec = self.semicircle_atoms(0.9)
        for G in (SymmetryGroup.cyclic(3), SymmetryGroup.dihedral(1, 0.3)):
            with pytest.raises(NotSymmetricError):
                solve(spec, 0.5, G)

    def test_reflection_across_the_arc_center(self):
        w = 0.9
        spec = self.semicircle_atoms(w)
        K0, rep0 = solve(spec, 0.5)
        G = SymmetryGroup.dihedral(1, w + math.pi)
        K, rep = solve(spec, 0.5, G)
        assert rep0.symmetry == "trivial" and rep.symmetry == G.label()
        assert rep.classification == SEMICIRCLE
        assert rep.residual <= 1e-6
        assert K.support_values([w + 0.4])[0] == pytest.approx(
            K.support_values([w - 0.4])[0], rel=1e-12)
        assert support_distance(K, K0) <= 1e-6
        asym = MeasureSpec(DiscreteMeasure([w - 0.4, w, w + 0.5], [1.0, 1.0, 1.0]), None)
        with pytest.raises(NotSymmetricError):
            solve(asym, 0.5, SymmetryGroup.dihedral(1, w))

    def test_reflection_along_the_chord_is_checked_on_the_input(self):
        # the reflection across lin(v) fixes no semicircle input, and the error says so
        mu = DiscreteMeasure([0.5, 1.0, 2.0], [1.0, 3.0, 0.7])
        cls = classify(mu)
        assert cls.tag == SEMICIRCLE
        G = SymmetryGroup.dihedral(1, cls.v)
        with pytest.raises(NotSymmetricError, match="not invariant"):
            solve(MeasureSpec(mu, None), 0.5, G)
        with pytest.raises(NotSymmetricError, match="not invariant"):
            solve_semicircle(mu, cls, 0.5, None, G)
        spec = MeasureSpec(None, arc_density(0.4, 2.0))
        cls = classify_spec(spec)
        assert cls.tag == SEMICIRCLE
        for axis in (cls.v, cls.v + math.pi, cls.w):
            with pytest.raises(NotSymmetricError, match="not invariant"):
                solve(spec, 0.5, SymmetryGroup.dihedral(1, axis))

    def test_density_reflection_across_the_arc_center(self):
        s = np.linspace(0.0, 2.5, 65)
        f = np.sin(math.pi * s / 2.5) ** 2
        f[-1] = 0.0  # sin(pi) is 1.2e-16
        spec = MeasureSpec(None, PiecewiseLinearDensity(
            np.append(s + 0.7, [4.0, 5.0]), np.append(f, [0.0, 0.0])))
        cls = classify_spec(spec)
        assert cls.tag == SEMICIRCLE
        cfg = PipelineConfig(m0=64, m_max=512)
        K0, rep0 = solve(spec, 0.5, None, cfg)
        G = SymmetryGroup.dihedral(1, cls.w)
        K, rep = solve(spec, 0.5, G, cfg)
        assert rep.symmetry == G.label() and rep.classification == SEMICIRCLE
        assert rep.residual <= 1e-6
        assert support_distance(K, K0) <= 1e-3 * K0.diameter()

    def test_a_give_up_names_the_group_asked_for(self):
        # half_group restates D1 across lin(w) with the axis w itself; the
        # report of a failed solve, atomic or a density's stage, names the
        # axis w + pi asked for, as a solved one does
        s = np.linspace(0, TWO_PI, 64, endpoint=False)
        f = np.where(s < math.pi, np.sin(s) ** 2, 0.0)
        f[0] = 0.0
        density = MeasureSpec(None, PiecewiseLinearDensity((s + 0.7 - math.pi / 2) % TWO_PI, f))
        for spec, w in ((self.semicircle_atoms(0.9), 0.9), (density, 0.7)):
            assert classify_spec(spec).w == pytest.approx(w, abs=1e-12)
            G = SymmetryGroup.dihedral(1, w + math.pi)
            with pytest.raises(NoConvergenceError) as exc:
                solve(spec, 0.5, G, PipelineConfig(tol_residual=1e-30))
            report = exc.value.report
            assert report.symmetry == G.label() == f"D1:{w + math.pi:.12g}"
            assert report.classification == SEMICIRCLE

    def test_single_atom_groups(self):
        spec = MeasureSpec(DiscreteMeasure([1.0], [4.0]), None)
        for G in (SymmetryGroup.cyclic(4), SymmetryGroup.dihedral(1, 1.3),
                  SymmetryGroup.dihedral(2, 1.0)):
            with pytest.raises(NotSymmetricError):
                solve(spec, 0.25, G)
        P0, rep0 = solve(spec, 0.25)
        assert rep0.symmetry == "trivial"
        for axis in (1.0, 1.0 + math.pi):
            P, rep = solve(spec, 0.25, SymmetryGroup.dihedral(1, axis))
            assert rep.symmetry == SymmetryGroup.dihedral(1, axis).label()
            assert np.array_equal(P.support, P0.support)


class TestGroupOrderBound:
    """A grid under rotation order k has at least 4 k arcs whatever m is,
    so a density input under k > m_max is refused before any grid exists."""

    @pytest.mark.parametrize("symmetry", ["C100000000", "D100000000:0.5", "C257"])
    def test_solve_refuses_a_group_order_above_m_max(self, monkeypatch, symmetry):
        built = []
        monkeypatch.setattr(pipeline, "discretize_symmetric",
                            lambda *args, **kwargs: built.append(args))
        G = parse_symmetry(symmetry)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"symmetry {G.label()}: rotation order "
                                             f"{G.order_k} is above m_max = 256"):
            solve(uniform_density_spec(), 0.5, G, PipelineConfig(m0=64, m_max=256))
        assert time.perf_counter() - t0 < 1.0
        assert built == []

    def test_an_order_at_m_max_solves(self):
        P, report = solve(uniform_density_spec(), 0.5, SymmetryGroup.cyclic(64),
                          PipelineConfig(m0=64, m_max=64))
        assert report.symmetry == "C64" and P.n == 256


class TestSolveRouting:
    def test_atomic_general_position(self):
        spec = MeasureSpec(DiscreteMeasure(
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], [2.0] * 4), None)
        P, rep = solve(spec, 0.5)
        assert np.allclose(P.support, 1.0, rtol=1e-6)
        assert rep.classification == GENERAL_POSITION

    def test_antipodal_fast_error(self):
        spec = MeasureSpec(DiscreteMeasure([0.3, 0.3 + math.pi], [1, 2]), None)
        t0 = time.perf_counter()
        with pytest.raises(AntipodalPairError):
            solve(spec, 0.5)
        assert time.perf_counter() - t0 < 0.01

    def test_single_atom_routing(self):
        spec = MeasureSpec(DiscreteMeasure([1.0], [4.0]), None)
        P, rep = solve(spec, 0.25)
        assert rep.classification == SINGLE_DIRECTION
        assert measure_residual(P, spec.atoms, 0.25) <= 1e-10

    def test_loop_reports_the_final_stage_residual(self):
        t = np.linspace(0, TWO_PI, 64, endpoint=False)
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, 1.0 + 0.3 * np.cos(3 * t)))
        P, rep = solve(spec, 0.5, None, PipelineConfig(m0=64, m_max=256))
        final = measure_residual(P, discretize(spec, rep.m_final), 0.5)
        assert rep.residual == final == rep.loop_history[-1]["residual"]

    def test_uniform_density_disk_limit(self):
        spec = uniform_density_spec()
        cfg = PipelineConfig(m0=64, m_max=512)
        P, rep = solve(spec, 0.5, None, cfg)
        # f = 1 corresponds to the unit disk: support close to 1 from inside
        assert P.support.min() > 0.99
        assert P.support.max() < 1.01
        assert rep.m_final is not None
        assert rep.loop_history

    def test_density_semicircle_route(self):
        # density supported inside an arc narrower than a half-circle
        t = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9,
                      3.0, 4.0, 5.0, 6.0])
        f = np.array([0.0, 1.2, 1.0, 0.8, 1.0, 1.1, 1.0,
                      0.0, 0.0, 0.0, 0.0])
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, f))
        cls = classify_spec(spec)
        assert cls.tag == SEMICIRCLE
        cfg = PipelineConfig(m0=64, m_max=256)
        K, rep = solve(spec, 0.5, None, cfg)
        assert rep.classification == SEMICIRCLE
        # support vanishes opposite the measure's arc
        assert K.support_values([cls.w + math.pi])[0] == pytest.approx(0.0, abs=1e-10)

    def test_cut_normal_already_a_facet(self):
        # A grid midpoint and an atom at the semicircle's centre w sit
        # opposite the chord normal w + pi, which the half body carries once,
        # at support 0
        psi = 0.4
        t = psi + np.linspace(0.0, TWO_PI, 256, endpoint=False)
        s = t - psi
        f = np.where(s < math.pi, np.sin(s) ** 2, 0.0)
        f[0] = f[128] = 0.0
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, f))
        cls = classify_spec(spec)
        assert cls.tag == SEMICIRCLE
        K, rep = solve(spec, 0.5, None, PipelineConfig(m0=64, m_max=128))
        assert rep.m_final == 128
        assert K.support_values([cls.w + math.pi])[0] == pytest.approx(0.0, abs=1e-12)
        atoms = MeasureSpec(DiscreteMeasure([1.0, 1.7, 2.4], [1.0, 2.0, 1.5]), None)
        assert classify_spec(atoms).w == pytest.approx(1.7, abs=1e-15)
        K, rep = solve(atoms, 0.5)
        assert rep.classification == SEMICIRCLE
        assert measure_residual(K, atoms.atoms, 0.5) <= 1e-6

    def test_boundedness_monitor(self):
        spec = uniform_density_spec()
        cfg = PipelineConfig(m0=64, m_max=512)
        P, rep = solve(spec, 0.5, None, cfg)
        diams = [e["diameter"] for e in rep.loop_history]
        assert max(diams) <= 10.0 * diams[0]

    def test_m0_above_mmax_rejected(self):
        # the loop would otherwise run no stage and have no body to return
        with pytest.raises(ValueError):
            PipelineConfig(m0=128, m_max=64)

    def test_numpy_integer_resolutions(self):
        spec = uniform_density_spec()
        texts = []
        for m0, m_max in ((64, 128), (np.int64(64), np.int64(128))):
            cfg = PipelineConfig(m0=m0, m_max=m_max)
            assert type(cfg.m0) is int and type(cfg.m_max) is int
            P, rep = solve(spec, 0.5, None, cfg)
            texts.append(dumps_canonical(polygon_to_dict(P)) + dumps_canonical(rep.to_dict()))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("field, kwargs", [("m0", {"m0": 64.0}),
                                               ("m_max", {"m_max": 8192.5})])
    def test_non_integer_resolutions_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            PipelineConfig(**kwargs)

    def test_mmax_warning(self):
        spec = uniform_density_spec()
        cfg = PipelineConfig(m0=8, m_max=16)
        P, rep = solve(spec, 0.5, None, cfg)
        assert NO_CONVERGENCE_WARNING in rep.warnings


def manufactured_spec(p, phases, knots=4096):
    """Density h^(1-p) (h'' + h) of h = 1 + 0.05 cos(2t + a) + 0.02 cos(5t + b),
    and h itself."""
    a, b = phases

    def h(t):
        return 1.0 + 0.05 * np.cos(2 * t + a) + 0.02 * np.cos(5 * t + b)

    t = TWO_PI * np.arange(knots) / knots
    f = h(t) ** (1.0 - p) * (1.0 - 0.15 * np.cos(2 * t + a) - 0.48 * np.cos(5 * t + b))
    return MeasureSpec(None, PiecewiseLinearDensity(t, f)), h


class TestMidpointRefinementLoop:
    """Every group's loop solves arc-midpoint grids: second order in m."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_second_order_on_manufactured_densities(self, rng, p):
        spec, h = manufactured_spec(p, rng.uniform(0.0, TWO_PI, 2))
        t = TWO_PI * np.arange(8192) / 8192

        def error(P):
            return float(np.max(np.abs(P.support_values(t) - h(t))) / h(t).max())

        P, rep = solve(spec, p)
        assert not rep.warnings
        assert [e["n_atoms"] for e in rep.loop_history] == [
            2 * 3 * (e["m"] // 3) for e in rep.loop_history]
        assert error(P) <= 5e-5
        errors = [error(solve(spec, p, None, PipelineConfig(m0=m, m_max=m))[0])
                  for m in (64, 128, 256, 512)]
        assert all(e1 >= 3.0 * e2 for e1, e2 in zip(errors, errors[1:])), errors

    def test_support_just_wider_than_pi_gives_up_at_once(self):
        t = TWO_PI * np.arange(1024) / 1024
        noisy = PiecewiseLinearDensity(t, np.maximum(np.sin(t), 0.0))
        for dens in (noisy, arc_density(0.4, math.pi + 0.02)):
            spec = MeasureSpec(None, dens)
            assert classify_spec(spec).tag == GENERAL_POSITION
            t0 = time.perf_counter()
            with pytest.raises(NoConvergenceError,
                               match=r"stage m = 64: the grid measure lies in a closed semicircle"):
                solve(spec, 0.5)
            assert time.perf_counter() - t0 < 0.1

    def test_residual_give_up_names_the_stage(self):
        with pytest.raises(NoConvergenceError, match=r"^stage m = 64: residual") as info:
            solve(uniform_density_spec(), 0.5, None, PipelineConfig(tol_residual=1e-30))
        assert info.value.report is not None

    @pytest.mark.parametrize("G", [SymmetryGroup.cyclic(50), SymmetryGroup.dihedral(50, 0.0)],
                             ids=lambda G: G.label())
    def test_no_stage_repeats_the_grid_before(self, G):
        # l = 50: m = 64 and m = 128 both give 2 arcs per orbit, the same
        # grid, whose second solve would compare a body with itself
        t = TWO_PI * np.arange(5000) / 5000
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, 1.0 + 0.9 * np.cos(50 * t)))
        assert np.array_equal(discretize(spec, 64, G).thetas, discretize(spec, 128, G).thetas)
        _, rep = solve(spec, 0.5, G)
        n_atoms = [e["n_atoms"] for e in rep.loop_history]
        assert len(n_atoms) >= 2 and all(a != b for a, b in zip(n_atoms, n_atoms[1:]))
        _, rep = solve(spec, 0.5, G, PipelineConfig(m0=64, m_max=128))
        assert len(rep.loop_history) == 1 and rep.warnings == [NO_CONVERGENCE_WARNING]

    def test_support_wider_by_0_3_solves(self):
        spec = MeasureSpec(None, arc_density(0.4, math.pi + 0.3))
        P, rep = solve(spec, 0.5)
        assert not rep.warnings
        assert rep.residual <= 1e-6


def rounded_rectangle_spec(p, r, a, b, phase, knots=4096):
    """Lp surface measure of the rectangle [-a, a] x [-b, b] plus the disk
    of radius r, rotated by phase: atoms h^(1-p) (edge length) at the four
    facet normals, and the density h^(1-p) r, for the support function
    h = a |cos s| + b |sin s| + r, s = t - phase.  Returns the measure and h."""

    def h(t):
        s = t - phase
        return a * np.abs(np.cos(s)) + b * np.abs(np.sin(s)) + r

    normals = phase + math.pi / 2 * np.arange(4)
    atoms = DiscreteMeasure(normals, h(normals) ** (1.0 - p) * np.array([2 * b, 2 * a] * 2))
    t = TWO_PI * np.arange(knots) / knots
    return MeasureSpec(atoms, PiecewiseLinearDensity(t, h(t) ** (1.0 - p) * r)), h


class TestMixedInputs:
    """Atoms and a density together: the grid bins the density alone and the
    atoms keep their angles, so the loop converges at the density's rate.
    Moving each atom to its arc's midpoint kept the first rounded square
    from converging by m = 8192."""

    @staticmethod
    def error(P, h):
        t = TWO_PI * np.arange(8192) / 8192
        return float(np.max(np.abs(P.support_values(t) - h(t))) / h(t).max())

    @pytest.mark.parametrize("p, r, a, b, phase", [(0.5, 0.3, 1.0, 1.0, 0.0),
                                                   (0.3, 0.5, 1.5, 1.0, 0.2),
                                                   (0.7, 0.2, 1.0, 2.0, 1.0)])
    def test_rounded_rectangles(self, p, r, a, b, phase):
        spec, h = rounded_rectangle_spec(p, r, a, b, phase)
        P, rep = solve(spec, p)
        assert not rep.warnings and rep.m_final <= 256
        assert self.error(P, h) <= 5e-5

    def test_rounded_square_under_d4(self):
        # the facet normals are midpoints of every D4 grid: each atom merges
        # into its midpoint's density mass, one atom per arc
        spec, h = rounded_rectangle_spec(0.5, 0.3, 1.0, 1.0, 0.0)
        G = SymmetryGroup.dihedral(4, 0.0)
        assert discretize(spec, 64, G).n == 128
        P, rep = solve(spec, 0.5, G)
        assert rep.symmetry == "D4:0" and not rep.warnings and rep.m_final <= 256
        assert self.error(P, h) <= 5e-5


def symmetric_manufactured_spec(k, dihedral, p, psi, knots):
    """Density of h = 1 + a cos(k s) + b cos(2k s), s = t - psi, on knots
    anchored at psi: invariant under C_k, and under D_k with axis psi.
    Returns the measure, h and the group."""
    a, b = 0.3 / (k * k - 1), 0.15 / (4 * k * k - 1)

    def h(t):
        s = t - psi
        return 1.0 + a * np.cos(k * s) + b * np.cos(2 * k * s)

    t = psi + TWO_PI * np.arange(knots) / knots
    s = t - psi
    f = h(t) ** (1.0 - p) * (1.0 + a * (1 - k * k) * np.cos(k * s)
                             + b * (1 - 4 * k * k) * np.cos(2 * k * s))
    G = SymmetryGroup.dihedral(k, psi % math.pi) if dihedral else SymmetryGroup.cyclic(k)
    return MeasureSpec(None, PiecewiseLinearDensity(t, f)), h, G


def semicircle_manufactured_spec(p, psi, knots=2048):
    """Clean semicircle density: h'' + h = sin^2 s (2 + cos(2s) / 4) for
    s = t - psi in (0, pi), exactly 0 elsewhere, and the support function
    of the half body that solves it, the half of the even body g."""
    c0, c2, c4 = 1.0 - 0.25 / 4, 1.75 / 6, 0.25 / 60

    def g(s):
        return c0 + c2 * np.cos(2 * s) + c4 * np.cos(4 * s)

    s = TWO_PI * np.arange(knots) / knots
    f = g(s) ** (1.0 - p) * np.sin(s) ** 2 * (2.0 + 0.25 * np.cos(2 * s))
    f[0] = 0.0
    f[knots // 2:] = 0.0

    def h(t):
        s = (t - psi) % TWO_PI
        return np.where(s <= math.pi, g(s), np.maximum(g(0.0) * np.cos(s), -g(math.pi) * np.cos(s)))

    return MeasureSpec(None, PiecewiseLinearDensity(s + psi, f)), h


def invariant_density_spec(G, psi, knots=240):
    """A positive density on knots anchored at psi, invariant under G (for a
    dihedral G, psi is on an axis)."""
    k = G.order_k
    t = psi + TWO_PI * np.arange(knots) / knots
    s = t - psi
    f = 1.0 + 0.3 * np.cos(k * s) + 0.1 * np.cos(2 * k * s)
    if G.kind == "cyclic":
        f += 0.2 * np.sin(2 * k * s)
    return MeasureSpec(None, PiecewiseLinearDensity(t, f))


STAGE_GROUPS = [("C", 2), ("C", 3), ("C", 4), ("D", 1), ("D", 2), ("D", 5)]


def stage_cases(rng):
    for kind, k in STAGE_GROUPS:
        psi = float(rng.uniform(0.0, TWO_PI / k))
        G = SymmetryGroup.cyclic(k) if kind == "C" else SymmetryGroup.dihedral(k, psi % math.pi)
        yield G, invariant_density_spec(G, psi)


def assert_union_find_orbits(orb, normals, G):
    """orb is the union-find's partition of normals under G, in C-ordered
    blocks: OrbitStructure.average sums an F-ordered block column-wise,
    which moves a mean in its last bit."""
    got, want = orbit_index_sets(orb), reference_orbit_partition(normals, G)[0]
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(rows.flags.c_contiguous for rows in orb.blocks)


def assert_stage_orbits(spec, G, l, m, grid=None):
    """orbit_partition under G is the union-find on the atoms of the stage
    discretize_symmetric(spec, grid, l, m), grid G by default, sorted, as
    solve_discrete builds its orbits, and unsorted, the last atom moved to
    the front.  Returns the stage's atoms."""
    t = discretize_symmetric(spec, grid or G, l, m).thetas
    for normals in (t, np.roll(t, 1)):
        assert_union_find_orbits(orbit_partition(normals, G), normals, G)
    return t


class TestStageOrbitHandoff:
    """Each symmetric stage builds its orbits once, with orbit_partition on
    the sorted stage measure in solve_discrete: invariant_orbits checks the
    binned masses against them and averages them into Newton's targets, and
    the Newton workspace averages the start and each step over them, so
    every iterate is constant on each orbit.  They are the union-find's."""

    def test_stage_orbits_equal_the_union_find(self, rng):
        for G, spec in stage_cases(rng):
            l = G.order_k * -(-3 // G.order_k)  # the least multiple of k that is >= 3
            for m in (64, 128, 256, 512):
                t = assert_stage_orbits(spec, G, l, max(2, m // l))
                assert np.array_equal(t, discretize(spec, m, G).thetas)

    def test_solver_builds_each_stages_orbits(self, rng, monkeypatch):
        built = []
        real = solver.orbit_partition

        def spy(normals, G):
            built.append((np.array(normals), G))
            return real(normals, G)

        monkeypatch.setattr(solver, "orbit_partition", spy)
        for G, spec in stage_cases(rng):
            built.clear()
            _, rep = solve(spec, 0.5, G)
            # solve_discrete's build alone, on the stage's binned measure
            assert len(built) == len(rep.loop_history)
            for (normals, G_stage), entry in zip(built, rep.loop_history):
                assert G_stage == G and len(normals) == entry["n_atoms"]
                assert np.array_equal(normals, discretize(spec, entry["m"], G).thetas)
                assert_union_find_orbits(real(normals, G), normals, G)

    def test_no_angle_matching_in_density_solves(self, rng, monkeypatch):
        # nor in atomic C_k and D_k solves, nor in semicircle solves under
        # D1, nor in detect_symmetry: no lpmink code path matches angles
        calls = []
        lookup = geometry.group_orbit_map

        def counted(normals, A, tol=1e-9):
            calls.append(len(normals))
            return lookup(normals, A, tol)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "lpmink" and getattr(module, "group_orbit_map", 0) is lookup:
                monkeypatch.setattr(module, "group_orbit_map", counted)
        for k, dihedral, knots in ((4, False, 4096), (5, True, 4000)):
            spec, _, G = symmetric_manufactured_spec(k, dihedral, 0.5,
                                                     float(rng.uniform(0.0, TWO_PI / k)), knots)
            _, rep = solve(spec, 0.5, G)
            assert len(rep.loop_history) >= 2
            assert detect_symmetry(spec).order_k == k
        for G in (SymmetryGroup.cyclic(3), SymmetryGroup.dihedral(4, 0.3),
                  SymmetryGroup.dihedral(2, 1.1)):
            base = rng.uniform(0.0, TWO_PI, 2)
            thetas = np.concatenate([A.apply_angles(base) for A in G.elements()])
            atoms = DiscreteMeasure(thetas, np.tile([1.0, 2.5], len(G.elements())))
            _, rep = solve(MeasureSpec(atoms, None), 0.5, G)
            assert rep.symmetry == G.label() and rep.residual <= 1e-6
            assert detect_symmetry(MeasureSpec(atoms, None)).order_k == G.order_k
        w = float(rng.uniform(0.0, TWO_PI))
        atoms = DiscreteMeasure([w - 1.2, w - 0.4, w, w + 0.4, w + 1.2], [1.0, 2.0, 0.5, 2.0, 1.0])
        spec, _ = semicircle_manufactured_spec(0.5, w)
        for semicircle in (MeasureSpec(atoms, None), spec):
            G = SymmetryGroup.dihedral(1, classify_spec(semicircle).w)
            _, rep = solve(semicircle, 0.5, G)
            assert rep.classification == SEMICIRCLE and rep.symmetry == G.label()
            assert detect_symmetry(semicircle).kind == "dihedral"
        assert calls == []

    def test_hand_built_measures_are_still_checked(self, rng):
        G = SymmetryGroup.cyclic(4)
        mu = discretize(invariant_density_spec(G, 0.2), 64, G)
        masses = mu.masses.copy()
        masses[3] *= 1.0 + 1e-6
        odd = DiscreteMeasure(mu.thetas, masses)
        with pytest.raises(NotSymmetricError, match="not constant on group orbits"):
            solver.solve_discrete(odd, 0.5, G)
        moved = DiscreteMeasure(np.append(mu.thetas[1:], mu.thetas[0] + 1e-3), mu.masses)
        with pytest.raises(NotSymmetricError, match="not in the set"):
            solver.solve_discrete(moved, 0.5, G)
        with pytest.raises(NotSymmetricError, match="cannot be invariant under C4"):
            solver.solve_discrete(DiscreteMeasure(mu.thetas[1:], mu.masses[1:]), 0.5, G)


def zero_arc_density_spec(G, psi, knots=240):
    """invariant_density_spec's shape clipped at 0: exactly 0 on whole arcs
    of every stage's grid."""
    spec = invariant_density_spec(G, psi, knots)
    d = spec.density
    return MeasureSpec(None, PiecewiseLinearDensity(d.knots, np.maximum(d.values - 1.2, 0.0)))


class TestGridOrbits:
    """orbit_partition on grid measures, which follow the index structure of
    their grid: the partitions must be the union-find's."""

    GROUPS = [(SymmetryGroup.cyclic(2), 4), (SymmetryGroup.dihedral(2, 0.4), 4),
              (SymmetryGroup.cyclic(5), 5), (SymmetryGroup.dihedral(5, 0.4), 5)]

    @pytest.mark.parametrize("G, l", GROUPS, ids=lambda x: x.label() if isinstance(x, SymmetryGroup)
                             else str(x))
    def test_k_up_to_l(self, rng, G, l):
        for m in (2, 3, 16, 51):
            mids = assert_stage_orbits(invariant_density_spec(G, G.axis), G, l, m)
            assert len(mids) == 2 * l * m

    @pytest.mark.parametrize("G, l", GROUPS, ids=lambda x: x.label() if isinstance(x, SymmetryGroup)
                             else str(x))
    def test_zero_mass_arcs_drop_as_orbits(self, G, l):
        spec = zero_arc_density_spec(G, G.axis)
        for m in (8, 32, 64):
            mids = assert_stage_orbits(spec, G, l, m)
            assert 0 < len(mids) < 2 * l * m

    @pytest.mark.parametrize("G, l", GROUPS, ids=lambda x: x.label() if isinstance(x, SymmetryGroup)
                             else str(x))
    def test_atoms_on_the_first_cut_points(self, G, l):
        # atoms on the cut points, an invariant set: they keep their angles,
        # between two arcs whose midpoints keep theirs
        m = 6
        cuts = _symmetric_base_angles(G, l, m)
        dens = invariant_density_spec(G, G.axis).density
        spec = MeasureSpec(DiscreteMeasure(cuts, np.full(len(cuts), 0.5)), dens)
        t = assert_stage_orbits(spec, G, l, m)
        assert len(t) == 2 * len(cuts) and np.isin(cuts, t).all()

    def test_half_grid_reflects_across_the_semicircle_centre(self, rng):
        # the half group's axis lin(w) is not the grid's axis lin(v): the
        # grid is D2's at v, which holds both reflections
        for _ in range(4):
            spec, _ = semicircle_manufactured_spec(0.5, float(rng.uniform(0.0, TWO_PI)))
            cls = classify_spec(spec)
            H = pipeline.half_group(SymmetryGroup.dihedral(1, cls.w), cls.w)
            for m in (64, 128, 256):
                t = assert_stage_orbits(spec, H, 4, m // 4, SymmetryGroup.dihedral(2, cls.v))
                assert np.array_equal(t, pipeline.stage_measure(spec, m, H, cls).thetas)

    @pytest.mark.parametrize("G", [SymmetryGroup.cyclic(4), SymmetryGroup.dihedral(5, 0.4)],
                             ids=lambda G: G.label())
    def test_kept_arcs_that_split_an_orbit_raise(self, G):
        # one atom at the midpoint of each chosen arc keeps exactly those
        l, m = G.order_k, 4
        pts = _symmetric_base_angles(G, l, m)
        mids = canonical_angles(0.5 * (pts + np.append(pts[1:], pts[0] + TWO_PI)))

        def on_arcs(arcs):
            return MeasureSpec(DiscreteMeasure(mids[arcs], np.ones(len(arcs))), None)

        def solved(arcs):  # the grid bins the atoms; the solver refuses them
            return solver.solve_discrete(discretize_symmetric(on_arcs(arcs), G, l, m), 0.5, G)

        arcs = np.arange(len(pts))
        assert discretize_symmetric(on_arcs(arcs), G, l, m).n == len(pts)
        lacks = f"not invariant under {G.label()}: "
        with pytest.raises(NotSymmetricError, match=f"{lacks}{len(pts) - 1} normals cannot be "
                                                    f"invariant under {G.label()}"):
            solved(np.delete(arcs, 3))
        with pytest.raises(NotSymmetricError, match=f"{lacks}normal at .* not in the set"):
            solved(np.delete(arcs, np.arange(3, 3 + G.order_k)))

    @pytest.mark.parametrize("k, dihedral, knots", [(4, False, 4096), (5, True, 4000)])
    def test_bench_densities_match_union_find_orbits(self, monkeypatch, k, dihedral, knots):
        # the union-find's orbits, in blocks whose rows list their indices
        # in increasing order, in place of the index arithmetic's: the same
        # sums, so every stage gives the same bytes
        workloads = import_bench_module("workloads")
        case = workloads.symmetric_density(np.random.default_rng(1), k, dihedral, 0.5, knots)
        spec = measure_spec_from_dict(json.loads(case.measure_json))
        G = parse_symmetry(case.symmetry, spec)
        P, rep = solve(spec, case.p, G)

        def union_find(normals, G):
            # indices grouped by label, one matrix per group size with a
            # row per group in index order
            labels = reference_orbit_partition(normals, G)[2]
            size = np.bincount(labels)[labels]
            order = np.lexsort((labels, size))
            cuts = np.flatnonzero(np.diff(size[order])) + 1
            return solver.OrbitStructure([rows.reshape(-1, size[rows[0]])
                                          for rows in np.split(order, cuts)])

        monkeypatch.setattr(solver, "orbit_partition", union_find)
        Q, rep_q = solve(spec, case.p, G)
        assert len(rep.loop_history) >= 2
        assert rep_q.loop_history == rep.loop_history
        assert np.array_equal(P.normals, Q.normals)
        assert np.array_equal(P.support, Q.support)
        assert np.array_equal(P.vertices, Q.vertices)


class TestHalfGrid:
    """stage_measure on a closed semicircle is discretize's grid under D1 at
    the semicircle's end v, or D2 at v when the caller's group keeps the
    reflection across the semicircle's centre lin(w)."""

    @pytest.mark.parametrize("psi", [0.4, 2.1, 5.3])
    def test_is_discretize_under_d1_or_d2_at_the_end(self, psi):
        workloads = import_bench_module("workloads")
        spec = measure_spec_from_dict(json.loads(workloads.semicircle_density(0.5, psi).measure_json))
        cls = classify_spec(spec)
        assert cls.tag == SEMICIRCLE
        for G, k, counts in ((SymmetryGroup.trivial(), 1, (64, 127, 256)),
                             (SymmetryGroup.dihedral(1, cls.w), 2, (65, 129, 257))):
            for m, n in zip((64, 128, 256), counts):
                mu = pipeline.stage_measure(spec, m, G, cls)
                grid = discretize(spec, m, SymmetryGroup.dihedral(k, cls.v))
                assert mu.thetas.tobytes() == grid.thetas.tobytes()
                assert mu.masses.tobytes() == grid.masses.tobytes()
                assert mu.n == n
                for end in (cls.v, cls.v - math.pi):  # both ends are atoms
                    assert geometry.circular_distances(mu.thetas, end).min() <= 1e-15


class TestNoSweepOnAllActiveSolves:
    """Bodies with every facet active never enter the deque sweep: all
    intersections of consecutive lines clear every constraint."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = geometry._halfplane_chain

        def counted(u, h):
            calls.append(len(h))
            return sweep(u, h)

        monkeypatch.setattr(geometry, "_halfplane_chain", counted)
        return calls

    def test_trivial_group_density_loop(self, rng, sweeps):
        spec, _ = manufactured_spec(0.5, rng.uniform(0.0, TWO_PI, 2))
        solve(spec, 0.5)
        assert sweeps == []

    def test_symmetric_density_loop(self, rng, sweeps):
        spec, _, G = symmetric_manufactured_spec(5, True, 0.5, float(rng.uniform(0.0, TWO_PI / 5)),
                                                 4000)
        solve(spec, 0.5, G)
        assert sweeps == []

    def test_atomic_solves(self, rng, sweeps):
        for _ in range(20):
            P, _ = solver.solve_discrete(random_general_position_measure(rng), 0.5)
            assert P.active.all()
        assert sweeps == []

    def test_semicircle_solves(self, rng, sweeps):
        # the half body with the chord at support 0 has every facet active
        spec, _ = semicircle_manufactured_spec(0.5, float(rng.uniform(0.0, TWO_PI)))
        P, rep = solve(spec, 0.5)
        assert rep.classification == SEMICIRCLE and P.active.all()
        atoms = MeasureSpec(DiscreteMeasure([1.0, 1.7, 2.4], [1.0, 2.0, 1.5]), None)
        P, rep = solve(atoms, 0.5)
        assert rep.classification == SEMICIRCLE and P.active.all()
        assert sweeps == []


class TestWarmStartedStages:
    """Every stage after the first starts from the interpolated support of
    the previous body, inside Newton's basin: at most two Newton steps and
    no pad continuation.  The top-level report counts are the last stage's."""

    GRID = TWO_PI * np.arange(8192) / 8192

    def assert_in_basin(self, spec, h, p, G=None):
        P, rep = solve(spec, p, G)
        assert rep.m_final == 256 and not rep.warnings
        for entry in rep.loop_history[1:]:
            assert entry["outer_iters"] == 0 and entry["newton_iters"] <= 2, rep.loop_history
        last = rep.loop_history[-1]
        assert (rep.newton_iters, rep.outer_iters) == (last["newton_iters"], last["outer_iters"])
        exact = h(self.GRID)
        assert np.max(np.abs(P.support_values(self.GRID) - exact)) <= 2e-5 * exact.max()

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_trivial_group_densities(self, rng, p):
        for _ in range(2):
            spec, h = manufactured_spec(p, rng.uniform(0.0, TWO_PI, 2))
            self.assert_in_basin(spec, h, p)

    @pytest.mark.parametrize("k, dihedral, knots", [(4, False, 4096), (5, True, 4000)])
    def test_symmetric_densities(self, rng, k, dihedral, knots):
        spec, h, G = symmetric_manufactured_spec(
            k, dihedral, 0.5, float(rng.uniform(0.0, TWO_PI / k)), knots)
        self.assert_in_basin(spec, h, 0.5, G)

    def test_semicircle_density(self, rng):
        spec, h = semicircle_manufactured_spec(0.5, float(rng.uniform(0.0, TWO_PI)))
        self.assert_in_basin(spec, h, 0.5)

    def test_semicircle_density_stage_counts(self, rng):
        # the cold first stage too: 7 + 2 + 2 Newton steps on the half
        # problem, as README states, and no continuation
        for _ in range(3):
            spec, _ = semicircle_manufactured_spec(0.5, float(rng.uniform(0.0, TWO_PI)))
            _, rep = solve(spec, 0.5)
            counts = [(e["newton_iters"], e["outer_iters"]) for e in rep.loop_history]
            assert rep.classification == SEMICIRCLE and counts == [(7, 0), (2, 0), (2, 0)]

    def test_one_debug_line_per_stage(self, rng, caplog):
        spec, _ = manufactured_spec(0.5, rng.uniform(0.0, TWO_PI, 2))
        with caplog.at_level(logging.DEBUG, logger="lpmink.pipeline"):
            _, rep = solve(spec, 0.5)
        lines = [r.getMessage() for r in caplog.records if r.name == "lpmink.pipeline"]
        assert len(lines) == len(rep.loop_history)
        for line, entry in zip(lines, rep.loop_history):
            assert line.startswith(f"stage m = {entry['m']}: {entry['n_atoms']} atoms, "
                                   f"{entry['newton_iters']} Newton steps, "
                                   f"{entry['outer_iters']} continuation stages")


class TestInterpolatedWarmStart:
    """pipeline._interpolated_support: the periodic cubic Hermite
    interpolant of a body's support numbers."""

    @staticmethod
    def bodies(rng):
        spec, _ = manufactured_spec(0.5, rng.uniform(0.0, TWO_PI, 2))
        loop_body, _ = solve(spec, 0.5, None, PipelineConfig(m0=64, m_max=64))
        return [loop_body] + [random_general_position_polygon(rng, nmin=3, nmax=60)
                              for _ in range(20)]

    def test_previous_support_numbers_bit_for_bit(self, rng):
        for P in self.bodies(rng):
            assert np.array_equal(pipeline._interpolated_support(P, P.normals), P.support)

    def test_continuous_across_the_seam(self, rng):
        for P in self.bodies(rng):
            scale = np.abs(P.support).max()
            for delta in (1e-9, 1e-6):
                below, above = pipeline._interpolated_support(P, np.array([TWO_PI - delta, delta]))
                assert abs(below - above) <= 1e3 * delta * scale
            # rotating the data moves the seam into the middle of an interval
            t = rng.uniform(0.0, TWO_PI, 500)
            phi = float(rng.uniform(0.0, TWO_PI))
            Q = apply_isometry(P, Isometry2("rotation", phi))
            got = pipeline._interpolated_support(Q, (t + phi) % TWO_PI)
            assert np.allclose(got, pipeline._interpolated_support(P, t), rtol=0, atol=1e-9 * scale)

    @pytest.mark.parametrize("kind", ["trivial", "C4", "D5"])
    def test_all_active_start_on_the_next_grid(self, rng, kind):
        if kind == "trivial":
            spec, _ = manufactured_spec(0.5, rng.uniform(0.0, TWO_PI, 2))
            G = SymmetryGroup.trivial()
        else:
            k, dihedral, knots = (4, False, 4096) if kind == "C4" else (5, True, 4000)
            spec, _, G = symmetric_manufactured_spec(
                k, dihedral, 0.5, float(rng.uniform(0.0, TWO_PI / k)), knots)
        for m in (64, 128):
            P, _ = solve(spec, 0.5, G, PipelineConfig(m0=m, m_max=m))
            mu = discretize(spec, 2 * m, G)
            ws = _Workspace(mu.thetas, mu.masses, 0.5)
            assert ws.edge_form(pipeline._interpolated_support(P, mu.thetas)).min() > 0.0
            # the exact support of P puts new facets through its vertices
            assert ws.edge_form(P.support_values(mu.thetas)).min() <= 1e-12


def isometric_spec(spec, A):
    """The pushforward of spec under the isometry A."""
    if spec.density is None:
        return MeasureSpec(spec.atoms.pushforward(A), None)
    d = spec.density
    return MeasureSpec(None, PiecewiseLinearDensity(A.apply_angles(d.knots), d.values))


def scaled_spec(spec, lam):
    if spec.density is None:
        return MeasureSpec(DiscreteMeasure(spec.atoms.thetas, lam * spec.atoms.masses), None)
    return MeasureSpec(None, PiecewiseLinearDensity(spec.density.knots, lam * spec.density.values))


def equivariance_inputs():
    rng = np.random.default_rng(2024)
    n = 40
    t = TWO_PI * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    atoms = MeasureSpec(DiscreteMeasure(t % TWO_PI, np.exp(rng.uniform(-1.0, 1.0, n))), None)
    k = TWO_PI * np.arange(512) / 512
    f = 1.0 + 0.4 * np.cos(2 * k + 0.3) + 0.2 * np.sin(3 * k + 1.1)
    s = 2.1 + np.sort(rng.uniform(0.02, math.pi - 0.02, 24))
    semicircle_atoms = MeasureSpec(DiscreteMeasure(s % TWO_PI, np.exp(rng.uniform(-1.0, 1.0, 24))),
                                   None)
    return {"atoms": atoms, "density": MeasureSpec(None, PiecewiseLinearDensity(k, f)),
            "semicircle-atoms": semicircle_atoms,
            "semicircle-density": semicircle_manufactured_spec(0.5, 2.1)[0]}


class TestSolveEquivariance:
    """Whole pipeline.solve calls commute with rotations, reflections and
    dilations of the input: solve(A_# mu) = A solve(mu), and solve(lam mu) =
    lam^(1/(2-p)) solve(mu).  Atomic solves agree to rounding.  A density's
    grid does not move with the input, so its bodies agree to the loop's
    own last support_delta.  Both semicircle inputs take the half problem,
    whose grid is aligned with the semicircle."""

    KINDS = ["atoms", "density", "semicircle-atoms", "semicircle-density"]

    GRID = TWO_PI * np.arange(4096) / 4096

    def tolerance(self, P, rep):
        if rep.loop_history is None:
            return 1e-8 * np.abs(P.support_values(self.GRID)).max()
        return rep.loop_history[-1]["support_delta"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("A", [Isometry2("rotation", 1.234), Isometry2("reflection", 0.7)],
                             ids=["rotation", "reflection"])
    def test_isometry_moves_the_body(self, kind, p, A):
        spec = equivariance_inputs()[kind]
        P, rep = solve(spec, p)
        Q, rep_q = solve(isometric_spec(spec, A), p)
        assert rep_q.classification == rep.classification
        err = np.abs(Q.support_values(A.apply_angles(self.GRID)) - P.support_values(self.GRID))
        assert err.max() <= self.tolerance(P, rep)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_dilation_scales_the_body(self, kind, p, lam=3.7):
        spec = equivariance_inputs()[kind]
        P, rep = solve(spec, p)
        Q, _ = solve(scaled_spec(spec, lam), p)
        s = lam ** (1.0 / (2.0 - p))
        err = np.abs(Q.support_values(self.GRID) - s * P.support_values(self.GRID))
        assert err.max() <= s * self.tolerance(P, rep)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("lam", [1e-6, 1e100])
    def test_dilation_scales_the_body_far_from_unit_mass(self, kind, p, lam):
        # inside the mass scales, about 1e-7 to 1e200, where solves keep
        # dilation invariance (ROADMAP item 13)
        self.test_dilation_scales_the_body(kind, p, lam)


class TestMongeAmpereResidual:
    def test_constant_ball_identity(self):
        # h == r solves the ODE with f == r^(2-p)/2 exactly
        n = 128
        r, p = 1.3, 0.4
        h = np.full(n, r)
        f = np.full(n, r ** (2 - p) / 2.0)
        val, _ = ma_residual_from_samples(h, f, p)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_not_applicable_for_atomic(self):
        spec = MeasureSpec(DiscreteMeasure(
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], [2.0] * 4), None)
        P, _ = solve(spec, 0.5)
        assert monge_ampere_residual(P, spec, 0.5) is None

    def test_uniform_density_small_residual(self):
        spec = uniform_density_spec()
        P, _ = solve(spec, 0.5, None, PipelineConfig(m0=64, m_max=512))
        res = monge_ampere_residual(P, spec, 0.5)
        assert res is not None
        assert res <= 1e-2

    def test_residual_shrinks_with_refinement(self):
        t = np.linspace(0, TWO_PI, 512, endpoint=False)
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, 1 + 0.3 * np.cos(t)))
        vals = []
        from lpmink import solve_discrete

        prev = None
        for m in (256, 512, 1024):
            mu_m = discretize(spec, m)
            h0 = prev.support_values(mu_m.thetas) if prev is not None else None
            P, _ = solve_discrete(mu_m, 0.5, h0=h0)
            prev = P
            vals.append(monge_ampere_residual(P, spec, 0.5))
        assert vals[-1] <= 0.75 * vals[0]


class TestDetectSymmetry:
    def test_square_d4(self):
        spec = MeasureSpec(DiscreteMeasure(
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], [2.0] * 4), None)
        G = detect_symmetry(spec)
        assert G.kind == "dihedral" and G.order_k == 4

    def test_skewed_atoms_trivial(self):
        spec = MeasureSpec(DiscreteMeasure([0.0, 1.0, 2.5], [1.0, 2.0, 3.0]), None)
        assert detect_symmetry(spec).is_trivial

    def test_cosine_density_reflection(self):
        t = np.linspace(0, TWO_PI, 64, endpoint=False)
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, 1 + 0.3 * np.cos(t)))
        G = detect_symmetry(spec)
        assert G.kind == "dihedral" and G.order_k == 1
        assert G.axis == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("k", [23, 24, 31, 97, 100, 128, 1000])
    def test_regular_polygon_atoms(self, k):
        # the image of the atom at 2 pi (k - 1) / k under the rotation by
        # 2 pi / k rounds to just below 2 pi, not to 0: each image must pair
        # with its circularly nearest atom, not with the atom of its rank
        spec = MeasureSpec(DiscreteMeasure(TWO_PI * np.arange(k) / k, np.ones(k)), None)
        assert detect_symmetry(spec).label() == f"D{k}:0"

    @pytest.mark.parametrize("dihedral", [False, True])
    @pytest.mark.parametrize("k", range(1, 40))
    def test_three_orbit_atoms(self, k, dihedral):
        """Three orbits of C_k or D_k, one mass each: the group found is
        the one they were built with, its first axis the least one in
        [0, pi), which the candidates through the first atom include."""
        rng = np.random.default_rng(1000 + 2 * k + dihedral)
        axis = float(rng.uniform(0.0, TWO_PI))
        t, m = [], []
        for b, mass in zip(rng.uniform(0.0, TWO_PI / k, 3), (1.0, 2.0, 3.0)):
            orbit = b + TWO_PI * np.arange(k) / k
            if dihedral:
                orbit = np.concatenate((orbit, 2.0 * axis - orbit))
            t.append(orbit)
            m.append(np.full(len(orbit), mass))
        G = detect_symmetry(MeasureSpec(DiscreteMeasure(np.concatenate(t) % TWO_PI,
                                                        np.concatenate(m)), None))
        if not dihedral:
            assert G.label() == ("trivial" if k == 1 else f"C{k}")
            return
        assert G.kind == "dihedral" and G.order_k == k
        assert G.axis == pytest.approx(axis % (math.pi / k), abs=1e-9)

    def test_density_axis_between_two_knots(self):
        # the axis pi / 64 passes through no knot and is perpendicular to none
        t = np.linspace(0, TWO_PI, 64, endpoint=False)
        spec = MeasureSpec(None, PiecewiseLinearDensity(t, 1 + 0.3 * np.cos(t - math.pi / 64)))
        G = detect_symmetry(spec)
        assert G.kind == "dihedral" and G.order_k == 1
        assert G.axis == pytest.approx(math.pi / 64, abs=1e-9)


    def test_constant_density_reads_trivial(self):
        # a constant density has no shape: it constrains nothing
        assert detect_symmetry(uniform_density_spec(2.0, 4096)).is_trivial
        square = DiscreteMeasure(np.arange(4) * math.pi / 2, np.full(4, 2.0))
        spec = MeasureSpec(square, uniform_density_spec(2.0, 4096).density)
        assert detect_symmetry(spec).label() == "D4:0"

    def test_zero_runs_carry_no_shape(self):
        # the knots at 4 and 5 lie inside a run of zeros: the axis is the
        # arc's centre, through no knot and midway between none of those two
        s = np.linspace(0.0, 2.5, 65)
        f = np.sin(math.pi * s / 2.5) ** 2
        f[-1] = 0.0
        spec = MeasureSpec(None, PiecewiseLinearDensity(
            np.append(s + 0.7, [4.0, 5.0]), np.append(f, [0.0, 0.0])))
        G = detect_symmetry(spec)
        assert G.kind == "dihedral" and G.order_k == 1
        assert G.axis == pytest.approx(classify_spec(spec).w, abs=1e-9)

    def test_group_atoms_match_the_brute_probe(self):
        # 384 sets of 1 to 4 C_k or D_k orbits, k <= 16, each orbit's mass
        # from U(0.5, 3), every atom's mass times 1 + eps N(0, 1): eps
        # stays clear of the band between the probe's mass tolerance,
        # 1e-9 absolute, and the solver's, 1e-8 relative to the orbit mean
        rng = np.random.default_rng(7)
        for k in range(1, 17):
            for dihedral in (False, True):
                for eps in (0.0, 1e-11, 1e-6):
                    for n_orbits in range(1, 5):
                        G = (SymmetryGroup.dihedral(k, float(rng.uniform(0.0, math.pi)))
                             if dihedral else SymmetryGroup.cyclic(k))
                        mu = group_atoms(rng, G, n_orbits, eps)
                        want = reference_detect_symmetry(mu).label()
                        assert detect_symmetry(MeasureSpec(mu, None)).label() == want, (G, eps)

    def test_uniform_knot_densities(self):
        # 1 + 0.2 cos k s on 2 k q knots anchored at psi, s = t - psi: D_k
        # across psi; + 0.05 sin k s moves the axis off the knots: C_k
        rng = np.random.default_rng(8)
        for trial in range(48):
            k = 1 + trial % 16
            psi = float(rng.uniform(0.0, TWO_PI))
            knots = 2 * k * int(rng.integers(8, 64))
            t = psi + TWO_PI * np.arange(knots) / knots
            f = 1.0 + 0.2 * np.cos(k * (t - psi)) + 0.05 * (trial % 2) * np.sin(k * (t - psi))
            G = detect_symmetry(MeasureSpec(None, PiecewiseLinearDensity(t, f)))
            assert G.order_k == k
            if trial % 2:
                assert G.kind == ("trivial" if k == 1 else "cyclic")
            else:
                assert G.kind == "dihedral"
                assert G.axis == pytest.approx(psi % (math.pi / k), abs=1e-9)

    @pytest.mark.parametrize("eps", [3e-9, 3e-8])
    def test_detects_exactly_the_groups_the_solver_accepts(self, eps):
        # one atom's mass off by eps: within the solver's 1e-8 relative test
        # or beyond it, and detect_symmetry must agree with solve_discrete
        rng = np.random.default_rng(9)
        accepted = 0
        for k in range(3, 11):
            for dihedral in (False, True):
                G = (SymmetryGroup.dihedral(k, float(rng.uniform(0.0, math.pi / k)))
                     if dihedral else SymmetryGroup.cyclic(k))
                mu = group_atoms(rng, G, 2)
                masses = mu.masses.copy()
                masses[int(rng.integers(mu.n))] *= 1.0 + eps
                mu = DiscreteMeasure(mu.thetas, masses)
                try:
                    solver.solve_discrete(mu, 0.5, G)
                except NotSymmetricError:
                    solves = False
                else:
                    solves = True
                assert (detect_symmetry(MeasureSpec(mu, None)).label() == G.label()) == solves
                accepted += solves
        assert accepted == (16 if eps < 1e-8 else 0)

    def test_large_random_atoms_are_fast(self):
        rng = np.random.default_rng(10)
        spec = MeasureSpec(DiscreteMeasure(rng.uniform(0.0, TWO_PI, 8192),
                                           rng.uniform(0.5, 3.0, 8192)), None)
        t0 = time.perf_counter()
        assert detect_symmetry(spec).is_trivial
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_one_heavier_atom_of_a_regular_polygon(self, monkeypatch, n):
        """A regular n-gon, n a power of two, with one atom of mass 2 far
        from the first eight: the largest-value pair leaves one reflection
        candidate, so _invariant runs once per divisor of n above 1 and once
        for that candidate, and the axis runs through the heavier atom."""
        calls = []
        real = pipeline._invariant

        def spy(sets, G):
            calls.append(G.label())
            return real(sets, G)

        monkeypatch.setattr(pipeline, "_invariant", spy)
        q = n // 3
        masses = np.ones(n)
        masses[q] = 2.0
        spec = MeasureSpec(DiscreteMeasure(TWO_PI * np.arange(n) / n, masses), None)
        t0 = time.perf_counter()
        G = detect_symmetry(spec)
        elapsed = time.perf_counter() - t0
        assert G.kind == "dihedral" and G.order_k == 1
        assert G.axis == pytest.approx(TWO_PI * q / n % math.pi, abs=1e-12)
        assert len(calls) == n.bit_length()  # 2, 4, ..., n, then the one candidate
        assert elapsed < 0.1


def group_atoms(rng, G, n_orbits, eps=0.0):
    """n_orbits G-orbits of random base points, each orbit's mass from
    U(0.5, 3), every atom's mass then times 1 + eps N(0, 1)."""
    t, m = [], []
    for _ in range(n_orbits):
        b = float(rng.uniform(0.0, TWO_PI))
        orbit = [A.apply_angle(b) for A in G.elements()]
        t += orbit
        m += [float(rng.uniform(0.5, 3.0))] * len(orbit)
    m = np.array(m)
    return DiscreteMeasure(t, m * (1.0 + eps * rng.standard_normal(len(m))))


class TestImportFootprint:
    """The solve path needs one routine from scipy, LAPACK dgtsv, and loads
    only the extension that holds it; scipy.linalg's package init, and the
    scipy.optimize and scipy.sparse that only weak_distance needs, take
    longer to import than most solves, as does numpy.ma, which np.unique
    and np.union1d import on a plain call.  Solving an atomic and a density
    input through the CLI module must import none of them, and the LP
    backend must still load afterwards with the same dgtsv.  A CLI solve
    whose body has enough floats for the vectorized writer imports nothing
    that a CLI solve with a small body did not (numpy.strings, numpy.char,
    numpy.ma and decimal would each cost more than the write)."""

    CHILD = """
import sys
import numpy as np
import lpmink
import lpmink.cli
from lpmink import geometry, pipeline, solver
from lpmink.measure import DiscreteMeasure, MeasureSpec, PiecewiseLinearDensity, weak_distance
t = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
mu = DiscreteMeasure(t, [1.0, 2.0, 1.0, 3.0, 1.5])
pipeline.solve(MeasureSpec(mu, None), 0.5)
k = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
pipeline.solve(MeasureSpec(None, PiecewiseLinearDensity(k, 1.0 + 0.2 * np.cos(2.0 * k))), 0.5)
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy") or m == "numpy.ma")))
print(weak_distance(mu, mu))
import scipy.linalg.lapack
print(solver.dgtsv is scipy.linalg.lapack.dgtsv)
"""

    # A CLI solve with a small body, then one whose body takes the vectorized
    # writer: the modules the second solve adds, then the slow ones loaded.
    CHILD_WRITE = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
import lpmink.cli
from lpmink.serialization import _KERNEL_MIN
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    n = _KERNEL_MIN // 4 + 40
    t = (2.0 * np.pi * (np.arange(n) + 0.25 * np.sin(np.arange(n))) / n).tolist()
    for name, thetas in (("small", t[::n // 5]), ("large", t)):
        atoms = [{"theta": a, "mass": 1.0 + 0.5 * np.cos(a)} for a in thetas]
        (tmp / f"{name}.json").write_text(json.dumps({"atoms": atoms, "density": None}))
    def solve(name):
        args = ["--input", str(tmp / f"{name}.json"), "--output", str(tmp / f"{name}.body.json")]
        assert lpmink.cli.main(["solve", "--p", "0.5", *args]) == 0
    solve("small")
    before = set(sys.modules)
    solve("large")
    print(4 * len(json.loads((tmp / "large.body.json").read_text())["support"]) >= _KERNEL_MIN)
    print(" ".join(sorted(set(sys.modules) - before)) or "none")
slow = ("numpy.strings", "numpy.char", "numpy.ma", "decimal")
print(" ".join(m for m in slow if m in sys.modules) or "none")
"""

    @staticmethod
    def run_child(code):
        # the child imports the same lpmink as this process, installed or not
        src_dir = str(Path(pipeline.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert r.returncode == 0, r.stderr
        return r.stdout.splitlines()

    @pytest.fixture(scope="class")
    def child_lines(self):
        return self.run_child(self.CHILD)

    def test_solve_imports_no_lp_backend(self, child_lines):
        assert child_lines[0] == "scipy.linalg._flapack"

    def test_lp_backend_loads_after_a_solve(self, child_lines):
        assert float(child_lines[1]) == 0.0
        assert child_lines[2] == "True"

    def test_a_large_body_write_imports_nothing(self):
        assert self.run_child(self.CHILD_WRITE) == ["True", "none", "none"]
