"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances and runtime budgets are pinned here; any change is a contract
change, not a calibration knob.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_general_position_measure, random_general_position_polygon

from lpmink import (
    AntipodalPairError,
    DiscreteMeasure,
    MeasureSpec,
    PiecewiseLinearDensity,
    SymmetryGroup,
    anchor_objective,
    apply_isometry,
    area,
    boundary_graph_profile,
    classify,
    discretize,
    hemisphere_delta,
    lp_surface_measure,
    measure_residual,
    monge_ampere_residual,
    optimal_anchor,
    polygon_from_support,
    solve,
    solve_discrete,
    solve_semicircle,
    support_distance,
    unbounded_limit_table,
    unbounded_polytope_3d,
    weak_distance,
)
from lpmink.errors import NoConvergenceError
from lpmink.gallery import graph_gauss_curvature_fd
from lpmink.measure import GENERAL_POSITION, SEMICIRCLE
from lpmink.solver import SolverConfig

TWO_PI = 2 * math.pi
SQ = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_square_closed_form():
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        t0 = time.perf_counter()
        P, rep = solve_discrete(DiscreteMeasure(SQ, [2.0] * 4), p)
        dt = time.perf_counter() - t0
        err = float(np.max(np.abs(P.support - 1.0)))
        assert err <= 1e-6, (p, err)
        assert dt < 1.0, (p, dt)
        worst = max(worst, err)
    report(1, f"square support error <= {worst:.2e} for p in {{0.1, 0.5, 0.9}}")


def test_criterion_02_triangle_closed_form():
    tri = [math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6]
    worst = 0.0
    for alpha in (1.0, 2.0, 5.0):
        for p in (0.2, 0.5, 0.8):
            t0 = time.perf_counter()
            P, rep = solve_discrete(DiscreteMeasure(tri, [alpha] * 3), p)
            dt = time.perf_counter() - t0
            expect = (alpha / (2.0 * math.sqrt(3.0))) ** (1.0 / (2.0 - p))
            err = float(np.max(np.abs(P.support - expect)))
            assert err <= 1e-6 * max(1.0, expect), (alpha, p, err)
            assert dt < 1.0
            worst = max(worst, err)
    report(2, f"equilateral inradius error <= {worst:.2e} for alpha in {{1, 2, 5}}")


def test_criterion_03_single_atom_dilation_formula():
    w = math.pi / 2
    mu = DiscreteMeasure([w], [3.0])
    P, rep = solve_semicircle(mu, classify(mu), 0.5)
    lam0 = (3.0 * math.sqrt(3.0) / 2.0) ** (2.0 / 3.0)
    i = int(np.argmin(np.abs(P.normals - w)))
    assert abs(P.support[i] - lam0) <= 1e-10
    others = np.delete(P.support, i)
    assert np.max(np.abs(others)) <= 1e-10
    report(3, f"one-atom closed form support {P.support[i]:.12f} = lam0 to 1e-10")


def test_criterion_04_antipodal_nonexistence_gate():
    spec = MeasureSpec(DiscreteMeasure([0.4, 0.4 + math.pi], [1.0, 2.0]), None)
    t0 = time.perf_counter()
    with pytest.raises(AntipodalPairError):
        solve(spec, 0.5)
    dt = time.perf_counter() - t0
    assert dt < 0.010, dt
    report(4, f"antipodal input rejected in {dt * 1e3:.2f} ms")


def test_criterion_05_round_trip_suite():
    rng = np.random.default_rng(5050)
    t0 = time.perf_counter()
    residuals = []
    for k in range(200):
        p = (0.2, 0.5, 0.8)[k % 3]
        P = random_general_position_polygon(rng, nmin=3, nmax=40)
        mu = lp_surface_measure(P, p)
        try:
            Q, rep = solve_discrete(
                mu, p, cfg=SolverConfig(tol_residual=1e-6)
            )
            residuals.append(rep.residual)
        except NoConvergenceError as exc:
            residuals.append(exc.report.residual if exc.report else math.inf)
    dt = time.perf_counter() - t0
    residuals = np.asarray(residuals)
    frac_tight = float(np.mean(residuals <= 1e-4))
    assert frac_tight >= 0.99, frac_tight
    assert np.all(residuals <= 1e-3), residuals.max()
    assert dt < 300.0, dt
    report(5, f"200 round trips in {dt:.1f}s; {frac_tight:.1%} <= 1e-4, "
              f"max residual {residuals.max():.2e}")


def test_criterion_06_symmetry_preservation():
    G = SymmetryGroup.dihedral(5, axis=0.31)
    base = 0.9
    angles = sorted({A.apply_angle(base) for A in G.elements()})
    assert len(angles) == 10
    mu = DiscreteMeasure(angles, np.full(10, 1.7))
    P, rep = solve_discrete(mu, 0.45, G)
    worst = 0.0
    for A in G.elements():
        worst = max(worst, support_distance(P, apply_isometry(P, A)))
    assert worst <= 1e-8, worst
    report(6, f"D5-invariant solve: max support_distance(P, AP) = {worst:.2e}")


def test_criterion_07_semicircle_reduction_suite():
    rng = np.random.default_rng(7070)
    worst_res = worst_cap = worst_v = 0.0
    done = 0
    while done < 50:
        p = (0.2, 0.5, 0.8)[done % 3]
        n = int(rng.integers(2, 10))
        w0 = float(rng.uniform(0, TWO_PI))
        width = math.pi if done % 2 else float(rng.uniform(0.3, math.pi - 0.1))
        offs = np.sort(rng.uniform(0, 1, n)) * width
        offs[0], offs[-1] = 0.0, width
        th = (w0 + offs - width / 2.0) % TWO_PI
        mu = DiscreteMeasure(th, np.exp(rng.uniform(-1.5, 1.5, n)))
        cls = classify(mu)
        if cls.tag != SEMICIRCLE:
            continue
        done += 1
        K, rep = solve_semicircle(
            mu, cls, p, SolverConfig(tol_residual=1e-9)
        )
        worst_res = max(worst_res, measure_residual(K, mu, p))
        S = lp_surface_measure(K, p)
        cap = sum(
            m for t, m in zip(S.thetas, S.masses)
            if math.cos(t - (cls.w + math.pi)) > 1e-12
        )
        worst_cap = max(worst_cap, cap)
        for vv in (cls.v, cls.v + math.pi):
            worst_v = max(worst_v, abs(S.mass_at(vv) - mu.mass_at(vv)))
    assert worst_res <= 1e-4, worst_res
    assert worst_cap <= 1e-10, worst_cap
    assert worst_v <= 1e-8, worst_v
    report(7, f"50 semicircle solves: residual <= {worst_res:.2e}, "
              f"dead-arc mass <= {worst_cap:.2e}, endpoint mass error <= {worst_v:.2e}")


def test_criterion_08_discretization_convergence():
    t0 = time.perf_counter()
    knots = np.linspace(0, TWO_PI, 1024, endpoint=False)
    spec = MeasureSpec(None, PiecewiseLinearDensity(knots, 1.0 + 0.3 * np.cos(knots)))
    p = 0.5
    prev_body = None
    measures = {}
    for m in (64, 128, 256, 512, 1024, 2048):
        mu_m = discretize(spec, m)
        h0 = prev_body.support_values(mu_m.thetas) if prev_body is not None else None
        P, rep = solve_discrete(mu_m, p, h0=h0)
        measures[m] = lp_surface_measure(P, p)
        prev_body = P
    ms = [64, 128, 256, 512, 1024, 2048]
    dists = [weak_distance(measures[a], measures[b]) for a, b in zip(ms, ms[1:])]
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    assert all(r <= 0.75 for r in ratios), ratios
    ma = monge_ampere_residual(prev_body, spec, p)
    assert ma is not None and ma <= 1e-2, ma
    dt = time.perf_counter() - t0
    assert dt < 120.0, dt
    report(8, f"successive flat-distance ratios {['%.3f' % r for r in ratios]} "
              f"(<= 0.75); support ODE residual {ma:.2e} at m = 2048; {dt:.1f}s")


def test_criterion_09_unbounded_3d_family():
    t0 = time.perf_counter()
    for p in (0.25, 0.5, 0.75):
        for m in (2, 5, 17, 100, 1234):
            inst = unbounded_polytope_3d(p, m)
            masses = inst.facet_masses(translated=False)
            assert abs(masses[0] - 8.0) <= 1e-10
            assert abs(masses[1] - 2.0 ** (p / 2.0)) <= 1e-10
            assert abs(masses[2] - 2.0 ** (p / 2.0)) <= 1e-10
        rows = unbounded_limit_table(p, [10_000])
        top, bottom = rows[0]["mass_top"], rows[0]["mass_bottom"]
        assert abs(top - 3.0) <= 0.01 * 3.0
        assert abs(bottom - 3.0) <= 0.01 * 3.0
        assert rows[0]["diameter"] >= 4.0 * 10_000
    dt = time.perf_counter() - t0
    assert dt < 10.0, dt
    report(9, f"slab family masses exact (8, 2^(p/2)); top mass at m=1e4 "
              f"within 1% of 3; diameter >= 4m; {dt:.2f}s")


def test_criterion_10_boundary_graph_family():
    t0 = time.perf_counter()
    for n, p in ((2, 0.5), (3, 0.5), (3, 0.9)):
        prof = boundary_graph_profile(p, n, samples=64, r_min=1e-6)
        assert abs(prof.exponent_gap()) <= 1e-12
        assert np.all(prof.density > 0)
        assert prof.h[0] <= 1e-10
        r = 0.5
        q = prof.q
        a = math.sqrt(1.0 + (q * r ** (q - 1.0)) ** 2)
        closed = (q - 1.0) * q ** (n - 1.0) * a ** (-(n + 1.0)) * r ** (
            (q - 2.0) * (n - 1.0)
        )
        fd = graph_gauss_curvature_fd(q, n, r)
        assert abs(fd - closed) <= 1e-4 * closed
    dt = time.perf_counter() - t0
    assert dt < 5.0, dt
    report(10, f"graph profile: exponent cancellation to 1e-12, positive density, "
               f"origin contact, curvature matches FD oracle; {dt:.2f}s")


def test_criterion_11_gradient_checks():
    rng = np.random.default_rng(1111)
    worst_env = worst_vol = 0.0
    checked = 0
    while checked < 100:
        P = random_general_position_polygon(rng, nmin=4, nmax=12)
        if not P.active.all():
            continue
        checked += 1
        p = float(rng.uniform(0.2, 0.8))
        mu = DiscreteMeasure(P.normals, rng.uniform(0.5, 2.0, P.n))
        i = int(rng.integers(0, P.n))
        # envelope gradient of the anchored dual value
        xi = optimal_anchor(P, mu, p)
        slack = P.support_values(mu.thetas) - (
            np.cos(mu.thetas) * xi[0] + np.sin(mu.thetas) * xi[1]
        )
        grad = float((mu.masses * p * slack ** (p - 1.0))[i])
        eps = 1e-5
        vals = []
        for s in (+1, -1):
            h2 = P.support.copy()
            h2[i] += s * eps
            Q = polygon_from_support(P.normals, h2)
            vals.append(anchor_objective(Q, optimal_anchor(Q, mu, p), mu, p))
        fd = (vals[0] - vals[1]) / (2 * eps)
        worst_env = max(worst_env, abs(fd - grad) / max(1.0, abs(grad)))
        # volume gradient is the edge length
        eps = 1e-6
        vols = []
        for s in (+1, -1):
            h2 = P.support.copy()
            h2[i] += s * eps
            vols.append(area(polygon_from_support(P.normals, h2)))
        fd_vol = (vols[0] - vols[1]) / (2 * eps)
        worst_vol = max(worst_vol, abs(fd_vol - P.lengths[i]) / max(1.0, P.lengths[i]))
    assert worst_env <= 1e-5, worst_env
    assert worst_vol <= 1e-6, worst_vol
    report(11, f"100 configs: envelope-gradient error {worst_env:.2e} (<= 1e-5), "
               f"volume-gradient error {worst_vol:.2e}")


def test_criterion_12_open_cap_bound():
    rng = np.random.default_rng(1212)
    grid = np.linspace(0, TWO_PI, 10_000, endpoint=False)
    violations = 0
    worst_margin = math.inf
    for _ in range(50):
        mu = random_general_position_measure(rng)
        delta = hemisphere_delta(mu)
        assert delta is not None and 0 < delta < 0.5
        assert mu.total_mass() < 1.0 / delta
        d = np.abs(grid[:, None] - mu.thetas[None, :])
        d = np.minimum(d, TWO_PI - d)
        cap_mass = ((np.cos(d) > delta) * mu.masses[None, :]).sum(axis=1)
        violations += int(np.sum(cap_mass <= delta))
        worst_margin = min(worst_margin, float(cap_mass.min() - delta))
    assert violations == 0
    report(12, f"50 measures x 10^4 directions: zero open-cap violations, "
               f"min margin {worst_margin:.3e}")
