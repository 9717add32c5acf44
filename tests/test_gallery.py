"""Gallery generators: closed-form identities and independent cross-checks."""

import math

import numpy as np
import pytest

from conftest import graph_gauss_curvature_fd

from lpmink import (
    boundary_graph_profile,
    unbounded_limit_table,
    unbounded_polytope_3d,
)
from lpmink.errors import InvalidExponentError
from lpmink.gallery import write_csv


class TestBoundaryGraphProfile:
    def test_equality_is_identity(self):
        # Comparing the array fields would raise; == compares identity.
        prof = boundary_graph_profile(0.5, 2, samples=16)
        assert prof == prof
        assert prof != boundary_graph_profile(0.5, 2, samples=16)

    def test_exponent_value_n2(self):
        prof = boundary_graph_profile(0.5, 2)
        assert prof.q == pytest.approx(4.0)

    @pytest.mark.parametrize("n,p", [(2, 0.5), (3, 0.5), (3, 0.9), (4, -0.5)])
    def test_exponent_cancellation(self, n, p):
        prof = boundary_graph_profile(p, n)
        assert abs(prof.exponent_gap()) <= 1e-12

    @pytest.mark.parametrize("n,p", [(2, 0.5), (3, 0.5), (3, 0.9)])
    def test_density_identity(self, n, p):
        prof = boundary_graph_profile(p, n, samples=64)
        lhs = prof.h ** (1.0 - p) / prof.curvature
        assert np.max(np.abs(lhs - prof.density) / prof.density) <= 1e-12

    def test_small_r_limit_value(self):
        prof = boundary_graph_profile(0.5, 2)
        # a -> 1 as r -> 0, so the density tends to (q-1)^(-p) q^(1-n)
        assert prof.density[0] == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), rel=1e-9)

    def test_origin_on_boundary(self):
        for n, p in [(2, 0.5), (3, 0.5), (3, 0.9)]:
            prof = boundary_graph_profile(p, n)
            assert prof.h[0] < 1e-10
            assert np.all(np.diff(prof.h) > 0)

    def test_density_positive_and_ratio(self):
        prof = boundary_graph_profile(0.5, 3, samples=128)
        assert np.all(prof.density > 0)
        ratio = prof.density.max() / prof.density.min()
        assert ratio == pytest.approx(float(prof.a[-1] ** (3 + 0.5)), rel=1e-9)

    @pytest.mark.parametrize("n,p", [(2, 0.5), (3, 0.5), (3, 0.9)])
    def test_curvature_against_fd_oracle(self, n, p):
        prof = boundary_graph_profile(p, n)
        q = prof.q
        r = 0.5
        a = math.sqrt(1.0 + (q * r ** (q - 1.0)) ** 2)
        closed = (q - 1.0) * q ** (n - 1.0) * a ** (-(n + 1.0)) * r ** ((q - 2.0) * (n - 1.0))
        fd = graph_gauss_curvature_fd(q, n, r)
        assert fd == pytest.approx(closed, rel=1e-4)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponentError):
            boundary_graph_profile(-1.5, 2)  # p <= 2 - n
        with pytest.raises(InvalidExponentError):
            boundary_graph_profile(1.0, 2)

    def test_csv_roundtrip(self, tmp_path):
        prof = boundary_graph_profile(0.5, 2, samples=16)
        path = tmp_path / "profile.csv"
        write_csv(list(prof.rows()), path)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert float(rows[0]["density"]) == pytest.approx(prof.density[0])


class TestUnboundedPolytope:
    def test_equality_is_identity(self):
        # Comparing the array fields would raise; == compares identity.
        inst = unbounded_polytope_3d(0.5, 4)
        assert inst == inst
        assert inst != unbounded_polytope_3d(0.5, 4)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("m", [2, 10, 100, 1000])
    def test_untranslated_masses_exact(self, p, m):
        inst = unbounded_polytope_3d(p, m)
        masses = inst.facet_masses(translated=False)
        assert masses[0] == pytest.approx(8.0, abs=1e-10)
        assert masses[1] == pytest.approx(2.0 ** (p / 2.0), abs=1e-10)
        assert masses[2] == pytest.approx(2.0 ** (p / 2.0), abs=1e-10)
        assert masses[3] == 0.0 and masses[4] == 0.0

    def test_top_support_after_translation(self):
        for p in (0.25, 0.5, 0.75):
            for m in (10, 100):
                inst = unbounded_polytope_3d(p, m)
                h = inst.facet_supports(translated=True)
                assert h[3] == pytest.approx(float(m) ** (-2.0 / (1.0 - p)), rel=1e-12)
                assert h[4] == pytest.approx(h[3], rel=1e-12)
        # vertex dots agree with the closed form when within float resolution
        inst = unbounded_polytope_3d(0.25, 4)
        V = inst.translated_vertices()
        h_dot = float(np.max(V @ inst.normals[3]))
        assert h_dot == pytest.approx(inst.facet_supports()[3], rel=1e-6)

    def test_translated_masses_converge(self):
        p = 0.5
        rows = unbounded_limit_table(p, [10, 100, 1000, 10_000])
        tops = [r["mass_top"] for r in rows]
        bots = [r["mass_bottom"] for r in rows]
        for t, b in zip(tops, bots):
            assert t == pytest.approx(b, rel=1e-12)
        errs = [abs(t - 3.0) for t in tops]
        assert errs[-1] <= 0.01 * 3.0
        assert abs(rows[-1]["mass_front"] - 8.0) <= 0.01 * 8.0

    def test_diameter_grows_linearly(self):
        rows = unbounded_limit_table(0.5, [2, 8, 32, 128])
        for r in rows:
            assert r["diameter"] >= 4.0 * r["m"]

    def test_t_over_m_vanishes(self):
        rows = unbounded_limit_table(0.3, [10, 100, 1000])
        vals = [r["t_over_m"] for r in rows]
        assert vals[0] > vals[1] > vals[2]
        # decay rate is m^(3 - p - 2/(1-p) - 1), about m^(-1.16) at p = 0.3
        assert vals[-1] < 1e-3
        assert vals[-1] < 0.2 * vals[-2]

    def test_normal_deviation_bound(self):
        for p in (0.25, 0.5, 0.75):
            for m in (10, 100, 1000):
                inst = unbounded_polytope_3d(p, m)
                dev = math.atan2(inst.a, float(m))
                assert dev <= float(m) ** (-(3.0 - p))
                assert np.allclose(np.linalg.norm(inst.normals, axis=1), 1.0, atol=1e-14)

    def test_outward_normals(self):
        inst = unbounded_polytope_3d(0.5, 7)
        centroid = inst.vertices.mean(axis=0)
        for idx, nrm in zip(inst.facets, inst.normals):
            fc = inst.vertices[list(idx)].mean(axis=0)
            assert float((fc - centroid) @ nrm) > 0

    def test_boundary_measure_totals(self):
        inst = unbounded_polytope_3d(0.5, 50)
        mu = inst.boundary_measure()
        expect = sum(inst.facet_masses())
        assert mu.total_mass() == pytest.approx(expect, rel=1e-12)

    def test_json_dict(self):
        inst = unbounded_polytope_3d(0.5, 3)
        d = inst.to_dict()
        assert len(d["vertices"]) == 6
        assert len(d["facets"]) == 5
        assert len(d["normals"]) == 5
