"""CLI behavior: exit codes, JSON artifacts, determinism, schema errors."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpmink
from lpmink.cli import main, parse_symmetry
from lpmink.geometry import SymmetryGroup
from lpmink.pipeline import NO_CONVERGENCE_WARNING

SQ = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]

# A stress measure beyond the accuracy envelope (n=51, p=0.95, mass
# contrast 7.62e4): the solver gives up on it.
HOPELESS_THETAS = [
    0.08398209145962625, 0.12196256604966538, 0.14599070279945578, 0.14995366359054937,
    0.2761545347530771, 0.3179268320544772, 0.33711075138010826, 0.3509106988778835,
    0.37455647565402217, 0.5443441694625724, 0.5621705914365829, 0.571491598943316,
    0.6560283165671256, 0.8473448323623824, 0.9199787317063604, 0.981943220174082,
    1.0448347709941597, 1.1688258009938528, 1.299028347552908, 1.3211258444124612,
    1.6277192333054353, 1.665177464580298, 1.7215855899208454, 1.7704085390197541,
    2.1399894740046963, 2.227951310012514, 2.245120598335661, 2.3452663102748925,
    2.4468832131970975, 2.516786374654838, 2.540402900853316, 2.5987795174429182,
    3.2321589988037913, 3.2557669355010743, 3.3203224365288095, 3.414314271900296,
    3.475683001314726, 3.5598759870531134, 3.585736068356603, 4.023542291285545,
    4.039565719383938, 4.793726775950406, 4.85434109629148, 5.164127861483745,
    5.244205433403952, 5.261920855642506, 5.3372848170946146, 5.339223488251997,
    5.445543906083674, 5.822298370871325, 6.078954227569958,
]
HOPELESS_MASSES = [
    1568.0303839934647, 59058.65183637378, 1.0, 4016.5567151582623, 47369.21533343085,
    288.9815991803007, 76209.95564235671, 8.263935675444348, 5.772994709783222,
    253.99806554824352, 7.004834439423585, 1004.5709079902553, 39.25035154833752,
    117.9809516940542, 14.576586397616506, 2068.5254581677505, 16.734777570826267,
    891.898329921554, 25200.463352731684, 16117.601842034757, 4.404635941244521,
    7.653581861957036, 341.1283862322805, 3002.0395461737608, 525.3107159318846,
    15.78787648546753, 3885.9137754320896, 2823.8831312921516, 2.326273172417433,
    60.241352482605215, 7473.676781936533, 18393.114944044617, 9.621182936388793,
    13.216889413853623, 4480.799883706552, 6.861419907061422, 111.33887470711014,
    64876.58235288945, 19430.33758909272, 13.051282404704788, 2059.6040543784093,
    24.847339278991, 41747.29429807867, 62.50811423768145, 4.760277294630447,
    1669.4058128017505, 1.6885234867117043, 159.16252784039756, 70139.51896766234,
    1694.9145312922608, 9015.735793204138,
]


def write_measure(path, atoms, density=None):
    payload = {
        "atoms": [{"theta": t, "mass": m} for t, m in atoms],
        "density": density,
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def square_measure_path(tmp_path):
    return write_measure(tmp_path / "sq.json", [(t, 2.0) for t in SQ])


class TestSolveCommand:
    def test_solve_square(self, tmp_path, square_measure_path):
        out = tmp_path / "body.json"
        rc = main([
            "solve", "--input", square_measure_path, "--output", str(out),
            "--p", "0.5",
        ])
        assert rc == 0
        body = json.loads(out.read_text())
        assert np.allclose(body["support"], 1.0, rtol=1e-6)
        report = json.loads((tmp_path / "body.report.json").read_text())
        assert report["residual"] <= 1e-6

    def test_symmetry_auto_detects_d4(self, tmp_path, square_measure_path):
        out = tmp_path / "body.json"
        rc = main([
            "solve", "--input", square_measure_path, "--output", str(out),
            "--p", "0.5", "--symmetry", "auto",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "body.report.json").read_text())
        assert report["symmetry"].startswith("D4")

    def test_antipodal_exit_2(self, tmp_path, capsys):
        meas = write_measure(tmp_path / "anti.json",
                             [(0.0, 1.0), (math.pi, 1.0)])
        rc = main(["solve", "--input", meas, "--output",
                   str(tmp_path / "x.json"), "--p", "0.5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "AntipodalPair" in err

    def test_no_convergence_exit_3(self, tmp_path, capsys):
        meas = write_measure(tmp_path / "hopeless.json",
                             list(zip(HOPELESS_THETAS, HOPELESS_MASSES)))
        out = tmp_path / "x.json"
        rc = main(["solve", "--input", meas, "--output", str(out), "--p", "0.95"])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NoConvergenceError"
        assert not out.exists()

    def test_nan_tolerance_exit_1(self, tmp_path, capsys):
        # res > nan is False: a NaN tolerance would let the residual gate
        # pass this measure's unsolved body (residual 912)
        meas = write_measure(tmp_path / "hopeless.json",
                             list(zip(HOPELESS_THETAS, HOPELESS_MASSES)))
        out = tmp_path / "x.json"
        rc = main(["solve", "--input", meas, "--output", str(out), "--p", "0.95",
                   "--tol", "nan"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "tol_residual must be a positive finite number"}
        assert not out.exists()

    def test_m_max_reached_exit_3_with_the_body_written(self, tmp_path, capsys):
        # one stage, m0 = m_max = 64: the loop has no second body to compare
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        meas = write_measure(tmp_path / "dens.json", [],
                             {"theta": list(t), "f": list(1.0 + 0.3 * np.cos(2 * t))})
        out = tmp_path / "x.json"
        rc = main(["solve", "--input", meas, "--output", str(out), "--p", "0.5",
                   "--m0", "64", "--m-max", "64"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "NoConvergenceError", "message": NO_CONVERGENCE_WARNING}
        assert len(json.loads(out.read_text())["normals_theta"]) > 0
        report = json.loads((tmp_path / "x.report.json").read_text())
        assert report["warnings"] == [NO_CONVERGENCE_WARNING]
        assert report["m_final"] == 64 and report["residual"] <= 1e-6

    def test_schema_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [{"theta": 0.0}]}))
        rc = main(["solve", "--input", str(bad), "--output",
                   str(tmp_path / "x.json"), "--p", "0.5"])
        assert rc == 1
        assert "atoms[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("measure, field", [
        ({"atoms": [], "density": {"theta": [0.0, 2.0, 4.0], "f": [1.0, None, 1.0]}},
         "density.f[1]"),
        ({"atoms": [{"theta": t, "mass": float("nan") if k == 2 else 1.0}
                    for k, t in enumerate(SQ)], "density": None}, "atoms[2].mass"),
    ], ids=["null-knot", "nan-mass"])
    def test_non_finite_number_exit_1(self, tmp_path, capsys, measure, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(measure))
        rc = main(["solve", "--input", str(bad), "--output",
                   str(tmp_path / "x.json"), "--p", "0.5"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "SchemaError", "message": f"{field}: must be a finite number"}
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("symmetry, message", [
        ("C0", "group order must be at least 1 in 'C0'"),
        ("C-3", "group order must be at least 1 in 'C-3'"),
        ("D0", "group order must be at least 1 in 'D0'"),
        ("D-2:0.0", "group order must be at least 1 in 'D-2:0.0'"),
        ("D5:nan", "axis must be a finite number in 'D5:nan'"),
        ("D5:-inf", "axis must be a finite number in 'D5:-inf'"),
        ("D4:x", "bad axis in 'D4:x'"),
        ("Cx", "bad cyclic spec 'Cx'"),
        # int() and float() accept these; the spec grammar does not
        ("C1_0", "bad cyclic spec 'C1_0'"),
        ("C+4", "bad cyclic spec 'C+4'"),
        ("C\u0663", "bad cyclic spec 'C\u0663'"),  # Arabic-Indic digit 3
        ("D 5", "bad dihedral spec 'D 5'"),
        ("D0_5:1_0", "bad axis in 'D0_5:1_0'"),
        ("D5:1_0", "bad axis in 'D5:1_0'"),
    ])
    def test_invalid_group_exit_1(self, tmp_path, square_measure_path, capsys,
                                  symmetry, message):
        rc = main(["solve", "--input", square_measure_path, "--output",
                   str(tmp_path / "x.json"), "--p", "0.5", "--symmetry", symmetry])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "SchemaError", "message": f"symmetry: {message}"}
        assert not (tmp_path / "x.json").exists()

    def test_valid_groups_parse(self):
        assert parse_symmetry("C1") == SymmetryGroup.trivial()
        assert parse_symmetry("C4") == SymmetryGroup.cyclic(4)
        assert parse_symmetry("D1") == SymmetryGroup.dihedral(1, 0.0)
        assert parse_symmetry(" D5:0.25 ") == SymmetryGroup.dihedral(5, 0.25)
        assert parse_symmetry("D5:1e-3") == SymmetryGroup.dihedral(5, 1e-3)

    def test_a_negative_zero_axis_is_labelled_zero(self):
        G = parse_symmetry("D2:-0")
        assert G == SymmetryGroup.dihedral(2, 0.0) and G.label() == "D2:0"

    def test_invalid_p_exit_1(self, tmp_path, square_measure_path):
        rc = main(["solve", "--input", square_measure_path, "--output",
                   str(tmp_path / "x.json"), "--p", "1.5"])
        assert rc == 1

    @pytest.mark.parametrize("extra, needs_output", [
        (["--bogus"], True),
        (["--seed", "0"], True),  # the flag was removed
        ([], False),  # --output is required
    ])
    def test_usage_error_exit_1(self, tmp_path, square_measure_path, capsys,
                                extra, needs_output):
        # exit 2 means nonexistence, so usage errors must not use argparse's 2
        argv = ["solve", "--input", square_measure_path, "--p", "0.5"] + extra
        if needs_output:
            argv += ["--output", str(tmp_path / "x.json")]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert not (tmp_path / "x.json").exists()

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--m-max" in capsys.readouterr().out

    def test_svg_written(self, tmp_path, square_measure_path):
        out = tmp_path / "body.json"
        svg = tmp_path / "body.svg"
        rc = main(["solve", "--input", square_measure_path, "--output", str(out),
                   "--p", "0.5", "--svg", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "<polygon" in text

    def test_svg_rays_are_the_grid_measure(self, tmp_path):
        # one ray per atom of discretize(spec, 64): an atomic input's own
        # atoms, and for a mixed input the density's 126 arcs plus the atoms
        # at pi / 2 and 3 pi / 2 (those at 0 and pi merge into midpoints)
        knots = np.linspace(0.0, 2 * math.pi, 64, endpoint=False).tolist()
        for density, rays in ((None, 4), ({"theta": knots, "f": [0.2] * 64}, 126 + 2)):
            path = write_measure(tmp_path / "mixed.json", [(t, 1.0) for t in SQ], density)
            svg = tmp_path / "body.svg"
            rc = main(["solve", "--input", path, "--output", str(tmp_path / "body.json"),
                       "--p", "0.5", "--svg", str(svg)])
            assert rc == 0
            assert svg.read_text().count("<line ") == rays

    def test_byte_identical_reruns(self, tmp_path, square_measure_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["solve", "--input", square_measure_path, "--output",
                       str(out), "--p", "0.5"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerifyAndMeasure:
    def test_round_trip(self, tmp_path, square_measure_path):
        out = tmp_path / "body.json"
        main(["solve", "--input", square_measure_path, "--output", str(out),
              "--p", "0.5"])
        rc = main(["verify", "--body", str(out), "--input", square_measure_path,
                   "--p", "0.5"])
        assert rc == 0

    def test_measure_of_square(self, tmp_path, capsys):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({
            "normals_theta": SQ, "support": [1.0, 1.0, 1.0, 1.0],
        }))
        rc = main(["measure", "--body", str(body), "--p", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["atoms"]) == 4
        assert all(abs(a["mass"] - 2.0) < 1e-12 for a in payload["atoms"])

    def test_measure_solve_round_trip(self, tmp_path, square_measure_path, capsys):
        body = tmp_path / "body.json"
        main(["solve", "--input", square_measure_path, "--output", str(body),
              "--p", "0.5"])
        meas_out = tmp_path / "meas.json"
        rc = main(["measure", "--body", str(body), "--p", "0.5",
                   "--output", str(meas_out)])
        assert rc == 0
        payload = json.loads(meas_out.read_text())
        masses = sorted(a["mass"] for a in payload["atoms"])
        assert np.allclose(masses, 2.0, rtol=1e-6)

    def test_verify_with_density_reports_ode_residual(self, tmp_path, capsys):
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        spec_path = tmp_path / "dens.json"
        spec_path.write_text(json.dumps({
            "atoms": [],
            "density": {"theta": list(t), "f": [1.0] * 64},
        }))
        body = tmp_path / "body.json"
        rc = main(["solve", "--input", str(spec_path), "--output", str(body),
                   "--p", "0.5", "--m0", "64", "--m-max", "1024"])
        assert rc == 0
        rc = main(["verify", "--body", str(body), "--input", str(spec_path),
                   "--p", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert "monge_ampere_residual" in out
        assert out["monge_ampere_residual"] <= 1e-2


    @pytest.mark.parametrize("shape", ["uniform", "manufactured"])
    def test_verify_accepts_solved_density_bodies(self, tmp_path, capsys, shape):
        # the loop solves arc-midpoint grids; verify compares against the
        # right-endpoint grid, at its default level and tolerance 2 pi / n
        t = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        p = 0.5
        f = np.ones_like(t)
        if shape == "manufactured":
            h = 1.0 + 0.05 * np.cos(2 * t + 0.3) + 0.02 * np.cos(5 * t + 1.1)
            f = h ** (1.0 - p) * (1.0 - 0.15 * np.cos(2 * t + 0.3) - 0.48 * np.cos(5 * t + 1.1))
        spec_path = tmp_path / "dens.json"
        spec_path.write_text(json.dumps({"atoms": [], "density": {"theta": list(t), "f": list(f)}}))
        body = tmp_path / "body.json"
        assert main(["solve", "--input", str(spec_path), "--output", str(body), "--p", str(p)]) == 0
        capsys.readouterr()
        rc = main(["verify", "--body", str(body), "--input", str(spec_path), "--p", str(p)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0, out


class TestDiscretizeCommand:
    def test_plain(self, tmp_path, square_measure_path, capsys):
        # 2 * 3 * floor(8 / 3) = 12 arcs centred on multiples of pi/6: each
        # atom sits at its arc's midpoint, and the 8 empty arcs carry no atom
        rc = main(["discretize", "--input", square_measure_path, "--m", "8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        thetas = [a["theta"] for a in payload["atoms"]]
        assert thetas == pytest.approx(SQ, abs=1e-12)
        assert [a["mass"] for a in payload["atoms"]] == [2.0] * 4

    def assert_prints_the_first_stage(self, tmp_path, capsys, monkeypatch, doc, symmetry):
        spec_path = tmp_path / "dens.json"
        spec_path.write_text(json.dumps(doc))
        stages = []
        real = lpmink.pipeline.solve_discrete

        def recording(mu, *args, **kwargs):
            stages.append(mu)
            return real(mu, *args, **kwargs)

        monkeypatch.setattr(lpmink.pipeline, "solve_discrete", recording)
        spec = lpmink.serialization.measure_spec_from_dict(json.loads(spec_path.read_text()))
        _, report = lpmink.solve(spec, 0.5, parse_symmetry(symmetry, spec),
                                 lpmink.PipelineConfig(m0=64, m_max=64))
        rc = main(["discretize", "--input", str(spec_path), "--m", "64",
                   "--symmetry", symmetry])
        assert rc == 0
        atoms = json.loads(capsys.readouterr().out)["atoms"]
        assert len(atoms) == report.loop_history[0]["n_atoms"] == stages[0].n
        assert [a["theta"] for a in atoms] == stages[0].thetas.tolist()
        assert [a["mass"] for a in atoms] == stages[0].masses.tolist()
        return report

    @pytest.mark.parametrize("symmetry", ["none", "C4"])
    def test_prints_the_first_stage_of_the_loop(self, tmp_path, capsys, monkeypatch, symmetry):
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        doc = {
            "atoms": [{"theta": 0.3 + k * math.pi / 2, "mass": 0.5} for k in range(4)],
            "density": {"theta": list(t), "f": list(1.0 + 0.2 * np.cos(4 * t))},
        }
        self.assert_prints_the_first_stage(tmp_path, capsys, monkeypatch, doc, symmetry)

    @pytest.mark.parametrize("symmetry", ["none", "D1:0.7"])
    def test_prints_the_first_half_stage_of_a_semicircle_density(self, tmp_path, capsys,
                                                                 monkeypatch, symmetry):
        # sin^2 on the open arc (0.7 - pi/2, 0.7 + pi/2), 0 elsewhere: the loop
        # solves the half grid aligned with the chord's line, not the whole
        # circle's grid aligned with angle 0
        s = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        f = np.where(s < math.pi, np.sin(s) ** 2, 0.0)
        f[0] = 0.0
        doc = {"atoms": [],
               "density": {"theta": list((s + 0.7 - math.pi / 2) % (2 * math.pi)), "f": list(f)}}
        report = self.assert_prints_the_first_stage(tmp_path, capsys, monkeypatch, doc, symmetry)
        assert report.classification == "semicircle"

    def test_m_below_three_is_an_input_error(self, square_measure_path, capsys):
        rc = main(["discretize", "--input", square_measure_path, "--m", "2"])
        assert rc == 1
        assert "need m >= 3" in capsys.readouterr().err

    def test_symmetric(self, tmp_path, capsys):
        t = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        spec_path = tmp_path / "dens.json"
        spec_path.write_text(json.dumps({
            "atoms": [], "density": {"theta": list(t), "f": [1.0] * 32},
        }))
        rc = main(["discretize", "--input", str(spec_path), "--m", "8",
                   "--symmetry", "C2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        total = sum(a["mass"] for a in payload["atoms"])
        assert total == pytest.approx(2 * math.pi, rel=1e-12)


class TestSerializationRoundTrip:
    def test_polygon_bits_survive(self, rng_seed=3):
        from lpmink.serialization import (
            dumps_canonical,
            polygon_from_dict,
            polygon_to_dict,
        )
        from lpmink import polygon_from_support

        rng = np.random.default_rng(rng_seed)
        th = np.sort(rng.uniform(0, 2 * math.pi, 9))
        while np.min(np.diff(th)) < 1e-2 or (th[0] + 2 * math.pi - th[-1]) > math.pi - 0.1:
            th = np.sort(rng.uniform(0, 2 * math.pi, 9))
        h = rng.uniform(0.5, 2.0, 9)
        P = polygon_from_support(th, h)
        payload = json.loads(dumps_canonical(polygon_to_dict(P)))
        Q = polygon_from_dict(payload)
        assert np.array_equal(Q.normals, P.normals)
        assert np.array_equal(Q.support, P.support)

    def test_measure_bits_survive(self):
        from lpmink.serialization import (
            dumps_canonical,
            measure_spec_from_dict,
            measure_spec_to_dict,
        )
        from lpmink import DiscreteMeasure, MeasureSpec, PiecewiseLinearDensity

        spec = MeasureSpec(
            DiscreteMeasure([0.1234567890123456, 3.3], [1.0 / 3.0, 2.718281828459045]),
            PiecewiseLinearDensity([0.0, 1.0, 2.0], [0.1, 0.2, 0.30000000000000004]),
        )
        payload = json.loads(dumps_canonical(measure_spec_to_dict(spec)))
        back = measure_spec_from_dict(payload)
        assert np.array_equal(back.atoms.thetas, spec.atoms.thetas)
        assert np.array_equal(back.atoms.masses, spec.atoms.masses)
        assert np.array_equal(back.density.values, spec.density.values)


class TestGalleryCommand:
    def test_unbounded_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["gallery", "unbounded-3d", "--p", "0.5",
                   "--m-list", "10,100", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        # translated front mass approaches 8 as m grows; m = 100 is close
        row = dict(zip(header, lines[2].split(",")))
        assert row["m"] == "100"
        assert float(row["mass_front"]) == pytest.approx(8.0, rel=1e-4)
        assert float(row["mass_top"]) == pytest.approx(3.0, rel=1e-6)

    def test_origin_boundary_csv(self, tmp_path):
        out = tmp_path / "profile.csv"
        rc = main(["gallery", "origin-boundary", "--p", "0.5", "--n", "2",
                   "--samples", "16", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 17

    def test_polytope_json_output(self, tmp_path):
        out = tmp_path / "poly.json"
        rc = main(["gallery", "unbounded-3d", "--p", "0.5", "--m", "10",
                   "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["vertices"]) == 6

    def test_entry_point_subprocess(self, tmp_path, square_measure_path):
        # the module is executable as a script for the console entry point;
        # the child imports the same lpmink as this process, installed or not
        src_dir = str(Path(lpmink.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "body.json"
        r = subprocess.run(
            [sys.executable, "-m", "lpmink.cli", "solve", "--input",
             square_measure_path, "--output", str(out), "--p", "0.5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert r.returncode == 0
        assert out.exists()
