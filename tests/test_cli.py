"""CLI behavior: exit codes, JSON artifacts, determinism, schema errors."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lpmink
from lpmink.cli import main, parse_symmetry
from lpmink.errors import SchemaError
from lpmink.geometry import SymmetryGroup
from lpmink.pipeline import NO_CONVERGENCE_WARNING
from lpmink.serialization import dumps_canonical

SQ = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]

# 4x400 sweep measure (1, 375) (n=11, mass contrast 3.4e3), a measure beyond
# the accuracy envelope at p = 0.65: the solver gives up on it after 9 pad
# stages and 352 Newton steps.
HOPELESS_P = "0.65"
HOPELESS_THETAS = [
    1.2886398911554342, 1.462887815862106, 2.3007934660834595, 2.8366179347857146,
    3.871873490883828, 3.9757478528636327, 4.490261591287136, 4.512502481743058,
    5.257703596402473, 5.615623752411309, 5.921502870107694,
]
HOPELESS_MASSES = [
    175.2193345269618, 11.432565279510461, 3402.0497575444424, 70.74644645377855,
    4.054687329449499, 32.90470223866343, 1.0, 579.2508698623919, 12.521184654351517,
    16.26645966055536, 3.58531674135607,
]


def write_measure(path, atoms, density=None):
    payload = {
        "atoms": [{"theta": t, "mass": m} for t, m in atoms],
        "density": density,
    }
    path.write_text(json.dumps(payload))
    return str(path)


def constant_density(knots=64):
    return {"theta": list(np.linspace(0, 2 * math.pi, knots, endpoint=False)), "f": [1.0] * knots}


def no_grid(*args, **kwargs):
    raise AssertionError("a grid was built")


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
        rc = main(["solve", "--input", meas, "--output", str(out), "--p", HOPELESS_P])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NoConvergenceError"
        assert not out.exists()

    def test_nan_tolerance_exit_1(self, tmp_path, capsys):
        # res > nan is False: a NaN tolerance would let the residual gate
        # pass this measure's unsolved body (residual 39.6)
        meas = write_measure(tmp_path / "hopeless.json",
                             list(zip(HOPELESS_THETAS, HOPELESS_MASSES)))
        out = tmp_path / "x.json"
        rc = main(["solve", "--input", meas, "--output", str(out), "--p", HOPELESS_P,
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

    def test_group_order_above_m_max_exit_1(self, tmp_path, capsys):
        spec_path = write_measure(tmp_path / "const.json", [], constant_density())
        t0 = time.perf_counter()
        rc = main(["solve", "--input", spec_path, "--output", str(tmp_path / "x.json"),
                   "--p", "0.5", "--symmetry", "C100000000"])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "symmetry C100000000: rotation order 100000000 is above "
                       "m_max = 8192, the largest grid resolution"}
        assert not (tmp_path / "x.json").exists()

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

    @pytest.mark.parametrize("text, message", [
        ("auto", "symmetry: 'auto' needs a measure to inspect"),
        ("X5", "symmetry: unknown spec 'X5' (none|C<k>|D<k>:<axis>|auto)"),
    ])
    def test_parse_symmetry_refusals(self, text, message):
        with pytest.raises(SchemaError) as exc:
            parse_symmetry(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("content, message", [
        (None, "$: input file not found: "),
        ("{", "$: invalid JSON in "),
    ], ids=["missing", "invalid"])
    def test_unreadable_input_exit_1(self, tmp_path, capsys, content, message):
        path = tmp_path / "in.json"
        if content is not None:
            path.write_text(content)
        rc = main(["solve", "--input", str(path), "--output",
                   str(tmp_path / "x.json"), "--p", "0.5"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and err["message"].startswith(message + str(path))
        assert not (tmp_path / "x.json").exists()

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

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_verify_refuses_a_tol_that_is_not_positive_and_finite(self, tmp_path,
                                                                  square_measure_path,
                                                                  capsys, tol):
        out = tmp_path / "body.json"
        assert main(["solve", "--input", square_measure_path, "--output", str(out),
                     "--p", "0.5"]) == 0
        capsys.readouterr()
        rc = main(["verify", "--body", str(out), "--input", square_measure_path,
                   "--p", "0.5", "--tol", tol])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "SchemaError",
                                            "message": "tol: must be a positive finite number"}

    def regular_body_and_constant_density(self, tmp_path, n):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"normals_theta": list(np.arange(n) * (2 * math.pi / n)),
                                    "support": [1.0] * n}))
        return str(body), write_measure(tmp_path / "const.json", [], constant_density())

    @pytest.mark.parametrize("m", ["8193", "16384"])
    def test_m_above_m_max_exit_1(self, tmp_path, capsys, monkeypatch, m):
        # a 4-facet body: the limit is m_max, and the refusal comes before any grid
        body, spec_path = self.regular_body_and_constant_density(tmp_path, 4)
        monkeypatch.setattr(lpmink.pipeline, "discretize_symmetric", no_grid)
        rc = main(["verify", "--body", body, "--input", spec_path, "--p", "0.5", "--m", m])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "SchemaError",
            "message": f"m: resolution {m} is above max(m_max, facets) = 8192, "
                       "the largest grid resolution"}

    def test_m_up_to_the_facet_count_is_allowed(self, tmp_path, capsys, monkeypatch):
        # under m_max = 64 a 100-facet body still takes --m 100, not 101
        monkeypatch.setattr(lpmink.cli, "PipelineConfig",
                            lambda: lpmink.PipelineConfig(m0=64, m_max=64))
        body, spec_path = self.regular_body_and_constant_density(tmp_path, 100)
        args = ["verify", "--body", body, "--input", spec_path, "--p", "0.5", "--m"]
        assert main(args + ["100"]) == 0
        assert "residual" in json.loads(capsys.readouterr().out)
        assert main(args + ["101"]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == (
            "m: resolution 101 is above max(m_max, facets) = 100, the largest grid resolution")

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

    def test_measure_output_file_equals_stdout(self, tmp_path, capsys):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({
            "normals_theta": [0.0, 1.5, 3.0, 4.5], "support": [1.0, 1.2, 0.9, 1.1],
        }))
        out = tmp_path / "meas.json"
        assert main(["measure", "--body", str(body), "--p", "0.4"]) == 0
        printed = capsys.readouterr().out
        assert main(["measure", "--body", str(body), "--p", "0.4", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

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

    def test_m_below_three_is_an_input_error(self, tmp_path, square_measure_path, capsys):
        # the square's atoms, and sin^2 on the open arc (0, pi), 0 elsewhere,
        # which the half grid would bin
        s = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        f = np.where(s < math.pi, np.sin(s) ** 2, 0.0)
        f[0] = 0.0
        semicircle = write_measure(tmp_path / "half.json", [], {"theta": list(s), "f": list(f)})
        for path in (square_measure_path, semicircle):
            for m in ("2", "0", "-7"):
                rc = main(["discretize", "--input", path, "--m", m])
                assert rc == 1
                assert "need m >= 3" in capsys.readouterr().err

    def test_output_file_equals_stdout(self, tmp_path, capsys):
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        spec_path = write_measure(tmp_path / "mix.json",
                                  [(0.3 + k * math.pi / 2, 0.5) for k in range(4)],
                                  {"theta": list(t), "f": list(1.0 + 0.2 * np.cos(4 * t))})
        args = ["discretize", "--input", spec_path, "--m", "64", "--symmetry", "C4"]
        out = tmp_path / "grid.json"
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_group_order_above_m_max_exit_1(self, tmp_path, capsys):
        # under C_k the grid has at least 4 k arcs whatever --m is
        spec_path = write_measure(tmp_path / "const.json", [], constant_density())
        t0 = time.perf_counter()
        rc = main(["discretize", "--input", spec_path, "--m", "64",
                   "--symmetry", "C100000000"])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["message"] == (
            "symmetry C100000000: rotation order 100000000 is above m_max = 8192, "
            "the largest grid resolution")

    @pytest.mark.parametrize("m", ["8193", "16384"])
    def test_m_above_m_max_exit_1(self, tmp_path, capsys, monkeypatch, m):
        # refused before any grid is built: --m 16384 would bin 32,766 atoms
        spec_path = write_measure(tmp_path / "const.json", [], constant_density())
        monkeypatch.setattr(lpmink.pipeline, "discretize_symmetric", no_grid)
        rc = main(["discretize", "--input", spec_path, "--m", m])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "SchemaError",
            "message": f"m: resolution {m} is above m_max = 8192, the largest grid resolution"}

    def test_m_at_m_max_prints_its_grid(self, tmp_path, capsys):
        # 2 * 3 * floor(8192 / 3) arcs, every one with density mass
        spec_path = write_measure(tmp_path / "const.json", [], constant_density())
        assert main(["discretize", "--input", spec_path, "--m", "8192"]) == 0
        assert len(json.loads(capsys.readouterr().out)["atoms"]) == 16380

    def test_a_group_order_above_m_still_prints_its_grid(self, tmp_path, capsys):
        # C100 at --m 64: 2 * 100 * 2 arcs, every one with density mass
        spec_path = write_measure(tmp_path / "const.json", [], constant_density())
        assert main(["discretize", "--input", spec_path, "--m", "64",
                     "--symmetry", "C100"]) == 0
        assert len(json.loads(capsys.readouterr().out)["atoms"]) == 400

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

    @pytest.mark.parametrize("kind, args, rows", [
        ("origin-boundary", ["--p", "0.5", "--n", "3", "--samples", "20"],
         lambda: list(lpmink.boundary_graph_profile(0.5, 3, 20).rows())),
        ("unbounded-3d", ["--p", "0.3", "--m-list", "2,10,1000"],
         lambda: lpmink.unbounded_limit_table(0.3, [2, 10, 1000])),
    ])
    def test_csv_is_the_table_written_here(self, tmp_path, capsys, kind, args, rows):
        # the header, then each row: ints as written, floats as %.17g
        out = tmp_path / "table.csv"
        assert main(["gallery", kind, *args, "--output", str(out)]) == 0
        table = rows()
        lines = [",".join(table[0])]
        lines += [",".join(str(v) if isinstance(v, int) else "%.17g" % v for v in row.values())
                  for row in table]
        assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode()
        capsys.readouterr()
        assert main(["gallery", kind, *args]) == 0  # no --output: each row to stdout
        assert capsys.readouterr().out == "".join(dumps_canonical(row) + "\n" for row in table)

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
