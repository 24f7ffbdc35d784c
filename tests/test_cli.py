"""CLI contract: subcommands, config precedence, exit codes, idempotence."""

import csv
import json
import math
from dataclasses import fields

import pytest

from nodalbubbles.bubble_core import ConstantsTable
from nodalbubbles.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOLUTION,
    EXIT_SOLVER,
    RunConfig,
    load_run_config,
    main,
    write_report,
)
from nodalbubbles.errors import ConfigurationError
from nodalbubbles.green_domain import BallDomain
from nodalbubbles.reduced_energy import (AxisKernels, Configuration,
                                         base_spacing_points, find_t0_r0,
                                         mu_embed, psi_tilde)
from nodalbubbles.saddle_solver import solve_saddle
from conftest import SADDLE_VALUE


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRunConfig:
    def test_defaults(self):
        c = RunConfig()
        assert c.dim == 3 and c.radius == 1.0
        assert c.eps == (0.1, 0.05, 0.025)
        assert c.grid_nz == 513 and c.grid_nr == 257

    def test_eps_sorted_descending(self):
        c = RunConfig(eps=(0.025, 0.1, 0.05))
        assert c.eps == (0.1, 0.05, 0.025)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(dim=2)
        with pytest.raises(ConfigurationError):
            RunConfig(radius=-1.0)
        with pytest.raises(ConfigurationError):
            RunConfig(eps=(1.5,))
        with pytest.raises(ConfigurationError):
            RunConfig(format="xml")
        with pytest.raises(ConfigurationError):
            RunConfig(center=(0.0, 0.0))  # wrong length for dim=3

    def test_load_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"radius": 2.0, "seed": 5}))
        c = load_run_config(str(cfg_file), {"seed": 9, "out": None})
        assert c.radius == 2.0   # file beats default
        assert c.seed == 9       # flag beats file

    def test_load_rejects_unknown_keys(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"radius": 2.0, "bogus": 1}))
        with pytest.raises(ConfigurationError, match="bogus"):
            load_run_config(str(cfg_file), {})

    def test_penalty_M_is_not_a_key(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"penalty_M": 100.0}))
        rc = main(["constants", "--config", str(cfg_file),
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "penalty_M" not in RunConfig().to_json_dict()

    def test_json_dict_is_the_fields_in_order(self):
        assert list(RunConfig().to_json_dict()) == [
            "dim", "radius", "center", "eps", "tol", "max_iter", "grid_nz",
            "grid_nr", "seed", "out", "format", "trace", "configuration"]


_SADDLE_CONFIG = {"k": 4, "signs": [1, -1, 1, -1],
                  "Lambda": [1.0, 1.0, 1.0, 1.0], "t": [0.0, 0.06, 0.12, 0.18]}
# A JSON integer that Python parses exactly but no double can hold.
_HUGE = 10 ** 400


class TestConfigFileValues:
    """Malformed config-file values exit 1 with a message, and no run starts.

    Each saddle case also asks for the trace, so a value that slipped through
    would leave a trace.csv behind.
    """

    @pytest.mark.parametrize("command, data", [
        ("saddle", {"trace": "no"}),
        ("saddle", {"trace": 1}),
        ("saddle", {"trace": True, "eps": ["abc"]}),
        ("saddle", {"trace": True, "center": ["x", 0, 0]}),
        ("saddle", {"trace": True, "radius": True}),
        ("saddle", {"trace": True, "tol": True}),
        ("saddle", {"trace": True, "seed": True}),
        ("saddle", {"trace": True, "max_iter": True}),
        ("verify", {"configuration": dict(_SADDLE_CONFIG, signs=1)}),
        ("verify", {"configuration": dict(_SADDLE_CONFIG, Lambda=["a"] * 4)}),
        # Every subcommand parses an inline configuration, not only verify.
        ("constants", {"configuration": {"k": 4, "signs": 1}}),
        ("assumptions", {"configuration": {"k": 4, "signs": 1}}),
        ("saddle", {"trace": True, "configuration": {"k": 4, "signs": 1}}),
        # Inline entries must carry their JSON type: no bool or string is
        # coerced to a number.
        ("verify", {"configuration": {"k": True, "signs": [1],
                                      "Lambda": [1.0], "t": [0.0]}}),
        ("verify", {"configuration": dict(_SADDLE_CONFIG,
                                          t=[False, 0.06, 0.12, 0.18])}),
        ("verify", {"configuration": dict(_SADDLE_CONFIG,
                                          signs=["1", "-1", "1", "-1"])}),
        ("verify", {"configuration": dict(_SADDLE_CONFIG,
                                          Lambda=["1.0"] * 4)}),
        # Every number must be finite and fit a double.
        ("saddle", {"trace": True, "radius": _HUGE}),
        ("saddle", {"trace": True, "tol": _HUGE}),
        ("saddle", {"trace": True, "eps": [0.1, _HUGE]}),
        ("saddle", {"trace": True, "center": [_HUGE, 0, 0]}),
        ("verify", {"configuration": dict(_SADDLE_CONFIG,
                                          Lambda=[_HUGE, 1.0, 1.0, 1.0])}),
        ("saddle", {"trace": True, "dim": _HUGE}),
        ("constants", {"center": [math.inf, 0, 0]}),
        # An unknown configuration key is refused, not ignored.
        ("verify", {"configuration": dict(_SADDLE_CONFIG, extra=1)}),
        ("saddle", {"trace": True, "max_iter": _HUGE}),
        ("saddle", {"trace": True, "grid_nz": _HUGE}),
        ("saddle", {"trace": True, "grid_nr": _HUGE}),
        ("saddle", {"trace": True, "seed": _HUGE}),
    ])
    def test_rejected(self, tmp_path, capsys, command, data):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(data))
        rc = main([command, "--config", str(cfg_file), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / f"{command}.json").exists()

    def test_undecodable_file_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_bytes(b"\xff")
        rc = main(["constants", "--config", str(cfg_file),
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run.json" in err
        assert not (tmp_path / "constants.json").exists()

    @pytest.mark.parametrize("command, flags, data", [
        ("constants", ["--grid-nz", "4"], None),
        ("constants", ["--grid-nr", "3"], None),
        ("constants", [], {"configuration": [1, 2]}),
        ("constants", [], [1, 2]),
        ("saddle", ["--trace"], {"configuration": "saddle.json"}),
    ])
    def test_input_guards(self, tmp_path, capsys, command, flags, data):
        # Each guard exits 1 with a message before any report is written.
        if data is not None:
            (tmp_path / "run.json").write_text(json.dumps(data))
            flags = [*flags, "--config", str(tmp_path / "run.json")]
        rc = main([command, "--out", str(tmp_path), *flags])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if data is None else ["run.json"])

    def test_integer_radius_is_written_as_given(self, tmp_path):
        # The radius is checked, not converted: the effective configuration
        # keeps the file's integer.
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"dim": 4, "radius": 2}))
        rc = main(["constants", "--config", str(cfg_file),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        text = (tmp_path / "constants.json").read_text()
        assert '"radius": 2,' in text
        assert read_json(tmp_path / "constants.json")["meta"][
            "effective_config"]["radius"] == 2

    def test_out_must_be_a_string(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"out": 5}))
        with pytest.raises(ConfigurationError, match="out"):
            load_run_config(str(cfg_file), {})


class TestConstantsCommand:
    def test_report_values(self, tmp_path):
        rc = main(["constants", "--dim", "3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = read_json(tmp_path / "constants.json")
        rep = doc["report"]
        assert rep["omegaN"] == pytest.approx(2.1368320341615211, rel=1e-9)
        assert rep["cN"] == pytest.approx(1.0 / 128.0, rel=1e-9)
        assert rep["values_implementer_derived"] is True
        assert doc["meta"]["command"] == "constants"

    def test_dim4_quad_error(self, tmp_path):
        rc = main(["constants", "--dim", "4", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "constants.json")["report"]
        assert rep["N"] == 4
        assert rep["quad_error"] < 1e-9

    def test_dim12_finishes(self, tmp_path):
        # The closed forms hold for every N >= 3.
        rc = main(["constants", "--dim", "12", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "constants.json")["report"]
        assert rep["N"] == 12
        for key in ("alphaN", "CN", "cN", "omegaN", "gammaN", "quad_error"):
            assert math.isfinite(rep[key]), key
        assert 0 < rep["quad_error"] < 1e-10 * abs(rep["gammaN"])

    def test_dim2_rejected(self, tmp_path, capsys):
        rc = main(["constants", "--dim", "2", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "N >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [144, 344, _HUGE],
                             ids=["144", "344", "401digits"])
    @pytest.mark.parametrize("command",
                             ["constants", "assumptions", "saddle", "verify"])
    def test_dim_beyond_the_constants_rejected(self, tmp_path, capsys,
                                               command, dim):
        # Every subcommand accepts exactly the dimensions whose constants
        # fit a double; the constants overflow from N = 144 on.
        out = tmp_path / "out"
        rc = main([command, "--dim", str(dim), "--out", str(out), "--trace"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestAssumptionsCommand:
    def test_unit_ball_passes(self, tmp_path):
        rc = main(["assumptions", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "assumptions.json")["report"]
        assert rep["all_passed"] is True
        names = [c["check"] for c in rep["checks"]]
        joined = " ".join(names)
        assert "convexity" in joined and "monotonicity" in joined
        # Report carries the monitored extremes (min h'', worst (t-s) dg/dt).
        worst = {c["check"]: c["worst_value"] for c in rep["checks"]}
        assert any(v > 0 for v in worst.values())
        assert any(v < 0 for v in worst.values())

    def test_bad_radius_rejected(self, tmp_path):
        rc = main(["assumptions", "--radius", "-2", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_dim10_finishes(self, tmp_path):
        # The monotonicity sample is drawn in the ball itself, so its cost
        # does not grow with the ball-to-cube volume ratio; the boundary
        # samples sit at depth 0.1 R/(N-2), so every check passes.
        rc = main(["assumptions", "--dim", "10", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "assumptions.json")["report"]
        mono = [c for c in rep["checks"]
                if c["check"].startswith("directional_monotonicity")]
        assert len(mono) == 1 and mono[0]["sample_count"] == 1000
        assert mono[0]["pass"] is True

    @pytest.mark.parametrize("dim, rc", [(142, EXIT_OK), (143, EXIT_CONFIG)])
    def test_stops_where_the_kernels_overflow(self, tmp_path, capsys, dim, rc):
        # At N = 143 the axis kernel overflows a double: exit 1 and no
        # report, where the overflowed samples used to pass every check.
        out = tmp_path / "out"
        assert main(["assumptions", "--dim", str(dim), "--out", str(out)]) == rc
        if rc == EXIT_CONFIG:
            err = capsys.readouterr().err
            assert err.startswith("error:") and "N=143" in err
            assert not out.exists()
        else:
            assert read_json(out / "assumptions.json")["report"]["all_passed"]


# The Newton trace of ``saddle`` on the N = 3 unit ball (frozen pipeline
# output): the step of each row (the start row's is 0) and Psi_k at each
# iterate, from the start mu_embed(1, 1, 1, base_spacing_points(t0, r0)).
TRACE_STEPS = (0.0, 1.0, 1.0, 1.0, 0.5, 0.125, 1.0, 1.0, 1.0, 1.0, 1.0)
TRACE_PSI = (3.095271743422214, 1.7430598600110987, 0.5286746699824123,
             -0.39918584172758775, -0.8092873073868097, -0.8033474725103571,
             -0.8531454060484034, -0.8522906297297024, -0.8522695462068872,
             -0.8522695441005443, -0.8522695441005439)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("saddle_run")
    rc = main(["saddle", "--out", str(path), "--trace"])
    assert rc == EXIT_OK
    return path


class TestSaddleCommand:
    def test_report_contents(self, outdir):
        rep = read_json(outdir / "saddle.json")["report"]
        s = rep["saddle"]
        assert s["value"] == pytest.approx(SADDLE_VALUE, abs=1e-9)
        assert s["grad_norm"] <= 1e-8
        assert s["inertia"][0] >= 1 and s["inertia"][1] >= 1
        assert s["bounds_ok"] is True
        assert rep["identities_max_deviation"] <= 1e-6
        assert rep["bounds"]["lower"] <= s["value"] <= rep["bounds"]["upper"]
        assert rep["t0"] == pytest.approx(0.0, abs=1e-12)
        assert rep["r0"] == pytest.approx(0.06, abs=1e-12)

    def test_trace_emitted(self, outdir):
        with open(outdir / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "psi_tilde", "grad_norm", "step"]
        assert len(rows) >= 3
        assert float(rows[-1][2]) <= 1e-8

    def test_canonical_newton_trace(self, outdir):
        # The CLI's start on the N = 3 unit ball takes 10 Newton steps with
        # these step lengths and Psi_k values, and trace.csv holds the
        # report's trace rows with %.17g numbers.
        unit = BallDomain.unit(3)
        init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(*find_t0_r0(unit)))
        report = solve_saddle(unit, None, init)
        assert report.iterations == 10
        assert [row[0] for row in report.trace] == list(range(11))
        assert tuple(row[3] for row in report.trace) == TRACE_STEPS
        assert [row[1] for row in report.trace] == pytest.approx(
            TRACE_PSI, rel=1e-12, abs=0.0)
        with open(outdir / "trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [[str(i), *(f"{x:.17g}" for x in row)]
                            for i, *row in report.trace]

    @pytest.mark.parametrize("flags", [["--dim", "5"]], ids=["dim5"])
    def test_local_minimum_is_not_reported(self, tmp_path, capsys, flags):
        # The unit-ball Newton converges to a local minimum, inertia
        # (8, 0, 0): a solver failure with no report, not a max-min saddle.
        rc = main(["saddle", "--out", str(tmp_path), "--trace", *flags])
        assert rc == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "(8, 0, 0)" in err and "(7, 1, 0)" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("radius, center", [
        (0.1, None), (0.5, None), (2.0, None), (10.0, None),
        (1.0, [0.3, 0.0, 0.0])],
        ids=["radius0.1", "radius0.5", "radius2", "radius10", "center0.3"])
    def test_radius_and_center_covariance(self, outdir, tmp_path, radius,
                                          center):
        # The covariant image of the unit-ball saddle: t -> c1 + R t,
        # Lambda -> R^{1/2} Lambda, value -> value - 2 log R (N = 3, k = 4).
        cfg_file = tmp_path / "run.json"
        run = {"radius": radius} if center is None else {"center": center}
        cfg_file.write_text(json.dumps(run))
        out = tmp_path / "out"
        rc = main(["saddle", "--config", str(cfg_file), "--out", str(out)])
        assert rc == EXIT_OK
        rep = read_json(out / "saddle.json")["report"]
        unit = read_json(outdir / "saddle.json")["report"]["saddle"]
        s, c1 = rep["saddle"], (center or [0.0])[0]
        assert s["inertia"] == [7, 1, 0] and s["bounds_ok"] is True
        assert s["value"] == pytest.approx(
            unit["value"] - 2.0 * math.log(radius), abs=1e-12)
        L = [math.sqrt(radius) * v for v in unit["config"]["Lambda"]]
        t = [c1 + radius * v for v in unit["config"]["t"]]
        assert s["config"]["Lambda"] == pytest.approx(L, rel=1e-12)
        assert s["config"]["t"] == pytest.approx(t, rel=1e-12)
        assert rep["t0"] == pytest.approx(c1, abs=1e-12)
        assert rep["r0"] == pytest.approx(0.06 * radius, rel=1e-12)
        assert rep["identities_max_deviation"] <= 1e-6
        # Psi on the configured ball itself at the reported configuration.
        d = RunConfig(radius=radius, center=center).domain()
        psi = psi_tilde(Configuration.from_json_dict(s["config"]),
                        AxisKernels.for_ball(d))
        assert psi == pytest.approx(s["value"], abs=1e-12)


class TestVerifyCommand:
    def test_inline_configuration(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "eps": [0.1, 0.05],
            "configuration": {"k": 1, "signs": [1],
                              "Lambda": [math.sqrt(4 * math.pi)], "t": [0.0]},
        }))
        rc = main(["verify", "--config", str(cfg_file),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "verify.json")["report"]
        gap = rep["expansion_gap"]
        assert gap["k"] == 1
        assert gap["monotone_decreasing"] is True
        assert rep["projection_rate"]["constant_stable_within_factor_2"]

    def test_gap_rows_flag_wide_cores(self, tmp_path):
        # At N = 50 the centered k = 1 core is 0.79 of the radius wide at
        # eps = 0.05: the run succeeds and its gap rows say so.
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "dim": 50, "eps": [0.05, 0.025],
            "configuration": {"k": 1, "signs": [1],
                              "Lambda": [math.sqrt(4 * math.pi)], "t": [0.0]},
        }))
        assert main(["verify", "--config", str(cfg_file),
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = read_json(
            tmp_path / "verify.json")["report"]["expansion_gap"]["rows"]
        assert [r["concentrated"] for r in rows] == [False, False]
        assert all(r["core_ratio"] > 0.5 for r in rows)

    def test_reads_saddle_output(self, tmp_path):
        assert main(["saddle", "--out", str(tmp_path)]) == EXIT_OK
        rc = main(["verify", "--out", str(tmp_path), "--eps", "0.1",
                   "--eps", "0.05"])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "verify.json")["report"]
        assert rep["configuration"]["k"] == 4
        assert rep["expansion_gap"]["psi"] == pytest.approx(SADDLE_VALUE,
                                                            abs=1e-9)

    def test_projects_each_bubble_once(self, tmp_path, monkeypatch):
        import nodalbubbles.pde_harness as pde_harness
        calls = []

        def counted(*args):
            calls.append(args[1].eps)
            return project_bubble(*args)

        project_bubble = pde_harness.project_bubble
        monkeypatch.setattr(pde_harness, "project_bubble", counted)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "configuration": {"k": 1, "signs": [1],
                              "Lambda": [math.sqrt(4 * math.pi)], "t": [0.0]},
        }))
        rc = main(["verify", "--config", str(cfg_file), "--out",
                   str(tmp_path), "--eps", "0.1", "--eps", "0.05",
                   "--grid-nz", "257", "--grid-nr", "129"])
        assert rc == EXIT_OK
        assert calls == [0.1, 0.05]
        rows = read_json(tmp_path / "verify.json")["report"]["residuals"]
        assert [r["eps"] for r in rows] == [0.1, 0.05]

    @pytest.mark.parametrize("flags", [
        ["--eps", "0.05"], ["--eps", "0.05", "--eps", "0.05"],
        # eps must stay below 2* - 2 = 4/(N - 2), 0.5 at N = 10: the
        # exponent 2* - 2 - eps was -0.4 and verify wrote a report.
        ["--dim", "10", "--eps", "0.9", "--eps", "0.8"],
    ], ids=["one", "repeated", "beyond-2*-2"])
    def test_single_eps_rejected_before_any_work(self, tmp_path, monkeypatch,
                                                 capsys, flags):
        import nodalbubbles.pde_harness as pde_harness
        calls = []
        monkeypatch.setattr(pde_harness, "project_bubble",
                            lambda *args: calls.append(args))
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "configuration": {"k": 1, "signs": [1],
                              "Lambda": [math.sqrt(4 * math.pi)], "t": [0.0]},
        }))
        rc = main(["verify", "--config", str(cfg_file), "--out",
                   str(tmp_path / "out"), *flags])
        assert rc == EXIT_CONFIG
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "eps" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, run", [
        (["--dim", "4"], {}), (["--radius", "2"], {}),
        ([], {"center": [0.2, 0.0, 0.0]})], ids=["dim4", "radius2", "center"])
    def test_saddle_of_another_ball_rejected(self, outdir, tmp_path,
                                             monkeypatch, capsys, flags, run):
        # A saddle.json written for the unit ball in R^3 is not evaluated
        # in another ball: exit 1 before any grid solve.
        import nodalbubbles.pde_harness as pde_harness
        calls = []
        monkeypatch.setattr(pde_harness, "project_bubble",
                            lambda *args: calls.append(args))
        (tmp_path / "saddle.json").write_text(
            (outdir / "saddle.json").read_text())
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(run))
        rc = main(["verify", "--config", str(cfg_file), "--out",
                   str(tmp_path), "--grid-nz", "1025", "--grid-nr", "513",
                   *flags])
        assert rc == EXIT_CONFIG
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "saddle.json" in err
        assert not (tmp_path / "verify.json").exists()

    def test_saddle_report_without_configuration_rejected(self, outdir,
                                                         tmp_path, capsys):
        # The meta block matches this ball, but report.saddle.config is gone.
        doc = read_json(outdir / "saddle.json")
        del doc["report"]["saddle"]["config"]
        (tmp_path / "saddle.json").write_text(json.dumps(doc))
        rc = main(["verify", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "saddle report" in err
        assert not (tmp_path / "verify.json").exists()

    def test_corrupt_saddle_report_rejected(self, tmp_path, capsys):
        # A truncated saddle.json exits 1 with a message naming the file.
        (tmp_path / "saddle.json").write_text('{"meta": ')
        rc = main(["verify", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "saddle.json" in err
        assert not (tmp_path / "verify.json").exists()

    def test_scaled_ball_probe_is_the_dilation_image(self, outdir, tmp_path):
        # The projection-rate probe on B_R is lam = R, the dilation image of
        # the unit ball's lam = 1 bubble: both radii pass on the default
        # 513x257 grid, and each sup_diff is R^{-1/2} times the unit ball's
        # (N = 3).  grid_relative is not covariant for eps > 0.
        rows = {}
        for radius in (1.0, 2.0, 0.5):
            out = tmp_path / f"R{radius}"
            if radius == 1.0:
                out.mkdir()
                (out / "saddle.json").write_text(
                    (outdir / "saddle.json").read_text())
            else:
                assert main(["saddle", "--radius", str(radius),
                             "--out", str(out)]) == EXIT_OK
            assert main(["verify", "--radius", str(radius),
                         "--out", str(out)]) == EXIT_OK
            rows[radius] = read_json(
                out / "verify.json")["report"]["projection_rate"]["rows"]
        for radius in (2.0, 0.5):
            assert [r["sup_diff"] for r in rows[radius]] == pytest.approx(
                [r["sup_diff"] / math.sqrt(radius) for r in rows[1.0]],
                rel=1e-10)

    @pytest.mark.parametrize("grid, eps", [
        ((513, 257), (0.1, 0.05, 0.025)), ((129, 65), (0.2, 0.1))],
        ids=["513x257", "129x65"])
    @pytest.mark.parametrize("run", [
        {}, {"dim": 4, "radius": 2.0}, {"center": [0.3, 0.0, 0.0]},
        {"dim": 5}, {"dim": 6}],
        ids=["unit3", "dim4-radius2", "off-center", "dim5", "dim6"])
    def test_rate_rows_are_the_sup_over_the_active_nodes(self, tmp_path, run,
                                                         grid, eps):
        # Each row's sup_diff, the probe at the staircase-boundary node
        # nearest the center, is the same float as max |PU - U| over interior
        # and boundary nodes.
        from nodalbubbles.pde_harness import (AxisymGrid, BubbleParams,
                                              bubble_profile, project_bubble)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            **run, "eps": list(eps), "grid_nz": grid[0], "grid_nr": grid[1],
            "configuration": {"k": 1, "signs": [1], "Lambda": [1.0],
                              "t": [0.0]},
        }))
        assert main(["verify", "--config", str(cfg_file),
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = read_json(
            tmp_path / "verify.json")["report"]["projection_rate"]["rows"]
        d = load_run_config(str(cfg_file), {}).domain()
        g = AxisymGrid.for_ball(d, *grid)
        active = g.interior | g.boundary
        d2 = (g.z_nodes[active] - d.center[0]) ** 2 + g.r_nodes[active] ** 2
        sups = []
        for e in eps:
            p = BubbleParams(N=d.N, eps=e, lam=d.radius, xi=d.center)
            PU = project_bubble(d, p, g).values[active]
            U = bubble_profile(d.N, p.core_width, d2)
            sups.append(float(abs(PU - U).max()))
        assert [r["sup_diff"] for r in rows] == sups

    def test_dim4_saddle_then_verify(self, tmp_path):
        assert main(["saddle", "--dim", "4", "--out", str(tmp_path)]) == EXIT_OK
        rc = main(["verify", "--dim", "4", "--out", str(tmp_path),
                   "--grid-nz", "129", "--grid-nr", "65"])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "verify.json")["report"]
        assert rep["configuration"]["k"] == 4
        assert rep["expansion_gap"]["monotone_decreasing"] is True

    def test_dim5_inline_configuration(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "dim": 5, "eps": [0.1, 0.05],
            "configuration": {"k": 1, "signs": [1], "Lambda": [1.0],
                              "t": [0.0]},
        }))
        rc = main(["verify", "--config", str(cfg_file), "--out",
                   str(tmp_path), "--grid-nz", "129", "--grid-nr", "65"])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "verify.json")["report"]
        assert rep["projection_rate"]["constant_stable_within_factor_2"]
        assert rep["expansion_gap"]["monotone_decreasing"] is True

    def test_missing_configuration(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_coarse_grid_resolution_guard(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "configuration": {"k": 1, "signs": [1],
                              "Lambda": [math.sqrt(128.0)], "t": [0.0]},
        }))
        rc = main(["verify", "--config", str(cfg_file), "--out",
                   str(tmp_path), "--eps", "0.5", "--grid-nz", "17",
                   "--grid-nr", "9"])
        assert rc == EXIT_RESOLUTION
        err = capsys.readouterr().err
        assert "need at least a 25x13 grid" in err and err.count("25x13") == 1

    def test_coarse_grid_names_the_grid_once(self, tmp_path, capsys):
        # The default eps list on 65x33, as CI runs it: exit 5 before the
        # configuration is read, no report, and the grid named once.
        out = tmp_path / "out"
        rc = main(["verify", "--grid-nz", "65", "--grid-nr", "33",
                   "--out", str(out)])
        assert rc == EXIT_RESOLUTION
        err = capsys.readouterr().err
        assert err.startswith("resolution error: core width 1.000e-01")
        assert "need at least a 121x61 grid" in err
        assert err.count("121x61") == 1
        assert not out.exists()


class TestDeterminismAndFormats:
    def test_saddle_reports_byte_identical_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["saddle", "--out", str(a)]) == EXIT_OK
        assert main(["saddle", "--out", str(b)]) == EXIT_OK
        la = (a / "saddle.json").read_text().splitlines()
        lb = (b / "saddle.json").read_text().splitlines()
        assert len(la) == len(lb)
        diff = [(x, y) for x, y in zip(la, lb) if x != y]
        for x, _ in diff:
            assert "timestamp_utc" in x or '"out"' in x
        assert len(diff) <= 2

    def test_csv_twin_consistent_with_json(self, tmp_path):
        rc = main(["constants", "--out", str(tmp_path), "--format", "csv"])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "constants.json")["report"]
        with open(tmp_path / "constants.csv", newline="") as fh:
            rows = {k: v for k, v in list(csv.reader(fh))[1:]}
        assert float(rows["omegaN"]) == rep["omegaN"]
        assert float(rows["cN"]) == rep["cN"]

    def test_csv_twin_keeps_the_field_order(self, tmp_path):
        # JSON sorts its keys; the CSV twin shows the record's own order.
        rc = main(["constants", "--out", str(tmp_path), "--format", "csv"])
        assert rc == EXIT_OK
        with open(tmp_path / "constants.csv", newline="") as fh:
            keys = [row[0] for row in csv.reader(fh)]
        assert keys == ["key", *(f.name for f in fields(ConstantsTable)),
                        "values_implementer_derived"]

    def test_csv_twin_of_a_report_with_lists(self, tmp_path):
        # Lists flatten to one key[i] row per entry.
        rc = main(["saddle", "--out", str(tmp_path), "--format", "csv"])
        assert rc == EXIT_OK
        rep = read_json(tmp_path / "saddle.json")["report"]["saddle"]
        with open(tmp_path / "saddle.csv", newline="") as fh:
            rows = {k: v for k, v in list(csv.reader(fh))[1:]}
        lists = {"saddle.config.Lambda": (rep["config"]["Lambda"], float),
                 "saddle.config.t": (rep["config"]["t"], float),
                 "saddle.inertia": (rep["inertia"], int)}
        for key, (values, kind) in lists.items():
            flat = [kind(rows[f"{key}[{i}]"]) for i in range(len(values))]
            assert flat == values
        assert f"saddle.inertia[{len(rep['inertia'])}]" not in rows

    def test_report_without_json_form_writes_nothing(self, tmp_path):
        # JSON has no NaN: the report is refused before any file is opened.
        config = RunConfig(out=str(tmp_path / "out"), format="csv")
        with pytest.raises(ValueError):
            write_report("constants", {"value": math.nan}, config)
        assert not (tmp_path / "out").exists()

    def test_json_has_sorted_keys_and_meta(self, tmp_path):
        assert main(["constants", "--out", str(tmp_path)]) == EXIT_OK
        doc = read_json(tmp_path / "constants.json")
        assert set(doc) == {"meta", "report"}
        meta = doc["meta"]
        assert meta["package"] == "nodalbubbles"
        assert "timestamp_utc" in meta
        assert meta["effective_config"]["dim"] == 3
