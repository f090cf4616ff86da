"""Scenario file parsing, serialization roundtrips, and the CLI surface."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from semilab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    main,
)
from semilab.discrete import assemble, nittka_shifted, node_norms
from semilab.evolution import band_limited_random
from semilab.gallery import gallery_names, gallery_scenario
from semilab.scenario import ScenarioError, parse_scenario, scenario_to_text

MINIMAL = """\
[domain]
lower = 0
upper = 1
n = 32

[operator]
d = 1
m = 1
q.11 = "1"
v.11 = "2"

[hypotheses]
mode = fixed_gamma
gamma = 1
Cgamma = 1

[run]
p = 2
t_final = 0.01
dt = 1e-3
samples = 3
seed = 7
"""

INDEFINITE = MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\nv.22 = "-1"').replace(
    "m = 1", "m = 2")


def write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_scenario(self, tmp_path):
        scn = parse_scenario(write(tmp_path, MINIMAL))
        assert scn.system.d == 1 and scn.system.m == 1
        assert scn.grid.n == (32,)
        assert scn.seed == 7
        assert scn.p_list == [2.0]
        assert scn.system.B is None and scn.system.W is None

    def test_missing_seed_rejected(self, tmp_path):
        text = MINIMAL.replace("seed = 7\n", "")
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(write(tmp_path, text))

    def test_unquoted_expression_rejected(self, tmp_path):
        text = MINIMAL.replace('q.11 = "1"', "q.11 = 1")
        with pytest.raises(ScenarioError, match=r"q\.11"):
            parse_scenario(write(tmp_path, text))

    def test_index_out_of_range(self, tmp_path):
        text = MINIMAL.replace('q.11 = "1"', 'q.11 = "1"\nq.12 = "0"')
        with pytest.raises(ScenarioError, match="out of range"):
            parse_scenario(write(tmp_path, text))

    def test_unknown_coefficient_key(self, tmp_path):
        text = MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\nz.11 = "1"')
        with pytest.raises(ScenarioError, match="unrecognized"):
            parse_scenario(write(tmp_path, text))

    def test_dimension_mismatch(self, tmp_path):
        text = MINIMAL.replace("d = 1", "d = 2")
        with pytest.raises(ScenarioError, match="dimension"):
            parse_scenario(write(tmp_path, text))

    def test_syntax_error_reports_location(self, tmp_path):
        text = MINIMAL.replace('v.11 = "2"', 'v.11 = "2 +"')
        with pytest.raises(ScenarioError, match=r"v\.11"):
            parse_scenario(write(tmp_path, text))

    def test_p_list_accepts_inf(self, tmp_path):
        text = MINIMAL.replace("p = 2", "p = 2, inf")
        scn = parse_scenario(write(tmp_path, text))
        assert scn.p_list[1] == float("inf")


class TestRoundtrip:
    @pytest.mark.parametrize("key", gallery_names())
    def test_gallery_scenarios_roundtrip(self, key, tmp_path):
        scn = gallery_scenario(key)
        path = write(tmp_path, scenario_to_text(scn), f"{key}.ini")
        back = parse_scenario(path)
        assert back == dataclasses.replace(scn, closed_forms={})

    def test_text_is_stable(self, tmp_path):
        scn = gallery_scenario("g5")
        text = scenario_to_text(scn)
        back = parse_scenario(write(tmp_path, text))
        assert scenario_to_text(back) == text


class TestCli:
    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["check-hypotheses", "--scenario", "/no/such/file.ini"]) \
            == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_no_scenario_flag(self, capsys):
        assert main(["check-hypotheses"]) == EXIT_CONFIG_ERROR

    def test_check_passes_on_valid_scenario(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL)
        out = str(tmp_path / "out")
        assert main(["check-hypotheses", "--scenario", path, "--out", out]) \
            == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["pass"] is True
        assert (tmp_path / "out" / "timings.json").exists()

    def test_check_fails_on_indefinite_potential(self, tmp_path, capsys):
        path = write(tmp_path, INDEFINITE)
        out = str(tmp_path / "out")
        assert main(["check-hypotheses", "--scenario", path, "--out", out]) \
            == EXIT_CHECK_FAILED

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")
        # undefined constants are written as null, which strict JSON allows
        text = (tmp_path / "out" / "report.json").read_text()
        hyp = json.loads(text, parse_constant=reject)["sections"]["hypotheses"]
        assert hyp["report"]["kappaB"] is None

    @pytest.mark.parametrize("text", [MINIMAL, INDEFINITE],
                             ids=["passing", "failing"])
    def test_report_passes_are_json_booleans(self, text, tmp_path, capsys):
        out = tmp_path / "out"
        main(["check-hypotheses", "--scenario", write(tmp_path, text),
              "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        passes = rep["sections"]["hypotheses"]["report"]["passes"]
        assert passes and all(type(v) is bool for v in passes.values())

    def test_report_bytes_are_reproducible(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL)
        for name in ("a", "b"):
            assert main(["all", "--scenario", path,
                         "--out", str(tmp_path / name)]) == EXIT_OK
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb

    def test_gallery_list(self, capsys):
        assert main(["gallery", "--list"]) == EXIT_OK
        out = capsys.readouterr().out
        for key in gallery_names():
            assert key in out

    def test_p_interval_constants(self, capsys):
        assert main(["p-interval", "--constants", "0,0,0,0,1"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "]1, inf["

    def test_p_interval_constants_closed_case(self, capsys):
        # kappa_A = kappa_W = 0, kappa_B = kappa_C = 1, gamma = 1/2: [1.2, 6]
        assert main(["p-interval", "--constants", "0,1,1,0,0.5"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "[1.2, 6.0]"

    def test_p_interval_bad_constants(self, capsys):
        assert main(["p-interval", "--constants", "1,2"]) == EXIT_CONFIG_ERROR

    def test_overrides_change_scenario_hash(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL)
        assert main(["check-hypotheses", "--scenario", path,
                     "--out", str(tmp_path / "base")]) == EXIT_OK
        assert main(["check-hypotheses", "--scenario", path, "--grid", "64",
                     "--seed", "9", "--out", str(tmp_path / "mod")]) == EXIT_OK
        ra = json.loads((tmp_path / "base" / "report.json").read_text())
        rb = json.loads((tmp_path / "mod" / "report.json").read_text())
        assert ra["scenario_hash"] != rb["scenario_hash"]
        assert rb["seed"] == 9

    def test_gallery_prefix_loads_builtin(self, tmp_path, capsys):
        assert main(["check-hypotheses", "--scenario", "gallery:g1",
                     "--out", str(tmp_path / "g1")]) == EXIT_OK
        report = json.loads((tmp_path / "g1" / "report.json").read_text())
        assert report["scenario"] == gallery_scenario("g1").name

    def test_unknown_gallery_key(self, capsys):
        assert main(["check-hypotheses", "--scenario", "gallery:nope"]) \
            == EXIT_CONFIG_ERROR

    def test_expression_undefined_at_node_is_config_error(self, tmp_path,
                                                          capsys):
        text = (MINIMAL.replace("lower = 0", "lower = -1")
                .replace('v.11 = "2"', 'v.11 = "log(x1)"'))
        assert main(["all", "--scenario", write(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: log of a non-positive argument at node "
                       "(-0.9375,)"]

    def test_indefinite_drift_whitener_is_failed_check(self, tmp_path, capsys):
        # Cgamma = -10 makes gamma V_S + Cgamma indefinite: check_all flags
        # it instead of raising, so this is a failed check, not exit 2
        text = (MINIMAL.replace("Cgamma = 1", "Cgamma = -10")
                .replace('v.11 = "2"', 'v.11 = "4"\nb.1.11 = "0.5"'))
        out = tmp_path / "out"
        assert main(["check-hypotheses", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CHECK_FAILED
        rep = json.loads((out / "report.json").read_text())
        hyp = rep["sections"]["hypotheses"]["report"]
        assert hyp["passes"]["drift_bounds_finite"] is False
        assert any("not positive definite" in n for n in hyp["notes"])

    def test_nittka_finding_scale_from_worst_sample(self, tmp_path, capsys):
        # a strongly negative potential makes the shifted sign test negative
        # at p = 3; the finding's scale is ||u||_p^p of the minimizing sample
        text = MINIMAL.replace('v.11 = "2"', 'v.11 = "-1000"').replace(
            "p = 2\n", "p = 3\n")
        path = write(tmp_path, text)
        out = tmp_path / "out"
        main(["nittka", "--scenario", path, "--out", str(out)])
        sec = json.loads((out / "report.json").read_text())["sections"]["nittka"]
        [finding] = sec["findings"]

        scn = parse_scenario(path)
        F = assemble(scn.system, scn.grid)
        u = band_limited_random(F.grid, F.m, np.random.default_rng(scn.seed + 1),
                                scn.n_samples)
        vals = nittka_shifted(F, u, 3.0, 1.0, 1.0)
        worst = int(np.argmin(vals))
        assert worst != 0  # sample 0 would give a different scale
        assert finding["min_shifted_value"] == vals[worst] < 0
        assert finding["scale"] == pytest.approx(
            F.mass * np.sum(node_norms(u[:, worst], F.m) ** 3), rel=1e-14)
        assert sec["pass"] is True

    def test_nonpositive_fixed_gamma_is_config_error(self, tmp_path, capsys):
        text = MINIMAL.replace("gamma = 1\n", "gamma = 0\n")
        assert main(["check-hypotheses", "--scenario", write(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "gamma > 0" in err[0]

    def test_singular_step_matrix_is_config_error(self, tmp_path, capsys):
        # one interior node, h = vol = 1/2: M + dt S = 0.5 + 1e-3 * 0.5 *
        # (8 - 1008) = 0, so the implicit Euler factorization fails
        text = (MINIMAL.replace("n = 32", "n = 2")
                .replace('v.11 = "2"', 'v.11 = "-1008"'))
        assert main(["evolve", "--scenario", write(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: implicit_euler step matrix is singular at "
                       "dt = 0.001 (Factor is exactly singular)"]

    def test_kernel_blow_up_is_failed_check(self, tmp_path, capsys):
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "-300"')
                .replace("mode = fixed_gamma\ngamma = 1\nCgamma = 1",
                         "mode = kernel\nbeta = 0\nc = 1")
                .replace("t_final = 0.01", "t_final = 0.1"))
        assert main(["kernel", "--scenario", write(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: blow-up detected during evolution"]

    def test_probe_blow_up_is_failed_check(self, tmp_path, capsys):
        # the lowest mode grows about 1.4-fold per implicit Euler step
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "-300"')
                .replace("p = 2\n", "p = 2, 4\n")
                .replace("t_final = 0.01", "t_final = 1")
                .replace("samples = 3", "samples = 5"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["evolve", "--scenario", write(tmp_path, text),
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: blow-up detected during evolution"]
        assert "evolve: pass" not in captured.out

    def test_zero_diffusion_is_failed_check(self, tmp_path, capsys):
        text = MINIMAL.replace('q.11 = "1"', 'q.11 = "0"').replace(
            'v.11 = "2"', 'v.11 = "1"')
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["evolve", "--scenario", write(tmp_path, text),
                         "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert "singular" not in capsys.readouterr().err
        rep = json.loads((out / "report.json").read_text())
        assert rep["sections"]["hypotheses"]["report"]["passes"][
            "Q_positive"] is False

    def test_kernel_section_fails_on_undefined_kappa(self, tmp_path, capsys):
        # V_S is not positive, so the drift bounds and kappa are undefined
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "-1"')
                .replace("mode = fixed_gamma\ngamma = 1\nCgamma = 1",
                         "mode = kernel\nbeta = 0\nc = 1"))
        out = tmp_path / "out"
        assert main(["kernel", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CHECK_FAILED
        sec = json.loads((out / "report.json").read_text())["sections"]["kernel"]
        assert sec["pass"] is False
        assert "kappa is undefined" in sec["reason"]
        assert "bundle" not in sec

    def test_kernel_section_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["kernel", "--scenario", "gallery:g6-flat",
                     "--out", str(out)]) == EXIT_OK
        rows = (out / "kernel.csv").read_text().splitlines()
        assert rows[0] == "x1,source,i,j,value,distance,bound,margin"
        scn = gallery_scenario("g6-flat")
        assert len(rows) == 1 + scn.grid.node_count
        x1, _, _, _, value, _, bound, margin = map(float, rows[1].split(","))
        assert margin == pytest.approx(bound - abs(value), rel=1e-12, abs=1e-300)
