"""Scenario file parsing, serialization roundtrips, and the CLI surface."""

import dataclasses
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab.cli as cli
import semilab.evolution as evolution
from semilab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    main,
)
from semilab.coefficients import (BoxDomain, CoefficientSystem, block_shape,
                                  expr_matrix)
from semilab.discrete import assemble, nittka_shifted, node_norms
from semilab.evolution import SCHEMES, band_limited_random
from semilab.gallery import gallery_names, gallery_scenario
from semilab.hypotheses import fixed_gamma, kernel_mode, refined
from semilab.scenario import (Scenario, ScenarioError, entry_key,
                              parse_scenario, scenario_to_text)

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


FIXED_GAMMA = "mode = fixed_gamma\ngamma = 1\nCgamma = 1"
# (mode lines, a key that mode does not read)
FOREIGN_MODE_KEYS = [
    ("mode = refined\na = 0.25", "gamma = 5"),
    ("mode = refined\na = 0.25", "c = 1"),
    (FIXED_GAMMA, "a = 0.3"),
    ("mode = kernel\nbeta = 0\nc = 1", "Cgamma = 1"),
]


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

    @pytest.mark.parametrize("p", ["1", "0.5", "nan"])
    def test_p_list_rejects_exponent_not_above_one(self, p, tmp_path):
        text = MINIMAL.replace("p = 2", f"p = 2, {p}")
        with pytest.raises(ScenarioError, match="p must exceed 1"):
            parse_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("key", ["q.1", "q.111", "a.11.1", "b.11.11",
                                     "v.1x", "z.11", "Q.11"])
    def test_malformed_key_unrecognized(self, key, tmp_path):
        text = INDEFINITE.replace('v.11 = "2"', f'v.11 = "2"\n{key} = "1"')
        with pytest.raises(ScenarioError, match="unrecognized coefficient key"):
            parse_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("key", ["q.10", "v.13"])
    def test_key_index_out_of_range(self, key, tmp_path):
        text = INDEFINITE.replace('v.11 = "2"', f'v.11 = "2"\n{key} = "1"')
        with pytest.raises(ScenarioError, match="index out of range"):
            parse_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_no_components_rejected(self, m, tmp_path):
        text = MINIMAL.replace("m = 1", f"m = {m}")
        with pytest.raises(ScenarioError, match="m must be at least 1"):
            parse_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("key", ["d", "m"])
    def test_operator_size_above_nine_rejected(self, key, tmp_path):
        path = write(tmp_path, MINIMAL.replace(f"{key} = 1", f"{key} = 10"))
        with pytest.raises(ScenarioError, match=re.escape(
                f"{path}: [operator] {key} must be at most 9, got 10")):
            parse_scenario(path)

    @pytest.mark.parametrize("section, line", [
        ("domain", "nn = 3"), ("run", "sample = 3"), ("run", "Seed = 3")])
    def test_unread_key_rejected(self, section, line, tmp_path):
        text = MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        path = write(tmp_path, text)
        key = line.split(" =")[0]
        with pytest.raises(ScenarioError, match=re.escape(
                f"{path}: [{section}] {key}: unrecognized key")):
            parse_scenario(path)

    @pytest.mark.parametrize("mode, line", FOREIGN_MODE_KEYS)
    def test_parameter_of_other_mode_rejected(self, mode, line, tmp_path):
        path = write(tmp_path, MINIMAL.replace(FIXED_GAMMA, f"{mode}\n{line}"))
        key = line.split(" =")[0]
        with pytest.raises(ScenarioError, match=re.escape(
                f"{path}: [hypotheses] {key}: unrecognized key")):
            parse_scenario(path)

    def test_unknown_scheme_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("seed = 7", "seed = 7\nscheme = foo"))
        with pytest.raises(ScenarioError, match=re.escape(
                f"{path}: [run] scheme must be one of implicit_euler, "
                "crank_nicolson, got 'foo'")):
            parse_scenario(path)

    def test_zero_samples_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("samples = 3", "samples = 0"))
        with pytest.raises(ScenarioError,
                           match=re.escape(f"{path}: [run] samples must be at least 1")):
            parse_scenario(path)


class TestRoundtrip:
    def test_key_holds_one_digit_per_index(self):
        assert entry_key("V", (8, 8)) == "v.99"
        assert entry_key("A", (0, 1, 8, 0)) == "a.12.91"
        for block, index in (("V", (9, 0)), ("A", (0, 1, 0, 10)),
                             ("B", (9, 0, 0))):
            with pytest.raises(ValueError, match="scenario key cannot hold"):
                entry_key(block, index)

    def test_system_above_nine_components_not_serialized(self):
        scn = gallery_scenario("g1")
        system = CoefficientSystem(
            d=1, m=10, Q=expr_matrix([["1"]]),
            V=expr_matrix(np.eye(10, dtype=int).astype(str).tolist()))
        with pytest.raises(ValueError, match="scenario key cannot hold"):
            scenario_to_text(dataclasses.replace(scn, system=system))

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


EXPRS = ["0", "1", "-0.5", "2.5", "x{k}", "x{k}^2 + 1", "0.3 * sin(x{k})",
         "max(x{k}, 0.5)", "exp(-x{k}) / 4"]
FLOATS = st.floats(-5.0, 5.0, allow_nan=False)
POSITIVE = st.floats(1e-3, 10.0, allow_nan=False)


@st.composite
def scenarios(draw):
    """Scenarios with d, m in 1..3, random Q and V, a random subset of the
    optional blocks (each with a nonzero entry), any mode and run settings."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(name):
        arr = np.empty(block_shape(name, d, m), dtype=object)
        for index in np.ndindex(arr.shape):
            arr[index] = draw(st.sampled_from(EXPRS)).format(
                k=draw(st.integers(1, d)))
        return arr

    blocks = {"Q": block("Q"), "V": block("V")}
    for name in draw(st.sets(st.sampled_from("ABCW"))):
        arr = blocks[name] = block(name)
        arr[draw(st.sampled_from(list(np.ndindex(arr.shape))))] = "1 + x1"
    system = CoefficientSystem(d=d, m=m, **{
        name: expr_matrix(arr.tolist()) for name, arr in blocks.items()})
    lower = draw(st.lists(FLOATS, min_size=d, max_size=d))
    upper = [lo + draw(POSITIVE) for lo in lower]
    n = draw(st.lists(st.integers(2, 9), min_size=d, max_size=d))
    mode = draw(st.one_of(
        st.builds(fixed_gamma, POSITIVE, FLOATS),
        st.builds(refined, st.floats(0.01, 0.49),
                  st.none() | st.floats(0.0, 0.99)),
        st.builds(kernel_mode, st.floats(0.0, 4.0), st.floats(1.0, 10.0))))
    return Scenario(
        name=draw(st.from_regex(r"[a-z][a-z0-9-]{0,10}", fullmatch=True)),
        system=system, grid=BoxDomain(lower, upper, n), mode=mode,
        p_list=draw(st.lists(st.floats(1.01, 100.0) | st.just(float("inf")),
                             min_size=1, max_size=4)),
        t_final=draw(POSITIVE), dt=draw(POSITIVE),
        n_samples=draw(st.integers(1, 100)),
        scheme=draw(st.sampled_from(SCHEMES)),
        seed=draw(st.integers(0, 2**31)))


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_scenario_text_roundtrip(scn):
    text = scenario_to_text(scn)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.ini")
        with open(path, "w") as fh:
            fh.write(text)
        back = parse_scenario(path)
    assert back == scn
    assert scenario_to_text(back) == text


def test_gallery_scenario_hashes_are_pinned():
    # the hash of each gallery scenario's text; a change here changes every
    # report's scenario_hash
    assert {key: cli._scenario_hash(gallery_scenario(key))
            for key in gallery_names()} == {
        "g1": "53aec2eed39a9f4e",
        "g2": "d25615eef366048f",
        "g3": "6eb1e7c2198b4ec7",
        "g4": "8f100262096e478c",
        "g5": "2caf062f3ef8a516",
        "g6-flat": "7e89be511f39148f",
        "g6-quadratic": "25ccc2f32092e04a",
    }


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

    @pytest.mark.parametrize("p", ["-3", "0.5", "1", "nan"])
    def test_p_not_above_one_is_config_error(self, p, tmp_path, capsys):
        assert main(["evolve", "--scenario", "gallery:g1", "--p", p,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: p must exceed 1")

    def test_p_list_accepts_infinity(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["evolve", "--scenario", "gallery:g1", "--p", "2,infinity",
                     "--out", str(out)]) == EXIT_OK
        traces = json.loads((out / "report.json").read_text())[
            "sections"]["evolve"]["traces"]
        assert sorted(traces) == ["2.0", "inf"]

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

    def test_growth_rate_beyond_float_range_is_inf(self, tmp_path, capsys):
        # at p = 1.01 gamma_p is about 1e-4, and the refined rate's power
        # gamma^(b/(b-1)) = gamma^-82 lies beyond the float range
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\nb.1.11 = "3"')
                .replace("mode = fixed_gamma\ngamma = 1\nCgamma = 1",
                         "mode = refined\na = 0.25\nb = 0.988")
                .replace("p = 2\n", "p = 2, 1.01\n")
                .replace("seed = 7", "seed = 1"))
        out = tmp_path / "out"
        code = main(["evolve", "--scenario", write(tmp_path, text),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        rep = json.loads((out / "report.json").read_text())
        assert code == (EXIT_OK if rep["pass"] else EXIT_CHECK_FAILED)
        assert sorted(captured.out.splitlines()) == [
            f"{name}: {'pass' if sec['pass'] else 'FAIL'}"
            for name, sec in sorted(rep["sections"].items())]
        trace = rep["sections"]["evolve"]["traces"]["1.01"]
        assert trace["bound"] is None and trace["within_bound"] is True

    def test_kernel_and_distance_share_one_distance_map(self, tmp_path,
                                                        capsys, monkeypatch):
        calls = {"weight_field": 0, "distance_map": 0}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        assert main(["all", "--scenario", "gallery:g6-quadratic",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls == {"weight_field": 1, "distance_map": 1}

    def test_kernel_and_evolve_share_one_stepper(self, tmp_path, capsys,
                                                 monkeypatch):
        built = []

        class CountingStepper(cli.Stepper):
            def __init__(self, *args, **kwargs):
                built.append(args[2:])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "Stepper", CountingStepper)
        assert main(["all", "--scenario", "gallery:g6-quadratic",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert built == [("implicit_euler",)]

    @pytest.mark.parametrize("sub", ["evolve", "nittka"])
    def test_zero_samples_is_config_error(self, sub, tmp_path, capsys):
        path = write(tmp_path, MINIMAL.replace("samples = 3", "samples = 0"))
        assert main([sub, "--scenario", path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: [run] samples must be at least 1, got 0"]

    @pytest.mark.parametrize("old, new", [
        ("samples = 3", "sample = 3"),
        ("seed = 7", "seed = 7\nscheme = foo"),
        ("gamma = 1\nCgamma = 1", "gamma = 1\nCgamma = 1\na = 0.3"),
        ("n = 32", "n = 32\nm = 4"),
    ])
    def test_unread_setting_is_config_error(self, old, new, tmp_path, capsys):
        path = write(tmp_path, MINIMAL.replace(old, new))
        assert main(["check-hypotheses", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: [")

    def test_all_writes_growth_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["all", "--scenario", "gallery:g1",
                     "--out", str(out)]) == EXIT_OK
        traces = json.loads((out / "report.json").read_text())[
            "sections"]["evolve"]["traces"]
        for p in ("2", "4"):
            rows = (out / f"growth_p{p}.csv").read_text().splitlines()
            assert rows[0] == "t,worst_norm,worst_slope,bound"
            # g1 takes 1000 steps, so each of the 10 checkpoints is its own row
            assert len(rows) == 1 + 10
            slopes = [float(r.split(",")[2]) for r in rows[1:]]
            assert max(slopes) == traces[f"{p}.0"]["max_slope"]
            assert {r.split(",")[3] for r in rows[1:]} == {
                repr(traces[f"{p}.0"]["bound"])}

    def test_all_writes_distance_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["all", "--scenario", "gallery:g1",
                     "--out", str(out)]) == EXIT_OK
        rows = (out / "distance.csv").read_text().splitlines()
        assert rows[0] == "x1,distance"
        assert len(rows) == 1 + gallery_scenario("g1").grid.node_count
        section = json.loads((out / "report.json").read_text())[
            "sections"]["distance"]
        assert max(float(r.split(",")[1]) for r in rows[1:]) \
            == section["max_distance"]

    def test_all_leaves_no_temporary_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["all", "--scenario", "gallery:g6-flat",
                     "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == [
            "distance.csv", "growth_p2.csv", "kernel.csv", "report.json",
            "timings.json"]

    def test_failed_csv_leaves_no_file(self, tmp_path):
        def rows():
            yield [1, 2]
            raise RuntimeError("row source failed")

        path = tmp_path / "x.csv"
        with pytest.raises(RuntimeError):
            cli._write_csv(str(path), ["a", "b"], rows())
        assert os.listdir(tmp_path) == []

    def test_kernel_bound_computed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = cli.gaussian_bound_rhs

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "gaussian_bound_rhs", counting)
        assert main(["all", "--scenario", "gallery:g6-quadratic",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == 1

    def test_kernel_grid_without_checked_node_is_config_error(self, tmp_path,
                                                              capsys):
        assert main(["all", "--scenario", "gallery:g6-flat", "--grid", "3",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: no grid node lies 5 cells from "
                                 "the boundary")


def outputs(out_dir) -> dict:
    """Every file of a run's output directory but timings.json, as bytes."""
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir)) if name != "timings.json"}


class TestRunRecord:
    def test_timings_name_every_phase(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["all", "--scenario", "gallery:g1",
                     "--out", str(out)]) == EXIT_OK
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {
            "sample", "assemble", "factor", "hypotheses", "pinterval",
            "evolve", "probe_workers", "nittka", "central_distances",
            "kernel", "distance"}
        assert timings["probe_workers"] == 1
        report = (out / "report.json").read_text()
        assert "workers" not in report and "factor" not in report

    def test_hypotheses_only_run_times_sampling(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check-hypotheses", "--scenario", "gallery:g1",
                     "--out", str(out)]) == EXIT_OK
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"sample", "hypotheses"}

    @pytest.mark.parametrize("key, changes, grid", [
        ("g3", {"n_samples": 4, "t_final": 5e-4}, "128"),
        ("g4", {"n_samples": 4, "t_final": 5e-4}, "96"),
        ("g6-flat", {}, None),
        ("g6-quadratic", {}, None),
    ])
    def test_small_marches_start_no_process(self, tmp_path, capsys,
                                            process_starts, key, changes,
                                            grid):
        # the fine2d and kernel1d benchmark calls step in-process
        scn = dataclasses.replace(gallery_scenario(key), **changes)
        argv = ["all", "--scenario", write(tmp_path, scenario_to_text(scn)),
                "--out", str(tmp_path / "out")]
        assert main(argv + (["--grid", grid] if grid else [])) == EXIT_OK
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert timings["probe_workers"] == 1
        assert process_starts == []


@pytest.mark.skipif(evolution._blas_one_thread() is None,
                    reason="SciPy's BLAS cannot be held to one thread here, "
                           "so every march stays in-process")
class TestForkedCli:
    def test_g3_reports_identical_either_way(self, tmp_path, capsys,
                                             march_on, process_starts):
        scn = dataclasses.replace(gallery_scenario("g3"),
                                  t_final=12 * gallery_scenario("g3").dt)
        path = write(tmp_path, scenario_to_text(scn))
        runs = {}
        for cpus in (None, 2):
            march_on(cpus)
            out = tmp_path / f"out-{cpus}"
            assert main(["all", "--scenario", path, "--out", str(out)]) \
                == EXIT_OK
            timings = json.loads((out / "timings.json").read_text())
            runs[cpus] = (outputs(out), timings["probe_workers"],
                          capsys.readouterr())
        assert runs[2][0] == runs[None][0]
        assert "growth_p2.csv" in runs[2][0]
        assert (runs[None][1], runs[2][1]) == (1, 2)
        assert runs[2][2] == runs[None][2]
        assert len(process_starts) == 2

    def test_blow_up_in_a_child_is_failed_check(self, tmp_path, capsys,
                                                march_on, process_starts):
        march_on(2)
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "-300"')
                .replace("p = 2\n", "p = 2, 4\n")
                .replace("t_final = 0.01", "t_final = 1")
                .replace("samples = 3", "samples = 5"))
        code = main(["evolve", "--scenario", write(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CHECK_FAILED
        assert capsys.readouterr().err.splitlines() == [
            "error: blow-up detected during evolution"]
        assert len(process_starts) == 2
