"""Scenario file parsing, serialization roundtrips, and the CLI surface."""

import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
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
# the diagnoses of a coefficient beyond the float range at the first node of
# an 8-interval grid on [0, 1]
FACE_WEIGHT = "diffusion face weight along x1 is not finite at node (0.125,)"
Q_INVERSE = "Q^-1 lies beyond the float range at node (0.125,)"
KERNEL = "mode = kernel\nbeta = 0\nc = 1"
# a 1-D kernel-mode scenario with a constant drift
KERNEL_1D = (MINIMAL.replace("lower = 0", "lower = -4")
             .replace("upper = 1", "upper = 4").replace("n = 32", "n = 64")
             .replace('v.11 = "2"', 'v.11 = "1 + x1^2"\nb.1.11 = "3"')
             .replace(FIXED_GAMMA, KERNEL).replace("t_final = 0.01",
                                                   "t_final = 0.05"))
# a 2-D kernel-mode scenario on an 8 x 8 grid of [0, 1]^2
KERNEL_2D = (MINIMAL.replace("lower = 0", "lower = 0, 0")
             .replace("upper = 1", "upper = 1, 1").replace("n = 32", "n = 8, 8")
             .replace("d = 1", "d = 2")
             .replace('q.11 = "1"', 'q.11 = "1"\nq.22 = "1"')
             .replace(FIXED_GAMMA, "mode = kernel\nbeta = 1\nc = 1"))
# scenario files configparser cannot read: (text, part of the message)
UNREADABLE = {
    "repeated-key": (MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\nv.11 = "3"'),
                     "option 'v.11' in section 'operator' already exists"),
    "repeated-section": (MINIMAL + "\n[run]\nseed = 8\n",
                         "section 'run' already exists"),
    "key-above-header": ("seed = 7\n" + MINIMAL,
                         "File contains no section headers"),
    "line-without-equals": (MINIMAL.replace('v.11 = "2"',
                                            'v.11 = "2"\ngarbage'),
                            "[line 11]: 'garbage\\n'"),
}
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

    @pytest.mark.parametrize("case", UNREADABLE)
    def test_unreadable_file_rejected(self, case, tmp_path):
        text, message = UNREADABLE[case]
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(write(tmp_path, text))

    def test_zero_samples_rejected(self, tmp_path):
        # and a negative seed, which numpy's generators reject unnamed
        for old, new, message in (
                ("samples = 3", "samples = 0", "samples must be at least 1"),
                ("seed = 7", "seed = -5", "seed must be non-negative, got -5")):
            path = write(tmp_path, MINIMAL.replace(old, new))
            with pytest.raises(ScenarioError,
                               match=re.escape(f"{path}: [run] {message}")):
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
def scenarios(draw, exprs=EXPRS):
    """Scenarios with d, m in 1..3, random Q and V, a random subset of the
    optional blocks (each with a nonzero entry), any mode and run settings;
    every entry is drawn from ``exprs``."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(name):
        arr = np.empty(block_shape(name, d, m), dtype=object)
        for index in np.ndindex(arr.shape):
            arr[index] = draw(st.sampled_from(exprs)).format(
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


# entries at and beyond the edges of the float range, and functions with a
# domain
EXTREME_EXPRS = EXPRS + ["1e300", "1e-320", "-1e308", "1e308", "1e154 * x{k}",
                         "1e-160", "log(x{k})", "sqrt(x{k})"]


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@given(scenarios(EXTREME_EXPRS), st.sampled_from(["check-hypotheses",
                                                  "p-interval"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_constants_subcommands_keep_their_contract(scn, sub):
    # exit 0, 1 or 2 with no exception and no numpy warning; exit 2 is one
    # error line and no report.json, any other exit a strict-JSON report
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "case.ini"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write(scenario_to_text(scn))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([sub, "--scenario", path, "--out", out])
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR)
        report = os.path.join(out, "report.json")
        if code == EXIT_CONFIG_ERROR:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not os.path.exists(report)
        else:
            with open(report) as fh:
                json.load(fh, parse_constant=reject_constant)


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

    @pytest.mark.parametrize("case", UNREADABLE)
    def test_unreadable_file_is_config_error(self, case, tmp_path, capsys):
        text, message = UNREADABLE[case]
        path = write(tmp_path, text)
        assert main(["check-hypotheses", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        [err] = captured.err.splitlines()
        assert err.startswith("error: ") and path in err and message in err
        assert not (tmp_path / "out").exists()

    def test_expression_whitespace_is_ignored(self, tmp_path, capsys):
        reports = set()
        for value in ('"1"', '"1 "', '" 1\t"'):
            out = tmp_path / f"out-{len(reports)}"
            text = MINIMAL.replace('q.11 = "1"', f"q.11 = {value}")
            assert main(["check-hypotheses", "--scenario",
                         write(tmp_path, text), "--out", str(out)]) == EXIT_OK
            reports.add((out / "report.json").read_bytes())
        assert len(reports) == 1

    @pytest.mark.parametrize("mode, message", [
        (KERNEL.replace("beta = 0", "beta = nan"), "requires a finite beta"),
        (KERNEL.replace("beta = 0", "beta = inf"), "requires a finite beta"),
        (KERNEL.replace("beta = 0", "beta = -1"), "requires beta >= 0"),
        (KERNEL.replace("c = 1", "c = nan"), "requires a finite c"),
        (FIXED_GAMMA.replace("Cgamma = 1", "Cgamma = nan"),
         "requires a finite Cgamma"),
        (FIXED_GAMMA.replace("gamma = 1", "gamma = inf"),
         "requires a finite gamma")],
        ids=["beta-nan", "beta-inf", "beta-negative", "c-nan", "Cgamma-nan",
             "gamma-inf"])
    def test_unusable_mode_parameter_is_config_error(self, mode, message,
                                                     tmp_path, capsys):
        # rejected while parsing: nothing is stepped and no file is written
        text = KERNEL_1D.replace(KERNEL, mode)
        out = tmp_path / "out"
        assert main(["all", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        [err] = captured.err.splitlines()
        assert err.startswith("error: ") and message in err
        assert not out.exists()

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

    @pytest.mark.parametrize("pos,error", [
        (0, "kappaA must be nonnegative"), (1, "kappaB must be nonnegative"),
        (2, "kappaC must be nonnegative"), (3, "kappaW must be nonnegative"),
        (4, "need gamma > 0 and gamma*kappaW < 1")],
        ids=["kA", "kB", "kC", "kW", "gamma"])
    def test_p_interval_nan_constant_is_config_error(self, pos, error, capsys):
        # NaN in place of one constant of the ]1, inf[ case
        vals = ["0", "0", "0", "0", "1"]
        vals[pos] = "nan"
        assert main(["p-interval", "--constants", ",".join(vals)]) \
            == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]

    def test_p_interval_end_beyond_float_range_is_no_end(self, tmp_path,
                                                          capsys):
        # gamma kappa_C^2 = 1e-700 underflows to 0: the right end
        # 1 + 4 / (gamma kappa_C^2) is beyond the float range
        assert main(["p-interval", "--constants",
                     "0,0,1e-200,0,1e-300"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "]1, inf["
        text = (MINIMAL.replace(FIXED_GAMMA, FIXED_GAMMA.replace(
                    "gamma = 1\n", "gamma = 1e-300\n"))
                .replace('v.11 = "2"', 'v.11 = "2"\nc.1.11 = "1e-200"'))
        out = tmp_path / "out"
        assert main(["p-interval", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_OK
        sec = json.loads((out / "report.json").read_text())[
            "sections"]["pinterval"]
        assert sec["interval"] == "]1, inf[" and sec["interval_hi"] is None

    @pytest.mark.parametrize("kA", ["1e9", "1e200"])
    def test_p_interval_huge_kappa_a_is_point_interval(self, kA, capsys):
        # both ends round to 2: p = 2 is admissible for every finite kappa_A
        assert main(["p-interval", "--constants", f"{kA},0.1,0.1,0,1"]) \
            == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "[2.0, 2.0]", "psd-oracle disagreements: 0 of 1200"]

    def test_all_with_huge_kappa_a_passes(self, tmp_path, capsys):
        text = MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\na.11.11 = "1e9"')
        out = tmp_path / "out"
        assert main(["all", "--scenario", write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        sec = json.loads((out / "report.json").read_text())["sections"]["pinterval"]
        assert sec["interval"] == "[2.0, 2.0]" and sec["p_list_inside"] == [True]

    @pytest.mark.parametrize("consts,interval", [
        ("0,0,0.003,0,1", "]1, 444445.44444444444]"),
        ("0,0,1e-4,0,1", "]1, 400000001.0]")], ids=["4e5", "4e8"])
    def test_p_interval_far_right_end_has_bounded_oracle_grid(
            self, consts, interval, capsys):
        # the uniform grid stops at 100.2 and the far end gets a window of
        # 41 points: 99240 in all, where a grid up to the end would hold
        # 4e8 or 4e11 points
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code = main(["p-interval", "--constants", consts])
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and elapsed < 1.0
        assert peak < 32 * 2**20
        assert capsys.readouterr().out.splitlines() == [
            interval, "psd-oracle disagreements: 0 of 99240"]

    def test_pinterval_section_with_tiny_drift_has_bounded_grid(self, tmp_path,
                                                                capsys):
        text = MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\nc.1.11 = "0.003"')
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["p-interval", "--scenario", write(tmp_path, text),
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and peak < 32 * 2**20
        sec = json.loads((out / "report.json").read_text())[
            "sections"]["pinterval"]
        assert sec["interval_hi"] > 1e5
        assert sec["oracle_grid_points"] == 99240
        assert sec["oracle_disagreements"] == 0 and sec["pass"]

    @pytest.mark.parametrize("consts,interval", [
        # kappa_A^2 K + (kappa_A kappa_B)^2 underflows: the kappa_A = 0 limit
        ("1e-300,0.1,0,0,1", "[1.0025, inf["),
        # the left end rounds to 1, which is never admissible
        ("1e-300,0,0.1,0,1", "]1, 400.99999999999994]")],
        ids=["no_right_end", "open_left_end"])
    def test_p_interval_tiny_kappa_a(self, consts, interval, capsys):
        assert main(["p-interval", "--constants", consts]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == interval
        assert out[1].startswith("psd-oracle disagreements: 0 of ")

    @pytest.mark.parametrize("consts", ["0,0,0,0,1e-320",
                                        "0.1,0.1,0.1,0,1e-320"])
    def test_p_interval_gamma_beyond_float_range_is_config_error(self, consts,
                                                                 capsys):
        assert main(["p-interval", "--constants", consts]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: gamma = 1e-320 is too small: K overflows to inf"]

    @pytest.mark.parametrize("key", ["g1", "g4"])
    def test_p_interval_section_and_constants_share_oracle_grid(
            self, key, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["p-interval", "--scenario", f"gallery:{key}",
                     "--out", str(out)]) == EXIT_OK
        sec = json.loads((out / "report.json").read_text())[
            "sections"]["pinterval"]
        capsys.readouterr()
        c = sec["constants"]
        assert main(["p-interval", "--constants", ",".join(
            repr(c[k]) for k in ("kappaA", "kappaB", "kappaC", "kappaW",
                                 "gamma"))]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            sec["interval"],
            f"psd-oracle disagreements: {sec['oracle_disagreements']} of "
            f"{sec['oracle_grid_points']}"]

    def test_nittka_reads_gamma_of_hypotheses(self, tmp_path, capsys):
        # a refined-mode scenario: check_all reports gamma = 1
        out = tmp_path / "out"
        main(["nittka", "--scenario", "gallery:g5", "--out", str(out)])
        sections = json.loads((out / "report.json").read_text())["sections"]
        assert sections["nittka"]["gamma"] == 1.0
        assert sections["nittka"]["gamma"] == \
            sections["hypotheses"]["report"]["gamma"]

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

    @pytest.mark.parametrize("line, entry, message", [
        ('v.11 = "2"', 'v.11 = "exp(800)"',
         "value beyond the float range at node (0.03125,)"),
        ('v.11 = "2"', 'v.11 = "exp(800) - exp(800)"',
         "value beyond the float range at node (0.03125,)"),
        ('q.11 = "1"', 'q.11 = "1e308"',
         "diffusion face weight along x1 is not finite at node (0.03125,)")],
        ids=["overflow", "nan", "symmetrized_q"])
    def test_overflowing_coefficient_is_config_error(self, tmp_path, capsys,
                                                     line, entry, message):
        # a value beyond the float range: one line, and no numpy warning
        # (an error under this suite's settings); a sampled entry names its
        # node, while a finite q = 1e308 overflows only in the harmonic face
        # mean 2 qa qb / (qa + qb) of the assembly, which names its node too
        text = MINIMAL.replace(line, entry)
        assert main(["all", "--scenario", write(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("line, entry, hypotheses, every", [
        ('q.11 = "1"', 'q.11 = "1e308"', (EXIT_OK, {}),
         (EXIT_CONFIG_ERROR, FACE_WEIGHT)),
        ('v.11 = "2"', 'v.11 = "1.7e308"', (EXIT_OK, {}), (EXIT_OK, {})),
        ('q.11 = "1"', 'q.11 = "1e300"', (EXIT_OK, {}),
         (EXIT_CONFIG_ERROR, FACE_WEIGHT)),
        ('q.11 = "1"', 'q.11 = "1e-320"', (EXIT_OK, {}),
         (EXIT_CHECK_FAILED, {"kernel": Q_INVERSE, "distance": Q_INVERSE}))],
        ids=["symmetric_part_of_q", "symmetric_part_of_v", "face_weight",
             "inverse_of_q"])
    def test_coefficient_at_the_float_range_edge(self, tmp_path, capsys, line,
                                                 entry, hypotheses, every):
        # a symmetric part taken by halves cannot overflow; a diffusion face
        # weight or a Q^-1 beyond the float range names its node.  Each run
        # gives its exit code with one error line (exit 2, no report.json)
        # or the reason of each failed section, and no numpy warning (an
        # error under this suite's settings)
        text = (MINIMAL.replace("n = 32", "n = 8")
                .replace(FIXED_GAMMA, "mode = kernel\nbeta = 1\nc = 1")
                .replace(line, entry))
        path = write(tmp_path, text)
        for sub, (code, expected) in [("check-hypotheses", hypotheses),
                                      ("all", every)]:
            out = tmp_path / sub
            assert main([sub, "--scenario", path, "--out", str(out)]) == code
            err = capsys.readouterr().err.splitlines()
            if code == EXIT_CONFIG_ERROR:
                assert err == [f"error: {expected}"]
                assert not (out / "report.json").exists()
                continue
            assert err == []
            sections = json.loads((out / "report.json").read_text())[
                "sections"]
            assert {name: sec["reason"] for name, sec in sections.items()
                    if "reason" in sec} == expected

    @pytest.mark.parametrize("text, other, other_code, message", [
        (KERNEL_2D.replace('v.11 = "2"', 'v.11 = "1.7e308"\nw.11 = "1.7e308"'),
         "check-hypotheses", EXIT_CHECK_FAILED,
         "assembled form is not finite at node (0.125, 0.125)"),
        (MINIMAL.replace("n = 32", "n = 8")
         .replace('v.11 = "2"', 'v.11 = "2"\na.11.11 = "1e308"'),
         "check-hypotheses", EXIT_OK,
         "assembled form is not finite at node (0.125,)"),
        (KERNEL_2D.replace("upper = 1, 1", "upper = 1e300, 1e300"),
         "distance", EXIT_CONFIG_ERROR,
         "{path}: [domain]: grid spacing 1.25e+299 along x1 squares "
         "outside the float range"),
        (KERNEL_2D.replace("upper = 1, 1", "upper = 1e-160, 1e-160"),
         "kernel", EXIT_CONFIG_ERROR,
         "{path}: [domain]: grid cell volume of spacings (1.25e-161, "
         "1.25e-161) or its reciprocal lies outside the float range")],
        ids=["potential_sum", "second_order_block", "domain",
             "domain_volume_reciprocal"])
    def test_assembled_form_or_grid_beyond_the_float_range(
            self, tmp_path, capsys, text, other, other_code, message):
        # V + W = 3.4e308 and vol A / (4 h^2) = 2e308 leave the float range
        # only in the assembly, and h^2 = 1.6e598 or 1 / vol = 6.4e321 (the
        # height of a discrete delta) in the grid; `all` names
        # the node or the axis on one error line (exit 2, no report.json),
        # with no numpy warning, while the hypotheses, which read the sampled
        # blocks, run on a finite coefficient as usual
        path = write(tmp_path, text)
        for sub, code in [("all", EXIT_CONFIG_ERROR), (other, other_code)]:
            out = tmp_path / sub
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([sub, "--scenario", path, "--out", str(out)]) \
                    == code
            assert not [w for w in caught
                        if issubclass(w.category, RuntimeWarning)]
            err = capsys.readouterr().err.splitlines()
            if code != EXIT_CONFIG_ERROR:
                assert err == []
                continue
            assert err == [f"error: {message.format(path=path)}"]
            assert not (out / "report.json").exists()

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

    def test_drift_square_beyond_float_range_is_failed_check(self, tmp_path,
                                                             capsys):
        # kappa_B = 1e100 / (2e-120)^{1/2} = 7.07e159 squares past the float
        # range: K is -inf, a failed check, and the report is written
        text = (MINIMAL.replace("Cgamma = 1", "Cgamma = 1e-120")
                .replace('v.11 = "2"', 'v.11 = "1e-120"\nb.1.11 = "1e100"'))
        out = tmp_path / "out"
        assert main(["check-hypotheses", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        hyp = json.loads((out / "report.json").read_text())[
            "sections"]["hypotheses"]["report"]
        assert hyp["kappaB"] == pytest.approx(7.0710678118654755e159,
                                              rel=1e-14)
        assert hyp["K"] is None
        assert hyp["passes"]["K_positive"] is False

    @pytest.mark.parametrize("sub,key,dt", [("evolve", "g1", "1e-300"),
                                            ("all", "g1", "1e-300"),
                                            ("evolve", "g1", "5e-324"),
                                            ("kernel", "g6-flat", "1e-300")])
    def test_step_count_beyond_int64_is_config_error(self, sub, key, dt,
                                                     tmp_path, capsys):
        assert main([sub, "--scenario", f"gallery:{key}", "--dt", dt,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and err[0].endswith("are too many")

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_nonfinite_dt_override_is_config_error(self, dt, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["evolve", "--scenario", "gallery:g1", "--dt", dt,
                     "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: dt must be finite and positive, got {dt}"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("dt", ["-inf", "-1e-3", "-1"])
    def test_negative_dt_override_is_config_error(self, dt, tmp_path, capsys):
        # argparse takes -inf and -1e-3 for option flags, not for values
        out = tmp_path / "out"
        assert main(["evolve", "--scenario", "gallery:g1", "--dt", dt,
                     "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: dt must be finite and positive, got {float(dt)!r}"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("sub,key,value,message", [
        ("evolve", "dt", "nan", "dt must be finite and positive, got nan"),
        ("evolve", "t_final", "nan",
         "t_final must be finite and nonnegative, got nan"),
        ("evolve", "t_final", "inf",
         "t_final must be finite and nonnegative, got inf"),
        ("kernel", "t_final", "nan",
         "t_final must be finite and nonnegative, got nan")])
    def test_nonfinite_run_setting_is_config_error(self, sub, key, value,
                                                   message, tmp_path, capsys):
        text = KERNEL_1D if sub == "kernel" else MINIMAL
        setting = re.search(rf"^{key} = .*$", text, re.M).group(0)
        text = text.replace(setting, f"{key} = {value}")
        out = tmp_path / "out"
        assert main([sub, "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("sub,key", [("distance", "g1"), ("distance", "g3"),
                                         ("all", "g1"), ("all", "g6-flat")])
    def test_one_node_grid_runs(self, sub, key, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([sub, "--scenario", f"gallery:{key}", "--grid", "2",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = (out / "distance.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].endswith(",0.0")

    def test_nittka_finding_scale_from_worst_sample(self, tmp_path, capsys):
        # a strongly negative potential makes the shifted sign test negative
        # at p = 3; the finding's scale is ||u||_p^p of the minimizing sample
        # (with 4 samples the minimizing scaled sample is not sample 0)
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "-1000"')
                .replace("p = 2\n", "p = 3\n").replace("samples = 3", "samples = 4"))
        path = write(tmp_path, text)
        out = tmp_path / "out"
        main(["nittka", "--scenario", path, "--out", str(out)])
        sec = json.loads((out / "report.json").read_text())["sections"]["nittka"]
        [finding] = sec["findings"]

        scn = parse_scenario(path)
        F = assemble(scn.system, scn.grid)
        u = band_limited_random(F.grid, F.m, np.random.default_rng(scn.seed + 1),
                                scn.n_samples)
        u = u / node_norms(u, F.m).max(axis=0)  # each sample at max |u| = 1
        vals = nittka_shifted(F, u, 3.0, 1.0, 1.0)
        worst = int(np.argmin(vals))
        assert worst != 0  # sample 0 would give a different scale
        assert finding["min_shifted_value"] == vals[worst] < 0
        assert finding["scale"] == pytest.approx(
            F.mass * np.sum(node_norms(u[:, worst], F.m) ** 3), rel=1e-14)
        assert sec["pass"] is True

    def test_strict_does_not_leak_into_the_next_call(self, tmp_path, capsys):
        # the sign test finds a defect at p = 3, which only --strict fails;
        # two calls in one process give the reports of two fresh processes
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "-1000"')
                .replace("p = 2\n", "p = 3\n"))
        path = write(tmp_path, text)
        argvs = [["nittka", "--scenario", path, "--strict"],
                 ["nittka", "--scenario", path]]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        reports = []
        for i, argv in enumerate(argvs):
            main(argv + ["--out", str(tmp_path / f"in{i}")])
            subprocess.run([sys.executable, "-m", "semilab.cli", *argv,
                            "--out", str(tmp_path / f"fresh{i}")],
                           env=env, check=False, capture_output=True)
            reports.append([(tmp_path / f"{kind}{i}" / "report.json").read_bytes()
                            for kind in ("in", "fresh")])
        assert [json.loads(r[0])["sections"]["nittka"]["pass"]
                for r in reports] == [False, True]
        assert all(inproc == fresh for inproc, fresh in reports)

    def test_nittka_at_huge_p_is_not_vacuous(self, tmp_path, capsys):
        # unscaled, |u|^(p - 2) and |u|^p underflow to 0 at every node at
        # p = 1e300, and the shifted sign test reads exactly 0
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\nb.1.11 = "3"')
                .replace("p = 2\n", "p = 2, 1e300\n"))
        out = tmp_path / "out"
        main(["nittka", "--scenario", write(tmp_path, text), "--out", str(out)])
        sec = json.loads((out / "report.json").read_text())["sections"]["nittka"]
        assert sec["min_shifted"]["1e+300"] > 0
        assert sec["findings"] == [] and sec["pass"] is True

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

    @pytest.mark.parametrize("beta, reason", [
        ("100", "constant H = inf not positive finite"),
        ("300", "the kernel constants at beta = 300.0 lie beyond the float "
                "range")])
    def test_kernel_bound_beyond_float_range_fails_section(
            self, beta, reason, tmp_path, capsys):
        text = KERNEL_1D.replace("beta = 0", f"beta = {beta}")
        out = tmp_path / "out"
        assert main(["kernel", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        sec = json.loads((out / "report.json").read_text())["sections"]["kernel"]
        assert sec == {"reason": reason, "pass": False}
        rows = (out / "kernel.csv").read_text().splitlines()
        assert rows[0].endswith(",bound,margin")
        assert len(rows) == 64 and all(row.endswith(",,") for row in rows[1:])

    def test_kernel_bound_beyond_exp_range_holds_vacuously(self, tmp_path,
                                                           capsys):
        text = KERNEL_1D.replace("beta = 0", "beta = 50")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            main(["kernel", "--scenario", write(tmp_path, text),
                  "--out", str(out)])
        assert capsys.readouterr().out.splitlines()[-1] == "kernel: pass"
        sec = json.loads((out / "report.json").read_text())["sections"]["kernel"]
        assert sec["verification"]["violations"] == 0
        assert sec["verification"]["min_margin"] is None  # inf
        assert sec["verification"]["worst_node"] is None
        rows = (out / "kernel.csv").read_text().splitlines()[1:]
        assert {row.split(",")[6] for row in rows} == {"inf"}

    def test_overflowed_drift_is_failed_check(self, tmp_path, capsys):
        # the whitened drift overflows: kappa_B and K are undefined, not 0
        text = (MINIMAL.replace("n = 32", "n = 16")
                .replace("Cgamma = 1", "Cgamma = 1e-300")
                .replace('v.11 = "2"', 'v.11 = "1e-300"\nb.1.11 = "1e200"'))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["check-hypotheses", "--scenario",
                         write(tmp_path, text), "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        hyp = json.loads((out / "report.json").read_text())[
            "sections"]["hypotheses"]["report"]
        assert hyp["kappaB"] is None and hyp["K"] is None
        assert hyp["passes"]["drift_bounds_finite"] is False

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

    @pytest.mark.parametrize("sub", ["evolve", "all"])
    @pytest.mark.parametrize("mode", ["mode = refined\na = 0.25\nb = 0.988",
                                      KERNEL], ids=["refined", "kernel"])
    @pytest.mark.parametrize("coupling,p", [("", "1e300"),
                                            ('\nc.1.11 = "1e200"', "1e10")],
                             ids=["huge_p", "huge_drift"])
    def test_growth_bound_at_huge_p(self, coupling, p, mode, sub, tmp_path,
                                    capsys):
        # without kappa_C, p = 1e300 has the bound of p = 2 (min(p - 1, 1)
        # = 1); with kappa_C = 6.8e199, gamma_p at p = 2 and 1e10 lies below
        # the float range, so neither p is covered
        text = (MINIMAL.replace('v.11 = "2"', 'v.11 = "2"\nb.1.11 = "3"'
                                + coupling)
                .replace(FIXED_GAMMA, mode).replace("p = 2\n", f"p = 2, {p}\n"))
        out = tmp_path / "out"
        code = main([sub, "--scenario", write(tmp_path, text),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert captured.err == ""
        rep = json.loads((out / "report.json").read_text())
        assert code == (EXIT_OK if rep["pass"] else EXIT_CHECK_FAILED)
        traces = rep["sections"]["evolve"]["traces"]
        huge = traces[repr(float(p))]
        if coupling:
            assert huge["bound"] is None and traces["2.0"]["bound"] is None
            assert huge["within_bound"] is None
        else:
            assert huge["bound"] == traces["2.0"]["bound"] > 0
            # the probe reads the p = 1e300 norm as max |u|
            assert huge["max_slope"] is not None

    @pytest.mark.parametrize("mode", ["mode = refined\na = 0.25\nb = 0",
                                      "mode = refined\na = 0.25", KERNEL])
    def test_growth_rate_without_drift_is_zero(self, mode, tmp_path, capsys):
        # every constant vanishes, so gamma_p = inf and R(inf)/inf = 0
        text = MINIMAL.replace(FIXED_GAMMA, mode)
        out = tmp_path / "out"
        assert main(["evolve", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_OK
        trace = json.loads((out / "report.json").read_text())[
            "sections"]["evolve"]["traces"]["2.0"]
        assert trace["bound"] == 0.0 and trace["within_bound"] is True

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_growth_bound_covers_implicit_euler_only(self, scheme, tmp_path,
                                                     capsys):
        # g1's semigroup is contractive in every l^p, yet a Crank-Nicolson
        # step of dt = 0.01 grows the 8-norm at slope 2.6 against bound 1:
        # its slopes are reported with no bound
        scn = dataclasses.replace(gallery_scenario("g1"), scheme=scheme,
                                  dt=0.01, t_final=0.1,
                                  p_list=[2.0, 4.0, 8.0, float("inf")])
        out = tmp_path / "out"
        assert main(["evolve", "--scenario",
                     write(tmp_path, scenario_to_text(scn)),
                     "--out", str(out)]) == EXIT_OK
        evolve = json.loads((out / "report.json").read_text())[
            "sections"]["evolve"]
        bounds = {p: (tr["bound"], tr["within_bound"])
                  for p, tr in evolve["traces"].items()}
        if scheme == "crank_nicolson":
            assert set(bounds.values()) == {(None, None)}
            assert "implicit-Euler" in evolve["unbounded"]
        else:
            assert bounds == {"2.0": (1.0, True), "4.0": (1.0, True),
                              "8.0": (1.0, True), "inf": (None, None)}
            assert "unbounded" not in evolve

    def test_overflowed_coupling_whitening_is_infinite(self, tmp_path,
                                                       capsys):
        # q = 1e-320 whitens the coupling beyond the float range at every
        # node: kappa_A is inf (null), with no numpy warning (an error under
        # this suite's settings) and no error line; the coupling's symmetric
        # part has eigenvalues -0.375, 0.375 and 1, so its check fails
        text = (MINIMAL.replace("n = 32", "n = 8").replace("m = 1", "m = 3")
                .replace('q.11 = "1"', 'q.11 = "1e-320"\na.11.12 = "0.5"\n'
                         'a.11.21 = "0.25"\na.11.33 = "1"')
                .replace('v.11 = "2"', 'v.11 = "1"\nv.22 = "1"\nv.33 = "1"'))
        out = tmp_path / "out"
        assert main(["check-hypotheses", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())[
            "sections"]["hypotheses"]["report"]
        assert report["kappaA"] is None
        assert not report["passes"]["coupling_nonnegative"]

    def test_overflowed_coupling_keeps_its_sign_check(self, tmp_path,
                                                      capsys):
        # A = x - 0.4 is negative only at 0.125..0.375, where q = 1e-320
        # and the whitened coupling overflows: a failed check, not a pass
        text = MINIMAL.replace("n = 32", "n = 8").replace(
            'q.11 = "1"', 'q.11 = "max(1e-320, x1 - 0.5)"\n'
            'a.11.11 = "x1 - 0.4"')
        out = tmp_path / "out"
        assert main(["check-hypotheses", "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())[
            "sections"]["hypotheses"]["report"]
        assert not report["passes"]["coupling_nonnegative"]
        assert any("negative at node (0.125,)" in note
                   for note in report["notes"])

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
        # and a negative seed, in the file or on the command line
        for old, new, extra, message in (
                ("samples = 3", "samples = 0", [],
                 "{path}: [run] samples must be at least 1, got 0"),
                ("seed = 7", "seed = -5", [],
                 "{path}: [run] seed must be non-negative, got -5"),
                ("", "", ["--seed", "-1"],
                 "--seed must be non-negative, got -1")):
            path = write(tmp_path, MINIMAL.replace(old, new))
            assert main([sub, "--scenario", path, *extra,
                         "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err.splitlines() == [
                "error: " + message.format(path=path)]

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

    @pytest.mark.parametrize("grid", [
        BoxDomain((0.0,), (1.0,), (37,)),
        BoxDomain((-1.0, 0.1), (1.0, 0.7), (9, 13)),
        BoxDomain((0.0, 0.0, 1e-3), (3.0, 1.0, 2.0), (4, 5, 6))],
        ids=["1d", "2d", "3d"])
    def test_node_csv_bytes_match_the_csv_writer(self, grid, tmp_path,
                                                 monkeypatch):
        # node rows formatted from per-axis text, in several chunks, against
        # the standard writer on the same rows of Python numbers
        monkeypatch.setattr(cli, "CSV_CHUNK", 7)
        rng = np.random.default_rng(grid.d)
        nodes = np.repeat(np.arange(grid.node_count), 2)
        value = rng.standard_normal(len(nodes)) * 10.0 ** rng.integers(
            -320, 300, len(nodes))
        value[:5] = [-0.0, 0.0, np.inf, -np.inf, np.nan]
        ints = np.arange(len(nodes)) % 3
        header = [f"x{k + 1}" for k in range(grid.d)] + ["s", "i", "v", "e"]
        cli._write_node_csv(str(tmp_path / "new.csv"), grid, header, nodes,
                            ["17", ints, value, ""])
        coords = grid.node_coords()[nodes].tolist()
        cli._write_csv(str(tmp_path / "old.csv"), header,
                       (x + [17, i, v, ""] for x, i, v in zip(
                           coords, ints.tolist(), value.tolist())))
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

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

    def test_kernel_check_keeps_central_nodes_on_coarse_grids(self, tmp_path,
                                                              capsys):
        # a grid too coarse for 5 boundary layers keeps its central node or
        # nodes, and refining it never excludes fewer layers
        excluded = []
        for n in range(3, 13):
            out = tmp_path / str(n)
            assert main(["kernel", "--scenario", "gallery:g6-flat", "--grid",
                         str(n), "--out", str(out)]) == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            checked = report["sections"]["kernel"]["verification"][
                "checked_nodes"]
            assert checked in (1, 2)
            excluded.append((n - 1 - checked) // 2)
        assert capsys.readouterr().err == ""
        assert excluded == sorted(excluded)
        assert excluded[-1] == 5

    @pytest.mark.parametrize("sub", ["distance", "kernel"])
    @pytest.mark.parametrize("changes, reason", [
        ({'q.11 = "1"': 'q.11 = "x1"'},
         "Q must be positive definite at every node"),
        ({'v.11 = "2"': 'v.11 = "-1"', "beta = 0": "beta = 1"},
         "lambda_V must be positive for beta > 0"),
    ], ids=["indefinite-Q", "nonpositive-V"])
    def test_undefined_metric_is_failed_check(self, sub, changes, reason,
                                              tmp_path, capsys):
        text = (MINIMAL.replace("lower = 0", "lower = -1")
                .replace("n = 32", "n = 64")
                .replace(FIXED_GAMMA, "mode = kernel\nbeta = 0\nc = 1"))
        for old, new in changes.items():
            text = text.replace(old, new)
        out = tmp_path / "out"
        assert main([sub, "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        sec = json.loads((out / "report.json").read_text())["sections"][sub]
        assert sec == {"reason": reason, "pass": False}
        assert sorted(os.listdir(out)) == ["report.json", "timings.json"]


# the layer entry points perfbench/tracing.py swaps by name on semilab.cli
TRACED_NAMES = (
    "sample", "check_all", "interval_thm33", "psd_sweep_Mgamma", "gamma_p",
    "kernel_constants", "assemble", "nittka_shifted",
    "contractivity_probe_multi", "kernel_block", "verify_gaussian",
    "weight_field", "distance_map")


def test_traced_layer_entry_points_are_called(tmp_path, capsys, monkeypatch):
    # a section table that captured a layer function at import time would
    # bypass the swapped name, and the traced benchmark would read 0 there
    called = set()

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            called.add(name)
            return original(*args, **kwargs)
        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(cli, name, counting(name))
    for key in ("g5", "g6-quadratic"):
        scn = gallery_scenario(key)
        scn = dataclasses.replace(scn, t_final=20 * scn.dt)
        assert main(["all", "--scenario",
                     write(tmp_path, scenario_to_text(scn), f"{key}.ini"),
                     "--out", str(tmp_path / key)]) == EXIT_OK
    assert sorted(called) == sorted(TRACED_NAMES)


def test_interval_built_once_per_run(tmp_path, capsys, monkeypatch):
    # the p-interval section and each fixed-gamma growth bound share it
    calls = []
    original = cli.interval_thm33

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "interval_thm33", counting)
    assert main(["all", "--scenario", "gallery:g3", "--grid", "16",
                 "--dt", "0.005", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("sub, key", [("p-interval", "g1"), ("evolve", "g1"),
                                      ("evolve", "g5"), ("nittka", "g5"),
                                      ("kernel", "g6-flat")])
def test_section_reads_the_run_not_the_hypotheses_section(
        sub, key, tmp_path, capsys, monkeypatch):
    # without the hypotheses section a section reports what it reports
    # beside it
    sections = {}
    for alone in (False, True):
        if alone:
            monkeypatch.setitem(cli.RUNS, sub, cli.RUNS[sub][1:])
        out = tmp_path / f"out-{alone}"
        assert main([sub, "--scenario", f"gallery:{key}",
                     "--out", str(out)]) == EXIT_OK
        sections[alone] = json.loads((out / "report.json").read_text())[
            "sections"]
    del sections[False]["hypotheses"]
    assert sections[True] == sections[False]


def sections_users(tree: ast.AST) -> set:
    """Names of the functions of ``tree`` that use a name or an attribute
    called sections."""
    return {func.name for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if getattr(node, "id", getattr(node, "attr", None)) == "sections"}


def test_only_run_scenario_reads_the_sections():
    # sections read the run, never each other's output
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    assert sections_users(tree) == {"_run_scenario"}


def test_sections_detector():
    src = ("def f(run):\n    return run.sections['x']\n"
           "def g():\n    sections = {}\n"
           "def h(report):\n    return report['sections']\n")
    assert sections_users(ast.parse(src)) == {"f", "g"}


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

    def test_skipped_kernel_builds_no_form(self, tmp_path, capsys,
                                           monkeypatch):
        # kernel on a non-kernel scenario neither assembles nor factors, and
        # reports what it reports when the form is built up front
        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setitem(cli.SECTIONS, "kernel",
                                    (cli._kernel_section, True))
            out = tmp_path / f"out-{patch}"
            assert main(["kernel", "--scenario", "gallery:g1",
                         "--out", str(out)]) == EXIT_OK
            runs.append((set(json.loads((out / "timings.json").read_text())),
                         (out / "report.json").read_bytes()))
        assert runs[0][0] == {"sample", "hypotheses", "kernel"}
        assert runs[1][0] == {"sample", "assemble", "hypotheses", "kernel"}
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("key", ["g1", "g6-flat"])
    def test_phase_timings_do_not_double_count(self, key, tmp_path, capsys):
        # each phase is charged its wall time less the phases built inside it
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert main(["all", "--scenario", f"gallery:{key}",
                     "--out", str(out)]) == EXIT_OK
        wall = time.perf_counter() - t0
        timings = json.loads((out / "timings.json").read_text())
        del timings["probe_workers"]
        assert sum(timings.values()) <= wall

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
    @pytest.mark.parametrize("key, steps", [
        pytest.param("g3", 12, id="g3"),
        pytest.param("g5", 20, id="g5"),
        pytest.param("g6-quadratic", 20, id="g6-quadratic"),
    ])
    def test_reports_identical_either_way(self, tmp_path, capsys, march_on,
                                          process_starts, key, steps):
        scn = gallery_scenario(key)
        scn = dataclasses.replace(scn, t_final=steps * scn.dt)
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
