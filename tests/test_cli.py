"""Command-line interface: scenario parsing, commands, output formats."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoval as rv
from recoval import cli, value
from recoval.cli import ScenarioError, main, parse_scenario

from conftest import probability_vectors

S1_DOC = json.dumps(
    {
        "quality": {"qH": 0.4, "q1": 0.2, "q2": 0.2, "qL": 0.2},
        "sender_types": {"kind": "uniform"},
        "threshold": 0.5,
    }
)


@pytest.fixture
def s1_path(tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(S1_DOC)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseScenario:
    def test_explicit_quality(self):
        scenario = parse_scenario(S1_DOC)
        assert scenario.kind == "single"
        assert scenario.quality.q_h == 0.4
        assert scenario.receiver_types is scenario.sender_types

    def test_reduced_quality_matches_explicit(self):
        doc = json.dumps(
            {
                "quality": {"Q": 0.2, "sigma": 2, "lambda": 1},
                "sender_types": {"kind": "uniform"},
                "threshold": 0.5,
            }
        )
        scenario = parse_scenario(doc)
        explicit = parse_scenario(S1_DOC)
        for got, want in zip(
            scenario.quality.as_tuple(), explicit.quality.as_tuple()
        ):
            assert got == pytest.approx(want, abs=1e-12)

    def test_threshold_out_of_range(self):
        doc = json.loads(S1_DOC)
        doc["threshold"] = 1.5
        with pytest.raises(ScenarioError, match=r"out of \(0, 1\)"):
            parse_scenario(json.dumps(doc))

    def test_pair_threshold(self):
        doc = json.loads(S1_DOC)
        doc["threshold"] = {"R1": 0.4, "R2": 0.8}
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.kind == "pair"
        assert scenario.pair.low == 0.4

    def test_counts_threshold(self):
        doc = json.loads(S1_DOC)
        doc["threshold"] = {"b": 3, "d": 2, "R": 0.5}
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.kind == "counts"
        assert scenario.counts.buys == 3

    def test_infinite_threshold(self):
        doc = json.loads(S1_DOC)
        doc["threshold"] = "infinite"
        assert parse_scenario(json.dumps(doc)).kind == "infinite"

    def test_bad_probability_sum(self):
        doc = json.loads(S1_DOC)
        doc["quality"]["qH"] = 0.9
        with pytest.raises(ScenarioError, match="quality"):
            parse_scenario(json.dumps(doc))

    def test_unknown_field(self):
        doc = json.loads(S1_DOC)
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="extra"):
            parse_scenario(json.dumps(doc))

    def test_missing_field_path(self):
        with pytest.raises(ScenarioError, match="sender_types"):
            parse_scenario(json.dumps({"quality": {"Q": 0.2, "sigma": 1}, "threshold": 0.5}))


class TestEvaluate:
    def test_baseline_record(self, capsys, s1_path):
        code, out, err = run_cli(capsys, "evaluate", "--scenario", s1_path)
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["value"] == pytest.approx(0.14, abs=1e-9)
        assert record["pi_buy"] == pytest.approx(0.6, abs=1e-12)
        assert record["region"] == "all"
        assert record["i_tilde"] is None

    def test_pair_scenario(self, capsys, tmp_path):
        doc = json.loads(S1_DOC)
        doc["quality"] = {"qH": 0.03, "q1": 0.7, "q2": 0.1, "qL": 0.17}
        doc["threshold"] = {"R1": 0.4, "R2": 0.8}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "evaluate", "--scenario", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["beta1"] == pytest.approx(0.6, abs=1e-12)
        assert record["beta2"] == pytest.approx(0.2, abs=1e-12)
        assert record["i_tilde_M"] == pytest.approx(-0.466666666667, abs=1e-9)

    def test_byte_identical_runs(self, capsys, s1_path):
        _, first, _ = run_cli(capsys, "evaluate", "--scenario", s1_path)
        _, second, _ = run_cli(capsys, "evaluate", "--scenario", s1_path)
        assert first == second


class TestSweep:
    def test_threshold_sweep_monotone_for_high_odds(self, capsys, tmp_path):
        doc = {
            "quality": {"Q": 0.2, "sigma": 2},
            "sender_types": {"kind": "uniform"},
            "threshold": 0.5,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scenario", str(path),
            "--param", "R", "--from", "0.01", "--to", "0.99", "--steps", "99",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 99
        values = [r["value"] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_csv_output(self, capsys, s1_path):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scenario", s1_path,
            "--param", "R", "--from", "0.2", "--to", "0.8", "--steps", "4", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,value,pi_buy,region"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.2)
        assert first[3] == "all"

    def test_beta_sweep(self, capsys, s1_path):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scenario", s1_path,
            "--param", "beta", "--from", "0", "--to", "1", "--steps", "11",
        )
        assert code == 0
        rows = json.loads(out)
        values = [r["value"] for r in rows]
        # odds are 2, so the value falls as the willing share rises
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert rows[5]["value"] == pytest.approx(0.14, abs=1e-9)

    def test_prevalence_sweep_keeps_odds(self, capsys, s1_path):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scenario", s1_path,
            "--param", "Q", "--from", "0.1", "--to", "0.3", "--steps", "3",
        )
        assert code == 0
        rows = json.loads(out)
        # at the scenario's own prevalence the sweep reproduces its value
        assert rows[1]["param"] == pytest.approx(0.2)
        assert rows[1]["value"] == pytest.approx(0.14, abs=1e-9)

    def test_odds_and_shape_sweeps(self, capsys, s1_path, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scenario", s1_path,
            "--param", "sigma", "--from", "0.5", "--to", "2", "--steps", "4",
        )
        assert code == 0
        assert len(json.loads(out)) == 4
        doc = json.loads(S1_DOC)
        doc["sender_types"] = {"kind": "power", "a": 2}
        path = tmp_path / "power.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scenario", str(path),
            "--param", "a", "--from", "0.5", "--to", "3", "--steps", "6",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert all(r["region"] == "all" for r in rows)

    @pytest.mark.parametrize("param", ["R", "Q", "sigma", "a"])
    def test_a_sweep_is_one_value_core_call(self, capsys, monkeypatch, s1_path, param):
        sizes, scalar = [], []
        core = value.value_core

        def counting_core(masses, phi_1, phi_2, thresholds, dist):
            sizes.append(thresholds.size)
            return core(masses, phi_1, phi_2, thresholds, dist)

        for module in (value, cli):
            monkeypatch.setattr(module, "value_core", counting_core)
            monkeypatch.setattr(module, "system_value", scalar.append)
        argv = ("--param", param, "--from", "0.2", "--to", "0.4", "--steps", "7")
        code, out, err = run_cli(capsys, "sweep", "--scenario", s1_path, *argv)
        assert (code, err) == (0, "")
        assert len(json.loads(out)) == 7
        assert sizes == [7] and scalar == []


class TestOptimize:
    def test_interior_verdict(self, capsys, tmp_path):
        doc = {
            "quality": {"Q": 0.2, "sigma": 1},
            "sender_types": {"kind": "power", "a": 2},
            "threshold": 0.5,
        }
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "optimize", "--scenario", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["kind"] == "interior_optimum"
        assert record["R_star"] == pytest.approx(0.5, abs=1e-4)
        assert record["value"] == pytest.approx(1 / 6, abs=1e-8)


class TestRegionMap:
    def test_panel_b(self, capsys, s1_path):
        code, out, _ = run_cli(
            capsys,
            "region-map", "--scenario", s1_path,
            "--figure", "panelB", "--from", "1", "--to", "1", "--steps", "1", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,label"
        x, y, label = lines[1].split(",")
        assert float(y) == pytest.approx(0.5, abs=1e-12)
        assert label == "buy_probability_boundary"

    @pytest.mark.parametrize(
        "bound, xs", [(("--from", "2"), [2.0, 6.0, 10.0]), (("--to", "2"), [0.05, 1.025, 2.0])]
    )
    def test_a_lone_bound_keeps_the_other_default(self, capsys, s1_path, bound, xs):
        code, out, _ = run_cli(
            capsys,
            "region-map", "--scenario", s1_path, "--figure", "panelB", *bound, "--steps", "3",
        )
        assert code == 0
        assert [row["x"] for row in json.loads(out)] == xs

    def test_panel_c_at_half_prevalence_is_empty_and_silent(self, capsys, tmp_path):
        doc = json.loads(S1_DOC)
        doc["quality"] = {"Q": 0.499999, "sigma": 2.0}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "region-map", "--scenario", str(path), "--figure", "panelC"
        )
        assert (code, out, err) == (0, "[]\n", "")


class TestSimulate:
    def test_estimates_with_analytic_columns(self, capsys, s1_path):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--scenario", s1_path,
            "--samples", "20000", "--seed", "42",
        )
        assert code == 0
        records = json.loads(out)
        names = [r["name"] for r in records]
        assert "pi_buy" in names and "value" in names
        for record in records:
            assert record["seed"] == 42
            if record["analytic"] is None:
                continue
            assert abs(record["estimate"] - record["analytic"]) <= (
                3.0 * record["stderr"] + 1e-12
            )

    def test_infinite_flag(self, capsys, s1_path):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--scenario", s1_path,
            "--samples", "20000", "--seed", "1", "--infinite",
        )
        assert code == 0
        records = json.loads(out)
        assert records[0]["name"] == "value_infinite"

    def test_counts_scenario(self, capsys, tmp_path):
        doc = json.loads(S1_DOC)
        doc["threshold"] = {"b": 2, "d": 1, "R": 0.5}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            "simulate", "--scenario", str(path), "--samples", "20000", "--seed", "3",
        )
        assert code == 0
        records = {r["name"]: r for r in json.loads(out)}
        assert "event_prob" in records
        for comp in ("p_H", "p_1", "p_2", "p_L"):
            record = records[comp]
            assert abs(record["estimate"] - record["analytic"]) <= (
                3.0 * record["stderr"] + 1e-12
            )


    @pytest.mark.parametrize(
        "flags",
        [(), ("--R1", "0.4", "--R2", "0.8"), ("--b", "2", "--d", "1"), ("--infinite",)],
        ids=["single", "pair", "counts", "infinite"],
    )
    def test_thread_count_does_not_change_the_output(self, capsys, s1_path, monkeypatch, flags):
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RECO_THREADS", threads)
            code, out, _ = run_cli(
                capsys, "simulate", "--scenario", s1_path, "--samples", "70001", *flags
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestDecompose:
    def test_record_matches_library(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, "decompose", "--scenario", s1_path)
        assert code == 0
        record = json.loads(out)
        decomp = rv.belief_decomposition(
            rv.RecommendationSystem(
                rv.QualityDistribution(0.4, 0.2, 0.2, 0.2), rv.UniformTypes(), 0.5
            )
        )
        assert record["k"] == pytest.approx(decomp.k, abs=1e-9)
        assert record["step1"][3] == 0.0


class TestMulti:
    def test_counts_record(self, capsys, s1_path):
        code, out, _ = run_cli(
            capsys, "multi", "--scenario", s1_path, "--b", "3", "--d", "2"
        )
        assert code == 0
        record = json.loads(out)
        assert record["recommendation"] == "neutral"
        assert record["p_1"] == pytest.approx(0.5, abs=1e-12)
        assert record["p_H"] == 0.0

    def test_event_probability_beyond_float_range_binomials(self, capsys, s1_path):
        # comb(1040, 520) exceeds float range; the weights 0.2 * 2**-1040 are subnormal
        code, out, _ = run_cli(
            capsys, "multi", "--scenario", s1_path, "--b", "520", "--d", "520"
        )
        assert code == 0
        want = 0.4 * math.exp(math.lgamma(1041) - 2 * math.lgamma(521) - 1040 * math.log(2))
        assert json.loads(out)["event_prob"] == pytest.approx(want, rel=1e-9)

    def test_infinite_record(self, capsys, tmp_path):
        doc = {
            "quality": {"qH": 0.25, "q1": 0.25, "q2": 0.25, "qL": 0.25},
            "sender_types": {"kind": "uniform"},
            "threshold": "infinite",
        }
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "multi", "--scenario", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["value_infinite"] == pytest.approx(0.125, abs=1e-9)


class TestErrors:
    def test_invalid_scenario_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"quality": {"qH": 2}}')
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--scenario", "/nonexistent.json")
        assert code == 1
        assert err != ""

    def test_csv_on_scalar_command(self, capsys, s1_path):
        code, _, err = run_cli(capsys, "evaluate", "--scenario", s1_path, "--csv")
        assert code == 1
        assert "tabular" in err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"quality": {"qH": NaN, "q1": 0.2, "q2": 0.2, "qL": 0.2},'
            ' "sender_types": {"kind": "uniform"}, "threshold": 0.5}',
            '{"quality": {"Q": 0.2, "sigma": Infinity},'
            ' "sender_types": {"kind": "uniform"}, "threshold": 0.5}',
            '{"quality": {"Q": 0.2, "sigma": 2},'
            ' "sender_types": {"kind": "power", "a": "x"}, "threshold": 0.5}',
        ],
    )
    def test_bad_numbers_are_error_lines(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--steps", "0"),
            ("sweep", "--param", "R", "--steps", "-1"),
            ("region-map", "--figure", "panelB", "--steps", "-1"),
            ("optimize", "--steps", "1000000000000"),
            ("sweep", "--param", "R", "--steps", "1000000000000"),
            ("sweep", "--param", "Q", "--steps", "100002"),
            ("region-map", "--figure", "panelB", "--steps", "1000000000000"),
            # non-finite grid ends
            ("sweep", "--param", "beta", "--from", "inf"),
            ("sweep", "--param", "R", "--to", "nan"),
            ("region-map", "--figure", "panelC", "--from=-inf"),
            ("region-map", "--figure", "panelA", "--to", "nan"),
        ],
    )
    def test_bad_grid_sizes_are_error_lines(self, capsys, s1_path, argv):
        code, out, err = run_cli(capsys, argv[0], "--scenario", s1_path, *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "power", "a": 10**400}, "int too large to convert to float"),
            (
                {"kind": "piecewise_symmetric", "beta_target": 10**400, "R_ref": 0.7},
                "int too large to convert to float",
            ),
            (
                {"kind": "tabulated", "points": [[-0.5, 0], [10**400, 1]]},
                "int too large to convert to float",
            ),
            (
                {"kind": "tabulated", "points": [[-0.5, 0], [0, 0.5, 1], [0.5, 1]]},
                "too many values to unpack (expected 2)",
            ),
            (
                {"kind": "tabulated", "points": [[-0.5, 0], [0.1], [0.5, 1]]},
                "not enough values to unpack (expected 2, got 1)",
            ),
            (
                {"kind": "tabulated", "points": [[-0.5, 0], [0.1, 0.5], [0, 0.6], [0.5, 1]]},
                "tabulated abscissae must be strictly increasing",
            ),
            (
                {"kind": "tabulated", "points": [[-0.5, 0], ["x", 0.5], [0.5, 1]]},
                "could not convert string to float: 'x'",
            ),
            ({"kind": "power", "a": 2, "b": 3}, "unknown 'power' spec keys: ['b']"),
            (
                {"kind": "tabulated", "points": [[-0.5, 0], [0, 0.5], [0.5, 1]], "x": 1},
                "unknown 'tabulated' spec keys: ['x']",
            ),
            (
                {"kind": "uniform", "a": 1, "R_ref": 0.7},
                "unknown 'uniform' spec keys: ['R_ref', 'a']",
            ),
        ],
    )
    def test_malformed_type_specs_are_error_lines(self, capsys, tmp_path, spec, message):
        doc = json.loads(S1_DOC)
        doc["sender_types"] = spec
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "evaluate", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: sender_types: {message}\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("threshold", 10**400, "threshold: int too large to convert to float"),
            ("quality", {"Q": 0.2, "sigma": 10**400},
             "quality: quality.sigma: int too large to convert to float"),
            ("threshold", {"R1": 0.2, "R2": -(10**400)},
             "threshold: threshold.R2: int too large to convert to float"),
            ("threshold", {"b": 10**400, "d": 1, "R": 0.5},
             "simulation takes at most 1000 reports"),
        ],
        ids=["threshold", "quality", "pair", "report_counts"],
    )
    def test_oversized_numbers_are_error_lines(self, capsys, tmp_path, field, value, message):
        doc = json.loads(S1_DOC)
        doc[field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(path), "--samples", "1000")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "b, message",
        [
            ("2", "threshold: report counts must be integers, got '2'"),
            (2.9, "threshold: report counts must be integers, got 2.9"),
            (True, "threshold: report counts must be integers, got True"),
            (10**400, "report counts: int too large to convert to float"),
        ],
        ids=["string", "fraction", "bool", "beyond_float_range"],
    )
    def test_bad_report_counts_are_error_lines(self, capsys, tmp_path, b, message):
        doc = json.loads(S1_DOC)
        doc["threshold"] = {"b": b, "d": 1, "R": 0.5}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "multi", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_oversized_sample_count_is_an_error_line(self, capsys, s1_path):
        cap = rv.montecarlo.MAX_SAMPLES
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", s1_path, "--samples", str(cap + 1)
        )
        assert (code, out) == (1, "")
        assert err == f"error: simulation takes at most {cap} samples\n"

    @pytest.mark.parametrize("raw", ["two", "-1"])
    def test_bad_thread_count_is_an_error_line(self, capsys, s1_path, monkeypatch, raw):
        monkeypatch.setenv("RECO_THREADS", raw)
        code, out, err = run_cli(capsys, "simulate", "--scenario", s1_path, "--samples", "1000")
        assert (code, out) == (1, "")
        assert err == f"error: RECO_THREADS must be a non-negative integer, got {raw!r}\n"


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, s1_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "evaluate", "--scenario", s1_path, "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pi_buy"] == pytest.approx(0.6)


# -- arbitrary type specs -------------------------------------------------------

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)  # beyond float range
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
numbers = (
    st.floats(-0.6, 1.1)
    | st.sampled_from([-0.5, 0.0, 0.5, 1.0, 10**400, "0.5", None])
    | json_leaves
)


@st.composite
def tabulated_points(draw):
    """Points lists of any shape, often close to a valid CDF."""
    shape = draw(st.sampled_from(["free", "pairs", "anchored"]))
    if shape == "free":
        return draw(json_values)
    pairs = draw(st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=6))
    if shape == "anchored":
        floats = [p for p in pairs if len(p) == 2 and all(isinstance(v, float) for v in p)]
        pairs = [[-0.5, 0.0], *sorted(floats), [0.5, 1.0]]
    return pairs


type_specs = (
    json_values
    | st.fixed_dictionaries(
        {"kind": st.sampled_from(["uniform", "power", "piecewise_symmetric"]) | json_leaves},
        optional={"a": numbers, "beta_target": numbers, "R_ref": numbers},
    )
    | st.builds(lambda pts: {"kind": "tabulated", "points": pts}, tabulated_points())
)


def assert_output_or_error_line(tmp_path_factory, doc, argv):
    folder = tmp_path_factory.mktemp("doc", numbered=True)
    path, out = folder / "scenario.json", folder / "out.txt"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv[:1], "--scenario", str(path), *argv[1:], "--out", str(out)])
    if code == 0:
        assert out.read_text() != ""
    else:
        assert code == 1 and not out.exists()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


COMMANDS = st.sampled_from([("evaluate",), ("simulate", "--samples", "1000")])


@given(sender=type_specs, receiver=st.none() | type_specs, argv=COMMANDS)
@settings(max_examples=300, deadline=2000)
def test_any_type_spec_ends_in_output_or_an_error_line(
    tmp_path_factory, sender, receiver, argv
):
    doc = {"quality": {"qH": 0.4, "q1": 0.2, "q2": 0.2, "qL": 0.2}, "threshold": 0.5}
    doc["sender_types"] = sender
    if receiver is not None:
        doc["receiver_types"] = receiver
    assert_output_or_error_line(tmp_path_factory, doc, argv)


# -- arbitrary qualities and thresholds ------------------------------------------

odds = st.just(1.0) | st.floats(1e-3, 1e3) | numbers
quality_specs = (
    json_values
    | st.builds(lambda p: dict(zip(("qH", "q1", "q2", "qL"), p)), probability_vectors)
    | st.fixed_dictionaries({k: numbers for k in ("qH", "q1", "q2", "qL")})
    | st.fixed_dictionaries(
        {"Q": st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5) | numbers, "sigma": odds},
        optional={"lambda": odds},
    )
)
thresholds = st.sampled_from([1e-9, 1.0 - 1e-9]) | st.floats(0.0, 1.0) | numbers
report_counts = st.integers(-1, 4) | st.integers(0, 10**400) | numbers
threshold_specs = (
    json_values
    | thresholds
    | st.just("infinite")
    | st.fixed_dictionaries({"R1": thresholds, "R2": thresholds})
    | st.fixed_dictionaries({"b": report_counts, "d": report_counts, "R": thresholds})
)
valid_types = st.sampled_from([
    {"kind": "uniform"},
    {"kind": "power", "a": 2.5},
    {"kind": "piecewise_symmetric", "beta_target": 0.0, "R_ref": 0.75},
])


sweep_ends = st.floats(-1.0, 11.0) | st.sampled_from([0.0, 0.5, math.nan, math.inf])
SWEEPS = st.builds(
    lambda param, lo, hi, steps: (
        "sweep", "--param", param, f"--from={lo}", f"--to={hi}", "--steps", str(steps)
    ),
    st.sampled_from(["Q", "sigma", "a"]),
    sweep_ends,
    sweep_ends,
    st.integers(-1, 12) | st.just(10**12),
)


@given(
    quality=quality_specs,
    threshold=threshold_specs,
    sender=valid_types,
    argv=COMMANDS | st.just(("multi",)) | SWEEPS,
)
@settings(max_examples=300, deadline=2000)
def test_any_quality_and_threshold_end_in_output_or_an_error_line(
    tmp_path_factory, quality, threshold, sender, argv
):
    doc = {"quality": quality, "sender_types": sender, "threshold": threshold}
    assert_output_or_error_line(tmp_path_factory, doc, argv)
