"""Command-line interface: scenario parsing, commands, output formats."""

import json

import pytest

import recoval as rv
from recoval.cli import ScenarioError, main, parse_scenario

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
        ],
    )
    def test_bad_grid_sizes_are_error_lines(self, capsys, s1_path, argv):
        code, out, err = run_cli(capsys, argv[0], "--scenario", s1_path, *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, s1_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "evaluate", "--scenario", s1_path, "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pi_buy"] == pytest.approx(0.6)
