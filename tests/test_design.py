"""Threshold design: monotonicity, closed form, optimization, statics."""

import numpy as np
import pytest

import recoval as rv
from recoval import design
from recoval.design import _objective_effect_symmetric
from recoval.errors import ClosedFormInapplicableError

from conftest import random_symmetric_tabulated


# (shape exponent, prevalence, good odds) with an interior optimum where
# every type accepts
INTERIOR_POWER = [(2.5, 0.2, 1.3), (3.0, 0.25, 0.8), (1.7, 0.3, 1.2)]


class TestSymmetricSlope:
    def test_even_odds_flat(self):
        assert rv.symmetric_slope(0.2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_signed_values(self):
        assert rv.symmetric_slope(0.2, 2.0) == pytest.approx(-0.04, abs=1e-15)
        assert rv.symmetric_slope(0.2, 0.5) == pytest.approx(0.04, abs=1e-15)

    def test_matches_finite_difference_of_closed_form(self):
        rng = np.random.default_rng(89)
        h = 1e-6
        for _ in range(40):
            prevalence = float(rng.uniform(0.02, 0.48))
            sigma = float(rng.uniform(0.2, 5.0))
            share = float(rng.uniform(0.1, 0.9))
            fd = (
                rv.symmetric_value(prevalence, sigma, share + h)
                - rv.symmetric_value(prevalence, sigma, share - h)
            ) / (2.0 * h)
            assert rv.symmetric_slope(prevalence, sigma) == pytest.approx(
                fd, abs=1e-8
            )


class TestMonotonicityClass:
    def test_classes(self):
        assert rv.monotonicity_class_symmetric(2.0) == "increasing_in_R"
        assert rv.monotonicity_class_symmetric(0.5) == "decreasing_in_R"
        assert rv.monotonicity_class_symmetric(1.0) == "constant_in_R"

    def test_finite_difference_signs(self):
        h = 1e-5
        for sigma, sign in ((2.0, 1.0), (0.5, -1.0)):
            system = rv.symmetric_system(0.2, sigma, rv.UniformTypes(), 0.5)
            for r in np.linspace(0.05, 0.95, 19):
                r = float(r)
                slope = (
                    rv.system_value(system.with_threshold(r + h)).value
                    - rv.system_value(system.with_threshold(r - h)).value
                ) / (2.0 * h)
                assert slope * sign > 0.0


class TestClosedForm:
    def test_coefficients_regression(self):
        coef = rv.closed_form_coefficients(2.0, 0.2, 1.0)
        assert coef.c0 == pytest.approx(0.15, abs=1e-15)
        assert coef.c1 == pytest.approx(0.5, abs=1e-15)
        assert coef.c2 == pytest.approx(-0.5, abs=1e-15)

    def test_value_regression(self):
        assert rv.closed_form_value(2.0, 0.2, 1.0, 0.5) == pytest.approx(
            1 / 6, abs=1e-14
        )

    def test_matches_generic_value_when_all_accept(self):
        lattice_checked = 0
        for a in (0.5, 1.0, 2.0, 4.0):
            for prevalence in (0.05, 0.2, 0.35):
                for sigma in (0.5, 1.0, 2.0):
                    for r in (0.2, 0.5, 0.8):
                        system = rv.symmetric_system(
                            prevalence, sigma, rv.PowerTypes(a), r
                        )
                        if rv.acceptance_region(system).kind != "all":
                            continue
                        assert rv.closed_form_value(
                            a, prevalence, sigma, r
                        ) == pytest.approx(rv.system_value(system).value, abs=1e-9)
                        lattice_checked += 1
        assert lattice_checked > 80

    def test_exponent_one_reduces_to_symmetric_form(self):
        for r in (0.2, 0.5, 0.8):
            assert rv.closed_form_value(1.0, 0.2, 2.0, r) == pytest.approx(
                rv.symmetric_value(0.2, 2.0, 1.0 - r), abs=1e-14
            )

    def test_no_controversial_collapses_to_constant(self):
        coef = rv.closed_form_coefficients(3.0, 0.0, 2.0)
        for r in (0.1, 0.9):
            assert rv.closed_form_value(3.0, 0.0, 2.0, r) == pytest.approx(
                coef.c0, abs=1e-15
            )

    def test_inapplicable_outside_all_accept(self):
        # strong convexity with a thin good/bad margin pushes some types out
        with pytest.raises(ClosedFormInapplicableError):
            rv.closed_form_value(6.0, 0.45, 0.25, 0.5)


class TestInteriorConditions:
    def test_examples(self):
        assert rv.interior_conditions(2.0, 0.2, 1.0) == "interior"
        for sigma in (0.1, 1.0, 10.0):
            assert rv.interior_conditions(2.0, 0.4, sigma) == "interior"
        assert rv.interior_conditions(2.0, 0.01, 10.0) == "boundary_high"
        assert rv.interior_conditions(2.0, 0.01, 0.05) == "boundary_low"

    def test_indeterminate_outside_small_prevalence(self):
        assert rv.interior_conditions(2.0, 0.15, 50.0) == "indeterminate"

    def test_band_edges(self):
        # (a=2, Q=0.2): band is [0.4/1.4, 1.4/0.4]
        assert rv.interior_conditions(2.0, 0.2, 0.4 / 1.4 + 1e-6) == "interior"
        assert rv.interior_conditions(2.0, 0.2, 1.4 / 0.4 - 1e-6) == "interior"


class TestInteriorRegionMap:
    def test_band_edges_agree_with_interior_conditions(self):
        rows = rv.region_map("interior", 0.2, 6.0, steps=30, prevalence=0.05)
        assert {label for _, _, label in rows} == {"lower", "upper"}
        for a, edge, label in rows:
            assert rv.interior_conditions(a, 0.05, edge) == "interior"
            outside = edge * (0.999 if label == "lower" else 1.001)
            expected = "boundary_low" if label == "lower" else "boundary_high"
            assert rv.interior_conditions(a, 0.05, outside) == expected


def count_value_calls(monkeypatch):
    """Lists that record the size of every ``system_values`` call and the
    threshold of every ``system_value`` call the optimizer makes."""
    sizes, scalar = [], []
    batch, one = design.system_values, design.system_value

    def counting_batch(system, thresholds):
        sizes.append(len(thresholds))
        return batch(system, thresholds)

    def counting_one(system):
        scalar.append(system.threshold)
        return one(system)

    monkeypatch.setattr(design, "system_values", counting_batch)
    monkeypatch.setattr(design, "system_value", counting_one)
    return sizes, scalar


class TestOptimizeThreshold:
    def test_interior_power_family(self):
        system = rv.symmetric_system(0.2, 1.0, rv.PowerTypes(2.0), 0.5)
        verdict = rv.optimize_threshold(system, grid_points=401)
        assert verdict.kind == "interior_optimum"
        assert verdict.optimum_threshold == pytest.approx(0.5, abs=1e-6)
        assert verdict.optimum_value == pytest.approx(1 / 6, abs=1e-10)

    def test_monotone_symmetric_cases(self):
        up = rv.symmetric_system(0.2, 2.0, rv.UniformTypes(), 0.5)
        assert rv.optimize_threshold(up, grid_points=301).kind == "increasing_in_R"
        down = rv.symmetric_system(0.2, 0.5, rv.UniformTypes(), 0.5)
        assert rv.optimize_threshold(down, grid_points=301).kind == "decreasing_in_R"

    def test_constant_case(self):
        system = rv.symmetric_system(0.2, 1.0, rv.UniformTypes(), 0.5)
        verdict = rv.optimize_threshold(system, grid_points=301)
        assert verdict.kind == "constant_in_R"

    @pytest.mark.parametrize("a, prevalence, sigma", INTERIOR_POWER)
    def test_power_optimum_is_the_closed_form_root(self, a, prevalence, sigma):
        # V'(R) = 0 where c1 R^(a-1) = -c2 (1-R)^(a-1), if all types accept
        system = rv.symmetric_system(prevalence, sigma, rv.PowerTypes(a), 0.5)
        verdict = rv.optimize_threshold(system)
        coef = rv.closed_form_coefficients(a, prevalence, sigma)
        odds = (-coef.c2 / coef.c1) ** (1.0 / (a - 1.0))
        r_star = verdict.optimum_threshold
        assert verdict.kind == "interior_optimum"
        assert rv.acceptance_region(system.with_threshold(r_star)).kind == "all"
        assert r_star == pytest.approx(odds / (1.0 + odds), abs=1e-7)

    def test_interior_value_is_the_scalar_value_at_the_optimum(self):
        rng = np.random.default_rng(5)
        systems = [
            rv.symmetric_system(q, s, rv.PowerTypes(a), 0.5) for a, q, s in INTERIOR_POWER
        ]
        xs = np.linspace(-0.5, 0.5, 6)
        for e in (0.7, 1.6, 2.4):
            table = rv.TabulatedTypes(tuple(zip(xs, (xs + 0.5) ** e)))
            for _ in range(4):
                quality = rv.QualityDistribution(*rng.dirichlet([0.8] * 4))
                systems.append(rv.RecommendationSystem(quality, table, 0.5))
        # the last round's best grid point once beat the midpoint by an ulp
        quality = rv.quality_from_params(
            0.4154763050829556, 0.5132979987741987, 2.5544681506876814
        )
        senders, receivers = rv.PowerTypes(2.792923723969831), rv.PowerTypes(1.836351729881836)
        systems.append(rv.RecommendationSystem(quality, senders, 0.5, receivers))
        interior = 0
        for system in systems:
            verdict = rv.optimize_threshold(system)
            if verdict.kind != "interior_optimum":
                continue
            interior += 1
            at_optimum = system.with_threshold(verdict.optimum_threshold)
            assert verdict.optimum_value == rv.system_value(at_optimum).value
        assert interior >= 6

    def test_refinement_rounds_are_batches_of_33(self, monkeypatch):
        sizes, scalar = count_value_calls(monkeypatch)
        system = rv.symmetric_system(0.2, 1.3, rv.PowerTypes(2.5), 0.5)
        verdict = rv.optimize_threshold(system)
        assert verdict.kind == "interior_optimum"
        assert sizes[0] == 2001
        assert 1 <= len(sizes) - 1 <= 6 and set(sizes[1:]) == {33}
        assert len(scalar) == 1

    @pytest.mark.parametrize(
        "sigma, points, end",
        [(2.0, 2001, 1.0 - 1e-4), (0.5, 2001, 1e-4), (2.0, 101, 1.0 - 1e-4),
         (2.0, 41, 1.0 - 1e-4), (0.5, 21, 1e-4)],
    )
    def test_an_edge_argmax_is_refined_only_on_a_coarse_grid(
        self, monkeypatch, sigma, points, end
    ):
        sizes, scalar = count_value_calls(monkeypatch)
        system = rv.symmetric_system(0.2, sigma, rv.UniformTypes(), 0.5)
        verdict = rv.optimize_threshold(system, grid_points=points)
        kind = "increasing_in_R" if sigma > 1.0 else "decreasing_in_R"
        assert (verdict.kind, verdict.optimum_threshold) == (kind, end)
        assert verdict.optimum_value == rv.system_values(system, [end]).value[0]
        if points >= 101:  # grid spacing at most the 0.01 edge margin
            assert sizes == [points] and scalar == []
        else:
            assert sizes[0] == points and set(sizes[1:]) == {33} and len(scalar) == 1

    def test_rejects_grids_above_the_cap(self):
        system = rv.symmetric_system(0.2, 2.0, rv.UniformTypes(), 0.5)
        for points in (design.MAX_GRID_POINTS + 1, 10**12):
            with pytest.raises(rv.ModelError, match="at most 100001 grid points"):
                rv.optimize_threshold(system, grid_points=points)
            with pytest.raises(rv.ModelError, match="at most 100001 grid points"):
                rv.region_map("panelB", steps=points)

    def test_rejects_fewer_than_two_grid_points(self):
        system = rv.symmetric_system(0.2, 2.0, rv.UniformTypes(), 0.5)
        for points in (1, 0, -3):
            with pytest.raises(rv.ModelError, match="grid points"):
                rv.optimize_threshold(system, grid_points=points)

    def test_quasiconcave_in_all_accept_regime(self):
        # discrete differences change sign at most once on the grid
        rng = np.random.default_rng(101)
        for _ in range(10):
            a = float(rng.uniform(0.5, 3.0))
            sigma = float(rng.uniform(0.5, 2.0))
            system = rv.symmetric_system(0.02, sigma, rv.PowerTypes(a), 0.5)
            grid = np.linspace(0.01, 0.99, 99)
            vals = np.array(
                [rv.system_value(system.with_threshold(float(r))).value for r in grid]
            )
            signs = np.sign(np.diff(vals))
            signs = signs[signs != 0.0]
            flips = int((np.diff(signs) != 0.0).sum())
            assert flips <= 1


class TestPolarizationEffect:
    def test_direction_matrix(self):
        assert rv.polarization_effect(0.5, 0.75) == "increases"
        assert rv.polarization_effect(2.0, 0.75) == "decreases"
        assert rv.polarization_effect(0.5, 0.25) == "decreases"
        assert rv.polarization_effect(2.0, 0.25) == "increases"
        assert rv.polarization_effect(1.0, 0.75) == "neutral"

    def test_midpoint_threshold_rejected(self):
        with pytest.raises(rv.ModelError):
            rv.polarization_effect(0.5, 0.5)

    def test_matches_value_comparison(self):
        # spreading the population at a high threshold raises the willing
        # share; compare values through the piecewise family directly
        prevalence = 0.2
        for sigma, direction in ((0.5, 1.0), (2.0, -1.0)):
            values = []
            for target in np.linspace(0.0, 0.5, 6):
                dist = rv.PiecewiseSymmetricTypes(
                    beta_target=float(target), r_ref=0.75
                )
                system = rv.symmetric_system(prevalence, sigma, dist, 0.75)
                values.append(rv.system_value(system).value)
            diffs = np.diff(values)
            assert np.all(diffs * direction > 0.0)


class TestPrevalenceStatics:
    def test_even_odds_decreasing(self):
        for share in (0.0, 0.5, 1.0):
            assert rv.prevalence_statics(1.0, share).kind == "decreasing"

    def test_interior_point(self):
        verdict = rv.prevalence_statics(5.0, 0.1)
        assert verdict.kind == "interior"
        assert verdict.q_star == pytest.approx(7.6 / 70.4, rel=1e-12)

    def test_interior_point_maximizes_value(self):
        verdict = rv.prevalence_statics(5.0, 0.1)
        grid = np.linspace(1e-4, 0.5 - 1e-4, 500)
        values = [rv.symmetric_value(float(q), 5.0, 0.1) for q in grid]
        best = rv.symmetric_value(verdict.q_star, 5.0, 0.1)
        assert best >= max(values) - 1e-12

    def test_cross_partial_negative(self):
        # raising the odds lowers the marginal value of the willing share
        h = 1e-5
        for prevalence in (0.1, 0.3):
            for sigma in (0.5, 1.0, 2.0):
                for share in (0.2, 0.8):
                    mixed = (
                        rv.symmetric_value(prevalence, sigma + h, share + h)
                        - rv.symmetric_value(prevalence, sigma + h, share - h)
                        - rv.symmetric_value(prevalence, sigma - h, share + h)
                        + rv.symmetric_value(prevalence, sigma - h, share - h)
                    ) / (4.0 * h * h)
                    assert mixed < 0.0


class TestRegionMap:
    def test_panel_b_curve(self):
        rows = rv.region_map("panelB", x_from=1.0, x_to=1.0, steps=1)
        assert rows == [(1.0, 0.5, "buy_probability_boundary")]

    def test_panel_a_boundary_at_three(self):
        rows = rv.region_map("panelA", x_from=3.0, x_to=3.0, steps=1)
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_panel_a_region_sign(self):
        # below the boundary share the value has an interior prevalence
        # optimum, above it the value falls with the prevalence
        rows = rv.region_map("panelA", x_from=5.0, x_to=5.0, steps=1)
        boundary = rows[0][1]
        assert rv.prevalence_statics(5.0, boundary - 0.05).kind == "interior"
        assert rv.prevalence_statics(5.0, boundary + 0.05).kind == "decreasing"

    def test_interior_map_all_interior_for_steep_shapes(self):
        rows = rv.region_map("interior", x_from=9.0, x_to=12.0, steps=4)
        assert rows == []

    def test_interior_map_band_brackets_verdicts(self):
        rows = rv.region_map("interior", x_from=2.0, x_to=2.0, steps=1)
        lower = [r for r in rows if r[2] == "lower"][0][1]
        upper = [r for r in rows if r[2] == "upper"][0][1]
        mid = 0.5 * (lower + upper)
        assert rv.interior_conditions(2.0, 0.1, mid) == "interior"
        assert rv.interior_conditions(2.0, 0.1, lower * 0.5) == "boundary_low"
        assert rv.interior_conditions(2.0, 0.1, upper * 2.0) == "boundary_high"

    def test_panel_c_matches_published_curve_point(self):
        rows = rv.region_map("panelC", x_from=2.0, x_to=2.0, steps=1)
        assert rows[0][1] == pytest.approx(0.159776, abs=1e-4)

    def test_panel_c_is_a_sign_change(self):
        rows = rv.region_map("panelC", x_from=3.0, x_to=3.0, steps=1)
        boundary = rows[0][1]
        h = 1e-6
        for share, sign in ((boundary - 0.05, 1.0), (boundary + 0.05, -1.0)):
            slope = (
                _objective_effect_symmetric(0.1 + h, 3.0, share)
                - _objective_effect_symmetric(0.1 - h, 3.0, share)
            ) / (2.0 * h)
            assert slope * sign > 0.0


class TestFiniteDifferenceSlopeSigns:
    def test_symmetric_tabulated_families(self):
        rng = np.random.default_rng(103)
        h = 1e-5
        for _ in range(10):
            dist = random_symmetric_tabulated(rng)
            sigma = float(rng.uniform(1.3, 4.0))
            system = rv.symmetric_system(0.2, sigma, dist, 0.5)
            for r in np.linspace(0.1, 0.9, 9):
                r = float(r)
                slope = (
                    rv.system_value(system.with_threshold(r + h)).value
                    - rv.system_value(system.with_threshold(r - h)).value
                ) / (2.0 * h)
                assert slope > 0.0
