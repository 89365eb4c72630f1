"""Closed-form dimension predictions and the crossing identity behind the
sharp graph lower bound."""

import pytest

from packdim import (
    DegenerateRegimeError,
    InvalidArgumentError,
    Regime,
    graph_lower,
    predict_graph_upper,
    predict_image,
    solve_crossing,
    tx_lower,
)

# beta d / (alpha d + beta (1 - alpha d)) at (0.4, 2, 0.9), mpmath mp.dps=20
TX_LOWER_04_2_09 = 1.8367346938775510204


class TestRegime:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Regime(0.0, 1, 0.5)
        with pytest.raises(InvalidArgumentError):
            Regime(1.0, 1, 0.5)
        with pytest.raises(InvalidArgumentError):
            Regime(0.5, 0, 0.5)
        with pytest.raises(InvalidArgumentError):
            Regime(0.5, 1, 1.5)

    def test_subcritical_gate(self):
        with pytest.raises(DegenerateRegimeError):
            tx_lower(Regime(0.5, 2, 0.5))
        with pytest.raises(DegenerateRegimeError):
            graph_lower(Regime(0.6, 2, 0.5))


class TestPredictImage:
    def test_saturates_range_dimension(self):
        assert predict_image(Regime(0.5, 2, 1.0)) == 2.0

    def test_rough_set(self):
        assert predict_image(Regime(0.5, 1, 0.25)) == pytest.approx(0.5, rel=1e-15)

    def test_trivial_set(self):
        assert predict_image(Regime(0.5, 1, 0.0)) == 0.0


class TestPredictGraphUpper:
    def test_brownian_graph(self):
        assert predict_graph_upper(Regime(0.5, 1, 1.0)) == pytest.approx(
            1.5, rel=1e-15
        )

    def test_smooth_limit(self):
        # alpha near 1: the graph adds almost nothing over the set itself
        v = predict_graph_upper(Regime(0.999, 1, 0.7))
        assert v == pytest.approx(0.7, abs=1e-3)

    def test_ratio_branch(self):
        assert predict_graph_upper(Regime(0.5, 1, 0.5)) == pytest.approx(
            1.0, rel=1e-15
        )


class TestTxLower:
    def test_half_half(self):
        assert tx_lower(Regime(0.5, 1, 0.5)) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_full_set_saturates(self):
        assert tx_lower(Regime(0.3, 1, 1.0)) == 1.0
        assert tx_lower(Regime(0.3, 3, 1.0)) == 3.0

    def test_zero_set(self):
        assert tx_lower(Regime(0.3, 2, 0.0)) == 0.0

    def test_frozen_reference(self):
        assert tx_lower(Regime(0.4, 2, 0.9)) == pytest.approx(
            TX_LOWER_04_2_09, rel=1e-12
        )

    def test_strictly_below_naive_product(self):
        # the bound undercuts min(d, beta/alpha) on every interior regime
        r = Regime(0.4, 2, 0.5)
        assert tx_lower(r) < predict_image(r)


class TestGraphLower:
    def test_linear_branch(self):
        # beta (d + 1 - alpha d) dominates at (0.5, 1, 0.5)
        assert graph_lower(Regime(0.5, 1, 0.5)) == pytest.approx(0.75, rel=1e-15)

    def test_frozen_reference(self):
        assert graph_lower(Regime(0.4, 2, 0.9)) == pytest.approx(1.98, rel=1e-12)

    def test_zero_set(self):
        assert graph_lower(Regime(0.3, 2, 0.0)) == 0.0

    def test_sandwiched_by_upper_bound(self):
        for regime in (Regime(0.3, 2, 0.7), Regime(0.5, 1, 0.9), Regime(0.2, 4, 0.4)):
            assert graph_lower(regime) <= predict_graph_upper(regime) + 1e-12


class TestSolveCrossing:
    def g(self, regime, x):
        return regime.beta / (regime.alpha * (1.0 - regime.beta) * x)

    def h(self, regime, x):
        a, d = regime.alpha, regime.d
        if x <= 1.0 / a:
            return d * (1.0 - 1.0 / x)
        return (1.0 - a) * d + 1.0 - 1.0 / (a * x)

    def test_steep_branch(self):
        x_star, value = solve_crossing(Regime(0.5, 1, 0.5))
        assert x_star == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert value == pytest.approx(0.75, rel=1e-12)

    def test_shallow_branch(self):
        x_star, value = solve_crossing(Regime(0.4, 2, 0.9))
        assert x_star == pytest.approx(125.0 / 11.0, rel=1e-12)
        assert value == pytest.approx(1.98, rel=1e-12)

    def test_low_branch(self):
        x_star, value = solve_crossing(Regime(0.2, 2, 0.2))
        assert x_star == pytest.approx(1.625, rel=1e-12)
        assert value == pytest.approx(10.0 / 13.0, rel=1e-12)

    def test_crossing_is_a_crossing(self):
        # both envelope pieces pass through the reported point, and the value
        # is exactly the closed-form graph bound
        for regime in (Regime(0.5, 1, 0.5), Regime(0.4, 2, 0.9), Regime(0.2, 2, 0.2)):
            x_star, value = solve_crossing(regime)
            assert self.g(regime, x_star) == pytest.approx(value, rel=1e-12)
            assert self.h(regime, x_star) == pytest.approx(value, abs=1e-9)
            assert value == pytest.approx(graph_lower(regime), abs=1e-9)

    def test_needs_interior_beta(self):
        with pytest.raises(InvalidArgumentError):
            solve_crossing(Regime(0.5, 1, 0.0))
        with pytest.raises(InvalidArgumentError):
            solve_crossing(Regime(0.5, 1, 1.0))

