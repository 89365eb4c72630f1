"""Nested interval systems: self-similar builds, the two-scale symbolic
construction, covering counts, and regular subsystem extraction."""

import dataclasses
import math

import numpy as np
import pytest

from packdim import (
    GeometryError,
    InvalidArgumentError,
    NestedIntervalSystem,
    ScaleUnrepresentableError,
    build_tx_system,
    build_uniform_cantor,
    check_regularity_conditions,
    covering_count,
    extract_subsystem,
    minkowski_bounds,
    natural_measure,
    realize_explicit,
)
from packdim.estimators import _window
from packdim.fractals import LevelSpec, _digit_counts
from packdim.numerics import _finest_third

# log 2 / log 3, mpmath mp.dps=25
LOG2_OVER_LOG3 = 0.6309297535714574370995271

LOG2 = math.log(2.0)


def thirds(levels=6):
    return build_uniform_cantor(2, 1.0 / 3.0, levels)


class TestUniformCantor:
    def test_middle_thirds_counts_and_lengths(self):
        mt = thirds(6)
        assert mt.depth == 6
        assert mt.count(0) == 1
        assert mt.count(3) == 8
        assert mt.count(6) == 64
        assert mt.delta(3) == pytest.approx((1.0 / 3.0) ** 3, rel=1e-12)
        # gap between siblings equals the removed middle third of the parent
        assert mt.gap(3) == pytest.approx((1.0 / 3.0) ** 3, rel=1e-12)
        assert mt.branching(2) == 2
        assert mt.uniform

    def test_level_one_endpoints(self):
        mt = thirds(2)
        np.testing.assert_allclose(mt.lefts(1), [0.0, 2.0 / 3.0], atol=1e-15)

    def test_similarity_dimension(self):
        mt = thirds(4)
        assert mt.params["similarity_dimension"] == pytest.approx(
            LOG2_OVER_LOG3, abs=1e-15
        )

    def test_root_has_no_gap(self):
        with pytest.raises(InvalidArgumentError):
            thirds(3).gap(0)

    def test_builder_validation(self):
        with pytest.raises(InvalidArgumentError):
            build_uniform_cantor(1, 0.3, 4)
        # branches * ratio must stay below 1 or the children overlap
        with pytest.raises(InvalidArgumentError):
            build_uniform_cantor(3, 0.5, 4)
        with pytest.raises(InvalidArgumentError):
            build_uniform_cantor(2, 1.0 / 3.0, 25)  # 2**25 intervals

    def test_geometry_rejects_bad_root(self):
        spec = LevelSpec(np.array([0.0, 0.5]), 1.0, None, 1)
        with pytest.raises(GeometryError):
            NestedIntervalSystem((spec,))

    def test_geometry_rejects_growing_levels(self):
        root = LevelSpec(np.array([0.0]), 1.0, None, 1)
        fat = LevelSpec(np.array([0.0, 2.0]), 1.5, 0.5, 2)
        with pytest.raises(GeometryError):
            NestedIntervalSystem((root, fat))

    def test_geometry_rejects_escaping_child(self):
        root = LevelSpec(np.array([0.0]), 1.0, None, 1)
        out = LevelSpec(np.array([0.0, 0.9]), 0.2, 0.7, 2)
        with pytest.raises(GeometryError):
            NestedIntervalSystem((root, out))

    def test_exact_fill_has_no_packing_slack(self):
        # first child flush left, last flush right: m(gap+len) exceeds the
        # parent length by one gap, so the slack inequality must fail
        assert not thirds(4).packing_slack_ok()


class TestNaturalMeasure:
    def test_root_level(self):
        mu = natural_measure(thirds(3), 0)
        np.testing.assert_array_equal(mu.atoms, [[0.0]])
        np.testing.assert_array_equal(mu.weights, [1.0])

    def test_level_two_atoms(self):
        mu = natural_measure(thirds(4), 2)
        np.testing.assert_allclose(
            mu.atoms.ravel(), [0.0, 2.0 / 9.0, 2.0 / 3.0, 8.0 / 9.0], atol=1e-15
        )
        np.testing.assert_array_equal(mu.weights, np.full(4, 0.25))

    def test_deep_level_mass_is_exact(self):
        mu = natural_measure(thirds(10), 10)
        assert mu.atoms.shape == (1024, 1)
        assert math.fsum(mu.weights) == pytest.approx(1.0, abs=1e-15)


class TestTxSystem:
    def test_first_levels_exact(self):
        tx = build_tx_system(0.5, 0.25, 12)
        assert tx.depth == 12
        assert tx.L[0] == pytest.approx(math.log(4.0), rel=1e-15)
        assert tx.H[0] == pytest.approx(math.log(64.0), rel=1e-15)
        assert tx.m_exact[0] == 8
        assert tx.L[1] == pytest.approx(math.log(4096.0), rel=1e-15)
        assert tx.m_exact[1] == 8192
        assert tx.L[2] == pytest.approx(128.0 * LOG2, rel=1e-15)
        assert tx.L[3] == pytest.approx(2320.0 * LOG2, rel=1e-15)

    def test_deep_counts_leave_exact_range(self):
        # beyond the float-representable range the count survives as a log
        tx = build_tx_system(0.5, 0.25, 12)
        assert tx.m_exact[2] is None
        assert tx.logm[2] > 0

    def test_invariants_hold(self):
        tx = build_tx_system(0.5, 0.25, 12)
        assert tx.check_invariants() is None

    def test_length_dominates_count_sum(self):
        # L_k >= 2^(k+1) * sum_{j<=k} log m_j at every level
        tx = build_tx_system(0.5, 0.25, 12)
        for k in range(1, tx.depth + 1):
            lhs = tx.L[k]
            rhs = 2.0 ** (k + 1) * math.fsum(tx.logm[:k])
            assert lhs >= rhs * (1.0 - 1e-12)

    def test_scale_ratio_tail_approaches_beta(self):
        # cumulative branching against the gap exponent: log(m_1..m_k) / H_k
        # starts at beta exactly, overshoots, then settles back from above
        tx = build_tx_system(0.5, 0.25, 12)
        ratios = [
            math.fsum(tx.logm[:k]) / tx.H[k - 1] for k in range(1, tx.depth + 1)
        ]
        assert ratios[0] == pytest.approx(0.5, abs=1e-12)
        assert ratios[1] == pytest.approx(16.0 / 26.0, abs=1e-12)
        assert ratios[-1] == pytest.approx(0.5, abs=1e-3)
        assert all(r >= 0.5 - 1e-12 for r in ratios)

    def test_other_beta(self):
        tx = build_tx_system(0.7, 0.25, 8)
        assert tx.check_invariants() is None
        assert tx.m_exact[0] >= 1

    @pytest.mark.parametrize("delta0", [0.25, 0.45])
    def test_every_beta_builds_at_default_levels(self, delta0):
        # at beta 0.7 and 0.9 L_k passes 1e16 by level 9, where one ulp of
        # -L_{k-1} outgrew an absolute slack on the packing room
        for beta in np.arange(1, 20) / 20:
            assert build_tx_system(float(beta), delta0).check_invariants() is None

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_doubled_branch_count_breaks_the_packing_room(self, beta):
        # twice m_1 children of gap eta_1 fill 2 eta_1^(1 - beta) =
        # delta_0 already, and each child adds its delta_1; L_1 is raised to
        # keep the mass cap, so the room is the check that fails
        tx = build_tx_system(beta, 0.25)
        logm = (tx.logm[0] + math.log(2.0),) + tx.logm[1:]
        L = (tx.L[0], 4.0 * logm[0]) + tx.L[2:]
        doubled = dataclasses.replace(tx, logm=logm, L=L)
        with pytest.raises(GeometryError, match="level 1: packing room violated"):
            doubled.check_invariants()


class TestRealizeExplicit:
    def test_root_only(self):
        tx = build_tx_system(0.5, 0.25, 12)
        sys0 = realize_explicit(tx, 0)
        assert sys0.depth == 0
        assert sys0.count(0) == 1
        assert sys0.delta(0) == pytest.approx(0.25, rel=1e-15)

    def test_first_level(self):
        tx = build_tx_system(0.5, 0.25, 12)
        sys1 = realize_explicit(tx, 1)
        assert sys1.count(1) == 8
        assert sys1.delta(1) == pytest.approx(2.0**-12, rel=1e-12)
        assert sys1.packing_slack_ok()

    def test_second_level(self):
        tx = build_tx_system(0.5, 0.25, 12)
        sys2 = realize_explicit(tx, 2)
        assert sys2.count(2) == 8 * 8192
        assert sys2.packing_slack_ok()

    @pytest.mark.parametrize("beta, delta0, level", [(0.15, 0.1, 4), (0.15, 0.05, 4)])
    def test_gaps_under_the_rounding_of_the_end_points_build(self, beta, delta0, level):
        # sibling gaps of 1e-15 and 4e-18 beside left ends up to 0.005 and
        # 0.002: their np.diff carries up to 5e-19 of rounding, far over
        # 1e-9 of the parent length (3.5e-22 and 3.6e-24)
        system = realize_explicit(build_tx_system(beta, delta0, level), level)
        lefts = system.lefts(level)
        assert len(np.unique(lefts)) == len(lefts) == system.count(level)

    def test_a_gap_off_by_more_than_the_rounding_is_refused(self):
        # the check is not vacuous: move one middle sibling by 1e-16, about
        # 30 times the 3.5e-18 tolerance and a tenth of the 1e-15 gap
        system = realize_explicit(build_tx_system(0.15, 0.1, 4), 4)
        levels = list(system.levels)
        lefts = levels[4].lefts.copy()
        lefts[88] += 1e-16
        levels[4] = dataclasses.replace(levels[4], lefts=lefts)
        with pytest.raises(GeometryError, match="level 4 sibling gaps are not uniform"):
            NestedIntervalSystem(tuple(levels))

    @pytest.mark.parametrize("delta0", [0.05, 0.1])
    def test_gaps_below_the_rounding_are_refused_by_name(self, delta0):
        # beta 0.1, level 5: 3786 intervals, siblings 1e-28 apart beside
        # left ends near 1e-3, have only 636 distinct left ends in floats
        with pytest.raises(GeometryError, match="level 5 sibling gap 9.95e-29 is below"):
            realize_explicit(build_tx_system(0.1, delta0, 5), 5)

    def test_third_level_is_unrepresentable(self):
        # delta_3 = exp(-2320 log 2) underflows any normal double
        tx = build_tx_system(0.5, 0.25, 12)
        with pytest.raises(ScaleUnrepresentableError):
            realize_explicit(tx, 3)
        with pytest.raises(ScaleUnrepresentableError):
            realize_explicit(tx, 4)


class TestCoveringCount:
    def test_thirds_exact(self):
        mt = thirds(12)
        # eps = 3^-3 needs all 8 level-3 intervals
        assert covering_count(mt, 3.0 * math.log(3.0)) == pytest.approx(
            math.log(8.0), rel=1e-12
        )
        assert covering_count(mt, 0.0) == 0.0

    def test_between_levels(self):
        mt = thirds(12)
        # delta_3 < eps < delta_2: 4 level-2 parents, ceil(delta_2/eps) = 2
        lie = 2.0 * math.log(3.0) + math.log(1.5)
        logn = covering_count(mt, lie)
        assert logn == pytest.approx(math.log(8.0), rel=1e-12)
        # exactly at delta_2 the per-parent need delta_1/delta_2 = 3 is
        # capped at the branch count
        at_level = covering_count(mt, 2.0 * math.log(3.0))
        assert at_level == pytest.approx(math.log(4.0), rel=1e-12)

    def test_out_of_range(self):
        mt = thirds(5)
        with pytest.raises(InvalidArgumentError):
            covering_count(mt, -1.0)  # eps above the root length
        with pytest.raises(InvalidArgumentError):
            covering_count(mt, 10.0 * math.log(3.0))  # finer than depth 5

    def test_nan_has_its_own_reason(self):
        mt = thirds(5)
        with pytest.raises(InvalidArgumentError, match="log_inv_eps is NaN"):
            covering_count(mt, math.nan)
        with pytest.raises(InvalidArgumentError, match="log_inv_eps is NaN"):
            covering_count(build_tx_system(0.5, 0.25, 4), math.nan)
        # an infinite one is finer than every level
        with pytest.raises(InvalidArgumentError, match="finer than the deepest level"):
            covering_count(mt, math.inf)

    def test_tx_symbolic(self):
        tx = build_tx_system(0.5, 0.25, 12)
        # at eps = delta_2 every level-2 interval is needed
        logn = covering_count(tx, tx.L[2])
        assert logn == pytest.approx(math.log(8.0 * 8192.0), rel=1e-12)

    def test_monotone_in_scale(self):
        mt = thirds(10)
        grid = [k * math.log(3.0) for k in range(1, 11)]
        logs = [covering_count(mt, x) for x in grid]
        assert all(b >= a for a, b in zip(logs, logs[1:]))


class TestMinkowskiBounds:
    def test_thirds_pins_similarity_dimension(self):
        mt = thirds(12)
        mb = minkowski_bounds(mt, [k * math.log(3.0) for k in range(4, 13)])
        assert mb.limsup == pytest.approx(LOG2_OVER_LOG3, abs=1e-12)
        assert mb.liminf == pytest.approx(LOG2_OVER_LOG3, abs=1e-12)
        assert len(mb.table) == 9

    @pytest.mark.parametrize("count", range(3, 13))
    def test_tail_is_the_finest_third(self, count):
        # the tail the bounds read is the window of tail-max fits: the
        # finest max(1, ceil(count / 3)) scales
        tail = max(1, math.ceil(count / 3))
        assert list(_finest_third(count)) == list(range(count))[-tail:]
        assert _window(count, "tail-max") == _finest_third(count)
        mb = minkowski_bounds(build_tx_system(0.5, 0.25, levels=4), np.linspace(2.0, 60.0, count))
        ratios = [row[2] for row in mb.table]
        assert mb.limsup == max(ratios[-tail:])
        assert mb.liminf == min(ratios[-tail:])

    def test_needs_three_scales(self):
        with pytest.raises(InvalidArgumentError):
            minkowski_bounds(thirds(6), [math.log(3.0), 2 * math.log(3.0)])

    def test_a_nan_scale_is_refused_as_covering_count_refuses_it(self):
        with pytest.raises(InvalidArgumentError, match="log_inv_eps is NaN"):
            minkowski_bounds(thirds(6), [math.log(3.0), math.nan, 2 * math.log(3.0)])


class TestDigitCounts:
    def test_reads_the_levels_of_built_systems(self):
        two_scale = realize_explicit(build_tx_system(0.5, 0.45, 2), 2)
        assert _digit_counts(natural_measure(two_scale, 2).atoms) == (4, 512)
        assert _digit_counts(natural_measure(two_scale, 1).atoms) == (4,)
        assert _digit_counts(natural_measure(thirds(5), 5).atoms) == (2,) * 5
        quarters = build_uniform_cantor(3, 0.25, 4)
        assert _digit_counts(natural_measure(quarters, 4).atoms) == (3,) * 4
        assert _digit_counts(np.zeros((1, 1))) == ()

    def test_refuses_other_points(self):
        atoms = natural_measure(thirds(5), 5).atoms
        nudged = atoms.copy()
        nudged[-1, 0] = np.nextafter(nudged[-1, 0], 2.0)
        for points in (
            nudged,
            atoms[::-1],
            atoms + 0.5,
            atoms[:-1],
            np.hstack([atoms, atoms]),
            (np.arange(250.0) / 250 + 1 / 500)[:, None],
        ):
            assert _digit_counts(points) is None


class TestExtraction:
    def test_pinned_shape(self):
        sub = extract_subsystem(thirds(12), 0.3, 2.0 / 3.0)
        assert sub.base_levels == (1, 2, 4, 7, 11)
        assert sub.branch_counts == (2, 1, 2, 3, 4)

    def test_interval_masses(self):
        sub = extract_subsystem(thirds(12), 0.3, 2.0 / 3.0)
        assert sub.interval_mass(1) == 0.5
        assert sub.interval_mass(2) == 0.5
        assert sub.interval_mass(5) == pytest.approx(1.0 / 48.0, rel=1e-15)

    def test_measure_atoms(self):
        sub = extract_subsystem(thirds(12), 0.3, 2.0 / 3.0)
        mu = sub.measure()
        assert mu.atoms.shape == (48, 1)
        assert math.fsum(mu.weights) == pytest.approx(1.0, abs=1e-15)

    def test_refine_splits_atoms_only(self):
        sub = extract_subsystem(thirds(12), 0.3, 2.0 / 3.0)
        mu = sub.measure(refine=1)
        assert mu.atoms.shape == (96, 1)
        # masses per output interval are a property of the tree, not of the
        # atom resolution
        assert sub.interval_mass(5) == pytest.approx(1.0 / 48.0, rel=1e-15)

    def test_regularity_conditions_pass(self):
        sub = extract_subsystem(thirds(12), 0.3, 2.0 / 3.0)
        depth = sub.system.depth
        masses = [sub.interval_mass(n) for n in range(1, depth + 1)]
        assert check_regularity_conditions(sub.system, masses, 0.3, 2.0 / 3.0) == []

    @pytest.mark.parametrize("gamma, theta", [(math.nan, 2.0 / 3.0), (0.3, math.inf)])
    def test_regularity_refuses_non_finite_exponents(self, gamma, theta):
        # a NaN gamma read as five mass violations, an infinite theta as a pass
        sub = extract_subsystem(thirds(12), 0.3, 2.0 / 3.0)
        masses = [sub.interval_mass(n) for n in range(1, sub.system.depth + 1)]
        with pytest.raises(InvalidArgumentError):
            check_regularity_conditions(sub.system, masses, gamma, theta)

    def test_gamma_above_similarity_dimension(self):
        with pytest.raises(InvalidArgumentError):
            extract_subsystem(thirds(12), 0.99, 2.0 / 3.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_is_refused(self, theta):
        # a NaN theta never meets the gap growth condition, so the level
        # search would not end
        with pytest.raises(InvalidArgumentError):
            extract_subsystem(thirds(12), 0.3, theta)
