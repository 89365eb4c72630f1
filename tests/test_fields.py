"""Gaussian field sampling: covariance structure, drift catalog, exact
reproducibility, and the image/graph views of a path."""

import hashlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import scheduled_factor
from hypothesis import given
from hypothesis import strategies as st

from packdim import (
    DriftSpec,
    FieldSpec,
    InvalidArgumentError,
    Seed,
    build_tx_system,
    build_uniform_cantor,
    canonical_metric,
    cli,
    fbm_covariance,
    fields,
    graph_measure,
    graph_points,
    image_measure,
    natural_measure,
    numerics,
    realize_explicit,
    sample,
    sample_many,
)

GRID = np.linspace(0.0, 1.0, 33).reshape(-1, 1)


class TestCovariance:
    def test_variance_at_t(self):
        assert fbm_covariance(1.0, 1.0, 0.7) == pytest.approx(1.0, rel=1e-15)
        assert fbm_covariance(2.0, 2.0, 0.7) == pytest.approx(
            2.0**1.4, rel=1e-15
        )

    def test_zero_at_origin(self):
        assert fbm_covariance(1.5, 0.0, 0.3) == 0.0
        assert fbm_covariance(0.0, 0.0, 0.3) == 0.0

    def test_half_roughness_is_brownian(self):
        # alpha = 1/2 collapses to cov(t, s) = min(t, s) on the half line
        assert fbm_covariance(2.0, 3.0, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_symmetric(self):
        a = fbm_covariance(0.3, 0.8, 0.6)
        b = fbm_covariance(0.8, 0.3, 0.6)
        assert a == b

    def test_planar_points(self):
        v = fbm_covariance([1.0, 0.0], [0.0, 1.0], 0.5)
        # |t| = |s| = 1, |t - s| = sqrt(2)
        assert v == pytest.approx(0.5 * (2.0 - math.sqrt(2.0)), rel=1e-14)

    def test_roughness_range(self):
        with pytest.raises(InvalidArgumentError):
            fbm_covariance(1.0, 2.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            fbm_covariance(1.0, 2.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            FieldSpec(1.2)


class TestCanonicalMetric:
    def test_euclidean_power(self):
        spec = FieldSpec(0.5, domain_dim=2)
        assert canonical_metric(spec, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(5.0), rel=1e-15
        )

    def test_matches_increment_variance(self):
        spec = FieldSpec(0.7)
        t, s = 0.9, 0.2
        var = (
            fbm_covariance(t, t, 0.7)
            + fbm_covariance(s, s, 0.7)
            - 2.0 * fbm_covariance(t, s, 0.7)
        )
        assert canonical_metric(spec, t, s) == pytest.approx(
            math.sqrt(var), rel=1e-12
        )

    @given(
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
        st.floats(0.05, 0.95),
    )
    def test_triangle_inequality(self, t, u, s, alpha):
        # x^alpha is subadditive for alpha <= 1, so this stays a metric
        spec = FieldSpec(alpha)
        lhs = canonical_metric(spec, t, s)
        rhs = canonical_metric(spec, t, u) + canonical_metric(spec, u, s)
        assert lhs <= rhs + 1e-12


class TestDrift:
    def test_zero(self):
        d = DriftSpec.zero(3)
        out = d.evaluate(np.array([[0.5], [1.0]]))
        assert out.shape == (2, 3)
        assert not out.any()
        np.testing.assert_array_equal(d.evaluate([[1.0]]) - d.evaluate([[0.0]]), np.zeros((1, 3)))

    def test_constant(self):
        d = DriftSpec.constant([2.0, -1.0])
        out = d.evaluate(np.array([[0.1], [0.9]]))
        np.testing.assert_array_equal(out, [[2.0, -1.0], [2.0, -1.0]])
        # constant drift cancels in increments exactly
        np.testing.assert_array_equal(d.evaluate([[0.9]]) - d.evaluate([[0.1]]), [[0.0, 0.0]])

    def test_power(self):
        d = DriftSpec.power([2.0, 0.0], 1.5)
        np.testing.assert_allclose(
            d.evaluate(np.array([[4.0]])), [[16.0, 0.0]], rtol=1e-15
        )

    def test_polynomial(self):
        d = DriftSpec.polynomial([[1.0, 2.0]])
        np.testing.assert_allclose(d.evaluate(np.array([[3.0]])), [[7.0]])
        np.testing.assert_allclose(d.evaluate([[3.0]]) - d.evaluate([[1.0]]), [[4.0]])

    def test_polynomial_needs_line_domain(self):
        d = DriftSpec.polynomial([[0.0, 1.0]])
        with pytest.raises(InvalidArgumentError):
            d.evaluate(np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DriftSpec.polynomial([]),
            lambda: DriftSpec.polynomial([[]]),
            lambda: DriftSpec("polynomial", ((1.0, 2.0), ())),
            lambda: DriftSpec("zero", ((),)),
            lambda: DriftSpec("constant", ((),)),
            lambda: DriftSpec("power", ((),), 1.0),
        ],
    )
    def test_an_empty_row_is_refused(self, make):
        # an empty polynomial row was a zero drift the kernels did not
        # recognise, and an empty constant or power row an IndexError
        with pytest.raises(InvalidArgumentError, match="^drift coordinate rows must be nonempty$"):
            make()

    @pytest.mark.parametrize("kind", ["zero", "constant", "power"])
    def test_a_row_of_more_than_one_value_is_refused(self, kind):
        # a constant drift dropped the 2.0 without a word
        with pytest.raises(InvalidArgumentError, match=rf"^a {kind} drift takes one coefficient"):
            DriftSpec(kind, ((1.0,), (1.0, 2.0)), 1.0)


class TestSampling:
    def test_zero_at_origin_exactly(self):
        for method in ("cholesky", "fft"):
            path = sample(FieldSpec(0.5, range_dim=2), GRID, Seed(3), method=method)
            assert path.values[0, 0] == 0.0
            assert path.values[0, 1] == 0.0

    def test_same_seed_bitwise(self):
        a = sample(FieldSpec(0.4), GRID, Seed(9), method="fft")
        b = sample(FieldSpec(0.4), GRID, Seed(9), method="fft")
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = sample(FieldSpec(0.4), GRID, Seed(9))
        b = sample(FieldSpec(0.4), GRID, Seed(10))
        assert np.any(a.values != b.values)

    def test_fft_requires_uniform_grid(self):
        pts = np.array([[0.0], [0.3], [1.0]])
        with pytest.raises(InvalidArgumentError):
            sample(FieldSpec(0.5), pts, Seed(1), method="fft")

    def test_replica_matches_direct_substream(self):
        seed = Seed(21)
        many = sample_many(FieldSpec(0.6), GRID, seed, 3)
        solo = sample(FieldSpec(0.6), GRID, seed.replica(2))
        np.testing.assert_array_equal(many[2].values, solo.values)
        assert np.any(many[0].values != many[1].values)

    @pytest.mark.parametrize("method", ["cholesky", "fft"])
    def test_endpoint_variance(self, method):
        # Var X(1) = 1 for every roughness; 4000 replicas put the sample
        # variance well inside [0.9, 1.1]
        pts = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
        paths = sample_many(FieldSpec(0.7), pts, Seed(5), 4000, method=method)
        ends = np.array([p.values[-1, 0] for p in paths])
        assert np.var(ends) == pytest.approx(1.0, abs=0.1)
        assert abs(np.mean(ends)) < 0.05

    @pytest.mark.parametrize("n, alpha", [(1, 0.5), (1, 0.3), (2, 0.7), (3, 0.4)])
    def test_cholesky_factor_matches_norm_covariance(self, n, alpha):
        # the covariance from a (k, k, n) np.linalg.norm, factored by an
        # unjittered dpotrf: the running-sum covariance has the same bits
        from scipy.linalg.lapack import dpotrf

        pts = np.random.default_rng(n).random((300, n)) + 0.01
        h2 = 2.0 * alpha
        sn = np.linalg.norm(pts, axis=1) ** h2
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) ** h2
        cov = 0.5 * (sn[:, None] + sn[None, :] - dist)
        low, info = dpotrf(cov + 0.0 * np.eye(len(pts)), lower=1)
        assert info == 0
        sampler = fields._Sampler(FieldSpec(alpha, domain_dim=n), pts, "cholesky")
        assert np.array_equal(sampler.factor, np.tril(low))

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_jittered_factor_is_the_scheduled_one(self, alpha):
        # near-coincident points, 1e-15 apart: plain dpotrf fails on their
        # covariance, and the sampler's factor is LAPACK's on cov + jitter * I
        # under the documented schedule
        pts = (0.5 + np.arange(12) * 1e-15)[:, None]
        assert len(np.unique(pts)) == 12
        h2 = 2.0 * alpha
        sn = np.linalg.norm(pts, axis=1) ** h2
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) ** h2
        expected, jitter = scheduled_factor(0.5 * (sn[:, None] + sn[None, :] - dist))
        assert jitter > 0 and expected is not None
        sampler = fields._Sampler(FieldSpec(alpha), pts, "cholesky")
        assert sampler.factor.flags.c_contiguous
        assert np.array_equal(sampler.factor, expected)

    def test_increment_variance_tracks_metric(self):
        spec = FieldSpec(0.3)
        pts = np.array([[0.0], [0.25], [1.0]])
        paths = sample_many(spec, pts, Seed(8), 4000, method="cholesky")
        incs = np.array([p.values[1, 0] - p.values[2, 0] for p in paths])
        target = canonical_metric(spec, 0.25, 1.0) ** 2
        assert np.var(incs) == pytest.approx(target, rel=0.1)


class TestFftGrid:
    """fft takes exactly linspace(0, t_max, k), k >= 2 and t_max > 0, as
    _mesh_axes recognises it bit for bit; "auto" takes fft there from 256
    points."""

    @staticmethod
    def method(points, method="auto", alpha=0.5):
        return fields._Sampler(FieldSpec(alpha), points, method).method

    @pytest.mark.parametrize("k", [256, 300, 1000, 4096, 2**14])
    def test_auto_takes_fft_on_linspace_and_arange_grids(self, k):
        assert self.method(np.linspace(0.0, 1.0, k)[:, None]) == "fft"
        assert self.method((np.arange(k) * (1.0 / k))[:, None]) == "fft"
        assert self.method((np.arange(k) * 2.0**-10)[:, None]) == "fft"
        assert self.method(fields._mesh_points(k, 1, 3.0)) == "fft"

    def test_quick_start_sample_keeps_its_bytes(self):
        # the README quick start; the digest is of the values under the
        # 1e-12 uniformity test this rule replaced
        pts = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
        path = sample(FieldSpec(alpha=0.5), pts, Seed(7))
        assert hashlib.sha256(path.values.tobytes()).hexdigest() == (
            "9d9e7b965b398919d76c1b710862423bdcb82d879e195e0e8881efa33c85aa41"
        )

    @pytest.mark.parametrize(
        "d, digest",
        [
            (2, "ae40a2a13b79f68a35bf197878ccdef5b515c7ebf27e1d9600448473d2370c4f"),
            (3, "7cdcfc330571e34f7359eca546a44294323d24aef713451f8ba65bc2edaaa563"),
        ],
    )
    def test_quick_start_sample_keeps_its_bytes_in_d_coordinates(self, d, digest):
        # coordinate i takes the i-th block of 2m normals from the stream
        path = sample(FieldSpec(0.5, 1, d), np.linspace(0.0, 1.0, 2**13), Seed(7))
        assert hashlib.sha256(path.values.tobytes()).hexdigest() == digest

    def test_replicas_keep_their_bytes(self):
        pts = np.arange(4096)[:, None] * 2.0**-10
        paths = sample_many(FieldSpec(0.3, 1, 2), pts, Seed(11), 3)
        values = np.concatenate([p.values for p in paths])
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "32a74b6479ea1bbd78782d31883778c6d3d43fc304846741cefa0b7efb1a4dc9"
        )

    def test_two_point_draw_keeps_its_bytes(self):
        # m = 1: the embedding has no conjugate half
        path = sample(FieldSpec(0.5, 1, 2), np.linspace(0.0, 1.0, 2), Seed(5), method="fft")
        assert hashlib.sha256(path.values.tobytes()).hexdigest() == (
            "e28b53af8d78dc2c771f8032ec0642c7678fbe06b9b2e35896d9a8a8d00759f9"
        )

    def test_cli_simulate_keeps_its_bytes(self, capsys):
        assert cli.main(["--seed", "7", "simulate", "--alpha", "0.5", "--points", "4096"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# config_hash=11ed0014132b ")
        rows = out.split("\n", 1)[1]
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "50ab410182f6a498ec4104d8c82f8ae799c594e95b6bbaa6a261aa74f4091d95"
        )

    @pytest.mark.parametrize(
        "points, auto",
        [
            (np.linspace(0.0, -1.0, 256)[:, None], "cholesky"),
            (np.array([[0.0]]), "increments"),
            (fields._mesh_points(256, 2, 1.0), "cholesky"),
        ],
        ids=["negative-t-max", "one-point", "square-mesh"],
    )
    def test_never_fft(self, points, auto):
        # at alpha 1/2 the sorted non-negative line point takes the increments
        assert self.method(points) == auto
        assert self.method(points, alpha=0.7) == "cholesky"
        with pytest.raises(InvalidArgumentError, match="needs a uniform 1-D grid"):
            self.method(points, "fft")

    def test_grid_uniform_within_rounding_is_refused(self):
        # within 1e-12 of uniform, but not linspace(0, t_max, k) bit for bit
        t = np.concatenate([[0.0], np.cumsum(np.full(299, 0.1))])
        assert np.all(np.abs(t - t[1] * np.arange(300)) <= 1e-12 * t[-1])
        assert not np.array_equal(t, np.linspace(0.0, t[-1], 300))
        with pytest.raises(
            InvalidArgumentError, match="^the fft method needs a uniform 1-D grid starting at 0$"
        ):
            self.method(t[:, None], "fft")
        assert self.method(t[:, None]) == "increments"
        assert self.method(t[:, None], alpha=0.7) == "cholesky"


class TestFftWork:
    """One eigenvalue table per grid and alpha, kept read-only, and one FFT
    call per draw over every coordinate."""

    QUICK = np.linspace(0.0, 1.0, 2**13)[:, None]
    M = 2 * (2**13 - 1)

    @staticmethod
    def spy_ffts(monkeypatch, transform=np.fft.fft):
        """The list of the input shapes of every np.fft.fft call from here
        on; ``transform`` does the work."""
        seen = []

        def spy(a, *args, **kwargs):
            seen.append(np.shape(a))
            return transform(a, *args, **kwargs)

        monkeypatch.setattr(fields.np.fft, "fft", spy)
        return seen

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_repeated_sample_makes_one_call(self, monkeypatch, d):
        fields._fgn_eigenvalues.cache_clear()
        seen = self.spy_ffts(monkeypatch)
        first = sample(FieldSpec(0.5, 1, d), self.QUICK, Seed(7))
        assert seen == [(self.M,), (d, self.M)]
        seen.clear()
        again = sample(FieldSpec(0.5, 1, d), self.QUICK, Seed(7))
        assert seen == [(d, self.M)]
        assert again.values.tobytes() == first.values.tobytes()

    def test_a_new_alpha_recomputes_its_table(self, monkeypatch):
        fields._fgn_eigenvalues.cache_clear()
        seen = self.spy_ffts(monkeypatch)
        for alpha in (0.5, 0.3, 0.3, 0.5):
            sample(FieldSpec(alpha), self.QUICK, Seed(7))
        table, draw = (self.M,), (1, self.M)
        assert seen == [table, draw, table, draw, draw, table, draw]

    def test_the_table_is_read_only(self):
        lam = fields._fgn_eigenvalues(2**13 - 1, 0.5)
        assert fields._fgn_eigenvalues(2**13 - 1, 0.5) is lam
        with pytest.raises(ValueError, match="read-only"):
            lam[0] = 1.0

    def test_a_refusal_is_not_remembered(self, monkeypatch):
        # negated eigenvalues: the embedding is refused on every call
        fields._fgn_eigenvalues.cache_clear()
        fft = np.fft.fft
        seen = self.spy_ffts(monkeypatch, lambda a: -fft(a))
        for _ in range(2):
            with pytest.raises(InvalidArgumentError, match="circulant embedding failed"):
                sample(FieldSpec(0.5), self.QUICK, Seed(7), method="fft")
        assert seen == [(self.M,), (self.M,)]
        monkeypatch.undo()
        sample(FieldSpec(0.5), self.QUICK, Seed(7), method="fft")

    def test_a_draw_holds_its_normals_and_one_complex_array(self):
        # the normals and the embedding, plus one coordinate's temporaries:
        # the transform writes over its input
        sampler = fields._Sampler(FieldSpec(0.5, 1, 3), self.QUICK, "fft")
        sampler.draw(Seed(1))  # set up the transform first
        tracemalloc.start()
        try:
            sampler.draw(Seed(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        embedding = 3 * self.M * 16
        normals, row = embedding / 2, embedding / 3
        assert peak <= normals + embedding + row, peak / embedding


class TestDriftedPaths:
    def test_add_zero_drift_is_bitwise(self, monkeypatch):
        # the zero drift is never evaluated, so no -0.0 turns into +0.0
        def no_eval(self, points):
            raise AssertionError("the zero drift was evaluated")

        monkeypatch.setattr(DriftSpec, "evaluate", no_eval)
        direct = sample(FieldSpec(0.5), GRID, Seed(2), drift=DriftSpec.zero(1))
        bare = sample(FieldSpec(0.5), GRID, Seed(2))
        assert direct.values.tobytes() == bare.values.tobytes()
        assert direct.drift == DriftSpec.zero(1)

    def test_add_constant_drift(self):
        direct = sample(FieldSpec(0.5), GRID, Seed(2), drift=DriftSpec.constant([3.0]))
        bare = sample(FieldSpec(0.5), GRID, Seed(2))
        np.testing.assert_array_equal(direct.values, bare.values + 3.0)

    def test_drift_applied_at_sample_time(self):
        # the same realization as the drift-free sample, plus the drift
        drift = DriftSpec.polynomial([[0.0, 2.0]])
        direct = sample(FieldSpec(0.5), GRID, Seed(2), drift=drift)
        bare = sample(FieldSpec(0.5), GRID, Seed(2))
        np.testing.assert_array_equal(direct.values, bare.values + drift.evaluate(GRID))
        assert direct.drift == drift

    def test_range_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            sample(FieldSpec(0.5), GRID, Seed(2), drift=DriftSpec.constant([1.0, 1.0]))


class TestCholeskyBudget:
    def test_refused_above_the_budget(self, monkeypatch):
        # GRID's origin gets value 0 without entering the factor: 32 points
        monkeypatch.setattr(fields, "_CHOLESKY_BUDGET", 48 * 32**2)
        sample(FieldSpec(0.5), GRID, Seed(1), method="cholesky")
        off_origin = np.linspace(0.5, 1.0, 33)[:, None]
        with pytest.raises(InvalidArgumentError, match="needs about 52272 bytes"):
            sample(FieldSpec(0.5), off_origin, Seed(1), method="cholesky")

    def test_refuses_two_to_the_fourteen_points(self, monkeypatch):
        # the real budget, checked before the first k x k allocation: an
        # allocation would fail the test here instead of filling memory
        def no_table(*args, **kwargs):
            raise AssertionError("k x k table allocated before the budget check")

        monkeypatch.setattr(fields.np, "zeros", no_table)
        pts = np.linspace(0.5, 1.0, 2**14)[:, None]
        with pytest.raises(InvalidArgumentError, match="cholesky on 16384 points"):
            sample(FieldSpec(0.5), pts, Seed(1), method="cholesky")


class TestSamplePoints:
    """Sample points must be pairwise distinct, compared by value."""

    @pytest.mark.parametrize(
        "points",
        [[[0.0], [0.5], [-0.0]], [[1.0], [0.25], [1.0]], [[0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]]],
    )
    def test_repeats_are_refused(self, points):
        spec = FieldSpec(0.5, domain_dim=len(points[0]))
        with pytest.raises(InvalidArgumentError, match="^points must be pairwise distinct$"):
            sample(spec, points, Seed(1))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_refused_exactly_when_unique_finds_a_repeat(self, seed, n):
        # values from a short list holding both zeros, so repeats are common
        rng = np.random.default_rng(seed)
        pts = rng.choice([-0.0, 0.0, 0.25, -1.5, 3.0], (int(rng.integers(1, 9)), n))
        spec = FieldSpec(0.5, domain_dim=n)
        if len(np.unique(pts, axis=0)) < len(pts):
            with pytest.raises(InvalidArgumentError, match="pairwise distinct"):
                fields._check_sample_points(pts, spec)
        else:
            assert np.array_equal(fields._check_sample_points(pts, spec), pts)


class TestCholeskyCovarianceCheck:
    """The sampler's covariance is symmetric by construction: it is checked
    only for values that are not finite, block by block as it is built."""

    @pytest.mark.parametrize("pts", [[[0.5], [1e200]], [[1.0, 2.0], [3.0, -1e200]]])
    def test_overflowing_points_are_refused(self, pts):
        # |s|^h2 is inf, and inf - inf NaN, in the last row block
        spec = FieldSpec(0.9, domain_dim=len(pts[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidArgumentError, match="^matrix must be finite$"):
                sample(spec, pts, Seed(1), method="cholesky")

    def test_full_matrix_check_is_not_run(self, monkeypatch):
        def full_check(m):
            raise AssertionError("full matrix check")

        monkeypatch.setattr(numerics, "_check_matrix", full_check)
        # and under the name fields would bind it to, were it imported there
        monkeypatch.setattr(fields, "_check_matrix", full_check, raising=False)
        sample(FieldSpec(0.5), GRID, Seed(1), method="cholesky")
        with pytest.raises(AssertionError, match="full matrix check"):
            numerics.cholesky_psd(np.eye(2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_samples_are_cholesky_psd_factor_times_normals(self, n):
        # the factor of the fully checked cholesky_psd on the same covariance,
        # times the seed's normals; points at the origin get 0
        pts = build_uniform_cantor(2, 1.0 / 3.0, 7).lefts(7)[:, None]
        if n == 2:
            pts = np.hstack([pts, pts[::-1]])
        spec = FieldSpec(0.7, domain_dim=n, range_dim=2)
        path = sample(spec, pts, Seed(11), method="cholesky")
        nz = np.linalg.norm(pts, axis=1) > 0
        sub = pts[nz]
        sn = np.linalg.norm(sub, axis=1) ** 1.4
        cov = 0.5 * (sn[:, None] + sn[None, :] - numerics._pair_distances(sub, sub) ** 1.4)
        z = Seed(11).generator().standard_normal((len(sub), 2))
        assert np.array_equal(path.values[nz], numerics.cholesky_psd(cov) @ z)
        assert not path.values[~nz].any()


def _txset_atoms(beta: float, level: int) -> np.ndarray:
    system = realize_explicit(build_tx_system(beta, 0.45, levels=level), level)
    return natural_measure(system, system.depth).atoms


class TestIncrements:
    """At alpha 1/2 on sorted points t_1 < ... < t_k of [0, inf), "auto"
    scales the normals cholesky draws by sqrt(t_j - t_{j-1}) and sums them
    along the points: the closed-form factor of min(s, t)."""

    CANTOR = build_uniform_cantor(2, 1.0 / 3.0, 7).lefts(7)[:, None]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["cantor", "txset"])
    def test_same_realization_as_the_dpotrf_factor(self, name, d):
        pts = self.CANTOR if name == "cantor" else _txset_atoms(0.45, 2)
        assert pts[0, 0] == 0.0
        spec = FieldSpec(0.5, range_dim=d)
        assert fields._Sampler(spec, pts, "auto").method == "increments"
        path = sample(spec, pts, Seed(11))
        sub = pts[1:]
        sn = np.abs(sub[:, 0])
        cov = 0.5 * (sn[:, None] + sn[None, :] - numerics._pair_distances(sub, sub))
        z = Seed(11).generator().standard_normal((len(sub), d))
        np.testing.assert_allclose(path.values[1:], numerics.cholesky_psd(cov) @ z, rtol=0, atol=1e-10)
        assert np.array_equal(path.values[0], np.zeros(d))

    def test_explicit_cholesky_keeps_dpotrf(self):
        path = sample(FieldSpec(0.5), self.CANTOR, Seed(11), method="cholesky")
        factor = fields._Sampler(FieldSpec(0.5), self.CANTOR, "cholesky").factor
        z = Seed(11).generator().standard_normal((len(self.CANTOR) - 1, 1))
        assert np.array_equal(path.values[1:], factor @ z)

    def test_increment_variance_tracks_metric(self):
        # Var(X(t) - X(s)) = |t - s|, and increments over disjoint
        # intervals are uncorrelated
        pts = np.array([[0.1], [0.25], [0.6], [1.0]])
        assert fields._Sampler(FieldSpec(0.5), pts, "auto").method == "increments"
        paths = sample_many(FieldSpec(0.5), pts, Seed(8), 4000)
        vals = np.array([p.values[:, 0] for p in paths])
        incs = np.diff(vals, axis=1, prepend=0.0)
        np.testing.assert_allclose(np.var(incs, axis=0), [0.1, 0.15, 0.35, 0.4], rtol=0.1)
        corr = np.corrcoef(incs.T)
        assert np.abs(corr[np.triu_indices(4, 1)]).max() < 0.05

    @pytest.mark.parametrize(
        "points, n, pick",
        [
            ([[0.0], [0.5], [1.0]], 1, "increments"),
            ([[0.5], [0.75], [2.0]], 1, "increments"),
            ([[0.0], [1.0], [0.5]], 1, "cholesky"),
            ([[-0.5], [0.5], [1.0]], 1, "cholesky"),
            ([[-1.0], [-0.5]], 1, "cholesky"),
            ([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], 2, "cholesky"),
        ],
        ids=["from-origin", "off-origin", "unsorted", "negative", "all-negative", "n=2"],
    )
    def test_pick(self, points, n, pick):
        pts = np.array(points)
        assert fields._Sampler(FieldSpec(0.5, domain_dim=n), pts, "auto").method == pick
        assert fields._Sampler(FieldSpec(0.7, domain_dim=n), pts, "auto").method == "cholesky"

    def test_not_a_public_method(self):
        with pytest.raises(InvalidArgumentError, match="^unknown method 'increments'$"):
            sample(FieldSpec(0.5), self.CANTOR, Seed(1), method="increments")

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # no BLAS call and no scipy.linalg on this path
        script = (
            "import hashlib, sys\n"
            "from packdim import FieldSpec, Seed, build_uniform_cantor, sample\n"
            "pts = build_uniform_cantor(2, 1 / 3, 11).lefts(11)\n"
            "path = sample(FieldSpec(0.5, range_dim=2), pts, Seed(3))\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "print(hashlib.sha256(path.values.tobytes()).hexdigest())\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        digests = []
        for threads in sorted({1, min(2, os.cpu_count() or 1)}):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert len(digests[0]) == 65
        assert len(set(digests)) == 1


class TestCholeskyMemory:
    def test_sample_many_holds_under_one_and_a_half_tables(self):
        # the sets-and-checks Cantor points, level 11: 2047 off the origin.
        # tracemalloc peak: 5.0 k x k float64 arrays when the covariance is
        # a new array beside the distances, 3.0 when it is built over them,
        # 1.07 when that array is also factored and transposed in place
        # (explicit cholesky: "auto" takes the increments on these points)
        pts = build_uniform_cantor(2, 1.0 / 3.0, 11).lefts(11)
        k = len(pts) - 1
        sample_many(FieldSpec(0.5), pts[:16], Seed(1), 1, method="cholesky")  # load LAPACK first
        tracemalloc.start()
        try:
            sample_many(FieldSpec(0.5), pts, Seed(1), 2, method="cholesky")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * k * k, peak / (8 * k * k)

    def test_increments_hold_no_table(self):
        # the same points under "auto": the peak is a few arrays of k
        # values, under 64 of them, where one k x k table is 2047 of them
        pts = build_uniform_cantor(2, 1.0 / 3.0, 11).lefts(11)
        k = len(pts) - 1
        tracemalloc.start()
        try:
            sample_many(FieldSpec(0.5), pts, Seed(1), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 8 * k, peak / (8 * k)


class TestMeshPoints:
    @pytest.mark.parametrize("count, n", [(1, 1), (65, 1), (300, 2), (70, 3), (3, 2)])
    def test_regular_grid(self, count, n):
        pts = fields._mesh_points(count, n, 2.0)
        per_axis = count if n == 1 else max(2, round(count ** (1.0 / n)))
        assert pts.shape == (per_axis**n, n)
        axis = np.linspace(0.0, 2.0, per_axis)
        # rows in ij order: the last coordinate varies fastest
        np.testing.assert_array_equal(pts[:per_axis, -1], axis)
        np.testing.assert_array_equal(pts[:: per_axis ** (n - 1), 0], axis)


class TestPathViews:
    def test_graph_points_shape(self):
        path = sample(FieldSpec(0.5, range_dim=2), GRID, Seed(4))
        g = graph_points(path)
        assert g.shape == (33, 3)
        np.testing.assert_array_equal(g[:, :1], GRID)
        np.testing.assert_array_equal(g[:, 1:], path.values)

    def test_image_measure(self):
        path = sample(FieldSpec(0.5), GRID, Seed(4))
        mu = image_measure(path)
        np.testing.assert_array_equal(mu.atoms, path.values)
        np.testing.assert_array_equal(mu.weights, np.full(33, 1.0 / 33.0))

    def test_graph_measure(self):
        path = sample(FieldSpec(0.5), GRID, Seed(4))
        mu = graph_measure(path)
        np.testing.assert_array_equal(mu.atoms, graph_points(path))
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
