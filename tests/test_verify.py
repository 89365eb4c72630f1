"""Numeric witnesses for the measure-theoretic lemmas: doubling bounds,
integration by parts, the Gaussian interval bound, and the graph
expected-mass bound on extracted subsystems."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_measure
from packdim import verify
from packdim import (
    DepthExhaustedError,
    DiscreteMeasure,
    FieldSpec,
    InvalidArgumentError,
    build_uniform_cantor,
    check_doubling,
    check_gaussian_interval_bound,
    check_graph_expectation_bound,
    check_parts,
    check_scale_doubling,
    extract_subsystem,
    natural_measure,
    rect_mass,
)


def line_measure(*positions, weights=None):
    atoms = np.asarray(positions, float).reshape(-1, 1)
    if weights is None:
        weights = np.full(len(atoms), 1.0 / len(atoms))
    return DiscreteMeasure(atoms, np.asarray(weights, float))


class TestCheckDoubling:
    def test_point_mass(self):
        rep = check_doubling(line_measure(0.5), 0.25, [4.0], 2.0)
        assert rep.passed
        assert rep.worst_ratio == 0.0

    def test_exact_boundary_is_inside(self):
        # the second atom sits at distance exactly r from the first; closed
        # boxes count it, so neither atom doubles its mass and the
        # exceptional set is empty
        rep = check_doubling(line_measure(0.25, 0.375), 0.125, [2.0], 2.0)
        assert rep.violations == 0
        assert rep.worst_ratio == 0.0

    def test_one_ulp_outside_flips_the_verdict(self):
        # nudging the atom one representable float outward empties the small
        # box; the comparison is exact, so the single-ulp change is seen
        nudged = np.nextafter(0.375, 1.0)
        rep = check_doubling(line_measure(0.25, nudged), 0.125, [2.0], 2.0)
        assert rep.violations == 0  # the bound itself still holds
        assert rep.worst_ratio == 0.25

    def test_random_measures_never_violate(self, rng):
        # the 4^d lambda / M envelope is a theorem, not a tendency
        for _ in range(40):
            dim = 1 + int(rng.integers(2))
            mu = random_measure(rng, dim)
            lam = rng.uniform(1.0, 8.0, size=dim)
            rep = check_doubling(mu, float(rng.uniform(0.05, 1.0)), lam, 4.0)
            assert rep.passed

    def test_validation(self):
        mu = line_measure(0.5)
        with pytest.raises(InvalidArgumentError):
            check_doubling(mu, 0.25, [0.5], 2.0)
        with pytest.raises(InvalidArgumentError):
            check_doubling(mu, -1.0, [2.0], 2.0)
        with pytest.raises(InvalidArgumentError):
            check_doubling(mu, 0.25, [2.0], 0.5)

    @pytest.mark.parametrize(
        "r, lam, M",
        [
            (math.inf, 2.0, 2.0),
            (0.25, math.inf, 2.0),
            (0.25, math.nan, 2.0),
            (0.25, 2.0, math.inf),
        ],
        ids=["r-inf", "lambda-inf", "lambda-nan", "M-inf"],
    )
    def test_non_finite_scalars_are_refused(self, r, lam, M):
        # the exact integer form has no inf or NaN
        with pytest.raises(InvalidArgumentError):
            check_doubling(line_measure(0.5), r, [lam], M)


def doubling_reference(nu, r, lambdas, M):
    """check_doubling as a loop over atom pairs in exact Fractions: the
    mass of the atoms whose closed (lambda r)-box holds at least M times
    the mass of their closed r-box, against 4^d lambda_1 ... lambda_d / M."""
    atoms = [[Fraction(c) for c in row] for row in nu.atoms.tolist()]
    weights = [Fraction(w) for w in nu.weights.tolist()]
    lam = [Fraction(v) for v in np.atleast_1d(np.asarray(lambdas, dtype=float)).tolist()]
    small_h = [Fraction(r)] * nu.dim
    big_h = [v * Fraction(r) for v in lam]

    def box(center, h):
        return sum(
            (w for p, w in zip(atoms, weights)
             if all(abs(pj - cj) <= hj for pj, cj, hj in zip(p, center, h))),
            Fraction(0),
        )

    lhs = sum(
        (w for x, w in zip(atoms, weights) if box(x, big_h) >= Fraction(M) * box(x, small_h)),
        Fraction(0),
    )
    bound = 4**nu.dim * math.prod(lam) / Fraction(M)
    ratio = float(lhs / bound)
    witness = f"lhs={lhs} bound_ratio={ratio!r}" if lhs > bound else ""
    return nu.count, int(lhs > bound), ratio.hex(), witness


def doubling_cases():
    """Random measures at d = 1, 2 and 3, and lattices of pitch r/2 whose
    atoms sit at distances of exactly r and lambda r, some of them nudged
    one ulp outward or inward."""
    rng = np.random.default_rng(32)
    for dim in (1, 2, 3):
        for _ in range(6):
            mu = random_measure(rng, dim, max_atoms=24, spread=0.5)
            lam = rng.choice([1.0, 1.5, 2.0, 3.0], size=dim)
            yield mu, float(rng.uniform(0.05, 1.0)), lam, float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        side = {1: 16, 2: 5, 3: 3}[dim]
        grid = np.stack(np.meshgrid(*[np.arange(side) / 16.0] * dim, indexing="ij"), -1)
        atoms = grid.reshape(-1, dim)
        nudged = atoms.copy()
        nudged[::3] = np.nextafter(nudged[::3], 1.0)
        nudged[1::3] = np.nextafter(nudged[1::3], -1.0)
        w = rng.random(len(atoms)) + 0.1
        for pts in (atoms, nudged):
            nu = DiscreteMeasure(pts, w / w.sum())
            for lam, M in ((1.0, 1.0), (2.0, 2.0), (1.5, 1.5), (2.0, 4.0)):
                yield nu, 0.125, [lam] * dim, M


def report_bits(rep):
    details = {k: v.hex() if isinstance(v, float) else v for k, v in rep.details.items()}
    return rep.trials, rep.violations, rep.worst_ratio.hex(), rep.witness, details


class TestDoublingAgainstFractions:
    def test_matches_the_exact_pair_loop(self):
        seen = set()
        for nu, r, lam, M in doubling_cases():
            rep = check_doubling(nu, r, lam, M)
            assert report_bits(rep)[:4] == doubling_reference(nu, r, lam, M)
            assert rep.details == {}
            seen.add((nu.dim, rep.worst_ratio > 0))
        # every dimension has cases with and without exceptional atoms
        assert seen == {(d, hit) for d in (1, 2, 3) for hit in (False, True)}

    def test_block_boundaries_keep_the_reports(self, monkeypatch):
        # one row per block puts a block boundary between every two atoms
        rng = np.random.default_rng(7)
        calls = [(check_doubling, (nu, r, lam, M)) for nu, r, lam, M in doubling_cases()]
        # concentrated at 0, with many exceptional atoms, and random
        xs = 2.0 ** -np.arange(14.0)
        ws = 2.0 ** -(np.arange(14.0) ** 2 / 4.0)
        measures = [DiscreteMeasure(xs.reshape(-1, 1), ws / ws.sum())]
        for dim in (1, 2, 3):
            w = rng.random(50) + 0.05
            measures.append(DiscreteMeasure(rng.random((50, dim)), w / w.sum()))
        calls += [(check_scale_doubling, (nu, 0.4, 0.2, 0.5, 6, (1.0, 1.5, 3.0))) for nu in measures]
        grid = np.arange(256, dtype=float)[:, None] / 256.0
        uniform = DiscreteMeasure(grid, np.full(256, 1.0 / 256))
        calls.append((check_scale_doubling, (uniform, 0.5, 0.5, 0.125)))
        blocked = [report_bits(check(*args)) for check, args in calls]
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1)
        assert [report_bits(check(*args)) for check, args in calls] == blocked


def test_doubling_on_the_line_reads_the_runs(monkeypatch):
    # d = 1 weighs runs of sorted keys; d >= 2 keeps the box table
    dims = []
    real = verify._box_masses
    monkeypatch.setattr(verify, "_box_masses", lambda keys, *rest: dims.append(keys.shape[1]) or real(keys, *rest))
    for nu, r, lam, M in doubling_cases():
        check_doubling(nu, r, lam, M)
    assert set(dims) == {2, 3}


def scale_doubling_reference(nu, a, eps, r0, n_scales, h_multipliers):
    """check_scale_doubling as a loop of rect_mass calls, one per box."""
    mult = np.asarray(h_multipliers, dtype=float)
    combos = np.stack(np.meshgrid(*([mult] * nu.dim), indexing="ij"), axis=-1).reshape(-1, nu.dim)
    scales = r0 * 2.0 ** -np.arange(1, n_scales + 1, dtype=float)
    worst, mass, atoms, trials = 0.0, 0.0, 0, 0
    for i in range(nu.count):
        x = nu.atoms[i]
        violated = False
        for si, r in enumerate(scales, start=1):
            base = rect_mass(nu, x, r)
            for h in combos * r**a:
                trials += 1
                lhs = rect_mass(nu, x, h)
                rhs = base * float(np.prod((4.0 * h / r) ** (1.0 + eps)))
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
                violated |= lhs > rhs * (1.0 + 1e-12) and si >= n_scales - 1
        if violated:
            atoms += 1
            mass += nu.weights[i]
    return trials, atoms, worst, mass


class TestCheckScaleDoubling:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    def test_matches_rect_mass_loop(self, dim):
        if dim == 0:
            # concentrated at 0: exceptional atoms and a large worst ratio
            xs = 2.0 ** -np.arange(14.0)
            ws = 2.0 ** -(np.arange(14.0) ** 2 / 4.0)
            nu = DiscreteMeasure(xs.reshape(-1, 1), ws / ws.sum())
        else:
            rng = np.random.default_rng(dim)
            w = rng.random(60) + 0.05
            nu = DiscreteMeasure(rng.random((60, dim)), w / w.sum())
        args = (nu, 0.4, 0.2, 0.5, 6, (1.0, 1.5, 3.0))
        rep = check_scale_doubling(*args)
        trials, atoms, worst, mass = scale_doubling_reference(*args)
        assert (rep.trials, rep.violations, rep.details["exceptional_mass"]) == (trials, atoms, mass)
        # a box's mass is summed in another order than rect_mass sums it; two
        # sums of n positive terms differ by at most 2 (n - 1) units in the
        # last place, relative, and a ratio of two such sums by twice that
        assert rep.worst_ratio == pytest.approx(worst, rel=4 * nu.count * 2.0**-53)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dyadic_weights_match_rect_mass_loop_bit_for_bit(self, dim):
        # weights k / 2^10 summing to 1: every box mass is an exact sum
        rng = np.random.default_rng(dim)
        cuts = np.sort(rng.choice(np.arange(1, 1024), 59, replace=False))
        w = np.diff(np.concatenate([[0], cuts, [1024]])) / 1024.0
        nu = DiscreteMeasure(rng.random((60, dim)), w)
        args = (nu, 0.4, 0.2, 0.5, 6, (1.0, 1.5, 3.0))
        rep = check_scale_doubling(*args)
        assert (rep.trials, rep.violations, rep.worst_ratio, rep.details["exceptional_mass"]) == (
            scale_doubling_reference(*args)
        )

    def test_default_grid_keeps_its_report(self):
        # the 256-atom grid of verify --check all, weights 2^-8
        grid = np.arange(256, dtype=float)[:, None] / 256.0
        rep = check_scale_doubling(DiscreteMeasure(grid, np.full(256, 1.0 / 256)), 0.5, 0.5, 0.125)
        assert (rep.trials, rep.violations, rep.worst_ratio.hex()) == (10240, 0, "0x1.f45d1745d1746p-5")
        assert rep.details == {"exceptional_mass": 0.0, "r0": 0.125}

    def test_point_mass(self):
        rep = check_scale_doubling(line_measure(0.5), 0.5, 0.5, 0.125, n_scales=4)
        assert rep.passed

    def test_uniform_grid_has_no_exceptional_atoms(self):
        n = 256
        mu = line_measure(*((np.arange(n) + 0.5) / n))
        rep = check_scale_doubling(mu, 0.5, 0.5, 0.125, n_scales=6)
        assert rep.violations == 0
        assert rep.details["exceptional_mass"] == 0.0
        assert rep.worst_ratio < 1.0

    def test_self_similar_measures_pass(self):
        mu = natural_measure(build_uniform_cantor(3, 0.2, 4), 4)
        for r0 in (0.5, 0.25, 0.125):
            rep = check_scale_doubling(mu, 0.5, 0.5, r0, n_scales=5)
            assert rep.violations == 0

    def test_exceptional_atoms_carry_negligible_mass(self):
        # superpolynomial concentration at 0 breaks the pointwise inequality
        # badly, but only on atoms whose total mass is vanishing; that the
        # failure set is tiny (not absent) is the content of the lemma
        xs = 2.0 ** -np.arange(14.0)
        ws = 2.0 ** -(np.arange(14.0) ** 2 / 4.0)
        mu = DiscreteMeasure(xs.reshape(-1, 1), ws / ws.sum())
        rep = check_scale_doubling(mu, 0.5, 0.5, 0.125, n_scales=6)
        assert rep.violations > 0
        assert rep.worst_ratio > 10.0
        assert rep.details["exceptional_mass"] < 1e-4

    def test_validation(self):
        mu = line_measure(0.5)
        with pytest.raises(InvalidArgumentError):
            check_scale_doubling(mu, 1.5, 0.5, 0.125)
        with pytest.raises(InvalidArgumentError):
            check_scale_doubling(mu, 0.5, 0.0, 0.125)
        with pytest.raises(InvalidArgumentError):
            check_scale_doubling(mu, 0.5, 0.5, 0.75)
        with pytest.raises(InvalidArgumentError):
            check_scale_doubling(mu, 0.5, 0.5, 0.125, h_multipliers=(0.5,))

    def test_oversize_scans_are_refused_by_name(self, monkeypatch):
        # d = 8 with the default four multipliers and 10 scales: 655370
        # boxes, 1.3e9 mask entries in one row of 256 atoms; refused before
        # any table is built
        nu = DiscreteMeasure(np.random.default_rng(1).random((256, 8)), np.full(256, 2.0**-8))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentError) as info:
                check_scale_doubling(nu, 0.5, 0.5, 0.125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "the scan weighs 655370 boxes around 256 atoms in 8 coordinates, "
            "1342197760 mask entries a row; at most 67108864 are supported"
        )
        assert peak < 2**20
        # the scan of verify --check all holds 50 x 256 entries a row
        grid = DiscreteMeasure(np.arange(256, dtype=float)[:, None] / 256.0, np.full(256, 2.0**-8))
        monkeypatch.setattr(verify, "_SCAN_ENTRIES", 50 * 256)
        assert check_scale_doubling(grid, 0.5, 0.5, 0.125).passed
        monkeypatch.setattr(verify, "_SCAN_ENTRIES", 50 * 256 - 1)
        with pytest.raises(InvalidArgumentError, match="the scan weighs 50 boxes around 256 atoms"):
            check_scale_doubling(grid, 0.5, 0.5, 0.125)

    @pytest.mark.parametrize(
        "eps, mult", [(0.5, (1.0, math.nan)), (math.inf, (1.0,))], ids=["nan-multiplier", "eps-inf"]
    )
    def test_non_finite_scalars_are_refused(self, eps, mult):
        # either would report a vacuous pass
        with pytest.raises(InvalidArgumentError):
            check_scale_doubling(line_measure(0.5), 0.5, eps, 0.125, h_multipliers=mult)


class TestCheckParts:
    def test_two_atoms_exp(self):
        rep = check_parts(line_measure(1.0, 2.0), "exp")
        assert rep.passed
        assert rep.worst_ratio < 1e-12

    def test_atom_at_origin(self):
        rep = check_parts(line_measure(0.0, 1.0), "exp")
        assert rep.passed

    def test_planar_gauss(self):
        mu = DiscreteMeasure(
            np.array([[0.5, 0.5], [1.5, 0.25]]), np.array([0.5, 0.5])
        )
        rep = check_parts(mu, "gauss")
        assert rep.passed

    def test_random_measures_meet_advertised_tolerance(self, rng):
        for _ in range(20):
            dim = 1 + int(rng.integers(2))
            mu = random_measure(rng, dim, max_atoms=12)
            shifted = DiscreteMeasure(np.abs(mu.atoms), mu.weights)
            for f_name in ("exp", "gauss"):
                rep = check_parts(shifted, f_name)
                assert rep.passed, (f_name, rep.worst_ratio)

    @pytest.mark.parametrize(
        "dim, f_name, expected",
        [
            (1, "exp", "0x1.0788bb43ad07fp-52"),
            (1, "gauss", "0x1.0179d4f913eccp-52"),
            (2, "exp", "0x1.94c9c1b9f730fp-53"),
            (2, "gauss", "0x1.b622e6fd116a8p-51"),
        ],
    )
    def test_pinned_worst_ratio(self, dim, f_name, expected):
        # the roundoff of the two sides, kept bit for bit
        if dim == 1:
            mu = line_measure(0.0, 0.5, 1.25, 3.0)
        else:
            mu = DiscreteMeasure(
                np.array([[0.5, 0.75], [1.5, 0.25], [0.0, 2.0], [3.25, 1.125]]),
                np.array([0.125, 0.5, 0.25, 0.125]),
            )
        assert check_parts(mu, f_name).worst_ratio.hex() == expected

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            check_parts(line_measure(1.0), "cube")
        with pytest.raises(InvalidArgumentError):
            check_parts(line_measure(-1.0, 1.0), "exp")
        big = DiscreteMeasure(
            np.arange(40, dtype=float).reshape(-1, 1), np.full(40, 1.0 / 40.0)
        )
        with pytest.raises(InvalidArgumentError):
            check_parts(big, "exp")


class TestGaussianIntervalBound:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_sup_below_envelope(self, beta):
        rep = check_gaussian_interval_bound(beta)
        assert rep.passed
        assert rep.worst_ratio <= 0.91
        assert rep.details["stable"]

    def test_case_maxima_respect_proof_constants(self):
        rep = check_gaussian_interval_bound(0.5)
        cm = rep.details["case_maxima"]
        assert cm["rho=0"] <= 1.0
        assert cm["I"] <= 2.0
        assert cm["II"] <= 2.0
        assert cm["III"] <= 4.0
        assert cm["IV"] <= 8.0

    @pytest.mark.parametrize(
        "beta, sups, maxima",
        [
            (
                0.3,
                ("0x1.ca9803fbececap-1", "0x1.cf849fa8dd099p-1"),
                ("0x1.bea2209e63fe3p-2", "0x1.b211d986cecffp-1", "0x1.cf849fa8dd099p-1",
                 "0x1.73228fa028921p-1", "0x1.c8758ed53d1c4p-2"),
            ),
            (
                0.5,
                ("0x1.995f38c7cf0f6p-1", "0x1.a03f969f87350p-1"),
                ("0x1.d7031a225d26cp-2", "0x1.4acb890b0ebadp-1", "0x1.a03f969f87350p-1",
                 "0x1.7a5b798deb8b8p-1", "0x1.d2fb720ac7b89p-2"),
            ),
            (
                0.7,
                ("0x1.88e8271dc7ba7p-1", "0x1.8d9228a71925ap-1"),
                ("0x1.a839c27f16cbap-2", "0x1.32a023f04f2b3p-1", "0x1.8d9228a71925ap-1",
                 "0x1.8d5fac6dce94cp-1", "0x1.de0013798f0a4p-2"),
            ),
        ],
    )
    def test_pinned_details(self, beta, sups, maxima):
        rep = check_gaussian_interval_bound(beta)
        d = rep.details
        assert (rep.trials, rep.violations, d["stable"]) == (130248, 0, True)
        assert (d["sup_coarse"].hex(), d["sup_fine"].hex()) == sups
        assert list(d["case_maxima"]) == ["rho=0", "I", "II", "III", "IV"]
        assert tuple(v.hex() for v in d["case_maxima"].values()) == maxima

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            check_gaussian_interval_bound(1.0)


class TestGraphExpectationBound:
    def canonical(self, levels=12):
        base = build_uniform_cantor(2, 1.0 / 3.0, levels)
        return extract_subsystem(base, 0.3, 2.0 / 3.0)

    def test_bounded_on_all_usable_levels(self):
        rep = check_graph_expectation_bound(self.canonical(), FieldSpec(0.5, 1, 1))
        assert rep.passed
        assert rep.details["levels"] == [2, 3, 4]
        assert all(r <= 1.5 for r in rep.details["level_ratios"])

    def test_stable_under_refinement(self):
        sub = self.canonical()
        field = FieldSpec(0.5, 1, 1)
        base = check_graph_expectation_bound(sub, field).worst_ratio
        fine = check_graph_expectation_bound(sub, field, refine=1).worst_ratio
        assert abs(fine - base) / base < 0.01

    @pytest.mark.parametrize(
        "refine, expected",
        [
            (0, ["0x1.cf105afd56de4p-1", "0x1.1850308a92897p+0", "0x1.deeaac76cc44dp-1"]),
            (1, ["0x1.cf11566127aa3p-1", "0x1.185240d0cda11p+0", "0x1.dfd44970c28eap-1"]),
        ],
    )
    def test_pinned_level_ratios(self, refine, expected):
        rep = check_graph_expectation_bound(self.canonical(), FieldSpec(0.5, 1, 1), refine=refine)
        assert [r.hex() for r in rep.details["level_ratios"]] == expected

    def test_shallow_subsystem_exhausts(self):
        shallow = extract_subsystem(
            build_uniform_cantor(2, 1.0 / 3.0, 3), 0.3, 2.0 / 3.0
        )
        with pytest.raises(DepthExhaustedError):
            check_graph_expectation_bound(shallow, FieldSpec(0.5, 1, 1))

    def test_theta_must_match_field(self):
        # theta = 2/3 is the exponent for alpha = 1/2, d = 1 only
        with pytest.raises(InvalidArgumentError):
            check_graph_expectation_bound(self.canonical(), FieldSpec(0.4, 1, 1))

    def test_supercritical_field_rejected(self):
        with pytest.raises(InvalidArgumentError):
            check_graph_expectation_bound(self.canonical(), FieldSpec(0.5, 1, 2))
