"""Acceptance gauntlet: one test per headline claim, at stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure); the pass/fail verdict is the test outcome itself.  Configurations
are frozen: seeds, grids, and replica counts below are part of the contract,
chosen so every run reproduces the same numbers bit for bit where the
computation is deterministic and well inside tolerance where it is sampled.
"""

import math

import numpy as np
import pytest

from packdim import (
    DiscreteMeasure,
    DriftSpec,
    FieldSpec,
    KernelContext,
    Regime,
    ScaleGrid,
    Seed,
    ball_mass,
    box_counting_dim,
    build_tx_system,
    build_uniform_cantor,
    check_doubling,
    check_gaussian_interval_bound,
    check_graph_expectation_bound,
    check_parts,
    dim_field,
    dim_profile,
    expected_ball_mass,
    extract_subsystem,
    graph_lower,
    graph_points,
    increment_prob,
    natural_measure,
    predict_graph_upper,
    predict_image,
    profile_kernel,
    sample,
    sample_many,
    slice_kernel,
    solve_crossing,
)


def random_regimes(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 1 + i % 2
        alpha = float(rng.uniform(0.05, min(0.95, 0.98 / d)))
        beta = float(rng.uniform(0.05, 0.95))
        yield Regime(alpha, d, beta)


def test_criterion_01_kernel_chain():
    """ball mass <= truncated-power kernel <= sliced product kernel."""
    rng = np.random.default_rng(11)
    worst = np.inf
    violations = 0
    for i in range(10_000):
        d = 1 + i % 3
        n = int(rng.integers(1, 17))
        atoms = rng.normal(0.0, 1.0, (n, d))
        w = rng.random(n)
        mu = DiscreteMeasure(atoms, w / w.sum())
        x = rng.normal(0.0, 1.0, d)
        r = float(2.0 ** rng.uniform(-6, 1))
        lo = ball_mass(mu, x, r)
        mid = profile_kernel(mu, float(d), x, r)
        hi = slice_kernel(mu, 0, d, x, r)
        slack = min(mid - lo, hi - mid)
        worst = min(worst, slack)
        if slack < -1e-12:
            violations += 1
    assert violations == 0
    assert worst >= -1e-12
    print(f"criterion 1 PASS: kernel chain, 10^4 trials, worst slack {worst:.2e}")


def test_criterion_02_doubling_bound():
    rng = np.random.default_rng(2)
    worst = 0.0
    violations = 0
    for i in range(1000):
        d = 1 + i % 2
        n = int(rng.integers(4, 49))
        atoms = rng.normal(0.0, 1.0, (n, d))
        w = rng.random(n)
        nu = DiscreteMeasure(atoms, w / w.sum())
        r = float(2.0 ** rng.uniform(-6, 0))
        lam = rng.uniform(1.0, 8.0, d)
        M = float(rng.uniform(1.5, 32.0))
        rep = check_doubling(nu, r, lam, M)
        violations += rep.violations
        worst = max(worst, rep.worst_ratio)
    assert violations == 0
    assert worst < 1.0
    print(f"criterion 2 PASS: doubling bound, 1000 measures, worst ratio {worst:.3f}")


def test_criterion_03_integration_by_parts():
    rng = np.random.default_rng(13)
    tolerance = {1: 1e-6, 2: 1e-4}
    worst = {1: 0.0, 2: 0.0}
    for d in (1, 2):
        for _ in range(20):
            n = int(rng.integers(1, 33))
            atoms = rng.random((n, d)) * 2.0
            w = rng.random(n)
            mu = DiscreteMeasure(atoms, w / w.sum())
            for f_name in ("exp", "gauss"):
                rep = check_parts(mu, f_name)
                assert rep.violations == 0
                worst[d] = max(worst[d], rep.worst_ratio)
        assert worst[d] <= tolerance[d]
    print(
        "criterion 3 PASS: parts identity, rel err "
        f"d=1 {worst[1]:.1e}, d=2 {worst[2]:.1e}"
    )


def test_criterion_04_gaussian_interval_scan():
    sups = []
    for beta in (0.3, 0.5, 0.7):
        rep = check_gaussian_interval_bound(beta)
        assert rep.passed
        assert rep.worst_ratio <= 8.0
        assert rep.details["stable"]  # sup moves < 10% when the grid doubles
        cm = rep.details["case_maxima"]
        assert cm["rho=0"] <= 1.0
        assert cm["I"] <= 2.0
        assert cm["II"] <= 2.0
        assert cm["III"] <= 4.0
        assert cm["IV"] <= 8.0
        sups.append(rep.worst_ratio)
    print(f"criterion 4 PASS: interval-bound scan, sup ratio {max(sups):.3f} <= 8")


def test_criterion_05_increment_law():
    pts = np.linspace(0.0, 1.0, 65).reshape(-1, 1)
    worst_var, worst_corr = 0.0, 0.0
    for alpha in (0.3, 0.5, 0.7):
        spec = FieldSpec(alpha, 1, 2)
        paths = sample_many(spec, pts, Seed(int(alpha * 10)), 10_000)
        inc = np.array([p.values[48] - p.values[16] for p in paths])
        target = 0.5 ** (2.0 * alpha)
        rel = np.abs(inc.var(axis=0) / target - 1.0).max()
        corr = abs(np.corrcoef(inc[:, 0], inc[:, 1])[0, 1])
        assert rel <= 0.05
        assert corr <= 0.05
        worst_var, worst_corr = max(worst_var, rel), max(worst_corr, corr)
    print(
        "criterion 5 PASS: increment variance rel err "
        f"{worst_var:.3f}, cross-corr {worst_corr:.3f}"
    )


def test_criterion_06_image_dimension_critical():
    # alpha*d = 1: the box count carries a log correction, so the limsup
    # reading (tail-max) is the right discretization; an OLS chord of the
    # concave log-log table lands near 1.53 and cannot reach the band.
    pts = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
    spec = FieldSpec(0.5, 1, 2)
    paths = sample_many(spec, pts, Seed(6), 8)
    grid = ScaleGrid(4, 9, 2.0)
    vals = [
        box_counting_dim(p.values, grid, connect=True, method="tail-max").value
        for p in paths
    ]
    mean = float(np.mean(vals))
    predicted = predict_image(Regime(0.5, 2, 1.0))
    assert predicted == 2.0
    assert mean == pytest.approx(2.0, abs=0.25)
    print(f"criterion 6 PASS: image box dimension mean {mean:.4f} in 2.0 +- 0.25")


def test_criterion_07_graph_dimension():
    pts = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
    spec = FieldSpec(0.5, 1, 1)
    paths = sample_many(spec, pts, Seed(7), 8)
    grid = ScaleGrid(4, 9, 2.0)
    box = float(np.mean([
        box_counting_dim(graph_points(p), grid, connect=True).value for p in paths
    ]))
    assert box == pytest.approx(1.5, abs=0.15)

    n = 2**12
    atoms = ((np.arange(n) + 0.5) / n).reshape(-1, 1)
    mu = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
    ctx = KernelContext(FieldSpec(0.5, 1, 1), None, mu, "graph")
    kern = dim_field(ctx, ScaleGrid(2, 7, 2.0)).value
    assert kern == pytest.approx(1.5, abs=0.1)
    print(f"criterion 7 PASS: graph dimension box {box:.4f}, kernel {kern:.4f}")


def test_criterion_08_profile_consistency():
    system = build_uniform_cantor(2, 1.0 / 16.0, 6)
    mu = natural_measure(system, 6)
    grid = ScaleGrid(2, 13, 2.0)
    via_profile = 2.0 * dim_profile(mu, 0.5, grid).value
    ctx = KernelContext(FieldSpec(0.5, 1, 1), None, mu, "image")
    via_field = dim_field(ctx, grid).value
    predicted = predict_image(Regime(0.5, 1, 0.25))
    assert predicted == 0.5
    assert abs(via_profile - via_field) <= 0.1
    assert via_profile == pytest.approx(0.5, abs=0.15)
    assert via_field == pytest.approx(0.5, abs=0.15)
    print(
        "criterion 8 PASS: profile route "
        f"{via_profile:.4f} vs kernel route {via_field:.4f}"
    )


def test_criterion_09_two_scale_combinatorics():
    tx = build_tx_system(0.5, 0.25, 12)
    eta = [math.fsum(tx.logm[:k]) / tx.H[k - 1] for k in range(1, 13)]
    delta = [math.fsum(tx.logm[:k]) / tx.L[k] for k in range(1, 12)]
    # tail-window reading: the finest third of the levels
    eta_dev = max(abs(eta[k - 1] - 0.5) for k in range(9, 13))
    delta_max = max(delta[k - 1] for k in range(9, 12))
    assert eta_dev <= 0.05
    assert delta_max <= 0.05
    print(
        "criterion 9 PASS: eta-scale ratio dev "
        f"{eta_dev:.2e}, delta-scale ratio {delta_max:.2e}"
    )


def test_criterion_10_crossing_identity():
    worst = 0.0
    for reg in random_regimes(17, 100):
        x_star, value = solve_crossing(reg)
        worst = max(worst, abs(value - graph_lower(reg)))
    assert worst <= 1e-9

    x_star, value = solve_crossing(Regime(0.5, 1, 0.5))
    assert x_star == pytest.approx(8.0 / 3.0, rel=1e-9)
    assert value == pytest.approx(0.75, rel=1e-9)
    x_star, value = solve_crossing(Regime(0.4, 2, 0.9))
    assert x_star == pytest.approx(125.0 / 11.0, rel=1e-9)
    assert value == pytest.approx(1.98, rel=1e-9)
    print(f"criterion 10 PASS: solver vs closed form, worst gap {worst:.1e}")


def test_criterion_11_strict_sharpness_gap():
    margin = np.inf
    for reg in random_regimes(17, 100):
        gap = predict_graph_upper(reg) - graph_lower(reg)
        assert gap > 0.0
        margin = min(margin, gap)
    print(f"criterion 11 PASS: lower < upper on 100 regimes, min margin {margin:.5f}")


def test_criterion_12_drift_invariance():
    rng = np.random.default_rng(12)
    n = 64
    atoms = rng.random((n, 1))
    mu = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
    spec = FieldSpec(0.5, 1, 2)
    shift = DriftSpec.constant([3.25, -1.5])
    plain = KernelContext(spec, None, mu, "image")
    moved = KernelContext(spec, shift, mu, "image")
    for _ in range(50):
        t, s = rng.random(), rng.random()
        r = float(2.0 ** rng.uniform(-8, 0))
        assert increment_prob(plain, t, s, r) == increment_prob(moved, t, s, r)
        assert expected_ball_mass(plain, t, r) == expected_ball_mass(moved, t, r)
    grid = ScaleGrid(2, 5, 2.0)
    for mode in ("image", "graph"):
        a = dim_field(KernelContext(spec, None, mu, mode), grid)
        b = dim_field(KernelContext(spec, shift, mu, mode), grid)
        assert a.value == b.value

    pts = np.linspace(0.0, 1.0, 33).reshape(-1, 1)
    bare = sample(spec, pts, Seed(5))
    zeroed = sample(spec, pts, Seed(5), drift=DriftSpec.zero(2))
    assert np.array_equal(bare.values, zeroed.values)
    print("criterion 12 PASS: constant drift cancels bitwise, zero drift exact")


def test_criterion_13_graph_expectation_bound():
    base = build_uniform_cantor(2, 1.0 / 3.0, 12)
    sub = extract_subsystem(base, 0.3, 2.0 / 3.0)
    field = FieldSpec(0.5, 1, 1)
    rep = check_graph_expectation_bound(sub, field)
    assert rep.passed
    assert len(rep.details["levels"]) >= 3
    assert all(r <= 8.0 for r in rep.details["level_ratios"])
    fine = check_graph_expectation_bound(sub, field, refine=1)
    drift = max(
        abs(a - b) / a
        for a, b in zip(rep.details["level_ratios"], fine.details["level_ratios"])
    )
    assert drift <= 0.10
    print(
        "criterion 13 PASS: graph-ball ratios "
        f"max {max(rep.details['level_ratios']):.3f} <= 8, refine drift {drift:.4f}"
    )
