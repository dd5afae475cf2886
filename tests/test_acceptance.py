"""Acceptance suite: one test per criterion, run at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.  Criteria 1-6 and 8 are quantitative; criterion 7 pins
the qualitative trend checks that replace the apparatus-bound numbers.
"""

import math
import time

import numpy as np
import pytest

from ionqsim.bloch import (DrivePulse, Z_PLUS, born_probability, evolve,
                           state_from_angles)
from ionqsim.channels import (depolarizing, phase_damping,
                              tomography_exact, tomography_sampled)
from ionqsim.constants import YB171
from ionqsim.estimation import (bayes_update, estimate_state, mean_fidelity_experiment,
                                optimal_fidelity_bound, optimal_next_direction,
                                uniform_prior)
from ionqsim.ionchain import (TrapConfig, field_for_chi, ground_state_width,
                              length_scale, required_gradient, spacing_estimate,
                              spin_spin_couplings)
from ionqsim.sphere import SphereGrid
from ionqsim.zeno import (run_length_distribution, run_length_ratio,
                          simulate_alternating, simulate_fractionated_pi,
                          survival_probability)
from oracles import expected_mean_fidelity
from test_channels import random_physical_channel
from test_cli import read_artifact
from ionqsim.cli import run as cli_run

NU1 = 2 * math.pi * 100e3
GRID = SphereGrid.build(64)

TABLE_1_HZ = {
    (2, 1): 54.61,
    (3, 1): 41.36, (3, 2): 48.12,
    (4, 1): 34.15, (4, 2): 38.89, (4, 3): 44.74,
    (5, 1): 29.40, (5, 2): 33.17, (5, 3): 37.44, (5, 4): 43.04,
    (6, 1): 25.92, (6, 2): 29.09, (6, 3): 32.55, (6, 4): 36.77, (6, 5): 42.52,
    (7, 1): 23.19, (7, 2): 25.93, (7, 3): 28.88, (7, 4): 32.35, (7, 5): 36.77,
    (7, 6): 43.04,
    (8, 1): 20.92, (8, 2): 23.33, (8, 3): 25.90, (8, 4): 28.88, (8, 5): 32.55,
    (8, 6): 37.44, (8, 7): 44.74,
    (9, 1): 18.93, (9, 2): 21.07, (9, 3): 23.33, (9, 4): 25.93, (9, 5): 29.09,
    (9, 6): 33.17, (9, 7): 38.89, (9, 8): 48.12,
    (10, 1): 17.04, (10, 2): 18.93, (10, 3): 20.92, (10, 4): 23.19, (10, 5): 25.92,
    (10, 6): 29.40, (10, 7): 34.15, (10, 8): 41.36, (10, 9): 54.61,
}


def report(number, name, detail=""):
    print(f"ACCEPTANCE {number}: {name}: PASS {detail}".rstrip())


def test_criterion_1_table_one_reproduction():
    start = time.perf_counter()
    trap = TrapConfig(nu1=NU1, n_ions=10, b=25.0)
    _, coupling = spin_spin_couplings(YB171, trap)
    elapsed = time.perf_counter() - start
    j_hz = coupling.in_hz()
    worst = 0.0
    for (i, j), value in TABLE_1_HZ.items():
        rel = abs(j_hz[i - 1, j - 1] - value) / value
        worst = max(worst, rel)
        assert rel < 0.01, f"J[{i},{j}] = {j_hz[i-1, j-1]:.2f} Hz vs table {value}"
    assert elapsed < 1.0
    report(1, "Table-1 spin-spin couplings",
           f"(45 entries, worst {100 * worst:.2f}% rel, {elapsed * 1e3:.0f} ms)")


def test_criterion_2_addressing_checkpoints():
    zeta = length_scale(YB171, NU1)
    dz = spacing_estimate(10, zeta)
    assert dz == pytest.approx(7e-6, rel=0.05)
    b_min = required_gradient(YB171, NU1, 10)
    assert b_min == pytest.approx(10.0, rel=0.10)
    dz1 = ground_state_width(YB171, NU1)
    assert dz1 == pytest.approx(17e-9, rel=0.03)
    b_chi = field_for_chi(YB171, 1.0)
    assert b_chi == pytest.approx(0.45, rel=0.02)
    report(2, "addressing checkpoints",
           f"(dz={dz * 1e6:.2f} um, b_min={b_min:.2f} T/m, "
           f"dz1={dz1 * 1e9:.2f} nm, B(chi=1)={b_chi:.3f} T)")


def test_criterion_3_zeno_analytic_suite():
    start = time.perf_counter()
    sequences = 10_000
    for k, n in enumerate((1, 2, 3, 4, 10)):
        freq, _ = simulate_fractionated_pi(n, sequences, seed=300 + k)
        p = survival_probability(math.pi / n, n)
        sigma = math.sqrt(p * (1 - p) / sequences)
        assert abs(freq - p) <= 4 * sigma + 1e-12, f"N={n}: {freq} vs {p}"
        if n == 10:
            # paper anchor: corrected experimental survival was 77% from
            # 200 sequences; stay within twice that binomial spread
            paper_sigma = math.sqrt(p * (1 - p) / 200)
            assert abs(freq - 0.77) < 2 * paper_sigma
            assert abs(p - 0.77) < 2 * paper_sigma

    for theta in (math.pi, math.pi / 2, math.pi / 5):
        results = simulate_alternating(theta, 10**6, seed=int(theta * 1000))
        dist, _ = run_length_distribution(results)
        total_runs = len(np.flatnonzero(np.diff(results)))
        p = math.cos(theta / 2) ** 2
        for q in range(2, 11):
            theory = p ** (q - 1)
            ratio = run_length_ratio(dist, q)
            n_q = dist.get(q, 0.0) * total_runs
            n_1 = dist[1] * total_runs
            if theory == 0.0:
                assert ratio == 0.0
                continue
            sigma = theory * math.sqrt(1.0 / max(n_q, 1.0) + 1.0 / n_1)
            assert abs(ratio - theory) <= 3 * sigma, (theta, q, ratio, theory)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "Zeno analytic suite",
           f"(5 fractionations x 1e4 sequences, 3 run-length laws x 1e6 pairs, "
           f"{elapsed:.1f} s)")


def test_criterion_4_estimation_analytics():
    prior = uniform_prior(GRID)
    fbar1 = expected_mean_fidelity(prior, Z_PLUS)
    assert fbar1 == pytest.approx(2.0 / 3.0, abs=2e-3)

    post_z = bayes_update(prior, Z_PLUS, +1)
    for alpha in np.linspace(0.0, math.pi, 10):
        m = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        closed_form = 0.5 + math.cos(alpha / 2 - math.pi / 4) / math.sqrt(18.0)
        assert expected_mean_fidelity(post_z, m) == pytest.approx(closed_form, abs=5e-3)

    m2 = optimal_next_direction(post_z)
    assert abs(float(m2 @ Z_PLUS)) < 0.05

    x = np.array([1.0, 0.0, 0.0])
    post_zx = bayes_update(post_z, x, +1)
    m3 = optimal_next_direction(post_zx)
    assert abs(float(m3 @ Z_PLUS)) < 0.05
    assert abs(float(m3 @ x)) < 0.05
    fbar3 = expected_mean_fidelity(post_zx, m3)
    assert fbar3 == pytest.approx(0.5 + 1.0 / math.sqrt(12.0), abs=5e-3)
    report(4, "estimation analytic suite",
           f"(Fbar1={fbar1:.6f}, Fbar2 law at 10 angles, Fbar3={fbar3:.6f}, "
           f"orthogonality to {max(abs(float(m2 @ Z_PLUS)), abs(float(m3 @ x))):.3f})")


def test_criterion_5_estimation_monte_carlo():
    start = time.perf_counter()
    self_mean, self_err, _ = mean_fidelity_experiment(1000, 12, "self_learning", seed=501)
    rand_mean, rand_err, _ = mean_fidelity_experiment(1000, 12, "random", seed=501)
    assert abs(self_mean - 0.925) <= 0.015, self_mean
    assert abs(rand_mean - 0.910) <= 0.015, rand_mean
    sigma_diff = math.hypot(self_err, rand_err)
    assert self_mean - rand_mean >= 2 * sigma_diff

    for n in range(1, 13):
        for strategy in ("self_learning", "random"):
            mean, stderr, _ = mean_fidelity_experiment(300, n, strategy, seed=600 + n)
            bound = optimal_fidelity_bound(n)
            assert mean <= bound + 3 * stderr, (strategy, n, mean, bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, "estimation Monte Carlo",
           f"(self {self_mean:.4f}+-{self_err:.4f}, random {rand_mean:.4f}+-"
           f"{rand_err:.4f}, separation {(self_mean - rand_mean) / sigma_diff:.1f} sigma, "
           f"bound respected for N=1..12, {elapsed:.0f} s)")


def test_criterion_6_channel_tomography():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(100):
        original = random_physical_channel(rng)
        rebuilt = tomography_exact(original)
        worst = max(worst, float(np.max(np.abs(rebuilt.m - original.m))),
                    float(np.max(np.abs(rebuilt.v - original.v))))
    assert worst < 1e-10

    shots = 10_000
    for target in (depolarizing(0.0), phase_damping(0.2, state_from_angles(1.0)),
                   random_physical_channel(rng)):
        estimate, _, _ = tomography_sampled(target, shots, seed=62)
        for row, i in enumerate("xyz"):
            probs = {j: 0.5 * (1.0 + float(target(_prep(j))
                                           @ np.eye(3)[row])) for j in ("x", "y", "z", "-z")}
            var = {j: p * (1 - p) / shots for j, p in probs.items()}
            var_z = var["z"] + var["-z"]
            assert abs(estimate.v[row] - (probs["z"] + probs["-z"] - 1.0)) \
                <= 5 * math.sqrt(var_z) + 1e-9
            for col, j in enumerate("xyz"):
                want = 2 * probs[j] - probs["z"] - probs["-z"]
                sigma = math.sqrt(var_z if j == "z" else 4 * var[j] + var_z)
                assert abs(estimate.m[row, col] - want) <= 5 * sigma + 1e-9

    axis = state_from_angles(1.0, 0.0)
    for lam in (0.05, 0.15, 0.25, 0.35, 0.45):
        rebuilt = tomography_exact(phase_damping(lam, axis))
        assert np.max(np.abs(rebuilt.v)) < 1e-10
        eigvals, eigvecs = np.linalg.eigh(rebuilt.m)
        np.testing.assert_allclose(eigvals, [1 - 2 * lam, 1 - 2 * lam, 1.0], atol=1e-10)
        principal = eigvecs[:, 2]
        assert abs(abs(float(principal @ axis)) - 1.0) < 1e-10
    report(6, "channel tomography",
           f"(100 exact reconstructions, worst |err| {worst:.1e}; sampled at 1e4 shots "
           "within 5 sigma/entry; phase-damping structure recovered for 5 lambdas)")


def _prep(label):
    base = {"x": [1.0, 0, 0], "y": [0, 1.0, 0], "z": [0, 0, 1.0], "-z": [0, 0, -1.0]}
    return np.array(base[label])


def test_criterion_7_trend_anchors():
    # apparatus-bound numbers (85.0%/81.9%, dB-calibrated sweep) are out
    # of quantitative reach; their trends are pinned instead
    means = []
    for lam in (0.0, 0.1, 0.2):
        mean, _, _ = mean_fidelity_experiment(
            300, 12, "self_learning", depolarizing(lam), seed=701)
        means.append(mean)
    assert means[0] > means[1] > means[2], means

    transverse = []
    for lam in np.linspace(0.0, 0.45, 10):
        rebuilt = tomography_exact(phase_damping(lam, state_from_angles(1.0)))
        transverse.append(np.sort(np.linalg.eigvalsh(rebuilt.m))[0])
    assert all(a > b for a, b in zip(transverse, transverse[1:]))
    report(7, "experimental trend anchors",
           f"(mean fidelity falls {means[0]:.3f} -> {means[2]:.3f} with depolarization; "
           "damped channel eigenvalue falls monotonically)")


def test_criterion_8_property_suites(tmp_path):
    start = time.perf_counter()

    # bloch: unitarity, fixed-axis composition, Born consistency
    rng = np.random.default_rng(81)
    for _ in range(200):
        z, phi = rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi)
        r = math.sqrt(1 - z * z)
        s = np.array([r * math.cos(phi), r * math.sin(phi), z])
        pulse = DrivePulse(rabi=rng.uniform(0, 5), detuning=rng.uniform(-5, 5),
                           duration=rng.uniform(0, 5), phase=rng.uniform(0, 2 * math.pi))
        out = evolve(s, pulse)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        half_a = DrivePulse(pulse.rabi, pulse.detuning, 0.4 * pulse.duration, pulse.phase)
        half_b = DrivePulse(pulse.rabi, pulse.detuning, 0.6 * pulse.duration, pulse.phase)
        np.testing.assert_allclose(evolve(evolve(s, half_a), half_b), out, atol=1e-10)
        m = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        total = born_probability(out, m) + born_probability(out, -m)
        assert abs(total - 1.0) < 1e-12

    # estimator: normalization, argmax invariance, rotational covariance
    from ionqsim.estimation import SphereDistribution, random_direction
    from ionqsim.sphere import rotate
    dist = uniform_prior(GRID)
    updates = [(random_direction(rng.random(2)), int(rng.choice([-1, 1]))) for _ in range(6)]
    for m, o in updates:
        dist = bayes_update(dist, m, o)
        assert dist.integral == pytest.approx(1.0, abs=1e-9)
    scaled = SphereDistribution(dist.grid, dist.values * 3.7)
    np.testing.assert_allclose(estimate_state(dist)[0], estimate_state(scaled)[0],
                               atol=1e-14)
    rot = rotate(np.eye(3), random_direction(rng.random(2)), rng.uniform(0, 2 * math.pi)).T
    dist_r = uniform_prior(GRID)
    for m, o in updates:
        dist_r = bayes_update(dist_r, rot @ m, o)
    np.testing.assert_allclose(estimate_state(dist_r)[0], rot @ estimate_state(dist)[0],
                               atol=1e-9)

    # ionchain: equilibrium gradient, mode orthogonality, J symmetry, b^2 law
    from ionqsim.ionchain import equilibrium_positions, normal_modes
    u = equilibrium_positions(10)
    for k in range(10):
        d = u[k] - np.delete(u, k)
        assert abs(u[k] - np.sum(np.sign(d) / d**2)) < 1e-12
    modes = normal_modes(u, NU1)
    np.testing.assert_allclose(modes.s_matrix @ modes.s_matrix.T, np.eye(10), atol=1e-10)
    _, j1 = spin_spin_couplings(YB171, TrapConfig(nu1=NU1, n_ions=6, b=10.0))
    _, j2 = spin_spin_couplings(YB171, TrapConfig(nu1=NU1, n_ions=6, b=20.0))
    np.testing.assert_allclose(j1.j, j1.j.T, atol=1e-12)
    mask = ~np.eye(6, dtype=bool)
    np.testing.assert_allclose(j2.j[mask] / j1.j[mask], 4.0, rtol=1e-12)

    # CLI determinism
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["zeno", "--fractions", "4", "--sequences", "100", "--seed", "3"]
    assert cli_run(argv + ["--out", str(a)]) == 0
    assert cli_run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta, _, _ = read_artifact(a)
    assert meta["seed"] == "3"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, "property suites", f"({elapsed:.1f} s, headless)")
