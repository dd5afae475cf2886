import math
import tracemalloc

import numpy as np
import pytest

from ionqsim.bloch import BLOCK, DetectionModel, detect
from ionqsim.zeno import (corrected_survival,
                          net_transition_probability, run_length_distribution,
                          run_length_ratio, simulate_alternating,
                          simulate_fractionated_pi, survival_probability)


class TestSurvivalProbability:
    def test_single_pi_pulse(self):
        assert survival_probability(math.pi, 1) == pytest.approx(0.0, abs=1e-12)

    def test_direct_values(self):
        assert survival_probability(math.pi / 2, 2) == pytest.approx(0.25, abs=1e-12)
        # cos^20(pi/20) = 0.780546...
        assert survival_probability(math.pi / 10, 10) == pytest.approx(
            0.7805460697811405, abs=1e-12)

    def test_near_paper_anchor(self):
        # the corrected experimental value for N=10 was 77%
        assert abs(survival_probability(math.pi / 10, 10) - 0.77) < 0.02

    def test_monotone_decreasing_in_q(self):
        values = [survival_probability(1.0, q) for q in range(0, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            survival_probability(1.0, -1)


class TestNetTransitionProbability:
    def test_full_pi_pulse(self):
        assert net_transition_probability(math.pi, 1) == pytest.approx(1.0, abs=1e-12)

    def test_differs_from_selective_survival_at_small_n(self):
        # net survival 0.5 vs selective survival 0.25 at N=2
        p_e1 = net_transition_probability(math.pi, 2)
        assert p_e1 == pytest.approx(0.5, abs=1e-12)
        assert survival_probability(math.pi / 2, 2) == pytest.approx(0.25, abs=1e-12)

    def test_vanishes_monotonically_for_many_fractions(self):
        values = [net_transition_probability(math.pi, n) for n in range(1, 1001)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_selective_below_net_survival(self):
        for n in range(2, 11):
            p00 = survival_probability(math.pi / n, n)
            p_e0 = 1.0 - net_transition_probability(math.pi, n)
            assert p00 < p_e0

    def test_zeno_freezing(self):
        values = [survival_probability(math.pi / n, n) for n in range(1, 101)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert survival_probability(math.pi / 780, 780) > 0.99


class TestFractionatedPi:
    def test_single_fraction_never_survives(self):
        freq, records = simulate_fractionated_pi(1, 500, seed=1)
        assert freq == 0.0
        assert records.shape == (500, 1)
        assert records.all()   # every probe sees "on"

    @pytest.mark.parametrize("n,sequences", [(2, 5000), (3, 5000), (4, 5000), (10, 2000)])
    def test_matches_analytic_survival(self, n, sequences):
        freq, _ = simulate_fractionated_pi(n, sequences, seed=100 + n)
        p = survival_probability(math.pi / n, n)
        sigma = math.sqrt(p * (1 - p) / sequences)
        assert abs(freq - p) < 4 * sigma

    def test_small_run_against_theory(self):
        # 2000/N sequences as in the lab protocol
        freq, _ = simulate_fractionated_pi(10, 200, seed=7)
        p = 0.7805460697811405
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / 200)

    def test_n4_value(self):
        # cos^8(pi/8) = 0.53079... by direct evaluation
        freq, _ = simulate_fractionated_pi(4, 20000, seed=3)
        p = math.cos(math.pi / 8) ** 8
        assert p == pytest.approx(0.5307900429449552, abs=1e-12)
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / 20000)

    def test_bit_reproducible(self):
        losses = {"detection": DetectionModel.from_counts(5.3, 0.2, 0), "prep_efficiency": 0.82}
        f1, r1 = simulate_fractionated_pi(5, 300, 99, **losses)
        f2, r2 = simulate_fractionated_pi(5, 300, 99, **losses)
        assert f1 == f2
        assert np.array_equal(r1, r2)

    def test_correction_recovers_ideal(self):
        losses = {"detection": DetectionModel(0.98, 0.995), "prep_efficiency": 0.9}
        raw, _ = simulate_fractionated_pi(4, 20000, 11, **losses)
        ideal = survival_probability(math.pi / 4, 4)
        # residual bias from neglected false-"off" reads stays below 0.03
        assert abs(corrected_survival(raw, 4, **losses) - ideal) < 0.03
        assert abs(raw - ideal) > 0.05   # the correction actually does something

    def test_config_validation(self):
        with pytest.raises(ValueError):
            simulate_fractionated_pi(0, 10, seed=0)
        with pytest.raises(ValueError):
            simulate_fractionated_pi(2, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_fractionated_pi(2, 10, seed=0, prep_efficiency=0.0)
        with pytest.raises(ValueError):
            corrected_survival(0.5, 0)
        with pytest.raises(ValueError):
            corrected_survival(0.5, 2, prep_efficiency=0.0)

    @pytest.mark.parametrize("raw, n, losses", [
        (0.5, 2, {"prep_efficiency": 5e-324}),
        (1.0, 1, {"prep_efficiency": 1e-310}),
        # eta0^n underflows to zero
        (0.5, 2000, {"detection": DetectionModel(0.5, 1.0), "prep_efficiency": 0.9}),
    ])
    def test_correction_that_overflows_is_numerical(self, raw, n, losses):
        with pytest.raises(OverflowError, match="prep_efficiency"):
            corrected_survival(raw, n, **losses)

    def test_correction_of_zero_stays_zero_at_tiny_efficiency(self):
        assert corrected_survival(0.0, 2, prep_efficiency=5e-324) == 0.0
        assert corrected_survival(5e-324, 1, prep_efficiency=0.5) == 1e-323


class TestAlternating:
    def test_full_rotation_gives_constant_off(self):
        results = simulate_alternating(2 * math.pi, 2000, seed=4)
        assert not results.any()

    def test_pi_pulse_gives_strict_alternation(self):
        results = simulate_alternating(math.pi, 2000, seed=5)
        assert results[0]           # first probe sees the flipped state
        assert (results[1:] != results[:-1]).all()

    def test_bit_reproducible(self):
        a = simulate_alternating(0.7, 1000, seed=42)
        b = simulate_alternating(0.7, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_trajectory_length(self):
        results = simulate_alternating(0.3, 123, seed=0)
        assert results.shape == (123,) and results.dtype == bool


class TestRunLengths:
    def test_alternating_trajectory(self):
        results = simulate_alternating(math.pi, 500, seed=6)
        assert run_length_distribution(results) == ({1: 1.0}, 499)

    def test_theta_half_pi_ratio(self):
        results = simulate_alternating(math.pi / 2, 200_000, seed=8)
        dist, _ = run_length_distribution(results)
        assert run_length_ratio(dist, 2) == pytest.approx(0.5, abs=0.01)

    def test_theta_pi_fifth_matches_survival_law(self):
        results = simulate_alternating(math.pi / 5, 10**6, seed=9)
        dist, _ = run_length_distribution(results)
        total_runs = len(np.flatnonzero(np.diff(results)))
        p = math.cos(math.pi / 10) ** 2
        for q in range(2, 11):
            ratio = run_length_ratio(dist, q)
            theory = p ** (q - 1)
            n_q = dist.get(q, 0.0) * total_runs
            n_1 = dist[1] * total_runs
            sigma = theory * math.sqrt(1.0 / n_q + 1.0 / n_1)
            assert abs(ratio - theory) < 3 * sigma

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            run_length_distribution(np.array([], dtype=bool))

    def test_constant_trajectory_has_no_complete_runs(self):
        results = simulate_alternating(2 * math.pi, 100, seed=10)
        assert run_length_distribution(results) == ({}, 0)

    @pytest.mark.parametrize("theta, pairs", [(0.0, 1000), (0.628318, 1)])
    def test_ratio_without_runs_of_length_one_is_numerical(self, theta, pairs):
        # no drive never leaves |0>, and one result ends no run: U(1) = 0
        dist, total = run_length_distribution(simulate_alternating(theta, pairs, seed=1))
        assert (dist, total) == ({}, 0)
        with pytest.raises(FloatingPointError, match="no complete run of length 1"):
            run_length_ratio(dist, 1)

    def test_distribution_normalized(self):
        results = simulate_alternating(1.0, 50_000, seed=12)
        dist, _ = run_length_distribution(results)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def whole_array_detect(true_on, model, rng):
    """Reference read-out: every draw made in one whole-array call."""
    if model.eta0 == 1.0 and model.eta1 == 1.0:
        return true_on.copy()
    return rng.random(true_on.shape) < np.where(true_on, model.eta1, 1.0 - model.eta0)


def whole_array_runs(results):
    """Reference run-length histogram built from full-length arrays."""
    boundaries = np.flatnonzero(results[1:] != results[:-1])
    run_lengths = np.diff(np.concatenate([[-1], boundaries]))
    if run_lengths.size == 0:
        return {}, 0
    counts = np.bincount(run_lengths)
    total = run_lengths.size
    return {int(q): counts[q] / total for q in range(1, counts.size) if counts[q] > 0}, total


READOUTS = [DetectionModel(), DetectionModel(0.97, 0.95),
            DetectionModel.from_counts(5.3, 0.2, 1)]
LENGTHS = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


class TestStreamedDraws:
    """Block-wise draws reproduce the whole-array formulas bit for bit."""

    @pytest.mark.parametrize("model", READOUTS)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_alternating(self, length, model):
        rng = np.random.default_rng(length)
        flips = rng.random(length) < math.sin(0.5 * 0.628318) ** 2
        expected = whole_array_detect(np.cumsum(flips) % 2 == 1, model, rng)
        results = simulate_alternating(0.628318, length, seed=length, detection=model)
        assert np.array_equal(results, expected)
        dist, total = whole_array_runs(expected)
        assert run_length_distribution(results) == (dist, total)

    @pytest.mark.parametrize("model", READOUTS)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_fractionated(self, length, model):
        n, seq = 3, length // 3 + 1
        rng = np.random.default_rng(length)
        prepared_wrong = rng.random(seq) >= 0.9
        flips = rng.random((seq, n)) < math.sin(0.5 * math.pi / n) ** 2
        true_on = (prepared_wrong[:, None].astype(np.int64) + np.cumsum(flips, axis=1)) % 2 == 1
        expected = whole_array_detect(true_on, model, rng)
        survival, records = simulate_fractionated_pi(n, seq, length, detection=model,
                                                     prep_efficiency=0.9)
        assert np.array_equal(records, expected)
        assert survival == float(np.mean(~expected.any(axis=1)))

    @pytest.mark.parametrize("model", READOUTS)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_detect(self, length, model):
        true_on = np.random.default_rng(1).random((length, 2)) < 0.4
        expected = whole_array_detect(true_on, model, np.random.default_rng(2))
        assert np.array_equal(detect(true_on, model, np.random.default_rng(2)), expected)

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.05, 0.07, 0.096, 0.12, 0.5, 1.0])
    def test_plain_and_padded_change_scans(self, density):
        # sparse and dense change flags (np.flatnonzero scans those at most
        # a tenth set with memchr), runs carried across block edges, and a
        # short last block
        rng = np.random.default_rng(int(1000 * density))
        results = np.logical_xor.accumulate(rng.random(2 * BLOCK + 11) < density)
        assert run_length_distribution(results) == whole_array_runs(results)

    def test_run_spanning_blocks(self):
        results = np.zeros(3 * BLOCK + 7, dtype=bool)
        results[5:2 * BLOCK + 3] = True     # one run across two block edges
        results[2 * BLOCK + 10] = True
        dist, total = whole_array_runs(results)
        assert run_length_distribution(results) == (dist, total)
        assert total == 4


class TestTrajectoryMemory:
    """Streaming keeps about 2 bytes per pair: the parent held ~17 bytes."""

    @staticmethod
    def peak_bytes(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ideal_simulation_and_run_lengths(self):
        def work():
            run_length_distribution(simulate_alternating(0.628318, 10**6, seed=1))
        assert self.peak_bytes(work) < 4e6

    def test_ideal_simulation_keeps_one_record(self):
        # an ideal read-out hands back the true states, not a second copy;
        # a short run first, so one-time set-up costs are not counted
        simulate_alternating(0.628318, 10, seed=1)
        assert self.peak_bytes(lambda: simulate_alternating(0.628318, 10**6, seed=1)) < 1.8e6

    def test_poisson_readout_simulation(self):
        model = DetectionModel.from_counts(5.3, 0.2, 1)
        assert self.peak_bytes(
            lambda: simulate_alternating(0.628318, 10**6, seed=1, detection=model)) < 5e6
