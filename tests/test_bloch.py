import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from ionqsim import bloch
from ionqsim.bloch import (DetectionModel, DrivePulse, Z_PLUS,
                           born_probability, detect, evolve,
                           rabi_excitation_probability, ramsey_probability,
                           state_from_angles)
from ionqsim.estimation import run_estimation
from oracles import evolve_oracle, overlap_probability


class TestStateFromAngles:
    def test_poles_and_equator(self):
        np.testing.assert_allclose(state_from_angles(0.0, 0.0), [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(state_from_angles(math.pi / 2, 0.0), [1, 0, 0], atol=1e-15)

    def test_generic_angle(self):
        # sin(135deg)cos(45deg), sin(135deg)sin(45deg), cos(135deg)
        s = state_from_angles(3 * math.pi / 4, math.pi / 4)
        np.testing.assert_allclose(s, [0.5, 0.5, -0.7071067811865476], atol=1e-15)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (math.pi + 0.1, 0.0),
                                           (1.0, -0.1), (1.0, 2 * math.pi)])
    def test_out_of_range_rejected(self, theta, phi):
        with pytest.raises(ValueError):
            state_from_angles(theta, phi)


class TestEvolve:
    def test_resonant_pi_pulse_inverts(self):
        pulse = DrivePulse(rabi=1.0, detuning=0.0, duration=math.pi)
        np.testing.assert_allclose(evolve(Z_PLUS, pulse), [0, 0, -1], atol=1e-12)

    def test_free_precession_fixes_pole(self):
        pulse = DrivePulse(rabi=0.0, detuning=3.0, duration=1.7)
        np.testing.assert_allclose(evolve(Z_PLUS, pulse), Z_PLUS, atol=1e-15)

    def test_free_precession_sign_against_oracle(self):
        # sign convention of the frame is fixed by the 2x2 expm oracle
        delta, t = 0.9, 1.3
        pulse = DrivePulse(rabi=0.0, detuning=delta, duration=t)
        got = evolve(np.array([1.0, 0.0, 0.0]), pulse)
        want = evolve_oracle([1.0, 0.0, 0.0], 0.0, delta, t)
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got, [math.cos(delta * t), math.sin(delta * t), 0.0],
                                   atol=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            theta, phi = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            s = state_from_angles(theta, phi)
            pulse = DrivePulse(rabi=rng.uniform(0, 5), detuning=rng.uniform(-5, 5),
                               duration=rng.uniform(0, 4), phase=rng.uniform(0, 2 * math.pi))
            got = evolve(s, pulse)
            want = evolve_oracle(s, pulse.rabi, pulse.detuning, pulse.duration, pulse.phase)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            s = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            pulse = DrivePulse(rabi=rng.uniform(0, 10), detuning=rng.uniform(-10, 10),
                               duration=rng.uniform(0, 10), phase=rng.uniform(0, 2 * math.pi))
            assert abs(np.linalg.norm(evolve(s, pulse)) - 1.0) < 1e-12

    def test_semigroup_on_fixed_axis(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            rabi, det, phase = rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(0, 2 * math.pi)
            t1, t2 = rng.uniform(0, 2), rng.uniform(0, 2)
            two_step = evolve(evolve(s, DrivePulse(rabi, det, t1, phase)),
                              DrivePulse(rabi, det, t2, phase))
            one_step = evolve(s, DrivePulse(rabi, det, t1 + t2, phase))
            np.testing.assert_allclose(two_step, one_step, atol=1e-10)

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            DrivePulse(rabi=-1.0)
        with pytest.raises(ValueError):
            DrivePulse(rabi=1.0, duration=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["rabi", "detuning", "duration", "phase"])
    def test_non_finite_field_named(self, field, value):
        # a NaN or infinite field would make evolve return NaN or its input
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DrivePulse(**{"rabi": 1.0, "duration": 1.0, field: value})


class TestRabiProbability:
    def test_resonant_pulses(self):
        assert rabi_excitation_probability(1.0, 0.0, math.pi) == pytest.approx(1.0, abs=1e-12)
        assert rabi_excitation_probability(1.0, 0.0, math.pi / 2) == pytest.approx(0.5, abs=1e-12)

    def test_detuned_value(self):
        # Omega = delta: P1 = sin^2(pi/sqrt(2))/2 = 0.31661...
        got = rabi_excitation_probability(1.0, 1.0, math.pi)
        assert got == pytest.approx(0.5 * math.sin(math.pi / math.sqrt(2)) ** 2, abs=1e-14)

    def test_degenerate_limit(self):
        assert rabi_excitation_probability(0.0, 0.0, 1.0) == 0.0

    # the array cases: one overflowing Omega_R t among finite ones, and
    # Omega_R = inf at t = 0, where inf x 0 is an invalid operation
    @pytest.mark.parametrize("rabi, det, t", [(1e300, 0.0, 0.0), (1.0, 1e300, 1.0),
                                              (1e200, 0.0, 1e200),
                                              (1e150, 0.0, [0.0, 1.0, 1e200, 2.0]),
                                              (1e300, 0.0, [[0.0], [0.0]])])
    def test_overflow_raises(self, rabi, det, t):
        # Omega^2 + delta^2 or Omega_R t overflows: an error, not a NaN or a RuntimeWarning
        t = np.array(t) if np.ndim(t) else np.float64(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match="overflows a float"):
                rabi_excitation_probability(np.float64(rabi), np.float64(det), t)

    def test_array_of_times_matches_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(34)
        # Omega = delta = 0, Omega = 0, delta != 0, then random pairs; t = 0 in every scan
        cases = [(0.0, 0.0), (0.0, 3.1), (2.0, -0.7)] + [
            (rng.uniform(0, 2 * math.pi * 50e3), rng.uniform(-1, 1) * 2 * math.pi * 1e3)
            for _ in range(20)]
        for rabi, det in cases:
            times = np.concatenate([[0.0], rng.uniform(0, 5e-3, 500), rng.uniform(0, 1e3, 50)])
            batch = rabi_excitation_probability(rabi, det, times)
            assert batch.shape == times.shape
            lone = [rabi_excitation_probability(rabi, det, t) for t in times.tolist()]
            np.testing.assert_array_equal(batch, lone)
            zero_d = rabi_excitation_probability(rabi, det, np.array(times[-1]))
            assert type(zero_d) is float and all(type(p) is float for p in lone)
            grid = times[:12].reshape(3, 4)
            np.testing.assert_array_equal(rabi_excitation_probability(rabi, det, grid),
                                          batch[:12].reshape(3, 4))

    @pytest.mark.parametrize("t", [-1e-9, [0.0, 1.0, -1e-300]])
    def test_negative_time_raises(self, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            rabi_excitation_probability(1.0, 0.0, t)

    def test_agrees_with_evolve_composition(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            rabi, det, t = rng.uniform(0, 5), rng.uniform(-5, 5), rng.uniform(0, 5)
            direct = rabi_excitation_probability(rabi, det, t)
            s = evolve(Z_PLUS, DrivePulse(rabi, det, t))
            composed = born_probability(s, state_from_angles(math.pi))
            assert abs(direct - composed) < 1e-10


class TestRamsey:
    def test_resonant_pulses_compose_to_pi(self):
        pulse = DrivePulse(rabi=2.0, detuning=0.0, duration=math.pi / 4)
        for t_p in (0.0, 0.3, 2.0):
            assert ramsey_probability(pulse, t_p) == pytest.approx(1.0, abs=1e-12)

    def test_half_period_null_in_ideal_limit(self):
        # pulse duration -> 0 at fixed pi/2 area; delta * t_p = pi
        omega, delta = 1e7, 1.0
        pulse = DrivePulse(rabi=omega, detuning=delta, duration=0.5 * math.pi / omega)
        assert ramsey_probability(pulse, math.pi / delta) == pytest.approx(0.0, abs=1e-5)

    def test_fringe_period_at_paper_detuning(self):
        # detuning 103.9 Hz -> fringe period 1/103.9 s in precession time
        delta = 2 * math.pi * 103.9
        omega = 2 * math.pi * 50e3
        pulse = DrivePulse(rabi=omega, detuning=delta, duration=0.5 * math.pi / omega)
        period = 1.0 / 103.9
        for t_p in (0.0, 0.25 * period, 0.4 * period):
            p0 = ramsey_probability(pulse, t_p)
            p1 = ramsey_probability(pulse, t_p + period)
            assert p1 == pytest.approx(p0, abs=1e-6)
        assert ramsey_probability(pulse, 0.5 * period) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("rabi, detuning, phase, t_max", [
        (2 * math.pi * 50e3, 2 * math.pi * 103.9, 0.0, 30e-3),     # the README fringes
        (2 * math.pi * 2.9165e3, 0.0, 0.0, 2e-3),                  # zero detuning
        (2 * math.pi * 10e3, -2 * math.pi * 57.3, 0.0, 30e-3),
        (2 * math.pi * 50e3, 2 * math.pi * 10e3, 0.0, 1e-3),
        (2 * math.pi * 20e3, 2 * math.pi * 311.0, 2.3, 10e-3),     # a nonzero drive phase
    ])
    def test_array_of_times_matches_scalar_calls_bit_for_bit(self, rabi, detuning, phase, t_max):
        pulse = DrivePulse(rabi=rabi, detuning=detuning, duration=0.5 * math.pi / rabi,
                           phase=phase)
        times = np.linspace(0.0, t_max, 1000)          # starts at t = 0
        batch = ramsey_probability(pulse, times)
        assert batch.shape == times.shape
        np.testing.assert_array_equal(batch, [ramsey_probability(pulse, t) for t in times])
        grid = times[:12].reshape(3, 4)
        np.testing.assert_array_equal(ramsey_probability(pulse, grid), batch[:12].reshape(3, 4))

    # free precession is the rabi = 0 pulse of evolve, bit for bit, at any detuning sign
    @pytest.mark.parametrize("detuning, phase", [
        (-2 * math.pi * 57.3, 0.0), (0.0, 0.0), (2 * math.pi * 103.9, 0.0),
        (2 * math.pi * 311.0, 2.3), (-2 * math.pi * 311.0, 4.0), (0.0, 1.1),
    ])
    def test_free_precession_matches_a_zero_rabi_pulse_bit_for_bit(self, detuning, phase):
        rabi = 2 * math.pi * 20e3
        pulse = DrivePulse(rabi=rabi, detuning=detuning, duration=0.5 * math.pi / rabi,
                           phase=phase)
        times = np.linspace(0.0, 30e-3, 301)
        half = evolve(Z_PLUS, pulse)
        want = [born_probability(evolve(evolve(half, DrivePulse(rabi=0.0, detuning=detuning,
                                                                duration=t, phase=phase)), pulse),
                                 state_from_angles(math.pi)) for t in times]
        np.testing.assert_array_equal(ramsey_probability(pulse, times), want)

    def test_scalar_time_gives_a_float(self):
        pulse = DrivePulse(rabi=2.0, detuning=0.3, duration=math.pi / 4)
        for t_p in (0.0, 1.7, np.float64(1.7), 2):
            assert type(ramsey_probability(pulse, t_p)) is float

    def test_zero_time_and_zero_detuning_are_the_identity(self):
        # only the two pulses act: the state after them, read out as usual
        for detuning in (0.0, 0.4):
            pulse = DrivePulse(rabi=2.0, detuning=detuning, duration=0.6, phase=0.5)
            twice = evolve(evolve(Z_PLUS, pulse), pulse)
            expected = born_probability(twice, state_from_angles(math.pi))
            assert ramsey_probability(pulse, 0.0) == expected
            if detuning == 0.0:
                np.testing.assert_array_equal(ramsey_probability(pulse, [0.0, 1.0, 5.0]),
                                              [expected] * 3)

    @pytest.mark.parametrize("times", [-1e-9, [0.0, 1.0, -1e-300], np.array([[0.5], [-2.0]])])
    def test_negative_time_raises(self, times):
        pulse = DrivePulse(rabi=2.0, detuning=0.3, duration=math.pi / 4)
        with pytest.raises(ValueError, match="precession_time"):
            ramsey_probability(pulse, times)


class TestBornProbability:
    def test_aligned_and_orthogonal(self):
        m = state_from_angles(0.7, 1.1)
        assert born_probability(m, m) == pytest.approx(1.0, abs=1e-12)
        orth = state_from_angles(0.7 + math.pi / 2, 1.1)
        assert born_probability(orth, m) == pytest.approx(0.5, abs=1e-12)

    def test_overlap_with_z(self):
        s = state_from_angles(3 * math.pi / 4, math.pi / 4)
        # cos^2(3 pi / 8)
        assert born_probability(s, Z_PLUS) == pytest.approx(0.14644660940672627,
                                                           abs=1e-14)

    def test_equals_amplitude_overlap(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            ts, ps = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            tm, pm = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            got = born_probability(state_from_angles(ts, ps), state_from_angles(tm, pm))
            assert abs(got - overlap_probability(tm, pm, ts, ps)) < 1e-12

    def test_antipode_completeness(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            s = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            m = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            total = born_probability(s, m) + born_probability(s, -m)
            assert abs(total - 1.0) < 1e-12

    def test_rows_match_lone_pairs(self):
        rng = np.random.default_rng(17)
        states = rng.uniform(-0.6, 0.6, size=(50, 3))
        axes = np.array([state_from_angles(math.acos(rng.uniform(-1, 1)),
                                           rng.uniform(0, 2 * math.pi)) for _ in range(50)])
        rows = born_probability(states, axes)
        assert rows.shape == (50,)
        for state, axis, p in zip(states, axes, rows):
            lone = born_probability(state, axis)
            assert type(lone) is float and lone == p
        # one state against many axes broadcasts
        np.testing.assert_array_equal(born_probability(states[0], axes),
                                      [born_probability(states[0], a) for a in axes])

    def test_clamped_to_unit_interval(self):
        # a state a hair outside the ball along the axis, in both directions
        axes = np.array([Z_PLUS, -Z_PLUS])
        outside = np.array([[0.0, 0.0, 1.0 + 1e-12], [0.0, 0.0, 1.0 + 1e-12]])
        np.testing.assert_array_equal(born_probability(outside, axes), [1.0, 0.0])
        assert born_probability(outside[0], Z_PLUS) == 1.0


class TestMeasure:
    """The Born draw of run_estimation, where every measurement outcome
    of the package is drawn: 100 000 identical one-shot runs of the fixed
    axes, whose first axis is x, share one generator."""

    N = 100_000
    X = np.array([1.0, 0.0, 0.0])

    def plus_frequency(self, s, seed):
        rng = np.random.default_rng(seed)
        outcomes = run_estimation(np.tile(s, (self.N, 1)), 1, "fixed_axes",
                                  seed=[rng] * self.N)[3]
        return np.count_nonzero(outcomes[:, 0] == 1) / self.N

    def test_deterministic_at_poles(self):
        assert self.plus_frequency(self.X, 17) == 1.0
        assert self.plus_frequency(-self.X, 18) == 0.0

    def test_frequency_matches_born(self):
        # orthogonal to the axis: p = 1/2
        sigma = math.sqrt(0.25 / self.N)
        assert abs(self.plus_frequency(Z_PLUS, 19) - 0.5) < 4 * sigma

    def test_generic_direction_frequency(self):
        s = state_from_angles(0.4, 0.3)
        p = 0.5 * (1.0 + s[0])
        assert abs(self.plus_frequency(s, 20) - p) < 4 * math.sqrt(p * (1 - p) / self.N)


class TestDetectionModel:
    def test_poisson_tail_derivation(self):
        # P(count <= 1 | mean 5) = e^-5 (1 + 5)
        model = DetectionModel.from_counts(on_mean=5.0, off_mean=0.05, threshold=1)
        assert 1.0 - model.eta1 == pytest.approx(6.0 * math.exp(-5.0), abs=1e-12)
        assert model.eta0 == pytest.approx(math.exp(-0.05) * 1.05, abs=1e-12)

    def test_paper_operating_point(self):
        # mean counts about 5 ("on") and 0.2 ("off"); threshold set so
        # that "on" is misread in less than 0.5% of cases
        model = DetectionModel.from_counts(on_mean=5.3, off_mean=0.2, threshold=0)
        assert 1.0 - model.eta1 < 0.005
        assert model.eta0 == pytest.approx(math.exp(-0.2), abs=1e-12)

    def test_zero_off_mean_never_misreads_off(self):
        rng = np.random.default_rng(21)
        model = DetectionModel.from_counts(on_mean=9.0, off_mean=0.0, threshold=0)
        assert not detect(np.zeros(200, dtype=bool), model, rng).any()

    def test_marginal_error_rates(self):
        rng = np.random.default_rng(22)
        model = DetectionModel.from_counts(on_mean=5.3, off_mean=0.2, threshold=0)
        n = 50_000
        on_misread = np.mean(~detect(np.ones(n, dtype=bool), model, rng))
        off_misread = np.mean(detect(np.zeros(n, dtype=bool), model, rng))
        for rate, expected in ((on_misread, 1 - model.eta1), (off_misread, 1 - model.eta0)):
            assert abs(rate - expected) < 4 * math.sqrt(expected * (1 - expected) / n)

    def test_efficiency_only_model(self):
        rng = np.random.default_rng(23)
        model = DetectionModel(0.9, 0.95)
        n = 50_000
        off_ok = np.mean(~detect(np.zeros(n, dtype=bool), model, rng))
        assert abs(off_ok - 0.9) < 4 * math.sqrt(0.9 * 0.1 / n)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionModel(eta0=0.4, eta1=0.9)
        with pytest.raises(ValueError):
            DetectionModel.from_counts(on_mean=5.0, off_mean=0.2, threshold=-1)
        # a threshold starving eta1 below 1/2 is not a valid model
        with pytest.raises(ValueError):
            DetectionModel.from_counts(on_mean=5.0, off_mean=0.2, threshold=10)

    def test_count_inputs_checked_before_summing(self):
        # means above 690 start their pmf below 1e-300 and are refused
        cases = [(math.nan, 0.2, 3), (5.0, math.inf, 3), (5.0, -0.1, 3), (5.0, 0.2, 1.5)]
        for big in (691.0, 700.0, 1e4, 1e7):
            cases += [(big, 0.2, 3), (5.0, big, 3)]
        for on_mean, off_mean, threshold in cases:
            with pytest.raises(ValueError):
                DetectionModel.from_counts(on_mean, off_mean, threshold)

    def test_poisson_cdf_matches_scipy(self):
        thresholds = np.arange(61)
        for mean in np.linspace(0.0, 100.0, 401):
            expected = stats.poisson.cdf(thresholds, mean)
            got = [bloch._poisson_cdf(float(mean), int(k)) for k in thresholds]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_counting_efficiencies_are_poisson_tails(self):
        # eta0 = P(count <= k | off), eta1 = P(count > k | on)
        for on_mean, off_mean, threshold in ((5.3, 0.2, 0), (5.3, 0.2, 1), (12.0, 2.5, 5),
                                             (40.0, 0.0, 20)):
            model = DetectionModel.from_counts(on_mean, off_mean, threshold)
            assert abs(model.eta0 - stats.poisson.cdf(threshold, off_mean)) <= 1e-14
            assert abs(model.eta1 - stats.poisson.sf(threshold, on_mean)) <= 1e-14

    def test_poisson_cdf_matches_scipy_at_large_means(self):
        # the bound of the earlier log-form exponent, which cancelled terms
        # of size mean*log(mean); thresholds 41 sigma below the mean give 0
        for mean in (200.0, 450.0, 690.0):
            sd = math.sqrt(mean)
            thresholds = [int(mean + f * sd) for f in (-41, -5, -1, 0, 1, 5)]
            got = [bloch._poisson_cdf(mean, k) for k in thresholds]
            tol = 2.0 * np.finfo(float).eps * mean * math.log(mean)
            np.testing.assert_allclose(got, stats.poisson.cdf(thresholds, mean), rtol=0, atol=tol)
            assert got[0] == 0.0

    def test_poisson_cdf_near_the_mean_at_large_means(self):
        # the plain recursion up to the 690 cap, from 8 sd below the mean
        # to 8 sd above it
        for mean in (200.0, 450.0, 690.0):
            sd = math.sqrt(mean)
            thresholds = [int(mean + f * sd) for f in (-41, -8, -5, -3, -1, 0, 1, 3, 4, 8)]
            got = [bloch._poisson_cdf(mean, k) for k in thresholds]
            np.testing.assert_allclose(got, stats.poisson.cdf(thresholds, mean),
                                       rtol=0, atol=1e-13)

    def test_small_means_sum_the_plain_recursion(self):
        # every accepted mean, the 690 cap included, sums the plain
        # recursion from exp(-mean) bit for bit
        for mean in (0.2, 5.0, 5.3, 100.0, 600.0, 690.0):
            terms = [math.exp(-mean)]
            last = int(mean + 5.0 * math.sqrt(mean))
            for j in range(1, last + 1):
                terms.append(terms[-1] * (mean / j))
            for k in range(last + 1):
                assert bloch._poisson_cdf(mean, k) == min(1.0, math.fsum(terms[:k + 1]))

    def test_tails_summed_once(self, monkeypatch):
        calls = []
        cdf = bloch._poisson_cdf

        def counted(mean, k):
            calls.append(mean)
            return cdf(mean, k)

        monkeypatch.setattr(bloch, "_poisson_cdf", counted)
        DetectionModel.from_counts(on_mean=5.3, off_mean=0.2, threshold=1)
        assert sorted(calls) == [0.2, 5.3]

    def test_huge_threshold_stays_bounded(self):
        start = time.perf_counter()
        with pytest.raises(ValueError):   # eta1 = P(count > 1e9) is far below 1/2
            DetectionModel.from_counts(on_mean=5.0, off_mean=0.2, threshold=10**9)
        assert time.perf_counter() - start < 1.0
