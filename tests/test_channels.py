import math

import numpy as np
import pytest

from ionqsim.bloch import state_from_angles
from ionqsim.channels import (_CHOI_TOL, AffineChannel, ChannelInvalidError, affine_shift,
                              channel_from_spec,
                              compose, depolarizing,
                              phase_damping, rotation_channel,
                              tomography_exact, tomography_sampled)
from ionqsim.sphere import fibonacci_sphere
from oracles import rotation_oracle


def random_physical_channel(rng):
    """Random composition of rotations, dampings and an amplitude-damping
    style block; every factor maps the ball into itself."""
    channel = depolarizing(0.0)
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 4)
        axis = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        if kind == 0:
            part = rotation_channel(axis, rng.uniform(0, 2 * math.pi))
        elif kind == 1:
            part = phase_damping(rng.uniform(0, 0.5), axis)
        elif kind == 2:
            part = depolarizing(rng.uniform(0, 0.5))
        else:
            p = rng.uniform(0, 0.9)
            part = AffineChannel(np.diag([math.sqrt(1 - p), math.sqrt(1 - p), 1 - p]),
                                 np.array([0.0, 0.0, p]))
        channel = compose(channel, part)
    return channel


class TestConstructors:
    def test_phase_damping_identity_at_zero(self):
        np.testing.assert_allclose(phase_damping(0.0).m, np.eye(3), atol=1e-15)

    def test_phase_damping_z_axis_matrix(self):
        lam = 0.17
        np.testing.assert_allclose(phase_damping(lam).m,
                                   np.diag([1 - 2 * lam, 1 - 2 * lam, 1.0]), atol=1e-15)

    def test_full_dephasing_kills_transverse(self):
        channel = phase_damping(0.5)
        np.testing.assert_allclose(channel([1.0, 0.0, 0.0]), [0, 0, 0], atol=1e-15)

    def test_phase_damping_axis_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            axis = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            lam = rng.uniform(0, 0.5)
            channel = phase_damping(lam, axis)
            np.testing.assert_allclose(channel.m @ axis, axis, atol=1e-12)
            eigvals = np.sort(np.linalg.eigvalsh(channel.m))
            np.testing.assert_allclose(eigvals, [1 - 2 * lam, 1 - 2 * lam, 1.0], atol=1e-12)

    def test_depolarizing(self):
        np.testing.assert_allclose(depolarizing(0.5).m, np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(depolarizing(0.0).m, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(depolarizing(0.25)([0, 0, 1.0]), [0, 0, 0.5], atol=1e-15)

    def test_lambda_range_validated(self):
        for bad in (-0.1, 0.6):
            with pytest.raises(ValueError):
                phase_damping(bad)
            with pytest.raises(ValueError):
                depolarizing(bad)

    def test_rotation_channel(self):
        np.testing.assert_allclose(rotation_channel([0, 0, 1], 0.0).m, np.eye(3), atol=1e-15)
        flip = rotation_channel([1, 0, 0], math.pi)
        np.testing.assert_allclose(flip([0, 0, 1.0]), [0, 0, -1.0], atol=1e-12)
        assert abs(abs(np.linalg.det(flip.m)) - 1.0) < 1e-12

    def test_rotation_matches_expm_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            axis = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            angle = rng.uniform(0, 2 * math.pi)
            got = rotation_channel(axis, angle).m
            np.testing.assert_allclose(got, rotation_oracle(axis, angle), atol=1e-12)

    def test_rotation_composition_adds_angles(self):
        axis = state_from_angles(1.1, 0.4)
        a, b = 0.7, 1.9
        composed = compose(rotation_channel(axis, a), rotation_channel(axis, b))
        np.testing.assert_allclose(composed.m, rotation_channel(axis, a + b).m, atol=1e-12)

    def test_singular_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            axis = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            for channel in (phase_damping(rng.uniform(0, 0.5), axis),
                            depolarizing(rng.uniform(0, 0.5))):
                sv = np.linalg.svd(channel.m, compute_uv=False)
                assert np.all(sv <= 1.0 + 1e-12) and np.all(sv >= -1e-12)


class TestComposeApply:
    def test_identity_neutral(self):
        c = phase_damping(0.3, [0, 1, 0])
        for composed in (compose(depolarizing(0.0), c), compose(c, depolarizing(0.0))):
            np.testing.assert_allclose(composed.m, c.m, atol=1e-15)
            np.testing.assert_allclose(composed.v, c.v, atol=1e-15)

    def test_depolarizing_composition(self):
        both = compose(depolarizing(0.1), depolarizing(0.2))
        np.testing.assert_allclose(both.m, 0.8 * 0.6 * np.eye(3), atol=1e-15)

    def test_associativity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, c = (random_physical_channel(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            np.testing.assert_allclose(left.m, right.m, atol=1e-12)
            np.testing.assert_allclose(left.v, right.v, atol=1e-12)

    def test_compose_respects_apply(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_physical_channel(rng), random_physical_channel(rng)
            s = fibonacci_sphere(7)[rng.integers(0, 7)] * rng.uniform(0, 1)
            np.testing.assert_allclose(compose(a, b)(s), b(a(s)),
                                       atol=1e-12)

    def test_ball_preserved_for_constructed_channels(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            assert random_physical_channel(rng).is_physical()
        for lam in np.linspace(0.0, 0.5, 21):
            axis = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            for channel in (phase_damping(lam, axis), depolarizing(lam),
                            rotation_channel(axis, rng.uniform(0, 2 * math.pi)),
                            compose(random_physical_channel(rng), random_physical_channel(rng))):
                assert channel.is_physical()

    def test_transpose_rejected(self):
        # the transpose map keeps the ball but is not completely positive
        transpose = AffineChannel(np.diag([1.0, -1.0, 1.0]), np.zeros(3))
        images = fibonacci_sphere(100) @ transpose.m.T
        assert np.max(np.linalg.norm(images, axis=1)) <= 1.0 + 1e-12
        assert not transpose.is_physical()
        with pytest.raises(ChannelInvalidError):
            channel_from_spec({"variant": "raw", "m": transpose.m.tolist(), "v": [0.0, 0.0, 0.0]})

    def test_call_flags_ball_violation(self):
        bad = affine_shift([0.5, 0.0, 0.0])
        with pytest.raises(ChannelInvalidError):
            bad([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("rows", [3, 5])
    def test_stack_maps_row_by_row(self, rows):
        rng = np.random.default_rng(17 + rows)
        for _ in range(20):
            channel = random_physical_channel(rng)
            stack = fibonacci_sphere(rows) * rng.uniform(0, 1, (rows, 1))
            expected = np.array([channel(s) for s in stack])
            np.testing.assert_array_equal(channel(stack), expected)
            np.testing.assert_array_equal(channel(stack.reshape(1, rows, 3))[0], expected)

    def test_call_flags_one_bad_row_of_a_stack(self):
        shift = affine_shift([0.2, 0.0, 0.0])
        stack = np.array([[0.0, 0.0, 0.5], [0.0, 0.3, 0.0], [0.9, 0.0, 0.0],
                          [-0.5, 0.5, 0.0], [0.0, 0.0, -0.9]])
        shift(np.delete(stack, 2, axis=0))
        with pytest.raises(ChannelInvalidError):
            shift(stack)

    def test_call_flags_a_nan_row(self):
        nan_out = AffineChannel(np.eye(3), [0.0, 0.0, np.nan])
        with pytest.raises(ChannelInvalidError):
            nan_out(np.array([[0.0, 0.0, 0.5], [0.3, 0.0, 0.0]]))

    @pytest.mark.parametrize("m, v", [
        (np.eye(3), [0.0, 0.0, np.nan]),
        (np.eye(3), [0.0, np.inf, 0.0]),
        (np.diag([0.5, np.nan, 0.5]), np.zeros(3)),
        (np.diag([-np.inf, 0.5, 0.5]), np.zeros(3)),
    ])
    def test_non_finite_channel_is_not_physical(self, m, v):
        assert AffineChannel(m, v).is_physical() is False

    def test_channel_copies_the_callers_arrays(self):
        m, v = 0.5 * np.eye(3), np.zeros(3)
        channel = AffineChannel(m, v)
        assert m.flags.writeable and v.flags.writeable
        m[0, 0], v[0] = 9.0, 9.0
        np.testing.assert_array_equal(channel.m, 0.5 * np.eye(3))
        np.testing.assert_array_equal(channel.v, np.zeros(3))

    def test_tomography_of_a_map_that_leaves_the_ball_raises(self):
        # +x goes to (1.2, 0, 0)
        with pytest.raises(ChannelInvalidError):
            tomography_exact(affine_shift([0.2, 0.0, 0.0]))


class TestTomographyExact:
    def test_identity_box(self):
        channel = tomography_exact(depolarizing(0.0))
        np.testing.assert_allclose(channel.m, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(channel.v, np.zeros(3), atol=1e-12)

    def test_depolarizing_box(self):
        channel = tomography_exact(depolarizing(0.2))
        np.testing.assert_allclose(channel.m, 0.6 * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(channel.v, np.zeros(3), atol=1e-12)

    def test_phase_damping_box(self):
        lam = 0.3
        channel = tomography_exact(phase_damping(lam))
        np.testing.assert_allclose(channel.m, np.diag([0.4, 0.4, 1.0]), atol=1e-12)
        np.testing.assert_allclose(channel.v, np.zeros(3), atol=1e-12)

    def test_reconstruction_identity_on_random_channels(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            original = random_physical_channel(rng)
            rebuilt = tomography_exact(lambda s, c=original: c(s))
            np.testing.assert_allclose(rebuilt.m, original.m, atol=1e-10)
            np.testing.assert_allclose(rebuilt.v, original.v, atol=1e-10)

    def test_unital_channels_reconstruct_zero_offset(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            axis = state_from_angles(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            channel = tomography_exact(phase_damping(rng.uniform(0, 0.5), axis))
            assert np.linalg.norm(channel.v) < 1e-10


class TestPhysicalityTolerance:
    # one tolerance answers "is this channel physical?": is_physical() and the
    # ball guard of a call both derive from _CHOI_TOL, so a channel the first
    # accepts never fails the second

    @staticmethod
    def scaled_identity(delta):
        """A raw spec m = (1 + delta) I, v = 0: its smallest Choi eigenvalue is
        -delta/2, and it maps a pure state to length 1 + delta."""
        return {"variant": "raw", "m": ((1.0 + delta) * np.eye(3)).tolist(), "v": [0.0, 0.0, 0.0]}

    def test_scaled_identity_just_under_twice_the_tolerance_is_accepted(self):
        channel = channel_from_spec(self.scaled_identity(0.99 * 2.0 * _CHOI_TOL))
        assert channel.is_physical()
        channel(fibonacci_sphere(2000))
        tomography_exact(channel)
        tomography_sampled(channel, 100, seed=0)

    def test_scaled_identity_just_over_twice_the_tolerance_is_rejected(self):
        with pytest.raises(ChannelInvalidError, match="not completely positive"):
            channel_from_spec(self.scaled_identity(1.01 * 2.0 * _CHOI_TOL))

    # 1e-12 itself, twice the tolerance, falls on either side by rounding
    @pytest.mark.parametrize("delta", [*np.logspace(-13, -8, 26), 1.5e-9])
    def test_scaled_identity_never_fails_the_ball_guard(self, delta):
        try:
            channel = channel_from_spec(self.scaled_identity(delta))
        except ChannelInvalidError as exc:
            assert "not completely positive" in str(exc)
            assert delta > 0.99 * 2.0 * _CHOI_TOL
            return
        assert delta < 1.01 * 2.0 * _CHOI_TOL
        channel(fibonacci_sphere(2000))

    def test_edge_channels_pass_the_ball_guard(self):
        # mix a random physical channel a with a random affine map b at the
        # largest weight t that is_physical() accepts, found by bisection:
        # the Choi matrix then has an eigenvalue just above -_CHOI_TOL
        rng = np.random.default_rng(31)
        states = fibonacci_sphere(2000)
        longest = 0.0
        for _ in range(200):
            a = random_physical_channel(rng)
            b = AffineChannel(rng.normal(size=(3, 3)), rng.normal(size=3))

            def mix(t):
                return AffineChannel((1.0 - t) * a.m + t * b.m, (1.0 - t) * a.v + t * b.v)

            assert not mix(1.0).is_physical()
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if mix(mid).is_physical() else (lo, mid)
            channel = mix(lo)
            assert channel.is_physical()
            longest = max(longest, np.max(np.linalg.norm(channel(states), axis=1)))
        # the edge reaches past 1 + _CHOI_TOL, and stays within 1 + 2 _CHOI_TOL
        assert 1.0 + _CHOI_TOL < longest <= 1.0 + 2.0 * _CHOI_TOL


class TestTomographySampled:
    def test_matches_exact_at_large_shots(self):
        rng = np.random.default_rng(9)
        original = random_physical_channel(rng)
        estimate, _, _ = tomography_sampled(original, 2_000_000, seed=1)
        np.testing.assert_allclose(estimate.m, original.m, atol=5e-3)
        np.testing.assert_allclose(estimate.v, original.v, atol=5e-3)

    def test_identity_within_binomial_propagation(self):
        shots = 10_000
        estimate, _, _ = tomography_sampled(depolarizing(0.0), shots, seed=2)
        # true-probability propagation: diagonal entries combine vars
        # 0, 1/4, 1/4; off-diagonals 1/4, 1/4, 1/4
        sig_diag = math.sqrt(0.5 / shots)
        sig_off = math.sqrt(1.5 / shots)
        for i in range(3):
            for j in range(3):
                want = 1.0 if i == j else 0.0
                sigma = sig_diag if i == j else sig_off
                assert abs(estimate.m[i, j] - want) < 5 * sigma
            assert abs(estimate.v[i]) < 5 * math.sqrt(0.5 / shots)
        assert np.max(np.abs(estimate.m - np.eye(3))) < 5 * 0.015

    def test_error_estimates_scale_with_shots(self):
        _, m_err1, _ = tomography_sampled(depolarizing(0.1), 10_000, seed=3)
        _, m_err2, _ = tomography_sampled(depolarizing(0.1), 40_000, seed=4)
        ratio = np.median(m_err1) / np.median(m_err2)
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_reproducible(self):
        a, _, _ = tomography_sampled(phase_damping(0.2, [0, 1, 0]), 1000, seed=5)
        b, _, _ = tomography_sampled(phase_damping(0.2, [0, 1, 0]), 1000, seed=5)
        np.testing.assert_array_equal(a.m, b.m)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            tomography_sampled(depolarizing(0.0), 0, seed=0)


class TestTrendAndSpec:
    def test_phase_damping_sweep_is_monotone(self):
        # stand-in for the noise-amplitude sweep: transverse matrix
        # elements shrink monotonically with the damping strength
        axis = state_from_angles(1.0, 0.0)
        lams = np.linspace(0.0, 0.5, 11)
        transverse = []
        for lam in lams:
            rebuilt = tomography_exact(phase_damping(lam, axis))
            eigvals = np.sort(np.linalg.eigvalsh(rebuilt.m))
            transverse.append(eigvals[0])
        assert all(a > b - 1e-12 for a, b in zip(transverse, transverse[1:]))

    def test_channel_from_spec_variants(self):
        spec = {"variant": "phase_damping", "lambda": 0.2, "axis": [1.0, 0.0]}
        channel = channel_from_spec(spec)
        np.testing.assert_allclose(channel.m @ state_from_angles(1.0, 0.0),
                                   state_from_angles(1.0, 0.0), atol=1e-12)
        channel = channel_from_spec({"variant": "depolarizing", "lambda": 0.25})
        np.testing.assert_allclose(channel.m, 0.5 * np.eye(3), atol=1e-15)
        channel = channel_from_spec({
            "variant": "composition",
            "parts": [{"variant": "depolarizing", "lambda": 0.1},
                      {"variant": "rotation", "axis": [1.5708, 0.0], "angle": 3.14159}],
        })
        assert channel.is_physical()
        channel = channel_from_spec({"variant": "raw",
                                     "m": np.diag([0.5, 0.5, 0.5]).tolist(),
                                     "v": [0.0, 0.0, 0.3]})
        assert channel.is_physical()

    @pytest.mark.parametrize("variant", ["phase_damping", "depolarizing"])
    @pytest.mark.parametrize("lam", [-0.1, 0.7])
    def test_out_of_range_lambda_names_its_key(self, variant, lam):
        with pytest.raises(ValueError, match="bad channel spec key 'lambda'"):
            channel_from_spec({"variant": variant, "lambda": lam})

    def test_channel_from_spec_rejects_bad_input(self):
        with pytest.raises(ValueError):
            channel_from_spec({"variant": "unknown"})
        with pytest.raises(ValueError):
            channel_from_spec({"variant": "depolarizing", "lambda": 0.1, "bogus": 1})
        with pytest.raises(ValueError):
            channel_from_spec({"variant": "composition", "parts": []})
        with pytest.raises(ChannelInvalidError):
            channel_from_spec({"variant": "raw", "m": np.eye(3).tolist(),
                               "v": [0.5, 0.0, 0.0]})
