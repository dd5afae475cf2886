import gc
import hashlib
import inspect
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from ionqsim import estimation, sphere
from ionqsim.bloch import born_probability, state_from_angles
from ionqsim.channels import affine_shift, compose, depolarizing, rotation_channel
from ionqsim.estimation import (STRATEGIES, DegenerateUpdateError, SphereDistribution,
                                bayes_update, estimate_state, mean_fidelity_experiment,
                                optimal_fidelity_bound, optimal_next_direction,
                                random_direction, run_estimation, uniform_prior)
from ionqsim.sphere import SphereGrid, fibonacci_sphere, moment_grid, rotate
from oracles import (exact_mean_fidelity_oracle, expected_mean_fidelity, imperfection_oracle,
                     newton_step_oracle, sweep_objective_oracle)

# reference quadrature for densities not tied to one measurement count
GRID = SphereGrid.build(64)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def _imperfect(lam, delta_eta=0.0):
    """The experiment's depolarization plus detection bias, as a channel."""
    return compose(depolarizing(lam), affine_shift([0.0, 0.0, 2.0 * delta_eta]))


def _grid_cos_half_sq(grid):
    """cos^2(theta/2) = (1 + cos theta)/2 evaluated on every grid node."""
    return 0.5 * (1.0 + grid.units[:, 2])


def _self_learning_levels(n):
    """Every posterior the n-step self-learning tree searches, one batch per
    depth: both outcomes of each row's axis."""
    prior = uniform_prior(moment_grid(n))
    level = SphereDistribution(prior.grid, prior.values[None])
    for _ in range(n):
        yield level
        axes = np.repeat(optimal_next_direction(level), 2, axis=0)
        level = bayes_update(SphereDistribution(level.grid, np.repeat(level.values, 2, axis=0)),
                             axes, np.tile([1, -1], len(axes) // 2))


class TestPriorAndGrid:
    def test_uniform_prior_normalized(self):
        prior = uniform_prior(GRID)
        assert prior.integral == pytest.approx(1.0, abs=1e-9)
        assert np.all(prior.values >= 0)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            uniform_prior(SphereGrid.build(1))
        uniform_prior(SphereGrid.build(2))   # 8 nodes is the smallest legal grid

    def test_values_are_immutable_snapshots(self):
        prior = uniform_prior(GRID)
        with pytest.raises(ValueError):
            prior.values[0] = 9.0

    def test_snapshot_copies_the_callers_array(self):
        values = np.full(GRID.size, 1.0 / (4 * math.pi))
        dist = SphereDistribution(GRID, values)
        assert values.flags.writeable
        values[0] = 9.0
        assert dist.values[0] == 1.0 / (4 * math.pi)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_library_snapshots_are_read_only_and_pass_the_checks(self, monkeypatch, strategy):
        # the per-string rows run_estimation gathers and bayes_update's
        # posteriors are taken without a copy or a check: they must still be
        # read-only, and equal what the checked constructor makes of them
        snapshots = [bayes_update(uniform_prior(GRID), Z, -1)]
        update = estimation.bayes_update

        def recording(dist, direction, outcome):
            snapshots.append(dist)
            snapshots.append(update(dist, direction, outcome))
            return snapshots[-1]

        monkeypatch.setattr(estimation, "bayes_update", recording)
        run_estimation(np.array([Z, X, Y, -Z]), 4, strategy, seed=[1, 2, 3, 4])
        assert len(snapshots) == 9
        for snapshot in snapshots:
            assert not snapshot.values.flags.writeable
            with pytest.raises(ValueError):
                snapshot.values[..., 0] = 1.0
            checked = SphereDistribution(snapshot.grid, snapshot.values)
            np.testing.assert_array_equal(checked.values, snapshot.values)

    def test_negative_density_rejected(self):
        grid = SphereGrid.build(8)
        values = np.full(grid.size, 1.0)
        values[0] = -1.0
        with pytest.raises(ValueError):
            SphereDistribution(grid, values)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_one_bad_row_rejects_the_batch(self, bad):
        grid = SphereGrid.build(8)
        values = np.full((3, grid.size), 1.0)
        values[1, 5] = bad
        with pytest.raises(ValueError):
            SphereDistribution(grid, values)

    def test_moment_grid_is_exact(self):
        # after N updates S and Q are polynomials of degree <= N + 2; the
        # sized grid must reproduce a much finer rule to rounding
        rng = np.random.default_rng(12)
        for n in (1, 4, 12):
            small, fine = uniform_prior(moment_grid(n)), uniform_prior(GRID)
            for _ in range(n):
                m, o = random_direction(rng.random(2)), int(rng.choice([-1, 1]))
                small, fine = bayes_update(small, m, o), bayes_update(fine, m, o)
            np.testing.assert_allclose(small.mean_vector(), fine.mean_vector(), atol=1e-14)
            np.testing.assert_allclose(small.second_moment(), fine.second_moment(), atol=1e-14)
        assert moment_grid(12).size == 8 * 16


class TestOutcomeProbability:
    def test_uniform_gives_half_everywhere(self):
        prior = uniform_prior(GRID)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_direction(rng.random(2))
            assert born_probability(prior.mean_vector(), m) == pytest.approx(0.5, abs=1e-12)

    def test_concentrated_density(self):
        grid = uniform_prior(GRID).grid
        kappa = 400.0
        values = np.exp(kappa * (grid.units @ Z - 1.0))
        dist = SphereDistribution(grid, values / grid.integrate(values))
        assert born_probability(dist.mean_vector(), Z) > 0.99

    def test_posterior_after_one_z_result(self):
        # integral of cos^4(t/2) / (2 pi) over the sphere = 2/3
        post = bayes_update(uniform_prior(GRID), Z, +1)
        assert born_probability(post.mean_vector(), Z) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(1)
        dist = uniform_prior(GRID)
        for _ in range(5):
            dist = bayes_update(dist, random_direction(rng.random(2)), rng.choice([-1, 1]))
        for _ in range(20):
            m = random_direction(rng.random(2))
            s_bar = dist.mean_vector()
            total = born_probability(s_bar, m) + born_probability(s_bar, -m)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestBayesUpdate:
    def test_single_z_update_analytic(self):
        post = bayes_update(uniform_prior(GRID), Z, +1)
        want = _grid_cos_half_sq(post.grid) / (2.0 * math.pi)
        np.testing.assert_allclose(post.values, want, atol=1e-12)

    def test_two_z_updates_analytic(self):
        post = bayes_update(bayes_update(uniform_prior(GRID), Z, +1), Z, +1)
        # w2 = 3 cos^4(t/2) / (4 pi)
        want = 3.0 * _grid_cos_half_sq(post.grid) ** 2 / (4.0 * math.pi)
        np.testing.assert_allclose(post.values, want, atol=1e-12)

    def test_opposite_outcomes_symmetric_density(self):
        post = bayes_update(bayes_update(uniform_prior(GRID), Z, +1), Z, -1)
        grid_values = post.values.reshape(64, 128)   # GRID's (theta, phi) rows
        np.testing.assert_allclose(grid_values, grid_values[::-1], atol=1e-12)

    def test_antipode_equivalence(self):
        rng = np.random.default_rng(2)
        prior = uniform_prior(GRID)
        for _ in range(10):
            m = random_direction(rng.random(2))
            a = bayes_update(prior, m, +1)
            b = bayes_update(prior, -m, -1)
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_normalization_preserved(self):
        rng = np.random.default_rng(3)
        dist = uniform_prior(GRID)
        for _ in range(25):
            dist = bayes_update(dist, random_direction(rng.random(2)), rng.choice([-1, 1]))
            assert dist.integral == pytest.approx(1.0, abs=1e-9)

    def test_zero_probability_outcome_raises(self):
        grid = uniform_prior(GRID).grid
        dead = SphereDistribution(grid, np.zeros(grid.size))
        with pytest.raises(DegenerateUpdateError):
            bayes_update(dead, Z, +1)

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            bayes_update(uniform_prior(GRID), Z, 0)

    def test_zero_probability_row_fails_the_batch(self):
        grid = SphereGrid.build(8)
        values = np.full((3, grid.size), 1.0 / (4.0 * math.pi))
        values[2] = 0.0
        with pytest.raises(DegenerateUpdateError):
            bayes_update(SphereDistribution(grid, values), np.tile(Z, (3, 1)), np.array([1, -1, 1]))

    def test_batch_rows_match_single_updates_exactly(self):
        rng = np.random.default_rng(13)
        dirs = random_direction(rng.random((4, 2)))
        outcomes = np.array([1, -1, -1, 1])
        prior = uniform_prior(moment_grid(6))
        batch = SphereDistribution(prior.grid, np.tile(prior.values, (4, 1)))
        for _ in range(3):
            batch = bayes_update(batch, dirs, outcomes)
        for row, (m, o) in enumerate(zip(dirs, outcomes)):
            single = prior
            for _ in range(3):
                single = bayes_update(single, m, o)
            np.testing.assert_array_equal(batch.values[row], single.values)
            np.testing.assert_array_equal(batch.mean_vector()[row], single.mean_vector())
            np.testing.assert_array_equal(batch.second_moment()[row], single.second_moment())

    @pytest.mark.parametrize("rows", [None, 2, 6])
    def test_second_moment_in_c_order(self, rows):
        # Q is laid out in C order where it is made, so that every stacked
        # product over its rows reads each 3 x 3 matrix contiguously
        batch = TestOptimalNextDirection._updated_batch(rows or 1, 21)
        dist = batch if rows else SphereDistribution(batch.grid, batch.values[0])
        q = dist.second_moment()
        assert q.shape == dist.values.shape[:-1] + (3, 3) and q.flags.c_contiguous
        for row, values in enumerate(dist.values.reshape(-1, batch.grid.size)):
            lone = SphereDistribution(batch.grid, values).second_moment()
            assert q.reshape(-1, 3, 3)[row].tobytes() == lone.tobytes()


class TestFidelityAndEstimate:
    def test_uniform_map_constant_half(self):
        # F(n) = (1 + n.S)/2 for every candidate n, and S = 0
        candidates = fibonacci_sphere(49)
        fmap = 0.5 * (1.0 + candidates @ uniform_prior(GRID).mean_vector())
        np.testing.assert_allclose(fmap, 0.5, atol=1e-12)

    def test_uniform_estimate_tie_broken_to_first_node(self):
        prior = uniform_prior(GRID)
        direction, f_opt = estimate_state(prior)
        np.testing.assert_allclose(direction, prior.grid.units[0], atol=1e-15)
        assert f_opt == pytest.approx(0.5, abs=1e-12)

    def test_estimate_after_one_z_result(self):
        post = bayes_update(uniform_prior(GRID), Z, +1)
        direction, f_opt = estimate_state(post)
        np.testing.assert_allclose(direction, Z, atol=1e-9)
        assert f_opt == pytest.approx(2.0 / 3.0, abs=2e-3)

    def test_concentrated_density_estimate(self):
        grid = uniform_prior(GRID).grid
        rng = np.random.default_rng(4)
        m = random_direction(rng.random(2))
        values = np.exp(500.0 * (grid.units @ m - 1.0))
        dist = SphereDistribution(grid, values / grid.integrate(values))
        direction, f_opt = estimate_state(dist)
        assert float(direction @ m) > 0.999
        assert f_opt > 0.99

    def test_argmax_invariant_under_scaling(self):
        rng = np.random.default_rng(5)
        dist = uniform_prior(GRID)
        for _ in range(4):
            dist = bayes_update(dist, random_direction(rng.random(2)), rng.choice([-1, 1]))
        scaled = SphereDistribution(dist.grid, dist.values * 7.3)
        d1, _ = estimate_state(dist)
        d2, _ = estimate_state(scaled)
        np.testing.assert_allclose(d1, d2, atol=1e-14)


class TestExpectedMeanFidelity:
    def test_uniform_prior_gives_two_thirds(self):
        prior = uniform_prior(GRID)
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_direction(rng.random(2))
            assert expected_mean_fidelity(prior, m) == pytest.approx(2.0 / 3.0, abs=2e-3)

    def test_second_measurement_closed_form(self):
        post = bayes_update(uniform_prior(GRID), Z, +1)
        for alpha in np.linspace(0.0, math.pi, 10):
            m = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
            want = 0.5 + math.cos(alpha / 2 - math.pi / 4) / math.sqrt(18.0)
            assert expected_mean_fidelity(post, m) == pytest.approx(want, abs=5e-3)

    def test_repeating_the_axis_gains_nothing(self):
        post = bayes_update(uniform_prior(GRID), Z, +1)
        assert expected_mean_fidelity(post, Z) == pytest.approx(2.0 / 3.0, abs=5e-3)

    def test_antipode_swap_invariance(self):
        rng = np.random.default_rng(7)
        dist = bayes_update(uniform_prior(GRID), random_direction(rng.random(2)), +1)
        for _ in range(10):
            m = random_direction(rng.random(2))
            assert expected_mean_fidelity(dist, m) == pytest.approx(
                expected_mean_fidelity(dist, -m), abs=1e-12)


class TestOptimalNextDirection:
    def test_flat_objective_returns_canonical_z(self):
        prior = uniform_prior(GRID)
        direction = optimal_next_direction(prior)
        np.testing.assert_allclose(direction, Z, atol=1e-15)
        # flatness: the objective really is constant over the sphere
        values = [expected_mean_fidelity(prior, m) for m in fibonacci_sphere(400)]
        assert max(values) - min(values) < 1e-6

    def test_second_direction_orthogonal_to_first(self):
        post = bayes_update(uniform_prior(GRID), Z, +1)
        m2 = optimal_next_direction(post)
        assert abs(m2 @ Z) < 0.05

    def test_third_direction_orthogonal_to_both(self):
        post = bayes_update(bayes_update(uniform_prior(GRID), Z, +1), X, +1)
        m3 = optimal_next_direction(post)
        assert abs(m3 @ Z) < 0.05
        assert abs(m3 @ X) < 0.05
        assert abs(abs(m3 @ Y) - 1.0) < 2.5e-3   # within 0.05 rad of +/-y
        want = 0.5 + 1.0 / math.sqrt(12.0)
        assert expected_mean_fidelity(post, m3) == pytest.approx(want, abs=5e-3)

    @staticmethod
    def _updated_batch(rows, seed, updates=3):
        rng = np.random.default_rng(seed)
        prior = uniform_prior(moment_grid(12))
        batch = SphereDistribution(prior.grid, np.tile(prior.values, (rows, 1)))
        for _ in range(updates):
            batch = bayes_update(batch, random_direction(rng.random((rows, 2))),
                                 rng.choice([-1, 1], size=rows))
        return batch

    def test_batch_search_matches_single_searches_exactly(self):
        batch = self._updated_batch(25, 14)
        lone = np.array([optimal_next_direction(SphereDistribution(batch.grid, row))
                         for row in batch.values])
        for rows in (slice(0, 3), slice(None), slice(22, 25)):
            part = SphereDistribution(batch.grid, batch.values[rows])
            axes = optimal_next_direction(part)
            assert axes.shape == (len(part.values), 3)
            np.testing.assert_array_equal(axes, lone[rows])
        for row in range(5):
            single = SphereDistribution(batch.grid, batch.values[row])
            np.testing.assert_array_equal(lone[row], optimal_next_direction(single))

    def test_flat_rows_get_z_and_the_others_their_lone_axes(self):
        updated = self._updated_batch(3, 16)
        flat = uniform_prior(updated.grid).values
        mixed = SphereDistribution(updated.grid, np.array(
            [flat, updated.values[0], flat, updated.values[1], updated.values[2], flat]))
        axes = optimal_next_direction(mixed)
        for row in (0, 2, 5):
            np.testing.assert_array_equal(axes[row], Z)
        for row, source in ((1, 0), (3, 1), (4, 2)):
            single = SphereDistribution(updated.grid, updated.values[source])
            np.testing.assert_array_equal(axes[row], optimal_next_direction(single))

    @pytest.mark.parametrize("with_flat_rows", [False, True])
    def test_stopped_rows_keep_their_axis(self, monkeypatch, with_flat_rows):
        # the rows stop after different numbers of Newton steps; a stopped
        # row stays in the batch, masked, and its axis must not move again.
        # Flat rows take no step, so the recorded rows are the others
        updated = self._updated_batch(25, 14)
        values = updated.values
        if with_flat_rows:
            flat = uniform_prior(updated.grid).values
            values = np.insert(values, [0, 7, 25], flat, axis=0)
        seen, newton = [], estimation._newton_step

        def recording(m, grad, hess):
            step = newton(m, grad, hess)
            seen.append((m.copy(), np.linalg.norm(step, axis=1)))
            return step

        monkeypatch.setattr(estimation, "_newton_step", recording)
        axes = optimal_next_direction(SphereDistribution(updated.grid, values))
        if with_flat_rows:
            np.testing.assert_array_equal(axes[[0, 8, 27]], np.broadcast_to(Z, (3, 3)))
            axes = np.delete(axes, [0, 8, 27], axis=0)
        m = np.array([iterate for iterate, _ in seen])          # (iterates, rows, 3)
        short = np.array([length for _, length in seen]) < estimation._STOP_STEP
        assert m.shape[1] == len(axes)
        # the iterate whose step is a row's last
        last = np.where(short.any(axis=0), short.argmax(axis=0), len(seen))
        checked = last + 1 < len(seen)
        assert len(set(last[checked])) >= 2, last
        for row in np.flatnonzero(checked):
            kept = m[last[row] + 1:, row]
            assert kept.tobytes() == np.tile(kept[0], (len(kept), 1)).tobytes(), row
            assert axes[row].tobytes() == estimation._upper_hemisphere(kept[:1]).tobytes(), row

    def test_gap_to_dense_sweep(self):
        # Fbar reached by the sweep-plus-Newton search against the best of a
        # 200 000-point Fibonacci sweep, over 10 states x 12 adaptive steps
        n_states, n_steps = 10, 12
        rng = np.random.default_rng(15)
        truth = random_direction(rng.random((n_states, 2)))
        dense = fibonacci_sphere(200_000)
        prior = uniform_prior(moment_grid(n_steps))
        dist = SphereDistribution(prior.grid, np.tile(prior.values, (n_states, 1)))
        worst = 0.0
        for _ in range(n_steps):
            axes = optimal_next_direction(dist)
            for row in range(n_states):
                single = SphereDistribution(dist.grid, dist.values[row])
                s_bar, q = single.mean_vector(), single.second_moment()
                qm = dense @ q.T
                sq = np.einsum("ij,ij->i", qm, qm) + s_bar @ s_bar
                cross = 2.0 * (qm @ s_bar)
                best = 0.5 + 0.25 * np.max(np.sqrt(sq + cross)
                                           + np.sqrt(np.maximum(sq - cross, 0.0)))
                worst = max(worst, best - expected_mean_fidelity(single, axes[row]))
            p_plus = 0.5 * (1.0 + np.sum(truth * axes, axis=1))
            dist = bayes_update(dist, axes, np.where(rng.random(n_states) < p_plus, 1, -1))
        assert worst < 1e-12, worst

    @pytest.mark.parametrize("outcome", [1, -1])
    def test_second_axis_on_the_equator_on_any_grid(self, outcome):
        # after one z result the optima form the equator; the Newton step
        # reaches it and does not wander along it, so a grid whose moments
        # differ only in roundoff gives the same axis
        axes = [optimal_next_direction(bayes_update(uniform_prior(grid), Z, outcome))
                for grid in (moment_grid(12), GRID)]
        np.testing.assert_allclose(axes[0], axes[1], rtol=0, atol=1e-12)
        assert abs(axes[0][2]) <= 1e-12 and abs(axes[1][2]) <= 1e-12

    def test_upper_hemisphere_canonicalization(self):
        # the objective is antipode-even, so the returned representative
        # always sits in (or on the edge of) the upper hemisphere
        rng = np.random.default_rng(8)
        dist = uniform_prior(GRID)
        for _ in range(6):
            dist = bayes_update(dist, random_direction(rng.random(2)), int(rng.choice([-1, 1])))
            assert optimal_next_direction(dist)[2] >= -1e-12


class TestNewtonStepOracle:
    """The axis search's closed-form Newton step against the eigh-based step
    (oracles.newton_step_oracle), on the (m, g, H) of every Newton iterate
    of the searches: the same step and the same stop decisions.

    Near an optimum the tangent gradient P g is a small difference of the
    whole gradient g, which either route rounds only to ~eps |g|.  So a
    step is compared to 1e-12 of |g| / |c|, the step the whole gradient
    would take along the flattest curvature c the row uses: 1e-12 relative
    for a step that large, and exactly zero for a row that uses none."""

    @staticmethod
    def iterates(monkeypatch, searches):
        """(m, g, H) of every Newton iterate of the searches, stacked by row."""
        seen = []
        step = estimation._newton_step

        def recording(m, grad, hess):
            seen.append((m.copy(), grad.copy(), hess.copy()))
            return step(m, grad, hess)

        with monkeypatch.context() as patch:
            patch.setattr(estimation, "_newton_step", recording)
            for dist in searches:
                optimal_next_direction(dist)
        return tuple(np.concatenate(part) for part in zip(*seen))

    @staticmethod
    def assert_same_steps(m, grad, hess):
        """Returns each row's stop decision and tangent curvatures."""
        got = estimation._newton_step(m, grad, hess)
        want, curv = newton_step_oracle(m, grad, hess)
        flattest = np.where(curv < estimation._CURVATURE, curv, -np.inf).max(axis=1)
        tolerance = 1e-12 * np.linalg.norm(grad[..., 0], axis=1) / np.abs(flattest)
        gap = np.linalg.norm(got - want, axis=1)
        assert (gap <= tolerance).all(), np.max(gap / np.maximum(tolerance, 1e-300))
        going = np.linalg.norm(got, axis=1) >= estimation._STOP_STEP
        np.testing.assert_array_equal(
            going, np.linalg.norm(want, axis=1) >= estimation._STOP_STEP)
        return going, curv

    @pytest.mark.parametrize("seed", [3, 14, 16])
    def test_random_batches_match_the_eigh_step(self, monkeypatch, seed):
        batch = TestOptimalNextDirection._updated_batch(25, seed)
        going, _ = self.assert_same_steps(*self.iterates(monkeypatch, [batch]))
        assert going.any() and not going.all()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_self_learning_trees_match_the_eigh_step(self, monkeypatch, n):
        # every posterior of the n-step tree (the N = 1 tree searches only
        # the flat prior, which takes no Newton step)
        searches = list(_self_learning_levels(n))
        going, _ = self.assert_same_steps(*self.iterates(monkeypatch, searches))
        assert going.any() and not going.all()

    @pytest.mark.parametrize("outcome", [1, -1])
    def test_ring_after_one_z_result_matches_the_eigh_step(self, monkeypatch, outcome):
        # the optima form the equator: one tangent curvature is ~0 and unused
        searches = [bayes_update(uniform_prior(grid), Z, outcome)
                    for grid in (moment_grid(12), GRID)]
        going, curv = self.assert_same_steps(*self.iterates(monkeypatch, searches))
        assert going.any()
        np.testing.assert_array_equal((curv < estimation._CURVATURE).sum(axis=1), 1)
        assert np.sort(np.abs(curv), axis=1)[:, :2].max() < 1e-6

    @pytest.mark.parametrize("spread", [0.0, 1e-14, 1e-10, 1e-6])
    @pytest.mark.parametrize("curvature", [-0.3, 0.3])
    def test_near_isotropic_hessian_matches_the_eigh_step(self, curvature, spread):
        # both tangent curvatures within ~spread of `curvature`: both used or neither
        rng = np.random.default_rng(17)
        m = random_direction(rng.random((50, 2)))
        grad = 0.1 * rng.normal(size=(50, 3, 1))
        sym = rng.normal(size=(50, 3, 3))
        hess = (curvature + m[:, None, :] @ grad) * np.eye(3) + spread * (sym + sym.swapaxes(1, 2))
        going, curv = self.assert_same_steps(m, grad, hess)
        assert going.all() if curvature < 0 else not going.any()
        assert np.sort(np.abs(curv - curvature), axis=1)[:, 1].max() < 1e-5


class TestSweepObjectiveOracle:
    """The axis search's sweep objective, built from |S|^2, m.Q^2 m and
    QS.m, against its component form (oracles.sweep_objective_oracle):
    within 2e-15 at every sweep axis, and maximize_on_sphere picks the same
    axis and flat flag from both."""

    @staticmethod
    def assert_same_sweep(monkeypatch, dist):
        objectives = []
        search = estimation.maximize_on_sphere

        def capturing(objective):
            objectives.append(objective)
            return search(objective)

        with monkeypatch.context() as patch:
            patch.setattr(estimation, "maximize_on_sphere", capturing)
            optimal_next_direction(dist)
        got, want = objectives[0], sweep_objective_oracle(dist)
        dirs = fibonacci_sphere(sphere.SWEEP_POINTS)
        np.testing.assert_allclose(got(dirs), want(dirs), rtol=0, atol=2e-15)
        for picked, oracle_picked in zip(search(got), search(want)):
            np.testing.assert_array_equal(picked, oracle_picked)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_self_learning_trees_match_the_component_form(self, monkeypatch, n):
        for level in _self_learning_levels(n):
            self.assert_same_sweep(monkeypatch, level)

    @pytest.mark.parametrize("updates", [1, 3, 12])
    @pytest.mark.parametrize("seed", [3, 14])
    def test_random_batches_match_the_component_form(self, monkeypatch, updates, seed):
        # random axes and outcomes, which the trees' searched axes do not cover
        batch = TestOptimalNextDirection._updated_batch(25, seed, updates)
        self.assert_same_sweep(monkeypatch, batch)

    def test_point_mass_on_a_sweep_axis_is_flat(self):
        # at m = u0, |S - Q m|^2 = |S|^2 + m.Q^2 m - 2 QS.m is 1 + 1 - 2 in
        # roundoff, and may round below zero; Fbar = 1 at every axis
        sweep = fibonacci_sphere(sphere.SWEEP_POINTS)
        grid = SphereGrid(weights=np.full(len(sweep), 4 * math.pi / len(sweep)), units=sweep)
        with np.errstate(all="raise"):
            axes = optimal_next_direction(SphereDistribution(grid, np.eye(len(sweep))))
        np.testing.assert_array_equal(axes, np.broadcast_to(Z, axes.shape))


class TestSweepPick:
    """maximize_on_sphere returns each row's first sweep axis within
    1e-12 of the row's maximum, so that roundoff cannot order a tie."""

    @staticmethod
    def pick(rows):
        values = np.array(rows)

        def objective(dirs):
            assert dirs.shape == (sphere.SWEEP_POINTS, 3)
            return values
        direction, flat = sphere.maximize_on_sphere(objective)
        sweep = fibonacci_sphere(sphere.SWEEP_POINTS)
        return [int(np.flatnonzero((sweep == d).all(axis=1))[0]) for d in direction], flat

    @staticmethod
    def row(peaks):
        values = np.full(sphere.SWEEP_POINTS, 0.6)
        values[list(peaks)] = list(peaks.values())
        return values

    def test_first_of_two_axes_within_1e_13_of_the_max(self):
        rows = [self.row({5: 0.9 - 1e-13, 9: 0.9}), self.row({5: 0.9, 9: 0.9 - 1e-13}),
                self.row({5: 0.9, 9: 0.9})]
        picked, flat = self.pick(rows)
        assert picked == [5, 5, 5] and not flat.any()

    def test_an_earlier_axis_1e_11_below_the_max_is_not_chosen(self):
        picked, flat = self.pick([self.row({5: 0.9 - 1e-11, 9: 0.9})])
        assert picked == [9] and not flat.any()

    def test_a_constant_objective_is_flagged_flat(self):
        picked, flat = self.pick([np.full(sphere.SWEEP_POINTS, 0.75), self.row({3: 0.7})])
        assert flat.tolist() == [True, False] and picked == [0, 3]


class TestHemisphereRule:
    """Which axis of each antipodal pair is returned: the sign of
    sign(snapped) . (1, 2, 4), snapped zeroing components within 1e-9 of
    zero, against the lexicographic rule (z, then y, then x) as reference."""

    ABOVE = np.nextafter(1e-9, 1.0)       # the first magnitude not snapped to zero

    @staticmethod
    def lexicographic(axes):
        x, y, z = np.where(np.abs(axes) <= 1e-9, 0.0, axes).T
        lower = (z < 0) | ((z == 0) & ((y < 0) | ((y == 0) & (x < 0))))
        return np.where(lower[:, None], -axes, axes)

    def test_matches_the_lexicographic_rule_at_its_edges(self):
        edges = [1e-9, -1e-9, self.ABOVE, -self.ABOVE, 0.0, -0.0, 0.6, -0.6]
        axes = np.array(list(itertools.product(edges, repeat=3)))
        got = estimation._upper_hemisphere(axes)
        # bytes, so that a -0.0 for a 0.0 counts as a difference
        assert got.tobytes() == self.lexicographic(axes).tobytes()
        # the 4^3 rows that snap to zero stay; half of the others flip
        assert np.count_nonzero(np.any(got != axes, axis=1)) == (len(axes) - 4**3) // 2

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0],
                                     [-1e-9, -1e-9, -1e-9], [1e-9, -0.0, -1e-9]])
    def test_a_row_snapped_to_zero_is_kept_as_it_is(self, row):
        axes = np.array([row])
        assert estimation._upper_hemisphere(axes).tobytes() == axes.tobytes()

    @pytest.mark.parametrize("row, want", [
        ([-ABOVE, 0.0, 1e-9], [ABOVE, -0.0, -1e-9]),
        ([0.3, -ABOVE, -1e-9], [-0.3, ABOVE, 1e-9]),
        ([0.3, 0.2, -ABOVE], [-0.3, -0.2, ABOVE]),
        ([-0.3, -0.2, ABOVE], [-0.3, -0.2, ABOVE]),
    ])
    def test_first_component_past_1e9_decides(self, row, want):
        got = estimation._upper_hemisphere(np.array([row]))
        assert got.tobytes() == np.array([want]).tobytes()


class TestKeptSweepsAndGrids:
    """fibonacci_sphere, moment_grid and sweep_monomials hand out read-only
    arrays, kept by functools.cache, that equal a fresh build bit for bit."""

    def test_sweep_axes_kept_read_only(self):
        pts = fibonacci_sphere(sphere.SWEEP_POINTS)
        assert fibonacci_sphere(sphere.SWEEP_POINTS) is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
        sphere._kept_spiral.cache_clear()
        fresh = fibonacci_sphere(sphere.SWEEP_POINTS)
        assert fresh is not pts
        assert fresh.tobytes() == pts.tobytes()

    def test_moment_grid_kept_read_only(self):
        grid = moment_grid(12)
        assert moment_grid(12) is grid and moment_grid(13) is grid   # both 8x16
        assert not grid.weights.flags.writeable and not grid.units.flags.writeable
        with pytest.raises(ValueError):
            grid.units[0, 0] = 0.0
        sphere._kept_grid.cache_clear()
        fresh = moment_grid(12)
        assert fresh is not grid
        built = SphereGrid.build(8)
        for other in (fresh, built):
            assert other.weights.tobytes() == grid.weights.tobytes()
            assert other.units.tobytes() == grid.units.tobytes()

    @pytest.mark.parametrize("direct", [False, True])
    def test_grid_monomials_kept_read_only(self, direct):
        grid = moment_grid(12)
        if direct:      # a grid built without SphereGrid.build gets the table too
            grid = SphereGrid(np.array(grid.weights), np.array(grid.units))
        table = grid.monomials
        assert grid.monomials is table and not table.flags.writeable
        w, u = grid.weights, grid.units
        pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        expected = np.stack([w * u[:, i] * u[:, j] for i, j in pairs], axis=-1)
        assert table.shape == (grid.size, 6) and table.tobytes() == expected.tobytes()

    def test_sweep_monomials_kept_read_only(self):
        pts = fibonacci_sphere(sphere.SWEEP_POINTS)
        table = sphere.sweep_monomials()
        assert sphere.sweep_monomials() is table and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        expected = np.stack([pts[:, i] * pts[:, j] for i, j in pairs])
        assert table.shape == (6, len(pts)) and table.tobytes() == expected.tobytes()
        # the memory layout of the per-search build, so that products with it round alike
        layout = (pts[:, [0, 0, 0, 1, 1, 2]] * pts[:, [0, 1, 2, 1, 2, 2]]).T.strides
        assert table.strides == layout
        sphere.sweep_monomials.cache_clear()
        fresh = sphere.sweep_monomials()
        assert fresh is not table and fresh.tobytes() == table.tobytes()
        assert fresh.strides == layout

    def test_search_builds_no_table(self):
        # a search after the first finds the sweep, its monomials and the grid kept
        batch = TestOptimalNextDirection._updated_batch(3, 8)
        optimal_next_direction(batch)
        kept = (sphere._kept_spiral, sphere.sweep_monomials, sphere._kept_grid)
        misses = [memo.cache_info().misses for memo in kept]
        optimal_next_direction(TestOptimalNextDirection._updated_batch(3, 8))
        assert [memo.cache_info().misses for memo in kept] == misses

    @pytest.mark.parametrize("rows", [None, 5])
    def test_integral_evaluated_once_per_snapshot(self, monkeypatch, rows):
        batch = TestOptimalNextDirection._updated_batch(5, 8)
        values = batch.values[0] if rows is None else batch.values
        integrate, calls = SphereGrid.integrate, []

        def counted(grid, v):
            calls.append(v)
            return integrate(grid, v)

        monkeypatch.setattr(SphereGrid, "integrate", counted)
        for dist in (SphereDistribution(batch.grid, values),
                     SphereDistribution._own(batch.grid, values.copy())):
            calls.clear()
            optimal_next_direction(dist)
            dist.mean_vector(), dist.second_moment()
            assert len(calls) == 1 and calls[0] is dist.values
            assert np.asarray(dist.integral).tobytes() == \
                np.asarray(integrate(dist.grid, dist.values)).tobytes()
            if rows is None:
                assert isinstance(dist.integral, float)
            else:
                assert dist.integral.shape == (rows,) and not dist.integral.flags.writeable

    def test_large_one_off_builds_not_kept(self):
        # the 200 000-point sweep of test_gap_to_dense_sweep, and a grid
        # above 4096 nodes, are freed once their caller drops them
        kept = (sphere._kept_spiral, sphere._kept_grid)
        sizes = [memo.cache_info().currsize for memo in kept]
        for build in (lambda: fibonacci_sphere(200_000), lambda: moment_grid(200)):
            ref = weakref.ref(build())
            gc.collect()
            assert ref() is None
        assert [memo.cache_info().currsize for memo in kept] == sizes


class TestBenchmarkSpanCoverage:
    """perfbench's traced runs time the axis search by wrapping, from
    outside, the module global `sphere.fibonacci_sphere`, the moment
    methods of SphereDistribution and the `objective` passed to
    `maximize_on_sphere`; a cache or an inlined copy that bypassed them
    would leave those spans empty."""

    def test_axis_search_calls_the_wrapped_functions(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        search = estimation.maximize_on_sphere

        def counted_search(*args, **kwargs):
            # the harness reads the objective as the first argument
            objective = args[0] if args else kwargs["objective"]

            def counted_objective(dirs):
                calls["dirs"] += len(dirs)
                return objective(dirs)

            calls["maximize_on_sphere"] += 1
            return search(counted_objective, *args[1:], **kwargs)

        assert list(inspect.signature(search).parameters)[0] == "objective"
        monkeypatch.setattr(sphere, "fibonacci_sphere",
                            counting("fibonacci_sphere", sphere.fibonacci_sphere))
        for method in ("mean_vector", "second_moment"):
            monkeypatch.setattr(SphereDistribution, method,
                                counting(method, getattr(SphereDistribution, method)))
        monkeypatch.setattr(estimation, "maximize_on_sphere", counted_search)
        monkeypatch.setattr(estimation, "optimal_next_direction",
                            counting("optimal_next_direction", optimal_next_direction))

        batch = TestOptimalNextDirection._updated_batch(4, 3)
        lone = optimal_next_direction(batch)
        assert calls == Counter(fibonacci_sphere=1, mean_vector=1, second_moment=1,
                                maximize_on_sphere=1, dirs=sphere.SWEEP_POINTS)
        calls.clear()
        n = 5
        run_estimation(np.array([Z, X, Y]), n, seed=[1, 2, 3])
        for name in ("optimal_next_direction", "fibonacci_sphere", "second_moment",
                     "maximize_on_sphere"):
            assert calls[name] == n, name
        assert calls["mean_vector"] == n + 1      # and once for the final estimate
        assert calls["dirs"] == n * sphere.SWEEP_POINTS
        np.testing.assert_array_equal(optimal_next_direction(batch), lone)


class TestImperfections:
    def test_identity_when_ideal(self):
        s = np.array([0.3, -0.2, 0.5])
        np.testing.assert_allclose(_imperfect(0.0)(s), s, atol=1e-15)

    def test_depolarization_shrinks_z(self):
        out = _imperfect(0.1)(Z)
        np.testing.assert_allclose(out, [0, 0, 0.8], atol=1e-15)

    def test_bias_shifts_center(self):
        # lam = delta_eta = 0.05 keeps the map physical; the center moves
        # to 2*delta_eta as in the density-matrix picture
        out = _imperfect(0.05, 0.05)(np.zeros(3))
        np.testing.assert_allclose(out, [0, 0, 0.1], atol=1e-15)

    def test_matches_density_matrix_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            s = random_direction(rng.random(2)) * rng.uniform(0, 1)
            lam = rng.uniform(0, 0.5)
            delta_eta = rng.uniform(-1, 1) * min(0.25, lam)
            got = _imperfect(lam, delta_eta)(s)
            np.testing.assert_allclose(got, imperfection_oracle(s, lam, delta_eta),
                                       atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _imperfect(0.6)
        assert not _imperfect(0.1, 0.3).is_physical()
        # image of a pure state would leave the unit ball
        assert not _imperfect(0.0, 0.05).is_physical()
        assert _imperfect(0.05, 0.05).is_physical()

    def test_output_ball_check(self):
        with pytest.raises(ValueError):
            _imperfect(0.05, 0.05)(np.array([0.0, 0.0, 1.4]))


class TestRunEstimation:
    # run_estimation applies Born's rule to its own unit axes without the
    # public check; the public born_probability must draw the same outcomes
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("channel", [None, _imperfect(0.1, 0.05)], ids=["ideal", "noisy"])
    def test_outcomes_follow_public_born_probability(self, strategy, channel):
        n, seeds = 9, list(range(40, 52))
        targets = random_direction(np.random.default_rng(3).random((len(seeds), 2)))
        _, _, directions, outcomes = run_estimation(targets, n, strategy, channel, seed=seeds)
        transmitted = targets if channel is None else channel(targets)
        draws = 3 if strategy == "random" else 1
        for state, seed in enumerate(seeds):
            uniforms = np.random.default_rng(seed).random((n, draws))[:, -1]
            expected = [1 if u < born_probability(transmitted[state], m) else -1
                        for u, m in zip(uniforms, directions[state])]
            assert outcomes[state].tolist() == expected

    def test_returns_consistent_record(self):
        estimate, fidelity, directions, outcomes = run_estimation(
            state_from_angles(3 * math.pi / 4, math.pi / 4), n=12, strategy="self_learning",
            seed=42)
        assert directions.shape == (12, 3)
        assert set(np.unique(outcomes)) <= {-1, 1}
        assert 0.0 <= fidelity <= 1.0
        assert abs(np.linalg.norm(estimate) - 1.0) < 1e-9

    def test_reproducible(self):
        a = run_estimation(state_from_angles(1.0, 2.0), n=6, strategy="self_learning", seed=5)
        b = run_estimation(state_from_angles(1.0, 2.0), n=6, strategy="self_learning", seed=5)
        np.testing.assert_array_equal(a[3], b[3])
        np.testing.assert_allclose(a[0], b[0], atol=0)

    def test_fixed_axes_cycle(self):
        _, _, directions, _ = run_estimation(state_from_angles(0.3, 0.0), n=6,
                                             strategy="fixed_axes", seed=1)
        np.testing.assert_allclose(directions[:3], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(directions[3:], np.eye(3), atol=1e-15)

    def test_single_measurement_mean_is_two_thirds(self):
        n_states = 4000
        mean, stderr, _ = mean_fidelity_experiment(n_states, 1, "random", seed=10)
        assert abs(mean - 2.0 / 3.0) < 4 * stderr

    def test_batch_returns_one_row_per_state(self):
        targets = random_direction(np.array([np.random.default_rng(i).random(2) for i in range(3)]))
        estimates, fidelities, directions, outcomes = run_estimation(targets, n=4, seed=[1, 2, 3])
        assert estimates.shape == (3, 3) and fidelities.shape == (3,)
        assert directions.shape == (3, 4, 3) and outcomes.shape == (3, 4)
        for row in range(3):
            estimate, fidelity, _, _ = run_estimation(targets[row], n=4, seed=row + 1)
            np.testing.assert_array_equal(estimates[row], estimate)
            assert fidelities[row] == fidelity
        with pytest.raises(ValueError):
            run_estimation(targets, n=4, seed=[1, 2])

    @pytest.mark.parametrize("strategy, draws", [("self_learning", 1), ("fixed_axes", 1),
                                                 ("random", 3)])
    def test_generator_ends_where_its_draws_end(self, strategy, draws):
        # n outcome uniforms per stream, and under random two axis uniforms
        # before each of them
        n = 5
        seeds = [np.random.default_rng(60 + row) for row in range(3)]
        targets = random_direction(
            np.array([np.random.default_rng(row).random(2) for row in range(3)]))
        run_estimation(targets, n, strategy, seed=seeds)
        lone = np.random.default_rng(63)
        run_estimation(targets[0], n, strategy, seed=lone)
        for rng, ref_seed in zip(seeds + [lone], (60, 61, 62, 63)):
            ref = np.random.default_rng(ref_seed)
            ref.random(draws * n)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("strategy", ["self_learning", "fixed_axes", "random"])
    def test_repeated_generator_is_drawn_state_by_state(self, strategy):
        # one Generator for every state: each state takes its draws in turn
        n = 4
        targets = random_direction(
            np.array([np.random.default_rng(row).random(2) for row in range(3)]))
        batch = run_estimation(targets, n, strategy, seed=[np.random.default_rng(64)] * 3)
        lone_rng = np.random.default_rng(64)
        for row, target in enumerate(targets):
            lone = run_estimation(target, n, strategy, seed=lone_rng)
            np.testing.assert_array_equal(batch[2][row], lone[2])
            np.testing.assert_array_equal(batch[3][row], lone[3])

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            run_estimation(state_from_angles(0.2, 0.1), n=2, strategy="bogus", seed=0)
        with pytest.raises(ValueError):
            run_estimation(state_from_angles(0.2, 0.1), n=0, strategy="self_learning", seed=0)

    @pytest.mark.parametrize("n, strategy", [(0, "self_learning"), (12, "bogus")])
    def test_ensemble_rejects_bad_run_before_drawing(self, monkeypatch, n, strategy):
        def draw(uniforms):
            raise AssertionError("a state was drawn")
        monkeypatch.setattr("ionqsim.estimation.random_direction", draw)
        master = np.random.default_rng(3)
        before = master.bit_generator.state
        with pytest.raises(ValueError):
            mean_fidelity_experiment(10, n, strategy, seed=master)
        assert master.bit_generator.state == before


class TestEnsembleProperties:
    def test_rotational_covariance(self):
        rng = np.random.default_rng(11)
        base_dirs = random_direction(rng.random((5, 2)))
        outcomes = [int(rng.choice([-1, 1])) for _ in range(5)]
        for _ in range(20):
            axis = random_direction(rng.random(2))
            angle = rng.uniform(0, 2 * math.pi)
            rot = rotate(np.eye(3), axis, angle).T
            dist, dist_r = uniform_prior(GRID), uniform_prior(GRID)
            for m, o in zip(base_dirs, outcomes):
                dist = bayes_update(dist, m, o)
                dist_r = bayes_update(dist_r, rot @ m, o)
            e, _ = estimate_state(dist)
            e_r, _ = estimate_state(dist_r)
            np.testing.assert_allclose(e_r, rot @ e, atol=1e-9)

    def test_fidelity_bound_small_n(self):
        for n, states in ((1, 600), (2, 600), (3, 400)):
            mean, stderr, _ = mean_fidelity_experiment(states, n, "self_learning", seed=20 + n)
            assert mean <= optimal_fidelity_bound(n) + 3 * stderr

    def test_mean_fidelity_experiment_reproducible(self):
        m1, s1, f1 = mean_fidelity_experiment(50, 3, "random", seed=33)
        m2, s2, f2 = mean_fidelity_experiment(50, 3, "random", seed=33)
        assert m1 == m2 and s1 == s2
        np.testing.assert_array_equal(f1, f2)

    def test_imperfections_lower_fidelity(self):
        ideal, _, _ = mean_fidelity_experiment(200, 6, "self_learning", seed=44)
        noisy, _, _ = mean_fidelity_experiment(
            200, 6, "self_learning", _imperfect(0.2), seed=44)
        assert noisy < ideal


class TestExactOutcomeTree:
    """The exact ensemble mean over all 2^N outcome strings (no Monte Carlo)
    for the two strategies whose axes depend on past outcomes alone."""

    SHARED = ("self_learning", "fixed_axes")

    @pytest.fixture(scope="class")
    def exact(self):
        return {(strategy, n): exact_mean_fidelity_oracle(n, strategy)
                for strategy in self.SHARED for n in range(1, 13)}

    @pytest.mark.parametrize("strategy", SHARED)
    def test_first_three_measurements_closed_forms(self, exact, strategy):
        for n, want in ((1, 2.0 / 3.0), (2, 0.5 + math.sqrt(2.0) / 6.0),
                        (3, 0.5 + 1.0 / math.sqrt(12.0))):
            assert abs(exact[strategy, n] - want) <= 1e-15, (n, exact[strategy, n])

    # a fingerprint of the axis search's tie rule: another maximizer at one
    # level of the tree moves the N = 12 value by ~1e-5
    @pytest.mark.parametrize("strategy, want", [("self_learning", 0.9228183787904757),
                                                ("fixed_axes", 0.9151552420722425)])
    def test_twelve_measurements_pinned(self, exact, strategy, want):
        assert abs(exact[strategy, 12] - want) <= 1e-12, exact[strategy, 12]

    @pytest.mark.parametrize("strategy", SHARED)
    def test_within_the_collective_bound(self, exact, strategy):
        for n in range(1, 13):
            assert exact[strategy, n] <= optimal_fidelity_bound(n) + 1e-12, n

    # the Monte Carlo ensemble of acceptance criterion 5
    @pytest.mark.parametrize("strategy", SHARED)
    def test_monte_carlo_mean_within_four_sigma(self, exact, strategy):
        mean, stderr, _ = mean_fidelity_experiment(1000, 12, strategy, seed=501)
        assert abs(mean - exact[strategy, 12]) <= 4.0 * stderr, (mean, stderr)


def _per_state_reference(num_states, n, strategy, channel, seed):
    """mean_fidelity_experiment's seeding, one run_estimation per state, on 64x128."""
    grid = SphereGrid.build(64)
    fidelities = []
    for state_seed in np.random.default_rng(seed).integers(0, 2**63, size=num_states,
                                                           dtype=np.uint64):
        rng = np.random.default_rng(int(state_seed))
        target = random_direction(rng.random(2))
        fidelities.append(run_estimation(target, n, strategy, channel, seed=rng,
                                         grid=grid)[1])
    return np.array(fidelities)


class TestBatchedEnsemble:
    """The batched ensemble on its sized grid against lone runs on 64x128."""

    CASES = [(kind, n, None) for kind in ("self_learning", "random", "fixed_axes")
             for n in (1, 4, 12)] + [
        ("self_learning", 12, _imperfect(0.1, 0.05))]

    @pytest.mark.parametrize("kind,n,imperfections", CASES)
    def test_matches_per_state_reference(self, kind, n, imperfections):
        seed = 700 + 10 * n + STRATEGIES.index(kind)
        _, _, batched = mean_fidelity_experiment(30, n, kind, imperfections, seed=seed)
        reference = _per_state_reference(30, n, kind, imperfections, seed)
        np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-12)

    def test_chunks_on_a_fine_grid_match_lone_runs(self):
        # 64x128 nodes make mean_fidelity_experiment split 30 states into many chunks
        _, _, batched = mean_fidelity_experiment(30, 12, "self_learning", seed=790,
                                                 grid=SphereGrid.build(64))
        np.testing.assert_array_equal(batched, _per_state_reference(30, 12, "self_learning",
                                                                    None, 790))

    def test_benchmark_reference_ensemble_is_pinned(self):
        # the fixed ensemble from which the benchmark's estimate-self
        # workload computes reference_gap: a change in any of its 400
        # fidelities, however small, fails here and not only there
        fidelities = mean_fidelity_experiment(400, 12, seed=501)[2]
        assert hashlib.sha256(fidelities.tobytes()).hexdigest() == (
            "e8e4f810c80ba5ec9b121a80cfee601fc4101848b46e3f94e71fa5fb125944ce")


class TestSharedOutcomeStrings:
    """Self-learning and fixed axes keep one density per distinct outcome
    string; each state must still get exactly its lone run."""

    @pytest.mark.parametrize("strategy", ["self_learning", "fixed_axes"])
    @pytest.mark.parametrize("channel", [None, compose(depolarizing(0.1),
                                                       affine_shift([0.0, 0.0, 0.1]))])
    def test_repeated_states_match_lone_runs(self, strategy, channel):
        n = 8
        rng = np.random.default_rng(80)
        pairs = [(random_direction(rng.random(2)), int(rng.integers(1000))) for _ in range(10)]
        # 40 states: each (target, seed) pair four times, interleaved
        order = np.random.default_rng(81).permutation(np.repeat(np.arange(10), 4))
        targets = np.array([pairs[i][0] for i in order])
        seeds = [pairs[i][1] for i in order]
        batch = run_estimation(targets, n, strategy, channel, seed=seeds)
        strings = {tuple(row) for row in batch[3]}
        assert len(strings) <= 10
        for row, (target, seed) in enumerate(zip(targets, seeds)):
            lone = run_estimation(target, n, strategy, channel, seed=seed)
            for got, want in zip(batch, lone):
                np.testing.assert_array_equal(got[row], want)


class TestRodrigues:
    def test_matrix_columns_are_rotated_basis_vectors(self):
        rng = np.random.default_rng(41)
        axes = random_direction(rng.random((200, 2)))
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, 200)
        for axis, angle in zip(axes, angles):
            m = rotation_channel(axis, angle).m
            unit = axis / np.linalg.norm(axis)      # as rotation_channel normalizes it
            for j, e in enumerate(np.eye(3)):
                np.testing.assert_array_equal(m[:, j], rotate(e, unit, angle))

    def test_batch_vectors_match_lone_rotations(self):
        rng = np.random.default_rng(42)
        axes = random_direction(rng.random((200, 2)))
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, 200)
        vectors = rng.normal(size=(200, 3))
        batch = rotate(vectors, axes, angles)
        for v, axis, angle, row in zip(vectors, axes, angles, batch):
            np.testing.assert_array_equal(row, rotate(v, axis, float(angle)))
