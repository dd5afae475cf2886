"""Bayesian adaptive (self-learning) qubit state estimation.

The state of knowledge is a probability density w(theta, phi) per unit
solid angle on the Bloch sphere, discretized on a Gauss-Legendre x
uniform-phi product grid.  Measuring along direction m and seeing the
qubit there multiplies w by the overlap |<m|theta,phi>|^2 =
(1 + u.m)/2 (Bayes rule).  The fidelity of a candidate estimate n is
F(n) = integral of w(u) (1 + u.n)/2, which is linear in n, so

    F_opt = (1 + |S|)/2   at direction S/|S|,   S = mean Bloch vector.

Weighting the post-measurement optima by the outcome probabilities
collapses the expected mean fidelity to

    Fbar(m) = 1/2 + (|S + Q m| + |S - Q m|)/4,

with Q the second-moment matrix of w.  Both identities follow from the
Born overlap alone; the moments are evaluated with the grid quadrature.

Densities, updates and the axis search carry a leading batch axis, so an
ensemble of states is estimated in one pass; a single state is the batch
of one, and every batch row rounds exactly as it would on its own.  The
self-learning and fixed-axes strategies choose each axis from the past
outcomes alone, so states that share an outcome string share one
posterior: there the batch rows are the distinct outcome strings so far.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .bloch import Z_PLUS, _born, as_direction
from .sphere import (_PAIR_COL, _PAIR_ROW, SWEEP_POINTS, SphereGrid, _row_dot, _row_norm,
                     maximize_on_sphere, moment_grid, sweep_monomials)
if TYPE_CHECKING:
    from .channels import AffineChannel     # for annotations only

FOUR_PI = 4.0 * math.pi
# mean_fidelity_experiment estimates at most this many states x max(grid
# nodes, coarse search axes) at once, which bounds its working memory.
_CHUNK_SIZE = 1 << 14
# grid monomial u_i u_j of Q's entry (i, j); the sweep counts Q^2's off-diagonal entries twice
_PAIR_OF = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_PAIR_DOUBLE = 1.0 + (_PAIR_ROW != _PAIR_COL)


class DegenerateUpdateError(ArithmeticError):
    """Raised when conditioning on an outcome of (numerically) zero probability."""


@dataclass(frozen=True)
class SphereDistribution:
    """Immutable density snapshot w(theta_k, phi_k) on a quadrature grid.

    values is (K,) for one density or (..., K) for a batch of densities
    on the same grid; integral and the moments then carry the batch axes.
    """

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim < 1 or v.shape[-1] != self.grid.size:
            raise ValueError(f"values shape {v.shape} does not match grid size {self.grid.size}")
        # NaN fails both comparisons, -inf the first and +inf the second
        if v.size and not (v.min() >= -1e-12 and v.max() < math.inf):
            raise ValueError("density values must be finite and non-negative")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @classmethod
    def _own(cls, grid: SphereGrid, values: np.ndarray) -> "SphereDistribution":
        """Read-only snapshot of values just computed from checked ones: no copy, no check."""
        values.flags.writeable = False
        snapshot = object.__new__(cls)
        snapshot.__dict__.update(grid=grid, values=values)
        return snapshot

    @cached_property
    def integral(self):
        """Quadrature of the values, computed once per snapshot and shared by the moments."""
        total = self.grid.integrate(self.values)
        np.asarray(total).flags.writeable = False     # a batch's array; a float is immutable
        return total

    def mean_vector(self) -> np.ndarray:
        """First moment S = <u> of the normalized density, (..., 3)."""
        wv = self.grid.weights * self.values
        s = np.matmul(wv[..., None, :], self.grid.units)[..., 0, :]
        return s / np.asarray(self.integral)[..., None]

    def second_moment(self) -> np.ndarray:
        """Second moment Q = <u u^T> of the normalized density, (..., 3, 3) in
        C order, from the grid's kept `monomials` table and the snapshot's
        shared `integral`."""
        # one stacked (1, K) @ (K, 6) product per row: a batch row rounds as on its own
        q6 = (self.values[..., None, :] @ self.grid.monomials)[..., 0, :]
        # np.take lays its output out in C order; an index gather keeps the row axis innermost
        return np.take(q6 / np.asarray(self.integral)[..., None], _PAIR_OF, axis=-1)


def uniform_prior(grid: SphereGrid) -> SphereDistribution:
    """The ignorance prior w = 1/(4 pi) on the given grid."""
    return SphereDistribution(grid, np.full(grid.size, 1.0 / FOUR_PI))


def bayes_update(dist: SphereDistribution, direction, outcome) -> SphereDistribution:
    """Condition the density on a projective result along `direction`.

    outcome +1 keeps the direction, -1 uses its antipode.  The returned
    snapshot is renormalized.  A batch of B densities takes (B, 3)
    directions and (B,) outcomes, one per row.
    """
    outcome = np.asarray(outcome)
    if not ((outcome == 1) | (outcome == -1)).all():
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    m = outcome[..., None] * as_direction(direction)
    likelihood = 0.5 * (1.0 + (dist.grid.units @ m[..., :, None])[..., 0])
    posterior = dist.values * likelihood
    norm = np.asarray(dist.grid.integrate(posterior))
    if (norm <= 1e-300).any():
        raise DegenerateUpdateError("observed outcome has zero probability under the prior")
    return SphereDistribution._own(dist.grid, posterior / norm[..., None])


def estimate_state(dist: SphereDistribution) -> tuple[np.ndarray, float]:
    """Best estimate and its fidelity F_opt = max F(theta, phi).

    The fidelity map is linear in the candidate direction, so the argmax
    is the normalized posterior mean.  A flat map (|S| ~ 0, e.g. the
    uniform prior) is tie-broken to the first grid node in (theta, phi)
    lexicographic order.  For a batch both results carry its axes.
    """
    s_bar = dist.mean_vector()
    norm = _row_norm(s_bar)
    flat = norm < 1e-12
    direction = np.where(flat[..., None], dist.grid.units[0],
                         s_bar / np.where(flat, 1.0, norm)[..., None])
    fidelity = np.where(flat, 0.5, 0.5 * (1.0 + norm))
    return direction, (float(fidelity) if fidelity.ndim == 0 else fidelity)


# the sweep's best axis takes at most _NEWTON_STEPS steps of at most _TRUST_RADIUS
# rad along curvatures below _CURVATURE; a row stops after one below _STOP_STEP rad
_NEWTON_STEPS, _TRUST_RADIUS, _CURVATURE, _STOP_STEP = 8, 0.3, -1e-9, 1e-5
_EYE = np.eye(3)
_SIGNS = np.array([1.0, -1.0])[:, None, None]
_SIGN_KEY = np.array([1.0, 2.0, 4.0])


def optimal_next_direction(dist: SphereDistribution) -> np.ndarray:
    """Measurement axis maximizing the expected mean fidelity, exact to roundoff.

    The best axis m of a coarse sweep starts projected Newton steps.  With
    a = S + Q m, b = S - Q m and ^ for unit vectors, Fbar has gradient
    g = Q^T (a^ - b^)/4 and Hessian Q^T [(I - a^ a^T)/|a| + (I - b^ b^T)/|b|]
    Q/4 = H, on the sphere M = P H P - (m.g) P with P = I - m m^T.  As m is
    M's null vector, its two tangent curvatures follow in closed form from
    its trace and Frobenius norm, and so does the step (`_newton_step`); no
    eigensolver runs.  Steps follow only the directions of curvature below
    -1e-9, so a ring of optima (as after one z result) is not travelled on
    roundoff.  A flat objective (fresh uniform prior) returns +z.
    Antipodal ties go to the upper hemisphere: the first of z, y, x not
    within 1e-9 of zero is positive.
    A batch gets one (B, 3) row of axes per density, each equal to its lone
    search: a flat row takes no step, and a row that has stopped is masked,
    so that it keeps its axis while the others step.

    Tie rule: Fbar(m) = Fbar(-m), and the hemisphere rule picks one of each
    antipodal pair.  Of other maximizers the search returns the one Newton
    reaches from the first sweep axis (in `fibonacci_sphere` order) whose
    Fbar is within 1e-12 of the sweep's largest, so sweep axes that tie in
    exact arithmetic (the two at +-z of equal |z| after one z result) start
    Newton from the same axis on every BLAS kernel.  Another search that
    reaches the same Fbar may pick another maximizer; the later axes, and
    the ensemble's mean fidelity, change with it.

    The sweep takes |a|^2 and |b|^2 as |S|^2 + m.Q^2 m +- 2 QS.m: one
    (rows, 6) @ (6, 400) product of Q^2's distinct entries with the axes'
    monomials m_i m_j (kept with the sweep), and one (rows, 3) @ (3, 400)
    product for 2 QS.m.
    """
    batch = dist.values.shape[:-1]
    s_bar, q = dist.mean_vector().reshape(-1, 3), dist.second_moment().reshape(-1, 3, 3)
    # Q^2's six distinct entries, the off-diagonal ones doubled, and 2 QS
    q2 = (q @ q)[:, _PAIR_ROW, _PAIR_COL] * _PAIR_DOUBLE
    qs2, s2 = 2.0 * (q @ s_bar[:, :, None])[..., 0], _row_dot(s_bar, s_bar)[:, None]

    def objective(dirs):
        square = q2 @ sweep_monomials() + s2
        cross = qs2 @ dirs.T
        # |a| and |b|; abs turns a roundoff below an exact zero into one above it
        fbar = np.sqrt(np.abs(square + cross))
        fbar += np.sqrt(np.abs(np.subtract(square, cross, out=square), out=square), out=square)
        fbar *= 0.25
        fbar += 0.5
        return fbar

    best, flat = maximize_on_sphere(objective)
    active = np.flatnonzero(~flat)      # flat rows become +z below
    # q^T/4 keeps the memory layout of q's transpose, and with it the
    # products' rounding; a power-of-two factor scales every rounded partial
    # sum exactly, so grad and the Hessian round as with the 1/4 applied after
    m, q_a, s_a = best[active], q[active], s_bar[active]
    q_t4 = 0.25 * q_a.swapaxes(-1, -2)
    # every row keeps its place; one whose step fell below _STOP_STEP keeps its axis
    going = np.ones(len(m), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        if not going.any():
            break
        # a and b stacked (2, rows, 3); S + (-Qm) rounds as S - Qm
        ab = s_a + _SIGNS * (q_a @ m[:, :, None])[..., 0]
        lengths = np.sqrt(ab[..., None, :] @ ab[..., :, None])[..., 0]
        ab /= lengths
        grad = q_t4 @ (ab[0] - ab[1])[:, :, None]
        curve = (_EYE - ab[..., :, None] * ab[..., None, :]) / lengths[..., None]
        hess = q_t4 @ (curve[0] + curve[1]) @ q_a
        step = _newton_step(m, grad, hess)
        length = _row_norm(step)
        moved = m + step * (_TRUST_RADIUS / np.maximum(length, _TRUST_RADIUS))[:, None]
        moved /= _row_norm(moved)[:, None]
        m = np.where(going[:, None], moved, m)
        going &= length >= _STOP_STEP
    best[active] = m
    axes = _upper_hemisphere(best)
    return (np.where(flat[:, None], Z_PLUS, axes) if flat.any() else axes).reshape(batch + (3,))


def _newton_step(m, grad, hess):
    """Newton step (rows, 3) on the sphere at the unit rows m, from Fbar's
    gradient (rows, 3, 1) and Hessian (rows, 3, 3) in R^3.

    M = P H P - (m.g) P has the null vector m, so its tangent curvatures
    lo <= hi follow from t = tr M and f = |M|_F^2 as t/2 -+ sqrt(f/2 - t^2/4).
    The step is -sum v v^T g / c over M's eigendirections v whose curvature
    c is below _CURVATURE: (M - t P) P g / (lo hi) when both are (M's
    inverse on the tangent plane), (M - hi P) P g / ((hi - lo) lo) when only
    lo is (the projector on lo's direction), and zero when neither is.
    """
    mg = m[:, None, :] @ grad
    proj = _EYE - m[:, :, None] * m[:, None, :]
    tangent = proj @ hess @ proj - mg * proj
    flat = tangent.reshape(-1, 9)
    trace = flat[:, 0] + flat[:, 4] + flat[:, 8]
    mid = 0.5 * trace
    # summed elementwise: under some BLAS kernels a dot rounds a batch row by its
    # memory alignment, and so not as the lone row
    half_gap = np.sqrt(np.maximum(0.5 * (flat * flat).sum(axis=-1) - mid * mid, 0.0))
    lo, hi = mid - half_gap, mid + half_gap
    both = hi < _CURVATURE
    shift = np.where(both, trace, hi)
    scale = np.divide(1.0, lo * np.where(both, hi, hi - lo), out=np.zeros(lo.shape),
                      where=lo < _CURVATURE)
    pg = grad[..., 0] - m * mg[:, 0]
    return ((tangent @ pg[:, :, None])[..., 0] - shift[:, None] * pg) * scale[:, None]


def _upper_hemisphere(axes):
    """Rows flipped to the upper hemisphere: a row is below it if sign(snapped) . (1, 2, 4) < 0."""
    snapped = np.where(np.abs(axes) <= 1e-9, 0.0, axes)
    return np.where((np.sign(snapped) @ _SIGN_KEY < 0)[:, None], -axes, axes)


STRATEGIES = ("self_learning", "random", "fixed_axes")

_FIXED_AXES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def random_direction(uniforms) -> np.ndarray:
    """Directions uniform w.r.t. the sphere's area measure, (..., 3) from
    (..., 2) uniforms on [0, 1): the first sets z = 2u - 1 and the second
    the azimuth 2 pi u, as rng.uniform(-1, 1) and rng.uniform(0, 2 pi)
    round them."""
    u = np.asarray(uniforms, dtype=float)
    z = -1.0 + 2.0 * u[..., 0]
    phi = 2.0 * math.pi * u[..., 1]
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _check_strategy(n: int, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def run_estimation(true_state, n: int, strategy: str = "self_learning",
                   channel: "AffineChannel | None" = None,
                   seed=None, grid: SphereGrid | None = None):
    """Estimate one qubit state, or a batch of them, from n single-copy
    measurements each, with a strategy from STRATEGIES.

    Each measurement consumes a fresh copy of the intended pure state
    passed through `channel` (ideal if None; the experiment's
    depolarization lam and detection bias delta_eta are
    compose(depolarizing(lam), affine_shift((0, 0, 2 delta_eta)))); the
    channel call raises ChannelInvalidError for an output outside the
    Bloch ball.  The Bayesian update itself assumes ideal conditions (as
    the experiment's algorithm did).
    Returns (estimate, fidelity, directions, outcomes): the estimated
    Bloch vector, its fidelity cos^2(gamma/2) against the intended pure
    state, the (n, 3) measurement axes and the (n,) outcomes of +/-1.

    A (B, 3) array of true states is estimated as one batch; `seed` is
    then a sequence of B seeds or generators, one stream per state, and
    the results carry a leading B axis.  Every strategy draws each
    state's stream up front, state by state, in one order: n outcome
    uniforms, each preceded under `random` by the two uniforms of its
    axis (`random_direction`).  A batch row thus draws as a lone run of
    its state, and one Generator repeated for several states serves them
    in turn.  The default grid is `moment_grid(n)`, on which the moments
    are exact.

    Under `self_learning` and `fixed_axes` the run keeps one density per
    distinct outcome string so far, shared by the states that drew it;
    `random` keeps one per state.
    """
    _check_strategy(n, strategy)
    single = np.ndim(true_state) < 2
    rngs = [np.random.default_rng(s) for s in ([seed] if single else seed)]
    target = as_direction(true_state).reshape(-1, 3)
    if len(rngs) != len(target):
        raise ValueError(f"got {len(rngs)} seeds for {len(target)} states")
    transmitted = target if channel is None else channel(target)

    shared = strategy != "random"     # axes depend on past outcomes alone
    prior = uniform_prior(grid if grid is not None else moment_grid(n))
    # node[i] is the density row of state i
    node = np.zeros(len(target), dtype=int) if shared else np.arange(len(target))
    dist = SphereDistribution(prior.grid, np.broadcast_to(
        prior.values, (1 if shared else len(target), prior.grid.size)))
    # (states, n, draws per step); the outcome uniform is the last draw
    uniforms = np.array([rng.random((n, 1 if shared else 3)) for rng in rngs])
    random_axes = None if shared else random_direction(uniforms[..., :2])
    directions = np.empty((len(target), n, 3))
    outcomes = np.empty((len(target), n), dtype=int)
    for k in range(n):
        if strategy == "self_learning":
            axes = optimal_next_direction(dist)
        elif strategy == "random":
            axes = random_axes[:, k]
        else:
            axes = np.broadcast_to(_FIXED_AXES[k % 3], dist.values.shape[:-1] + (3,))
        m = axes[node]
        up = (uniforms[:, k, -1] < _born(transmitted, m)).astype(int)
        # one density per string drawn, ordered by (parent row, outcome);
        # np.unique would do, but pages in numpy's sort code.  Under
        # `random` every row has one child, so the rows stay the states.
        drawn = np.zeros((len(axes), 2), dtype=int)
        drawn[node, up] = 1
        parent, side = np.nonzero(drawn)
        drawn[parent, side] = np.arange(len(parent))
        node = drawn[node, up]
        dist = bayes_update(SphereDistribution._own(dist.grid, dist.values[parent]),
                            axes[parent], 2 * side - 1)
        directions[:, k] = m
        outcomes[:, k] = 2 * up - 1

    estimate = estimate_state(dist)[0][node]
    fidelity = 0.5 * (1.0 + _row_dot(estimate, target))
    if single:
        return estimate[0], float(fidelity[0]), directions[0], outcomes[0]
    return estimate, fidelity, directions, outcomes


def mean_fidelity_experiment(num_states: int, n: int, strategy: str = "self_learning",
                             channel: "AffineChannel | None" = None,
                             seed=None, grid: SphereGrid | None = None):
    """Mean estimation fidelity over an ensemble of random pure states.

    States are drawn uniformly on the sphere (area measure); each state
    gets its own RNG stream derived from the master seed.  The ensemble
    is estimated in batches of states.  Returns (mean, stderr, fidelities).
    """
    if num_states < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    _check_strategy(n, strategy)
    master = np.random.default_rng(seed)
    state_seeds = master.integers(0, 2**63, size=num_states, dtype=np.uint64)
    rngs = [np.random.default_rng(int(s)) for s in state_seeds]
    targets = random_direction(np.array([rng.random(2) for rng in rngs]))
    grid = moment_grid(n) if grid is None else grid
    chunk = max(1, _CHUNK_SIZE // max(grid.size, SWEEP_POINTS))

    fidelities = np.empty(num_states)
    for start in range(0, num_states, chunk):
        part = slice(start, start + chunk)
        fidelities[part] = run_estimation(targets[part], n, strategy, channel,
                                          seed=rngs[part], grid=grid)[1]
    mean = float(np.mean(fidelities))
    stderr = float(np.std(fidelities, ddof=1) / math.sqrt(num_states)) if num_states > 1 else 0.0
    return mean, stderr, fidelities


def optimal_fidelity_bound(n: int) -> float:
    """(N+1)/(N+2), the collective-measurement optimum for N copies."""
    return (n + 1) / (n + 2)
