"""Independent reference implementations used only by the tests.

Everything here works in the 2x2 complex density-matrix picture (or
with scipy primitives, or from a quantity's definition) so the package's
real-3-vector code paths are checked against a genuinely different route.
The chain couplings are rebuilt through the Lamb-Dicke parameters eps and
through the inverse Hessian, neither of which the package forms.
"""

import math

import numpy as np
from scipy.linalg import expm

from ionqsim.constants import HBAR
from ionqsim.estimation import (_CURVATURE, SphereDistribution, bayes_update, estimate_state,
                                optimal_next_direction, uniform_prior)
from ionqsim.ionchain import _hessian
from ionqsim.sphere import moment_grid

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def ket(theta, phi):
    """|theta, phi> = cos(t/2)|0> + sin(t/2) e^{i phi} |1>."""
    return np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])


def density_from_bloch(s):
    rho = 0.5 * np.eye(2, dtype=complex)
    for comp, pauli in zip(s, PAULIS):
        rho = rho + 0.5 * comp * pauli
    return rho


def bloch_from_density(rho):
    return np.array([np.trace(rho @ pauli).real for pauli in PAULIS])


def evolve_oracle(s, rabi, detuning, duration, phase=0.0):
    """Propagate a Bloch vector with the 2x2 matrix exponential of the
    rotating-frame generator (delta sz + Omega (cos f sx + sin f sy))/2."""
    h = 0.5 * (detuning * SIGMA_Z
               + rabi * (np.cos(phase) * SIGMA_X + np.sin(phase) * SIGMA_Y))
    u = expm(-1j * h * duration)
    rho = u @ density_from_bloch(s) @ u.conj().T
    return bloch_from_density(rho)


def overlap_probability(theta_m, phi_m, theta, phi):
    """|<theta_m, phi_m | theta, phi>|^2 via complex amplitudes."""
    amp = np.vdot(ket(theta_m, phi_m), ket(theta, phi))
    return float(np.abs(amp) ** 2)


def imperfection_oracle(s, lam, delta_eta):
    """Bloch image of rho -> (1-2 lam) rho + lam I + delta_eta sigma_z,
    evaluated literally on the density matrix."""
    rho = density_from_bloch(s)
    rho_out = (1 - 2 * lam) * rho + lam * np.eye(2) + delta_eta * SIGMA_Z
    return bloch_from_density(rho_out)


def rotation_oracle(axis, angle):
    """SO(3) rotation via the matrix exponential of the generator."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return expm(angle * k)


def expected_mean_fidelity(dist, m):
    """Fbar(m) = p(+m) F_opt(w | +m) + p(-m) F_opt(w | -m) from its
    definition: the outcome probabilities integrated over the density,
    each branch's posterior from bayes_update and its optimal fidelity
    from estimate_state (not the collapsed moment formula of the axis
    search)."""
    m = np.asarray(m, dtype=float)
    fbar = 0.0
    for outcome in (1, -1):
        p = dist.grid.integrate(dist.values * 0.5 * (1.0 + outcome * (dist.grid.units @ m)))
        fbar += p * estimate_state(bayes_update(dist, m, outcome))[1]
    return fbar


def exact_mean_fidelity_oracle(n, strategy="self_learning"):
    """The mean fidelity over uniform pure states of n measurements whose axes
    depend on past outcomes alone ("self_learning" or "fixed_axes"), as the
    exact sum Fbar = 1/2 + sum_o p(o) |S_o| / 2 over the 2^n outcome strings o,
    with S_o the posterior mean after o (no Monte Carlo).

    The tree is walked level by level on moment_grid(n), where the moments
    are exact: each level's strings are one batch through the library's
    optimal_next_direction (or the fixed x, y, z cycle) and bayes_update, and
    a child of outcome o along axis m carries its parent's probability times
    (1 + o m.S)/2, S the parent's posterior mean."""
    prior = uniform_prior(moment_grid(n))
    dist, prob = SphereDistribution(prior.grid, prior.values[None]), np.ones(1)
    for k in range(n):
        if strategy == "self_learning":
            axes = optimal_next_direction(dist)
        else:
            axes = np.tile(np.eye(3)[k % 3], (len(prob), 1))
        along = (dist.mean_vector() * axes).sum(axis=-1)
        prob = np.concatenate([prob * (1.0 + along) / 2, prob * (1.0 - along) / 2])
        dist = bayes_update(SphereDistribution(dist.grid, np.concatenate([dist.values] * 2)),
                            np.concatenate([axes, axes]), np.repeat([1, -1], len(axes)))
    return 0.5 + 0.5 * math.fsum(prob * np.linalg.norm(dist.mean_vector(), axis=-1))


def sweep_objective_oracle(dist):
    """The axis search's sweep objective in component form: for (n, 3) axes,
    Fbar = 1/2 + (|a| + |b|)/4 per row of the density batch, with
    a = S + Q m and b = S - Q m built component by component (not from
    |S|^2, m.Q^2 m and QS.m, as the search has them)."""
    s_bar, q = dist.mean_vector().reshape(-1, 3), dist.second_moment().reshape(-1, 3, 3)

    def objective(dirs):
        qm = q @ dirs.T                                      # (rows, 3, n)
        a, b = s_bar[:, :, None] + qm, s_bar[:, :, None] - qm
        return 0.5 + 0.25 * (np.sqrt((a * a).sum(axis=1)) + np.sqrt((b * b).sum(axis=1)))
    return objective


def newton_step_oracle(m, grad, hess):
    """The axis search's Newton step on the sphere from an eigendecomposition,
    for (rows, 3) unit axes m, (rows, 3, 1) gradients g and (rows, 3, 3)
    Hessians H: -sum v v^T g / c over the eigenvectors v of P H P - (m.g) P,
    P = I - m m^T, whose eigenvalue c is below the search's curvature cut.
    Returns the (rows, 3) steps and the (rows, 3) ascending eigenvalues."""
    proj = np.eye(3) - m[:, :, None] * m[:, None, :]
    curv, vecs = np.linalg.eigh(proj @ hess @ proj - (m[:, None, :] @ grad) * proj)
    along = (vecs.swapaxes(-1, -2) @ grad)[..., 0]
    along = np.divide(-along, curv, out=np.zeros(along.shape), where=curv < _CURVATURE)
    return (vecs @ along[:, :, None])[..., 0], curv


def epsilon_oracle(modes, gradients, species):
    """eps[n, j] = S_nj Delta_z_n (dw01_j/dz) / nu_n, the gradient part of the
    effective Lamb-Dicke parameter of mode n and ion j, from its definition
    with Delta_z_n = sqrt(hbar / 2 m nu_n)."""
    delta_z = np.sqrt(HBAR / (2.0 * species.mass * modes.nu))
    return modes.s_matrix * (delta_z / modes.nu)[:, None] * np.asarray(gradients)


def epsilon_coupling_oracle(modes, eps):
    """J_ij = sum_n nu_n eps_ni eps_nj with a zero diagonal, term by term."""
    j = np.einsum("n,ni,nj->ij", modes.nu, eps, eps)
    np.fill_diagonal(j, 0.0)
    return j


def inverse_hessian_coupling_oracle(u, gradients, species, nu1):
    """J = hbar / (2 m nu1^2) G A^-1 G with a zero diagonal, G = diag(dw01/dz)
    and A the dimensionless Hessian at the equilibrium u: no mode sum."""
    g = np.broadcast_to(np.asarray(gradients, dtype=float), u.shape)
    j = HBAR / (2.0 * species.mass * nu1**2) * np.linalg.inv(_hessian(u)) * np.outer(g, g)
    np.fill_diagonal(j, 0.0)
    return j
