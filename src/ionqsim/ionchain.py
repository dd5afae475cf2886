"""Static physics of a linear ion string in a magnetic-field gradient.

Lengths are measured in units of zeta = (e^2 / 4 pi eps0 m nu1^2)^(1/3).
In these units the potential energy of the string is

    V(u) = sum_j u_j^2 / 2 + sum_{i<j} 1 / |u_i - u_j|,

its Hessian at equilibrium is the dimensionless dynamical matrix whose
eigenvalues lambda_n give the axial mode frequencies nu_n =
nu1 sqrt(lambda_n), with the center-of-mass mode at lambda = 1.

An axial field gradient b makes the qubit splitting position dependent
(Breit-Rabi), displaces the per-state equilibria, and thereby couples
spins pairwise through the modes (James 1998; Mintert and Wunderlich
2001): with g_j = dw01_j/dz and A = L L^T the Hessian at equilibrium, for i != j

    J_ij = (hbar / 2 m) g_i g_j sum_n S_ni S_nj / nu_n^2 = hbar g_i g_j [A^-1]_ij / (2 m nu1^2)
         = [W^T W]_ij with W = L^-1 G sqrt(hbar / 2 m) / nu1, from the positions alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants as const
from .constants import Species

# equilibrium_positions stops its Newton steps at |grad V|_inf < _NEWTON_TOL or after
# _MAX_ITER; from N ~ 60 the gate is below the gradient's roundoff floor, so every
# step runs and the coordinate sweeps take over whenever a line search stalls
_NEWTON_TOL, _MAX_ITER = 1e-13, 100


class ConvergenceError(RuntimeError):
    """Equilibrium solver failed; carries the residual gradient norm."""


class NotAMinimumError(RuntimeError):
    """Dynamical matrix has a non-positive eigenvalue."""


@dataclass(frozen=True)
class TrapConfig:
    """Linear-trap operating point: COM frequency, ion count, gradient."""

    nu1: float            # COM angular frequency, rad/s
    n_ions: int
    b: float = 0.0        # axial field gradient dB/dz, T/m
    b0: float = 0.0       # offset field at the trap center, T

    def __post_init__(self):
        if self.nu1 <= 0:
            raise ValueError(f"nu1 must be positive, got {self.nu1}")
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.b < 0:
            raise ValueError(f"gradient b must be >= 0, got {self.b}")


@dataclass(frozen=True)
class ChainModes:
    """Equilibrium geometry and axial normal modes of the string.

    u are dimensionless positions (ascending), in meters
    u * length_scale(species, nu1); nu the mode angular frequencies
    (ascending, nu[0] is the COM), and s_matrix the orthonormal mode
    matrix with S[n, j] the amplitude of ion j in mode n (first nonzero
    component of each row positive).
    """

    u: np.ndarray
    nu: np.ndarray
    s_matrix: np.ndarray


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric spin-spin coupling constants J_ij in rad/s, zero diagonal."""

    j: np.ndarray

    def __post_init__(self):
        j = np.array(self.j, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"J must be square, got shape {j.shape}")
        if not np.all(np.isfinite(j)):
            raise ValueError("J entries must be finite")
        if np.max(np.abs(j - j.T)) > 1e-9 * np.max(np.abs(j)):    # relative: J is in rad/s
            raise ValueError("J must be symmetric")
        object.__setattr__(self, "j", j)
        j.flags.writeable = False

    def in_hz(self) -> np.ndarray:
        return self.j / (2.0 * math.pi)


def length_scale(species: Species, nu1: float) -> float:
    """zeta = (e^2 / (4 pi eps0 m nu1^2))^(1/3) in meters.

    Raises OverflowError when zeta is not a finite positive float, because
    m nu1^2 or e^2 / (m nu1^2) has left the float range.
    """
    if nu1 <= 0:
        raise ValueError(f"nu1 must be positive, got {nu1}")
    stiffness = species.mass * nu1 * nu1
    zeta = (const.COULOMB_E2 / stiffness) ** (1.0 / 3.0) if stiffness > 0 else math.inf
    if not 0.0 < zeta < math.inf:
        raise OverflowError(f"length scale zeta is out of range for nu1 = {nu1:.6g} rad/s")
    return zeta


def spacing_estimate(n_ions: int, zeta: float) -> float:
    """Fitted inner spacing delta_z ~ zeta * 2 N^-0.56 (N >= 2).

    The fit overestimates small crystals: for N = 2 it gives 1.357 zeta
    against the exact spacing 2^(1/3) zeta = 1.260 zeta.
    """
    if n_ions < 2:
        raise ValueError(f"spacing needs at least 2 ions, got {n_ions}")
    return zeta * 2.0 * n_ions ** (-0.56)


def _separations(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d[i, j] = u_i - u_j, with an infinite diagonal so self-terms vanish."""
    d = np.subtract(u[:, None], u[None, :], out=out)
    np.fill_diagonal(d, np.inf)
    return d


def _work_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two (N, N) arrays that _gradient and _hessian compute in."""
    return np.empty((n, n)), np.empty((n, n))


def _gradient(u: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """grad V(u) as a fresh vector, computed in the (N, N) work arrays
    (fresh ones unless given)."""
    d, sign = _work_arrays(u.size) if work is None else work
    _separations(u, out=d)
    np.sign(d, out=sign)
    return u - np.sum(np.divide(sign, np.square(d, out=d), out=sign), axis=1)


def _hessian(u: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Hessian of V(u), written into the first work array (a fresh one
    unless given), which it returns."""
    off = _separations(u, out=None if work is None else work[0])
    np.power(np.abs(off, out=off), 3, out=off)
    np.divide(-2.0, off, out=off)
    np.fill_diagonal(off, 1.0 - np.sum(off, axis=1))
    return off


def equilibrium_positions(n_ions: int) -> np.ndarray:
    """Dimensionless equilibrium positions of n ions, sorted ascending.

    Damped Newton iteration on grad V with the analytic Hessian, seeded
    with uniform spacing from the delta_z fit; every gradient and
    Hessian of one solve is computed in one pair of (N, N) work arrays,
    made once per solve.  When a line search finds no descent the
    solver falls back to coordinate-descent sweeps.  The returned
    configuration satisfies |grad V|_inf < 1e-12 and sums to zero.

    The absolute gates do not scale with N: from N ~ 60 the 1e-13 Newton
    gate lies below the gradient's roundoff floor, so each solve runs
    all _MAX_ITER Newton steps and falls back to the sweeps dozens of
    times, and at N = 200 even the 1e-12 acceptance gate is out of reach
    and the solver raises ConvergenceError.
    """
    if n_ions < 1:
        raise ValueError(f"n_ions must be >= 1, got {n_ions}")
    if n_ions == 1:
        return np.zeros(1)

    work = _work_arrays(n_ions)
    du = spacing_estimate(n_ions, 1.0)
    u = (np.arange(n_ions) - 0.5 * (n_ions - 1)) * du
    g = _gradient(u, work)
    for _ in range(_MAX_ITER):
        if np.max(np.abs(g)) < _NEWTON_TOL:
            break
        step = np.linalg.solve(_hessian(u, work), -g)
        alpha, g_norm = 1.0, np.linalg.norm(g)
        for _ in range(40):
            trial = u + alpha * step
            if np.all(np.diff(trial) > 0):
                g_trial = _gradient(trial, work)
                if np.linalg.norm(g_trial) < g_norm:
                    u, g = trial, g_trial
                    break
            alpha *= 0.5
        else:
            u = _coordinate_sweep(u)
            g = _gradient(u, work)
    if np.max(np.abs(g)) >= 1e-12:
        raise ConvergenceError(
            f"equilibrium solver stalled at |grad|_inf = {np.max(np.abs(g)):.3e}")
    return u - np.mean(u)


def _coordinate_sweep(u: np.ndarray, sweeps: int = 5) -> np.ndarray:
    """One-dimensional Newton sweeps, coordinate by coordinate."""
    u = u.copy()
    for _ in range(sweeps):
        for m in range(u.size):
            d = u[m] - np.delete(u, m)
            g_m = u[m] - np.sum(np.sign(d) / d**2)
            h_mm = 1.0 + 2.0 * np.sum(1.0 / np.abs(d) ** 3)
            u[m] -= g_m / h_mm
    return u


def normal_modes(u: np.ndarray, nu1: float) -> ChainModes:
    """Axial normal modes from the Hessian of V at equilibrium u.

    Raises NotAMinimumError if the configuration is not a local minimum.
    """
    u = np.asarray(u, dtype=float)
    if u.size > 1 and np.any(np.diff(u) <= 0):
        raise ValueError("positions must be distinct and sorted ascending")
    lam, vecs = np.linalg.eigh(_hessian(u))
    if lam[0] <= 0:
        raise NotAMinimumError(f"lowest Hessian eigenvalue is {lam[0]:.3e}")
    s = vecs.T.copy()
    # each row is a unit vector, so it has an entry above 1e-8
    lead = s[np.arange(s.shape[0]), np.argmax(np.abs(s) > 1e-8, axis=1)]
    s[lead < 0] *= -1.0
    # eigh's eigenvalues are off by ~eps |A| (3e-13 on the COM's exact 1 at N = 150); the
    # Rayleigh quotient 1 + sum_{i<j} 2 (S_ni - S_nj)^2 / (u_j - u_i)^3, one diagonal of pairs
    # at a time, adds only positive terms: a few eps relative, for the mode frequencies only
    lam = np.ones(u.size)
    for k in range(1, u.size):
        diff = s[:, k:] - s[:, :-k]
        lam += np.square(diff, out=diff) @ (2.0 / (u[k:] - u[:-k]) ** 3)
    return ChainModes(u=u, nu=nu1 * np.sqrt(lam), s_matrix=s)


def ground_state_width(species: Species, nu) -> np.ndarray:
    """RMS position spread Delta_z = sqrt(hbar / 2 m nu) of mode nu."""
    return np.sqrt(const.HBAR / (2.0 * species.mass * np.asarray(nu, dtype=float)))


def lamb_dicke(wavelength: float, species: Species, nu):
    """Lamb-Dicke parameter eta = 2 pi Delta_z / lambda for mode nu.

    Returns (eta, Delta_z, Delta_p).  For microwave wavelengths eta is
    essentially zero, which is why a field gradient is needed to couple
    internal and motional dynamics.
    """
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    dz = ground_state_width(species, nu)
    dp = np.sqrt(const.HBAR * species.mass * np.asarray(nu, dtype=float) / 2.0)
    return 2.0 * math.pi * dz / wavelength, dz, dp


def _field_moment(species: Species) -> float:
    """(g_J + g_I m_e/m_p) mu_B, the moment that scales B into chi."""
    return (species.g_j + species.g_i * const.M_ELECTRON / const.M_PROTON) * const.MU_B


def chi_parameter(species: Species, b_field) -> np.ndarray:
    """Scaled field chi = (g_J + g_I m_e/m_p) mu_B B / E_HFS, or OverflowError naming B."""
    b = np.abs(np.asarray(b_field, dtype=float))
    with np.errstate(over="ignore"):
        chi = _field_moment(species) * b / species.e_hfs
    if not np.all(np.isfinite(chi)):
        raise OverflowError(f"chi is out of range for field B = {np.max(b):.6g} T")
    return chi


def field_for_chi(species: Species, chi: float = 1.0) -> float:
    """Magnetic field at which the scaled field parameter reaches chi."""
    return chi * species.e_hfs / _field_moment(species)


def breit_rabi_energy(species: Species, b_field: float, m_q: float, branch: int) -> float:
    """Hyperfine level energy at field B for a J = 1/2 ion, in J.

    branch +1 selects levels from F = I + 1/2, -1 those from F = I - 1/2;
    m_q is the magnetic quantum number of the level.  chi takes the sign
    of B, as the nuclear term does, so that E(-B, m_q) = E(B, -m_q).
    """
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    i_nuc = species.i_nuc
    f_max = i_nuc + 0.5
    limit = f_max if branch == +1 else i_nuc - 0.5
    if abs(m_q) > limit + 1e-9:
        raise ValueError(f"|m_q| = {abs(m_q)} exceeds {limit} for branch {branch:+d}")
    if abs((m_q + f_max) - round(m_q + f_max)) > 1e-9:
        raise ValueError(f"m_q = {m_q} is not a valid magnetic quantum number for I = {i_nuc}")
    chi = math.copysign(chi_parameter(species, b_field), b_field)
    # sqrt(1 + 2 a chi + chi^2) as a hypot, which cannot overflow on chi^2;
    # the clamp covers the 1e-9 slack allowed on |m_q|
    a = 2.0 * m_q / (2.0 * i_nuc + 1.0)
    root = math.hypot(chi + a, math.sqrt(max(0.0, 1.0 - a * a)))
    return (
        species.e_hfs / (2.0 * (2.0 * i_nuc + 1.0))
        - species.g_i * const.MU_N * b_field * m_q
        + branch * 0.5 * species.e_hfs * root
    )


def qubit_frequency_gradient(species: Species, b_at_ion, b: float) -> np.ndarray:
    """Spatial derivative of the qubit resonance, rad s^-1 m^-1.

    dw01/dz = (g_J mu_B b / 2 hbar) (1 + chi / sqrt(1 + chi^2)) for the
    m_q = 0 clock pair, at the local field (hypot keeps a huge chi^2 from
    overflowing).  Raises OverflowError when dw01/dz is not finite.
    """
    if b < 0:
        raise ValueError(f"gradient b must be >= 0, got {b}")
    chi = chi_parameter(species, b_at_ion)
    grad = 0.5 * species.g_j * const.MU_B * b / const.HBAR * (1.0 + chi / np.hypot(1.0, chi))
    if not np.all(np.isfinite(grad)):
        raise OverflowError(f"dw01/dz is out of range for gradient b = {b:.6g} T/m")
    return grad


def required_gradient(species: Species, nu1: float, n_ions: int) -> float:
    """Weak-field gradient needed to resolve neighboring qubits, T/m.

    Resolving carriers against all first-order sidebands requires the frequency shift across
    one spacing to exceed 2 nu_N + nu_1, which with the spacing fit gives (hbar / 2 mu_B)
    (4 pi eps0 m / e^2)^(1/3) nu1^(5/3) (4.7 N^0.56 + 0.5 N^1.56).  The fit implies nu_N / nu1
    = 1.85 + 0.25 N, 4.35 at N = 10; the solved chain's top mode is 6.58 there, 71.5 at N = 150.
    """
    if n_ions < 2:
        raise ValueError(f"need at least 2 ions to address, got {n_ions}")
    return (
        const.HBAR / (2.0 * const.MU_B)
        * (species.mass / const.COULOMB_E2) ** (1.0 / 3.0)
        * nu1 ** (5.0 / 3.0)
        * (4.7 * n_ions**0.56 + 0.5 * n_ions**1.56)
    )


def coupling_matrix(u: np.ndarray, gradients, species: Species, nu1: float) -> CouplingMatrix:
    """J_ij = hbar g_i g_j [A^-1]_ij / (2 m nu1^2) in rad/s at the equilibrium u, g_j
    the dw01/dz of ion j (a scalar broadcasts), without the photon recoil (~1e-5 at
    microwave wavelengths) and with a zero diagonal, as the Hamiltonian sums i < j only."""
    grad = np.broadcast_to(np.asarray(gradients, dtype=float), (u.size,))
    # J = W^T W with W = L^-1 G sqrt(hbar / 2 m) / nu1, A = L L^T: one syrk, so exactly symmetric
    with np.errstate(over="raise", invalid="raise"):
        w = np.linalg.inv(np.linalg.cholesky(_hessian(u)))
        w *= math.sqrt(const.HBAR / (2.0 * species.mass)) / nu1 * grad
        j = w.T @ w
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix(j=j)


def spin_spin_couplings(species: Species, trap: TrapConfig,
                        weak_field: bool = True) -> tuple[ChainModes, CouplingMatrix]:
    """Full pipeline from a trap config to the J matrix.

    With weak_field=True the chi-dependent factor in dw01/dz is dropped
    (chi -> 0), i.e. the offset field is assumed negligible; otherwise
    the local field b0 + b z_j at each equilibrium position is used.
    """
    modes = normal_modes(equilibrium_positions(trap.n_ions), trap.nu1)
    b_at_ion = (0.0 if weak_field
                else trap.b0 + trap.b * (modes.u * length_scale(species, trap.nu1)))
    return modes, coupling_matrix(
        modes.u, qubit_frequency_gradient(species, b_at_ion, trap.b), species, trap.nu1)
