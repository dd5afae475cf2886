"""Two-level quantum mechanics on the Bloch sphere.

States are real 3-vectors s with density matrix rho = (I + s.sigma)/2;
pure states sit on the unit sphere with |0> at +z.  Drives are SU(2)
rotations implemented as Rodrigues rotations of s, which keeps the hot
path free of complex arithmetic.  All angles are radians, all rates
rad/s.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sphere import _row_dot, _row_norm, rotate

TWO_PI = 2.0 * math.pi

Z_PLUS = np.array([0.0, 0.0, 1.0])

# Random draws over long records are made this many at a time, so their
# float64 temporaries stay at 512 KB whatever the record length.
BLOCK = 1 << 16


@dataclass(frozen=True)
class DrivePulse:
    """A square drive pulse in the rotating frame.

    rabi is the angular Rabi frequency Omega (rad/s), detuning is
    delta = omega_0 - omega (rad/s), duration in s, phase is the initial
    drive phase (rad, zero by default per the usual convention).
    """

    rabi: float
    detuning: float = 0.0
    duration: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        for name in ("rabi", "detuning", "duration", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rabi < 0:
            raise ValueError(f"rabi frequency must be >= 0, got {self.rabi}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    @property
    def effective_rabi(self) -> float:
        """Omega_R = sqrt(Omega^2 + delta^2)."""
        return math.hypot(self.rabi, self.detuning)


# Largest photon-count mean accepted: exp(-690) > 1e-300, so every
# accepted mean starts its pmf recursion from a normal float.
MAX_COUNT_MEAN = 690.0


def _poisson_cdf(mean: float, k: int) -> float:
    """P(count <= k) for a Poisson count of mean in [0, MAX_COUNT_MEAN].

    Sums p_0 = exp(-mean), p_j = p_{j-1} mean / j with math.fsum, and
    stops past the mean at a term below 1e-17 of the total, so its cost
    grows with the mean, not with k.
    """
    terms, total, term = [], 0.0, math.exp(-mean)
    for j in range(k + 1):
        if j > 0:
            term *= mean / j
        terms.append(term)
        total += term
        if j > mean and term < 1e-17 * total:
            break
    return min(1.0, math.fsum(terms))


@dataclass(frozen=True)
class DetectionModel:
    """State read-out with finite efficiencies; the default is ideal.

    eta0 is the probability of correctly reading |0> as "off", eta1 the
    probability of correctly reading |1> as "on".
    """

    eta0: float = 1.0
    eta1: float = 1.0

    def __post_init__(self):
        if not (0.5 <= self.eta0 <= 1.0 and 0.5 <= self.eta1 <= 1.0):
            raise ValueError(
                f"efficiencies must lie in [1/2, 1], got eta0={self.eta0}, eta1={self.eta1}"
            )

    @classmethod
    def from_counts(cls, on_mean: float, off_mean: float, threshold: int) -> "DetectionModel":
        """Efficiencies of a photon-counting read-out: Poisson counts of
        the given means against a cutoff, "on" meaning count > threshold.
        Only the on/off result is kept, so the two tail masses are the
        whole read-out.  Both means must lie in [0, MAX_COUNT_MEAN], far
        above the paper's ~5 ("on") and ~0.2 ("off"); anything else,
        NaN and inf included, is a ValueError naming both."""
        if not isinstance(threshold, (int, np.integer)) or threshold < 0:
            raise ValueError(f"threshold must be an integer >= 0, got {threshold!r}")
        if not all(0 <= m <= MAX_COUNT_MEAN for m in (on_mean, off_mean)):
            raise ValueError(f"photon count means must lie in [0, {MAX_COUNT_MEAN:g}], got "
                             f"on_mean={on_mean!r}, off_mean={off_mean!r}")
        return cls(_poisson_cdf(off_mean, threshold), 1.0 - _poisson_cdf(on_mean, threshold))


def state_from_angles(theta: float, phi: float = 0.0) -> np.ndarray:
    """Bloch vector of the pure state |theta, phi>, with |0> at +z.

    Raises ValueError if theta is outside [0, pi] or phi outside [0, 2*pi).
    """
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not (0.0 <= phi < TWO_PI):
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def as_direction(direction) -> np.ndarray:
    """Coerce a 3-vector or a (B, 3) array of vectors to unit vector(s)."""
    arr = np.asarray(direction, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3:
        raise ValueError(f"direction must be a 3-vector or (B, 3) array, got shape {arr.shape}")
    norm = _row_norm(arr)[..., None]
    if not ((0.99 < norm) & (norm < 1.01)).all():
        raise ValueError(f"direction vector must be unit length, got |m|={norm.ravel()}")
    return arr / norm


def evolve(state: np.ndarray, pulse: DrivePulse) -> np.ndarray:
    """Propagate a Bloch vector through one square pulse.

    In the rotating frame the generator is (delta sigma_z + Omega
    (cos phi sigma_x + sin phi sigma_y))/2, so s rotates by angle
    Omega_R * t about the unit axis (Omega cos phi, Omega sin phi,
    delta) / Omega_R.  A degenerate pulse (Omega_R = 0) is the identity.
    """
    omega_r = pulse.effective_rabi
    if omega_r == 0.0 or pulse.duration == 0.0:
        return np.array(state, dtype=float)
    axis = np.array([pulse.rabi * math.cos(pulse.phase), pulse.rabi * math.sin(pulse.phase),
                     pulse.detuning]) / omega_r
    return rotate(state, axis, omega_r * pulse.duration)


def rabi_excitation_probability(rabi: float, detuning: float, t: float) -> float:
    """P_1(t) = (Omega/Omega_R)^2 sin^2(Omega_R t / 2) from |0>.

    Returns 0 in the degenerate limit Omega = delta = 0, and raises
    OverflowError when Omega^2 + delta^2 or Omega_R t overflows a float.
    """
    if rabi < 0 or t < 0:
        raise ValueError("rabi and t must be >= 0")
    # in float arithmetic an overflow gives inf, where numpy scalars would also warn
    rabi, detuning, t = float(rabi), float(detuning), float(t)
    omega_r_sq = rabi * rabi + detuning * detuning
    if omega_r_sq == 0.0:
        return 0.0
    half_angle = 0.5 * math.sqrt(omega_r_sq) * t
    if not math.isfinite(half_angle):
        raise OverflowError(f"Omega_R t overflows a float (Omega = {rabi:g} rad/s, "
                            f"delta = {detuning:g} rad/s, t = {t:g} s)")
    return (rabi * rabi / omega_r_sq) * math.sin(half_angle) ** 2


def ramsey_probability(pulse: DrivePulse, precession_time):
    """Excitation probability after pi/2 - free precession - pi/2.

    The sequence is composed from rotations: the supplied near-pi/2
    pulse, free precession at the pulse detuning for precession_time,
    then the same pulse again.  For ideal short pulses the fringes
    follow cos^2(delta t_p / 2).

    precession_time may be a float, which gives a float, or an array of
    times, which gives an array of that shape.  The first pulse runs
    once; free precession and the second pulse are each one rotation of
    all the states, and each time rounds exactly as it would on its own.
    Free precession is the rotation about +z by delta * t.
    """
    times = np.asarray(precession_time, dtype=float)
    if np.any(times < 0):
        raise ValueError("precession_time must be >= 0")
    s = rotate(evolve(Z_PLUS, pulse), Z_PLUS, pulse.detuning * times)
    s = evolve(s, pulse)
    return born_probability(s, state_from_angles(math.pi))  # overlap with |1> at -z


def born_probability(state: np.ndarray, direction):
    """p(+1) = (1 + s . m)/2 for the unit measurement direction m.

    Equals |<theta_m, phi_m | theta, phi>|^2 when the state is pure.
    A float for one state and one axis; (B, 3) states or axes give (B,)
    probabilities, one per row, each rounded as that pair on its own.
    The axis is checked here; `run_estimation` calls `_born` on its own unit axes.
    """
    p = _born(state, as_direction(direction))
    return float(p) if p.ndim == 0 else p


def _born(state, unit):
    """(1 + s . m)/2 for unit axes m, clamped to [0, 1] against float noise; no check."""
    return np.minimum(1.0, np.maximum(0.0, 0.5 * (1.0 + _row_dot(state, unit))))


def detect(true_on, model: DetectionModel, rng) -> np.ndarray:
    """Simulate the fluorescence read-out of z-eigenstates.

    true_on is a bool array, True for |1>; returns the "on" observations.
    Each read-out is Bernoulli: "on" with probability eta1 from |1> and
    1 - eta0 from |0>.  An ideal model draws nothing and returns the
    bool array of true_on itself, not a copy.
    Draws follow true_on in C order, BLOCK at a time, so the stream is
    the same as one whole-array draw.
    """
    rng = np.random.default_rng(rng)
    true_on = np.asarray(true_on, dtype=bool)
    if model.eta0 == 1.0 and model.eta1 == 1.0:
        return true_on
    observed = np.empty(true_on.shape, dtype=bool)
    flat_in, flat_out = true_on.reshape(-1), observed.reshape(-1)
    for start in range(0, flat_in.size, BLOCK):
        state = flat_in[start:start + BLOCK]
        np.less(rng.random(state.size), np.where(state, model.eta1, 1.0 - model.eta0),
                out=flat_out[start:start + BLOCK])
    return observed
