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

from .sphere import rotate

TWO_PI = 2.0 * math.pi

Z_PLUS = np.array([0.0, 0.0, 1.0])

# Random draws over long records are made this many at a time, so their
# float64/int64 temporaries stay at 512 KB whatever the record length.
BLOCK = 1 << 16


def as_generator(seed_or_rng) -> "np.random.Generator":
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class PureState:
    """A pure qubit state given by colatitude theta and azimuth phi.

    The state cos(theta/2)|0> + sin(theta/2) e^{i phi} |1> maps to the
    unit Bloch vector (sin t cos p, sin t sin p, cos t).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        _check_angles(self.theta, self.phi)

    def bloch(self) -> np.ndarray:
        return state_from_angles(self.theta, self.phi)

    def antipode(self) -> "PureState":
        return PureState(math.pi - self.theta, (self.phi + math.pi) % TWO_PI)


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
        if self.rabi < 0:
            raise ValueError(f"rabi frequency must be >= 0, got {self.rabi}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    @property
    def effective_rabi(self) -> float:
        """Omega_R = sqrt(Omega^2 + delta^2)."""
        return math.hypot(self.rabi, self.detuning)

    @property
    def area(self) -> float:
        """Rotation angle Omega_R * t accumulated over the pulse."""
        return self.effective_rabi * self.duration


def _poisson_cdf(mean: float, k: int) -> float:
    """P(count <= k) for a Poisson count of the given mean.

    Sums the pmf with math.fsum.  Terms are exp(j log(mean) - mean -
    lgamma(j + 1)) until one exceeds 1e-300, then p_j = p_{j-1} mean / j,
    which stays within a few ulp where the log form alone is ~2e-14 off
    near mean 50.  The sum starts 40 standard deviations below the mean
    (the mass below is < 1e-300) and stops past the mean at a term below
    1e-17 of the total, so its cost grows with sqrt(mean), not with k.
    At large means the log form's cancellation costs ~mean*log(mean) ulp.
    """
    if mean == 0.0:
        return 1.0
    start = max(0, math.floor(mean - 40.0 * math.sqrt(mean)))
    log_mean = math.log(mean)
    terms = []
    total = term = 0.0
    for j in range(start, k + 1):
        if term < 1e-300:
            term = math.exp(j * log_mean - mean - math.lgamma(j + 1))
        else:
            term *= mean / j
        terms.append(term)
        total += term
        if j > mean and term < 1e-17 * total:
            break
    return min(1.0, math.fsum(terms))


@dataclass(frozen=True)
class DetectionModel:
    """State read-out with finite efficiencies.

    eta0 is the probability of correctly reading |0> as "off", eta1 the
    probability of correctly reading |1> as "on".  When built from the
    photon-counting mechanism (Poisson counts against a fixed threshold,
    "on" means count > threshold), the efficiencies are the Poisson tail
    masses and both views must agree.  A counting model given with
    eta0 = eta1 = None (as from_counts does) takes them from the tails.
    """

    eta0: float | None
    eta1: float | None
    on_mean: float | None = None
    off_mean: float | None = None
    threshold: int | None = None

    def __post_init__(self):
        counting = [self.on_mean, self.off_mean, self.threshold]
        if any(v is not None for v in counting):
            if any(v is None for v in counting):
                raise ValueError("on_mean, off_mean and threshold must be supplied together")
            if not isinstance(self.threshold, (int, np.integer)) or self.threshold < 0:
                raise ValueError(f"threshold must be an integer >= 0, got {self.threshold!r}")
            if not all(math.isfinite(m) and m >= 0 for m in (self.on_mean, self.off_mean)):
                raise ValueError("photon count means must be finite and >= 0, got "
                                 f"on_mean={self.on_mean!r}, off_mean={self.off_mean!r}")
            eta0 = _poisson_cdf(self.off_mean, self.threshold)
            eta1 = 1.0 - _poisson_cdf(self.on_mean, self.threshold)
            if self.eta0 is None and self.eta1 is None:
                object.__setattr__(self, "eta0", eta0)
                object.__setattr__(self, "eta1", eta1)
            elif abs(eta0 - self.eta0) > 1e-9 or abs(eta1 - self.eta1) > 1e-9:
                raise ValueError(
                    "stored efficiencies disagree with the Poisson tail masses: "
                    f"expected eta0={eta0!r}, eta1={eta1!r}"
                )
        if not (0.5 <= self.eta0 <= 1.0 and 0.5 <= self.eta1 <= 1.0):
            raise ValueError(
                f"efficiencies must lie in [1/2, 1], got eta0={self.eta0}, eta1={self.eta1}"
            )

    @classmethod
    def from_counts(cls, on_mean: float, off_mean: float, threshold: int) -> "DetectionModel":
        """Derive (eta0, eta1) from Poisson photon statistics and a count cutoff."""
        return cls(eta0=None, eta1=None, on_mean=on_mean, off_mean=off_mean, threshold=threshold)

    @classmethod
    def ideal(cls) -> "DetectionModel":
        return cls(eta0=1.0, eta1=1.0)

    @property
    def delta_eta(self) -> float:
        """Detection bias (eta1 - eta0) / 2."""
        return 0.5 * (self.eta1 - self.eta0)


def _check_angles(theta: float, phi: float) -> None:
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not (0.0 <= phi < TWO_PI):
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")


def state_from_angles(theta: float, phi: float = 0.0) -> np.ndarray:
    """Bloch vector of the pure state |theta, phi>, with |0> at +z.

    Raises ValueError if theta is outside [0, pi] or phi outside [0, 2*pi).
    """
    _check_angles(theta, phi)
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


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
    axis = np.array([
        pulse.rabi * math.cos(pulse.phase),
        pulse.rabi * math.sin(pulse.phase),
        pulse.detuning,
    ]) / omega_r
    return rotate(state, axis, omega_r * pulse.duration)


def rabi_excitation_probability(rabi: float, detuning: float, t: float) -> float:
    """P_1(t) = (Omega/Omega_R)^2 sin^2(Omega_R t / 2) from |0>.

    Returns 0 in the degenerate limit Omega = delta = 0.
    """
    if rabi < 0 or t < 0:
        raise ValueError("rabi and t must be >= 0")
    omega_r_sq = rabi * rabi + detuning * detuning
    if omega_r_sq == 0.0:
        return 0.0
    omega_r = math.sqrt(omega_r_sq)
    return (rabi * rabi / omega_r_sq) * math.sin(0.5 * omega_r * t) ** 2


def ramsey_probability(pulse: DrivePulse, precession_time: float) -> float:
    """Excitation probability after pi/2 - free precession - pi/2.

    The sequence is composed from evolve() calls: the supplied near-pi/2
    pulse, free precession at the pulse detuning for precession_time,
    then the same pulse again.  For ideal short pulses the fringes
    follow cos^2(delta t_p / 2).
    """
    if precession_time < 0:
        raise ValueError("precession_time must be >= 0")
    free = DrivePulse(rabi=0.0, detuning=pulse.detuning, duration=precession_time,
                      phase=pulse.phase)
    s = evolve(Z_PLUS, pulse)
    s = evolve(s, free)
    s = evolve(s, pulse)
    return born_probability(s, PureState(math.pi))  # overlap with |1> at -z


def born_probability(state: np.ndarray, direction: PureState) -> float:
    """p(+1) = (1 + s . m)/2 for measurement direction m.

    Equals |<theta_m, phi_m | theta, phi>|^2 when the state is pure.
    """
    m = direction.bloch()
    p = 0.5 * (1.0 + float(np.dot(state, m)))
    # clamp float noise at the endpoints
    return min(1.0, max(0.0, p))


def measure(state: np.ndarray, direction: PureState, rng) -> tuple[int, np.ndarray]:
    """Projective measurement along direction; collapses onto +/- m.

    Returns (outcome, collapsed) with outcome +1 for projection onto m
    and -1 for the antipode.
    """
    rng = as_generator(rng)
    m = direction.bloch()
    p_plus = born_probability(state, direction)
    if rng.random() < p_plus:
        return 1, m
    return -1, -m


def detect(true_on, model: DetectionModel, rng) -> np.ndarray:
    """Simulate the fluorescence read-out of z-eigenstates.

    true_on is a bool array, True for |1>; returns the "on" observations.
    With a photon-counting model each count is Poisson with the
    state-dependent mean and "on" means count > threshold.  With bare
    efficiencies each read-out is Bernoulli.  An ideal model draws
    nothing and returns the bool array of true_on itself, not a copy.
    Draws follow true_on in C order, BLOCK at a time, so the stream is
    the same as one whole-array draw.
    """
    rng = as_generator(rng)
    true_on = np.asarray(true_on, dtype=bool)
    if model.eta0 == 1.0 and model.eta1 == 1.0 and model.on_mean is None:
        return true_on
    observed = np.empty(true_on.shape, dtype=bool)
    flat_in, flat_out = true_on.reshape(-1), observed.reshape(-1)
    for start in range(0, flat_in.size, BLOCK):
        state, out = flat_in[start:start + BLOCK], flat_out[start:start + BLOCK]
        if model.on_mean is not None:
            counts = rng.poisson(np.where(state, model.on_mean, model.off_mean))
            np.greater(counts, model.threshold, out=out)
        else:
            np.less(rng.random(state.size), np.where(state, model.eta1, 1.0 - model.eta0),
                    out=out)
    return observed
