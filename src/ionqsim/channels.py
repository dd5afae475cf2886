"""Affine qubit channels s' = M s + v and their tomography.

Channels act on Bloch vectors; phase damping shrinks the components
transverse to its axis by 1 - 2*lambda, depolarization shrinks
everything, rotations are orthogonal M.  Tomography reconstructs
(M, v) from the probabilities P_ij of reading +i after sending the +j
eigenstate through the box:

    M_ij = 2 P_ij - P_iz - P_i(-z)
    v_i  = P_iz + P_i(-z) - 1
"""

from dataclasses import dataclass

import numpy as np

from .bloch import state_from_angles
from .sphere import _row_norm, rotate

# The inputs +x, +y, +z, -z sent through a box: the rows j of its
# probability table P[j, i], whose columns are the read-out axes x, y, z.
_INPUTS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# a physical channel's Choi matrix has no eigenvalue below -_CHOI_TOL, a bound
# well above eigvalsh's ~1e-14 rounding on a 4x4 Choi matrix of norm <= 2
_CHOI_TOL = 5e-13


class ChannelInvalidError(ValueError):
    """An affine map that is not completely positive, or that sent a
    state outside the Bloch ball."""


@dataclass(frozen=True)
class AffineChannel:
    """A qubit channel in Bloch form: 3x3 matrix m plus offset v."""

    m: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        v = np.array(self.v, dtype=float)
        if m.shape != (3, 3) or v.shape != (3,):
            raise ValueError(f"need a 3x3 matrix and 3-vector, got {m.shape} and {v.shape}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "v", v)
        m.flags.writeable = False
        v.flags.writeable = False

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """M s + v for one (3,) or many (..., 3) Bloch vectors, guarding
        the Bloch ball row by row; each row of a stack rounds exactly as
        it would on its own."""
        s = np.asarray(s, dtype=float)
        out = (self.m @ s[..., None])[..., 0] + self.v
        norm = _row_norm(out)
        # a physical channel's pure-state image <psi*|C|psi*> has eigenvalues (1 -+ |s'|)/2
        # >= -_CHOI_TOL, so |s'| <= 1 + 2 _CHOI_TOL; as much again is slack for rounding
        if not np.all(norm <= 1.0 + 4.0 * _CHOI_TOL):    # NaN fails too
            raise ChannelInvalidError(f"channel output left the Bloch ball: |s'| = {np.max(norm)}")
        return out

    def is_physical(self) -> bool:
        """Exact complete-positivity test: the Choi matrix
        1/2 [I (x) (I + v.sigma) + sum_kl M_lk sigma_k^T (x) sigma_l]
        has no eigenvalue below -_CHOI_TOL.  A non-finite m or v is not physical."""
        if not (np.isfinite(self.m).all() and np.isfinite(self.v).all()):
            return False
        choi = np.kron(np.eye(2), np.eye(2) + np.tensordot(self.v, _PAULIS, 1))
        choi += np.einsum("lk,kab,lcd->acbd", self.m, _PAULIS.transpose(0, 2, 1),
                          _PAULIS).reshape(4, 4)
        return bool(np.linalg.eigvalsh(0.5 * choi)[0] >= -_CHOI_TOL)


def _unit_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise ValueError("axis must be a nonzero vector")
    return axis / norm


def _check_lambda(lam: float) -> float:
    """lam itself, if it lies in [0, 1/2]."""
    if not (0.0 <= lam <= 0.5):
        raise ValueError(f"lam must lie in [0, 1/2], got {lam}")
    return lam


def phase_damping(lam: float, axis=(0.0, 0.0, 1.0)) -> AffineChannel:
    """Shrink the plane normal to `axis` by 1 - 2*lam; the axis itself
    is untouched: M = (1 - 2 lam) I + 2 lam a a^T for the unit axis a."""
    _check_lambda(lam)
    a = _unit_axis(axis)
    return AffineChannel((1.0 - 2.0 * lam) * np.eye(3) + 2.0 * lam * np.outer(a, a), np.zeros(3))


def depolarizing(lam: float) -> AffineChannel:
    """s -> (1 - 2*lam) s; lam = 0 is the identity channel."""
    _check_lambda(lam)
    return AffineChannel((1.0 - 2.0 * lam) * np.eye(3), np.zeros(3))


def rotation_channel(axis, angle: float) -> AffineChannel:
    """Right-handed rotation by angle about axis: M's columns are the
    basis vectors rotated."""
    return AffineChannel(rotate(np.eye(3), _unit_axis(axis), angle).T, np.zeros(3))


def affine_shift(v) -> AffineChannel:
    """Pure displacement of the ball (building block for amplitude-damping
    style maps; combine with contractions to stay physical)."""
    return AffineChannel(np.eye(3), np.asarray(v, dtype=float))


def compose(first: AffineChannel, second: AffineChannel) -> AffineChannel:
    """Channel applying `first` and then `second`."""
    return AffineChannel(second.m @ first.m, second.m @ first.v + second.v)


def _probabilities(black_box) -> np.ndarray:
    """P[j, i] = (1 + s'_i)/2, the Born probability of reading +i after
    sending input j of _INPUTS through the box."""
    if not callable(black_box):
        raise TypeError("black box must be an AffineChannel or a state -> state callable")
    return 0.5 * (1.0 + np.array([black_box(s) for s in _INPUTS], dtype=float))


def _assemble(p: np.ndarray) -> AffineChannel:
    """(M, v) from a probability table P[j, i] (see module notes)."""
    return AffineChannel(2.0 * p[:3].T - p[2][:, None] - p[3][:, None], p[2] + p[3] - 1.0)


def tomography_exact(black_box) -> AffineChannel:
    """Reconstruct (M, v) from exact Born probabilities.

    Sends the +x, +y, +z, -z eigenstates through the box and measures
    each output along x, y, z.  black_box may be an AffineChannel or any
    state -> state callable that is affine on the ball.
    """
    return _assemble(_probabilities(black_box))


def tomography_sampled(black_box, shots_per_setting: int,
                       seed) -> tuple[AffineChannel, np.ndarray, np.ndarray]:
    """Tomography from finite counts: (estimate, m_err, v_err).

    Each of the 12 (input, read-out axis) settings is sampled shots_per_setting
    times, in the row-major order of P[j, i], at P clipped to [0, 1] (a physical
    channel's P may pass 1 by the ball guard's rounding slack); probabilities become
    relative frequencies, and the 1-sigma errors m_err (3, 3) and v_err (3,) of each
    reconstructed entry follow from binomial propagation through the linear formulas.
    """
    if shots_per_setting < 1:
        raise ValueError(f"shots_per_setting must be >= 1, got {shots_per_setting}")
    rng = np.random.default_rng(seed)
    p = _probabilities(black_box)
    freqs = rng.binomial(shots_per_setting, np.clip(p, 0.0, 1.0)) / shots_per_setting
    var = freqs * (1.0 - freqs) / shots_per_setting
    pole_var = var[2] + var[3]
    m_var = 4.0 * var[:3].T + pole_var[:, None]
    # M_iz = P_iz - P_i(-z): the 2P_ij and -P_iz terms share one
    # frequency, so only two independent samples enter
    m_var[:, 2] = pole_var
    return _assemble(freqs), np.sqrt(m_var), np.sqrt(pole_var)


# variant -> (required keys, optional keys), besides "variant" itself
_SPEC_KEYS = {
    "phase_damping": ({"lambda"}, {"axis"}),
    "depolarizing": ({"lambda"}, set()),
    "rotation": ({"angle"}, {"axis"}),
    "composition": ({"parts"}, set()),
    "raw": ({"m", "v"}, set()),
}


def _finite(value, shape):
    """A JSON number (shape ()) or nested lists of them as floats of that
    shape; a bool, a string, NaN or an infinity raises ValueError."""
    items = np.array(value, dtype=object)
    if items.shape != shape or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in items.flat):
        raise ValueError(f"need numbers of shape {shape}")
    out = items.astype(float)
    if not np.isfinite(out).all():
        raise ValueError("need finite numbers")
    return out[()]


def _spec_value(spec: dict, key: str, shape=(), default=None, convert=None):
    """spec[key] through _finite, then convert(numbers) if given, with
    any failure reported as a ValueError that names the key."""
    value = spec.get(key, default)
    try:
        numbers = _finite(value, shape)
        return numbers if convert is None else convert(numbers)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad channel spec key {key!r} = {value!r}: {exc}") from None


def _spec_axis(spec: dict) -> np.ndarray:
    """The unit axis of spec's [theta, phi] "axis" key, +z by default."""
    return _spec_value(spec, "axis", (2,), [0.0, 0.0], lambda angles: state_from_angles(*angles))


def channel_from_spec(spec: dict) -> AffineChannel:
    """Build a channel from a JSON-style spec dict.

    Variants: phase_damping {lambda, axis: [theta, phi]},
    depolarizing {lambda}, rotation {axis: [theta, phi], angle},
    composition {parts: [spec, ...]} (applied in list order), and
    raw {m: 3x3, v: 3} which must be completely positive.  The axis
    defaults to +z.  Unknown or missing keys and malformed values raise
    ValueError naming the key; values must be finite numbers, not bools
    or strings.
    """
    if not isinstance(spec, dict):
        raise ValueError("channel spec must be a JSON object")
    variant = spec.get("variant")
    if variant not in _SPEC_KEYS:
        raise ValueError(f"unknown channel variant {variant!r}")
    required, optional = _SPEC_KEYS[variant]
    missing = required - set(spec)
    if missing:
        raise ValueError(f"{variant} channel spec is missing keys: {sorted(missing)}")
    extra = set(spec) - required - optional - {"variant"}
    if extra:
        raise ValueError(f"unknown keys in channel spec: {sorted(extra)}")

    if variant == "phase_damping":
        return phase_damping(_spec_value(spec, "lambda", convert=_check_lambda),
                             _spec_axis(spec))
    if variant == "depolarizing":
        return depolarizing(_spec_value(spec, "lambda", convert=_check_lambda))
    if variant == "rotation":
        return rotation_channel(_spec_axis(spec), _spec_value(spec, "angle"))
    if variant == "composition":
        parts = spec["parts"]
        if not isinstance(parts, list) or not parts:
            raise ValueError(f"bad channel spec key 'parts' = {parts!r}: "
                             "need a non-empty list of specs")
        channel = channel_from_spec(parts[0])
        for part in parts[1:]:
            channel = compose(channel, channel_from_spec(part))
        return channel
    channel = AffineChannel(_spec_value(spec, "m", (3, 3)), _spec_value(spec, "v", (3,)))
    if not channel.is_physical():
        raise ChannelInvalidError("raw (m, v) is not completely positive: "
                                  "its Choi matrix has a negative eigenvalue")
    return channel
