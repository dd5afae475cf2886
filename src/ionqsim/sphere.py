"""Sphere discretization and search utilities.

The quadrature grid is a product rule: Gauss-Legendre nodes in
cos(theta) times a uniform trapezoid rule in phi.  After N Bayes
updates of a uniform prior the density is a polynomial of degree N in
the Cartesian components of u, so the moments S = <u> and Q = <u u^T>
integrate polynomials of degree at most N + 2.  Over phi these are
trigonometric polynomials of order <= N + 2, which the trapezoid rule
integrates exactly with n_phi >= N + 3 nodes; what is left is a
polynomial of degree <= N + 2 in cos(theta), which n_theta-point
Gauss-Legendre integrates exactly when 2 n_theta - 1 >= N + 2, i.e.
n_theta >= (N + 3)/2.  `moment_grid(N)` is the smallest such grid with
n_phi = 2 n_theta (8x16 at N = 12).

Functions here take a leading batch axis where noted, so that many
densities can be searched at once; each batch row is rounded exactly
as the same row would be on its own.
"""

import math
from dataclasses import dataclass, field

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on the unit sphere.

    Nodes are ordered row-major with theta ascending (outer index) and
    phi ascending (inner index), so node 0 is the lexicographically
    smallest (theta, phi) pair.
    """

    thetas: np.ndarray        # (n_theta,) colatitudes, ascending
    phis: np.ndarray          # (n_phi,) azimuths, ascending from 0
    weights: np.ndarray       # (n_theta*n_phi,) solid-angle weights, sum 4*pi
    units: np.ndarray = field(repr=False)  # (K, 3) node unit vectors

    @classmethod
    def build(cls, n_theta: int, n_phi: int) -> "SphereGrid":
        if n_theta * n_phi < 8:
            raise ValueError(f"grid too coarse: {n_theta}x{n_phi} nodes (need >= 8)")
        x, w = np.polynomial.legendre.leggauss(n_theta)
        order = np.argsort(-x)            # cos(theta) descending => theta ascending
        x, w = x[order], w[order]
        thetas = np.arccos(x)
        phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
        weights = np.repeat(w, n_phi) * (2.0 * math.pi / n_phi)
        st = np.sin(thetas)[:, None]
        ux = (st * np.cos(phis)[None, :]).ravel()
        uy = (st * np.sin(phis)[None, :]).ravel()
        uz = np.repeat(x, n_phi)
        units = np.column_stack([ux, uy, uz])
        return cls(thetas=thetas, phis=phis, weights=weights, units=units)

    @property
    def size(self) -> int:
        return self.weights.size

    def node_angles(self) -> np.ndarray:
        """(K, 2) array of (theta, phi) per node, in node order."""
        t = np.repeat(self.thetas, self.phis.size)
        p = np.tile(self.phis, self.thetas.size)
        return np.column_stack([t, p])

    def integrate(self, values: np.ndarray):
        """Quadrature of (..., K) node values; a float for a single density."""
        total = _row_dot(values, self.weights)
        return float(total) if total.ndim == 0 else total


def _row_dot(a, b) -> np.ndarray:
    """Dot products along the last axis, broadcast over the leading ones.

    Each row goes through the same BLAS dot as a 1-D np.dot, so a batch
    row rounds exactly as it would on its own.
    """
    return np.matmul(np.asarray(a)[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


def _row_norm(a) -> np.ndarray:
    """Euclidean norm along the last axis, rounded like np.linalg.norm of one row."""
    return np.sqrt(_row_dot(a, a))


def moment_grid(n_updates: int) -> SphereGrid:
    """Smallest grid on which the first and second moments of a uniform
    prior after `n_updates` Bayes updates are exact (see module notes)."""
    n_theta = (n_updates + 4) // 2          # ceil((n_updates + 3) / 2)
    return SphereGrid.build(n_theta, 2 * n_theta)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly equidistributed unit vectors (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def fibonacci_cap(center: np.ndarray, radius: float, n: int) -> np.ndarray:
    """n unit vectors covering the spherical cap of angular radius
    `radius` around `center` (golden-angle spiral in the cap).

    `center` may be (..., 3); the result is then (..., n, 3), one cap
    per center, all rotated from the same spiral around +z.
    """
    i = np.arange(n)
    cos_r = math.cos(min(radius, math.pi))
    z = 1.0 - (1.0 - cos_r) * (2.0 * i + 1.0) / (2.0 * n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return pts @ np.swapaxes(_frame_to(center), -1, -2)


def _frame_to(direction: np.ndarray) -> np.ndarray:
    """Rotation matrices mapping +z to the given unit direction(s), (..., 3, 3)."""
    d = np.asarray(direction, dtype=float)
    c = d[..., 2]
    axis = np.stack([-d[..., 1], d[..., 0], np.zeros_like(c)], axis=-1)   # z x d
    norm = _row_norm(axis)[..., None]
    rot = rotation_matrix(axis / np.where(norm > 0.0, norm, 1.0), np.arccos(np.clip(c, -1.0, 1.0)))
    rot[c > 1.0 - 1e-12] = np.eye(3)
    rot[c < -1.0 + 1e-12] = np.diag([1.0, -1.0, -1.0])
    return rot


def rotate(v, axis, angle):
    """Right-handed Rodrigues rotation of v about the unit axis by angle.

    Broadcasts over (..., 3) vectors and axes and (...,) angles.
    """
    v = np.asarray(v, dtype=float)
    axis = np.asarray(axis, dtype=float)
    c, s = np.cos(angle)[..., None], np.sin(angle)[..., None]
    a0, a1, a2 = axis[..., 0], axis[..., 1], axis[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    cross = np.stack([a1 * v2 - a2 * v1, a2 * v0 - a0 * v2, a0 * v1 - a1 * v0], axis=-1)
    return v * c + cross * s + axis * _row_dot(axis, v)[..., None] * (1.0 - c)


def rotation_matrix(axis: np.ndarray, angle) -> np.ndarray:
    """Right-handed rotation matrix about a unit axis: `rotate` applied
    to the basis vectors, one per column.

    Broadcasts over (..., 3) axes and (...,) angles to (..., 3, 3).
    """
    axis = np.asarray(axis, dtype=float)[..., None, :]
    return np.swapaxes(rotate(np.eye(3), axis, np.asarray(angle)[..., None]), -1, -2)


# maximize_on_sphere sweeps SWEEP_POINTS axes, then searches _CAP_ROUNDS caps
# of _CAP_SIZE axes, each _CAP_SHRINK times the radius of the last.
SWEEP_POINTS = 400
_CAP_ROUNDS = 2
_CAP_SIZE = 96
_CAP_SHRINK = 0.2


def maximize_on_sphere(objective):
    """Maximize a batch objective over unit directions, for many rows at once.

    objective maps an (n, 3) array of unit vectors shared by every row,
    or an (..., n, 3) array with one set per row, to (..., n) values.  A
    coarse Fibonacci sweep locates each row's basin, then local cap
    grids shrink around the running best.  Returns (direction, value,
    flat), shaped (..., 3), (...) and (...), where flat reports whether
    the coarse sweep was constant to within 1e-6 (degenerate objective).
    """
    pts = fibonacci_sphere(SWEEP_POINTS)
    vals = objective(pts)
    flat = np.max(vals, axis=-1) - np.min(vals, axis=-1) < 1e-6
    k = np.argmax(vals, axis=-1)
    best, best_val = pts[k], np.take_along_axis(vals, k[..., None], axis=-1)[..., 0]
    radius = 2.0 * math.sqrt(4.0 * math.pi / SWEEP_POINTS)
    for _ in range(_CAP_ROUNDS):
        cand = fibonacci_cap(best, radius, _CAP_SIZE)
        cand /= np.linalg.norm(cand, axis=-1)[..., None]
        vals = objective(cand)
        k = np.argmax(vals, axis=-1)[..., None]
        val = np.take_along_axis(vals, k, axis=-1)[..., 0]
        better = val > best_val
        pick = np.take_along_axis(cand, k[..., None], axis=-2)[..., 0, :]
        best = np.where(better[..., None], pick, best)
        best_val = np.where(better, val, best_val)
        radius *= _CAP_SHRINK
    return best, best_val, flat
