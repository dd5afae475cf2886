"""Sphere quadrature grids, rotations and the coarse sweep that starts
the measurement-axis search.

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

Grid and sweep arrays are read-only.  A grid or sweep of at most 4096
nodes is built once per process, through `functools.cache`, and the same
arrays are handed out after that; larger one-off builds are not kept.
So the axis search rebuilds neither its 400 sweep axes, nor their
monomial table (`sweep_monomials`), nor the moment grid on every step.

Functions here take a leading batch axis where noted, so that many
densities can be swept at once; each batch row is rounded exactly as
the same row would be on its own.
"""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_PAIR_ROW, _PAIR_COL = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on the unit sphere, n_theta Gauss-Legendre
    nodes in cos(theta) times n_phi = 2 n_theta uniform nodes in phi.

    Nodes are ordered row-major with theta ascending (outer index) and
    phi ascending (inner index), so node 0 is the lexicographically
    smallest (theta, phi) pair.
    """

    weights: np.ndarray       # (n_theta*n_phi,) solid-angle weights, sum 4*pi
    units: np.ndarray = field(repr=False)  # (K, 3) node unit vectors

    @classmethod
    def build(cls, n_theta: int) -> "SphereGrid":
        n_phi = 2 * n_theta
        if n_theta < 2:
            raise ValueError(f"grid too coarse: {n_theta}x{n_phi} nodes (need >= 8)")
        x, w = np.polynomial.legendre.leggauss(n_theta)
        order = np.argsort(-x)            # cos(theta) descending => theta ascending
        x, w = x[order], w[order]
        phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
        weights = np.repeat(w, n_phi) * (2.0 * math.pi / n_phi)
        st = np.sin(np.arccos(x))[:, None]
        ux = (st * np.cos(phis)[None, :]).ravel()
        uy = (st * np.sin(phis)[None, :]).ravel()
        uz = np.repeat(x, n_phi)
        units = np.column_stack([ux, uy, uz])
        weights.flags.writeable = units.flags.writeable = False
        return cls(weights=weights, units=units)

    @property
    def size(self) -> int:
        return self.weights.size

    @cached_property
    def monomials(self) -> np.ndarray:
        """(K, 6) read-only weighted node monomials w u_i u_j, i <= j, built on first use."""
        table = self.weights[:, None] * self.units[:, _PAIR_ROW] * self.units[:, _PAIR_COL]
        table.flags.writeable = False
        return table

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


_KEPT_POINTS = 4096          # grids and sweeps of at most this many nodes are kept
_kept_grid = cache(SphereGrid.build)


def moment_grid(n_updates: int) -> SphereGrid:
    """Smallest grid on which the first and second moments of a uniform
    prior after `n_updates` Bayes updates are exact (see module notes)."""
    n_theta = (n_updates + 4) // 2          # ceil((n_updates + 3) / 2)
    return (_kept_grid if 2 * n_theta * n_theta <= _KEPT_POINTS else SphereGrid.build)(n_theta)


def _spiral(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    pts.flags.writeable = False
    return pts


_kept_spiral = cache(_spiral)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly equidistributed unit vectors (golden-angle spiral), as a
    read-only (n, 3) array."""
    return (_kept_spiral if n <= _KEPT_POINTS else _spiral)(n)


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


SWEEP_POINTS = 400          # axes in maximize_on_sphere's sweep
_TIE_TOL = 1e-12            # sweep values this close below a row's maximum tie with it


@cache
def sweep_monomials() -> np.ndarray:
    """(6, SWEEP_POINTS) read-only monomials m_i m_j, i <= j, of the sweep
    axes that `maximize_on_sphere` hands its objective: the transpose of
    a (SWEEP_POINTS, 6) array."""
    dirs = _kept_spiral(SWEEP_POINTS)
    table = (dirs[:, _PAIR_ROW] * dirs[:, _PAIR_COL]).T
    table.flags.writeable = False
    return table


def maximize_on_sphere(objective):
    """Best axis of a coarse Fibonacci sweep, for many rows at once.

    objective maps the (n, 3) sweep axes, shared by every row and the
    same read-only array on every call, to (..., n) values.  Returns
    (direction, flat), shaped (..., 3) and (...): each row's first axis
    whose value is within _TIE_TOL of the row's maximum, and whether its
    sweep was constant to within 1e-6.  Values that tie in exact
    arithmetic thus pick the same axis whichever way roundoff orders them.
    """
    pts = fibonacci_sphere(SWEEP_POINTS)
    vals = objective(pts)
    top = vals.max(axis=-1, keepdims=True)
    flat = top[..., 0] - vals.min(axis=-1) < 1e-6
    return pts[np.argmax(vals >= top - _TIE_TOL, axis=-1)], flat
