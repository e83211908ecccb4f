"""Symmetric-tensor algebra, the isotropic Hooke law and the von Mises return map.

The package is plane strain: symmetric 2 x 2 tensors are stored packed,
row-major upper triangle, as (a11, a12, a22). This order is fixed once here;
every serialized field in the package uses it. All module functions accept
arrays of packed tensors (components on the last axis) and broadcast over the
leading axes, so a cell field of shape ``(n_cells, 3)`` works the same as a
single tensor of shape ``(3,)``.

The double contraction A:B = tr(AB) counts the off-diagonal entry twice.
The kernels are written out component by component rather than as numpy
reductions over the length-3 last axis, which cost several times more per
call on cell fields; they add in the order such a reduction does, from +0.0,
so the results are the same bit for bit, signed zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Deviatoric tolerance: |tr p| <= DEV_TOL * max(1, |p|) counts as trace-free.
DEV_TOL = 1e-10

_PACKED = ((0, 0), (0, 1), (1, 1))
WEIGHTS = np.array([1.0, 2.0, 1.0])  # contraction weights of the packed components


class NonDeviatoricError(ValueError):
    """Raised when an operation defined on trace-free tensors gets a trace."""


def dim_of(a: np.ndarray) -> int:
    """Spatial dimension of packed tensors: 2; any other component count raises."""
    if a.shape[-1] != 3:
        raise ValueError(f"last axis has {a.shape[-1]} components, expected 3 (2-D)")
    return 2


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 1.0])


def trace(a: np.ndarray) -> np.ndarray:
    dim_of(a)
    return 0.0 + a[..., 0] + a[..., 2]


def ddot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Double contraction A:B = tr(AB), off-diagonals counted twice.

    It is 0.0 + x0 + 2 x1 + x2 for the products x = a * b, summed as
    ((2 x1 + x0) + x2) + 0.0, which is the same bits: a sum of two terms does
    not depend on their order, and adding the 0.0 last gives a zero the sign
    that adding it first does.
    """
    dim_of(a)
    x = a * b
    out = x[..., 1] * 2.0
    out += x[..., 0]
    out += x[..., 2]
    out += 0.0
    return out


def norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm |A| = sqrt(A:A): ``ddot(a, a)`` without its 0.0, since a square is
    never -0.0."""
    dim_of(a)
    x = a * a
    out = x[..., 1] * 2.0
    out += x[..., 0]
    out += x[..., 2]
    return np.sqrt(out)


def dev_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal split A = dev(A) + mean_trace * I.

    Returns (deviator, mean_trace) with mean_trace = tr(A)/2, so that
    dev(A):I = 0 and |A|^2 = |dev A|^2 + 2 * mean_trace^2.
    """
    mean = trace(a) / 2
    out = a.astype(float, copy=True)
    out[..., 0] -= mean
    out[..., 2] -= mean
    return out, mean


def deviator(a: np.ndarray) -> np.ndarray:
    return dev_decompose(a)[0]


def is_deviatoric(a: np.ndarray) -> np.ndarray:
    return np.abs(trace(a)) <= DEV_TOL * np.maximum(1.0, norm(a))


def require_deviatoric(a: np.ndarray, what: str = "tensor") -> None:
    traces = np.abs(trace(a))
    if traces.max(initial=0.0) <= DEV_TOL:
        return  # every entry is within DEV_TOL * max(1, |a|); a NaN compares false and is checked
    if not np.all(is_deviatoric(a)):
        worst = float(np.max(traces))
        raise NonDeviatoricError(f"{what} has trace up to {worst:.3e} beyond tolerance")


def sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetrized outer product, (a (.) b)_ij = (a_i b_j + a_j b_i) / 2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"vector dims differ: {a.shape[-1]} vs {b.shape[-1]}")
    if a.shape[-1] != 2:
        raise ValueError(f"unsupported dim {a.shape[-1]}, expected 2")
    comps = [0.5 * (a[..., i] * b[..., j] + a[..., j] * b[..., i]) for i, j in _PACKED]
    return np.stack(comps, axis=-1)


@dataclass(frozen=True)
class HookeTensor:
    """Isotropic elasticity law C^eps xi = (2 mu dev xi + kappa_b tr(xi) I) / eps.

    mu and kappa_b are the shear and bulk moduli of the base law C; eps is the
    dimensionless stiffening parameter (eps -> 0 makes the material rigid).
    """

    shear_modulus: float
    bulk_modulus: float
    epsilon: float = 1.0

    def __post_init__(self):
        if self.shear_modulus <= 0 or self.bulk_modulus <= 0 or self.epsilon <= 0:
            raise ValueError("shear_modulus, bulk_modulus and epsilon must be positive")

    def with_epsilon(self, epsilon: float) -> "HookeTensor":
        return HookeTensor(self.shear_modulus, self.bulk_modulus, epsilon)

    def alpha(self) -> float:
        """Lower coercivity constant: alpha |xi|^2 <= C^eps xi : xi."""
        return min(2.0 * self.shear_modulus, 2.0 * self.bulk_modulus) / self.epsilon

    def beta(self) -> float:
        """Upper growth constant: C^eps xi : xi <= beta |xi|^2."""
        return max(2.0 * self.shear_modulus, 2.0 * self.bulk_modulus) / self.epsilon

    @property
    def scaled_shear(self) -> float:
        """Deviatoric stiffness 2 mu / eps of the scaled law."""
        return 2.0 * self.shear_modulus / self.epsilon

    def apply(self, xi: np.ndarray) -> np.ndarray:
        """C^eps xi, broadcast over leading axes."""
        dev, mean = dev_decompose(np.asarray(xi, dtype=float))
        out = self.scaled_shear * dev
        tr_part = 2 * self.bulk_modulus / self.epsilon * mean
        out[..., 0] += tr_part
        out[..., 2] += tr_part
        return out

    def matrix(self) -> np.ndarray:
        """Packed-component matrix of C^eps (sigma = M @ e, no contraction weights), read-only;
        built on first use and kept, since the law never changes."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        m = self.apply(np.eye(3)).T.copy()
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class YieldSet:
    """The admissible set of deviatoric stresses: a von Mises ball |tau| <= radius."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("yield radius must be positive")

    def support(self, p: np.ndarray) -> np.ndarray:
        """Support function H(p) = sup_{tau in K} tau : p = radius * |p|.

        Defined on trace-free tensors only; a trace beyond tolerance raises
        NonDeviatoricError (H is +inf off the deviatoric subspace).
        """
        p = np.asarray(p, dtype=float)
        require_deviatoric(p, "support-function argument")
        return self.radius * norm(p)

    def project(self, tau: np.ndarray) -> np.ndarray:
        """Euclidean projection of a deviatoric tensor onto the ball."""
        tau = np.asarray(tau, dtype=float)
        require_deviatoric(tau, "projection argument")
        return _cap_to_ball(tau, self.radius)


# One-sided safety factor: plastic stresses are scaled so the stored magnitude
# never exceeds the radius in floating point (keeps the feasibility checks and
# projection idempotency exact, bias ~4 ulp).
_CAP_SAFETY = 1.0 - 4.0 * np.finfo(float).eps


def _cap_to_ball(tau: np.ndarray, radius: float) -> np.ndarray:
    m = norm(tau)
    over = m > radius
    if not np.any(over):
        return tau.copy()
    scale = np.ones_like(m)
    np.divide(radius * _CAP_SAFETY, m, out=scale, where=over)
    return tau * scale[..., None]


def _by_cell(op, a: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op(a, x[..., None])``: each component of the packed tensors ``a`` with the cell's
    scalar ``x``. Looping down the cells for each component (``order="F"``) is the same
    arithmetic as numpy's default loop across the three components of each cell, at a
    fraction of its cost on a cell field."""
    return op(a, x[..., None], out=np.empty_like(a) if out is None else out, order="F")


def radial_return(
    e_dev: np.ndarray,
    p_old: np.ndarray,
    hooke: HookeTensor,
    yield_set: YieldSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimizer of the cellwise incremental problem.

    Solves  min_p  (1/2) C^eps (E - p):(E - p) + radius * |p - p_old|  over
    deviatoric p, for E with deviatoric part ``e_dev``. Returns
    (p_new, sigma_dev) where sigma_dev = (2 mu / eps)(e_dev - p_new):

    * trial s = (2 mu / eps)(e_dev - p_old); if |s| <= radius the step is
      elastic, p_new = p_old and sigma_dev = s;
    * otherwise p_new = p_old + ((|s| - radius) / (2 mu / eps)) s/|s| and
      sigma_dev sits on the yield surface along s.

    The increment p_new - p_old is a nonnegative multiple of sigma_dev, so
    sigma_dev : (p_new - p_old) = radius * |p_new - p_old| (Hill's maximum
    plastic work at the update).
    """
    e_dev = np.asarray(e_dev, dtype=float)
    p_old = np.asarray(p_old, dtype=float)
    require_deviatoric(e_dev, "deviatoric strain")
    require_deviatoric(p_old, "previous plastic strain")

    g = hooke.scaled_shear
    kappa = yield_set.radius
    s = g * (e_dev - p_old)
    m = norm(s)
    plastic = m > kappa

    if not plastic.any():
        return p_old.copy(), s
    if plastic.all():  # the arithmetic below without its masks, on the same operands
        p_new = _by_cell(np.divide, s, m)
        _by_cell(np.multiply, p_new, (m - kappa) / g, out=p_new)
        p_new += p_old
        return p_new, _by_cell(np.multiply, s, kappa * _CAP_SAFETY / m)

    scale = np.ones_like(m)
    np.divide(kappa * _CAP_SAFETY, m, out=scale, where=plastic)
    sigma_dev = _by_cell(np.multiply, s, scale)
    dp_mag = np.where(plastic, (m - kappa) / g, 0.0)
    direction = np.zeros_like(s)
    np.divide(s, m[..., None], out=direction, where=plastic[..., None], order="F")
    p_new = _by_cell(np.multiply, direction, dp_mag, out=direction)
    p_new += p_old
    return p_new, sigma_dev


_BULK = np.outer(identity(), identity())   # i i^T, the bulk part of C per unit modulus
_DEVIATOR = np.eye(3) - 0.5 * _BULK        # P, the packed deviator


def consistent_tangent(
    e_dev: np.ndarray,
    p_old: np.ndarray,
    hooke: HookeTensor,
    yield_set: YieldSet,
) -> np.ndarray:
    """Packed 2-D tangent d sigma / d E of the return-mapped stress, shape (n, 3, 3).

    ``sigma = D @ dE`` with packed components and no contraction weights, for
    the same (``e_dev``, ``p_old``) as ``radial_return``. Elastic cells get
    the matrix of C^eps. On the plastic branch, with trial stress s and
    n = s/|s|, the deviatoric part is g (radius/|s|) (I - n n^T W) P, where
    g = 2 mu / eps, P is the deviator and W = diag(1, 2, 1) holds the
    contraction weights; the bulk part (kappa_b / eps) i i^T with
    i = (1, 0, 1) is unchanged (Simo & Taylor's consistent tangent).
    """
    g = hooke.scaled_shear
    s = g * (np.asarray(e_dev, dtype=float) - p_old)
    m = norm(s)
    plastic = m > yield_set.radius
    out = np.repeat(hooke.matrix()[None], len(s), axis=0)
    if np.any(plastic):
        n = s[plastic] / m[plastic, None]
        nwp = (n * WEIGHTS) @ _DEVIATOR
        alpha = g * yield_set.radius / m[plastic]
        out[plastic] = (alpha[:, None, None] * (_DEVIATOR - n[:, :, None] * nwp[:, None, :])
                        + hooke.bulk_modulus / hooke.epsilon * _BULK)
    return out
