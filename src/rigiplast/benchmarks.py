"""Benchmark catalog and the executable non-uniqueness construction.

Three load programs drive the tests and the sweep harness:

* ``SHEAR``    - homogeneous simple shear, full-Dirichlet w(t) = t*gamma*(x2, 0);
  admits a closed-form cell solution (yield time eps*kappa/(sqrt(2)*mu*gamma),
  post-yield sigma_12 = kappa/sqrt(2)).
* ``TRACTION`` - bottom face clamped, tangential traction ramp on the top face.
* ``RIGID41``  - rigid-motion boundary datum w(t) = t*(A x + b) with skew A,
  the setting of the non-uniqueness family below.

All programs are divergence-free in w and start from zero data, so the
stiff-elasticity sweep assumptions hold.

The non-uniqueness construction: on the unit square with a rigid-motion
velocity, every stress of the form [[f(x2), c], [c, g(x1)]] with small enough
(c, f, g) is admissible and equilibrated, so its multiples lam * sigma (with
|lam| <= 2) form a family of distinct solutions of the rigid-plastic system.
f and g are piecewise constants with breakpoints on mesh lines so the discrete
equilibrium residual vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .evolution import LoadProgram
from .fem import divergence_check, strain_of, tensor_l2
from .mesh import FACES, Mesh, build_square_mesh
from .tensors import HookeTensor, YieldSet, ddot, dev_decompose, norm

BENCHMARK_IDS = ("SHEAR", "TRACTION", "RIGID41")

SHEAR_RATE = 4.0          # gamma of the SHEAR datum, units kappa/(mu * time)
TRACTION_FINAL = 0.45     # final top traction of TRACTION, units of kappa


class VerificationError(RuntimeError):
    """A check of the non-uniqueness construction failed; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant function of one variable with explicit sup norm.

    ``breaks`` are the interior jump locations (sorted); ``values`` has one
    more entry than ``breaks``.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("need len(values) == len(breaks) + 1")
        if list(self.breaks) != sorted(self.breaks):
            raise ValueError("breakpoints must be sorted")

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls((), (float(value),))

    def __call__(self, x):
        idx = np.searchsorted(np.asarray(self.breaks), np.asarray(x, dtype=float), side="right")
        return np.asarray(self.values, dtype=float)[idx]

    @property
    def sup(self) -> float:
        return max(abs(v) for v in self.values)

    def aligned_with(self, n_cells_per_side: int) -> bool:
        """True if every breakpoint lies on a mesh line of the n x n square."""
        for b in self.breaks:
            if abs(b * n_cells_per_side - round(b * n_cells_per_side)) > 1e-12:
                return False
        return True


@dataclass(frozen=True)
class Example41Params:
    """Data of the non-uniqueness family sigma^lam on the unit square.

    The invariants are the construction's hypotheses: sqrt(2 c^2 + ||f||^2
    + ||g||^2) < kappa/2, |lam| <= 2, A skew. They are enforced exactly at
    construction; a violating lam raises immediately.
    """

    c: float
    f: PiecewiseConstant
    g: PiecewiseConstant
    A: np.ndarray
    b: np.ndarray
    lam: float
    kappa: float = 1.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.shape != (2, 2) or b.shape != (2,):
            raise ValueError("A must be 2x2 and b a 2-vector")
        if not np.array_equal(A.T, -A):
            raise ValueError("A must be skew-symmetric")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.smallness >= 0.5 * self.kappa:
            raise ValueError(
                f"smallness bound violated: sqrt(2c^2 + |f|^2 + |g|^2) = "
                f"{self.smallness:.6g} >= kappa/2 = {0.5 * self.kappa:.6g}"
            )
        if abs(self.lam) > 2.0:
            raise ValueError(f"|lam| = {abs(self.lam):.6g} exceeds 2")

    @property
    def smallness(self) -> float:
        return float(np.sqrt(2 * self.c**2 + self.f.sup**2 + self.g.sup**2))

    def with_lam(self, lam: float) -> "Example41Params":
        return replace(self, lam=lam)

    def velocity(self, points: np.ndarray) -> np.ndarray:
        """The rigid motion v(x) = A x + b at the given points."""
        return points @ self.A.T + self.b


def default_example41_params(kappa: float = 1.0) -> Example41Params:
    """Stock parameters: step-function diagonal entries, jumps on mesh lines."""
    return Example41Params(
        c=0.2 * kappa,
        f=PiecewiseConstant((0.5,), (0.15 * kappa, -0.15 * kappa)),
        g=PiecewiseConstant((0.5,), (-0.1 * kappa, 0.1 * kappa)),
        A=np.array([[0.0, 0.3], [-0.3, 0.0]]),
        b=np.array([0.1, 0.0]),
        lam=2.0,
        kappa=kappa,
    )


def example41_stress(params: Example41Params, mesh: Mesh) -> np.ndarray:
    """The stress lam * [[f(x2), c], [c, g(x1)]] sampled at cell centroids."""
    if not (params.f.aligned_with(mesh.n_side) and params.g.aligned_with(mesh.n_side)):
        raise ValueError("f/g breakpoints must lie on mesh lines")
    cent = mesh.centroids
    sigma = np.column_stack([
        params.f(cent[:, 1]),
        np.full(mesh.n_cells, params.c),
        params.g(cent[:, 0]),
    ])
    return params.lam * sigma


@dataclass(frozen=True)
class NonUniquenessWitness:
    """Two distinct admissible stresses solving the rigid-plastic system."""

    lam_pair: tuple[float, float]
    stress_gap_l2: float
    equilibrium_residuals: tuple[float, float]
    feasibility_margins: tuple[float, float]
    ev_max: float
    div_v_max: float
    flow_rule_sides: tuple[float, float]

    @property
    def nonuniqueness(self) -> bool:
        return self.stress_gap_l2 > 0.0

    def to_dict(self) -> dict:
        return {
            "lam_pair": list(self.lam_pair),
            "stress_gap_l2": self.stress_gap_l2,
            "equilibrium_residuals": list(self.equilibrium_residuals),
            "feasibility_margins": list(self.feasibility_margins),
            "ev_max": self.ev_max,
            "div_v_max": self.div_v_max,
            "flow_rule_sides": list(self.flow_rule_sides),
            "nonuniqueness_witness": self.nonuniqueness,
        }


def example41_verify(
    params: Example41Params,
    lam_pair: tuple[float, float],
    mesh: Mesh,
    yield_set: YieldSet,
) -> NonUniquenessWitness:
    """Check that two members of the family solve the rigid-plastic system.

    For v(x) = A x + b: Ev = 0 and div v = 0 elementwise; for each lam the
    stress is equilibrated (zero discrete residual), strictly feasible, and
    satisfies the flow rule with both sides zero. The two stresses must
    differ. Any failed check raises ``VerificationError``.
    """
    lam1, lam2 = lam_pair
    if lam1 == lam2:
        raise ValueError("the two family parameters must differ")
    p1, p2 = params.with_lam(lam1), params.with_lam(lam2)
    if abs(yield_set.radius - params.kappa) > 1e-14 * params.kappa:
        raise ValueError("yield radius does not match the construction's kappa")

    v = params.velocity(mesh.nodes)
    ev = strain_of(v, mesh)
    ev_max = float(norm(ev).max())
    div_v = np.abs(ev[:, 0] + ev[:, 2]).max()
    scale = max(1.0, float(np.abs(v).max()))
    diagnostics = {"ev_max": ev_max, "div_v_max": float(div_v)}
    if ev_max > 1e-13 * scale:
        raise VerificationError(f"rigid motion has nonzero strain {ev_max:.3e}", diagnostics)

    residuals, margins, flow_sides = [], [], []
    sigmas = []
    for pp in (p1, p2):
        sigma = example41_stress(pp, mesh)
        sigmas.append(sigma)
        interior, _ = divergence_check(sigma, mesh)
        residuals.append(interior)
        dev_s, _ = dev_decompose(sigma)
        margins.append(yield_set.radius - float(norm(dev_s).max()))
        # flow rule with Ev = 0: both H(Ev) and sigma_D : Ev vanish
        h_side = float((mesh.areas * yield_set.radius * norm(ev)).sum())
        pair_side = float((mesh.areas * ddot(dev_s, ev)).sum())
        flow_sides.extend([h_side, pair_side])

    sig_scale = max(1.0, max(float(norm(s).max()) for s in sigmas))
    diagnostics.update({"residuals": residuals, "margins": margins})
    if max(residuals) > 1e-12 * sig_scale:
        raise VerificationError(f"equilibrium residual {max(residuals):.3e} not zero", diagnostics)
    if min(margins) <= 0.0:
        raise VerificationError("stress not strictly feasible", diagnostics)
    if max(abs(x) for x in flow_sides) > 1e-12 * sig_scale * max(1.0, ev_max):
        raise VerificationError("flow-rule identity violated", diagnostics)

    gap = tensor_l2(mesh.areas, sigmas[0] - sigmas[1])
    if gap <= 0.0:
        raise VerificationError("the two stresses coincide", diagnostics)
    return NonUniquenessWitness(
        lam_pair=(float(lam1), float(lam2)),
        stress_gap_l2=gap,
        equilibrium_residuals=(residuals[0], residuals[1]),
        feasibility_margins=(margins[0], margins[1]),
        ev_max=ev_max,
        div_v_max=float(div_v),
        flow_rule_sides=(max(flow_sides[::2]), max(flow_sides[1::2])),
    )


@dataclass(frozen=True)
class Benchmark:
    """A load program on its mesh, and the constitutive data."""

    id: str
    program: LoadProgram
    hooke: HookeTensor
    yield_set: YieldSet
    meta: dict

    @property
    def mesh(self) -> Mesh:
        return self.program.mesh


def benchmark_catalog(
    benchmark_id: str,
    mesh_n: int = 16,
    n_steps: int = 32,
    hooke: HookeTensor | None = None,
    yield_radius: float = 1.0,
    load_scale: float = 1.0,
    horizon: float = 1.0,
) -> Benchmark:
    """Build a catalog entry; the Hooke tensor keeps its own epsilon."""
    if hooke is None:
        hooke = HookeTensor(1.0, 1.0, 1.0)
    yset = YieldSet(yield_radius)
    times = np.linspace(0.0, horizon, n_steps + 1)

    if benchmark_id not in BENCHMARK_IDS:
        raise ValueError(f"unknown benchmark id {benchmark_id!r}; known: {BENCHMARK_IDS}")
    mesh = build_square_mesh(mesh_n, ("bottom",) if benchmark_id == "TRACTION" else FACES)
    w = np.zeros((len(times), mesh.n_nodes, 2))
    f = np.zeros((len(times), mesh.n_cells, 2))
    g = np.zeros((len(times), len(mesh.neumann_boundary.lengths), 2))
    if benchmark_id == "SHEAR":
        gamma = SHEAR_RATE * load_scale
        column = np.column_stack([mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])
        w = (times * gamma)[:, None, None] * column
        meta = {"gamma": gamma}
    elif benchmark_id == "TRACTION":
        s_final = TRACTION_FINAL * yield_radius * load_scale
        g[:, mesh.neumann_boundary.faces == "top", 0] = (times / horizon * s_final)[:, None]
        meta = {"traction_final": s_final}
    else:  # RIGID41
        params = default_example41_params(yield_radius)
        vel = params.velocity(mesh.nodes) * load_scale
        w = times[:, None, None] * vel
        meta = {"example41": params}
    return Benchmark(id=benchmark_id, program=LoadProgram(mesh, times, w, f, g), hooke=hooke,
                     yield_set=yset, meta=meta)
