"""Key = value run configuration: parsing and validation.

``RunConfig`` is the one settings type of every command; it checks each
value when it is made, and numbers must be finite. ``SweepConfig`` makes one
under the sweep's names ``epsilons``, ``n_steps`` and ``mode`` for
``epsilon_list``, ``time_steps`` and ``boundary_mode``.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored. Unknown keys are errors (fail-closed). Documented keys and defaults:

    benchmark      = SHEAR          SHEAR | TRACTION | RIGID41
    mesh_n         = 16             cells per side
    time_steps     = 32             number of increments M
    epsilon_list   = 1, 0.25, ...   strictly decreasing positives
                                    (default 2^0, 2^-2, ..., 2^-12)
    epsilon        =                single-run epsilon (default: first of list)
    shear_modulus  = 1.0
    bulk_modulus   = 1.0
    yield_radius   = 1.0
    boundary_mode  = strong         strong | relaxed
    tol            = 1e-10          inner solver: stop once the last decrease
                                    is below tol * (1 + |functional|)
                                    at the step's predictor
    stress_tol     = 1e-10          inner solver: and the equilibrium residual
                                    is below stress_tol * yield_radius (or its
                                    round-off floor, if larger)
    load_scale     = 1.0            multiplies the benchmark load amplitude (>= 0)
    horizon        = 1.0            final time T
    out_dir        = out            artifact directory
    seed           = 0              used only by randomized property tooling
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

from .benchmarks import BENCHMARK_IDS, Benchmark, benchmark_catalog
from .evolution import MODES
from .tensors import HookeTensor

DEFAULT_EPSILONS = tuple(2.0 ** (-2 * k) for k in range(7))


class ConfigError(ValueError):
    """Parse or validation failure; carries the offending line when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run or a sweep, under its config-file key; checked when made."""

    benchmark: str = "SHEAR"
    mesh_n: int = 16
    time_steps: int = 32
    epsilon_list: tuple = DEFAULT_EPSILONS
    epsilon: float | None = None
    shear_modulus: float = 1.0
    bulk_modulus: float = 1.0
    yield_radius: float = 1.0
    boundary_mode: str = "strong"
    tol: float = 1e-10
    stress_tol: float = 1e-10
    load_scale: float = 1.0
    horizon: float = 1.0
    out_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        # `0 < x < inf` rejects nan (every comparison with nan is false) and inf
        epsilons = tuple(float(e) for e in self.epsilon_list)
        object.__setattr__(self, "epsilon_list", epsilons)
        if self.benchmark not in BENCHMARK_IDS:
            raise ConfigError(f"benchmark must be one of {BENCHMARK_IDS}, got {self.benchmark!r}")
        if self.boundary_mode not in MODES:
            raise ConfigError(f"boundary mode must be one of {MODES}, got {self.boundary_mode!r}")
        for name, least in (("mesh_n", 1), ("time_steps", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not epsilons or not all(0 < e < math.inf for e in epsilons):
            raise ConfigError(f"epsilon list entries must be positive and finite, got {epsilons}")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise ConfigError("epsilon list must be strictly decreasing")
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        for name in ("shear_modulus", "bulk_modulus", "yield_radius", "tol", "stress_tol", "horizon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.load_scale < math.inf:
            raise ConfigError(f"load_scale must be non-negative and finite, got {self.load_scale}")

    @property
    def run_epsilon(self) -> float:
        return self.epsilon if self.epsilon is not None else self.epsilon_list[0]

    def build_benchmark(self) -> Benchmark:
        return benchmark_catalog(
            self.benchmark, mesh_n=self.mesh_n, n_steps=self.time_steps,
            hooke=HookeTensor(self.shear_modulus, self.bulk_modulus, 1.0),
            yield_radius=self.yield_radius, load_scale=self.load_scale,
            horizon=self.horizon,
        )


def SweepConfig(*, epsilons=DEFAULT_EPSILONS, n_steps=RunConfig.time_steps,
                mode=RunConfig.boundary_mode, **settings) -> RunConfig:
    """The ``RunConfig`` of a sweep, with its list, step count and mode under the sweep's names."""
    return RunConfig(epsilon_list=epsilons, time_steps=n_steps, boundary_mode=mode, **settings)


_INT_KEYS = {"mesh_n", "time_steps", "seed"}
_FLOAT_KEYS = {"epsilon", "shear_modulus", "bulk_modulus", "yield_radius",
               "tol", "stress_tol", "load_scale", "horizon"}
_STR_KEYS = {"benchmark", "boundary_mode", "out_dir"}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"epsilon_list"}
assert _KNOWN_KEYS == {f.name for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse and validate; unknown keys and malformed lines raise ConfigError."""
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line_no)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key == "epsilon_list":
                values[key] = tuple(float(v) for v in val.split(",") if v.strip())
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line_no) from exc
    return RunConfig(**values)
