"""Key = value run configuration: parsing and validation.

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

from dataclasses import dataclass, fields

from .evolution import MODES

DEFAULT_EPSILONS = tuple(2.0 ** (-2 * k) for k in range(7))

_BENCHMARKS = ("SHEAR", "TRACTION", "RIGID41")


class ConfigError(ValueError):
    """Parse or validation failure; carries the offending line when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def check_settings(settings, epsilons: tuple, mode: str) -> None:
    """Raise ``ConfigError`` unless the settings that a run and a sweep share are valid."""
    if not epsilons or any(e <= 0 for e in epsilons):
        raise ConfigError("epsilon list entries must be positive")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ConfigError("epsilon list must be strictly decreasing")
    if mode not in MODES:
        raise ConfigError(f"boundary mode must be one of {MODES}, got {mode!r}")
    for name in ("shear_modulus", "bulk_modulus", "yield_radius", "tol", "stress_tol", "horizon"):
        if getattr(settings, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if settings.load_scale < 0:
        raise ConfigError("load_scale must be non-negative")


@dataclass(frozen=True)
class RunConfig:
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

    def validate(self) -> "RunConfig":
        if self.benchmark not in _BENCHMARKS:
            raise ConfigError(f"benchmark must be one of {_BENCHMARKS}, got {self.benchmark!r}")
        if self.mesh_n < 1:
            raise ConfigError("mesh_n must be >= 1")
        if self.time_steps < 1:
            raise ConfigError("time_steps must be >= 1")
        check_settings(self, self.epsilon_list, self.boundary_mode)
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        return self

    @property
    def run_epsilon(self) -> float:
        return self.epsilon if self.epsilon is not None else self.epsilon_list[0]


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
    try:
        return RunConfig(**values).validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
