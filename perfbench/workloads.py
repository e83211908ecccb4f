"""The benchmark's workloads: generated configs and the check on each op's output.

Every workload is one ``rigiplast`` CLI command on a generated ``key = value``
config. The workload seed only draws ``load_scale`` from the narrow band
``[1 - LOAD_BAND, 1 + LOAD_BAND]``; seed 0 gives exactly 1.0, which is the
baseline. Only the generated config reaches the program.

``DRIVER_WORKLOADS`` are the ones listed in ``BENCHMARK.json``: no op fails on
them. ``traction_refined`` and ``safeload`` fail at the seed commit because of
known defects (ROADMAP items 4 and 2); they stay runnable here, and
``report.py`` runs and records them, so that fixing them shows.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

LOAD_BAND = 0.001

# Seed-commit answers of traction_run at seed 0, and the relative tolerance
# within which a later commit must reproduce them.
TRACTION_RUN_REFERENCE = {"dissipation": 2.429336605668743,
                          "external_work": 2.894086063382783}
REFERENCE_RTOL = 1e-6


def load_scale(seed: int) -> float:
    if seed == 0:
        return 1.0
    return 1.0 + LOAD_BAND * (2.0 * random.Random(seed).random() - 1.0)


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _failure(rc: int, out: Path) -> str:
    """Why a nonzero exit failed: the exit code and the error.json kind and step."""
    error = (_read_json(out / "error.json") or {}).get("error")
    if error is None:
        return f"exit {rc}"
    return f"exit {rc}: {error.get('kind')} at step {error.get('step')}"


def check_sweep(summary: dict, scale: float, seed: int) -> list[str]:
    """Criterion-04 and criterion-06 gates, and a feasible limit stress."""
    problems = []
    fit = summary["fits"]["e_sup"]
    if not (fit.get("slope", -math.inf) >= 0.45 and fit.get("r_squared", -math.inf) >= 0.98):
        problems.append(f"e_sup fit {fit} misses slope >= 0.45, r^2 >= 0.98")
    gap, diss = summary["flow_gap_int"][-1], summary["diss_rate_int"][-1]
    if not gap <= 0.05 * diss:
        problems.append(f"final flow gap {gap:.3e} > 0.05 x dissipation {diss:.3e}")
    excess = summary["residual_maxima"]["feasibility_excess"]
    if not excess <= 0.0:
        problems.append(f"feasibility_excess {excess:.3e} > 0")
    return problems


def check_run(summary: dict, scale: float, seed: int, reference: dict | None = None) -> list[str]:
    """Stress inside the yield set; at seed 0, the seed commit's ledger totals."""
    problems = []
    radius = summary["config"]["yield_radius"]
    if not summary["max_sigma_dev"] <= radius:
        problems.append(f"max_sigma_dev {summary['max_sigma_dev']!r} > yield radius {radius!r}")
    if seed == 0 and reference is not None:
        for key, want in reference.items():
            got = summary[key]
            if not abs(got - want) <= REFERENCE_RTOL * abs(want):
                problems.append(f"{key} {got!r} differs from {want!r} by more than "
                                f"{REFERENCE_RTOL:g} relative")
    return problems


def check_traction_run(summary: dict, scale: float, seed: int) -> list[str]:
    return check_run(summary, scale, seed, TRACTION_RUN_REFERENCE)


def check_safeload(summary: dict, scale: float, seed: int) -> list[str]:
    """c* at least what the constant field certifies, with a valid certificate."""
    kappa = summary["config"]["yield_radius"]
    want = kappa * (1.0 - scale / 2.0) - 1e-6
    c_star, valid = summary["c_star"], summary["certificate"]["valid"]
    problems = []
    if not c_star >= want:
        problems.append(f"c* {c_star:.6g} < {want:.6g}")
    if not valid:
        problems.append("certificate invalid")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # rigiplast CLI command
    settings: tuple       # (key, value) config lines besides load_scale
    check: object         # (summary, load_scale, seed) -> list of problems
    why: str

    def config_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings]
        lines.append(f"load_scale = {load_scale(seed)!r}")
        return "\n".join(lines) + "\n"

    def outcome(self, rc: int, out: Path, seed: int) -> tuple[bool, str]:
        """(passed, reason) for one op that wrote its artifacts to ``out``."""
        if rc != 0:
            return False, _failure(rc, out)
        summary = _read_json(out / "summary.json")
        if summary is None:
            return False, "exit 0 without a readable summary.json"
        try:
            problems = self.check(summary, load_scale(seed), seed)
        except (KeyError, IndexError, TypeError) as exc:
            return False, f"summary.json lacks a checked field: {exc!r}"
        return not problems, "; ".join(problems) or "ok"


WORKLOADS = {w.name: w for w in (
    Workload(
        "shear_sweep", "sweep",
        (("benchmark", "SHEAR"), ("mesh_n", 32), ("time_steps", 64)),
        check_sweep,
        "SHEAR sweep, 7 epsilons, n=32, M=64: time goes to sweep monitors and artifacts, where "
        "cached operators show. safeload fails at the seed (ROADMAP 2) and runs in report.py.",
    ),
    Workload(
        "traction_run", "run",
        (("benchmark", "TRACTION"), ("mesh_n", 16), ("time_steps", 32), ("epsilon", 1.0)),
        check_traction_run,
        "TRACTION run, n=16, M=32: ~8.9k inner iterations on one factorization, where load vectors "
        "and the inner solver show. Its n=32 rung fails (ROADMAP 4) and runs in report.py.",
    ),
    Workload(
        "traction_refined", "run",
        (("benchmark", "TRACTION"), ("mesh_n", 32), ("time_steps", 8)),
        check_run,
        "TRACTION at n=32, M=8, the n=32 rung: fails at the seed with ConvergenceError "
        "(ROADMAP item 4) and is kept so that a fix shows.",
    ),
    Workload(
        "safeload", "safeload", (),
        check_safeload,
        "safeload at its default n=16: the only user of the safeload module; returns an "
        "invalid certificate at the seed (ROADMAP item 2) and is kept so that a fix shows.",
    ),
)}

DRIVER_WORKLOADS = ("shear_sweep", "traction_run")
