"""Command-line driver: rigiplast <command> --config <path> [--out DIR].

Commands:

    run        one evolution at a single epsilon; emits metrics.csv (energy
               ledger), summary.json, fields_final.vtk
    sweep      the decreasing-epsilon sweep; emits metrics.csv (per eps/time),
               summary.json (fits, residual maxima), fields_limit.vtk
    example41  the non-uniqueness witness; emits summary.json and the two
               stress fields as VTK
    safeload   the largest certified safety margin for the clamped-sides
               shear case, by one convex solve; emits summary.json (c_star,
               its certificate, the iteration count) and the admissible field
               as VTK
    report     pretty-print a previously written summary.json

The environment variable TOOL_OUT overrides --out. Exit codes: 0 success,
2 configuration error, 3 solver failure (with error.json in the output
directory), 1 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

# benchmark_catalog is called through RunConfig.build_benchmark; it stays
# bound here because perfbench/test_perfbench.py checks that the tracer wraps
# cli.benchmark_catalog.
from .benchmarks import (benchmark_catalog, default_example41_params, example41_stress,
                         example41_verify)
from .config import ConfigError, RunConfig, parse_config
from .evolution import ConvergenceError, EnergyLedger, evolve
from .fem import ElasticSystem, SolverError
from .mesh import build_square_mesh
from .reporting import summary_payload, write_csv, write_json
from .safeload import max_safety_margin, verify_safe_load
from .sweep import CSV_HEADER, fit_rate, rigid_residuals, run_sweep
from .tensors import YieldSet
from .vtkio import write_vtk


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _benchmark(config: RunConfig):
    return config.build_benchmark()


def _cmd_run(config: RunConfig, out: Path) -> dict:
    bench = _benchmark(config)
    system = ElasticSystem(bench.mesh, bench.hooke.with_epsilon(config.run_epsilon))
    ledger = EnergyLedger.zeros(bench.program.times)
    steps = evolve(bench.program, system, bench.yield_set, mode=config.boundary_mode,
                   stress_tol=config.stress_tol)
    for final, _ in ledger.record(steps, bench.program):
        pass  # only the last state is written
    write_csv(out / "metrics.csv", EnergyLedger.CSV_HEADER, ledger.csv_rows())
    write_vtk(out / "fields_final.vtk", bench.mesh,
              point_vectors={"displacement": final.u},
              cell_tensors={"stress": final.sigma, "plastic_strain": final.p})
    return {
        "epsilon": config.run_epsilon,
        "final_time": final.t,
        "elastic_energy": float(ledger.elastic[-1]),
        "dissipation": float(ledger.dissipation[-1]),
        "external_work": float(ledger.work[-1]),
        "max_balance_gap": float(np.abs(ledger.gap).max()),
        "max_sigma_dev": float(ledger.max_sigma_dev.max()),
        "plastic_cell_fraction_final": float(ledger.plastic_fraction[-1]),
    }


def _cmd_sweep(config: RunConfig, out: Path) -> dict:
    report = run_sweep(config)
    write_csv(out / "metrics.csv", CSV_HEADER, report.csv_rows())

    fits = {}
    for name in ("e_sup", "div_u_sup", "flow_gap_int"):
        try:
            fit = fit_rate(report.epsilons, report.metrics[name],
                           floor=1e-13 * config.yield_radius)
            fits[name] = {"slope": fit.slope, "intercept": fit.intercept,
                          "r_squared": fit.r_squared, "n_excluded": fit.n_excluded}
        except ValueError as exc:
            fits[name] = {"error": str(exc)}

    residuals = rigid_residuals(report)
    limit = report.limit_proxy
    write_vtk(out / "fields_limit.vtk", report.benchmark.mesh,
              point_vectors={"displacement": limit.u_final},
              cell_tensors={"stress": limit.sigma[-1]})
    body = report.summary_dict()
    body["fits"] = fits
    body["residual_maxima"] = residuals.maxima()
    return body


def _cmd_example41(config: RunConfig, out: Path) -> dict:
    mesh = build_square_mesh(config.mesh_n, ("left", "right", "bottom", "top"))
    yset = YieldSet(config.yield_radius)
    params = default_example41_params(config.yield_radius)
    witness = example41_verify(params, (1.0, 2.0), mesh, yset)
    sig_a = example41_stress(params.with_lam(1.0), mesh)
    sig_b = example41_stress(params.with_lam(2.0), mesh)
    write_vtk(out / "fields_sigma.vtk", mesh,
              cell_tensors={"sigma_lam_a": sig_a, "sigma_lam_b": sig_b})
    body = witness.to_dict()
    body["stress_gap"] = body["stress_gap_l2"]
    return body


def _cmd_safeload(config: RunConfig, out: Path) -> dict:
    mesh = build_square_mesh(config.mesh_n, ("bottom", "left", "right"))
    yset = YieldSet(config.yield_radius)
    # half the analytic constant-stress limit, scaled by load_scale
    s = 0.5 * config.yield_radius / np.sqrt(2.0) * config.load_scale
    f = np.zeros((mesh.n_cells, 2))
    top = mesh.neumann_boundary.faces == "top"
    g = np.zeros((len(top), 2))
    g[top, 0] = s
    c_star, pi_star, diag = max_safety_margin(f, g, mesh, yset)
    cert = verify_safe_load([pi_star], [f], [g], mesh, yset)
    write_vtk(out / "fields_pi.vtk", mesh, cell_tensors={"safe_load": pi_star})
    return {
        "traction": s,
        "c_star": c_star,
        "certificate": cert.to_dict(),
        "iterations": diag["iterations"],
    }


def _cmd_report(config: RunConfig, out: Path) -> dict:
    import json

    path = out / "summary.json"
    if not path.exists():
        raise FileNotFoundError(f"no summary at {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    print(f"summary: {path}")
    print(f"  schema:  {payload.get('schema')}")
    print(f"  command: {payload.get('command')}")
    for key in sorted(payload):
        if key in ("schema", "command", "config"):
            continue
        val = payload[key]
        if isinstance(val, (int, float, str, bool)):
            print(f"  {key}: {val}")
        elif isinstance(val, list) and len(val) <= 8:
            print(f"  {key}: {val}")
        else:
            print(f"  {key}: [{type(val).__name__}]")
    return payload


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "example41": _cmd_example41,
    "safeload": _cmd_safeload,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rigiplast",
        description="plane-strain perfect plasticity and its rigid-plastic limit",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--out", help="output directory (default: config out_dir)")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = os.environ.get("TOOL_OUT") or args.out or config.out_dir
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2

    try:
        body = _COMMANDS[args.command](config, out)
    except (ConvergenceError, SolverError) as exc:
        record = {
            "error": {
                "kind": type(exc).__name__,
                "message": str(exc),
                "step": getattr(exc, "step_index", None),
                "reason": getattr(exc, "reason", None),
            }
        }
        write_json(out / "error.json", record)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1

    if args.command != "report":
        write_json(out / "summary.json", summary_payload(args.command, config, body))
        print(f"wrote {out / 'summary.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
