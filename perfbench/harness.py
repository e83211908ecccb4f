"""Runs one workload: set-up samples, then ops in fresh interpreters until time is up.

Children run one at a time from this single process (the target machine has
two cores). An op that exits nonzero, raises, times out or fails its output
check counts only as failed: it gives no time sample, so turning a fast wrong
answer into a slower right one is not a time regression.

End-to-end runs (``trace=False``) install no wrappers. A traced run
alternates traced and untraced ops; the per-layer metrics are lower medians
over the traced ops, and ``trace.overhead_s`` is the traced minus the untraced
median wall time. Traced ops of one run share their inputs, so their
deterministic counts must repeat exactly; a mismatch makes the run incorrect.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import DETERMINISTIC_COUNTS, LAYER_METRICS, OUTSIDE_RESULT_LINE
from workloads import WORKLOADS, load_scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 9
# Children still running this many seconds into a run are killed, so a run
# ends inside three minutes whatever the program does.
HARD_LIMIT_S = 160.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSources(RuntimeError):
    """The checkout holds no rigiplast sources to benchmark."""


def require_sources() -> None:
    if not (SRC / "rigiplast" / "__init__.py").is_file():
        raise MissingSources(f"no rigiplast sources under {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        # Ops inherit these unchanged, as a user's ``rigiplast`` call would.
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def _child_env() -> dict:
    # TOOL_OUT would override the op's --out. Bytecode is cached, as for an
    # installed package, so set-up time does not depend on the caller's setting.
    env = {k: v for k, v in os.environ.items()
           if k not in ("TOOL_OUT", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(spec: dict, timeout: float) -> tuple[dict | None, float, str]:
    """Run one child; returns (its result or None, spawn time, why it has none)."""
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, started, f"killed after {timeout:.0f} s"
    if not result_path.is_file():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, started, f"child exit {proc.returncode}: {' '.join(tail)}"
    return json.loads(result_path.read_text(encoding="utf-8")), started, ""


def stats(values: list) -> dict:
    """Median and quartiles of a sample, with its size."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _setup_samples(spec: dict, deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        result, started, why = _spawn(dict(spec, mode="setup"), deadline - time.monotonic())
        if result is None:
            raise RuntimeError(f"set-up failed: {why}")
        samples.append(result["built_at"] - started)
    return samples


def _enough(ops: list, trace: bool) -> bool:
    traced = sum(op["traced"] for op in ops)
    return len(ops) - traced >= 1 and (not trace or traced >= 2)


def _differing_counts(traced_ops: list) -> list[str]:
    """Deterministic counts that differ between traced ops on the same inputs."""
    return [key for key in DETERMINISTIC_COUNTS
            if len({op["layers"][key] for op in traced_ops}) > 1]


def _run_op(workload, spec: dict, out: Path, seed: int, traced: bool, deadline: float) -> dict:
    """One op: its outcome, its measurements and, when traced, its layer metrics."""
    op_spec = dict(spec, mode="op", out=str(out), trace=traced)
    result, started, why = _spawn(op_spec, max(deadline - time.monotonic(), 1.0))
    op = {"traced": traced, "passed": False, "reason": why,
          "elapsed_s": time.monotonic() - started}
    if result is not None:
        op.update(wall_s=result["wall_s"], peak_rss_mb=result["peak_rss_mb"],
                  layers=result["layers"])
        op["passed"], op["reason"] = workload.outcome(result["rc"], out, seed)
        if "exception" in result:
            op["reason"] += f" ({result['exception']})"
    shutil.rmtree(out, ignore_errors=True)
    return op


def _layers(ops: list) -> tuple[dict, list]:
    """Lower-median per-layer metrics over the traced ops, and the counts that did not repeat."""
    traced = [op for op in ops if op["traced"] and op.get("layers")]
    if len(traced) < 2:
        return {}, ["no two traced ops"]
    layers = {key: statistics.median_low(op["layers"][key] for op in traced)
              for key in LAYER_METRICS if key != "trace.overhead_s"}
    walls = [[op["wall_s"] for op in ops if op["traced"] == t and "wall_s" in op]
             for t in (True, False)]
    if all(walls):
        layers["trace.overhead_s"] = statistics.median(walls[0]) - statistics.median(walls[1])
    return layers, _differing_counts(traced)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``name`` for ``seconds`` and return the samples, ops and result line."""
    require_sources()
    begin = time.monotonic()
    deadline = begin + HARD_LIMIT_S
    workload = WORKLOADS[name]
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.cfg"
    config.write_text(workload.config_text(seed), encoding="utf-8")
    spec = {"src": str(SRC), "command": workload.command, "config": str(config),
            "result": str(run_dir / "result.json"), "trace": False}

    setup = [] if trace else _setup_samples(spec, deadline)
    ops = []
    start = time.monotonic()
    # Once the minimum ops are done, start another only if it should end in time.
    while not (_enough(ops, trace) and time.monotonic() + max(op["elapsed_s"] for op in ops)
               > min(start + seconds, deadline)):
        traced = trace and len(ops) % 2 == 0
        ops.append(_run_op(workload, spec, run_dir / f"op{len(ops)}", seed, traced, deadline))
    shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not op["passed"] for op in ops)
    record = {
        "workload": name, "seed": seed, "load_scale": load_scale(seed), "trace": trace,
        "seconds": seconds, "elapsed_s": time.monotonic() - begin,
        "ops": [{k: v for k, v in op.items() if k != "layers"} for op in ops],
        "failed_frac": failed / len(ops),
        "failures": sorted({op["reason"] for op in ops if not op["passed"]}),
    }
    mismatched = []
    if trace:
        record["layers"], mismatched = _layers(ops)
        record["counts_mismatched"] = mismatched
        metrics = {key: {"value": record["layers"].get(key), "unit": unit}
                   for key, (unit, _) in LAYER_METRICS.items() if key not in OUTSIDE_RESULT_LINE}
    else:
        untraced = [op for op in ops if not op["traced"]]
        record["stats"] = {
            "wall_s": stats([op["wall_s"] for op in untraced if op["passed"]]),
            "setup_s": stats(setup),
            "peak_rss_mb": stats([op["peak_rss_mb"] for op in untraced if "peak_rss_mb" in op]),
        }
        metrics = {key: {"value": record["stats"][key]["median"], "unit": unit}
                   for key, unit in END_TO_END.items()}
    record["result"] = {"correct": failed == 0 and not mismatched, "attempted": len(ops),
                        "failed": failed, "metrics": metrics}
    return record
