"""One benchmark op in a fresh interpreter; the harness starts one at a time.

    python3 perfbench/child.py '<json spec>'

The spec names ``mode`` ("setup" or "op"), ``src`` (the checkout's ``src``
directory), ``command``, ``config``, ``out``, ``trace`` and ``result``, the
file this process writes its measurements to.

* ``setup`` imports rigiplast, parses the config and builds the inputs the
  command builds, through the CLI's ``_load_config`` and ``_benchmark``
  (``benchmark_catalog``), or the safe-load mesh as ``_cmd_safeload`` builds
  it. It records ``time.monotonic()`` when they are built; on Linux that
  clock is system-wide, so the harness subtracts its own spawn time from it.
* ``op`` imports rigiplast, optionally installs the tracer, and times
  ``rigiplast.cli.main`` from the call to its return, so solve, monitors and
  artifact writing all count. It records the exit code and ``ru_maxrss``.
"""

import time
import json
import resource
import sys
from pathlib import Path


def _import_rigiplast(src: str):
    sys.path.insert(0, src)
    import rigiplast
    import rigiplast.cli

    here = Path(rigiplast.__file__).resolve()
    if Path(src).resolve() not in here.parents:
        raise RuntimeError(f"imported rigiplast from {here}, not from {src}")
    return rigiplast


def _build_inputs(rigiplast, command: str, config_path: str) -> None:
    """Build what ``command`` builds before it solves, with the CLI's own helpers."""
    cli = rigiplast.cli
    config = cli._load_config(config_path)
    if command == "safeload":
        # _cmd_safeload builds its mesh inline; this is the same call.
        cli.build_square_mesh(config.mesh_n, ("bottom", "left", "right"))
        return
    cli._benchmark(config)


def _run_op(rigiplast, spec: dict) -> dict:
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    argv = [spec["command"], "--config", spec["config"], "--out", spec["out"]]
    result = {}
    start = time.perf_counter()
    try:
        rc = rigiplast.cli.main(argv)
    except Exception as exc:  # the op failed; the harness records why
        rc = 1
        result["exception"] = repr(exc)
    result["wall_s"] = time.perf_counter() - start
    result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["layers"] = tracing.layer_metrics(tracer) if spec["trace"] else None
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    rigiplast = _import_rigiplast(spec["src"])
    if spec["mode"] == "setup":
        _build_inputs(rigiplast, spec["command"], spec["config"])
        result = {"built_at": time.monotonic()}
    else:
        result = _run_op(rigiplast, spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
