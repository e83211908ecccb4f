"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload traction_run --seed 0 --seconds 50 --trace 0

Run from the root of a checkout. Each op is one ``rigiplast`` CLI command in a
fresh interpreter, built from the checkout's ``src/``. Progress and the
quartiles go to standard output first; the last line is the JSON result.
With ``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones. Exits 2 without a result when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import MissingSources, machine_record, run_workload
from tracer import LAYER_METRICS
from workloads import WORKLOADS


def _print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"load_scale {record['load_scale']!r}  trace {int(record['trace'])}")
    print(f"machine {json.dumps(machine_record(), sort_keys=True)}")
    for i, op in enumerate(record["ops"]):
        wall = f"{op['wall_s']:.3f} s" if "wall_s" in op else "-"
        print(f"  op {i} {'traced' if op['traced'] else 'plain '} "
              f"{'pass' if op['passed'] else 'FAIL'}  {wall}  {op['reason']}")
    attempted = record["result"]["attempted"]
    print(f"failed_frac {record['failed_frac']:.3f} "
          f"({record['result']['failed']} of {attempted} ops)")
    for key, st in record.get("stats", {}).items():
        if st["n"]:
            print(f"{key} median {st['median']:.4f} q1 {st['q1']:.4f} q3 {st['q3']:.4f} n {st['n']}")
        else:
            print(f"{key} no samples")
    for key, value in record.get("layers", {}).items():
        print(f"{key} {value!r} {LAYER_METRICS[key][0]}  -> {LAYER_METRICS[key][1]}")
    if record.get("counts_mismatched"):
        print(f"counts differ between traced ops: {record['counts_mismatched']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_record(record)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
