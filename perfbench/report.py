"""Run every workload untraced and traced, and print each metric by name.

    python3 perfbench/report.py [--seed 0] [--seconds 50] [--json FILE]

For each workload it prints ``wall_s``, ``setup_s`` and ``peak_rss_mb`` with
unit, median, quartiles and sample count; ``failed_frac`` with the reason of
every failure; the per-layer metrics of the traced run, each with the
end-to-end metric and workload it should move; and the tracing overhead.
Failing workloads are reported, not dropped. ``--json`` also writes it all,
with the machine record, to FILE; ``perfbench/baseline.json`` is that file
for the seed commit.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import END_TO_END, MissingSources, machine_record, run_workload
from tracer import LAYER_METRICS
from workloads import DRIVER_WORKLOADS, WORKLOADS


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def _report(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    plain = run_workload(name, seed, seconds, trace=False)
    traced = run_workload(name, seed, seconds, trace=True)
    entry = {
        "why": workload.why,
        "in_benchmark_json": name in DRIVER_WORKLOADS,
        "config": workload.config_text(seed),
        "end_to_end": {key: dict(plain["stats"][key], unit=unit)
                       for key, unit in END_TO_END.items()},
        "attempted": plain["result"]["attempted"],
        "failed": plain["result"]["failed"],
        "failed_frac": plain["failed_frac"],
        "failures": plain["failures"],
        "traced_attempted": traced["result"]["attempted"],
        "traced_failed": traced["result"]["failed"],
        "counts_mismatched": traced["counts_mismatched"],
        "per_layer": {key: {"value": value, "unit": LAYER_METRICS[key][0],
                            "moves": LAYER_METRICS[key][1]}
                      for key, value in traced["layers"].items()},
    }
    print(f"== {name}  ({'in BENCHMARK.json' if entry['in_benchmark_json'] else 'report only'})")
    print(f"   why: {workload.why}")
    for key, st in entry["end_to_end"].items():
        print(f"   {key:<12} {_fmt(st['median']):>10} {st['unit']:<3} "
              f"q1 {_fmt(st['q1'])}  q3 {_fmt(st['q3'])}  n {st['n']}")
    print(f"   {'failed_frac':<12} {entry['failed_frac']:>10.3f}     "
          f"{entry['failed']} of {entry['attempted']} ops")
    for reason in entry["failures"]:
        print(f"     failed: {reason}")
    if not entry["failures"]:
        print("     every op passed its output check")
    repeat = "yes" if not entry["counts_mismatched"] else f"NO {entry['counts_mismatched']}"
    print(f"   traced run: {entry['traced_failed']} of {entry['traced_attempted']} ops failed; "
          f"counts repeat across traced ops: {repeat}")
    for key, m in entry["per_layer"].items():
        print(f"     {key:<30} {_fmt(m['value']):>12} {m['unit']:<6} -> {m['moves']}")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--json", help="also write the report to this file")
    args = parser.parse_args(argv)
    machine = machine_record()
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    try:
        entries = {name: _report(name, args.seed, args.seconds) for name in WORKLOADS}
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = {"machine": machine, "seed": args.seed, "seconds": args.seconds,
                   "workloads": entries}
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
