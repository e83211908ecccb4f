"""The benchmark's own tests; run from the checkout root with

    python3 -m pytest -q perfbench/test_perfbench.py

The counter self-check runs real traced ops and takes about a minute.
"""

import json
import shutil
import subprocess
import sys

import pytest

from harness import END_TO_END, ROOT, SRC, WORK, _differing_counts, run_workload
from tracer import DETERMINISTIC_COUNTS, LAYER_METRICS, OUTSIDE_RESULT_LINE
from workloads import (DRIVER_WORKLOADS, LOAD_BAND, REFERENCE_RTOL, TRACTION_RUN_REFERENCE,
                       WORKLOADS, check_run, check_safeload, check_sweep, load_scale)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, WORKLOADS[name].why) for name in DRIVER_WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items() if name not in OUTSIDE_RESULT_LINE}


def test_seed_zero_is_the_baseline_and_other_seeds_stay_in_band():
    assert load_scale(0) == 1.0
    scales = [load_scale(s) for s in range(1, 50)]
    assert scales == [load_scale(s) for s in range(1, 50)]
    assert all(abs(s - 1.0) <= LOAD_BAND for s in scales)
    assert len(set(scales)) == len(scales)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_config_is_what_the_program_reads(name, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from rigiplast import parse_config

    config = parse_config(WORKLOADS[name].config_text(7))
    assert config.load_scale == load_scale(7)
    for key, value in WORKLOADS[name].settings:
        assert getattr(config, key) == value


def test_checks_reject_the_known_wrong_answers():
    config = {"yield_radius": 1.0}
    seed_safeload = {"config": config, "c_star": -2.378593171662956e-05,
                     "certificate": {"valid": False}}
    assert len(check_safeload(seed_safeload, 1.0, 0)) == 2
    sound = {"config": config, "c_star": 0.5, "certificate": {"valid": True}}
    assert check_safeload(sound, 1.0, 0) == []

    run = {"config": config, "max_sigma_dev": 1.0, **TRACTION_RUN_REFERENCE}
    assert check_run(run, 1.0, 0, TRACTION_RUN_REFERENCE) == []
    drifted = dict(run, dissipation=run["dissipation"] * (1 + 10 * REFERENCE_RTOL))
    assert len(check_run(drifted, 1.0, 0, TRACTION_RUN_REFERENCE)) == 1
    assert check_run(drifted, 1.0, 3, TRACTION_RUN_REFERENCE) == []
    assert len(check_run(dict(run, max_sigma_dev=1.0 + 1e-12), 1.0, 3)) == 1

    sweep = {"fits": {"e_sup": {"slope": 1.0, "r_squared": 1.0}}, "flow_gap_int": [0.0],
             "diss_rate_int": [1.0], "residual_maxima": {"feasibility_excess": 0.0}}
    assert check_sweep(sweep, 1.0, 0) == []
    assert len(check_sweep(dict(sweep, fits={"e_sup": {"error": "no fit"}}), 1.0, 0)) == 1
    assert len(check_sweep(dict(sweep, flow_gap_int=[0.06]), 1.0, 0)) == 1


def test_a_count_that_differs_between_traced_ops_is_reported():
    counts = dict.fromkeys(DETERMINISTIC_COUNTS, 5)
    ops = [{"layers": counts}, {"layers": dict(counts, **{"fem.solves": 6})}]
    assert _differing_counts(ops) == ["fem.solves"]
    assert _differing_counts(ops[:1] * 2) == []


def test_tracer_patches_every_module_that_bound_a_name():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import rigiplast, rigiplast.cli, tracer\n"
        "tracer.install(tracer.Tracer())\n"
        "from rigiplast import benchmarks, cli, evolution, fem, safeload, sweep\n"
        "wrapped = lambda f: hasattr(f, '__wrapped__')\n"
        "assert all(wrapped(m.strain_of) for m in (fem, evolution, sweep, benchmarks))\n"
        "assert all(wrapped(m.strain_matrix) for m in (fem, sweep, safeload))\n"
        "assert wrapped(cli.benchmark_catalog) and wrapped(cli.write_vtk)\n"
        "assert wrapped(fem.ElasticSystem.solve)\n"
    )
    subprocess.run([sys.executable, "-c", script, str(SRC), str(ROOT / "perfbench")],
                   check=True, timeout=60)


@pytest.mark.parametrize("name", ["shear_sweep", "safeload"])
def test_counts_repeat_across_two_traced_runs(name):
    first, second = (run_workload(name, 0, 0.0, trace=True) for _ in range(2))
    for record in (first, second):
        assert record["counts_mismatched"] == []
    assert ({k: first["layers"][k] for k in DETERMINISTIC_COUNTS}
            == {k: second["layers"][k] for k in DETERMINISTIC_COUNTS})


def test_a_checkout_without_sources_gives_no_result():
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "traction_run",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
