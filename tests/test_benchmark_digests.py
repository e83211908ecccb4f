"""Pinned sha256 digests of the CLI artifacts at the benchmark's own sizes.

``tests/test_artifact_digests.py`` pins every command at ``mesh_n = 4``. The
benchmark's workloads run larger: the SHEAR sweep at n=32, M=64 with the
default epsilon list (shear_sweep) and the TRACTION run at n=16, M=32, eps=1
(traction_run). Some paths act only at these sizes: the return map's
all-plastic branch, the round-off floor that a step takes only when its
predictor misses ``stress_tol * kappa``, and the one elastic factorization a
sweep lane shares across its epsilons. These digests hold every file the two
commands write to the bits they had before those paths existed.
"""

import hashlib

import pytest

from rigiplast import cli

CONFIGS = {
    "shear_sweep": ("sweep", "benchmark = SHEAR\nmesh_n = 32\ntime_steps = 64\n"),
    "traction_run": ("run", "benchmark = TRACTION\nmesh_n = 16\ntime_steps = 32\n"
                            "epsilon = 1.0\n"),
}

DIGESTS = {
    "shear_sweep": {
        "metrics.csv": "707bba4ebae448bdb2b029f90d28a3b42d23c5f5bc806989708daf0224d8fd7d",
        "summary.json": "3a65dc84125d14df95bfb34231ea1ef664787fa53133d5e72a0836d9a25ca374",
        "fields_limit.vtk": "588dc816d1671805de4611b4e4edd1a7098899c7a891e71474121f32f69a6927",
    },
    "traction_run": {
        "metrics.csv": "3b9f5aef56f7104b87cabb1ed9a5138182b997a03bc0f1a28081f701ae166f8f",
        "summary.json": "8b5560ed4bad06b16e4736c5a25f17b6995ca08fc967ee7781fa89dab8954e87",
        "fields_final.vtk": "47189b750d94a68d74633d0c7f4ec627588299bc07ca393fdbe533afe15ed5a0",
    },
}


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_benchmark_size_artifacts_match_pinned_digests(monkeypatch, tmp_path, workload):
    monkeypatch.delenv("TOOL_OUT", raising=False)
    command, text = CONFIGS[workload]
    config = tmp_path / "cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert written == DIGESTS[workload]
