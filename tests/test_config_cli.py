"""Configuration parsing, CLI commands, artifact formats, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigiplast
from rigiplast import cli, evolution, sweep
from rigiplast.benchmarks import VerificationError
from rigiplast.cli import main
from rigiplast.config import (
    DEFAULT_EPSILONS,
    ConfigError,
    RunConfig,
    parse_config,
)
from rigiplast.mesh import build_square_mesh
from rigiplast.tensors import NonDeviatoricError
from rigiplast.vtkio import write_vtk

GOLDEN_RUN_HEADER = "step,time,Q,D,W,gap,max_sigma_dev,plastic_cell_fraction"
GOLDEN_SWEEP_HEADER = ("epsilon,time,e_l2,sigma_l2,sigma_dev_max,dp_mass_cum,"
                       "u_bd,div_u_l2,hydro_dev,flow_gap_rate,diss_rate")

TINY_SWEEP = """\
benchmark = SHEAR
mesh_n = 3
time_steps = 4
epsilon_list = 1.0, 0.25, 0.0625
"""


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.benchmark == "SHEAR"
        assert cfg.mesh_n == 16
        assert cfg.time_steps == 32
        assert cfg.epsilon_list == DEFAULT_EPSILONS
        assert cfg.shear_modulus == 1.0
        assert cfg.bulk_modulus == 1.0
        assert cfg.yield_radius == 1.0
        assert cfg.boundary_mode == "strong"

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nmesh_n = 8  # trailing\n")
        assert cfg.mesh_n == 8

    def test_increasing_epsilons_rejected(self):
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config("epsilon_list = 0.5, 1\n")

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*mystery"):
            parse_config("mesh_n = 4\nmystery = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="mesh_n"):
            parse_config("mesh_n = lots\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("mesh_n = 4\nmesh_n = 5\n")

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match="time_steps"):
            parse_config("time_steps = 0\n")

    def test_bad_benchmark(self):
        with pytest.raises(ConfigError, match="benchmark"):
            parse_config("benchmark = SPIN\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["epsilon", "shear_modulus", "bulk_modulus", "yield_radius",
                                     "stress_tol", "load_scale", "horizon"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be .*finite"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("entries", ["1, nan", "inf, 1", "nan", "inf"])
    def test_non_finite_epsilon_list_rejected(self, entries):
        with pytest.raises(ConfigError, match="epsilon list entries must be positive and finite"):
            parse_config(f"epsilon_list = {entries}\n")

    def test_the_docstring_table_names_every_setting(self):
        """The key table in the module docstring, which the README defers to, names exactly
        the settings of ``RunConfig``."""
        table = rigiplast.config.__doc__.split("Documented keys and defaults:", 1)[1]
        keys = [line.split()[0] for line in table.splitlines() if line.split()[1:2] == ["="]]
        assert keys == [f.name for f in dataclasses.fields(RunConfig)]


class TestCLI:
    def test_example41_command(self, tmp_path):
        out = tmp_path / "a"
        assert main(["example41", "--out", str(out)]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["schema"] == "rigiplast-summary-v2"
        assert payload["nonuniqueness_witness"] is True
        assert payload["stress_gap"] > 0
        assert (out / "fields_sigma.vtk").exists()

    def test_run_command_artifacts(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("benchmark = SHEAR\nmesh_n = 3\ntime_steps = 4\n")
        out = tmp_path / "r"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == GOLDEN_RUN_HEADER
        assert len(metrics) == 6
        payload = json.loads((out / "summary.json").read_text())
        assert payload["command"] == "run"
        assert payload["max_sigma_dev"] <= 1.0
        assert (out / "fields_final.vtk").exists()

    def test_sweep_command(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_SWEEP)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == GOLDEN_SWEEP_HEADER
        payload = json.loads((out / "summary.json").read_text())
        assert "fits" in payload and "e_sup" in payload["fits"]
        assert payload["fits"]["e_sup"]["slope"] > 0.45
        assert "residual_maxima" in payload

    def test_safeload_command(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mesh_n = 3\n")
        out = tmp_path / "sl"
        assert main(["safeload", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["c_star"] > 0
        assert payload["certificate"]["valid"] is True

    def test_safeload_at_the_default_mesh(self, tmp_path):
        out = tmp_path / "sl16"
        assert main(["safeload", "--out", str(out)]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["config"]["mesh_n"] == 16
        assert payload["c_star"] >= 0.5 - 1e-6  # the constant field certifies 0.5
        assert payload["certificate"]["valid"] is True
        assert payload["iterations"] >= 1

    def test_no_command_loads_sparse_linalg(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mesh_n = 4\n")
        script = (
            "import sys\n"
            "from rigiplast.cli import main\n"
            "assert main(['safeload', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
        )
        src = str(Path(rigiplast.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "sl")],
                       check=True, env=env, timeout=120)

    def test_zero_steps_fails_before_compute(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("time_steps = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_non_finite_tol_is_a_configuration_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("benchmark = TRACTION\nmesh_n = 4\ntime_steps = 4\nstress_tol = nan\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "error.json").exists()

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nope = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["tol = 1e-10", "seed = 0"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mesh_n = 2\n{line}\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "line 2: unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_report_command(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["example41", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "nonuniqueness_witness" in shown

    def test_report_missing_summary(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "void")]) == 1

    def test_report_writes_nothing(self, tmp_path, capsys):
        """``report`` only reads: without a summary, or with one that is not JSON, it exits 1
        with one line, and makes no directory and no ``error.json``."""
        out = tmp_path / "void"
        assert main(["report", "--out", str(out)]) == 1
        assert not out.exists()
        out.mkdir()
        (out / "summary.json").write_text("{", encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 1
        assert sorted(path.name for path in out.iterdir()) == ["summary.json"]
        assert capsys.readouterr().err.splitlines() == [
            f"error: no summary at {out / 'summary.json'} ({kind})"
            for kind in ("FileNotFoundError", "JSONDecodeError")]

    def test_tool_out_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_target"
        monkeypatch.setenv("TOOL_OUT", str(target))
        assert main(["example41", "--out", str(tmp_path / "ignored")]) == 0
        assert (target / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_SWEEP)
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("metrics.csv", "summary.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname

    def test_summary_keys_golden(self, tmp_path):
        out = tmp_path / "g"
        assert main(["example41", "--out", str(out)]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert set(payload) == {
            "schema", "command", "config", "lam_pair", "stress_gap_l2",
            "equilibrium_residuals", "feasibility_margins", "ev_max",
            "div_v_max", "flow_rule_sides", "nonuniqueness_witness",
            "stress_gap",
        }
        assert set(payload["config"]) == {
            "benchmark", "mesh_n", "time_steps", "epsilon_list", "epsilon",
            "shear_modulus", "bulk_modulus", "yield_radius", "boundary_mode",
            "stress_tol", "load_scale", "horizon", "out_dir",
        }


def _fail_every_check(monkeypatch):
    monkeypatch.setattr(evolution, "_CHECK_TOL", -1.0)  # no state passes FEState.check


def _pin_two_cpus(monkeypatch):
    """Two usable CPUs: a sweep runs two lanes, each in a forked child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _fail_checks_in_lanes(monkeypatch):
    _fail_every_check(monkeypatch)
    _pin_two_cpus(monkeypatch)


def _kill_a_lane(monkeypatch):
    """The second of two lanes exits with code 7 at its first epsilon of its own."""
    _pin_two_cpus(monkeypatch)
    parent, take = os.getpid(), sweep._Monitors.take

    def dying(self, *args):
        if self.epsilon == 0.015625 and os.getpid() != parent:
            os._exit(7)
        take(self, *args)

    monkeypatch.setattr(sweep._Monitors, "take", dying)


def _raising(error):
    def raise_it(*args, **kwargs):
        raise error
    return raise_it


def _fail_verification(monkeypatch):
    monkeypatch.setattr(cli, "example41_verify", _raising(VerificationError("gap too small")))


def _fail_return_map(monkeypatch):
    monkeypatch.setattr(evolution, "radial_return",
                        _raising(NonDeviatoricError("trace 1.0e+00 on a deviator")))


TRACTION_RUN = "benchmark = TRACTION\nmesh_n = 4\ntime_steps = 4\n"
SHEAR_SWEEP = ("benchmark = SHEAR\nmesh_n = 4\ntime_steps = 4\n"
               "epsilon_list = 1.0, 0.25, 0.0625, 0.015625, 0.00390625\n")
ERROR_KEYS = {"kind", "message", "step", "epsilon", "reason", "residuals", "decreases"}


@pytest.mark.parametrize("command, text, fail, kind, step, epsilon, prefix", [
    ("run", TRACTION_RUN, _fail_every_check, "AssertionError", 1, None, ""),
    ("sweep", SHEAR_SWEEP, _fail_checks_in_lanes, "AssertionError", 1, 1.0,
     "epsilon=1, step 1: "),
    ("sweep", SHEAR_SWEEP, _kill_a_lane, "RuntimeError", None, None,
     "the sweep lane of epsilon=0.0625 to 0.00390625 exited with code 7"),
    ("example41", "mesh_n = 4\n", _fail_verification, "VerificationError", None, None,
     "gap too small"),
    ("run", TRACTION_RUN, _fail_return_map, "NonDeviatoricError", 1, None,
     "trace 1.0e+00 on a deviator"),
], ids=["run-check", "sweep-check", "dead-lane", "example41-verification", "run-value-error"])
def test_every_failure_of_a_command_leaves_its_record(monkeypatch, tmp_path, capsys, command,
                                                      text, fail, kind, step, epsilon, prefix):
    """Whatever a command raises, ``main`` returns 3 (it raises nothing), prints one line,
    and writes one ``error.json``, with the same keys for every kind of failure."""
    monkeypatch.delenv("TOOL_OUT", raising=False)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    fail(monkeypatch)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert sorted(path.name for path in out.iterdir() if path.suffix == ".json") == ["error.json"]
    record = json.loads((out / "error.json").read_text(encoding="utf-8"))
    assert set(record) == {"error"}
    error = record["error"]
    assert set(error) == ERROR_KEYS
    assert (error["kind"], error["step"], error["epsilon"]) == (kind, step, epsilon)
    assert error["message"].startswith(prefix)
    assert (error["reason"], error["residuals"], error["decreases"]) == (None, None, None)


class TestVTK:
    def test_structure_and_round_trip(self, tmp_path):
        mesh = build_square_mesh(2, ("bottom",))
        u = np.arange(mesh.n_nodes * 2, dtype=float).reshape(-1, 2) / 10
        sig = np.arange(mesh.n_cells * 3, dtype=float).reshape(-1, 3) / 7
        path = tmp_path / "f.vtk"
        write_vtk(path, mesh, point_vectors={"displacement": u},
                  cell_tensors={"stress": sig})
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == f"POINTS {mesh.n_nodes} double"
        i_cells = lines.index(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
        for k in range(mesh.n_cells):
            parts = lines[i_cells + 1 + k].split()
            assert parts[0] == "3"
            assert [int(p) for p in parts[1:]] == list(mesh.triangles[k])
        i_types = lines.index(f"CELL_TYPES {mesh.n_cells}")
        assert all(l == "5" for l in lines[i_types + 1:i_types + 1 + mesh.n_cells])
        i_vec = lines.index("VECTORS displacement double")
        got_u = np.array([[float(v) for v in lines[i_vec + 1 + k].split()][:2]
                          for k in range(mesh.n_nodes)])
        np.testing.assert_array_equal(got_u, u)
        i_ten = lines.index("TENSORS stress double")
        row0 = [float(v) for v in lines[i_ten + 1].split()]
        row1 = [float(v) for v in lines[i_ten + 2].split()]
        assert row0[0] == sig[0, 0] and row0[1] == sig[0, 1]
        assert row1[1] == sig[0, 2]

    def test_shape_validation(self, tmp_path):
        mesh = build_square_mesh(2, ("bottom",))
        with pytest.raises(ValueError, match="point field"):
            write_vtk(tmp_path / "x.vtk", mesh,
                      point_vectors={"bad": np.zeros((3, 2))})

    def test_a_bad_cell_field_leaves_no_file(self, tmp_path):
        """Every shape is checked before the file is opened, the cell fields' too, which are
        written last."""
        mesh = build_square_mesh(2, ("bottom",))
        path = tmp_path / "x.vtk"
        with pytest.raises(ValueError, match="cell field 'bad'"):
            write_vtk(path, mesh, point_vectors={"u": np.zeros((mesh.n_nodes, 2))},
                      cell_tensors={"bad": np.zeros((mesh.n_cells, 2))})
        assert not path.exists()


@pytest.mark.parametrize("setting, want", [(None, "1"), ("2", "2")], ids=["unset", "set"])
def test_import_defaults_openblas_to_one_thread(setting, want):
    """``import rigiplast`` sets one OpenBLAS thread before numpy loads; a user's count wins."""
    src = str(Path(rigiplast.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    script = "import os, rigiplast; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == want


def test_cli_import_loads_no_process_machinery():
    """``import rigiplast.cli`` loads no process pool and no ``mmap``: only a sweep imports
    them (``multiprocessing`` with several lanes, ``mmap`` for the limit's shared fields),
    so ``run`` does not pay for them. (``concurrent.futures`` itself comes with scipy,
    through ``numpy.testing``; its process pool does not.)"""
    src = str(Path(rigiplast.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys, rigiplast.cli; print(sorted(name for name in sys.modules if "
              "name.split('.')[0] in ('multiprocessing', 'mmap') "
              "or name == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_the_benchmark_tracer_still_sees_the_solver(tmp_path):
    """``perfbench/tracer.py`` wraps rigiplast's names from outside, so a refactor that drops
    one, or calls the step past ``evolution.incremental_step``, hides work from the benchmark.
    Traced, TRACTION n=4, M=4 counts its 4 steps, 12 inner iterations, 4 elastic solves,
    12 return maps, and 18 load vectors: a body and a traction load per grid time for the
    program's loads, and per step for the ledger's mid-step load."""
    src = str(Path(rigiplast.__file__).parents[1])
    perfbench = Path(__file__).parents[1] / "perfbench"
    env = {k: v for k, v in os.environ.items() if k != "TOOL_OUT"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("benchmark = TRACTION\nmesh_n = 4\ntime_steps = 4\n", encoding="utf-8")
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import rigiplast.cli, tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "code = rigiplast.cli.main(['run', '--config', sys.argv[2], '--out', sys.argv[3]])\n"
        "print(json.dumps([code, tracer.layer_metrics(t)]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(perfbench), str(cfg),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    code, layers = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert layers["evolution.steps"] == 4
    assert layers["evolution.inner_iters"] == 12
    assert layers["fem.solves"] == 4
    assert layers["tensors.return_calls"] == 12
    assert layers["fem.load_vector_calls"] == 2 * 5 + 2 * 4
