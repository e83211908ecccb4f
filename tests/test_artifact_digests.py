"""Pinned sha256 digests of the CLI artifacts: the byte-identical rerun contract.

``run`` and ``sweep`` on SHEAR and TRACTION in both boundary modes, at
``mesh_n = 4`` and ``time_steps = 4``, must write these exact ``metrics.csv``,
``summary.json`` and VTK fields (``fields_final.vtk`` of ``run``,
``fields_limit.vtk`` of ``sweep``): every file the two commands write. So
must ``safeload`` and ``example41`` at ``mesh_n = 4`` (``summary.json`` and
``fields_pi.vtk``, ``summary.json`` and ``fields_sigma.vtk``). A change that
moves artifacts on purpose updates the digests here and records the move in
CHANGES.md.
"""

import hashlib

import pytest

from rigiplast import cli

DIGESTS = {
    ("run", "SHEAR", "strong"): (
        "f5eedafbf3eca3e40d3dcd9257f21a48724fbacc38db645e3ad55e99a09d613f",
        "92f3c45af70a41b07235cb57a3cb596c3aa59ce943c2cfe56ba66f664182f766",
        "b31964680ddf53e16e2ed3377c85af71f334c33e2ffc56d406dc3001c613c75d"),
    ("run", "SHEAR", "relaxed"): (
        "f5eedafbf3eca3e40d3dcd9257f21a48724fbacc38db645e3ad55e99a09d613f",
        "17e0a0a161b8bff19ef5b4f4059244e31bdffb80e3e2068da45dfd80c0ea5eb2",
        "b31964680ddf53e16e2ed3377c85af71f334c33e2ffc56d406dc3001c613c75d"),
    ("run", "TRACTION", "strong"): (
        "8430451f7bc68ef786289293ab4b43ae0e2549ef8347ba97a5c95d02bf69e110",
        "8d895fc95152172f32a89ec3a249a77fc279847fd1fdc00c84b29dd274f516d6",
        "4ecd457cf9f9aa6a0a3c1277c4474829459ae19fdc2376a5c0519f6472986f37"),
    ("run", "TRACTION", "relaxed"): (
        "b01c160f166724483f5e55696d7791d514663719ea3fa307137d9eec8896105b",
        "61960c590b91b62af666db2331db9c7281c2dd2d769e15b28006195e0a836e7e",
        "ba08298e32590403e109defeea9a22b5a1a0332788bc270037ea607ee1e9c500"),
    ("sweep", "SHEAR", "strong"): (
        "7e7f11dd77089b3acc74a652f289df510fb5b1d72830ba7b76b7bfb43aac6dea",
        "29659ba52640d3ea19dd39aaf1ee0ca52fd2b91207f9a78156f8890059881679",
        "a210a4974c3bcc30fda492df2f40857a8e7f652214a5a8f0e0b5b6f43976b7c7"),
    ("sweep", "SHEAR", "relaxed"): (
        "7e7f11dd77089b3acc74a652f289df510fb5b1d72830ba7b76b7bfb43aac6dea",
        "8536b225ae08bb3e56e90fa7cfa0df797a4b011ad86055d18549bb86d7784c53",
        "a210a4974c3bcc30fda492df2f40857a8e7f652214a5a8f0e0b5b6f43976b7c7"),
    ("sweep", "TRACTION", "strong"): (
        "bf05dcf7cefe681d872eb1f82f4475ef521762f4ebb98963f33678e12eba4a56",
        "19d315a33832421b62e54ef793b6e060bf58a6f1385a302f102332bf3c5d4f0b",
        "134464f7bf9535b57f4a147121c65287daa70af9fd8ef686a59d1dceed6563d2"),
    ("sweep", "TRACTION", "relaxed"): (
        "28e649193d97c9cc9c1ce1f684a43576d9e57e4fef4578f2667a978ee50b079b",
        "a69dc45303c5a943785fb5c21c7a07a1bbf10a46ebd4005c090a1f5822f0fef7",
        "8b6a6de9cf25ddba6b389c203373df82c6350f0af1ab27001d33ba06ccaeabe3"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, name, mode", sorted(DIGESTS),
                         ids=["-".join(key) for key in sorted(DIGESTS)])
def test_artifacts_match_pinned_digests(monkeypatch, tmp_path, command, name, mode):
    monkeypatch.delenv("TOOL_OUT", raising=False)
    config = tmp_path / "cfg"
    config.write_text(f"benchmark = {name}\nmesh_n = 4\ntime_steps = 4\n"
                      f"boundary_mode = {mode}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    metrics, summary, fields = DIGESTS[command, name, mode]
    assert _sha256(out / "metrics.csv") == metrics
    assert _sha256(out / "summary.json") == summary
    vtk = "fields_final.vtk" if command == "run" else "fields_limit.vtk"
    assert _sha256(out / vtk) == fields


# (summary.json, VTK file name, its digest) of the commands that take no benchmark
STANDALONE_DIGESTS = {
    "safeload": (
        "d48fb796d7574c27fd983dac34d5d4623d2e63dbfc36d915fb29bcf56be615a8",
        "fields_pi.vtk",
        "a7c9944e41c222928dbd82cdb3dce922c6c4ee0ef81f02c694c3828b1d64bb74"),
    "example41": (
        "0724e0c5db6f4bdf0fa06d2bf1a9fdb814fc0d16ece32ffbe728106bb5b34553",
        "fields_sigma.vtk",
        "98687125dac1c4546bc7bdd0fb4af64ecef4e49d0b66f6f7d042929660ebd23a"),
}


@pytest.mark.parametrize("command", sorted(STANDALONE_DIGESTS))
def test_standalone_artifacts_match_pinned_digests(monkeypatch, tmp_path, command):
    monkeypatch.delenv("TOOL_OUT", raising=False)
    config = tmp_path / "cfg"
    config.write_text("mesh_n = 4\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    summary, vtk, fields = STANDALONE_DIGESTS[command]
    assert _sha256(out / "summary.json") == summary
    assert _sha256(out / vtk) == fields
