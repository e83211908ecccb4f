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
        "3a3b738233322f68e0f58a1d90d6d9c7149f440a1685b0ee8b7aad88f5221b46",
        "b31964680ddf53e16e2ed3377c85af71f334c33e2ffc56d406dc3001c613c75d"),
    ("run", "SHEAR", "relaxed"): (
        "f5eedafbf3eca3e40d3dcd9257f21a48724fbacc38db645e3ad55e99a09d613f",
        "80d9b4b4fbca11a4042e37c1e586b3c5995ef8ad92f177fd156feae36ba7fdcb",
        "b31964680ddf53e16e2ed3377c85af71f334c33e2ffc56d406dc3001c613c75d"),
    ("run", "TRACTION", "strong"): (
        "8430451f7bc68ef786289293ab4b43ae0e2549ef8347ba97a5c95d02bf69e110",
        "cf26b5491a6cda6d243387fbcc1b5608851c53dec2ae2cd6a6729b702c442a04",
        "4ecd457cf9f9aa6a0a3c1277c4474829459ae19fdc2376a5c0519f6472986f37"),
    ("run", "TRACTION", "relaxed"): (
        "b01c160f166724483f5e55696d7791d514663719ea3fa307137d9eec8896105b",
        "471f4cfd90a834f52eeb84e8aaf9606e5a42506412135d3d40d9f19c353c6d78",
        "ba08298e32590403e109defeea9a22b5a1a0332788bc270037ea607ee1e9c500"),
    ("sweep", "SHEAR", "strong"): (
        "7e7f11dd77089b3acc74a652f289df510fb5b1d72830ba7b76b7bfb43aac6dea",
        "9f3b1355a85f74d89ee923d4d11325b96328c400eb3ce65769aaf1aeead2cc24",
        "a210a4974c3bcc30fda492df2f40857a8e7f652214a5a8f0e0b5b6f43976b7c7"),
    ("sweep", "SHEAR", "relaxed"): (
        "7e7f11dd77089b3acc74a652f289df510fb5b1d72830ba7b76b7bfb43aac6dea",
        "a0f061a09210592a22c11202535ab4cacd7c4e1ef94074d6892f11e21467d8bf",
        "a210a4974c3bcc30fda492df2f40857a8e7f652214a5a8f0e0b5b6f43976b7c7"),
    ("sweep", "TRACTION", "strong"): (
        "bf05dcf7cefe681d872eb1f82f4475ef521762f4ebb98963f33678e12eba4a56",
        "5690cfdf60f72377c753ebb11bc1975f940dc8766e36ed611280f8342dc6e826",
        "134464f7bf9535b57f4a147121c65287daa70af9fd8ef686a59d1dceed6563d2"),
    ("sweep", "TRACTION", "relaxed"): (
        "28e649193d97c9cc9c1ce1f684a43576d9e57e4fef4578f2667a978ee50b079b",
        "29ea23bb16f8293bfae37503011d8453599b53d0a474fccd3e2ab960bbc1f617",
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
        "f3435d34c19b37c5ac7bb4e0a381ffc9b2ee7547124483dcc2164558f2a3fcd2",
        "fields_pi.vtk",
        "a7c9944e41c222928dbd82cdb3dce922c6c4ee0ef81f02c694c3828b1d64bb74"),
    "example41": (
        "2dd5106e6a33d07b4923126db5127e6a87c4922ad976e1b64ffaabe386201cf9",
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
