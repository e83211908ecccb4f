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
        "6f41736bfbc9ce85d52f8025b647e06843f420b857085269a7302b54a836eb4c",
        "bef616634dd670da16a6de3cf70adc170dd6c00e224b29e4552d726dc118c33c",
        "62fb69eaab700a869cda102585fc961586d5210ccc5b3d04ce84170854fed721"),
    ("run", "SHEAR", "relaxed"): (
        "6f41736bfbc9ce85d52f8025b647e06843f420b857085269a7302b54a836eb4c",
        "a1beb79f95cf107ed1f87baf0ac21580e3215b85e43a91a15a26f1c46dd3ad8c",
        "62fb69eaab700a869cda102585fc961586d5210ccc5b3d04ce84170854fed721"),
    ("run", "TRACTION", "strong"): (
        "343b9ae62dcfaf6da7b1a58a95ff3e5cdc2443548ee4a45f746dcde8162648fc",
        "30eb643d5f647ea2ee09ae464ae370b45cfc222f0a75d996c53a17e68f9fe4ae",
        "57e280b87829197a05caa2ab9763872d44f60dab34e1dde11ba09c95725fa466"),
    ("run", "TRACTION", "relaxed"): (
        "5f18793ecd898bfb872ceb0eb2effd0892c59947e5e9188413afb3f2dfb3861a",
        "c02023ffc25c63c38ceb2bb6eeced6887bed53cce9c82e74d789dcd49274d84d",
        "1d6413d2661b48023a07f533978539012982f82626074065d2226c2078f6e555"),
    ("sweep", "SHEAR", "strong"): (
        "6679a3555002e13b7ae05ac022f082ef16da8b24edc0b0c7b170fc979f60027c",
        "2598b5042f4638f118ff3aff79459a57ce9049d11f8c1632b7b1f33c342646d7",
        "f32eb8aa081d034254a3af960a5dcc86f902b69e95dba91ff61db53df8a645cb"),
    ("sweep", "SHEAR", "relaxed"): (
        "6679a3555002e13b7ae05ac022f082ef16da8b24edc0b0c7b170fc979f60027c",
        "887030e629ed360291fc70525e21cd70693c4fefa09617314502b8667f1bfab4",
        "f32eb8aa081d034254a3af960a5dcc86f902b69e95dba91ff61db53df8a645cb"),
    ("sweep", "TRACTION", "strong"): (
        "a4b85d58522e653ec01ff69eb52044e0b204ff4e3686a0539d0f5c2c648b2980",
        "710e9bdd1ac1267f4f61dba86bb66d087ce679448863e4e94ce578eaecc8ff8c",
        "5c258d95614981815a490742be7aebf8de28ab95ec6dee6f97dbeb48db1dfc22"),
    ("sweep", "TRACTION", "relaxed"): (
        "9a8e854a35ad30268a5c043f05d3f83732b4467fc8f9e5262ce9db06cb3ac08f",
        "470d343eb18d39f69adec1d8c634c5604a3e40b7bc310748361a7a1e7d174dd7",
        "7085daa74074c4919e5139ceff8d244a23a531665e24251735c54a9f5483505a"),
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
        "e3a420e4c42d83b09a61ba978c781468413143db850a9cea6aef911dde33c676",
        "fields_pi.vtk",
        "65ce9835072d5b9618f43deb87ada865359c7a9585a94be4183e0dc0e9b32549"),
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
