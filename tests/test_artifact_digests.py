"""Pinned sha256 digests of the CLI artifacts: the byte-identical rerun contract.

``run`` and ``sweep`` on SHEAR and TRACTION in both boundary modes, at
``mesh_n = 4`` and ``time_steps = 4``, must write these exact ``metrics.csv``,
``summary.json`` and VTK fields (``fields_final.vtk`` of ``run``,
``fields_limit.vtk`` of ``sweep``): every file the two commands write. A
change that moves artifacts on purpose updates the digests here and records
the move in CHANGES.md.
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
        "3e680e429f6fc4f7e1b91060bee206ed205d5192e86fa54f76a4c835b8b1faa1",
        "18c5e7db239af722daa3a0402e51445dd5e40ce8f9b883dcad15fccd56b85e4c",
        "42afebc84f100aaa4feb8826e637aeefc4258258b78fb3b501fa4a958da78363"),
    ("run", "TRACTION", "relaxed"): (
        "409e426f8762acebf6c807365d7f12f402f7b731cc63ec6df63b99d3a472aab1",
        "b4802d6cdf73c6ae332df16951ff063852dd59da907b1c2a5f896fde592196a6",
        "3e09bef844761d7deaf6d22e0c43e2f4e99167cb043200546dc9387c2485f996"),
    ("sweep", "SHEAR", "strong"): (
        "6679a3555002e13b7ae05ac022f082ef16da8b24edc0b0c7b170fc979f60027c",
        "2598b5042f4638f118ff3aff79459a57ce9049d11f8c1632b7b1f33c342646d7",
        "f32eb8aa081d034254a3af960a5dcc86f902b69e95dba91ff61db53df8a645cb"),
    ("sweep", "SHEAR", "relaxed"): (
        "6679a3555002e13b7ae05ac022f082ef16da8b24edc0b0c7b170fc979f60027c",
        "887030e629ed360291fc70525e21cd70693c4fefa09617314502b8667f1bfab4",
        "f32eb8aa081d034254a3af960a5dcc86f902b69e95dba91ff61db53df8a645cb"),
    ("sweep", "TRACTION", "strong"): (
        "42093994d87a6c52f0dbc5c8e888b2ca11a0d77dcc44e5b0aa70c1f2b0f09845",
        "0b880a8f7226ff6da06f30fa9ed0d836af30acab04d56fddaed2c554156d2780",
        "78a4818483fc19d7b510bc3d557aa69c460e0118b1f91885d296e10f4b12b7f1"),
    ("sweep", "TRACTION", "relaxed"): (
        "c5e48dd046c43f7842d790798956d7d44e4cb7683e0ee0a646ada082cb69e987",
        "083a46fe38bff2d98d2310d7dc77cf871f6a168cca46487e78ea4ef3a1cda8b5",
        "3b87976814e4fc89474dc4e94fa9b1a24fa09df310c32216d1b8c30c67228e24"),
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
