"""Golden digests: the exact bytes of three short training runs.

For each run the test holds the SHA-256 of the six artifacts and of the
``stylemem train`` stdout. A change that moves a byte on purpose updates
``DIGESTS`` and reports the drift. Float results depend on the numpy and
BLAS build, so the digests hold only for ``BUILD``; under any other build
the test skips and names both builds.
"""

import hashlib
import json

import numpy as np
import pytest

from stylemem.cli import main as cli_main

ARTIFACTS = (
    "resolved_config.json", "metrics.csv", "bank.json", "encoders.json", "final_eval.json",
    "assignments.csv",
)

RUNS = {
    "toy": {"preset": "toy", "iterations": 40},
    "toy-single-triplet": {
        "preset": "toy", "iterations": 40, "memory_mode": "single", "loss_variant": "triplet",
    },
    "full": {"preset": "full", "iterations": 4, "eval_scenes": 2, "assignment_scenes": 1},
}

BUILD = (
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH"
    " NO_AFFINITY Haswell MAX_THREADS=64)"
)

DIGESTS = {
    "toy": {
        "resolved_config.json": "d0f408508fe67839c49c0507c5c8d13b56ec8006ba1f86834ace6c70d08b0d43",
        "metrics.csv": "1ba8cd83d224dcf0593c461a405ce029ce9e4ff2ab8493d3f2f3cb25cec1ba03",
        "bank.json": "8eebccbd131ea322c33e2ce6df75297bfcee4fa1b3a4b3bc24aae8cd97281ed1",
        "encoders.json": "88cc94ac898928a43bd61952202d3381f8923576f1cb74208c5015d2c40ee5ad",
        "final_eval.json": "fc7197231191a3267285651e87567882cfb00cadcd7344520084639d2cd50a5d",
        "assignments.csv": "830f24d82158855d990a428ee70d91dd03f55be825601d63c1a5d9f2e71ea0c4",
        "stdout": "fc7197231191a3267285651e87567882cfb00cadcd7344520084639d2cd50a5d",
    },
    "toy-single-triplet": {
        "resolved_config.json": "534f7297c94efb2102316e2edc1060bba1bcebe3e1c8ca7bb25241fccc83d0fd",
        "metrics.csv": "0f54c9d049adb11072b0c589043fa4ce2de8911888268fdb8e75599a7f22aa12",
        "bank.json": "b3e6afbe2ba76cd0f202b03809f4c7e58a45b4acd23fb1a13f0bfbe1cc39959b",
        "encoders.json": "ca84eea6fa580087dfdb4f66b980e09ada0103fc7187e2c4c56b73f200eae4c2",
        "final_eval.json": "51e1ce77ee374b25649b5046ed90746b24c7c786e743a028425041d481b46171",
        "assignments.csv": "de1f18201200a36c9ae0dfde40524566ac9cb936c48b63f00e00ef0b56775bb9",
        "stdout": "51e1ce77ee374b25649b5046ed90746b24c7c786e743a028425041d481b46171",
    },
    "full": {
        "resolved_config.json": "7bf32d36c88805df6d484bb0d3d6fd8d5392de4852c7013ca1dd998e2a2ce09c",
        "metrics.csv": "928191ad6786c2a4feca8c8f7b2a558fa0929398fa87c69c17bff0c4045362b6",
        "bank.json": "0b2b542f81ccb4292d99655d331d3a5fd1ac179abca8c868a2c545ebadfdd656",
        "encoders.json": "a1eb812f28b9412842cce21a53d875821f39cdac9d1cbd549bb48f8d2b2ebc55",
        "final_eval.json": "ce9e5b63b13e436b7c3cefb79a020a7d374e9e1045bab39e1c8c87b019a9f1b2",
        "assignments.csv": "531efeff8e964a8d29c3aab837f4abfc13295e99d294a52bec0481fb9a279347",
        "stdout": "ce9e5b63b13e436b7c3cefb79a020a7d374e9e1045bab39e1c8c87b019a9f1b2",
    },
}


def current_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return f"numpy {np.__version__}, unknown BLAS"
    config = blas.get("openblas configuration", "no configuration string")
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')} ({config})"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_bytes_match_the_golden_digests(tmp_path, capsys, run):
    build = current_build()
    if build != BUILD:
        pytest.skip(f"digests were taken under {BUILD}; this is {build}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUNS[run]))
    assert cli_main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in ARTIFACTS}
    got["stdout"] = sha256(capsys.readouterr().out.encode())
    assert got == DIGESTS[run]
