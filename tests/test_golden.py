"""Golden digests: the exact bytes of five short training runs.

For each run the test holds the SHA-256 of the six artifacts and of the
``stylemem train`` stdout. The ``toy-6x6`` run has P = 36 positions per
scene, where numpy's pairwise sum over 2P values differs from the sum of
its two halves, so a loss summed over both domains at once would move its
bytes. ``toy-6x6-triplet`` trains the class-aware triplet arm on the same
grid with a 0.05 margin, so some hinge rows go inactive and get a zero
gradient, which the margin-1.0 ``toy-single-triplet`` run never reaches.
The other runs have P = 256. A change that moves a byte on purpose updates
``DIGESTS`` and reports the drift (``python tests/drift.py PARENT_RUN
CHANGE_RUN``). Float results depend on the numpy and BLAS build, so the
digests hold only for ``BUILD``; under any other build the test skips and
names both builds. On every build the ``full`` run must write the same bytes
with one BLAS thread and with two: no sum may depend on how the BLAS library
splits it across threads.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    "toy-6x6": {"preset": "toy", "iterations": 40, "scene": {"height": 6, "width": 6}},
    "toy-6x6-triplet": {
        "preset": "toy", "iterations": 40, "loss_variant": "triplet", "triplet_margin": 0.05,
        "scene": {"height": 6, "width": 6},
    },
}

BUILD = (
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH"
    " NO_AFFINITY Haswell MAX_THREADS=64)"
)

DIGESTS = {
    "toy": {
        "resolved_config.json": "d0f408508fe67839c49c0507c5c8d13b56ec8006ba1f86834ace6c70d08b0d43",
        "metrics.csv": "93f4b8059950bff71590971d7234b777a0523f06bea4d34919bdac2397022da2",
        "bank.json": "d7b3a3b20667637f716fce92c5e4565a533623d1f3d61c0fce7a28a9aa59577f",
        "encoders.json": "09f04e0182dd44e43fb8af1d72e31706031b9c7c2c9a525a542ed5f417d73aa7",
        "final_eval.json": "42015a503bd2acb9d1fa7e9bc78b4541b860d82d22b5a39cd83bb72d9faa9654",
        "assignments.csv": "eb707bafe288459810402aba2de195d1b54d86360b9e2c24ef2bc84637e9105f",
        "stdout": "42015a503bd2acb9d1fa7e9bc78b4541b860d82d22b5a39cd83bb72d9faa9654",
    },
    "toy-single-triplet": {
        "resolved_config.json": "534f7297c94efb2102316e2edc1060bba1bcebe3e1c8ca7bb25241fccc83d0fd",
        "metrics.csv": "9a55f32353c15a020ef2bd894cfe86f7686904379bed9771726d556e473e76dd",
        "bank.json": "dc9c7fce0e5e45d539a8e4ad40d3885f29ee994073a14852751e2b8b10626b88",
        "encoders.json": "1ad9b128c0ee5d25404c5edeb72b9fb0d9d0cd729420a4759e5aeebf5c68f9e1",
        "final_eval.json": "53e6195e15bffcd50d1fe3300a0c72adb81f34fdbe5e5255dc04b2a31594deca",
        "assignments.csv": "3d81793f037b3ba4ecd73c7592612000883aea0febc4d9ae8af35d3f0a30fc53",
        "stdout": "53e6195e15bffcd50d1fe3300a0c72adb81f34fdbe5e5255dc04b2a31594deca",
    },
    "full": {
        "resolved_config.json": "7bf32d36c88805df6d484bb0d3d6fd8d5392de4852c7013ca1dd998e2a2ce09c",
        "metrics.csv": "e9a6e7d8a267795d2f966f9e2f0b55813ede0bcf06baf166be57349cf74e792d",
        "bank.json": "def45cf6b640e910a7b04fe10ce95f8c942460831db37fa0e99ea779cbcae246",
        "encoders.json": "2b0003786c8b8c1c1dcc77eeb4248e0d1dd1fdfa165aa7fa93c3b4b8ec7b8956",
        "final_eval.json": "6454dd29e2eaea0a1ecafa236c134656964df3850a68e751d18356767ba6c7c1",
        "assignments.csv": "ec5d0f5fe5bdf5f558f29d2c7968251a144ed5c089e949ba8b85e70e5aed154e",
        "stdout": "6454dd29e2eaea0a1ecafa236c134656964df3850a68e751d18356767ba6c7c1",
    },
    "toy-6x6": {
        "resolved_config.json": "1022032214d961eb100c6bfe42abb009210d0490e4259c148c2f3cbfaee61e42",
        "metrics.csv": "b6d2712b4ae1a58d54495f32b0820d52972a53a4ce1b1c7516e1929b0ae228d6",
        "bank.json": "5146da9ca7e9cf1393284b752f4931ac52e85dda9f235192b3e8e629ee3369ce",
        "encoders.json": "e06a4d9344f86b09fa89bbfe72d6d4e35501783cc1d0e6ff864f11f14a728dce",
        "final_eval.json": "5e8f62f5ac3fe9038e9083d4f6d8f12da70afe253f4a2d9e588f638c73ed1ca3",
        "assignments.csv": "87021efa6b2c0125f71a66e99dddf0bc423d837dc81a0f70c844fa886277cec5",
        "stdout": "5e8f62f5ac3fe9038e9083d4f6d8f12da70afe253f4a2d9e588f638c73ed1ca3",
    },
    "toy-6x6-triplet": {
        "resolved_config.json": "3eb6a12080656f964b287065fa010da61d42227ead852a4763688287601a15d7",
        "metrics.csv": "91956c004b15624f7d130cf6d89e513a03b6354058cb4e7630a7ec1e0d441809",
        "bank.json": "4c29e7e99e77c005040d309f44db306aff3d52a977d5efb5adfb1e193704266e",
        "encoders.json": "12ae3d4ce91ac0488ae6a663b269f9d1d97d90726098fbae028443aef7bb0d32",
        "final_eval.json": "64af88523ffc131a69b92277b8565833f2bd2420df13ef0b93f88c138e6b0400",
        "assignments.csv": "733074562a712d7a8d074cd40cff5aa35af835ce208d78292a4413363da11a74",
        "stdout": "64af88523ffc131a69b92277b8565833f2bd2420df13ef0b93f88c138e6b0400",
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


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUNS["full"]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = tmp_path / f"threads-{threads}"
        command = [sys.executable, "-m", "stylemem.cli", "train", "--config", str(config), "--out", str(out)]
        subprocess.run(command, env=env, check=True, capture_output=True)
        runs[threads] = {name: (out / name).read_bytes() for name in ARTIFACTS}
    for name in ARTIFACTS:
        assert runs["1"][name] == runs["2"][name], name
