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
names both builds.
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
        "metrics.csv": "8711bfc44e73daaab03b4077c105b16235977f993631013607ff8e9d957c3865",
        "bank.json": "29cbaad6866ed0bc0a8334185432d68ccd153eaf70f5e45f75faa8a784a3ec55",
        "encoders.json": "99df1c642f24485494502a8fc1cd327bf4649552aea521e77e2d86bf8fc6fe3f",
        "final_eval.json": "9f1d9cc4a19303a144a87ca4e921be88f27acc05dc952d8a7af91f2838323139",
        "assignments.csv": "cea7370c9466409d52947251529332a72f3ea134791f954c67887e379578f757",
        "stdout": "9f1d9cc4a19303a144a87ca4e921be88f27acc05dc952d8a7af91f2838323139",
    },
    "toy-single-triplet": {
        "resolved_config.json": "534f7297c94efb2102316e2edc1060bba1bcebe3e1c8ca7bb25241fccc83d0fd",
        "metrics.csv": "cef15c63308b74d057c5992075aa89c33354e66adecad91b40fb16edd3954ec6",
        "bank.json": "93789b0951798469cb4798031db0d0128ed87248348594ce3e80b41f0deda014",
        "encoders.json": "52a11e47d9566929a2598c4707dc6f69fe49df4de6abbbd9d2666db95cfdd014",
        "final_eval.json": "48097eaf68f8a86872f6594a8ddbfe0aa7c31a36cc97defd2732197fbba6c55d",
        "assignments.csv": "16cacac938c36ca8b36df8d25ca83e4525d0f6a96b5f9e43f44323d0d3c2f670",
        "stdout": "48097eaf68f8a86872f6594a8ddbfe0aa7c31a36cc97defd2732197fbba6c55d",
    },
    "full": {
        "resolved_config.json": "7bf32d36c88805df6d484bb0d3d6fd8d5392de4852c7013ca1dd998e2a2ce09c",
        "metrics.csv": "69a3ea8f2aad432accfa0256420443dc1737fa99374e4f6ccef8127458325771",
        "bank.json": "292878a157bb99b11599126515af54391d59c9a9435c705e10cc3e7b1eb6555c",
        "encoders.json": "8e025e93a500665d5e208fed01d7fafecf4814a88f5535f6c301e5647f140f84",
        "final_eval.json": "ddcf0aaa77a44a56e3cd6a36c88b641e67ab87326cebf1100b10d8be461e3dba",
        "assignments.csv": "29bc1d742e3d1c7e604db2dc43bae65a4a68d881fa3c2ad58e0e282feab66094",
        "stdout": "ddcf0aaa77a44a56e3cd6a36c88b641e67ab87326cebf1100b10d8be461e3dba",
    },
    "toy-6x6": {
        "resolved_config.json": "1022032214d961eb100c6bfe42abb009210d0490e4259c148c2f3cbfaee61e42",
        "metrics.csv": "777574fe2580780d1957130e1ca17fcedf6699f34371ca9c1e0cc59a5f584897",
        "bank.json": "9512e81db62656ffc780119cf453db46bcb30e78e2a52ea2fdb89854e7e661aa",
        "encoders.json": "d5684cbf67f2d09a96be63f3e9564ba3ccb54de8d24d37487249b8fbeb85911b",
        "final_eval.json": "875141e5c9fae10936f6b1e6124ac6de7c08d122822cd1da1fc46e097895fe83",
        "assignments.csv": "1a7c56428c31ade92ec5038ffa761da7d4f132570c2634b2c09f15cf13b30823",
        "stdout": "875141e5c9fae10936f6b1e6124ac6de7c08d122822cd1da1fc46e097895fe83",
    },
    "toy-6x6-triplet": {
        "resolved_config.json": "3eb6a12080656f964b287065fa010da61d42227ead852a4763688287601a15d7",
        "metrics.csv": "5c72a4cb40cf6e8c92cfa547f83efe5ae8bb60f44b1e69a0d22e8678cb0243e5",
        "bank.json": "aa59c9e67e6badc3e0d25c0c3e743629534009dfd4550161411dc5a251736b55",
        "encoders.json": "7c6ad31351e0d4a65e63f38a5c714c84e8c3b6a27d7c4974172a7460aa45a03f",
        "final_eval.json": "6d19740fcda5bbd4a200ceb1bc341519b192dcef4d4bb8675f7acdeab0e7940d",
        "assignments.csv": "6b2b167755ba4bd422f842635f32bb4dffb04ea6061c3fc2d1176a906dc6be2f",
        "stdout": "6d19740fcda5bbd4a200ceb1bc341519b192dcef4d4bb8675f7acdeab0e7940d",
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
