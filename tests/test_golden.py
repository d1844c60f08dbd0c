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
        "metrics.csv": "0f5d2b50fe24663fefd0fd297b7f18f27d345a05d5a930dbf1a5802e090aea5c",
        "bank.json": "f6b6b64d1f99c26d2c00bd436813cf8acf60834e1b4e3e6f58a5eb4791e3581c",
        "encoders.json": "8c0c9c743b8164e456bc31512fa5f105fa87e5e0d2fb2d4e88a4987e20098408",
        "final_eval.json": "ff88654bfc1287dc2187b9af719ac27eceeb61d33d42c7cef65905e8e5ddd92b",
        "assignments.csv": "d29ca8f914b23f1fb3be5e8728e1159c2e89b38b5f2bd2f6d6cd6f752059509a",
        "stdout": "ff88654bfc1287dc2187b9af719ac27eceeb61d33d42c7cef65905e8e5ddd92b",
    },
    "toy-single-triplet": {
        "resolved_config.json": "534f7297c94efb2102316e2edc1060bba1bcebe3e1c8ca7bb25241fccc83d0fd",
        "metrics.csv": "9f2f49e70fe2e3e5f2d733db0831aff1e0f9f26ef95d2f37af6ecc4b0d97340d",
        "bank.json": "16bc5c5e56cddeb095398aaa72dd0ff6f641f6decb55fdec1a1d0f98c5b0316b",
        "encoders.json": "55245956166a5a832cc63e682cfc4948f399f5e384e41be2633e56cf76476ef6",
        "final_eval.json": "135a4f556317e66586f72f79fa77a4656456057ea35a2415a87d155ab1cfbc19",
        "assignments.csv": "73ce70c6eab5784ac1de8266f0171dc12d2b740d99d0c951e25e0f7c84229df6",
        "stdout": "135a4f556317e66586f72f79fa77a4656456057ea35a2415a87d155ab1cfbc19",
    },
    "full": {
        "resolved_config.json": "7bf32d36c88805df6d484bb0d3d6fd8d5392de4852c7013ca1dd998e2a2ce09c",
        "metrics.csv": "6f272429b8524211716a882aad7dbdb757f99fd85f2918a93f7d5e1b671c0490",
        "bank.json": "1d8fe98d0c7a7827d718c876e613217358e32fac820f112b9302ffa730525d70",
        "encoders.json": "f6a9e3eb1c2f52c2770f95e1c1a8700c9fbfe613eed9a10c368f48378e819a5d",
        "final_eval.json": "c3659e2af1e7890c35a533723c37cb8cefa88803acf92af037dd4951b36f57e5",
        "assignments.csv": "4e74961a45beae2b26bd0f4e49d035ab8ec81d67548ff6beefb8b46a2eba1fb0",
        "stdout": "c3659e2af1e7890c35a533723c37cb8cefa88803acf92af037dd4951b36f57e5",
    },
    "toy-6x6": {
        "resolved_config.json": "1022032214d961eb100c6bfe42abb009210d0490e4259c148c2f3cbfaee61e42",
        "metrics.csv": "fe587a496e27fac1c0700638ac58d3b13f9031487742f6d11638060d80a0ea0e",
        "bank.json": "b6cb1708987b48b642c068ae0c0d409df93f73ea8f77e6fbd968d40db699ffc7",
        "encoders.json": "a445acbeee65c34a874b57dfa55e6e458991177eeec97de89ab4d5752f83c16e",
        "final_eval.json": "047bf3e2db1f210a43bd9353c2822c6a838601b3f904a17d078baef6217e63d4",
        "assignments.csv": "1d872335503ef2909cbade724fe66b7e4ad1f515fde99848647d346731e20110",
        "stdout": "047bf3e2db1f210a43bd9353c2822c6a838601b3f904a17d078baef6217e63d4",
    },
    "toy-6x6-triplet": {
        "resolved_config.json": "3eb6a12080656f964b287065fa010da61d42227ead852a4763688287601a15d7",
        "metrics.csv": "d6ee0132fed00618a9063744bf9302ec838ef4fcdbdbc2464d8d047dfd2594a9",
        "bank.json": "f15003a280d54066ea837bd26583249fbbe5ffa02fd88d851be8ea6fc30b3525",
        "encoders.json": "ddfe8e8f9626eadc121ff36b2b15307975f0f0535b1e5ee1cebd8bb6dcf233b4",
        "final_eval.json": "9597085b95aea408d32d16172f0c67c63346558030e784b4a8b4d0d00a929921",
        "assignments.csv": "b2af742ff983a97e7438eaf6ac717c63214f256137b9c836eded0f404abcff07",
        "stdout": "9597085b95aea408d32d16172f0c67c63346558030e784b4a8b4d0d00a929921",
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
