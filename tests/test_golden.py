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
        "metrics.csv": "86e72dc6e7caf0606060cc063055e6f54b8893750d3074b8988d5b8498b1ec98",
        "bank.json": "15550d78825aed8d587784fc5fce6ac9667adeb5442e71eed5a580b884ff5f33",
        "encoders.json": "071dc4f5741f688af6e74c4a523d126716f3289ec7f99dc23819b5348f6dc90e",
        "final_eval.json": "31e4768766f7158ac0731a15362a609b3423e35fd138591db9092f8fe4884827",
        "assignments.csv": "bb785316d9c0fb592e4863b0c165839b59a206927178ebad0e158b9246871d7b",
        "stdout": "31e4768766f7158ac0731a15362a609b3423e35fd138591db9092f8fe4884827",
    },
    "toy-single-triplet": {
        "resolved_config.json": "534f7297c94efb2102316e2edc1060bba1bcebe3e1c8ca7bb25241fccc83d0fd",
        "metrics.csv": "3a3a9b24fa358bccb96622699646bce64ea7274b59638ea3e246884ffbe150aa",
        "bank.json": "a61cfbae222859276100c15f8223fb1f9c19b177a49c7f6ecb8bb9702d94fc12",
        "encoders.json": "8877f981bcf39fc801a8f23753730834a61dc1c45c247155668731b063eb6f16",
        "final_eval.json": "4a638780aa0b48e42f217f3670c9ba17f2bf6cf21acc056d0bce94eff082272d",
        "assignments.csv": "146a8ac9a5dfb9d814662de47c81e35c3f862a745eae392002a2828d14684b34",
        "stdout": "4a638780aa0b48e42f217f3670c9ba17f2bf6cf21acc056d0bce94eff082272d",
    },
    "full": {
        "resolved_config.json": "7bf32d36c88805df6d484bb0d3d6fd8d5392de4852c7013ca1dd998e2a2ce09c",
        "metrics.csv": "e753fd22457a95b7aa1b0b022c22c67dc9b738008fda7498cdf65ab1a28f480e",
        "bank.json": "894e6f1a4f2080953682c9815cbfc89f1949f892e38ff378f26332697cf43814",
        "encoders.json": "015a3945cf860357878bc42fbc3307c0d0a2b2acaa15bcedf4ca290d5f04c39e",
        "final_eval.json": "015c7f43182ddc1070011bb422b5ba36d38f2263c66428684f78eddcbf8014b0",
        "assignments.csv": "9d32763c36172ec6f515c0124b92aadd30eb7a56b40e842a859c8c9a2805d252",
        "stdout": "015c7f43182ddc1070011bb422b5ba36d38f2263c66428684f78eddcbf8014b0",
    },
    "toy-6x6": {
        "resolved_config.json": "1022032214d961eb100c6bfe42abb009210d0490e4259c148c2f3cbfaee61e42",
        "metrics.csv": "0bee30c215ad03125fd7e7a2df7003d50943c8e78335633a0dcfea096c42ff86",
        "bank.json": "11b2204408f31b6a83e36677afb4c98b4bab5d0603444af0d4ac4e17853da737",
        "encoders.json": "56196aaac5fcda02722fa122627279e732f6888a4630df25075c8d7055560c32",
        "final_eval.json": "3d92db3f1f4a1827900a8c5b4d45c010ab1e71ff1afda226e63977a805943547",
        "assignments.csv": "14f9d359a455f4f66ba4cda559fefd827c77c354509aeabf0df0e547bfa29f3c",
        "stdout": "3d92db3f1f4a1827900a8c5b4d45c010ab1e71ff1afda226e63977a805943547",
    },
    "toy-6x6-triplet": {
        "resolved_config.json": "3eb6a12080656f964b287065fa010da61d42227ead852a4763688287601a15d7",
        "metrics.csv": "df3cf4da2b9c88578403ed33e739d0f4cea88a9e161ff63e00437ea248dc758d",
        "bank.json": "bebba2018fb98a638906d3332e9c8a603179a1a7fdcded3f13284ada442cc371",
        "encoders.json": "88c49ae3bcbfa5251071feca3dd24242aac96a932f81ec140773dc2cedd62b5e",
        "final_eval.json": "7bf21d9452bcd0454719aa30d889c7538a31794ef022887a68fd69b06c2bf9c1",
        "assignments.csv": "2dc829fe9d8b5c63117572850b2df16256a0e2fb4990aecf3ec2851dd88faf1e",
        "stdout": "7bf21d9452bcd0454719aa30d889c7538a31794ef022887a68fd69b06c2bf9c1",
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
