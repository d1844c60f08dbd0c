"""The drift report of ``tests/drift.py`` on identical and perturbed runs."""

import json
import shutil

import pytest

from drift import drift, main
from stylemem.harness import config_from_dict, resolve_config, run_training


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = config_from_dict(resolve_config({
        "preset": "toy", "iterations": 3, "eval_scenes": 1, "assignment_scenes": 1,
        "scene": {"height": 6, "width": 6},
    }))
    out = tmp_path_factory.mktemp("drift") / "run"
    run_training(cfg, out)
    return out


def copy_run(run, tmp_path):
    return shutil.copytree(run, tmp_path / "copy")


def test_identical_runs_have_zero_drift(run, tmp_path, capsys):
    table = drift(run, copy_run(run, tmp_path))
    assert set(name for name, _ in table) == {
        "metrics.csv", "final_eval.json", "bank.json", "encoders.json", "assignments.csv",
    }
    assert ("metrics.csv", "fidelity") in table and ("final_eval.json", "purity") in table
    assert [field for name, field in table if name == "bank.json"] == ["keys", "values_x", "values_y"]
    assert {field for name, field in table if name == "encoders.json"} == {
        f"{kind}_{d}.{part}" for kind in ("content", "style") for d in "xy" for part in ("weight", "bias")
    }
    assert [field for name, field in table if name == "assignments.csv"] == ["weight", "content"]
    assert all(value == (0.0, 0.0) for value in table.values())
    assert main([str(run), str(tmp_path / "copy")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(table)
    assert lines[4].split() == ["metrics.csv", "rec_loss", "0.000e+00", "0.000e+00"]


def test_perturbed_values_report_their_largest_drift(run, tmp_path, capsys):
    changed = copy_run(run, tmp_path)
    lines = (changed / "metrics.csv").read_text().splitlines()
    row = lines[2].split(",")
    old = float(row[1])
    row[1] = repr(old * (1.0 + 1e-6))
    lines[2] = ",".join(row)
    (changed / "metrics.csv").write_text("\n".join(lines) + "\n")
    doc = json.loads((changed / "final_eval.json").read_text())
    doc["purity"] = doc["purity"] - 0.25
    (changed / "final_eval.json").write_text(json.dumps(doc))

    table = drift(run, changed)
    gap, rel = table["metrics.csv", "key_loss"]
    assert gap == pytest.approx(abs(old) * 1e-6, rel=1e-9)
    assert rel == pytest.approx(1e-6 / (1.0 + 1e-6), rel=1e-9)
    purity = json.loads((run / "final_eval.json").read_text())["purity"]
    assert table["final_eval.json", "purity"] == pytest.approx((0.25, 0.25 / purity))
    moved = {key for key, value in table.items() if value != (0.0, 0.0)}
    assert moved == {("metrics.csv", "key_loss"), ("final_eval.json", "purity")}
    assert main([str(run), str(changed)]) == 0
    assert "key_loss" in capsys.readouterr().out


def test_a_perturbed_encoder_weight_reports_its_drift(run, tmp_path, capsys):
    changed = copy_run(run, tmp_path)
    doc = json.loads((changed / "encoders.json").read_text())
    weight = doc["encoders"]["style_y"]["weight"]
    old = weight[2][1]
    weight[2][1] = old + 1e-9
    (changed / "encoders.json").write_text(json.dumps(doc))

    table = drift(run, changed)
    gap, rel = table["encoders.json", "style_y.weight"]
    assert gap == pytest.approx(1e-9, rel=1e-6)
    assert rel == pytest.approx(1e-9 / max(abs(old), abs(old + 1e-9)), rel=1e-6)
    moved = {key for key, value in table.items() if value != (0.0, 0.0)}
    assert moved == {("encoders.json", "style_y.weight")}
    assert main([str(run), str(changed)]) == 0
    assert "style_y.weight" in capsys.readouterr().out


def test_perturbed_assignments_report_their_weight_and_content_drift(run, tmp_path, capsys):
    changed = copy_run(run, tmp_path)
    header, *lines = (changed / "assignments.csv").read_text().splitlines()
    assert header.split(",")[5:7] == ["weight", "c0"] and len(lines) == 2 * 36  # one scene, two domains
    row = lines[40].split(",")
    old_weight, old_content = float(row[5]), float(row[9])
    row[5], row[9] = repr(old_weight * 0.5), repr(old_content + 1e-7)
    lines[40] = ",".join(row)
    (changed / "assignments.csv").write_text("\n".join([header, *lines]) + "\n")

    table = drift(run, changed)
    assert table["assignments.csv", "weight"] == pytest.approx((old_weight * 0.5, 0.5))
    gap, rel = table["assignments.csv", "content"]
    assert gap == pytest.approx(1e-7, rel=1e-6)
    assert rel == pytest.approx(1e-7 / max(abs(old_content), abs(old_content + 1e-7)), rel=1e-6)
    moved = {key for key, value in table.items() if value != (0.0, 0.0)}
    assert moved == {("assignments.csv", "weight"), ("assignments.csv", "content")}
    assert main([str(run), str(changed)]) == 0
    assert "content" in capsys.readouterr().out

    (changed / "assignments.csv").write_text("\n".join([header, *lines[:-1]]) + "\n")
    with pytest.raises(ValueError, match="assignments.csv weight: 72 values vs 71"):
        drift(run, changed)


def test_runs_of_different_length_are_refused(run, tmp_path, capsys):
    changed = copy_run(run, tmp_path)
    lines = (changed / "metrics.csv").read_text().splitlines()
    (changed / "metrics.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="metrics.csv iter: 3 values vs 2"):
        drift(run, changed)
    assert main([str(run), str(changed)]) == 1
    assert capsys.readouterr().err.startswith("error: metrics.csv iter")
    assert main([str(run)]) == 2
