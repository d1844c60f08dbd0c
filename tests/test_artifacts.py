"""The artifact format: loader regressions, files in the earlier key order,
atomic writes, the row templates, and fuzzing of the artifact and config
loaders and the CLI."""

import contextlib
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stylemem import serialize
from stylemem.cli import main as cli_main
from stylemem.encoder import EncoderSet, load_encoders, save_encoders
from stylemem.errors import ConfigError, ValidationError
from stylemem.harness import PRESETS, config_from_dict, resolve_config
from stylemem.memory import MemoryLayout, init_bank, load_bank, save_bank
from stylemem.numerics import split_rng
from stylemem.serialize import FLOAT, atomic_write, csv_lines, float_rows, fmt_float, render_json, write_json
from stylemem.synthdata import (
    DomainSpec, FeatureScene, SceneSettings, generate_scene_pair, load_scene, save_scene,
)


def small_bank(seed=1):
    return init_bank(MemoryLayout.from_counts([(1, 1), (0, 2)]), 3, split_rng(seed))


def small_scene():
    spec = DomainSpec.create(split_rng(3), SceneSettings(classes=3, input_channels=2, height=2, width=3))
    pair = generate_scene_pair(spec, split_rng(4))
    return FeatureScene(pair.content, pair.styles[0], pair.labels, pair.boxes, pair.height, pair.width)


def saved(tmp_path, save, value, name):
    path = tmp_path / name
    save(value, path)
    return path


def rewrite(path, edit):
    doc = json.loads(path.read_text())
    doc = edit(doc) or doc
    path.write_text(json.dumps(doc))
    return path


# --- loader holes ---


def _set_layout(field, value):
    def edit(doc):
        doc["layout"][0][field] = value

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [(_set_layout("class", 1.9), "layout class"), (_set_layout("count", True), "layout count")],
)
def test_load_bank_rejects_mistyped_layout_entries(tmp_path, edit, field):
    path = rewrite(saved(tmp_path, save_bank, small_bank(), "bank.json"), edit)
    with pytest.raises(ValidationError, match=field):
        load_bank(path)


def _two_field_box(doc):
    doc["boxes"][0] = doc["boxes"][0][:2]


def _nan_content(doc):
    doc["content"][1][0] = float("nan")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [doc], "must hold a JSON object"),
        (lambda doc: {"version": 1}, "'height'"),
        (_two_field_box, "'boxes'"),
        (lambda doc: doc.update(content="abc"), "'content'"),
        (lambda doc: doc.update(height=2.5), "'height'"),
        (_nan_content, "'content' contains non-finite"),
    ],
)
def test_load_scene_rejects_malformed_files(tmp_path, edit, message):
    path = rewrite(saved(tmp_path, save_scene, small_scene(), "scene.json"), edit)
    with pytest.raises(ValidationError, match=message):
        load_scene(path)


def test_load_bank_rejects_huge_rows_without_numeric_warnings(tmp_path):
    def huge_row(doc):
        doc["keys"][0] = [1e308] * len(doc["keys"][0])

    path = rewrite(saved(tmp_path, save_bank, small_bank(), "bank.json"), huge_row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="'keys' rows deviate from unit norm"):
            load_bank(path)


# --- files in the earlier layout ---


def _earlier_matrix(m, indent):
    rows = (indent + "  [" + ", ".join(format(x, ".17g") for x in row) + "]" for row in m)
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def earlier_bank_text(bank):
    """A bank file as earlier versions wrote it: version first, fields in
    declaration order."""
    entries = bank.layout.entries
    layout = ", ".join(f'{{"class": {e.class_id}, "count": {e.count}}}' for e in entries)
    return (
        f'{{\n  "version": 1,\n  "channels": {bank.channels},\n  "layout": [{layout}],\n'
        f'  "keys": {_earlier_matrix(bank.keys, "  ")},\n'
        f'  "values_x": {_earlier_matrix(bank.values_x, "  ")},\n'
        f'  "values_y": {_earlier_matrix(bank.values_y, "  ")}\n}}\n'
    )


def earlier_encoder_text(encoders):
    """An encoder file as earlier versions wrote it: weight before bias."""
    blocks = ",\n".join(
        f'    "{name}": {{\n'
        f'      "weight": {_earlier_matrix(enc.weight, "      ")},\n'
        f'      "bias": [{", ".join(format(x, ".17g") for x in enc.bias)}]\n    }}'
        for name, enc in zip(("content_x", "content_y", "style_x", "style_y"), encoders.all())
    )
    first = encoders.content_x
    return (
        f'{{\n  "version": 1,\n  "in_channels": {first.in_channels},\n'
        f'  "out_channels": {first.out_channels},\n  "encoders": {{\n{blocks}\n  }}\n}}\n'
    )


def test_earlier_bank_files_load_bit_exactly(tmp_path):
    bank = small_bank(5)
    path = tmp_path / "bank.json"
    path.write_text(earlier_bank_text(bank))
    loaded = load_bank(path)
    assert loaded.layout == bank.layout
    for got, want in zip((loaded.keys, loaded.values_x, loaded.values_y),
                         (bank.keys, bank.values_x, bank.values_y)):
        np.testing.assert_array_equal(got, want)
    save_bank(loaded, tmp_path / "again.json")
    assert json.loads((tmp_path / "again.json").read_text()) == json.loads(path.read_text())


def test_earlier_encoder_files_load_bit_exactly(tmp_path):
    encoders = EncoderSet.create(split_rng(6), 3, 2)
    path = tmp_path / "encoders.json"
    path.write_text(earlier_encoder_text(encoders))
    loaded = load_encoders(path)
    for got, want in zip(loaded.all(), encoders.all()):
        np.testing.assert_array_equal(got.weight, want.weight)
        np.testing.assert_array_equal(got.bias, want.bias)
    save_encoders(loaded, tmp_path / "again.json")
    assert json.loads((tmp_path / "again.json").read_text()) == json.loads(path.read_text())


# --- writing ---


def test_failed_write_keeps_the_existing_file(tmp_path, monkeypatch):
    path = saved(tmp_path, save_bank, small_bank(7), "bank.json")
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(serialize.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_bank(small_bank(8), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["bank.json"]


def test_a_raising_block_keeps_the_existing_file(tmp_path):
    path = saved(tmp_path, save_bank, small_bank(7), "bank.json")
    before = path.read_bytes()
    with pytest.raises(ValidationError, match="block failed"):
        with atomic_write(path) as write:
            write(b"a line\n")
            assert len(os.listdir(tmp_path)) == 2
            raise ValidationError("block failed")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["bank.json"]
    with atomic_write(path) as write:
        write(b"a\n")
        write(b"b\n")
    assert path.read_bytes() == b"a\nb\n"
    assert os.listdir(tmp_path) == ["bank.json"]


@given(st.lists(st.floats(width=64), max_size=8))
def test_row_template_matches_fmt_float(values):
    row = "[" + ", ".join(fmt_float(v) for v in values) + "]"
    assert render_json(np.array(values, dtype=np.float64)) == row
    assert render_json(np.array([values, values], dtype=np.float64)) == f"[\n  {row},\n  {row}\n]"


def template_rows(matrix, sep):
    template = sep.join([FLOAT] * matrix.shape[1])
    return [template % tuple(row.tolist()) for row in matrix]


def test_json_files_stream_float_blocks_with_the_bytes_of_their_rows(tmp_path):
    # a ragged three chunks of serialize._JSON_CHUNK values, with rows that the template renders
    cols = 3
    block = np.random.default_rng(7).standard_normal((3 * (serialize._JSON_CHUNK // cols) - 5, cols))
    block[[0, serialize._JSON_CHUNK // cols, len(block) - 1], 1] = (1e300, 5e-324, -0.0)
    rows = ",\n".join(f"    [{row}]" for row in template_rows(block, ", "))
    want = f'{{\n  "block": [\n{rows}\n  ],\n  "empty": [\n\n  ],\n  "name": "b"\n}}'
    doc = {"name": "b", "block": block, "empty": np.zeros((0, 2))}
    write_json(tmp_path / "doc.json", doc)
    assert render_json(doc) == want
    assert (tmp_path / "doc.json").read_bytes() == want.encode() + b"\n"


def test_saving_full_preset_encoders_holds_under_half_the_file_in_memory(tmp_path):
    # the writer renders a chunk of rows at a time; holding the whole text took twice the file
    cfg = PRESETS["full"]
    encoders = EncoderSet.create(split_rng(2), cfg.scene.input_channels, cfg.channels)
    path = tmp_path / "encoders.json"
    save_encoders(encoders, path)  # warm
    tracemalloc.start()
    try:
        save_encoders(encoders, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)


# any float64 (NaN, infinities and subnormals included), or one in the kernel's fast range
block_floats = (
    st.floats(width=64)
    | st.floats(min_value=1e-7, max_value=1e17)
    | st.floats(min_value=-1e17, max_value=-1e-7)
)


@settings(deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5), elements=block_floats))
def test_float_rows_match_the_template(matrix):
    for sep in (",", ", "):
        assert list(float_rows(matrix, sep)) == template_rows(matrix, sep)


EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.9999999999999995e-07, 1e16,
    9.999999999999998e15, 1e17, 99999999999999999.0, 9.99999999999999999e-05,
]


def test_float_rows_match_the_template_on_edge_values():
    fast = [0.5, -1234.5, 1.2345678901234567e-3, -4.5e-6, 1e15, 7.0]
    mixed = [fast] + [[v, *fast[1:]] for v in EDGE_VALUES] + [[*fast[:-1], -v] for v in EDGE_VALUES]
    edges = [EDGE_VALUES, [-v for v in EDGE_VALUES]]
    for matrix in (np.array(mixed), np.array(edges), np.array(edges).T):
        for sep in (",", ", "):
            assert list(float_rows(matrix, sep)) == template_rows(matrix, sep)


def test_blocks_across_chunk_boundaries_match_the_template():
    # about three chunks of serialize._CHUNK values, the last one ragged
    cols = 7
    step = serialize._CHUNK // cols
    rows = 3 * step - step // 3
    rng = np.random.default_rng(5)
    exponents = rng.integers(-7, 17, (rows, cols))  # every fast exponent
    exponents[0] = np.arange(-7, 0)
    exponents[step // 2, :] = np.arange(10, 17)
    exponents[-1, :] = np.arange(0, 7)
    kept = rng.integers(1, 18, (rows, cols))  # significant digits: shorter ones end in zeros
    mantissa = np.round(rng.uniform(1.0, 9.99, (rows, cols)) * 10.0 ** (kept - 1)) / 10.0 ** (kept - 1)
    block = mantissa * 10.0 ** exponents * rng.choice([-1.0, 1.0], (rows, cols))
    specials = [0.0, -0.0, np.inf, np.nan, 5e-324, 1e17, -np.inf]
    for row in (3, step + step // 2, rows - 2):  # in the first, a middle and the last chunk
        block[row, :] = specials
        block[row + 1, row % cols] = specials[row % len(specials)]
    assert rows % step and len(range(0, rows, step)) == 3
    assert set(np.floor(np.log10(np.abs(block[np.isfinite(block) & (block != 0)]))).tolist()) >= set(range(-7, 17))
    for sep in (",", ", "):
        assert list(float_rows(block, sep)) == template_rows(block, sep)
    positions, labels, items = np.arange(rows), rng.integers(0, 5, rows), rng.integers(0, 2**24, rows)
    items[:6] = items[-6:] = [0, 9, 10, 9999, 10000, 2**24 - 1]  # the template renders them as str() does
    template = ",".join(["%d", "%s", "%d", "%d", "%d"] + [FLOAT] * cols) + "\n"
    want = "".join(template % (12, "y", *head, *row) for *head, row in zip(positions, labels, items, block.tolist()))
    assert b"".join(csv_lines("12,y,", (positions, labels, items), block)) == want.encode()


# --- fuzzing ---

FIELDS = (
    "version", "channels", "layout", "keys", "values_x", "values_y", "class", "count",
    "in_channels", "out_channels", "encoders", "weight", "bias",
    "height", "width", "labels", "boxes", "content", "style",
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
documents = json_values | st.dictionaries(st.sampled_from(FIELDS), json_values).map(
    lambda doc: {**doc, "version": 1}
)

LOADERS = {
    "bank": (load_bank, save_bank, small_bank),
    "encoders": (load_encoders, save_encoders, lambda: EncoderSet.create(split_rng(9), 2, 2)),
    "scene": (load_scene, save_scene, small_scene),
}
FUZZ = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def valid_doc(kind, tmp_path):
    _, save, make = LOADERS[kind]
    return json.loads(saved(tmp_path, save, make(), f"valid_{kind}.json").read_text())


def paths(value, prefix=()):
    """Every field and array element of a parsed document, as key paths."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


DELETE = object()


def mutate(doc, path, replacement):
    """A copy of ``doc`` with the node at ``path`` replaced, or deleted when
    ``replacement`` is ``DELETE``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        assume(parent[path[-1]] != replacement)
        parent[path[-1]] = replacement
    return doc


def loads_or_rejects(load, path):
    """True when ``load`` accepts the file; only ValidationError may escape."""
    try:
        load(path)
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(doc=documents)
def test_loaders_reject_arbitrary_documents(tmp_path, kind, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    loads_or_rejects(LOADERS[kind][0], path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_loaders_reject_single_field_mutations(tmp_path, kind, data):
    doc = valid_doc(kind, tmp_path)
    path = data.draw(st.sampled_from(list(paths(doc))))
    replacement = data.draw(json_values | st.just(DELETE))
    fuzzed = tmp_path / "fuzz.json"
    fuzzed.write_text(json.dumps(mutate(doc, path, replacement)))
    loads_or_rejects(LOADERS[kind][0], fuzzed)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    (root / "cfg.json").write_text(json.dumps({
        "preset": "toy", "iterations": 2, "eval_scenes": 1, "assignment_scenes": 0,
        "scene": {"height": 4, "width": 4},
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["train", "--config", str(root / "cfg.json"), "--out", str(root / "run")])
    assert code == 0
    return root


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def assert_cli_agrees(code, err, accepted):
    """Exit 1 with an ``error:`` line exactly when the loader rejects the file."""
    if not accepted:
        assert code == 1 and any(line.startswith("error:") for line in err.splitlines()), err
    else:
        assert code in (0, 1)


@FUZZ
@given(doc=documents)
def test_cli_inspect_rejects_arbitrary_documents(trained, doc):
    path = trained / "fuzz_bank.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["inspect", "--bank", str(path)])
    assert_cli_agrees(code, err, loads_or_rejects(load_bank, path))


@pytest.mark.parametrize("kind", ["bank", "encoders"])
@FUZZ
@given(data=st.data())
def test_cli_eval_rejects_mutated_artifacts(trained, kind, data):
    original = trained / "run" / f"{kind}.json"
    doc = json.loads(original.read_text())
    path = data.draw(st.sampled_from([p for p in paths(doc) if len(p) <= 3]))
    fuzzed = trained / f"fuzz_{kind}.json"
    fuzzed.write_text(json.dumps(mutate(doc, path, data.draw(json_values | st.just(DELETE)))))
    files = {"bank": original.parent / "bank.json", "encoders": original.parent / "encoders.json"}
    files[kind] = fuzzed
    code, err = run_cli([
        "eval", "--bank", str(files["bank"]), "--encoders", str(files["encoders"]),
        "--config", str(trained / "cfg.json"), "--scenes", "1",
    ])
    load = load_bank if kind == "bank" else load_encoders
    assert_cli_agrees(code, err, loads_or_rejects(load, fuzzed))


# --- config loader and train fuzzing ---

TOY_CONFIG = resolve_config({"preset": "toy"})
CONFIG_FIELDS = (*TOY_CONFIG, *TOY_CONFIG["scene"], "class", "count")

config_documents = json_values | st.dictionaries(
    st.sampled_from(CONFIG_FIELDS), json_values, max_size=8
)


def builds_or_rejects(raw):
    """True when the config resolves and validates; only ConfigError may escape."""
    try:
        config_from_dict(resolve_config(raw))
    except ConfigError:
        return False
    return True


@FUZZ
@given(doc=config_documents)
def test_config_loader_rejects_arbitrary_documents(doc):
    builds_or_rejects(doc)


@FUZZ
@given(data=st.data())
def test_config_loader_rejects_single_field_mutations(data):
    path = data.draw(st.sampled_from(list(paths(TOY_CONFIG))))
    builds_or_rejects(mutate(TOY_CONFIG, path, data.draw(json_values | st.just(DELETE))))


# Values a train run stays small with: integers are bounded, so a mutated
# grid, layout or width allocates little, and the run lengths (iterations,
# eval_scenes) are only ever invalid or small; deleting them would fall
# back to the preset's long run.
small_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 24) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
run_lengths = (
    st.integers(-3, 3) | st.floats(-2.0, 3.0).filter(lambda x: not x.is_integer())
    | st.booleans() | st.none() | st.text(max_size=2)
)
TRAIN_BASE = {
    "preset": "toy", "iterations": 2, "eval_scenes": 1, "assignment_scenes": 1,
    "scene": {"height": 4, "width": 4},
}


@FUZZ
@given(data=st.data())
def test_cli_train_exit_codes_on_mutated_configs(tmp_path, data):
    doc = resolve_config(TRAIN_BASE)
    path = data.draw(st.sampled_from(list(paths(doc))))
    if path in (("iterations",), ("eval_scenes",)):
        replacement = data.draw(run_lengths)
    else:
        replacement = data.draw(small_values | st.just(DELETE))
    cfg_path = tmp_path / "fuzz_cfg.json"
    cfg_path.write_text(json.dumps(mutate(doc, path, replacement)))
    code, err = run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    if code != 0:
        assert code == 1 and any(line.startswith("error:") for line in err.splitlines()), err
