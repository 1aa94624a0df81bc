import dataclasses
import functools
import hashlib
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from dmdp import (
    DmdpError,
    DmdpInstance,
    InstanceFormatError,
    InstanceValidationError,
    digest,
    dumps_instance,
    dumps_json,
    generate,
    load,
    make_static_gap_instance,
    parse_instance,
    read,
    save,
    validate,
)
from dmdp import storage


def test_round_trip_is_exact(tmp_path):
    inst = generate(42, 3, 2, 4, 0.875)
    path = tmp_path / "inst.json"
    save(inst, path)
    back = load(path)
    assert np.array_equal(back.transition, inst.transition)
    assert np.array_equal(back.reward, inst.reward)
    assert (back.num_states, back.num_actions, back.horizon) == (3, 2, 4)
    assert back.gamma == inst.gamma and back.r_max == inst.r_max
    assert back.sign_mode == inst.sign_mode
    assert back.metadata == inst.metadata
    assert digest(back) == digest(inst)
    # a second save produces identical bytes
    path2 = tmp_path / "again.json"
    save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_awkward_floats_survive_the_decimal_format():
    values = [0.1, 1.0 / 3.0, 1.0 - 1e-9, 5e-324, 1e308, -0.0, 2.0**-53]
    text = dumps_json(values)
    back = json.loads(text)
    for orig, reloaded in zip(values, back):
        assert isinstance(reloaded, float)
        assert (reloaded == orig) or (np.isnan(orig) and np.isnan(reloaded))
    assert dumps_json(-0.0) == "-0.0"
    assert dumps_json(1.0) == "1.0"


def test_non_finite_floats_are_rejected():
    with pytest.raises(ValueError):
        dumps_json(float("nan"))
    with pytest.raises(ValueError):
        dumps_json(float("inf"))


def test_save_that_cannot_serialize_leaves_files_alone(tmp_path):
    good = generate(2, 3, 2, 2, 0.5)
    reward = good.reward.copy()
    reward[0, 0, 0] = float("nan")
    bad = dataclasses.replace(good, reward=reward)
    existing = tmp_path / "existing.json"
    save(good, existing)
    before = existing.read_bytes()
    with pytest.raises(ValueError, match="non-finite"):
        save(bad, existing)
    assert existing.read_bytes() == before
    fresh = tmp_path / "fresh.json"
    with pytest.raises(ValueError, match="non-finite"):
        save(bad, fresh)
    assert not fresh.exists()


def test_save_rewrites_a_longer_or_shorter_file_exactly(tmp_path):
    small = generate(2, 3, 2, 2, 0.5)
    large = generate(2, 4, 3, 5, 0.5)
    path = tmp_path / "inst.json"
    save(large, path)
    for new in (small, large):
        assert save(new, path) == digest(new)
        assert path.read_bytes() == dumps_instance(new).encode()


def test_write_file_finishes_short_writes_and_fails_as_open(tmp_path, monkeypatch):
    # Each os.write takes at most 3 bytes, so every chunk is written in parts.
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
    path = tmp_path / "out.bin"
    path.write_bytes(b"x" * 100)
    storage.write_file(path, (b"0123456789", b"", b"abcd"))
    assert path.read_bytes() == b"0123456789abcd"
    monkeypatch.undo()
    fresh = tmp_path / "fresh.bin"
    storage.write_file(fresh, (b"new",))
    with open(tmp_path / "by-open.bin", "wb"):
        pass
    assert fresh.stat().st_mode == (tmp_path / "by-open.bin").stat().st_mode
    for path in (tmp_path / "no-such-dir" / "x.json", tmp_path):
        with pytest.raises(OSError) as by_open:
            open(path, "wb")
        with pytest.raises(OSError) as by_write_file:
            storage.write_file(path, (b"new",))
        assert type(by_write_file.value) is type(by_open.value)
        assert str(by_write_file.value) == str(by_open.value)


@pytest.mark.skipif(not os.path.exists(os.devnull)
                    or not stat.S_ISCHR(os.stat(os.devnull).st_mode),
                    reason="os.devnull is not a character device")
def test_save_to_devnull_returns_the_digest():
    inst = generate(2, 3, 2, 2, 0.5)
    assert save(inst, os.devnull) == digest(inst)


def test_gamma_of_one_fails_load(tmp_path):
    inst = make_static_gap_instance()
    doc = json.loads(dumps_instance(inst))
    doc["gamma"] = 1.0
    path = tmp_path / "bad-gamma.json"
    path.write_text(dumps_json(doc))
    with pytest.raises(InstanceValidationError) as exc:
        load(path)
    assert any(rule == "gamma_range" for rule, _, _ in exc.value.report.violations)
    # check=False defers judgement to the caller
    raw = load(path, check=False)
    assert raw.gamma == 1.0


def test_row_sum_within_tolerance_loads(tmp_path):
    inst = make_static_gap_instance(gamma=0.5)
    doc = json.loads(dumps_instance(inst))
    doc["transition"][0][0][0] = 0.999999999  # off by 1e-9: acceptable
    path = tmp_path / "one-ulp.json"
    path.write_text(dumps_json(doc))
    assert validate(load(path)).ok
    doc["transition"][0][0][0] = 0.9
    path.write_text(dumps_json(doc))
    with pytest.raises(InstanceValidationError):
        load(path)


def test_parse_errors_name_the_problem(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1,\n  "num_states": }\n')
    with pytest.raises(InstanceFormatError) as exc:
        load(path)
    assert "line 2" in str(exc.value)

    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("[1, 2, 3]")
    assert "object" in str(exc.value)

    doc = json.loads(dumps_instance(make_static_gap_instance()))
    del doc["reward"]
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(dumps_json(doc))
    assert "'reward'" in str(exc.value)

    doc = json.loads(dumps_instance(make_static_gap_instance()))
    doc["surprise"] = 1
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(dumps_json(doc))
    assert "'surprise'" in str(exc.value)

    doc = json.loads(dumps_instance(make_static_gap_instance()))
    doc["format_version"] = 99
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(dumps_json(doc))
    assert "format_version" in str(exc.value)

    doc = json.loads(dumps_instance(make_static_gap_instance()))
    doc["transition"] = [[1.0]]
    with pytest.raises(InstanceFormatError):
        parse_instance(dumps_json(doc))

    for key, value, message in (("sign_mode", "negative", "unknown sign_mode 'negative'"),
                                ("metadata", [1], "key 'metadata' must be an object")):
        doc = json.loads(dumps_instance(make_static_gap_instance()))
        doc[key] = value
        with pytest.raises(InstanceFormatError, match=message):
            parse_instance(dumps_json(doc))

    # Header scalars keep their JSON type: no int() or float() coercion,
    # and a bool is neither an integer nor a number.
    bad = [
        ("format_version", True), ("format_version", 1.0),
        ("num_states", 2.7), ("num_states", "1"), ("num_actions", False),
        ("horizon", "2"), ("horizon", 2.0),
        ("gamma", "0.5"), ("gamma", False), ("gamma", None),
        ("r_max", "1"), ("r_max", True), ("r_max", [1.0]),
    ]
    for key, value in bad:
        doc = json.loads(dumps_instance(make_static_gap_instance()))
        doc[key] = value
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(json.dumps(doc))
        assert repr(key) in str(exc.value) and repr(value) in str(exc.value), (key, value)
    doc = json.loads(dumps_instance(make_static_gap_instance()))
    doc["gamma"], doc["r_max"] = 0, 1
    inst = parse_instance(json.dumps(doc))
    assert (inst.gamma, inst.r_max) == (0.0, 1.0)
    doc["gamma"] = 10**400  # an integer no float can hold
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    assert "too large" in str(exc.value)


def test_array_entries_must_be_json_numbers():
    # np.array would read "0.25" and true as floats and null as NaN.
    for key, index in (("transition", [0, 1, 0]), ("reward", [1, 0, 1])):
        for bad in ("0.25", True, False, None):
            doc = json.loads(dumps_instance(make_static_gap_instance()))
            row = doc[key]
            for i in index[:-1]:
                row = row[i]
            row[index[-1]] = bad
            with pytest.raises(InstanceFormatError) as exc:
                parse_instance(json.dumps(doc))
            assert str(exc.value) == (
                f"key {key!r} entry {index} must be a number, got {bad!r}"
            )
    doc = json.loads(dumps_instance(make_static_gap_instance()))
    doc["reward"][0][0][0] = 0  # a JSON integer is a number
    assert parse_instance(json.dumps(doc)).reward[0, 0, 0] == 0.0


def test_nesting_too_deep_for_the_parser_is_a_format_error():
    text = '{"transition": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(InstanceFormatError, match="parse error"):
        parse_instance(text)


def test_generation_is_reproducible_bitwise():
    a = generate(7, 3, 2, 3, 0.5)
    b = generate(7, 3, 2, 3, 0.5)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.reward, b.reward)
    assert digest(a) == digest(b)
    c = generate(8, 3, 2, 3, 0.5)
    assert digest(a) != digest(c)


def test_generated_instances_are_valid_and_nonpositive():
    for seed in range(25):
        inst = generate(seed, 3, 2, 3, 0.5)
        assert validate(inst, sign_mode="any").ok
        assert validate(inst, sign_mode="nonpositive").ok
        assert inst.r_max == 1.0
        assert np.all(inst.transition > 0.0)
        assert np.all(inst.reward <= 0.0) and np.all(inst.reward > -1.0)


def test_digest_tracks_content():
    a = generate(3, 2, 2, 2, 0.5)
    reward = a.reward.copy()
    reward[0, 0, 0] -= 1e-12
    from dmdp import DmdpInstance

    b = DmdpInstance(
        num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=a.transition, reward=reward,
        sign_mode=a.sign_mode, metadata=a.metadata,
    )
    assert digest(a) != digest(b)


def test_metadata_round_trips(tmp_path):
    inst = generate(11, 2, 2, 2, 0.25)
    assert inst.metadata == {"name": "random-11", "seed": 11}
    path = tmp_path / "meta.json"
    save(inst, path)
    assert load(path).metadata == {"name": "random-11", "seed": 11}


# ---------------------------------------------------------------------------
# byte pins of the canonical writer


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "shape, expected",
    [
        (
            (0, 3, 2, 3, 0.5),
            "93d6d16bfe8c35c3a5c2514da599ed62ae6a63cb6de5e02d4124c2df0248bc4a",
        ),
        (
            (11, 7, 3, 5, 0.875),
            "75839d0916ef2e1a7116c50362f54c8dd6e1ff943fd461fb81b571fef07f8d7e",
        ),
        (
            (3, 64, 4, 50, 0.9),
            "a0d7007b6ac8ab2d0b0ba24d7b303043461af8aa3cc8ec6df74cce15525fbde1",
        ),
    ],
)
def test_instance_text_is_pinned(shape, expected):
    assert _sha256(dumps_instance(generate(*shape))) == expected


@pytest.mark.parametrize("shape", [(5, 3, 2, 4, 0.5), (6, 10, 3, 4, 0.5)], ids=str)
def test_instance_text_is_the_text_of_its_document_as_lists(shape):
    metadata = {"name": "naïve ∑", "tags": [1.5, None]}
    instance = dataclasses.replace(generate(*shape), metadata=metadata)
    doc = storage.instance_document(instance)
    doc["transition"], doc["reward"] = instance.transition.tolist(), instance.reward.tolist()
    assert dumps_instance(instance) == dumps_json(doc) + "\n"
    # The same text with each array spelled by _listed, not the array writer.
    doc["transition"], doc["reward"] = "<transition>", "<reward>"
    expected = dumps_json(doc).replace('"<transition>"', _listed(instance.transition, "  "))
    expected = expected.replace('"<reward>"', _listed(instance.reward, "  "))
    assert dumps_instance(instance) == expected + "\n"


def _every_accepted_type():
    return {
        "nested": {"list": [1, [2, [3.5, []]], {}], "tuple": (True, None, ("x", ()))},
        "empty_list": [],
        "empty_dict": {},
        "empty_array": np.zeros((0,)),
        "empty_rows": np.zeros((2, 0)),
        "scalar_array": np.array(2.5),
        "int_scalar_array": np.array(7),
        "matrix": np.arange(6, dtype=np.float64).reshape(2, 3) / 3.0,
        "int_matrix": np.arange(4).reshape(2, 2),
        "flags": [True, False, None],
        "strings": ["", "ascii", "naïve ∑ 😀", "quote \" backslash \\ tab \t nl \n nul \x00"],
        "é key \n": "non-ASCII and escaped key",
        "numpy": [np.int64(-9), np.float32(0.1), np.float64(1.0 / 3.0)],
        "ints": [0, -1, 2**63, -(2**70)],
        "floats": [-0.0, 5e-324, 1e300, 1.0, -1e-7, 123456789.0, 1e16, 0.1],
    }


def test_dumps_json_text_of_every_accepted_type_is_pinned():
    text = dumps_json(_every_accepted_type())
    assert json.loads(text)["floats"][0] == 0.0
    assert _sha256(text) == "25227b5ce3265a2efc2fd101e915d9a8df50ac3efe7c559cd79cb5ace1de4ae9"


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("-inf"),
        np.float64("inf"),
        {1: "x"},
        {"ok": {None: 1}},
        np.bool_(True),
        object(),
        [1, {"deep": [object()]}],
        {1.5, 2.5},
    ],
)
def test_dumps_json_rejects_what_it_cannot_spell(value):
    with pytest.raises(ValueError):
        dumps_json(value)


@pytest.mark.parametrize(
    "table",
    [
        ((0, 1, 2), (3, 0, 1)),
        [[], [7], (), [-1, 2**70]],
        [[]],
        [(5,)],
        [[1, True], [2]],
        [[1], 2, [3]],
        [[1], None],
        ([0, [1]], [2]),
    ],
)
def test_tables_of_ints_are_written_as_json_dumps_writes_them(table):
    # A policy's rules take a row at a time; bools, scalars and deeper
    # lists fall back to the dispatch.
    assert dumps_json(table) == json.dumps(table, indent=2)
    assert dumps_json({"policy": table}) == json.dumps({"policy": table}, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [1.5, -2.0],
        ((0.25, 1.0), (3.0, -0.5)),
        [(1.5,), [2.5]],
        [[[-0.0]]],
        [1.5, 2],
        [1.5, True],
        [1.5, None],
        [np.float64(1.5)],
        [[], []],
        [[1.5], [2.5, 3.5]],
        [[1.5], 2.5],
        [[1.5], []],
        {"values": [[1.5, 2.5]], "rules": [[0.5, 1]]},
    ],
    ids=str,
)
def test_lists_of_floats_take_the_writer_for_json_values(value, monkeypatch):
    # These floats' reprs are their _format_float tokens, so json.dumps
    # spells the text of the writer for JSON values; only float64 arrays
    # take the array writer.
    written = []
    array_chunks = storage._array_chunks
    monkeypatch.setattr(storage, "_array_chunks",
                        lambda array, pad: written.append(array.shape) or array_chunks(array, pad))
    assert dumps_json(value) == json.dumps(value, indent=2)
    assert written == []


def test_float_lists_nested_deeper_than_numpy_allows_keep_the_list_writer():
    value = [1.5]
    for _ in range(70):
        value = [value]
    assert dumps_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value, shown",
    [([1.5, math.nan], "nan"), ([[1.5], [-math.inf]], "-inf"), ([1, math.inf], "inf"),
     ([[1.5, math.inf], [2.0, math.nan]], "inf")],
    ids=str,
)
def test_non_finite_entry_of_a_list_is_rejected_at_the_first(value, shown):
    with pytest.raises(ValueError) as exc:
        dumps_json(value)
    assert str(exc.value) == f"cannot serialize non-finite float {shown}"


# ---------------------------------------------------------------------------
# float64 arrays are written row by row; the bytes are those of their lists


def _listed(values, pad="", tokens=None):
    """The text of the nested lists of the float64 array values, whose
    container lines are indented by pad, without the array writer: each
    entry's _format_float token (or tokens[i] for entry i in C order),
    placed by _template."""
    if tokens is None:
        tokens = tuple(map(storage._format_float, np.ravel(values).tolist()))
    return storage._template(np.shape(values), pad) % tokens


AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e17, -1e17,
           123456789012345678.0, 99999999999999984.0, 2.0**53 + 2.0, 0.1,
           1.0 / 3.0, -2.0, 7.0, 1e-7, 1e300, -2.5, 2.0**-1074 * 3]


def _awkward_arrays():
    rng = np.random.default_rng(5)
    mixed = rng.standard_normal((3, 4, 5)) * 10.0 ** rng.integers(-20, 20, (3, 4, 5))
    mixed[rng.random((3, 4, 5)) < 0.3] = 0.0
    mixed[1, 2] = np.round(mixed[1, 2])
    mixed[2, 0] = rng.choice(AWKWARD, 5)
    reward = generate(4, 5, 3, 4, 0.5).reward
    # Every magnitude the kernel sees or hands back, across many blocks.
    big = rng.standard_normal((200, 4, 200)) * 10.0 ** rng.integers(-8, 20, (200, 4, 200))
    big[rng.random(big.shape) < 0.2] = 0.0
    big[::3] = np.round(big[::3])
    return {
        "0-d": np.array(-0.0),
        "0-d-fraction": np.array(0.1),
        "1-D": np.array(AWKWARD),
        "2-D": np.array(AWKWARD[:18]).reshape(3, 6),
        "3-D mixed rows": mixed,
        "4-D": rng.choice(AWKWARD, (2, 3, 2, 4)),
        "single": np.array([[[1.0]]]),
        "(0,)": np.zeros((0,)),
        "(2, 0)": np.zeros((2, 0)),
        "(0, 3)": np.zeros((0, 3)),
        "(2, 0, 3)": np.zeros((2, 0, 3)),
        "(3, 2, 0)": np.zeros((3, 2, 0)),
        "reward[:, ::-1]": reward[:, ::-1],
        "reward.T": reward.T,
        "mixed[::2, 1:, ::-3]": mixed[::2, 1:, ::-3],
        "integers": np.arange(-12.0, 12.0).reshape(2, 3, 4),
        "(200, 4, 200)": big,
    }


@pytest.mark.parametrize("name", list(_awkward_arrays()))
def test_float_arrays_are_written_as_their_lists(name):
    arr = _awkward_arrays()[name]
    assert arr.dtype == np.float64
    assert dumps_json(arr) == dumps_json(arr.tolist()) == _listed(arr)
    listed = "{\n  \"a\": [\n    " + _listed(arr, "    ") + "\n  ]\n}"
    assert dumps_json({"a": [arr]}) == dumps_json({"a": [arr.tolist()]}) == listed


# Every awkward array but the largest is smaller than the kernel's
# crossover, so these tests run again with the crossover at 0.
@pytest.mark.parametrize("name", list(_awkward_arrays()))
def test_float_arrays_are_written_as_their_lists_by_the_kernel(name, monkeypatch):
    monkeypatch.setattr(storage, "KERNEL_MIN_SIZE", 0)
    test_float_arrays_are_written_as_their_lists(name)


@pytest.mark.parametrize("shape", [(1,), (5,), (3, 1), (1, 4), (2, 3, 4), (4, 1, 1, 2),
                                   (1,) * 15 + (2,) + (1,) * 14 + (3,)])
@pytest.mark.parametrize("pad", ["", "    "])
def test_opening_depths_give_the_nesting_of_the_template(shape, pad, monkeypatch):
    # Where an axis has size 1, one entry is the first of several containers.
    between, closing = storage._separators(len(shape), pad)
    markers = tuple(f"<{i}>" for i in range(math.prod(shape)))
    depths = storage._opening_depths(shape).tolist()
    text = "".join(between[d] + m for d, m in zip(depths, markers)) + closing
    assert text == storage._template(shape, pad) % markers
    # The writer and the reader take their layout from the same depths.
    monkeypatch.setattr(storage, "KERNEL_MIN_SIZE", 0)
    values = np.arange(1.0, len(markers) + 1).reshape(shape) / 7
    text = storage._text(values, pad)
    assert text == storage._text(values.tolist(), pad) == _listed(values, pad)
    assert np.array_equal(_read_array_text(values, pad), values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entry_of_an_array_is_rejected_by_the_kernel(bad, monkeypatch):
    monkeypatch.setattr(storage, "KERNEL_MIN_SIZE", 0)
    test_non_finite_entry_of_an_array_is_rejected_as_in_a_list(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entry_of_an_array_is_rejected_as_in_a_list(bad):
    arr = np.array(AWKWARD[:16]).reshape(2, 2, 4)
    for index in [(0, 0, 0), (1, 1, 3), (1, 0, 2)]:
        broken = arr.copy()
        broken[index] = bad
        broken[1, 1, 1] = -bad  # later in C order of broken, not of its .T
        for view in (broken, broken.T, broken[:, ::-1]):
            with pytest.raises(ValueError) as from_list:
                dumps_json(view.tolist())
            with pytest.raises(ValueError) as from_array:
                dumps_json(view)
            with pytest.raises(ValueError) as listed:
                _listed(view)
            assert str(from_array.value) == str(from_list.value) == str(listed.value)
            assert str(from_array.value).startswith("cannot serialize non-finite float")


# ---------------------------------------------------------------------------
# the exact 17-digit kernel


def _kernel_sweep_values():
    """About 1.2 million doubles, most inside the kernel's window."""
    rng = np.random.default_rng(17)
    patterns = rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64)
    decades = [
        sign * rng.uniform(1.0, 10.0, 15_000) * 10.0**k
        for k in range(-8, 19)
        for sign in (1.0, -1.0)
    ]
    integral = [
        np.floor(rng.uniform(0.0, 2.0**53, 20_000)),
        -np.floor(10.0 ** rng.uniform(0.0, 17.0, 20_000)),
    ]
    # 10**k and its 20 neighbours on each side, for every k a double holds.
    # Some round up to the next power at 17 digits (the double 1e-14 lies
    # just below 10**-14), though none inside the kernel's window.
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = (powers.view(np.int64)[:, None] + np.arange(-20, 21)).view(np.float64).ravel()
    # Exact decimal ties at the 17th digit (about 60,000): n + 2**(E - 17)
    # times 10**(16 - E) ends in .5, for integral n with E = floor(log10 n),
    # wherever the double holds n + 2**(E - 17).
    ties = [
        np.floor(rng.uniform(10.0**e, 10.0 ** (e + 1), 2_000)) + odd * 2.0 ** (e - 17)
        for e in range(16)
        for odd in (1, 3)
    ]
    named = [1234567890123456.25, 1234567890123456.75, 1e-6, 1e-4, 1e16, 0.0, -0.0]
    values = np.concatenate(
        [patterns, *decades, *integral, near, -near, *ties, named]
    )
    return values[np.isfinite(values)]


@functools.cache
def _kernel_sweep_tokens():
    """_format_float's token of each of _kernel_sweep_values, one per line:
    one string takes a fifth of the memory of a tuple of them."""
    return "\n".join(map(storage._format_float, _kernel_sweep_values().tolist()))


def _inside_the_window(values):
    a = np.abs(values)
    return values[(a >= 1e-4) & (a < 1e16)]


def _written_tokens(values):
    """The tokens the array writer spells for a 1-D float64 array."""
    text = dumps_json(values)
    assert text.startswith("[\n  ") and text.endswith("\n]")
    return text[4:-2].split(",\n  ")


def test_kernel_tokens_are_those_of_format_float():
    values = _kernel_sweep_values()
    expected = [storage._format_float(v) for v in values.tolist()]
    inside = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)
    assert len(values) > 10**6 and inside.sum() > len(values) // 2
    assert _written_tokens(values) == expected
    assert expected[-7:] == [
        "1234567890123456.2", "1234567890123456.8", "9.9999999999999995e-07",
        "0.0001", "10000000000000000.0", "0.0", "-0.0",
    ]


@pytest.mark.parametrize("error", [-0.5, 0.5])
def test_kernel_corrects_a_log10_off_by_one(error, monkeypatch):
    # A log10 that rounds across a power of ten puts E one off; this one
    # does so for about half of the values, in one direction.
    values = _kernel_sweep_values()[300_000:450_000]
    expected = [storage._format_float(v) for v in values.tolist()]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    assert _written_tokens(values) == expected


@pytest.mark.parametrize("shape", [(-1, 64), (-1, 7, 11), (-1, 4, 1)], ids=str)
def test_kernel_sweep_is_written_as_its_lists(shape):
    # Every separator depth and block edge meets every kind of token; the
    # flat sweep is test_kernel_tokens_are_those_of_format_float's.
    values = _kernel_sweep_values()
    size = math.prod(shape[1:])
    values = values[: len(values) // size * size].reshape(shape)
    tokens = tuple(_kernel_sweep_tokens().split("\n")[: values.size])
    listed = _listed(values, tokens=tokens)
    assert dumps_json(values) == dumps_json(values.tolist()) == listed


def test_deeply_nested_arrays_are_written_as_their_lists():
    values = (np.arange(512) / 7.0).reshape((1,) * 15 + (2,) + (1,) * 14 + (256,))
    assert dumps_json(values) == dumps_json(values.tolist()) == _listed(values)


def test_writer_spells_every_token_inside_the_window_with_array_operations(monkeypatch):
    # Only entries outside the window take _format_float.
    values = _inside_the_window(_kernel_sweep_values())
    values = values[: len(values) // 77 * 77].reshape(-1, 7, 11)
    expected = _listed(values)

    def slow_path(x):
        raise AssertionError(f"{x!r} took the slow path")

    monkeypatch.setattr(storage, "_format_float", slow_path)
    assert dumps_json(values) == expected


@pytest.mark.parametrize("min_size", [storage.KERNEL_MIN_SIZE, 0])
def test_point_pass_runs_only_for_blocks_with_an_inside_entry_of_one_or_more(
    min_size, monkeypatch
):
    # Zeros and entries below 1e-4 have E = 0 in the kernel but take
    # _format_float's token, so alone they do not make a block insert the
    # point.  Only that pass reads _POINT, so its takes count the passes.
    passes = []

    class Counted(np.ndarray):
        def take(self, *args, **kwargs):
            passes.append(1)
            return np.asarray(self).take(*args, **kwargs)

    monkeypatch.setattr(storage, "_POINT", storage._POINT.view(Counted))
    monkeypatch.setattr(storage, "KERNEL_MIN_SIZE", min_size)
    rng = np.random.default_rng(22)
    # Two blocks, with rows 0 and KERNEL_BLOCK - 1 in the first and the last
    # entry in the second; and an array below the default KERNEL_MIN_SIZE.
    for shape, middle in [((storage.KERNEL_BLOCK // 32 + 1, 4, 8), storage.KERNEL_BLOCK - 1),
                          ((3, 4, 8), 50)]:
        size = math.prod(shape)
        base = rng.uniform(1e-4, 1.0, size) * rng.choice([-1.0, 1.0], size)
        places, neighbours = [0, middle, size - 1], [1, middle - 1, size - 2]
        kernel = size >= min_size
        for turn in range(3):
            outside = np.roll([0.0, -0.0, 5e-05], turn)
            values = base.copy()
            values[places] = outside
            passes.clear()
            assert dumps_json(values.reshape(shape)) == _listed(values.reshape(shape))
            assert passes == []
            # An inside entry of 1 or more at a place, its outside entry next to it.
            bigs = [1.0, -12.5, 1e15]
            for place, neighbour, big, other in zip(places, neighbours, bigs, outside):
                values = base.copy()
                values[places] = outside
                values[neighbour], values[place] = other, big
                passes.clear()
                assert dumps_json(values.reshape(shape)) == _listed(values.reshape(shape))
                assert len(passes) == kernel
    # An instance's probabilities and rewards all lie below 1 in magnitude.
    passes.clear()
    dumps_instance(generate(3, 64, 4, 50, 0.9))
    assert passes == []


def test_float_array_text_is_written_in_blocks():
    arr = np.random.default_rng(3).standard_normal((200, 4, 200))
    length = len(dumps_json(arr))
    tracemalloc.start()
    try:
        dumps_json(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * length


def test_instance_file_bytes_are_written_in_blocks():
    instance = generate(0, 200, 4, 50, 0.9)
    tracemalloc.start()
    try:
        length = len(storage._document_bytes(instance))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * length


# ---------------------------------------------------------------------------
# ragged arrays and non-finite metadata are rejected with their location


def _small_document():
    return json.loads(dumps_instance(generate(7, 2, 2, 2, 0.5)))


@pytest.mark.parametrize(
    "key, path, entry, message",
    [
        ("transition", [1, 0], [0.25, 0.25, 0.5],
         "key 'transition' entry [1, 0] has 3 entries, expected 2"),
        ("transition", [1], [[1.0, 0.0]],
         "key 'transition' entry [1] has 1 entries, expected 2"),
        ("transition", [0], [[1.0, 0.0]],
         "key 'transition' entry [0] has 1 entries, expected 2"),
        ("reward", [0, 0], [-0.5],
         "key 'reward' entry [0, 0] has 1 entries, expected 2"),
        ("reward", [1, 0], -0.5,
         "key 'reward' entry [1, 0] must be a list of 2 entries, got -0.5"),
        ("transition", [1, 1, 0], [0.5],
         "key 'transition' entry [1, 1, 0] must be a number, got [0.5]"),
        ("reward", [0, 1, 1], {"x": 1},
         "key 'reward' entry [0, 1, 1] must be a number, got {'x': 1}"),
    ],
)
def test_ragged_arrays_are_rejected_at_the_first_bad_entry(key, path, entry, message):
    doc = _small_document()
    container = doc[key]
    for i in path[:-1]:
        container = container[i]
    container[path[-1]] = entry
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value) == message
    # a later bad entry does not hide the first
    doc[key][-1][-1][-1] = [doc[key][-1][-1][-1]] if path != [1, 1, 0] else "x"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "literal, shown",
    [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e999", "inf")],
)
def test_non_finite_metadata_is_rejected_with_its_path(literal, shown):
    doc = _small_document()
    doc["metadata"] = {"name": "x", "runs": [{"score": 1.5}, {"score": "PLACEHOLDER"}]}
    text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == (
        f"key 'metadata' entry ['runs', 1, 'score'] must be a finite number, got {shown}"
    )


def _nested(levels):
    """1.5 inside levels one-element lists."""
    leaf = 1.5
    for _ in range(levels):
        leaf = [leaf]
    return leaf


# A 3x2x3 file is parsed whole; a 16x2x8 file's arrays take the canonical reader.
READER_SHAPES = [(1, 3, 2, 3, 0.5), (1, 16, 2, 8, 0.5)]


@pytest.mark.parametrize("shape", READER_SHAPES, ids=str)
def test_metadata_nested_past_the_bound_is_rejected_with_its_path(tmp_path, shape):
    # 600 levels: json.loads reads them, and dumps_json runs out of stack.
    text = dumps_instance(generate(*shape)).replace(
        '"seed": 1', '"seed": 1, "deep": ' + "[" * 600 + "]" * 600
    )
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert storage._canonical_instance(path.read_bytes()) is None
    with pytest.raises(InstanceFormatError) as exc:
        read(path)
    depth = storage.METADATA_MAX_DEPTH
    assert str(exc.value) == (
        f"key 'metadata' entry {['deep'] + [0] * depth} is nested more than {depth} levels deep"
    )


@pytest.mark.parametrize("shape", READER_SHAPES, ids=str)
def test_metadata_nested_to_the_bound_reads_and_saves_back(tmp_path, shape):
    depth = storage.METADATA_MAX_DEPTH
    inst = dataclasses.replace(generate(*shape), metadata={"deep": _nested(depth - 1)})
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    saved = save(inst, first)
    canonical = storage._canonical_instance(first.read_bytes())
    assert (canonical is None) == (shape == READER_SHAPES[0])
    back, back_digest = read(first)
    assert back.metadata == inst.metadata and back_digest == saved
    assert save(back, second) == saved
    assert second.read_bytes() == first.read_bytes()
    # one level more is refused by the writer, which leaves the file as it
    # was, and by the reader
    with pytest.raises(InstanceFormatError, match=f"more than {depth} levels deep"):
        save(dataclasses.replace(inst, metadata={"deep": _nested(depth)}), first)
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.count("1.5") == 1
    first.write_text(text.replace("1.5", "[1.5]"))
    with pytest.raises(InstanceFormatError, match=f"more than {depth} levels deep"):
        read(first)


@pytest.mark.parametrize(
    "metadata, message",
    [
        ({"deep": _nested(600)},
         f"key 'metadata' entry {['deep'] + [0] * 100} is nested more than 100 levels deep"),
        ({"runs": [{"score": math.nan}]},
         "key 'metadata' entry ['runs', 0, 'score'] must be a finite number, got nan"),
    ],
    ids=["600 levels", "nan"],
)
def test_writer_refuses_metadata_that_the_reader_refuses(tmp_path, metadata, message):
    # validate does not look at metadata; the writer's rule is the reader's.
    inst = dataclasses.replace(generate(1, 3, 2, 3, 0.5), metadata=metadata)
    assert validate(inst).ok
    path = tmp_path / "refused.json"
    for write in (digest, dumps_instance, lambda instance: save(instance, path)):
        with pytest.raises(InstanceFormatError) as exc:
            write(inst)
        assert str(exc.value) == message
    assert not path.exists()
    # 100 levels, the reader's bound, still write and read back
    inst = dataclasses.replace(inst, metadata={"deep": _nested(99)})
    saved = save(inst, path)
    back, back_digest = read(path)
    assert back.metadata == inst.metadata and back_digest == saved == digest(inst)


@pytest.mark.parametrize("shape", READER_SHAPES, ids=str)
@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"gamma": 0.5,', '"gamma": 0.5,\n  "gamma": 0.25,', "repeated key 'gamma'"),
        ('"seed": 1', '"seed": 1, "name": "other"',
         "key 'metadata' entry ['name'] is a repeated key"),
        ('"seed": 1', '"seed": 1, "runs": [{"score": 1, "score": 2}]',
         "key 'metadata' entry ['runs', 0, 'score'] is a repeated key"),
        ('\n  "transition"', '\n  "metadata": {},\n  "transition"', "repeated key 'metadata'"),
    ],
    ids=["header", "metadata", "nested metadata", "metadata twice"],
)
def test_repeated_keys_are_rejected(tmp_path, shape, old, new, message):
    # A top-level key is its own path; a key inside metadata is named by its
    # path.  Neither size of file is canonical, so read gives the parser's
    # error either way.
    text = dumps_instance(generate(*shape))
    assert old in text
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new, 1))
    assert storage._canonical_instance(path.read_bytes()) is None
    for parse in (read, lambda path: parse_instance(path.read_text())):
        with pytest.raises(InstanceFormatError) as exc:
            parse(path)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# read: canonical files take the array reader, every other file parse_instance


def _read_array_text(values, pad="  "):
    """storage._read_array on the writer's text of values, 30 bytes in."""
    data = b"#" * 30 + b"".join(storage._array_chunks(values, pad)) + b"\n"
    newlines = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    result = storage._read_array(data, newlines, 30, values.shape, pad)
    assert result is not None and result[1] == len(data) - 1
    return result[0]


def test_reader_reads_the_kernel_sweep_bit_for_bit():
    values = _kernel_sweep_values()
    values = values[: len(values) // 77 * 77].reshape(-1, 7, 11)
    assert values.size > 10**6
    back = _read_array_text(values)
    assert back.shape == values.shape
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


def test_reader_decodes_every_token_inside_the_window_with_array_operations(monkeypatch):
    # Only tokens the word-wise scan rejects take the one-token slow path.
    values = _inside_the_window(_kernel_sweep_values())
    values = values[: len(values) // 77 * 77].reshape(-1, 7, 11)
    data = b"#" * 30 + b"".join(storage._array_chunks(values, "  ")) + b"\n"
    newlines = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))

    def slow_path(x):
        raise AssertionError(f"{x!r} took the slow path")

    monkeypatch.setattr(storage, "_format_float", slow_path)
    back, _ = storage._read_array(data, newlines, 30, values.shape, "  ")
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("name", list(_awkward_arrays()))
def test_reader_reads_awkward_arrays_bit_for_bit(name):
    values = np.ascontiguousarray(_awkward_arrays()[name])
    if values.ndim == 0 or values.size == 0:
        return  # written as lists, and no instance array is
    back = _read_array_text(values, pad="    ")
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


def test_canonical_files_are_read_in_blocks():
    data = dumps_instance(generate(0, 200, 4, 50, 0.9)).encode()
    tracemalloc.start()
    try:
        assert storage._canonical_instance(data) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(data)


def _outcome(call):
    try:
        return call()
    except (DmdpError, ValueError) as e:
        return type(e), str(e)


def _expected(path, check):
    """What load and digest gave before read: the text parsed whole."""
    def parsed():
        with open(path, encoding="utf-8") as f:
            instance = parse_instance(f.read(), check=check)
        numbers = [instance.gamma, instance.r_max, instance.transition, instance.reward]
        finite = all(np.isfinite(v).all() for v in numbers)
        return instance, digest(instance) if finite else None
    return _outcome(parsed)


def _assert_read_as_parsed(path, monkeypatch):
    """read(path) gives what parse_instance and digest give: the same
    arrays to the bit, the same digest, or the same error.  Returns
    whether read took the canonical path, which it must exactly when the
    file is the canonical text of an instance above the crossover."""
    read_canonical = storage._canonical_instance
    fast = []
    monkeypatch.setattr(storage, "_canonical_instance",
                        lambda data: fast.append(read_canonical(data)) or fast[-1])
    for check in (False, True):
        fast.clear()
        expected, got = _expected(path, check), _outcome(lambda: read(path, check=check))
        if isinstance(expected[0], type):
            assert got == expected
            # only validation fails after the canonical path
            assert fast == [None] or expected[0] is InstanceValidationError
            continue
        assert isinstance(got[0], DmdpInstance), got
        (want, want_digest), (inst, inst_digest) = expected, got
        assert inst_digest == want_digest
        for field in ("num_states", "num_actions", "horizon", "sign_mode", "metadata"):
            assert getattr(inst, field) == getattr(want, field)
        for field in ("gamma", "r_max", "transition", "reward"):
            assert np.array_equal(np.float64(getattr(inst, field)).view(np.int64),
                                  np.float64(getattr(want, field)).view(np.int64))
        canonical = want_digest is not None and path.read_bytes() == dumps_instance(want).encode()
        S, A, T = want.num_states, want.num_actions, want.horizon
        big = S * A * (S + T) >= storage.KERNEL_MIN_SIZE
        assert (fast != [None]) == (canonical and big)
    monkeypatch.setattr(storage, "_canonical_instance", read_canonical)
    return fast != [None]


def _reader_instance(metadata=None):
    """A valid instance above the reader's crossover, with rewards of every
    token form: zeros, -0.0, e-notation, integral and 17-digit values."""
    inst = generate(5, 9, 3, 6, 0.75)
    assert 9 * 3 * (9 + 6) >= storage.KERNEL_MIN_SIZE
    reward = inst.reward.copy()
    forms = [0.0, -0.0, -1e-7, -2.5e-5, -1.0, -0.5, -1.0 / 3.0, -0.1, -1e-4, -5e-324]
    reward.flat[: len(forms)] = forms
    return dataclasses.replace(
        inst, reward=reward, metadata=inst.metadata if metadata is None else metadata
    )


def test_read_takes_the_canonical_path_for_saved_files(tmp_path, monkeypatch):
    for inst in (_reader_instance(), generate(1, 12, 2, 40, 0.9),
                 _reader_instance({"naïve ∑": [1, {"x": None}], "q": "\"\n"})):
        path = tmp_path / "inst.json"
        assert save(inst, path) == digest(inst)
        assert _assert_read_as_parsed(path, monkeypatch)
        back, back_digest = read(path)
        assert back_digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert np.array_equal(back.reward.view(np.int64), inst.reward.view(np.int64))


def test_read_of_a_file_that_fails_validation_raises_as_load_did(tmp_path, monkeypatch):
    inst = _reader_instance()
    reward = inst.reward.copy()
    reward[0, 0, 0] = 2.0  # above r_max
    path = tmp_path / "bad.json"
    save(dataclasses.replace(inst, reward=reward), path)
    assert _assert_read_as_parsed(path, monkeypatch)
    with pytest.raises(InstanceValidationError, match="reward_bound"):
        read(path)
    assert read(path, check=False)[0].reward[0, 0, 0] == 2.0


def test_small_files_keep_the_parser(tmp_path, monkeypatch):
    path = tmp_path / "small.json"
    save(generate(3, 3, 2, 3, 0.5), path)
    assert not _assert_read_as_parsed(path, monkeypatch)
    # the same file is canonical, and read below the crossover by the kernel
    monkeypatch.setattr(storage, "KERNEL_MIN_SIZE", 0)
    assert _assert_read_as_parsed(path, monkeypatch)


def test_array_short_of_newlines_is_read_by_the_parser(tmp_path, monkeypatch):
    # 8x2x12 holds 320 array entries.  With its reward on one line, the file
    # has fewer newlines after the reward's start than the reward has
    # entries, so _read_array gives it up on that count alone.
    inst = generate(1, 8, 2, 12, 0.5)
    text = dumps_instance(inst)
    path = tmp_path / "one-line.json"
    path.write_text(text[: text.index('"reward": ')] + '"reward": '
                    + json.dumps(inst.reward.tolist()) + "\n}\n")
    calls = []
    read_array = storage._read_array

    def spy(data, newlines, start, shape, pad):
        calls.append((shape, data.count(b"\n", start), read_array(data, newlines, start, shape, pad)))
        return calls[-1][-1]

    monkeypatch.setattr(storage, "_read_array", spy)
    assert not _assert_read_as_parsed(path, monkeypatch)
    shape, newlines, result = calls[-1]
    assert shape == inst.reward.shape and newlines < inst.reward.size and result is None
    back, back_digest = read(path)
    assert back_digest == digest(inst)
    assert np.array_equal(back.reward, inst.reward) and np.array_equal(back.transition, inst.transition)


def _token_edits():
    """(name, edit of the canonical text) pairs: other spellings of a
    token, layout changes and broken files."""
    def token(spelling, key="transition", which=0):
        def edit(text):
            lines = text.split("\n")
            first = lines.index(f'  "{key}": [') + 3 + which
            stripped = lines[first].strip()
            lines[first] = lines[first].replace(stripped.rstrip(","), spelling)
            return "\n".join(lines)
        return edit

    def last_digit(text):
        # A token of the same length whose last digit moved by one, which
        # json.loads may round to the same double.
        lines = text.split("\n")
        first = lines.index('  "transition": [') + 3
        tok = lines[first].strip().rstrip(",")
        lines[first] = lines[first].replace(tok, tok[:-1] + str((int(tok[-1]) + 1) % 10))
        return "\n".join(lines)

    def swap(a, b):
        def edit(text):
            lines = text.split("\n")
            i = next(k for k, line in enumerate(lines) if line.startswith(f'  "{a}"'))
            j = next(k for k, line in enumerate(lines) if line.startswith(f'  "{b}"'))
            lines[i], lines[j] = lines[j], lines[i]
            return "\n".join(lines)
        return edit

    def ragged(text):
        lines = text.split("\n")
        first = lines.index('  "transition": [') + 3
        del lines[first]
        return "\n".join(lines)

    edits = [(spelling, token(spelling)) for spelling in (
        "0.1", "1e-05", "1E5", "0.50", "0", "-0.0", "01.5", "+1.0", ".5", "1.",
        "0.12345678901234567890123", "NaN", "Infinity", "1e999", "00.5", "0.5e0",
        "-0", "1_0.5", " 0.5",
        # bytes next to the digits, a second point, a "-" inside, a
        # non-ASCII digit and a 24-byte token
        "0/5", "0:5", "0.5.5", "0.-5", "1-.5", "0.٥", "0.1234567890123456789012",
        # 0.10000000000000001 with a "/" for a 0, and with a ":" (ten) for
        # the 1 and a 0: read as digits, either spells its digits
        "0.1/000000000000001", "0.0:000000000000001",
    )]
    edits += [(f"reward {spelling}", token(spelling, "reward", 2)) for spelling in (
        "-0.0", "0.0", "-0", "-1e-07", "-9.9999999999999995e-08", "-1.0e-7", "-1",
        # the longest tokens in and out of the kernel's window
        "-0.00012345678901234567", "-1.2345678901234567e-100",
    )]
    edits += [
        ("integer too large for a double", token("1" + "0" * 400)),
        ("last digit", last_digit),
        ("CRLF", lambda t: t.replace("\n", "\r\n")),
        ("CR", lambda t: t.replace("\n", "\r")),
        ("tab", lambda t: t.replace("\n        ", "\n\t", 1)),
        ("tabs", lambda t: t.replace("        ", "\t")),
        ("trailing spaces", lambda t: t.replace("\n", " \n")),
        ("trailing space on a bracket line",
         lambda t: t.replace("\n      ],\n", "\n      ], \n", 1)),
        ("bracket line indented", lambda t: t.replace("\n    [\n", "\n     [\n", 1)),
        ("comma on the next line",
         lambda t: t.replace("\n      ],\n      [", "\n      ]\n,      [", 1)),
        ("bracket swapped", lambda t: t.replace("\n      ],\n      [", "\n      [,\n      [", 1)),
        ("comma after a container's last entry",
         lambda t: t.replace("\n      ],\n", ",\n      ],\n", 1)),
        ("comma dropped between siblings", lambda t: t.replace(",\n        ", "\n        ", 1)),
        ("no final newline", lambda t: t[:-1]),
        ("two final newlines", lambda t: t + "\n"),
        ("reordered keys", swap("gamma", "r_max")),
        ("metadata last", lambda t: t.replace('  "metadata"', '  "metadatb"')),
        ("no states", lambda t: t.replace('"num_states": 9,', '"num_states": 0,', 1)),
        ("key after reward", lambda t: t[: -len("\n}\n")] + ',\n  "extra": 1\n}\n'),
        ("compact", lambda t: json.dumps(json.loads(t))),
        ("ragged", ragged),
        ("truncated", lambda t: t[: len(t) // 2]),
        ("one line missing at the end", lambda t: t[: t.rindex("\n  ]")] + "\n}\n"),
        ("empty", lambda t: ""),
    ]
    return edits


@pytest.mark.parametrize("name, edit", _token_edits(), ids=[n for n, _ in _token_edits()])
def test_read_of_other_spellings_and_broken_files_is_that_of_the_parser(
    name, edit, tmp_path, monkeypatch
):
    inst = _reader_instance({"name": "naïve", "seed": 5})
    text = dumps_instance(inst)
    path = tmp_path / "edited.json"
    path.write_bytes(edit(text).encode())
    canonical = _assert_read_as_parsed(path, monkeypatch)
    # A canonical token in place of another is still canonical.
    spelled_canonically = (
        "-0.0", "reward -0.0", "reward 0.0", "reward -9.9999999999999995e-08",
        "reward -0.00012345678901234567", "reward -1.2345678901234567e-100",
    )
    assert canonical == (name in spelled_canonically)


_EDIT_BYTES = b'0123456789.-+eE,[]{}:" \n\r\tx'


def _byte_edit(rng, data: bytes) -> tuple[bytes, str]:
    """data with one random edit, and a description of it.  Most edits put
    a digit in place of another, which keeps a file close to canonical;
    some add a digit after a token's last one or drop a digit, and the
    rest substitute, insert or delete a byte anywhere."""
    digits = np.flatnonzero(np.frombuffer(data, np.uint8) - ord("0") < 10)
    kind = rng.choice(["digit", "append", "drop", "substitute", "insert", "delete"],
                      p=[0.5, 0.1, 0.1, 0.15, 0.075, 0.075])
    if kind == "digit":
        at, cut = int(rng.choice(digits)), 1
        new = b"%d" % ((data[at] - ord("0") + rng.integers(1, 10)) % 10)
    elif kind == "append":
        at, cut = int(rng.choice(digits[~np.isin(digits + 1, digits)])) + 1, 0
        new = b"%d" % rng.integers(10)
    elif kind == "drop":
        at, cut, new = int(rng.choice(digits)), 1, b""
    else:
        at, cut = int(rng.integers(len(data))), int(kind != "insert")
        i = rng.integers(len(_EDIT_BYTES))
        new = b"" if kind == "delete" else _EDIT_BYTES[i : i + 1]
    return data[:at] + new + data[at + cut :], f"{kind} {new!r} at {at}"


@pytest.mark.parametrize("seed", range(4))
def test_read_of_random_byte_edits_is_that_of_the_parser(seed, tmp_path, monkeypatch):
    # 250 seeded edits of canonical 9x3x6 files, each read both ways.
    rng = np.random.default_rng(seed)
    files = [dumps_instance(inst).encode()
             for inst in (_reader_instance({"name": "naïve", "seed": 5}),
                          generate(seed, 9, 3, 6, 0.75))]
    path = tmp_path / "edited.json"
    for _ in range(250):
        which = int(rng.integers(len(files)))
        data, edit = _byte_edit(rng, files[which])
        path.write_bytes(data)
        try:
            _assert_read_as_parsed(path, monkeypatch)
        except AssertionError as e:
            raise AssertionError(f"file {which}, {edit}") from e


@pytest.mark.parametrize(
    "name, edit",
    [
        ("raw UTF-8 metadata", lambda b: b.replace(b"na\\u00efve", "naïve".encode())),
        ("invalid UTF-8", lambda b: b.replace(b"na\\u00efve", b"na\xffve")),
        ("UTF-8 byte order mark", lambda b: b"\xef\xbb\xbf" + b),
        ("UTF-16", lambda b: b.decode().encode("utf-16")),
        ("NUL", lambda b: b.replace(b"0.", b"\x00.", 1)),
    ],
)
def test_read_of_other_encodings_is_that_of_the_parser(name, edit, tmp_path, monkeypatch):
    path = tmp_path / "encoded.json"
    save(_reader_instance({"name": "naïve", "seed": 5}), path)
    path.write_bytes(edit(path.read_bytes()))
    assert not _assert_read_as_parsed(path, monkeypatch)
