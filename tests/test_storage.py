import dataclasses
import hashlib
import json

import numpy as np
import pytest

from dmdp import (
    InstanceFormatError,
    InstanceValidationError,
    digest,
    dumps_instance,
    dumps_json,
    generate,
    load,
    make_static_gap_instance,
    parse_instance,
    save,
    validate,
)


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


# ---------------------------------------------------------------------------
# float64 arrays are written row by row; the bytes are those of their lists


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
    }


@pytest.mark.parametrize("name", list(_awkward_arrays()))
def test_float_arrays_are_written_as_their_lists(name):
    arr = _awkward_arrays()[name]
    assert arr.dtype == np.float64
    assert dumps_json(arr) == dumps_json(arr.tolist())
    assert dumps_json({"a": [arr]}) == dumps_json({"a": [arr.tolist()]})


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
            assert str(from_array.value) == str(from_list.value)
            assert str(from_array.value).startswith("cannot serialize non-finite float")
