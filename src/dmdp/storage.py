"""Instance files, deterministic serialization, and the instance generator.

Files are JSON with a fixed key set (format_version 1).  Writing goes
through a small deterministic serializer that renders every float with 17
significant digits (enough to reproduce any double exactly on reload), so
identical instances always produce identical bytes — which is also what
makes content digests and golden-report comparisons meaningful.  float64
arrays are written row by row, one format call per innermost row, with
the bytes their nested lists would give.  save() returns the sha256 of the
bytes it wrote, which is digest() of the instance.

The generator uses a self-contained xorshift64* PRNG seeded per (kind,
state, action) stream through a splitmix64-style mixer, so instances are
reproducible bit-for-bit from the seed alone, independent of numpy
version or platform.  The streams are independent, so they advance side by
side in uint64 arrays, one step of all of them per draw.  The exact contract is documented in the README.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .core import DmdpError, DmdpInstance, InstanceValidationError, validate

FORMAT_VERSION = 1

_REQUIRED_KEYS = (
    "format_version",
    "num_states",
    "num_actions",
    "horizon",
    "gamma",
    "r_max",
    "sign_mode",
    "transition",
    "reward",
)
_OPTIONAL_KEYS = ("metadata",)

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class InstanceFormatError(DmdpError):
    """An instance file could not be parsed into a model."""


# ---------------------------------------------------------------------------
# Deterministic JSON writing


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = format(x, ".17g")
    # Keep floats recognizably floats: "1" or "-0" would reload as ints.
    return s if "." in s or "e" in s else s + ".0"


def _wrap(items: list[str], pad: str, brackets: str) -> str:
    """items as one container, one item per line, whose lines are indented
    by pad."""
    if not items:
        return brackets
    inner = pad + "  "
    sep = ",\n" + inner
    return brackets[0] + "\n" + inner + sep.join(items) + "\n" + pad + brackets[1]


def _text(value: Any, pad: str) -> str:
    """The JSON text of value, whose container lines are indented by pad."""
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim == 0 or value.size == 0:
            return _text(value.tolist(), pad)
        # Row by row, with the bytes of the list path: one "%" call per
        # leaf row, with "%.1f" where ".17g" would print an integer (an
        # integral entry below 1e17 in magnitude).  tolist() runs per row,
        # so no whole-array list of Python floats is ever held.
        finite = np.isfinite(value)
        if not finite.all():
            _format_float(float(value[~finite][0]))  # raises for it
        rows = value.reshape(-1, value.shape[-1])
        integral = (rows == np.floor(rows)) & (np.abs(rows) < 1e17)
        leaf = pad + "  " * (value.ndim - 1)
        plain = _wrap(["%.17g"] * rows.shape[1], leaf, "[]")
        texts = []
        for row, ints, mixed in zip(rows, integral, integral.any(axis=1).tolist()):
            template = plain
            if mixed:
                specs = ["%.1f" if i else "%.17g" for i in ints.tolist()]
                template = _wrap(specs, leaf, "[]")
            texts.append(template % tuple(row.tolist()))
        for depth in reversed(range(value.ndim - 1)):
            n = value.shape[depth]
            outer = pad + "  " * depth
            texts = [_wrap(texts[i : i + n], outer, "[]") for i in range(0, len(texts), n)]
        return texts[0]
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_text(item, inner) for item in value]
    elif isinstance(value, dict):
        brackets = "{}"
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
        items = [json.dumps(key) + ": " + _text(item, inner) for key, item in value.items()]
    else:
        raise ValueError(f"cannot serialize {type(value).__name__}")
    return _wrap(items, pad, brackets)


def dumps_json(value: Any) -> str:
    """Serialize to JSON deterministically: insertion-ordered keys,
    17-significant-digit floats, 2-space indentation."""
    return _text(value, "")


# ---------------------------------------------------------------------------
# Instance files


def instance_document(instance: DmdpInstance) -> dict:
    """The canonical JSON document for an instance (ordered key set)."""
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "num_states": instance.num_states,
        "num_actions": instance.num_actions,
        "horizon": instance.horizon,
        "gamma": instance.gamma,
        "r_max": instance.r_max,
        "sign_mode": instance.sign_mode,
    }
    if instance.metadata:
        doc["metadata"] = instance.metadata
    doc["transition"] = instance.transition
    doc["reward"] = instance.reward
    return doc


def dumps_instance(instance: DmdpInstance) -> str:
    return dumps_json(instance_document(instance)) + "\n"


def _document_bytes(instance: DmdpInstance) -> bytes:
    """The UTF-8 bytes of the canonical text, without its final newline."""
    return dumps_json(instance_document(instance)).encode("utf-8")


def _file_digest(document: bytes) -> str:
    """sha256 hex digest of document followed by the final newline."""
    h = hashlib.sha256(document)
    h.update(b"\n")
    return h.hexdigest()


def digest(instance: DmdpInstance) -> str:
    """sha256 hex digest of the canonical serialization."""
    return _file_digest(_document_bytes(instance))


def parse_instance(text: str, check: bool = True) -> DmdpInstance:
    """Parse instance JSON; with check=True the result must validate
    under its declared sign_mode or InstanceValidationError is raised."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level value must be an object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise InstanceFormatError(f"missing required key {key!r}")
    for key in doc:
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise InstanceFormatError(f"unknown key {key!r}")
    # Checked by exact type: json.loads gives int or float for numbers,
    # and bool is a subclass of int.
    for key in ("format_version", "num_states", "num_actions", "horizon"):
        if type(doc[key]) is not int:
            raise InstanceFormatError(f"key {key!r} must be an integer, got {doc[key]!r}")
    for key in ("gamma", "r_max"):
        if type(doc[key]) not in (int, float):
            raise InstanceFormatError(f"key {key!r} must be a number, got {doc[key]!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise InstanceFormatError(
            f"unsupported format_version {doc['format_version']!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if doc["sign_mode"] not in ("any", "nonpositive"):
        raise InstanceFormatError(f"unknown sign_mode {doc['sign_mode']!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InstanceFormatError("key 'metadata' must be an object")
    try:
        instance = DmdpInstance(
            num_states=doc["num_states"],
            num_actions=doc["num_actions"],
            horizon=doc["horizon"],
            gamma=doc["gamma"],
            r_max=doc["r_max"],
            transition=np.array(doc["transition"], dtype=np.float64),
            reward=np.array(doc["reward"], dtype=np.float64),
            sign_mode=doc["sign_mode"],
            metadata=metadata,
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise InstanceFormatError(f"malformed instance: {e}") from e
    if check:
        report = validate(instance)
        if not report.ok:
            raise InstanceValidationError(report, "instance file failed validation")
    return instance


def load(path, check: bool = True) -> DmdpInstance:
    with open(path, "r", encoding="utf-8") as f:
        return parse_instance(f.read(), check=check)


def save(instance: DmdpInstance, path) -> str:
    """Write the canonical file and return the sha256 of the bytes written,
    which is digest(instance)."""
    # Serialize before opening, so that a value the writer rejects leaves
    # an existing file as it was and creates no new one.
    document = _document_bytes(instance)
    with open(path, "wb") as f:
        f.write(document)
        f.write(b"\n")
    return _file_digest(document)


# ---------------------------------------------------------------------------
# Reproducible generation


def _mix64(x):
    """splitmix64 finalizer: a bijective avalanche mix on 64 bits, of a
    Python int or elementwise of a uint64 array."""
    x = x & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


_KIND_TRANSITION = 1
_KIND_REWARD = 2


def _stream_states(seed: int, num_states: int, num_actions: int) -> np.ndarray:
    """The uint64 states of the streams (kind, s, a), shape (2, S, A),
    transition streams first: the seed mixed, then each part p of the
    index path folded in as h = mix(h ^ mix(p + golden))."""
    rows = []
    for kind in (_KIND_TRANSITION, _KIND_REWARD):
        h = _mix64(_mix64(seed + _GOLDEN) ^ _mix64(kind + _GOLDEN))
        rows.append([_mix64(h ^ _mix64(s + _GOLDEN)) for s in range(num_states)])
    cols = [_mix64(a + _GOLDEN) for a in range(num_actions)]
    h = _mix64(np.array(rows, dtype=np.uint64)[..., None] ^ np.array(cols, dtype=np.uint64))
    return np.where(h == 0, np.uint64(_GOLDEN), h)  # xorshift state must be nonzero


def _xorshift64star(state: np.ndarray, draws: int) -> np.ndarray:
    """The first draws outputs of every xorshift64* stream in state,
    advanced side by side, as their top 53 bits: shape (draws,) + state.shape."""
    x = state.copy()
    out = np.empty((draws,) + state.shape, dtype=np.uint64)
    for row in out:
        x ^= x >> 12
        x ^= x << 25
        x ^= x >> 27
        np.multiply(x, 0x2545F4914F6CDD1D, out=row)
        row >>= 11
    return out


def generate(
    seed: int,
    num_states: int,
    num_actions: int,
    horizon: int,
    gamma: float,
) -> DmdpInstance:
    """Deterministically generate a random nonpositive-reward instance.

    Transition row (s, a): num_states draws from stream (1, s, a),
    each in (0, 1], divided by their left-to-right float sum.
    Rewards: stream (2, s, a) yields horizon draws; the t-th becomes
    reward[t][s][a] = -u with u in [0, 1).  r_max is fixed at 1.
    """
    # One pass over all streams; transitions use the first num_states
    # draws of theirs, rewards the first horizon.
    draws = _xorshift64star(_stream_states(seed, num_states, num_actions),
                            max(num_states, horizon))
    # Uniforms in (0, 1], shifted so normalization never divides by zero,
    # indexed [draw, s, a].
    units = (draws[:num_states, 0] + 1).astype(np.float64) * 2.0**-53
    total = np.zeros((num_states, num_actions))
    for column in units:
        total += column
    transition = np.moveaxis(units / total, 0, -1)
    reward = -(draws[:horizon, 1].astype(np.float64) * 2.0**-53)
    return DmdpInstance(
        num_states=num_states,
        num_actions=num_actions,
        horizon=horizon,
        gamma=gamma,
        r_max=1.0,
        transition=transition,
        reward=reward,
        sign_mode="nonpositive",
        metadata={"name": f"random-{seed}", "seed": seed},
    )
