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
version or platform.  The exact contract is documented in the README.
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
            num_states=int(doc["num_states"]),
            num_actions=int(doc["num_actions"]),
            horizon=int(doc["horizon"]),
            gamma=float(doc["gamma"]),
            r_max=float(doc["r_max"]),
            transition=np.array(doc["transition"], dtype=np.float64),
            reward=np.array(doc["reward"], dtype=np.float64),
            sign_mode=doc["sign_mode"],
            metadata=metadata,
        )
    except (TypeError, ValueError) as e:
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


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix on 64 bits."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _stream_seed(seed: int, *path: int) -> int:
    """Derive an independent stream state from a seed and index path."""
    h = _mix64((seed + _GOLDEN) & _M64)
    for part in path:
        h = _mix64(h ^ _mix64((part + _GOLDEN) & _M64))
    return h or _GOLDEN  # xorshift state must be nonzero


class _XorShift64Star:
    """xorshift64* generator; next() yields a uniform double in [0, 1)."""

    def __init__(self, state: int):
        self._x = state & _M64 or _GOLDEN

    def next_raw(self) -> int:
        x = self._x
        x ^= x >> 12
        x ^= (x << 25) & _M64
        x ^= x >> 27
        self._x = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def next_unit(self) -> float:
        # Top 53 bits -> [0, 1).
        return (self.next_raw() >> 11) * 2.0**-53

    def next_positive_unit(self) -> float:
        # (0, 1]: shifted so normalization never divides by zero.
        return ((self.next_raw() >> 11) + 1) * 2.0**-53


_KIND_TRANSITION = 1
_KIND_REWARD = 2


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
    transition = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        for a in range(num_actions):
            rng = _XorShift64Star(_stream_seed(seed, _KIND_TRANSITION, s, a))
            row = [rng.next_positive_unit() for _ in range(num_states)]
            total = 0.0
            for u in row:
                total += u
            transition[s, a] = [u / total for u in row]
    reward = np.zeros((horizon, num_states, num_actions))
    for s in range(num_states):
        for a in range(num_actions):
            rng = _XorShift64Star(_stream_seed(seed, _KIND_REWARD, s, a))
            for t in range(horizon):
                reward[t, s, a] = -rng.next_unit()
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
