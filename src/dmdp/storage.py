"""Instance files, deterministic serialization, and the instance generator.

Files are JSON with a fixed key set (format_version 1).  Writing goes
through a small deterministic serializer that renders every float with 17
significant digits (enough to reproduce any double exactly on reload), so
identical instances always produce identical bytes — which is also what
makes content digests and golden-report comparisons meaningful.  A
float64 array is written with the bytes its nested lists would give: a
skeleton of brackets and separators built from its shape, filled with one
token per entry, KERNEL_BLOCK entries at a time.  Arrays of at least
KERNEL_MIN_SIZE entries get their tokens from an exact array kernel for
1e-4 <= |x| < 1e16 (Dekker's error-free product with an exact power of
ten gives the 17 correctly rounded digits); zeros, entries outside that
window and smaller arrays take one _format_float call each.  save()
returns the sha256 of the bytes it wrote, which is digest() of the
instance.

read() returns an instance and its digest.  A file whose bytes are
exactly the canonical text of the instance it holds, as every file save()
writes is, has the sha256 of its bytes as digest, and its arrays are read
by the inverse of the kernel: each token is decoded as +-N / 10**f with
array operations, KERNEL_BLOCK tokens at a time, and kept only where the
kernel's digits of the double it gives spell that token byte for byte
(after at most one step to a neighbouring double).  The header and every
bracket, comma and indentation byte must be the writer's too.  Any other
file, and files with fewer than KERNEL_MIN_SIZE array entries, are parsed
whole by json.loads and serialized again for the digest, with the same
values, digest and errors either way.

The generator uses a self-contained xorshift64* PRNG seeded per (kind,
state, action) stream through a splitmix64-style mixer, so instances are
reproducible bit-for-bit from the seed alone, independent of numpy
version or platform.  The streams are independent, so they advance side by
side in uint64 arrays, one step of all of them per draw.  The exact
contract is documented in the README.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{pad}{brackets[1]}"


# The exact 17-digit kernel.  A double x with 1e-4 <= |x| < 1e16 prints
# under "%.17g" in fixed notation as the 17 digits of D = |x| * 10**(16 - E)
# rounded half to even, E = floor(log10 |x|), with the point after digit
# E + 1 (or "0." and -E - 1 zeros first when E < 0), trailing zeros of the
# fraction stripped and ".0" kept on integral values.  10**(16 - E) is an
# exact double for every E in the window, so Dekker's two-product gives
# the unrounded |x| * 10**(16 - E) as hi + lo.
_WINDOW = (1e-4, 1e16)
# Arrays with fewer entries than this are formatted by _format_float alone:
# the kernel's fixed numpy cost ties with one dtoa call per entry at 128
# entries and wins by 1.4x at 256 (x86_64, 2 vCPUs, numpy 2.4).
KERNEL_MIN_SIZE = 256
# Entries formatted or read at once, so that the kernels' temporaries and
# token lists stay the same size whatever the array's.  Blocks of 4,096
# write an S=64 file in 18 ms against 21 ms for blocks of 1,024, and read
# the S=200 file about a quarter faster (medians, same machine).
KERNEL_BLOCK = 1 << 12

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 bits."""
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# A token is assembled from a 24-byte source row per entry: three NULs, the
# 17 digits of D (bytes 3..19), then "0", ".", "-" and a NUL.  Digits come
# as four-digit groups, one uint32 of ASCII bytes each, read from a table.
_ROW = 24
_LEADS = np.frombuffer(b"".join(b"\0\0\0" + b"%d" % i for i in range(10)), np.uint32)
_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)), np.uint32)
_TAIL = np.frombuffer(b"0.-\0", np.uint32)[0]
_ZERO, _POINT, _MINUS, _NUL = 20, 21, 22, 23
_EXPONENTS = range(-4, 16)
_WIDTH = 23  # "-0.000" and 17 digits


def _layout(negative: bool, e: int) -> list[int]:
    """Source bytes of the unstripped token of a value with exponent e."""
    digits = [3 + j for j in range(17)]
    if e < 0:
        body = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
    else:
        body = digits[: e + 1] + [_POINT] + digits[e + 1 :]
    return [_MINUS] * negative + body


_LAYOUTS = [_layout(negative, e) for negative in (False, True) for e in _EXPONENTS]
_LAYOUT = np.array([row + [_NUL] * (_WIDTH - len(row)) for row in _LAYOUTS], dtype=np.intp)
_LENGTH = np.array([len(row) for row in _LAYOUTS], dtype=np.intp)
# The most trailing zeros that can go: all of the 16 - E fraction digits
# but one, which keeps ".0" on integral values.
_STRIP = np.array([15 - e for e in _EXPONENTS] * 2, dtype=np.intp)
_TOKEN = np.dtype(("U", _WIDTH))


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a * 10**p exactly (Dekker's two-product)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _kernel_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E and the int64 digits D of each double in a, all of them with
    1e-4 <= a < 1e16: a prints under "%.17g" as the 17 digits of D with
    the point after digit E + 1."""
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, 16 - e)
    # log10 may round across a power of ten, so E moves by one where the
    # exact hi + lo lies outside [10**16, 10**17).  The rounded D could not
    # tell: the double 1e-6 lies below 10**-6 but rounds to 10**16 at E = -6.
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if up.any() or down.any():
        e += up
        e -= down
        hi, lo = _scaled(a, 16 - e)
    # hi >= 2**53 is an even integer, so rint(lo) rounds hi + lo half to
    # even.  D never rounds up to 10**17: 10**0 .. 10**15 are doubles, and
    # the doubles nearest 10**-3 .. 10**-1 lie above them or more than
    # half a unit of the 17th digit below.
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _kernel_tokens(x: np.ndarray) -> list[str]:
    """[_format_float(v) for v in x] for a 1-D float64 array x, computed
    exactly with array operations for the entries inside the window; the
    others (zeros, tiny, huge and non-finite entries) go to _format_float,
    in order, so the first non-finite entry raises."""
    a = np.abs(x)
    inside = (a >= _WINDOW[0]) & (a < _WINDOW[1])
    a[~inside] = 1.0
    e, d = _kernel_digits(a)

    n = len(x)
    source = np.empty((n, _ROW // 4), np.uint32)
    for word in (4, 3, 2, 1):
        q = d // 10**4
        source[:, word] = _QUADS[d - q * 10**4]
        d = q
    source[:, 0] = _LEADS[d]
    source[:, 5] = _TAIL
    source = source.view(np.uint8)
    trailing_zeros = (source[:, 19:2:-1] != ord("0")).argmax(axis=1)
    key = (x < 0) * len(_EXPONENTS) + (e - _EXPONENTS[0])
    index = _LAYOUT[key]
    index += np.arange(0, n * _ROW, _ROW)[:, None]
    chars = source.ravel()[index]
    length = _LENGTH[key] - np.minimum(trailing_zeros, _STRIP[key])
    chars *= np.arange(_WIDTH) < length[:, None]
    tokens = chars.astype(np.uint32).view(_TOKEN).ravel().tolist()
    for i in np.flatnonzero(~inside).tolist():
        tokens[i] = _format_float(float(x[i]))
    return tokens


def _separators(ndim: int, pad: str) -> tuple[list[str], str]:
    """The texts between the entries of an array with ndim dimensions,
    whose container lines are indented by pad: texts[d] precedes an entry
    that is the first of a container at depth d and of none shallower
    (texts[ndim]: of none, texts[0]: the first entry), and the second
    value closes the array."""
    pads = [pad + "  " * depth for depth in range(ndim + 1)]

    def opening(depth: int) -> str:
        inner = "".join("\n" + pads[k] + "[" for k in range(depth + 1, ndim))
        return "[" + inner + "\n" + pads[ndim]

    def closing(depth: int) -> str:
        return "".join("\n" + pads[k] + "]" for k in range(ndim - 1, depth - 1, -1))

    texts = [opening(0)]
    texts += [closing(depth) + ",\n" + pads[depth] + opening(depth) for depth in range(1, ndim)]
    texts.append(",\n" + pads[ndim])
    return texts, closing(0)


def _skeleton(shape: tuple[int, ...], pad: str) -> list[str]:
    """The n + 1 texts around the n entries of an array of this shape in
    C order, whose container lines are indented by pad: text i precedes
    entry i, and text n closes the array."""
    ndim = len(shape)
    between, closing = _separators(ndim, pad)
    n = math.prod(shape)
    texts = [between[ndim]] * (n + 1)
    stride = 1
    # Entry i opens a new container at depth d when i is a multiple of the
    # size of one; deeper boundaries are written first and overwritten.
    for depth in range(ndim - 1, 0, -1):
        stride *= shape[depth]
        texts[stride:n:stride] = [between[depth]] * ((n - 1) // stride)
    texts[0] = between[0]
    texts[n] = closing
    return texts


def _array_text(value: np.ndarray, pad: str) -> str:
    """The text of a float64 array with at least one dimension and entry:
    the bytes of value.tolist(), one block of entries at a time."""
    flat = value.ravel()
    n = flat.size
    texts = _skeleton(value.shape, pad)
    chunks = []
    for start in range(0, n, KERNEL_BLOCK):
        block = flat[start : start + KERNEL_BLOCK]
        if n < KERNEL_MIN_SIZE:
            tokens = [_format_float(v) for v in block.tolist()]
        else:
            tokens = _kernel_tokens(block)
        parts = [""] * (2 * len(tokens))
        parts[0::2] = texts[start : start + len(tokens)]
        parts[1::2] = tokens
        chunks.append("".join(parts))
    chunks.append(texts[n])
    return "".join(chunks)


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
        return _array_text(value, pad)
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


def _entries(value: Any):
    """(index path, entry) for value and for everything nested in it, in
    document order."""
    stack = [([], value)]
    while stack:
        path, entry = stack.pop()
        yield path, entry
        if isinstance(entry, dict):
            items = list(entry.items())
        elif isinstance(entry, list):
            items = list(enumerate(entry))
        else:
            continue
        stack.extend((path + [k], item) for k, item in reversed(items))


def _locate_bad_entry(key: str, value: Any, shape: tuple[int, ...]) -> None:
    """Raise InstanceFormatError at the first entry of doc[key] == value, in
    C order, that is not a JSON number or breaks the nesting of shape."""
    for index, entry in _entries(value):
        depth = len(index)
        if depth == len(shape):
            if type(entry) not in (int, float):
                raise InstanceFormatError(
                    f"key {key!r} entry {index} must be a number, got {entry!r}"
                )
        elif not isinstance(entry, list):
            raise InstanceFormatError(
                f"key {key!r} entry {index} must be a list of {shape[depth]} entries, "
                f"got {entry!r}"
            )
        elif len(entry) != shape[depth]:
            raise InstanceFormatError(
                f"key {key!r} entry {index} has {len(entry)} entries, expected {shape[depth]}"
            )


def _number_array(doc: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """doc[key] as a float64 array whose entries were all JSON numbers.

    np.array would coerce "0.25" and true to floats and null to NaN; they
    are rejected with the index of the first in C order instead.  So is
    the first entry of a ragged array that breaks the declared shape."""
    value = doc[key]
    try:
        array = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        _locate_bad_entry(key, value, shape)
        raise
    entries = [value]
    for _ in range(array.ndim):
        entries = itertools.chain.from_iterable(entries)
    if not set(map(type, entries)) <= {int, float}:
        _locate_bad_entry(key, value, array.shape)
    return array


def _document_instance(doc: Any, array) -> DmdpInstance:
    """The instance a parsed instance document describes, its float64
    arrays made by array(key, declared shape)."""
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
    # json.loads reads NaN, Infinity and 1e999 as floats that no canonical
    # file can spell.
    for path, entry in _entries(metadata):
        if isinstance(entry, float) and not math.isfinite(entry):
            raise InstanceFormatError(
                f"key 'metadata' entry {path} must be a finite number, got {entry!r}"
            )
    S, A, T = doc["num_states"], doc["num_actions"], doc["horizon"]
    try:
        return DmdpInstance(
            num_states=S,
            num_actions=A,
            horizon=T,
            gamma=doc["gamma"],
            r_max=doc["r_max"],
            transition=array("transition", (S, A, S)),
            reward=array("reward", (T, S, A)),
            sign_mode=doc["sign_mode"],
            metadata=metadata,
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise InstanceFormatError(f"malformed instance: {e}") from e


def _validated(instance: DmdpInstance, check: bool) -> DmdpInstance:
    if check:
        report = validate(instance)
        if not report.ok:
            raise InstanceValidationError(report, "instance file failed validation")
    return instance


def parse_instance(text: str, check: bool = True) -> DmdpInstance:
    """Parse instance JSON; with check=True the result must validate
    under its declared sign_mode or InstanceValidationError is raised."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    except RecursionError as e:
        raise InstanceFormatError(f"parse error: {e}") from e
    return _validated(_document_instance(doc, functools.partial(_number_array, doc)), check)


# ---------------------------------------------------------------------------
# Reading canonical files
#
# A file that save wrote is read without json.loads for its arrays, and its
# digest is the sha256 of its bytes.  The reader accepts the bytes only
# where they are exactly dumps_instance of the instance it returns: the
# header is the one dumps_json writes for it, every text between two array
# entries is the writer's skeleton text, and every entry's token is the
# one _format_float prints for the double the reader returns.  17
# significant digits round-trip, so json.loads would have read that same
# double.  Any other file goes to parse_instance.

_TRANSITION = b',\n  "transition": '
_REWARD = b',\n  "reward": '
_END = b"\n}\n"
_COLUMNS = np.arange(_ROW)
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The numbers whose eight decimal digits, most significant first, are
    the bytes of each little-endian int64 in w (SWAR: pairs, then quads,
    then the eight)."""
    w = (w * 10 + (w >> 8)) & 0x00FF00FF00FF00FF
    w = (w * 100 + (w >> 16)) & 0x0000FFFF0000FFFF
    return (w * 10000 + (w >> 32)) & 0xFFFFFFFF


def _agrees(x, fraction, digits, length) -> np.ndarray:
    """Whether _format_float(x) is, for each x inside the kernel's window,
    the token of `length` bytes with `fraction` digits after its point,
    whose digits, read as one integer with a 0 in place of the point, make
    `digits`.  The token itself has only digits, one point and a leading
    "-" where x < 0."""
    a = np.abs(x)
    inside = (a >= _WINDOW[0]) & (a < _WINDOW[1])
    a[~inside] = 1.0
    e, d = _kernel_digits(a)
    # The text drops t = 16 - E - fraction trailing zeros of D: all of
    # them, or all but the one after the point of an integral value.
    t = 16 - e - fraction
    scale = _POW10_INT[np.minimum(np.maximum(t, 0), 16)]
    kept = d // scale
    ok = inside & (t >= 0) & (fraction >= 1) & (kept * scale == d)
    ok &= (kept % 10 != 0) | (fraction == 1)
    scale = _POW10_INT[np.minimum(fraction, 17)]
    whole = kept // scale
    ok &= whole * scale * 10 + (kept - whole * scale) == digits
    return ok & (length == (x < 0) + np.maximum(e, 0) + 2 + fraction)


def _read_tokens(data: bytes, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The doubles whose canonical tokens are data[starts[i]:ends[i]], given
    rows[i], the _ROW bytes that end at ends[i]; None if one is not."""
    length = ends - starts
    # Decode each token, right-aligned in its row, as x = +-N / 10**f: its
    # digits make one integer with a 0 in place of the point, and N is
    # that integer without the 0.
    within = _COLUMNS >= (_ROW - length)[:, None]
    point = (rows == ord(".")) & within
    fraction = _ROW - 1 - point.argmax(axis=1)
    rows -= ord("0")
    digit = within & (rows < 10)
    negative = np.frombuffer(data, np.uint8)[starts] == ord("-")
    plausible = (point.sum(axis=1) == 1) & (digit.sum(axis=1) == length - 1 - negative)
    rows *= digit
    words = _eight_digits(rows.view("<i8"))
    plausible &= words[:, 0] < 100  # so that digits < 10**18 is exact
    digits = (words[:, 0] * 10**8 + words[:, 1]) * 10**8 + words[:, 2]
    below = digits % _POW10_INT[np.minimum(fraction + 1, 18)]
    x = (below + (digits - below) // 10).astype(np.float64) / _POW10[np.minimum(fraction, 22)]
    x[negative] *= -1.0
    # Two roundings leave x at most a step or so from the double nearest
    # the token, which is the one whose text it is if any is.
    wrong = np.flatnonzero(~(plausible & _agrees(x, fraction, digits, length)))
    steps = np.nextafter(x[wrong], [[np.inf], [-np.inf]])
    good = plausible[wrong] & _agrees(steps, fraction[wrong], digits[wrong], length[wrong])
    for step, agrees in zip(steps, good):
        x[wrong[agrees]] = step[agrees]
    wrong = wrong[~good.any(axis=0)]
    # Zeros, entries outside the window, e-notation and the rare candidate
    # further off are checked one at a time.
    for i in wrong.tolist():
        try:
            token = data[starts[i] : ends[i]].decode("ascii")
            value = float(token)
            if _format_float(value) != token:
                return None
        except ValueError:
            return None
        x[i] = value
    return x


def _read_array(data: bytes, newlines: np.ndarray, start: int, shape: tuple[int, ...], pad: str):
    """The float64 array of this shape whose canonical text, with its
    container lines indented by pad, starts at data[start], and the offset
    where that text ends; None if the bytes there are not that text.
    newlines holds the offsets of every newline in data, and start >= _ROW."""
    ndim = len(shape)
    between, closing = _separators(ndim, pad)
    # Every entry has a line of its own and every container two more, so an
    # entry's line number is a sum over its index.  Line 0 holds the "[".
    line = np.zeros(shape, np.intp)
    lines = 1
    for depth in range(ndim - 1, -1, -1):
        line += (np.arange(shape[depth]) * lines + 1).reshape((-1,) + (1,) * (ndim - 1 - depth))
        lines = shape[depth] * lines + 2
    line += np.searchsorted(newlines, start)
    if line.flat[-1] >= len(newlines):
        return None
    ends = newlines[line]
    ends[..., :-1] -= 1  # the comma
    starts = newlines[line - 1] + len(between[ndim]) - 1
    if (ends <= starts).any():
        return None
    # The texts between entries, one kind of text at a time.
    buf = np.frombuffer(data, np.uint8)
    for depth in range(1, ndim + 1):
        before = (slice(None),) * (depth - 1) + (slice(None, -1),) + (-1,) * (ndim - depth)
        after = (slice(None),) * (depth - 1) + (slice(1, None),) + (0,) * (ndim - depth)
        text = np.frombuffer(between[depth].encode(), np.uint8)
        gaps = ends[before].ravel()
        if (starts[after].ravel() - gaps != len(text)).any():
            return None
        if (sliding_window_view(buf, len(text))[gaps] != text).any():
            return None
    starts, ends = starts.ravel(), ends.ravel()
    end = int(ends[-1]) + len(closing)
    if data[start : starts[0]] != between[0].encode() or data[ends[-1] : end] != closing.encode():
        return None
    values = np.empty(len(starts))
    rows = sliding_window_view(buf, _ROW)
    for block in range(0, len(values), KERNEL_BLOCK):
        part = slice(block, block + KERNEL_BLOCK)
        tokens = _read_tokens(data, rows[ends[part] - _ROW], starts[part], ends[part])
        if tokens is None:
            return None
        values[part] = tokens
    return values.reshape(shape), end


def _canonical_instance(data: bytes) -> DmdpInstance | None:
    """The instance whose canonical text is data, or None if data is not
    one.  Files whose arrays hold fewer than KERNEL_MIN_SIZE entries in
    all get None too: parse_instance reads them faster."""
    # An entry's line takes at least 12 bytes: indentation, "0.0" and "\n".
    if len(data) < 12 * KERNEL_MIN_SIZE:
        return None
    split = data.find(_TRANSITION)
    if split < _ROW or not data.endswith(_END):
        return None
    try:
        head = json.loads(data[:split] + b"\n}")
    except (ValueError, RecursionError):
        return None
    sizes = [head.get(key) for key in ("num_states", "num_actions", "horizon")]
    if not all(type(size) is int and size >= 1 for size in sizes):
        return None
    S, A, T = sizes
    if not KERNEL_MIN_SIZE <= S * A * (S + T) <= len(data) // 12:
        return None
    newlines = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    doc, end = dict(head), split
    for prefix, key, shape in ((_TRANSITION, "transition", (S, A, S)),
                               (_REWARD, "reward", (T, S, A))):
        array = data.startswith(prefix, end) and _read_array(
            data, newlines, end + len(prefix), shape, "  "
        )
        if not array:
            return None
        doc[key], end = array
    if end + len(_END) != len(data):
        return None
    try:
        instance = _document_instance(doc, lambda key, shape: doc[key])
    except InstanceFormatError:
        return None
    header = instance_document(instance)
    del header["transition"], header["reward"]
    if dumps_json(header).encode() != data[:split] + b"\n}":
        return None
    return instance


def read(path, check: bool = True) -> tuple[DmdpInstance, str | None]:
    """The instance in the file at path and its digest, the sha256 of the
    file itself when it is canonical.  The digest is None only when check
    is False and the file holds a NaN or an infinity, which no canonical
    text spells."""
    with open(path, "rb") as f:
        data = f.read()
    instance = _canonical_instance(data)
    if instance is not None:
        return _validated(instance, check), hashlib.sha256(data).hexdigest()
    # The text open(path, encoding="utf-8") reads, with its universal
    # newlines, and its errors.
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    instance = parse_instance(text, check)
    try:
        return instance, digest(instance)
    except ValueError:  # a NaN or an infinity, which validation rejects
        return instance, None


def load(path, check: bool = True) -> DmdpInstance:
    return read(path, check)[0]


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
