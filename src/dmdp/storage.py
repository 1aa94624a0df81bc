"""Instance files, deterministic serialization, and the instance generator.

Files are JSON with a fixed key set (format_version 1).  Writing goes
through a small deterministic serializer that renders every float with 17
significant digits (enough to reproduce any double exactly on reload), so
identical instances always produce identical bytes — which is also what
makes content digests and golden-report comparisons meaningful.  A
float64 array is written with the bytes its nested lists would give.
Arrays of at least KERNEL_MIN_SIZE entries are written KERNEL_BLOCK
entries at a time, as rows of little-endian uint64 words, one per entry:
the text before it, from a table by the depth of the container it opens
(_opening_depths), then its token, spelled a word at a time (SWAR) from
its exact 17 digits for 1e-4 <= |x| < 1e16 (Dekker's error-free product
with an exact power of ten gives them); a block's text is its rows
without their NULs.  Zeros, entries outside that window and smaller
arrays take one _format_float call each.  An instance's canonical text is
one bytes value (_document_bytes): the header from dumps_json, then each
array's blocks, then the closing _END that the reader also checks.  save()
writes it as one chunk.  save(), digest() and read() each return the
sha256 of those bytes, which for a file save() wrote are the file's own.

Every file dmdp writes, instance files and search traces, goes through
write_file(), which rewrites a file in place through one descriptor,
written with os.write: it never truncates an existing file to zero first,
and cuts it only when the old file was longer.  On ext4 with
auto_da_alloc (the default), a truncation to zero makes close() start
writeback and wait for it.  Nothing is fsynced: after a crash before
writeback the old file is intact, and after a crash during writeback the
file can hold a mix of old and new pages, which read() reports by a
different digest.

read() returns an instance and its digest.  A file whose bytes are
exactly the canonical text of the instance it holds, as every file save()
writes is, has the sha256 of its bytes as digest, and its arrays are read
by the inverse of the writer, with the same depth table and block size:
the text before each entry must be the table's, and each token's row of
bytes is scanned as three little-endian uint64 words (SWAR) for its
digits and its point, decoded as +-N / 10**f with array operations, and
kept only where the kernel's digits of the double it gives spell that
token byte for byte (after at most one step to a neighbouring double).
The header must be the writer's too.  Any other file, and files with
fewer than KERNEL_MIN_SIZE array entries, are parsed whole by json.loads
and serialized again for the digest, with the same values, digest and
errors either way.  The parse rejects a repeated key, which json.loads
alone would read as its last value, and metadata nested more than
METADATA_MAX_DEPTH levels deep, so that dumps_json can write back every
instance it reads.  The writer rejects such metadata by the same rule,
so that save writes only files that read reads back.

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
import os
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DmdpError, DmdpInstance, validate

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
# The most keys and indices from metadata down to one of its entries.
# json.loads reads about 990 levels, but dumps_json recurses once per level
# and runs out of stack near 450 under the default recursion limit.
METADATA_MAX_DEPTH = 100

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
# the writer's fixed numpy cost ties with one dtoa call per entry between
# 128 and 256 entries.  At 256 it wins by 1.1-1.5x on entries below 1 in
# magnitude, which skip the point pass, and by 1.0-1.3x on entries up to 10,
# which run it (medians of 301 interleaved calls in each of three runs, which
# differ by the host's drift; x86_64, 2 vCPUs, numpy 2.4).  Files whose
# arrays hold fewer in all are parsed by json.loads (_canonical_instance),
# although the reader's crossover lies higher: it takes 1.9 ms against
# 1.3 ms for parse_instance and digest at 480 entries, 1.9 ms against
# 1.6 ms at 768, ties near 1,300 and takes 2.7 ms against 3.4 ms at 2,304
# (medians of 41 calls, same machine).
KERNEL_MIN_SIZE = 256
# Entries written or read at once, so that the temporaries stay the same
# size whatever the array's.  Blocks of 16,384 read the S=200 file in 48 ms
# against 56 ms for 4,096 and 49 ms for 32,768 (min of 12 interleaved runs,
# same machine).  Among io-large's ops, blocks of 8,192 read S=64 files 3%
# slower and write them 1% faster; only in a loop of writes alone, where a
# block's rows stay in the 2 MB L2 cache, is the writer 20% faster at 8,192.
KERNEL_BLOCK = 1 << 14

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 bits."""
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a * 10**p exactly (Dekker's two-product)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _kernel_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each double in x lies inside the window, 1e-4 <= |x| < 1e16,
    and E and the int64 digits D of |x| there (of 1.0 elsewhere): |x|
    prints under "%.17g" as the 17 digits of D with the point after digit
    E + 1."""
    a = np.abs(x)
    inside = (a >= _WINDOW[0]) & (a < _WINDOW[1])
    a[~inside] = 1.0
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
    return inside, e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


# Text is written and read as little-endian uint64 words, eight bytes at a
# time (SWAR: SIMD within a register), with byte-wise sums that never carry
# into the next byte.
def _each_byte(b: int) -> np.uint64:
    return np.uint64(b * 0x0101010101010101)


_DIGIT_BASE, _LOW7, _HIGH = _each_byte(ord("0")), _each_byte(0x7F), _each_byte(0x80)

# A token inside the window is written into a row of three words, with
# NULs before and after it: a head word, then digits 2..9 and digits 10..17
# of D.  The head ends in the lead digit, after the sign and, when E < 0,
# "0." and -E - 1 zeros (_HEAD, indexed by negative * 20 + E + 4).  When
# E >= 0 the point goes before byte 8 + E, and the bytes before it move one
# to the left to make room: one pass over the block, which runs only where
# the block holds an entry inside the window with E >= 0.  Instance arrays,
# whose probabilities and rewards lie below 1 in magnitude, skip it.
_EXPONENTS = range(-4, 16)
_PREFIXES = ["-" * negative + ("0." + "0" * (-e - 1) if e < 0 else "")
             for negative in (0, 1) for e in _EXPONENTS]
_HEAD = np.frombuffer("".join(p.rjust(7, "\0") + "\0" for p in _PREFIXES).encode(), "<u8")


def _token_masks(e: int) -> bytes:
    """For a value with exponent e, three masks over its 24-byte token row:
    the bytes at or after the point, the bytes that end up before it, and
    the point; then one over its last 16 bytes, the digits: those up to the
    first after the point, which stays even where it is a zero."""
    if e < 0:  # the point is the head's
        return b"\xff" * 24 + bytes(64)
    p = 8 + e
    return (bytes(p) + b"\xff" * (24 - p) + b"\xff" * (p - 1) + bytes(25 - p)
            + bytes(p - 1) + b"." + bytes(24 - p) + b"\xff" * (p - 7) + bytes(23 - p))


_MASKS = np.frombuffer(b"".join(map(_token_masks, _EXPONENTS)), "<u8").reshape(-1, 11)
_AFTER, _BEFORE, _POINT, _FRACTION = (m.copy() for m in np.split(_MASKS, [3, 6, 9], axis=1))


def _token_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The token rows of the entries of the 1-D float64 array x that lie
    inside the window, shape (len(x), 3), and where x lies inside it."""
    inside, e, d = _kernel_digits(x)
    row = e - _EXPONENTS[0]
    lead, d = np.divmod(d.view(np.uint64), 10**16)
    # Digits 2..9 and 10..17, one byte each, most significant first: each
    # number is split into two of four digits, then two, then one, the
    # low half going to the high half of its lane.  (v * 5243) >> 19 is
    # v // 100 for v < 10**4, and (v * 103) >> 10 is v // 10 for v < 100.
    v = np.stack(np.divmod(d, 10**8), axis=1)
    q = v // 10**4
    v = q | (v - q * 10**4) << 32
    q = (v * 5243 >> 19) & 0x0000007F0000007F
    v = q | (v - q * 100) << 16
    q = (v * 103 >> 10) & 0x000F000F000F000F
    v = q | (v - q * 10) << 8
    # Trailing zeros become NULs: every byte after the last nonzero digit
    # goes, unless it is the first digit after the point.
    keep = (v + _LOW7) & _HIGH
    for shift in (8, 16, 32):
        keep |= keep >> shift
    keep = (keep >> 7) * 0xFF
    keep[:, 0][v[:, 1] != 0] = _M64
    keep |= np.take(_FRACTION, row, axis=0)
    v += _DIGIT_BASE
    v &= keep
    token = np.empty((len(x), 3), np.uint64)
    token[:, 0] = np.take(_HEAD, (x < 0) * len(_EXPONENTS) + row) | (lead + ord("0")) << 56
    token[:, 1] = v[:, 0]
    token[:, 2] = v[:, 1]
    # Entries outside the window have E = 0 but take _format_float's token
    # in place of their row, and the pass leaves rows with E < 0 as they are.
    if (inside & (e >= 0)).any():
        # Every word's bytes one to the left and the next word's first byte
        # last; a row's last word takes the next row's, which no mask keeps.
        flat = token.ravel()
        moved = flat >> 8
        moved[:-1] |= flat[1:] << 56
        moved &= np.take(_BEFORE, row, axis=0).ravel()
        flat &= np.take(_AFTER, row, axis=0).ravel()
        flat |= moved
        flat |= np.take(_POINT, row, axis=0).ravel()
    return token, inside


def _template(shape: tuple[int, ...], pad: str) -> str:
    """The text of an array of this shape indented by pad, %s for each entry."""
    if not shape:
        return "%s"
    return _wrap([_template(shape[1:], pad + "  ")] * shape[0], pad, "[]")


def _separators(ndim: int, pad: str) -> tuple[list[str], str]:
    """The texts between the entries of an array with ndim dimensions,
    whose container lines are indented by pad: texts[d] precedes an entry
    that is the first of a container at depth d and of none shallower
    (texts[ndim]: of none, texts[0]: the first entry), and the second
    value closes the array.  Entry 1 of an array whose shape is all 1s but
    a 2 on axis d - 1 is the first such entry for depth d."""
    pieces = [_template((1,) * (d - 1) + (2,) + (1,) * (ndim - d), pad).split("%s")
              for d in range(1, ndim + 1)]
    return [pieces[0][0]] + [p[1] for p in pieces], pieces[0][-1]


def _opening_depths(shape: tuple[int, ...]) -> np.ndarray:
    """For each entry of an array of this shape, in C order, the index into
    _separators' texts of the text before it: ndim less the number of its
    trailing zero indices, so 0 for the first entry and d for the first
    entry of a container at depth d and of none shallower."""
    depths = np.full(shape, len(shape), np.uint8)
    for zeros in range(1, len(shape) + 1):
        depths[(...,) + (0,) * zeros] -= 1
    return depths.ravel()


def _array_chunks(value: np.ndarray, pad: str):
    """The bytes of the text of a float64 array with at least one dimension
    and entry, whose container lines are indented by pad: those of
    value.tolist(), one block of entries at a time.  Each entry has a row
    of words: the text before it, right-aligned, then its token; the
    block's text is the rows without their NULs."""
    if value.size < KERNEL_MIN_SIZE:
        tokens = tuple([_format_float(v) for v in value.ravel().tolist()])
        yield (_template(value.shape, pad) % tokens).encode()
        return
    between, closing = _separators(value.ndim, pad)
    width = 8 * -(-max(map(len, between)) // 8)
    separators = "".join(text.rjust(width, "\0") for text in between)
    separators = np.frombuffer(separators.encode(), f"V{width}")
    depths = _opening_depths(value.shape)
    flat = value.ravel()
    rows = np.empty(min(len(flat), KERNEL_BLOCK), [("text", f"V{width}"), ("token", "<u8", 3)])
    for start in range(0, len(flat), KERNEL_BLOCK):
        x = flat[start : start + KERNEL_BLOCK]
        block = rows[: len(x)]
        block["text"] = np.take(separators, depths[start : start + KERNEL_BLOCK])
        token, inside = _token_rows(x)
        block["token"] = token
        outside = np.flatnonzero(~inside)
        if len(outside):
            # Zeros and entries outside the window take _format_float, in
            # order, so the first non-finite entry raises.  No token is
            # longer than a row's three words ("-1.7976931348623157e+308").
            tokens = "".join([_format_float(v).ljust(24, "\0") for v in x[outside].tolist()])
            block["token"][outside] = np.frombuffer(tokens.encode(), "<u8").reshape(-1, 3)
        data = block.view(np.uint8)
        yield data[data != 0].tobytes()
    yield closing.encode()


def _ints(items) -> bool:
    """Whether every item is an int (a bool is not)."""
    return set(map(type, items)) <= {int}


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
        return b"".join(_array_chunks(value, pad)).decode("ascii")
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        # Lists of ints, and lists of them such as a policy's rules, skip
        # the dispatch.
        if _ints(value):
            items = list(map(str, value))
        elif all(type(row) in (list, tuple) and _ints(row) for row in value):
            items = [_wrap(list(map(str, row)), inner, "[]") for row in value]
        else:
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
    try:
        return _text(value, "")
    except RecursionError:
        raise ValueError("value is nested too deeply to serialize") from None


# ---------------------------------------------------------------------------
# Instance files


def instance_document(instance: DmdpInstance) -> dict:
    """The canonical JSON document for an instance, in key order, less its
    two arrays, which follow it as "transition" and "reward"."""
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
        _check_metadata(instance.metadata)
        doc["metadata"] = instance.metadata
    return doc


# The canonical text is the header, _TRANSITION, its array, _REWARD, its
# array and _END.
_TRANSITION = b',\n  "transition": '
_REWARD = b',\n  "reward": '
_END = b"\n}\n"


def _header_bytes(instance: DmdpInstance) -> bytes:
    """dumps_json of the instance document, less its closing "\n}"."""
    return dumps_json(instance_document(instance))[:-2].encode()


def _document_bytes(instance: DmdpInstance) -> bytes:
    """The bytes of the canonical text.  The text is ASCII, as json.dumps
    escapes everything else."""
    parts = [_header_bytes(instance), _TRANSITION, *_array_chunks(instance.transition, "  ")]
    parts += [_REWARD, *_array_chunks(instance.reward, "  "), _END]
    return b"".join(parts)


def dumps_instance(instance: DmdpInstance) -> str:
    return _document_bytes(instance).decode("ascii")


def digest(instance: DmdpInstance) -> str:
    """sha256 hex digest of the canonical serialization."""
    return hashlib.sha256(_document_bytes(instance)).hexdigest()


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


def _check_metadata(metadata: dict) -> None:
    """Raise InstanceFormatError, naming its key path, at the first entry
    of metadata in document order that no canonical file holds: an object
    with a repeated key, a float that is not finite (json.loads reads NaN,
    Infinity and 1e999), or an entry nested more than METADATA_MAX_DEPTH
    levels deep.  The reader and the writer share this rule, so that save
    writes only what read reads back."""
    for path, entry in _entries(metadata):
        if isinstance(entry, _RepeatedKey):
            raise InstanceFormatError(
                f"key 'metadata' entry {path + [entry.key]} is a repeated key"
            )
        if len(path) > METADATA_MAX_DEPTH:
            raise InstanceFormatError(
                f"key 'metadata' entry {path} is nested more than "
                f"{METADATA_MAX_DEPTH} levels deep"
            )
        if isinstance(entry, float) and not math.isfinite(entry):
            raise InstanceFormatError(
                f"key 'metadata' entry {path} must be a finite number, got {entry!r}"
            )


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
    if isinstance(doc, _RepeatedKey):
        raise InstanceFormatError(f"repeated key {doc.key!r}")
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
    _check_metadata(metadata)
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
        validate(instance).require("instance file failed validation")
    return instance


class _RepeatedKey(dict):
    """An object json.loads read with a repeated key, the first of which is
    .key; it holds the last value of each key, as json.loads alone would."""

    def __init__(self, pairs: list[tuple[str, Any]], key: str):
        super().__init__(pairs)
        self.key = key


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The object json.loads read as pairs, as a _RepeatedKey if it repeats
    a key, which the walk over the document then rejects with its path."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                return _RepeatedKey(pairs, key)
            seen.add(key)
    return doc


def parse_instance(text: str, check: bool = True) -> DmdpInstance:
    """Parse instance JSON; with check=True the result must validate
    under its declared sign_mode or InstanceValidationError is raised."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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
# entries is the writer's separator text, and every entry's token is the
# one _format_float prints for the double the reader returns.  17
# significant digits round-trip, so json.loads would have read that same
# double.  Any other file goes to parse_instance.

_POW10_INT = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18

_ROW = 24  # bytes a token is scanned in: "-0.000", 17 digits and one more
_POINT_BYTE = _each_byte(ord(".") ^ ord("0"))
_ABOVE_9 = _each_byte(0x80 - 10)
# _KEEP[k]: 0xFF in the last k bytes of a row, the ones a k-byte token
# right-aligned in it covers.
_KEEP = np.frombuffer(
    b"".join(bytes(_ROW - k) + b"\xff" * k for k in range(_ROW + 1)), "<u8"
).reshape(_ROW + 1, 3)


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
    inside, e, d = _kernel_digits(x)
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
    rows[i], the _ROW bytes that end at ends[i] as one void item; None if
    one is not."""
    length = ends - starts
    # Decode each token, right-aligned in its row, as x = +-N / 10**f: its
    # digits make one integer with a 0 in place of the point, and N is
    # that integer without the 0.  rows is a fresh gather, so it is
    # overwritten: digits become the bytes 0..9, the point 0x1E, and the
    # bytes before the token 0, a leading zero digit.
    w = rows.view("<u8").reshape(-1, 3)
    w ^= _DIGIT_BASE
    w &= np.take(_KEEP, length, axis=0, mode="clip")
    # 0x80 in every byte above 9: its low seven bits plus 0x76 reach 0x80,
    # or its own top bit is set.  And 0x80 in every byte that is the
    # point, which the xor with 0x1E makes the only zero bytes.
    other = w & _LOW7
    other += _ABOVE_9
    other |= w
    other &= _HIGH
    point = w ^ _POINT_BYTE
    point |= (point & _LOW7) + _LOW7
    point = ~point & _HIGH
    others = np.bitwise_count(other)
    points = np.bitwise_count(point)
    negative = np.frombuffer(data, np.uint8)[starts] == ord("-")
    plausible = (points[:, 0] + points[:, 1] + points[:, 2] == 1) & (length < _ROW)
    plausible &= others[:, 0] + others[:, 1] + others[:, 2] == 1 + negative
    # A lone point at column c is bit 8c + 7 of the row read as one
    # 192-bit number, whose frexp exponent is 8c + 8.
    weights = point.astype(np.float64)
    row = weights[:, 0] + weights[:, 1] * 2.0**64 + weights[:, 2] * 2.0**128
    fraction = _ROW - 1 - ((np.frexp(row)[1] - 8) >> 3)
    other >>= 7
    other *= 0xFF
    w &= ~other
    words = _eight_digits(w.view("<i8"))
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
    depths = _opening_depths(shape)
    # Every text before an entry ends in a newline and indentation, so the
    # newline that ends an entry's line is the next one after those before
    # the array and those in the texts up to the entry's own.
    newlines_before = np.array([text.count("\n") for text in between])
    newlines_before[0] += np.searchsorted(newlines, start)
    line = np.cumsum(np.take(newlines_before, depths))
    if line[-1] >= len(newlines):
        return None
    ends = newlines[line]
    # A comma follows an entry exactly when the next entry's depth is ndim.
    follows = depths[1:]
    ends[:-1] -= follows == ndim
    starts = newlines[line - 1] + len(between[ndim]) - 1
    if (ends <= starts).any():
        return None
    # The texts between entries, one kind of text at a time.
    buf = np.frombuffer(data, np.uint8)
    for depth in range(1, ndim + 1):
        text = np.frombuffer(between[depth].encode(), np.uint8)
        gaps = ends[:-1][follows == depth]
        if (starts[1:][follows == depth] - gaps != len(text)).any():
            return None
        if (sliding_window_view(buf, len(text))[gaps] != text).any():
            return None
    end = int(ends[-1]) + len(closing)
    if data[start : starts[0]] != between[0].encode() or data[ends[-1] : end] != closing.encode():
        return None
    values = np.empty(len(starts))
    # Every _ROW bytes of data as one void item, so that a token's row is
    # gathered as one copy.
    rows = np.ndarray((len(data) - _ROW + 1,), np.dtype((np.void, _ROW)), data, strides=(1,))
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
    if _header_bytes(instance) != data[:split]:
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


# The flags and mode open(path, "wb") passes, less O_TRUNC.
_WRITE_FLAGS = (
    os.O_WRONLY | os.O_CREAT | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0)
)


def write_file(path, chunks) -> None:
    """Write the byte chunks to path, creating it or rewriting it in place
    (see the module docstring): an existing file is cut to the written
    length only when it was longer.  FIFOs and character devices such as
    os.devnull report size 0, so they are never truncated."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        written = 0
        for chunk in chunks:
            view = memoryview(chunk)
            written += view.nbytes
            while view:
                view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > written:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def save(instance: DmdpInstance, path) -> str:
    """Write the canonical file with write_file and return the sha256 of
    the bytes written, which is digest(instance)."""
    # Serialize before opening, so that a value the writer rejects leaves
    # an existing file as it was and creates no new one.
    document = _document_bytes(instance)
    write_file(path, (document,))
    return hashlib.sha256(document).hexdigest()


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
