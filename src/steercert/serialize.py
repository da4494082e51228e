"""JSON input: the bytes of files and flags, and the arrays they encode.

A complex array is written as nested lists whose innermost level is an
[re, im] pair, so files stay language-neutral and diffable. One function
pair knows that format: array_to_json writes it, and array_from_json
reads it. Every array of numbers, complex or real, is read by one strict
walk of the parsed value (_numbers): each level must be JSON arrays of
one length, and each leaf a JSON number; a boolean, null, text or an
object is refused, never read as 0.0 or 1.0. The loaders then rebuild the
validated dataclasses, re-running their invariant checks. A malformed
value raises DomainError (or the error of the dataclass it fails to
build), never a bare Python exception.

Every JSON input of the command line, a realization or POVM file or the
--alpha and --fiducial flags, is parsed by orjson, imported only when one
is read. Input must be strict JSON: a NaN or Infinity literal is
malformed, and so is nesting deeper than _MAX_DEPTH, which is refused
before orjson sees it (_json_scan); either raises UsageError. A file is
read by _load_json_file, which parses each rectangular array of floats
of two or more levels flat, with no nested lists, once its bracket
skeleton matches its shape's, straight into a float64 ndarray. Such an
array stands for the JSON lists it was read from (its tolist() gives them
back exactly); _numbers takes such an array of its depth as already read,
and every other reader here treats it as those lists.
"""

from __future__ import annotations

import contextlib
import gc
import math
import re
from itertools import chain

import numpy as np

from .errors import DomainError, UsageError
from .linalg import Ket
from .measurements import GeneralizedObservable, Povm
from .states import Realization, SchmidtVector


def array_to_json(a) -> list:
    """Nested lists of [re, im] pairs, one nesting level per axis of a."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def _lists(value):
    """The JSON value a file reader's float64 ndarray stands for: its lists."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _numbers(data, depth: int, what: str) -> np.ndarray:
    """The float64 array of `depth` levels of nested JSON arrays of numbers.

    Each level must be lists all of one length, and each leaf a finite int
    or float; Python's bool is an int, but true is not a number. A
    C-contiguous float64 ndarray with `depth` axes has been read already
    and only its entries are checked; any other is walked as its lists.
    """
    if (type(data) is np.ndarray and data.dtype == np.float64 and data.ndim == depth
            and data.flags.c_contiguous):
        if np.all(np.isfinite(data)):
            return data
        raise DomainError(f"{what}: non-finite entries")
    level, shape = [_lists(data)], []
    for k in range(depth):
        if k:
            level = list(chain.from_iterable(level))
        if set(map(type, level)) - {list} or len(set(map(len, level))) > 1:
            raise DomainError(f"{what}: not a rectangular JSON array of depth {depth}")
        shape.append(len(level[0]) if level else 0)
    # level holds the innermost lists; the leaves are read from them twice
    # rather than gathered into one more list.
    if set(map(type, chain.from_iterable(level))) - {float, int}:
        raise DomainError(f"{what}: an entry is not a JSON number")
    try:
        leaves = chain.from_iterable(level)
        a = np.fromiter(leaves, np.float64, count=math.prod(shape)).reshape(shape)
        if np.all(np.isfinite(a)):
            return a
    except OverflowError:  # a Python int beyond the largest double
        pass
    raise DomainError(f"{what}: non-finite entries")


def real_vector_from_json(data, what: str = "array") -> np.ndarray:
    """The float64 vector of a JSON array of numbers, read by _numbers."""
    return _numbers(data, 1, what)


def array_from_json(data, ndim: int, what: str = "array") -> np.ndarray:
    """The complex128 array with `ndim` axes written by array_to_json.

    _numbers reads the [re, im] pairs, viewed as complex, so every entry is
    bit-exact; any other shape raises DomainError naming `what`.
    """
    a = _numbers(data, ndim + 1, what)
    if a.shape[-1] != 2:
        raise DomainError(f"{what}: expected {ndim} axes of [re, im] pairs, got shape {a.shape}")
    return a.view(np.complex128)[..., 0]


def matrix_from_json(data) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs."""
    return array_from_json(data, 2, "matrix")


def _field(obj, key: str):
    if not isinstance(obj, dict):
        raise DomainError(
            f"expected a JSON object with key {key!r}, got {type(_lists(obj)).__name__}"
        )
    if key not in obj:
        raise DomainError(f"missing key {key!r}")
    return obj[key]


def povm_from_json(data) -> Povm:
    """A POVM file: the list of elements, bare or as {"elements": [...]}."""
    if isinstance(data, dict):
        data = _field(data, "elements")
    return Povm(array_from_json(data, 3, "POVM elements"))


def realization_to_json(r: Realization) -> dict:
    return {
        "state": {
            "amplitudes": array_to_json(r.state.amplitudes),
            "factor_dims": [int(d) for d in r.state.factor_dims],
        },
        "alice_observables": array_to_json(r.alice_observables),
        "bob_observables": [
            {"operators": array_to_json(g.operators)} for g in r.bob_observables
        ],
    }


def realization_from_json(data) -> Realization:
    """A realization file, as realization_to_json writes it."""
    state = _field(data, "state")
    amplitudes = array_from_json(_field(state, "amplitudes"), 1, "state.amplitudes")
    dims = _lists(_field(state, "factor_dims"))
    if not (isinstance(dims, list) and all(type(n) is int for n in dims)):
        raise DomainError(f"state.factor_dims: expected a list of integers, got {dims!r}")
    alice = array_from_json(_field(data, "alice_observables"), 3, "alice_observables")
    bob = _lists(_field(data, "bob_observables"))
    if not isinstance(bob, list):
        raise DomainError("bob_observables: expected a list of objects")
    return Realization(
        state=Ket(amplitudes, tuple(dims)),
        alice_observables=list(alice),
        bob_observables=[
            GeneralizedObservable(array_from_json(
                _field(g, "operators"), 3, f"bob_observables[{i}].operators"
            ))
            for i, g in enumerate(bob)
        ],
    )


# A realization file nests 7 deep. orjson 3.8 overflows the C stack on
# deep nesting instead of raising, so deeper files never reach it.
_MAX_DEPTH = 64
_ESCAPE = re.compile(rb"\\.", re.DOTALL)
# The scan keeps quotes and brackets, each brace as a bracket.
_NOT_SCANNED = bytes(b for b in range(256) if b not in b'"[]{}')
_SCAN_MAP = bytes.maketrans(b"{}", b"[]")
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[ord("[")], _DEPTH_STEP[ord("]")] = 1, -1


def _json_scan(raw: bytes) -> int:
    """The deepest nesting of brackets outside the JSON strings of raw.

    Escape pairs go first, so every remaining quote opens or closes a
    string; nothing backtracks, so the time is linear in len(raw) whatever
    the bytes are. Up to the first byte where a JSON parser stops, the
    strings found here are the parser's, so on malformed input the depth
    is never below the depth the parser reaches.
    """
    if b"\\" in raw:
        raw = _ESCAPE.sub(b"", raw)
    # Quotes alternate opening and closing, so the even pieces lie outside strings.
    outside = b"".join(raw.translate(_SCAN_MAP, _NOT_SCANNED).split(b'"')[::2])
    if outside.count(b"[") > _MAX_DEPTH:
        step = _DEPTH_STEP[np.frombuffer(outside, dtype=np.uint8)]
        return int(np.cumsum(step, dtype=np.int64).max(initial=0))
    # So few openers are walked in Python, and a flag never reaches numpy.
    # Every run after the first follows an opener.
    runs = outside.split(b"[")
    depth, deepest = -len(runs[0]), 0
    for closers in runs[1:]:
        deepest = max(deepest, depth + 1)
        depth += 1 - len(closers)
    return deepest


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector; its prior state comes back on exit.

    A JSON parse tree has no cycles, and rescanning it while it is built,
    walked and freed is waste. Each file reader keeps the collector paused
    from the parse until its arrays are built and the tree is released.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(raw: bytes, what: str):
    """The value of strict JSON bytes nested at most _MAX_DEPTH deep."""
    import orjson  # only the subcommands that read JSON need it

    if _json_scan(raw) > _MAX_DEPTH:
        raise UsageError(f"{what}: malformed JSON (nested deeper than {_MAX_DEPTH})")
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError as e:
        raise UsageError(f"{what}: malformed JSON ({e.msg})") from e


_SPACES = re.compile(rb"[ \t\n\r]*")
_NOT_DOT = b"0123456789+-eE \t\n\r"
_BLANK = bytes.maketrans(b"[]", b"  ")
# A realization file has about 8 keys. An array read flat costs about 13 us
# of Python, where orjson's tree of a small array costs under 1 us, so a
# file of many more keys, such as one of many small arrays, goes to orjson
# whole.
_MAX_FLAT_KEYS = 64


def _flat_shape(body: bytes) -> tuple | None:
    """The shape of body, a rectangular array of floats, if it can be read flat.

    Less digits, signs, exponents and white space, body must be the skeleton
    of a shape with 2 to _MAX_DEPTH axes, none of length 0, read from the
    first element at each level: brackets, commas and a point per number."""
    skeleton = body.translate(None, _NOT_DOT)
    depth = len(skeleton) - len(skeleton.lstrip(b"["))
    if not 2 <= depth <= _MAX_DEPTH:
        return None
    # The first array m levels above the leaves ends at the first run of m
    # closers; n items of skeleton length w take n * (w + 1) + 1 bytes.
    shape, canonical, end = [], b".", 0
    for closers in range(1, depth + 1):
        end = skeleton.find(b"]" * closers, end)
        n, rest = divmod(end + 2 * closers - depth - 1, len(canonical) + 1)
        if end < 0 or rest or n < 1:
            return None
        shape.append(n)
        canonical = b"[" + b",".join([canonical] * n) + b"]"
    return tuple(reversed(shape)) if skeleton == canonical else None


def _put(value, arrays: list):
    """value with each marker in it, NUL and a number, replaced by the array
    it numbers; any other string stays."""
    if type(value) is str:
        return arrays[int(value[1:])] if value[:1] == "\0" else value
    if type(value) in (dict, list):
        for key, item in (value.items() if type(value) is dict else enumerate(value)):
            value[key] = _put(item, arrays)
    return value


def _load_json_file(path: str):
    """The value of a strict JSON file: each array _flat_shape takes becomes a
    float64 ndarray, read flat, and orjson parses the rest with a marker in
    each array's place: the string of NUL and the array's number. No string
    of a file read so starts with NUL, which takes an escape and so a
    backslash. A file with a backslash, more than _MAX_FLAT_KEYS colons or
    no array taken, or whose rest orjson refuses, is read by _load_json."""
    import orjson

    with open(path, "rb") as fh:
        raw = fh.read()
    spans = []  # candidates: the file's value, or one after a colon, up to
    # the next quote, brace or colon. One inside a string leaves the marker
    # text malformed, and orjson refuses it.
    colon = -1 if b"\\" not in raw else len(raw)
    for _ in range(_MAX_FLAT_KEYS + 1):
        if colon == len(raw):
            break
        start = _SPACES.match(raw, colon + 1).end()
        colon = raw.find(b":", start)
        stop = colon = len(raw) if colon < 0 else colon
        for mark in b'"{}':
            at = raw.find(mark, start, stop)
            stop = stop if at < 0 else at
        end = raw.rfind(b"]", start, stop) + 1
        if end > start and raw[start] == ord("["):
            spans.append((start, end))
    else:  # more than _MAX_FLAT_KEYS colons
        return _load_json(raw, path)
    found = [(shape, a, b) for a, b in spans if (shape := _flat_shape(raw[a:b])) is not None]
    if not found:
        return _load_json(raw, path)

    def document(fills) -> bytes:
        ends = [0] + [end for *_, end in found]
        parts = (raw[last:start] + fill for last, (_, start, _), fill in zip(ends, found, fills))
        return b"".join(parts) + raw[ends[-1]:]

    if _json_scan(document(b"[" * len(s) + b"]" * len(s) for s, *_ in found)) > _MAX_DEPTH:
        return _load_json(raw, path)
    try:
        value = orjson.loads(document(b'"\\u0000%d"' % n for n in range(len(found))))
        # Blanked brackets leave a flat JSON array, one number at each point
        # (a digit out of place makes two), read as in place: the walk's bits.
        arrays = []
        for shape, start, end in found:
            numbers = orjson.loads(b"[" + raw[start:end].translate(_BLANK) + b"]")
            arrays.append(np.fromiter(numbers, np.float64, count=len(numbers)).reshape(shape))
        return _put(value, arrays)
    except ValueError:  # orjson's JSONDecodeError among them
        return _load_json(raw, path)


def load_povm_file(path: str) -> Povm:
    """The POVM of a file; the collector stays paused until its tree is freed."""
    with _gc_paused():
        return povm_from_json(_load_json_file(path))


def load_realization_file(path: str, sv: SchmidtVector | None):
    """The realization of a file and its Schmidt vector: sv when given,
    else the file's 'alpha' key, else None."""
    with _gc_paused():
        data = _load_json_file(path)
        r = realization_from_json(data)
        if sv is None and "alpha" in data:
            sv = SchmidtVector(real_vector_from_json(data["alpha"], f"{path}: alpha"))
        del data
    return r, sv


def load_flag(text: str, flag: str):
    """A flag's JSON value; a lone surrogate (an undecodable argv byte) is malformed."""
    return _load_json(text.encode("utf-8", "surrogatepass"), flag)


def fiducial_from_flag(text: str, flag: str) -> np.ndarray:
    """A fiducial written as real numbers or as [re, im] pairs."""
    data = load_flag(text, flag)
    if isinstance(data, list) and data and type(data[0]) is list:
        return array_from_json(data, 1, flag)
    return real_vector_from_json(data, flag)
