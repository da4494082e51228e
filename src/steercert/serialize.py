"""JSON encoding of realizations and POVMs.

A complex array is written as nested lists whose innermost level is an
[re, im] pair, so files stay language-neutral and diffable. One function
pair knows that format: array_to_json writes it, and array_from_json
reads it. Every array of numbers, complex or real, is read by one strict
walk of the parsed value (_numbers): each level must be JSON arrays of
one length, and each leaf a JSON number; a boolean, null, text or an
object is refused, never read as 0.0 or 1.0. The command line's file
reader parses a rectangular array of floats of two or more levels
straight into a float64 ndarray, which stands for the JSON lists it was
read from (its tolist() gives them back exactly); _numbers takes such an
array of its depth as already read, and every other reader here treats
it as those lists. The loaders then rebuild the validated dataclasses,
re-running their invariant checks. The loaders take parsed JSON values,
not text. A malformed value raises
DomainError (or the error of the dataclass it fails to build), never a
bare Python exception.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import DomainError
from .linalg import Ket
from .measurements import GeneralizedObservable, Povm
from .states import Realization


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
