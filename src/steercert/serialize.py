"""JSON encoding of realizations and POVMs.

A complex array is written as nested lists whose innermost level is an
[re, im] pair, so files stay language-neutral and diffable. One function
pair knows that format: array_to_json writes it, and array_from_json
reads it with one shape and finiteness check for the whole array. The
loaders then rebuild the validated dataclasses, re-running their
invariant checks. The loaders take parsed JSON values, not text. The
command line parses files with orjson, which refuses NaN and Infinity
literals and numbers that overflow a double; the finiteness check still
guards values built in Python. A malformed value raises DomainError (or
the error of the dataclass it fails to build), never a bare Python
exception.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .linalg import Ket
from .measurements import GeneralizedObservable, Povm
from .states import Realization


def array_to_json(a) -> list:
    """Nested lists of [re, im] pairs, one nesting level per axis of a."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def array_from_json(data, ndim: int, what: str = "array") -> np.ndarray:
    """The complex128 array with `ndim` axes written by array_to_json.

    The float pairs are read into one numeric array, cast to float64 and
    viewed as complex, so every entry is bit-exact. Ragged or non-numeric
    data (text, null, objects, or an array of booleans only), a shape other
    than (..., 2) with ndim leading axes, and non-finite entries raise
    DomainError naming `what`. A boolean mixed in among numbers is still
    upcast by numpy, to 0.0 or 1.0.
    """
    try:
        a = np.asarray(data)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what}: not a rectangular array of [re, im] numbers") from None
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{what}: not an array of [re, im] numbers")
    a = a.astype(np.float64, copy=False)
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise DomainError(
            f"{what}: expected {ndim} axes of [re, im] pairs, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what}: non-finite entries")
    return a.view(np.complex128)[..., 0]


def matrix_from_json(data) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs."""
    return array_from_json(data, 2, "matrix")


def _field(obj, key: str):
    if not isinstance(obj, dict):
        raise DomainError(
            f"expected a JSON object with key {key!r}, got {type(obj).__name__}"
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
    state = _field(data, "state")
    amplitudes = array_from_json(_field(state, "amplitudes"), 1, "state.amplitudes")
    dims = _field(state, "factor_dims")
    if not (isinstance(dims, list) and all(type(n) is int for n in dims)):
        raise DomainError(f"state.factor_dims: expected a list of integers, got {dims!r}")
    alice = array_from_json(_field(data, "alice_observables"), 3, "alice_observables")
    bob = _field(data, "bob_observables")
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
