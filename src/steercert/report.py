"""Reports: each subcommand's schema, its check, and the bytes written.

render(key, report) checks a report against SCHEMAS[key] and returns its
text: a JSON document, or for the sweep's "csv" format plot-ready CSV
rows. It takes no command-line state, so any caller that holds a report
can write it. The text depends only on the report, never on wall time or
thread count.

A report holds JSON values and _direct arrays: float64 or complex128
ndarrays, each standing for its nested lists with every complex entry an
[re, im] pair. Each entry of SCHEMAS is compiled once into a plain-Python
check with jsonschema's Draft 2020-12 meanings, which judges a _direct
array from its dtype, ndim and length against the schema's chain of
items, without a walk over the entries. A report that fails the check,
or holds any other value, raises SchemaError naming the part at fault,
and nothing is written.

JSON is written by _dumps, whose bytes are exactly those of json.dumps
of the report's lists with sort_keys=True, separators=(",", ": "),
indent=2 and allow_nan=False: it calls the same string escaper and int
and float reprs. json.dumps with an indent runs the pure-Python encoder,
one generator step per bracket, comma and number. _dumps instead writes
a _direct array from the array itself, with no nested lists between: its
floats are formatted together and joined with separators that depend
only on its shape. From 12 floats up, their digits come from one
orjson.dumps of the array, save where orjson's notation is not
float.__repr__'s (see _REPR_LOW); orjson is imported only then. A plain
list is written one item at a time. The CSV writes each column of a
block of rows as one float64 array, the same way. A NaN or an infinity
in a report is a DomainError, and nothing is written.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib

import numpy as np

from .errors import DomainError

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_STR = {"type": "string"}
_REAL_VEC = {"type": "array", "items": _NUM}
_COMPLEX = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_COMPLEX_VEC = {"type": "array", "items": _COMPLEX}
_MATRIX = {"type": "array", "items": _COMPLEX_VEC}
_META = {"tool_version": _STR, "seed": _INT, "tolerance": _NUM}


def _object(properties: dict, optional=()) -> dict:
    """The schema of an object with these properties, each one required
    unless it is named in optional."""
    return {"type": "object", "required": [k for k in properties if k not in optional],
            "properties": properties}


SCHEMAS = {
    "bounds": _object({
        "d": _INT, "alpha": _REAL_VEC, "beta_q": _NUM, "beta_l_exact": _NUM,
        "beta_l_upper": _NUM, "gap": _NUM, "gamma": _NUM, "delta": _COMPLEX_VEC,
        "strategy": {"type": ["array", "null"], "items": _INT}, **_META,
    }, optional=["strategy"]),
    "certify": _object({
        "d": _INT, "alpha": _REAL_VEC, "value": _NUM, "value_gap": _NUM, "lhs_gap": _NUM,
        "alice_residual": {"type": "array", "items": {"type": ["number", "null"]},
                           "minItems": 2, "maxItems": 2},
        "stabilizer_residuals": _REAL_VEC, "s_residual": _NUM,
        "commutation_residual": {"type": ["number", "null"]},
        "projectivity": {"type": "array"}, "ztilde_min_eig": _NUM,
        "verdict": {"enum": ["certified", "failed"]},
        "failures": {"type": "array", "items": _STR}, **_META,
    }, optional=["commutation_residual"]),
    "povm-build": _object({
        "kind": {"enum": ["partial", "covariant"]}, "d": _INT, "n_outcomes": _INT,
        "elements": {"type": "array", "items": _MATRIX},
        "validation": {"type": "object"}, "extremality": {"type": "object"}, **_META,
    }),
    "povm-check": _object({
        "n_outcomes": _INT, "dim": _INT,
        "validation": {"type": "object"}, "extremality": {"type": "object"}, **_META,
    }),
    "randomness": _object({
        "d": _INT, "alpha": _REAL_VEC, "povm": _STR, "n_outcomes": _INT,
        "outcome_probs": _REAL_VEC, "guessing_probability": _NUM,
        "min_entropy_bits": _NUM, "uniform": {"type": "boolean"}, **_META,
    }),
    "bell3": _object({
        "value": _NUM, "threshold": _NUM, "gap": _NUM, "state_schmidt": _REAL_VEC,
        "iterations": _INT, "restarts": _INT, **_META,
    }),
    "sweep": _object({
        "d": _INT,
        "rows": {"type": "array", "items": _object({"theta": _NUM, "beta_l": _NUM, "gap": _NUM})},
        **_META,
    }),
}


class SchemaError(Exception):
    """A report that does not fit its schema, a fault of the program; path
    leads to the part at fault, as jsonschema's absolute_path does."""

    def __init__(self, key: str, path: tuple, reason: str):
        super().__init__(f"{key} report at /{'/'.join(map(str, path))}: {reason}")
        self.path, self.reason = path, reason


# Draft 2020-12 meanings, as jsonschema's type checker defines them: a bool
# is neither a number nor an integer, and an integral float is an integer.
# A _direct array is an array, as the lists it stands for are.
_TYPES = {
    "array": lambda v: isinstance(v, list) or isinstance(v, np.ndarray) and _direct(v),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: type(v) in (float, int)
    or (isinstance(v, (int, float)) and not isinstance(v, bool)),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
_SCALARS = (str, bool, int, float, type(None))


def _same(a, b) -> bool:
    """JSON equality of scalars: True is not 1, "1" is not 1, 1 is 1.0."""
    return (isinstance(a, bool) == isinstance(b, bool)
            and isinstance(a, str) == isinstance(b, str) and a == b)


def _or(first, then):
    """first(v) or then(v): of two type tests, a value of either type; of two
    checks, the first failure, or None."""
    return lambda v: first(v) or then(v)


_DIRECT = (np.dtype(np.float64), np.dtype(np.complex128))


def _direct(a: np.ndarray) -> bool:
    """Whether a is a float64 or complex128 array with at least one axis
    and no axis of length 0: the only arrays a report may hold, checked
    and written from their dtype and shape.
    """
    return a.dtype in _DIRECT and a.ndim > 0 and a.size > 0


def _array_levels(schema: dict) -> tuple[int, int | None] | None:
    """(levels, last) when schema accepts exactly the nonempty rectangular
    nests of floats `levels` lists deep whose innermost lists have length
    last (any length when last is None), given that the outer list fits
    minItems and maxItems; None for any other schema.

    Such a schema is an array, with no enum, whose items are a chain of
    plain arrays, each {"type": "array", "items": ...}, over _COMPLEX or
    over _NUM.
    """
    names = schema.get("type", "array")
    if "enum" in schema or "array" not in ([names] if isinstance(names, str) else names):
        return None
    items, levels = schema.get("items", {}), 1
    while items not in (_COMPLEX, _NUM):
        if items.keys() != {"type", "items"} or items["type"] != "array":
            return None
        items, levels = items["items"], levels + 1
    return (levels + 1, 2) if items == _COMPLEX else (levels, None)


_KEYWORDS = {"type", "enum", "required", "properties", "items", "minItems", "maxItems"}


def _compile(schema: dict):
    """A check against schema: None when a value fits, else (path, reason)
    of a part that does not, path as in SchemaError.

    Of JSON values, with a _direct array standing for its lists, it
    accepts what jsonschema accepts; any other value fails it, but dict
    keys are taken to be str, as jsonschema takes them. Only the
    keywords SCHEMAS uses are known. Any other keyword, or an enum member
    that is not a JSON scalar, raises ValueError here, so no part of a
    schema is skipped unnoticed. A _direct array is judged from its dtype,
    ndim and length when the schema is an item chain (_array_levels), else
    by its lists.
    """
    unknown = sorted(schema.keys() - _KEYWORDS)
    if unknown:
        raise ValueError(f"schema keywords {unknown} have no compiled check")
    names = schema.get("type", list(_TYPES))
    names = [names] if isinstance(names, str) else names
    fits = functools.reduce(_or, [_TYPES[n] for n in names])
    wanted = ", ".join(map(repr, names))
    checks = [lambda v: None if fits(v) else ((), f"{reprlib.repr(v)} is not of type {wanted}")]
    if "enum" in schema:
        members = list(schema["enum"])
        if not all(isinstance(e, _SCALARS) for e in members):
            raise ValueError(f"enum {members!r}: only JSON scalars have a compiled check")
        checks.append(lambda v: None if any(_same(v, e) for e in members)
                      else ((), f"{reprlib.repr(v)} is not one of {members!r}"))
    if "object" in names:
        required = frozenset(schema.get("required", ()))
        props = {k: _compile(s) for k, s in schema.get("properties", {}).items()}

        def fields(v):
            if not isinstance(v, dict):
                return None
            if not v.keys() >= required:
                return (), f"{min(required - v.keys())!r} is a required property"
            for k, x in v.items():
                failure = props.get(k, _ANYTHING)(x)
                if failure:
                    return (k, *failure[0]), failure[1]
            return None

        checks.append(fields)
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    if "array" in names:
        item = _compile(schema["items"]) if "items" in schema else lambda x: _ANYTHING(x)

        def items(v):
            if not isinstance(v, list):
                return None
            if not lo <= len(v) <= hi:
                return (), f"{reprlib.repr(v)} has {len(v)} items, not {lo} to {hi}"
            if any(map(item, v)):  # then find the first failure
                i, failure = next((i, f) for i, f in enumerate(map(item, v)) if f)
                return (i, *failure[0]), failure[1]
            return None

        checks.append(items)
    listed = functools.reduce(_or, checks)  # the first failure, or None
    if not schema.keys() & {"items", "minItems", "maxItems", "enum"}:
        return listed  # the type test judges an ndarray
    levels = _array_levels(schema) or (0, None)  # no array is 0 levels deep: its lists decide

    def check(v):
        if not isinstance(v, np.ndarray):
            return listed(v)
        if not _direct(v):
            return (), f"{reprlib.repr(v)} is not a float64 or complex128 array with entries"
        shape = v.shape + (2,) if v.dtype.kind == "c" else v.shape
        if len(shape) == levels[0] and levels[1] in (None, shape[-1]) and lo <= shape[0] <= hi:
            return None
        return listed(np.ascontiguousarray(v).view(np.float64).reshape(shape).tolist())

    return check


# The check of what a schema leaves free: any JSON value. _compile({}) needs
# it itself, so _compile looks it up only when it checks a value.
_ANYTHING = _compile({})


@functools.cache
def _check(key: str):
    """SCHEMAS[key] compiled once."""
    return _compile(SCHEMAS[key])


def _number(x) -> str:
    """A JSON number as the json module writes it; NaN and inf raise ValueError."""
    if isinstance(x, int):
        return int.__repr__(x)
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# orjson writes floats with the Ryu algorithm's shortest round-trip digits,
# as float.__repr__ does, but in its own notation for 1e-9 <= |x| < 1e-4
# ("0.00001" for 1e-05, "1e-9" for 1e-09) and for |x| >= 1e16 ("1e16" for
# 1e+16). Floats in the wider band [_REPR_LOW, _REPR_HIGH) or at or above
# _REPR_FROM keep float.__repr__; fewer than _ORJSON_MIN floats are all
# written by float.__repr__, which is faster for so few.
_REPR_LOW, _REPR_HIGH, _REPR_FROM = 1e-11, 1e-4, 1e15
_ORJSON_MIN = 12


def _float_reprs(level) -> list:
    """list(map(float.__repr__, level)) for a list or 1-D float64 array of
    floats. A NaN or an infinity raises ValueError, as in _number, naming
    the first; orjson would write it as null.
    """
    a = np.ascontiguousarray(level, dtype=np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        x = float(a[~finite][0])
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    if len(a) < _ORJSON_MIN:
        return list(map(float.__repr__, a.tolist()))
    import orjson  # only subcommands that write a long float grid need it

    strs = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    own = ((mag >= _REPR_LOW) & (mag < _REPR_HIGH)) | (mag >= _REPR_FROM)
    for i in np.flatnonzero(own).tolist():
        strs[i] = float.__repr__(a[i])
    return strs


def _array(a: np.ndarray, newline: str) -> str:
    """_dumps of the lists that a _direct array a stands for.

    The floats of a, with each complex entry as re then im, are formatted
    together by _float_reprs. The text between two leaves depends only on
    how many levels close there, so one list of separators, filled by a
    slice per level, is interleaved with the leaves and joined once.
    """
    shape = a.shape + (2,) if a.dtype.kind == "c" else a.shape
    strs = _float_reprs(np.ascontiguousarray(a).view(np.float64).reshape(-1))
    m, n = len(shape), len(strs)
    pad = [newline + "  " * k for k in range(m + 1)]
    # close[c] ends the c innermost levels; open_[c] starts c of them and the first leaf.
    close = ["".join(pad[m - 1 - j] + "]" for j in range(c)) for c in range(m + 1)]
    open_ = ["".join(pad[m - c + j] + "[" for j in range(c)) + pad[m] for c in range(m)]
    seps = [close[0] + "," + open_[0]] * n
    stride = 1
    for c in range(1, m):
        stride *= shape[m - c]
        seps[stride - 1::stride] = [close[c] + "," + open_[c]] * (n // stride)
    seps[-1] = close[m]
    text = [None] * (2 * n)
    text[0::2], text[1::2] = strs, seps
    return "[" + open_[m - 1] + "".join(text)


def _dumps(value, newline: str) -> str:
    """value as json.dumps(value, sort_keys=True, separators=(",", ": "),
    indent=2, allow_nan=False) writes it, byte for byte, with each _direct
    array written as the lists it stands for.

    Dict keys must be str. newline is a line break plus the indent of the
    line that value starts on. A NaN or an infinity raises ValueError, and
    a value that is not JSON, any other ndarray among them, raises
    TypeError, as in json.dumps.
    """
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return _number(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        fields = (json.encoder.encode_basestring_ascii(k) + ": " + _dumps(v, inner)
                  for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(fields) + newline + "}"
    if isinstance(value, np.ndarray) and _direct(value):
        return _array(value, newline)
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in value) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_CSV_BLOCK = 2**16


def render(key: str, report: dict, fmt: str = "json") -> str:
    """The text of report, checked against SCHEMAS[key]: JSON, or with fmt
    "csv" a sweep report's header and rows.

    A report that fails its schema raises SchemaError, and one that holds
    a NaN or an infinity raises DomainError; either way nothing is
    returned.
    """
    failure = _check(key)(report)
    if failure:
        raise SchemaError(key, *failure)
    try:
        if fmt != "csv":
            return _dumps(report, "\n") + "\n"
        rows = report["rows"]
        lines = [
            f"# steercert {report['tool_version']} seed={report['seed']} "
            f"tolerance={report['tolerance']!r}",
            "theta,beta_l,gap",
        ]
        # A block of rows at a time, so the reprs of only one block are held.
        for i in range(0, len(rows), _CSV_BLOCK):
            block = rows[i:i + _CSV_BLOCK]
            columns = [_float_reprs([row[k] for row in block]) for k in ("theta", "beta_l", "gap")]
            lines.append("\n".join(map(",".join, zip(*columns))))
        return "\n".join(lines) + "\n"
    except ValueError as e:  # a NaN or an infinity, in JSON or CSV
        raise DomainError(f"report is not strict JSON: {e}") from None
