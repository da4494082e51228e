"""Reports: each subcommand's schema, its check, and the bytes written.

render(key, report) checks a report against SCHEMAS[key] and returns its
text: a JSON document, or for the sweep's "csv" format plot-ready CSV
rows. It takes no command-line state, so any caller that holds a report
can write it. The text depends only on the report, never on wall time or
thread count.

A report may hold numpy arrays as they are; an ndarray stands for the
JSON lists _plain makes of it, with each complex entry an [re, im] pair.
Each entry of SCHEMAS is compiled once into a plain-Python predicate with
jsonschema's Draft 2020-12 meanings. It judges a float64 or complex128
array from its dtype, ndim and length against the schema's chain of
items, without a walk over the entries, and any other array by walking
_plain of it. Only a report the predicate rejects goes to jsonschema, as
_plain(report), whose best_match error is raised, and then nothing is
written. jsonschema is imported only then, so the command line starts
without it.

JSON is written by _dumps, whose bytes are exactly those of
json.dumps(_plain(report), sort_keys=True, separators=(",", ": "),
indent=2, allow_nan=False): it calls the same string escaper and int and
float reprs. json.dumps with an indent runs the pure-Python encoder, one
generator step per bracket, comma and number. _dumps instead writes a
float64 or complex128 array from the array itself, with no nested lists
between: its floats, each complex entry as re then im, are formatted
together and joined with separators that depend only on its shape. From
12 floats up, their digits come from one orjson.dumps of the array, save
where orjson's notation is not float.__repr__'s (see _REPR_LOW); orjson
is imported only then. Any other array is written as the lists of
_plain, and a plain list one item at a time. The CSV writes each column
of a block of rows as one float64 array, the same way. A NaN or an
infinity in a report is a DomainError, and nothing is written.
"""

from __future__ import annotations

import functools
import json
import math
import numbers

import numpy as np

from .errors import DomainError
from .serialize import array_to_json

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_STR = {"type": "string"}
_REAL_VEC = {"type": "array", "items": _NUM}
_COMPLEX = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_COMPLEX_VEC = {"type": "array", "items": _COMPLEX}
_MATRIX = {"type": "array", "items": _COMPLEX_VEC}
_META = {"tool_version": _STR, "seed": _INT, "tolerance": _NUM}
_META_REQ = ["tool_version", "seed", "tolerance"]

SCHEMAS = {
    "bounds": {
        "type": "object",
        "required": ["d", "alpha", "beta_q", "beta_l_exact", "beta_l_upper", "gap",
                     "gamma", "delta"] + _META_REQ,
        "properties": {
            "d": _INT, "alpha": _REAL_VEC, "beta_q": _NUM, "beta_l_exact": _NUM,
            "beta_l_upper": _NUM, "gap": _NUM, "gamma": _NUM, "delta": _COMPLEX_VEC,
            "strategy": {"type": ["array", "null"], "items": _INT}, **_META,
        },
    },
    "certify": {
        "type": "object",
        "required": ["d", "alpha", "value", "value_gap", "stabilizer_residuals",
                     "s_residual", "projectivity", "ztilde_min_eig", "verdict",
                     "failures"] + _META_REQ,
        "properties": {
            "d": _INT, "alpha": _REAL_VEC, "value": _NUM, "value_gap": _NUM,
            "stabilizer_residuals": _REAL_VEC, "s_residual": _NUM,
            "commutation_residual": {"type": ["number", "null"]},
            "projectivity": {"type": "array"},
            "ztilde_min_eig": _NUM,
            "verdict": {"enum": ["certified", "failed"]},
            "failures": {"type": "array", "items": _STR}, **_META,
        },
    },
    "povm-build": {
        "type": "object",
        "required": ["kind", "d", "n_outcomes", "elements", "validation",
                     "extremality"] + _META_REQ,
        "properties": {
            "kind": {"enum": ["partial", "covariant"]}, "d": _INT,
            "n_outcomes": _INT, "elements": {"type": "array", "items": _MATRIX},
            "validation": {"type": "object"}, "extremality": {"type": "object"},
            **_META,
        },
    },
    "povm-check": {
        "type": "object",
        "required": ["n_outcomes", "dim", "validation", "extremality"] + _META_REQ,
        "properties": {
            "n_outcomes": _INT, "dim": _INT,
            "validation": {"type": "object"}, "extremality": {"type": "object"},
            **_META,
        },
    },
    "randomness": {
        "type": "object",
        "required": ["d", "alpha", "povm", "n_outcomes", "outcome_probs",
                     "guessing_probability", "min_entropy_bits", "uniform"] + _META_REQ,
        "properties": {
            "d": _INT, "alpha": _REAL_VEC, "povm": _STR, "n_outcomes": _INT,
            "outcome_probs": _REAL_VEC, "guessing_probability": _NUM,
            "min_entropy_bits": _NUM, "uniform": {"type": "boolean"}, **_META,
        },
    },
    "bell3": {
        "type": "object",
        "required": ["value", "threshold", "gap", "state_schmidt", "iterations",
                     "restarts"] + _META_REQ,
        "properties": {
            "value": _NUM, "threshold": _NUM, "gap": _NUM,
            "state_schmidt": _REAL_VEC, "iterations": _INT, "restarts": _INT,
            **_META,
        },
    },
    "sweep": {
        "type": "object",
        "required": ["d", "rows"] + _META_REQ,
        "properties": {
            "d": _INT,
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["theta", "beta_l", "gap"],
                    "properties": {"theta": _NUM, "beta_l": _NUM, "gap": _NUM},
                },
            },
            **_META,
        },
    },
}


@functools.cache
def _validator(key: str):
    """The validator of SCHEMAS[key], with the schema itself checked once."""
    import jsonschema  # only a report that fails _predicate needs it

    cls = jsonschema.validators.validator_for(SCHEMAS[key])
    cls.check_schema(SCHEMAS[key])
    return cls(SCHEMAS[key])


# Draft 2020-12 meanings, as jsonschema's type checker defines them: a bool
# is neither a number nor an integer, and an integral float is an integer.
# An ndarray has the type of _plain of it; each test tries that last.
_TYPES = {
    "array": lambda v: isinstance(v, list) or _typed(v, "array"),
    "boolean": lambda v: isinstance(v, bool) or _typed(v, "boolean"),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()) or _typed(v, "integer"),
    "null": lambda v: v is None or _typed(v, "null"),
    "number": lambda v: type(v) in (float, int)
    or (not isinstance(v, bool) and isinstance(v, numbers.Number)) or _typed(v, "number"),
    "object": lambda v: isinstance(v, dict) or _typed(v, "object"),
    "string": lambda v: isinstance(v, str) or _typed(v, "string"),
}
_SCALARS = (str, bool, int, float, type(None))


def _typed(v, name: str) -> bool:
    """Whether v is an ndarray whose _plain has JSON type name."""
    return isinstance(v, np.ndarray) and _TYPES[name](_plain(v))


def _same(a, b) -> bool:
    """JSON equality of scalars: True is not 1, "1" is not 1, 1 is 1.0."""
    return (isinstance(a, bool) == isinstance(b, bool)
            and isinstance(a, str) == isinstance(b, str) and a == b)


def _both(first, second):
    return lambda v: first(v) and second(v)


def _either(first, second):
    return lambda v: first(v) or second(v)


def _plain(value):
    """value with every ndarray in it replaced by the JSON lists it stands for.

    An array becomes nested lists, one level per axis, with each complex
    entry an [re, im] pair as array_to_json writes it. An ndarray in a
    report means exactly this, to the schema check and to the writer.
    """
    if isinstance(value, np.ndarray):
        return array_to_json(value) if value.dtype.kind == "c" else _plain(value.tolist())
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return list(map(_plain, value))
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


_DIRECT = (np.dtype(np.float64), np.dtype(np.complex128))


def _direct(a: np.ndarray) -> bool:
    """Whether a is checked and written from its dtype and shape alone.

    True for a float64 or complex128 array with at least one axis and no
    axis of length 0; any other array goes through _plain.
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
    """A boolean predicate that accepts exactly what jsonschema accepts.

    Only the keywords SCHEMAS uses are known. Any other keyword, or an enum
    member that is not a JSON scalar, raises ValueError here, so no part of
    a schema is skipped unnoticed when a report is checked. An ndarray is
    judged as _plain of it: from its dtype, ndim and length when _direct
    and the schema is an item chain (_array_levels), else by walking its
    lists.
    """
    unknown = sorted(schema.keys() - _KEYWORDS)
    if unknown:
        raise ValueError(f"schema keywords {unknown} have no compiled check")
    checks = []
    if "type" in schema:
        names = schema["type"]
        names = [names] if isinstance(names, str) else names
        checks.append(functools.reduce(_either, [_TYPES[n] for n in names]))
    if "enum" in schema:
        members = tuple(schema["enum"])
        if not all(isinstance(e, _SCALARS) for e in members):
            raise ValueError(f"enum {members!r}: only JSON scalars have a compiled check")
        checks.append(lambda v: any(_same(v, e) for e in members))
    if "required" in schema or "properties" in schema:
        req = frozenset(schema.get("required", ()))
        props = [(k, _compile(s)) for k, s in schema.get("properties", {}).items()]
        checks.append(lambda v: not isinstance(v, dict) or (
            v.keys() >= req and all([p(v[k]) for k, p in props if k in v])))
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
    if schema.keys() & {"items", "minItems", "maxItems"}:
        item = _compile(schema.get("items", {}))
        checks.append(lambda v: not isinstance(v, list) or (
            lo <= len(v) <= hi and all(map(item, v))))
    listed = functools.reduce(_both, checks) if checks else (lambda v: True)
    if schema.keys() <= {"type"}:
        return listed  # _TYPES already judge an ndarray as _plain of it
    levels = _array_levels(schema)

    def check(v) -> bool:
        if not isinstance(v, np.ndarray):
            return listed(v)
        if levels is None or not _direct(v):
            return listed(_plain(v))
        shape = v.shape + (2,) if v.dtype.kind == "c" else v.shape
        return (len(shape) == levels[0] and levels[1] in (None, shape[-1])
                and lo <= shape[0] <= hi)

    return check


@functools.cache
def _predicate(key: str):
    """SCHEMAS[key] compiled once into a predicate that agrees with _validator."""
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
    """_dumps(_plain(a), newline) for an array that is _direct.

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
    """value as json.dumps(_plain(value), sort_keys=True, separators=(",", ": "),
    indent=2, allow_nan=False) writes it, byte for byte.

    Dict keys must be str. newline is a line break plus the indent of the
    line that value starts on. A NaN or an infinity raises ValueError, and
    a value that is not JSON raises TypeError, as in json.dumps.
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
    if isinstance(value, np.ndarray):
        return _array(value, newline) if _direct(value) else _dumps(_plain(value), newline)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in value) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_CSV_BLOCK = 2**16


def render(key: str, report: dict, fmt: str = "json") -> str:
    """The text of report, checked against SCHEMAS[key]: JSON, or with fmt
    "csv" a sweep report's header and rows.

    A report that fails its schema raises jsonschema's error, and one that
    holds a NaN or an infinity raises DomainError; either way nothing is
    returned.
    """
    if not _predicate(key)(report):
        # The predicate only says whether a report fails; jsonschema names
        # the error, and stays the judge should the two ever disagree.
        import jsonschema

        error = jsonschema.exceptions.best_match(_validator(key).iter_errors(_plain(report)))
        if error is not None:
            raise error
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
