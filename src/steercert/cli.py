"""Command-line front end.

Every subcommand emits a single JSON document (a sweep emits plot-ready
CSV rows unless given --format json) with the {tool_version, seed,
tolerance} triple included for reproducibility, and each document is
validated against the subcommand's own schema before it is written.
Handlers put numpy arrays into a report as they are; an ndarray stands
for the JSON lists _plain makes of it, with each complex entry an
[re, im] pair. Each entry of SCHEMAS is compiled once into a plain-Python
predicate with jsonschema's Draft 2020-12 meanings. It judges a float64
or complex128 array from its dtype, ndim and length against the schema's
chain of items, without a walk over the entries, and any other array by
walking _plain of it. Only a report the predicate rejects goes to
jsonschema, as _plain(report), whose best_match error is raised, and then
nothing is written. jsonschema is imported only then, so the command line
starts without it. Output bytes depend only on the parsed arguments, never
on wall time or thread count.

The argparse parser is built once per process. parse_args checks --seed,
--tolerance, --d and --alpha and returns the argparse namespace itself,
with --alpha decoded into an array; the handlers read its attributes.

Every JSON input, a realization or POVM file or the --alpha and --fiducial
flags, is parsed by orjson, imported only by the subcommands that read
JSON. Input must be strict JSON: a NaN or Infinity literal is malformed,
and so is nesting deeper than _MAX_DEPTH, which is refused before orjson
sees it (_json_scan). A file (certify, povm check, randomness --povm
FILE) is read by _load_json_file, which parses each rectangular array of
floats flat, with no nested lists, once its bracket skeleton matches its
shape's. Every array of numbers then goes through the one strict walk of
serialize, which refuses a boolean among them.

Reports are written by _dumps, whose bytes are exactly those of
json.dumps(_plain(report), sort_keys=True, separators=(",", ": "),
indent=2, allow_nan=False): it calls the same string escaper and int and
float reprs. json.dumps with an indent runs the pure-Python encoder, one
generator step per bracket, comma and number. _dumps instead writes a
float64 or complex128 array from the array itself, with no nested lists
between: its floats, each complex entry as re then im, are formatted
together and joined with separators that depend only on its shape. From
12 floats up, their digits come from one orjson.dumps of the array.
orjson writes the same shortest round-trip digits as float.__repr__ (both
are Ryu) but in its own notation between 1e-9 and 1e-4 and from 1e16 up;
floats in the wider band [1e-11, 1e-4) or from 1e15 up keep
float.__repr__, and a test checks the two against each other on random
bit patterns and at the band's edges. orjson is imported only when so
many floats are written. Any other array is written as the lists of
_plain, and a plain list one item at a time. A NaN or an infinity in a
report is a DomainError, and nothing is written.

Exit codes: 0 success, 1 failed verdict, 2 usage error, 3 I/O failure.
In process, main returns those codes; argparse usage errors and --version
raise SystemExit, and a report that fails its own schema raises
jsonschema.ValidationError, since that is a fault of the program.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import numbers
import re
import sys

import numpy as np

from . import __version__
from .bell3 import BELL3_BOUND, seesaw_details
from .errors import DomainError, NotExtremalError, SteercertError
from .measurements import Povm
from .povm import covariant_povm, is_extremal_rank_one, partial_povm, validate_povm
from .randomness import randomness_report
from .selftest import certify
from .serialize import (array_from_json, array_to_json, povm_from_json,
                        real_vector_from_json, realization_from_json)
from .states import SchmidtVector, maximally_entangled, schmidt_state
from .steering import (
    functional_coefficients,
    lhs_bound_exact,
    lhs_bound_paper_upper,
    lhs_bound_rows,
    quantum_maximum,
)

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


class UsageError(Exception):
    pass


def _add_common(sp):
    sp.add_argument("--tolerance", type=float, default=1e-7)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--output", default=None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steercert",
        description="Steering bounds, certification and POVM tools",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("bounds", help="quantum and LHS bounds of the functional")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", default=None)
    _add_common(p)

    p = subs.add_parser(
        "certify", help="run the certification checks on a realization file",
        description="Run the certification checks on a realization file. --tolerance "
        "must be below d - beta_l_upper for the Schmidt vector: at or above it, "
        "value_gap <= tolerance would pass a value that a local-hidden-state model "
        "reaches, so such a tolerance exits 2.",
    )
    p.add_argument("--realization", required=True)
    p.add_argument("--alpha", default=None)
    _add_common(p)

    p = subs.add_parser("povm", help="build or check d^2-outcome POVMs")
    PSubs = p.add_subparsers(dest="povm_action", required=True)
    pb = PSubs.add_parser("build")
    pb.add_argument("--kind", choices=("partial", "covariant"), required=True)
    pb.add_argument("--d", type=int, required=True)
    pb.add_argument("--alpha", default=None)
    pb.add_argument("--fiducial", default=None)
    _add_common(pb)
    pc = PSubs.add_parser("check")
    pc.add_argument("--povm", required=True)
    _add_common(pc)

    p = subs.add_parser("randomness", help="certified min-entropy of a POVM on rho_B(alpha)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--povm", default="builtin:partial")
    _add_common(p)

    p = subs.add_parser("bell3", help="see-saw maximum of the qutrit functional")
    p.add_argument("--iters", type=int, default=150)
    p.add_argument("--restarts", type=int, default=32)
    _add_common(p)

    p = subs.add_parser("sweep", help="LHS bound over the d=2 Schmidt angle grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--theta-grid", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    _add_common(p)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The checked namespace of argv; --alpha, when given, is an array."""
    ns = _build_parser().parse_args(argv)
    if not 0 <= ns.seed < 2**63:
        raise UsageError(f"--seed: {ns.seed} is outside [0, 2**63)")
    if not 0.0 < ns.tolerance < 1.0:
        raise UsageError(f"--tolerance: {ns.tolerance} is outside (0, 1)")
    d = getattr(ns, "d", None)
    if d is not None and d < 2:
        raise UsageError(f"--d: need d >= 2, got {d}")
    if getattr(ns, "alpha", None) is not None:
        ns.alpha = real_vector_from_json(_load_flag(ns.alpha, "--alpha"), "--alpha")
        if np.any(ns.alpha <= 0):
            raise UsageError("--alpha: every entry must be positive")
        if d is not None and ns.alpha.size != d:
            raise UsageError(f"--alpha: length {ns.alpha.size} does not match --d {d}")
    return ns


def _schmidt_vector(config: argparse.Namespace) -> SchmidtVector:
    if config.alpha is not None:
        return SchmidtVector(config.alpha)
    return maximally_entangled(config.d)


def _meta(config: argparse.Namespace) -> dict:
    return {
        "tool_version": __version__,
        "seed": config.seed,
        "tolerance": config.tolerance,
    }


def _run_bounds(config: argparse.Namespace) -> tuple[int, dict]:
    sv = _schmidt_vector(config)
    f = functional_coefficients(sv)
    exact = lhs_bound_exact(f)
    upper = lhs_bound_paper_upper(f)
    report = {
        "d": f.d,
        "alpha": sv.alpha,
        "beta_q": quantum_maximum(f),
        "beta_l_exact": exact.value,
        "beta_l_upper": upper.value,
        "gap": quantum_maximum(f) - exact.value,
        "gamma": f.gamma,
        "delta": f.delta,
        "strategy": list(map(int, exact.strategy)) if exact.strategy else None,
        **_meta(config),
    }
    return 0, report


# A realization file nests 7 deep. orjson 3.8 overflows the C stack on
# deep nesting instead of raising, so deeper files never reach it.
_MAX_DEPTH = 64
_ESCAPE = re.compile(rb"\\.", re.DOTALL)
# The scan keeps quotes, brackets, colons and the first letters of the
# literals true, false and null; a number has none of these letters.
_NOT_SCANNED = bytes(b for b in range(256) if b not in b'"[]{}:tfn')
_SCAN_MAP = bytes.maketrans(b"{}tf", b"[]nn")
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[ord("[")], _DEPTH_STEP[ord("]")] = 1, -1


def _json_scan(raw: bytes) -> tuple[int, bool]:
    """The deepest nesting of brackets outside the JSON strings of raw, and
    whether every scalar of raw outside object keys is a number.

    Escape pairs go first, so every remaining quote opens or closes a
    string; nothing backtracks, so the time is linear in len(raw) whatever
    the bytes are. Up to the first byte where a JSON parser stops, the
    strings found here are the parser's, so on malformed input the depth
    is never below the depth the parser reaches.

    The second figure is meant for valid JSON, where it is exact: outside
    strings, no t, f or n means no true, false or null, and each key is
    followed by one colon, so as many colons as strings means that every
    string is a key. On malformed input it is meaningless, and the parser
    refuses the input anyway.
    """
    if b"\\" in raw:
        raw = _ESCAPE.sub(b"", raw)
    pieces = raw.translate(_SCAN_MAP, _NOT_SCANNED).split(b'"')
    # Quotes alternate opening and closing, so the even pieces lie outside strings.
    outside = b"".join(pieces[::2])
    numeric = b"n" not in outside and outside.count(b":") == (len(pieces) - 1) // 2
    if outside.count(b"[") > _MAX_DEPTH:
        step = _DEPTH_STEP[np.frombuffer(outside, dtype=np.uint8)]
        return int(np.cumsum(step, dtype=np.int64).max(initial=0)), numeric
    # So few openers are walked in Python, and a flag never reaches numpy.
    # Every run after the first follows an opener.
    runs = outside.translate(None, b":n").split(b"[")
    depth, deepest = -len(runs[0]), 0
    for closers in runs[1:]:
        deepest = max(deepest, depth + 1)
        depth += 1 - len(closers)
    return deepest, numeric


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

    if _json_scan(raw)[0] > _MAX_DEPTH:
        raise UsageError(f"{what}: malformed JSON (nested deeper than {_MAX_DEPTH})")
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError as e:
        raise UsageError(f"{what}: malformed JSON ({e.msg})") from e


_SPACES = re.compile(rb"[ \t\n\r]*")
_NOT_DOT = b"0123456789+-eE \t\n\r"
_BLANK = bytes.maketrans(b"[]", b"  ")


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
    """value with each string in it, a marker, replaced by the array it numbers."""
    if type(value) is str:
        return arrays[int(value)]
    if type(value) in (dict, list):
        for key, item in (value.items() if type(value) is dict else enumerate(value)):
            value[key] = _put(item, arrays)
    return value


def _load_json_file(path: str):
    """The value of a strict JSON file: each array _flat_shape takes becomes a
    float64 ndarray, read flat. If the rest has no literal and no string value
    (_json_scan, each array as brackets of its depth), orjson parses it with a
    marker string in each array's place; else _load_json reads the file."""
    import orjson

    with open(path, "rb") as fh:
        raw = fh.read()
    spans = []  # candidates: the file's value, or one after a colon, up to
    # the next quote, brace or colon. One inside a string (there are no
    # escapes) leaves the marker text malformed, and orjson refuses it.
    colon = -1 if b"\\" not in raw else len(raw)
    while colon < len(raw):
        start = _SPACES.match(raw, colon + 1).end()
        if raw[start:start + 1] == b'"':  # a string value: the verdict is no
            return _load_json(raw, path)
        colon = raw.find(b":", start)
        stop = colon = len(raw) if colon < 0 else colon
        for mark in b'"{}':
            at = raw.find(mark, start, stop)
            stop = stop if at < 0 else at
        end = raw.rfind(b"]", start, stop) + 1
        if end > start and raw[start] == ord("["):
            spans.append((start, end))
    found = [(shape, a, b) for a, b in spans if (shape := _flat_shape(raw[a:b])) is not None]
    if not found:
        return _load_json(raw, path)

    def document(fills) -> bytes:
        ends = [0] + [end for *_, end in found]
        parts = (raw[last:start] + fill for last, (_, start, _), fill in zip(ends, found, fills))
        return b"".join(parts) + raw[ends[-1]:]

    depth, numeric = _json_scan(document(b"[" * len(s) + b"]" * len(s) for s, *_ in found))
    if depth > _MAX_DEPTH or not numeric:
        return _load_json(raw, path)
    try:
        value = orjson.loads(document(b'"%d"' % n for n in range(len(found))))
        # Blanked brackets leave a flat JSON array, one number at each point
        # (a digit out of place makes two), read as in place: the walk's bits.
        arrays = []
        for shape, start, end in found:
            numbers = orjson.loads(b"[" + raw[start:end].translate(_BLANK) + b"]")
            arrays.append(np.fromiter(numbers, np.float64, count=len(numbers)).reshape(shape))
        return _put(value, arrays)
    except ValueError:  # orjson's JSONDecodeError among them
        return _load_json(raw, path)


def _load_povm_file(path: str) -> Povm:
    """The POVM of a file; the collector stays paused until its tree is freed."""
    with _gc_paused():
        return povm_from_json(_load_json_file(path))


def _load_flag(text: str, flag: str):
    """A flag's JSON value; a lone surrogate (an undecodable argv byte) is malformed."""
    return _load_json(text.encode("utf-8", "surrogatepass"), flag)


def _parse_fiducial(text: str, flag: str) -> np.ndarray:
    """A fiducial written as real numbers or as [re, im] pairs."""
    data = _load_flag(text, flag)
    if isinstance(data, list) and data and type(data[0]) is list:
        return array_from_json(data, 1, flag)
    return real_vector_from_json(data, flag)


def _seeded_fiducial(config: argparse.Namespace) -> np.ndarray:
    """The covariant POVM's fiducial drawn from --seed: complex Gaussian."""
    rng = np.random.default_rng(config.seed)
    return rng.normal(size=config.d) + 1j * rng.normal(size=config.d)


def _run_certify(config: argparse.Namespace) -> tuple[int, dict]:
    with _gc_paused():
        data = _load_json_file(config.realization)
        r = realization_from_json(data)
        alpha = config.alpha
        if alpha is None and "alpha" in data:
            alpha = real_vector_from_json(data["alpha"], f"{config.realization}: alpha")
        del data
    if alpha is None:
        raise UsageError("no Schmidt coefficients: pass --alpha or an 'alpha' key")
    sv = SchmidtVector(alpha)
    f = functional_coefficients(sv)
    rep = certify(f, r, tol=config.tolerance)
    report = {
        "d": f.d,
        "alpha": sv.alpha,
        **rep.to_dict(),
        **_meta(config),
    }
    return (0 if rep.certified else 1), report


def _povm_reports(p: Povm, tol: float) -> tuple[dict, dict, bool]:
    """p's validation and extremality reports, and whether both pass.

    Both tests read the spectra p caches, so a POVM that covariant_povm
    has already tested solves no eigenproblem again here.
    """
    v = validate_povm(p, tol)
    ok, info = is_extremal_rank_one(p)
    validation = {
        "hermiticity": v.hermiticity,
        "min_eigenvalues": v.min_eigenvalues,
        "completeness_residual": v.completeness_residual,
        "failures": list(v.failures),
        "passed": v.passed,
    }
    extremality = {
        "extremal": bool(ok),
        "gram_rank": info["gram_rank"],
        "expected_rank": p.n_outcomes,
    }
    return validation, extremality, bool(v.passed and ok)


def _run_povm(config: argparse.Namespace) -> tuple[int, dict]:
    if config.povm_action == "build":
        d = config.d
        if config.kind == "partial":
            sv = _schmidt_vector(config)
            p = partial_povm(sv)
        else:
            if config.fiducial:
                nu = _parse_fiducial(config.fiducial, "--fiducial")
            else:
                nu = _seeded_fiducial(config)
            p = covariant_povm(d, nu)
        validation, extremality, passed = _povm_reports(p, config.tolerance)
        report = {
            "kind": config.kind,
            "d": d,
            "n_outcomes": p.n_outcomes,
            "elements": p.elements,
            "validation": validation,
            "extremality": extremality,
            **_meta(config),
        }
        return (0 if passed else 1), report
    p = _load_povm_file(config.povm)
    validation, extremality, passed = _povm_reports(p, config.tolerance)
    report = {
        "n_outcomes": p.n_outcomes,
        "dim": p.dim,
        "validation": validation,
        "extremality": extremality,
        **_meta(config),
    }
    return (0 if passed else 1), report


def _run_randomness(config: argparse.Namespace) -> tuple[int, dict]:
    sv = _schmidt_vector(config)
    rho = schmidt_state(sv).reduced((1,))
    source = config.povm
    if source == "builtin:partial":
        p = partial_povm(sv)
    elif source == "builtin:covariant":
        p = covariant_povm(config.d, _seeded_fiducial(config))
    elif source.startswith("builtin:"):
        raise UsageError(f"--povm: unknown builtin {source!r}")
    else:
        p = _load_povm_file(source)
        validation, extremality, passed = _povm_reports(p, config.tolerance)
        if not passed:
            reason = (validation["failures"] or ["not extremal rank-one"])[0]
            raise NotExtremalError(
                f"{source}: fails povm check ({reason}); no entropy is certified",
                rank=extremality["gram_rank"], expected=extremality["expected_rank"],
            )
    if p.dim != sv.alpha.size:
        raise UsageError(f"--povm: dimension {p.dim} does not match d={sv.alpha.size}")
    rep = randomness_report(p, rho, tol=config.tolerance)
    report = {
        "d": int(sv.alpha.size),
        "alpha": sv.alpha,
        "povm": source,
        "n_outcomes": p.n_outcomes,
        **rep.to_dict(),
        **_meta(config),
    }
    return 0, report


# See-saw restarts and sweeps. The lockstep see-saw holds about 37 kB per
# running restart and an 8-byte history entry per restart and sweep; at
# both ceilings its peak allocation, measured with tracemalloc, is 91 MB.
# Larger values are refused before any restart is spawned.
_MAX_RESTARTS = 2048
_MAX_ITERS = 1000


def _run_bell3(config: argparse.Namespace) -> tuple[int, dict]:
    for flag, n, cap in (("--restarts", config.restarts, _MAX_RESTARTS),
                         ("--iters", config.iters, _MAX_ITERS)):
        if not 1 <= n <= cap:
            raise UsageError(f"{flag}: need 1 to {cap}, got {n}")
    value, r, used = seesaw_details(
        seed=config.seed, restarts=config.restarts, iters=config.iters
    )
    schmidt = np.linalg.svd(r.state.amplitudes.reshape(3, 3), compute_uv=False)
    report = {
        "value": value,
        "threshold": BELL3_BOUND,
        "gap": value - BELL3_BOUND,
        "state_schmidt": schmidt,
        "iterations": used,
        "restarts": config.restarts,
        **_meta(config),
    }
    return 0, report


# Rows of the largest sweep. A grid of 10**6 angles already takes, in a
# fresh process on a two-vCPU machine, 4.7 s and 507 MB as CSV and 13.9 s
# and 601 MB as JSON, nearly all of it the report's rows; a larger grid
# is refused before anything is allocated.
_MAX_THETA_GRID = 10**6


def _run_sweep(config: argparse.Namespace) -> tuple[int, dict]:
    if config.d != 2:
        raise UsageError("--d: the sweep grid is the d=2 Schmidt-angle family")
    n = config.theta_grid
    if not 1 <= n <= _MAX_THETA_GRID:
        raise UsageError(f"--theta-grid: need 1 to {_MAX_THETA_GRID} points, got {n}")
    thetas = np.linspace(0.0, np.pi / 2.0, n + 2)[1:-1]
    betas = lhs_bound_rows(np.stack((np.cos(thetas), np.sin(thetas)), axis=-1))
    rows = [
        {"theta": theta, "beta_l": b, "gap": 2.0 - b}
        for theta, b in zip(thetas.tolist(), betas.tolist())
    ]
    report = {"d": 2, "rows": rows, **_meta(config)}
    return 0, report


_HANDLERS = {
    "bounds": _run_bounds,
    "certify": _run_certify,
    "povm": _run_povm,
    "randomness": _run_randomness,
    "bell3": _run_bell3,
    "sweep": _run_sweep,
}


def _schema_key(config: argparse.Namespace) -> str:
    if config.subcommand == "povm":
        return f"povm-{config.povm_action}"
    return config.subcommand


def __getattr__(name: str):
    """Resolve `steercert.cli.jsonschema` on demand (PEP 562).

    The benchmark's span installer reads this attribute to wrap
    jsonschema.validate. The shim goes once that installer wraps _render
    instead (ROADMAP item 9b).
    """
    if name == "jsonschema":
        import jsonschema

        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _pair_depth(items: dict, leaf: dict = _COMPLEX) -> int | None:
    """How many plain arrays nest between an array's items and leaf.

    0 for the items of _COMPLEX_VEC, 1 for those of _MATRIX and 2 for an
    array of _MATRIX; with leaf _NUM, 0 for the items of _REAL_VEC. None
    when items is not such a chain.
    """
    depth = 0
    while items != leaf:
        if items.keys() != {"type", "items"} or items["type"] != "array":
            return None
        items, depth = items["items"], depth + 1
    return depth


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
    plain arrays over _COMPLEX or over _NUM.
    """
    names = schema.get("type", "array")
    if "enum" in schema or "array" not in ([names] if isinstance(names, str) else names):
        return None
    items = schema.get("items", {})
    if (depth := _pair_depth(items)) is not None:
        return depth + 2, 2
    if (depth := _pair_depth(items, _NUM)) is not None:
        return depth + 1, None
    return None


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
    finite floats.

    orjson would write a NaN or an infinity as null, so a caller passes
    only finite floats.
    """
    if len(level) < _ORJSON_MIN:
        return list(map(float.__repr__, level))
    import orjson  # only subcommands that write a long float grid need it

    a = np.ascontiguousarray(level, dtype=np.float64)
    strs = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    own = ((mag >= _REPR_LOW) & (mag < _REPR_HIGH)) | (mag >= _REPR_FROM)
    for i in np.flatnonzero(own).tolist():
        strs[i] = float.__repr__(a[i])
    return strs


def _reprs(values: list) -> list:
    """The repr of each value, as an f-string's !r writes it; a NaN or an
    infinity raises ValueError, as in _number."""
    bad = [] if math.isfinite(sum(values)) else [x for x in values if not math.isfinite(x)]
    if bad:
        raise ValueError(f"Out of range float values are not JSON compliant: {bad[0]!r}")
    if set(map(type, values)) == {float}:
        return _float_reprs(values)
    return list(map(repr, values))


def _array(a: np.ndarray, newline: str) -> str:
    """_dumps(_plain(a), newline) for an array that is _direct.

    The floats of a, with each complex entry as re then im, are formatted
    together by _float_reprs. The text between two leaves depends only on
    how many levels close there, so one list of separators, filled by a
    slice per level, is interleaved with the leaves and joined once.
    """
    shape = a.shape + (2,) if a.dtype.kind == "c" else a.shape
    flat = np.ascontiguousarray(a).view(np.float64).reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        x = float(flat[~finite][0])
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    strs = _float_reprs(flat)
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


def _render(config: argparse.Namespace, report: dict) -> str:
    key = _schema_key(config)
    if not _predicate(key)(report):
        # The predicate only says whether a report fails; jsonschema names
        # the error, and stays the judge should the two ever disagree.
        import jsonschema

        error = jsonschema.exceptions.best_match(_validator(key).iter_errors(_plain(report)))
        if error is not None:
            raise error
    try:
        if config.subcommand != "sweep" or config.format != "csv":
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
            columns = [_reprs([row[k] for row in block]) for k in ("theta", "beta_l", "gap")]
            lines.append("\n".join(map(",".join, zip(*columns))))
        return "\n".join(lines) + "\n"
    except ValueError as e:  # a NaN or an infinity, in JSON or CSV
        raise DomainError(f"report is not strict JSON: {e}") from None


def run(config: argparse.Namespace) -> int:
    """Run a parse_args namespace and write its report; returns its exit code.

    Input errors propagate as the package's exceptions; main maps them to
    the documented exit codes.
    """
    code, report = _HANDLERS[config.subcommand](config)
    text = _render(config, report)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    """The command line; returns the process exit code."""
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except NotExtremalError as e:
        print(f"steercert: failed: {e}", file=sys.stderr)
        return 1
    except (UsageError, SteercertError, np.linalg.LinAlgError) as e:
        print(f"steercert: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"steercert: i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
