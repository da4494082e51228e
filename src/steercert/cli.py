"""Command-line front end.

Every subcommand emits a single JSON document (sweeps emit CSV rows
instead, plot-ready) with the {tool_version, seed, tolerance} triple
included for reproducibility, and each document is validated against the
subcommand's own schema before it is written. Output bytes depend only
on the parsed config, never on wall time or thread count.

Exit codes: 0 success, 1 failed verdict, 2 usage error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import __version__
from .bell3 import BELL3_BOUND, seesaw_details
from .errors import (
    ContractError,
    DomainError,
    InvalidObservableError,
    NotExtremalError,
    SizeError,
)
from .measurements import Povm
from .povm import covariant_povm, is_extremal_rank_one, partial_povm, validate_povm
from .randomness import randomness_report
from .selftest import certify
from .serialize import array_from_json, array_to_json, povm_from_json, realization_from_json
from .states import SchmidtVector, maximally_entangled, schmidt_state
from .steering import (
    functional_coefficients,
    lhs_bound_exact,
    lhs_bound_paper_upper,
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


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    d: int | None = None
    alpha: np.ndarray | None = None
    tolerance: float = 1e-7
    seed: int = 42
    restarts: int = 32
    fmt: str = "json"
    output: str | None = None
    extra: dict = field(default_factory=dict)


class UsageError(Exception):
    pass


def _real_array(data, what: str) -> np.ndarray:
    if not isinstance(data, list) or not all(
        isinstance(v, (int, float)) for v in data
    ):
        raise UsageError(f"{what}: expected a JSON array of numbers")
    return np.asarray(data, dtype=float)


def _parse_real_array(text: str, flag: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{flag}: malformed JSON array ({e.msg})") from e
    return _real_array(data, flag)


def _parse_fiducial(text: str, flag: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{flag}: malformed JSON array ({e.msg})") from e
    if not isinstance(data, list) or not data:
        raise UsageError(f"{flag}: expected a nonempty JSON array")
    if all(isinstance(v, (int, float)) for v in data):
        return np.asarray(data, dtype=complex)
    return array_from_json(data, 1, flag)


def _add_common(sp, fmt_default="json"):
    sp.add_argument("--tolerance", type=float, default=1e-7)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--format", choices=("json", "csv"), default=fmt_default)
    sp.add_argument("--output", default=None)


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

    p = subs.add_parser("certify", help="run the certification checks on a realization file")
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
    _add_common(p)

    p = subs.add_parser("sweep", help="LHS bound over the d=2 Schmidt angle grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--theta-grid", type=int, required=True)
    _add_common(p, fmt_default="csv")
    return parser


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    if not 0 <= ns.seed < 2**63:
        raise UsageError(f"--seed: {ns.seed} is outside [0, 2**63)")
    if not 0.0 < ns.tolerance < 1.0:
        raise UsageError(f"--tolerance: {ns.tolerance} is outside (0, 1)")
    d = getattr(ns, "d", None)
    alpha = None
    if getattr(ns, "alpha", None) is not None:
        alpha = _parse_real_array(ns.alpha, "--alpha")
        if np.any(alpha <= 0):
            raise UsageError("--alpha: every entry must be positive")
        if d is not None and alpha.size != d:
            raise UsageError(f"--alpha: length {alpha.size} does not match --d {d}")
    extra = {}
    for key in ("realization", "povm_action", "kind", "fiducial", "povm",
                "iters", "theta_grid"):
        if hasattr(ns, key):
            extra[key] = getattr(ns, key)
    return RunConfig(
        subcommand=ns.subcommand,
        d=d,
        alpha=alpha,
        tolerance=ns.tolerance,
        seed=ns.seed,
        restarts=ns.restarts,
        fmt=ns.format,
        output=ns.output,
        extra=extra,
    )


def _schmidt_vector(config: RunConfig) -> SchmidtVector:
    if config.alpha is not None:
        return SchmidtVector(config.alpha)
    return maximally_entangled(config.d)


def _meta(config: RunConfig) -> dict:
    return {
        "tool_version": __version__,
        "seed": config.seed,
        "tolerance": config.tolerance,
    }


def _run_bounds(config: RunConfig) -> tuple[int, dict]:
    sv = _schmidt_vector(config)
    f = functional_coefficients(sv)
    exact = lhs_bound_exact(f)
    upper = lhs_bound_paper_upper(f)
    report = {
        "d": f.d,
        "alpha": [float(a) for a in sv.alpha],
        "beta_q": quantum_maximum(f),
        "beta_l_exact": exact.value,
        "beta_l_upper": upper.value,
        "gap": quantum_maximum(f) - exact.value,
        "gamma": f.gamma,
        "delta": array_to_json(f.delta),
        "strategy": list(map(int, exact.strategy)) if exact.strategy else None,
        **_meta(config),
    }
    return 0, report


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise UsageError(f"{path}: malformed JSON ({e.msg})") from e
        except (UnicodeDecodeError, RecursionError) as e:
            raise UsageError(f"{path}: not a JSON file ({e})") from None


def _seeded_fiducial(config: RunConfig) -> np.ndarray:
    """The covariant POVM's fiducial drawn from --seed: complex Gaussian."""
    rng = np.random.default_rng(config.seed)
    return rng.normal(size=config.d) + 1j * rng.normal(size=config.d)


def _run_certify(config: RunConfig) -> tuple[int, dict]:
    data = _load_json_file(config.extra["realization"])
    r = realization_from_json(data)
    if config.alpha is not None:
        alpha = config.alpha
    elif "alpha" in data:
        alpha = _real_array(data["alpha"], f"{config.extra['realization']}: alpha")
    else:
        raise UsageError("no Schmidt coefficients: pass --alpha or an 'alpha' key")
    sv = SchmidtVector(alpha)
    f = functional_coefficients(sv)
    rep = certify(f, r, tol=config.tolerance)
    report = {
        "d": f.d,
        "alpha": [float(a) for a in sv.alpha],
        **rep.to_dict(),
        **_meta(config),
    }
    return (0 if rep.certified else 1), report


def _povm_reports(p: Povm, tol: float) -> tuple[dict, dict, bool]:
    v = validate_povm(p, tol)
    ok, info = is_extremal_rank_one(p)
    validation = {
        "hermiticity": [float(x) for x in v.hermiticity],
        "min_eigenvalues": [float(x) for x in v.min_eigenvalues],
        "completeness_residual": v.completeness_residual,
        "failures": list(v.failures),
        "passed": v.passed,
    }
    extremality = {
        "extremal": bool(ok),
        "gram_rank": int(info["gram_rank"]),
        "expected_rank": int(info["expected_rank"]),
    }
    return validation, extremality, bool(v.passed and ok)


def _run_povm(config: RunConfig) -> tuple[int, dict]:
    if config.extra["povm_action"] == "build":
        d = config.d
        if config.extra["kind"] == "partial":
            sv = _schmidt_vector(config)
            p = partial_povm(sv)
        else:
            if config.extra.get("fiducial"):
                nu = _parse_fiducial(config.extra["fiducial"], "--fiducial")
            else:
                nu = _seeded_fiducial(config)
            p = covariant_povm(d, nu)
        validation, extremality, passed = _povm_reports(p, config.tolerance)
        report = {
            "kind": config.extra["kind"],
            "d": d,
            "n_outcomes": p.n_outcomes,
            "elements": array_to_json(p.elements),
            "validation": validation,
            "extremality": extremality,
            **_meta(config),
        }
        return (0 if passed else 1), report
    p = povm_from_json(_load_json_file(config.extra["povm"]))
    validation, extremality, passed = _povm_reports(p, config.tolerance)
    report = {
        "n_outcomes": p.n_outcomes,
        "dim": p.dim,
        "validation": validation,
        "extremality": extremality,
        **_meta(config),
    }
    return (0 if passed else 1), report


def _run_randomness(config: RunConfig) -> tuple[int, dict]:
    sv = _schmidt_vector(config)
    rho = schmidt_state(sv).reduced((1,))
    source = config.extra["povm"]
    if source == "builtin:partial":
        p = partial_povm(sv)
    elif source == "builtin:covariant":
        p = covariant_povm(config.d, _seeded_fiducial(config))
    elif source.startswith("builtin:"):
        raise UsageError(f"--povm: unknown builtin {source!r}")
    else:
        p = povm_from_json(_load_json_file(source))
    if p.dim != sv.alpha.size:
        raise UsageError(f"--povm: dimension {p.dim} does not match d={sv.alpha.size}")
    rep = randomness_report(p, rho, tol=config.tolerance)
    report = {
        "d": int(sv.alpha.size),
        "alpha": [float(a) for a in sv.alpha],
        "povm": source,
        "n_outcomes": p.n_outcomes,
        **rep.to_dict(),
        **_meta(config),
    }
    return 0, report


def _run_bell3(config: RunConfig) -> tuple[int, dict]:
    value, r, used = seesaw_details(
        seed=config.seed, restarts=config.restarts, iters=config.extra["iters"]
    )
    schmidt = np.linalg.svd(r.state.amplitudes.reshape(3, 3), compute_uv=False)
    report = {
        "value": value,
        "threshold": BELL3_BOUND,
        "gap": value - BELL3_BOUND,
        "state_schmidt": [float(s) for s in schmidt],
        "iterations": used,
        "restarts": config.restarts,
        **_meta(config),
    }
    return 0, report


def _run_sweep(config: RunConfig) -> tuple[int, dict]:
    if config.d != 2:
        raise UsageError("--d: the sweep grid is the d=2 Schmidt-angle family")
    n = config.extra["theta_grid"]
    if n < 1:
        raise UsageError("--theta-grid: need at least one point")
    thetas = np.linspace(0.0, np.pi / 2.0, n + 2)[1:-1]

    rows = []
    for theta in thetas:
        sv = SchmidtVector(np.array([np.cos(theta), np.sin(theta)]))
        b = lhs_bound_exact(functional_coefficients(sv)).value
        rows.append({"theta": float(theta), "beta_l": b, "gap": 2.0 - b})
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


def _schema_key(config: RunConfig) -> str:
    if config.subcommand == "povm":
        return f"povm-{config.extra['povm_action']}"
    return config.subcommand


@functools.cache
def _validator(key: str):
    """The validator of SCHEMAS[key], with the schema itself checked once."""
    cls = jsonschema.validators.validator_for(SCHEMAS[key])
    cls.check_schema(SCHEMAS[key])
    return cls(SCHEMAS[key])


def _render(config: RunConfig, report: dict) -> str:
    error = jsonschema.exceptions.best_match(
        _validator(_schema_key(config)).iter_errors(report)
    )
    if error is not None:
        raise error
    if config.subcommand == "sweep" and config.fmt == "csv":
        lines = [
            f"# steercert {report['tool_version']} seed={report['seed']} "
            f"tolerance={report['tolerance']!r}",
            "theta,beta_l,gap",
        ]
        for row in report["rows"]:
            lines.append(f"{row['theta']!r},{row['beta_l']!r},{row['gap']!r}")
        return "\n".join(lines) + "\n"
    try:
        text = json.dumps(
            report, sort_keys=True, separators=(",", ": "), indent=2, allow_nan=False
        )
    except ValueError as e:
        raise DomainError(f"report is not strict JSON: {e}") from None
    return text + "\n"


def run(config: RunConfig) -> int:
    """Execute a parsed config and write its report; returns its exit code.

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
    except (UsageError, DomainError, SizeError, InvalidObservableError, ContractError) as e:
        print(f"steercert: error: {e}", file=sys.stderr)
        return 2
    except NotExtremalError as e:
        print(f"steercert: failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"steercert: i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
