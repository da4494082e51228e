"""Command-line front end: argparse, the subcommand handlers and exit codes.

Every subcommand emits a single JSON document (a sweep emits plot-ready
CSV rows unless given --format json) with the {tool_version, seed,
tolerance} triple included for reproducibility. Each handler returns an
exit code and a report, which report.render checks against the
subcommand's own schema and writes; nothing is written when the check
fails. A report holds the fields of the library's result dataclass as
vars() gives them, numpy arrays included, beside the subcommand's inputs
and the triple. Every JSON input, a realization or POVM file or the
--alpha and --fiducial flags, is read by serialize.

The argparse parser is built once per process. parse_args checks --seed,
--tolerance, --d and --alpha and returns the argparse namespace itself,
with --alpha decoded into a SchmidtVector; the handlers read its
attributes.

Exit codes: 0 success, 1 failed verdict, 2 usage error (an input too
large for memory among them), 3 I/O failure. In process, main returns
those codes; argparse usage errors and --version raise SystemExit, and a
report that fails its own schema raises report.SchemaError, since that
is a fault of the program.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys

import numpy as np

from . import __version__
from .bell3 import BELL3_BOUND, seesaw_details
from .errors import NotExtremalError, SteercertError, UsageError
from .measurements import Povm
from .povm import covariant_povm, is_extremal_rank_one, partial_povm, validate_povm
from .randomness import randomness_report
from .report import render
from .selftest import VERDICT_TOL, certify
from .serialize import (fiducial_from_flag, load_flag, load_povm_file, load_realization_file,
                        real_vector_from_json)
from .states import SchmidtVector, maximally_entangled, schmidt_state
from .steering import (
    functional_coefficients,
    lhs_bound_exact,
    lhs_bound_paper_upper,
    lhs_bound_rows,
    quantum_maximum,
)


def _add_common(sp):
    sp.add_argument("--tolerance", type=float, default=VERDICT_TOL)
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
    """The checked namespace of argv; --alpha, when given, is a SchmidtVector,
    so a bad one is refused before any file is read."""
    ns = _build_parser().parse_args(argv)
    if not 0 <= ns.seed < 2**63:
        raise UsageError(f"--seed: {ns.seed} is outside [0, 2**63)")
    if not 0.0 < ns.tolerance < 1.0:
        raise UsageError(f"--tolerance: {ns.tolerance} is outside (0, 1)")
    d = getattr(ns, "d", None)
    if d is not None and d < 2:
        raise UsageError(f"--d: need d >= 2, got {d}")
    if getattr(ns, "alpha", None) is not None:
        ns.alpha = SchmidtVector(real_vector_from_json(load_flag(ns.alpha, "--alpha"), "--alpha"))
        if d is not None and ns.alpha.d != d:
            raise UsageError(f"--alpha: length {ns.alpha.d} does not match --d {d}")
    return ns


def _schmidt_vector(config: argparse.Namespace) -> SchmidtVector:
    return maximally_entangled(config.d) if config.alpha is None else config.alpha


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
        "strategy": list(exact.strategy),
        **_meta(config),
    }
    return 0, report


# A scan of seeds 0..1999 at d = 2..12 found no fiducial drawn more than twice.
_MAX_FIDUCIAL_DRAWS = 8


def _seeded_covariant(config: argparse.Namespace) -> Povm:
    """The covariant POVM of the first fiducial drawn from --seed, a complex
    Gaussian, whose orbit passes the extremality test. The last
    NotExtremalError is raised after _MAX_FIDUCIAL_DRAWS draws."""
    rng, d = np.random.default_rng(config.seed), config.d
    for _ in range(_MAX_FIDUCIAL_DRAWS):
        try:
            return covariant_povm(d, rng.normal(size=d) + 1j * rng.normal(size=d))
        except NotExtremalError as e:
            error = e
    raise error


def _run_certify(config: argparse.Namespace) -> tuple[int, dict]:
    r, sv = load_realization_file(config.realization, config.alpha)
    if sv is None:
        raise UsageError("no Schmidt coefficients: pass --alpha or an 'alpha' key")
    f = functional_coefficients(sv)
    rep = certify(f, r, tol=config.tolerance)
    return (0 if rep.certified else 1), {"alpha": sv.alpha, **vars(rep), **_meta(config)}


def _povm_reports(p: Povm, tol: float) -> tuple[dict, dict, bool]:
    """p's validation report (vars of validate_povm's), extremality report
    and whether both pass.

    Both tests read the spectra p caches, so a POVM that covariant_povm
    has already tested solves no eigenproblem again here.
    """
    v = validate_povm(p, tol)
    ok, info = is_extremal_rank_one(p)
    extremality = {
        "extremal": bool(ok),
        "gram_rank": info["gram_rank"],
        "expected_rank": p.n_outcomes,
    }
    return vars(v), extremality, bool(v.passed and ok)


def _run_povm(config: argparse.Namespace) -> tuple[int, dict]:
    if config.povm_action == "check":
        p = load_povm_file(config.povm)
        report = {"dim": p.dim}
    else:
        unread = {"partial": "fiducial", "covariant": "alpha"}[config.kind]
        if getattr(config, unread) is not None:
            raise UsageError(f"--{unread}: --kind {config.kind} does not read it")
        if config.kind == "partial":
            p = partial_povm(_schmidt_vector(config))
        elif config.fiducial is not None:
            p = covariant_povm(config.d, fiducial_from_flag(config.fiducial, "--fiducial"))
        else:
            p = _seeded_covariant(config)
        report = {"kind": config.kind, "d": config.d, "elements": p.elements}
    validation, extremality, passed = _povm_reports(p, config.tolerance)
    report.update(n_outcomes=p.n_outcomes, validation=validation, extremality=extremality,
                  **_meta(config))
    return (0 if passed else 1), report


def _run_randomness(config: argparse.Namespace) -> tuple[int, dict]:
    sv = _schmidt_vector(config)
    rho = schmidt_state(sv).reduced((1,))
    source = config.povm
    if source == "builtin:partial":
        p = partial_povm(sv)
    elif source == "builtin:covariant":
        p = _seeded_covariant(config)
    elif source.startswith("builtin:"):
        raise UsageError(f"--povm: unknown builtin {source!r}")
    else:
        p = load_povm_file(source)
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
        **vars(rep),
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
    """Resolve `steercert.cli.json` and `steercert.cli.jsonschema` on demand
    (PEP 562).

    The benchmark's span installer reads these attributes to wrap json.load
    and jsonschema.validate. The program itself uses neither: jsonschema is
    a test and benchmark dependency only. The shim goes once that installer
    wraps report.render instead (ROADMAP item 9b).
    """
    if name in ("json", "jsonschema"):
        return importlib.import_module(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run(config: argparse.Namespace) -> int:
    """Run a parse_args namespace and write its report; returns its exit code.

    Input errors propagate as the package's exceptions; main maps them to
    the documented exit codes.
    """
    code, report = _HANDLERS[config.subcommand](config)
    text = render(_schema_key(config), report, getattr(config, "format", "json"))
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
    except (SteercertError, np.linalg.LinAlgError) as e:
        print(f"steercert: error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy names the array it could not allocate
        print(f"steercert: error: input too large for memory: {str(e) or 'MemoryError'}",
              file=sys.stderr)
        return 2
    except OSError as e:
        print(f"steercert: i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
