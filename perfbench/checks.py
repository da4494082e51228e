"""Checks of every CLI output against answers computed apart from the program.

check() takes one operation of a cycle (kind, argv, expect) and what the
CLI call did (exit code, escaped exception, captured stdout). It returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import BELL3_BOUND, BELL3_MAX, lhs_closed_form

TOL = 1e-9


class Wrong(Exception):
    pass


def _reject_constant(name):
    raise Wrong(f"report holds the non-JSON constant {name}")


def _report(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise Wrong(f"output is not JSON ({e.msg})") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _close(got, want, what: str, tol: float = TOL) -> None:
    _expect(
        isinstance(got, (int, float)) and abs(got - want) <= tol,
        f"{what} = {got!r}, expected {want!r} within {tol:g}",
    )


def _exit(code, want: int) -> None:
    _expect(code == want, f"exit code {code!r}, expected {want}")


def _certify(op, code, text):
    e = op["expect"]
    rep = _report(text)
    _expect(rep.get("d") == e["d"], f"d = {rep.get('d')!r}, expected {e['d']}")
    if e["honest"]:
        _exit(code, 0)
        _expect(rep.get("verdict") == "certified", f"honest device got {rep.get('verdict')!r}")
        _close(rep.get("value"), float(e["d"]), "value")
    else:
        _exit(code, 1)
        _expect(rep.get("verdict") == "failed", f"tampered device got {rep.get('verdict')!r}")
        _close(rep.get("value"), e["value"], "value")


def _bounds(op, code, text):
    e = op["expect"]
    _exit(code, 0)
    rep = _report(text)
    d = e["d"]
    _expect(rep.get("d") == d, f"d = {rep.get('d')!r}, expected {d}")
    _close(rep.get("beta_q"), float(d), "beta_q", 0.0)
    _close(rep.get("gamma"), e["gamma"], "gamma")
    exact = rep.get("beta_l_exact")
    _close(exact, e["beta_l"], "beta_l_exact")
    _expect(exact < d, f"beta_l_exact {exact!r} is not below d = {d}")
    upper = rep.get("beta_l_upper")
    _expect(
        isinstance(upper, float) and upper >= exact - TOL,
        f"beta_l_upper {upper!r} is below beta_l_exact {exact!r}",
    )


def _sweep(op, code, text):
    n = op["expect"]["n"]
    _exit(code, 0)
    lines = text.splitlines()
    _expect(len(lines) == n + 2 and lines[0].startswith("# steercert"), "malformed sweep CSV")
    _expect(lines[1] == "theta,beta_l,gap", f"sweep header {lines[1]!r}")
    thetas = np.linspace(0.0, math.pi / 2.0, n + 2)[1:-1]
    for line, theta in zip(lines[2:], thetas):
        try:
            t, beta_l, gap = (float(v) for v in line.split(","))
        except ValueError:
            raise Wrong(f"malformed sweep row {line!r}") from None
        _close(t, float(theta), "theta", 1e-15)
        _close(beta_l, lhs_closed_form(np.array([math.cos(t), math.sin(t)])), "beta_l")
        _close(gap, 2.0 - beta_l, "gap", 1e-12)


def _elements(rep) -> np.ndarray:
    try:
        a = np.asarray(rep["elements"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise Wrong("POVM elements are missing or ragged") from None
    _expect(a.ndim == 4 and a.shape[-1] == 2, f"POVM elements have shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def check_povm_elements(els: np.ndarray, alpha) -> None:
    """PSD, complete, rank one, linearly independent; 1/d^2 on rho_B(alpha)."""
    n, d, _ = els.shape
    _expect(n == d * d, f"{n} elements for d = {d}")
    herm = max(float(np.linalg.norm(e - np.conj(e).T)) for e in els)
    _expect(herm <= TOL, f"element not Hermitian (residual {herm:.3e})")
    eig = np.linalg.eigvalsh((els + np.conj(np.transpose(els, (0, 2, 1)))) / 2)
    _expect(eig[:, 0].min() >= -TOL, f"element eigenvalue {eig[:, 0].min():.3e}")
    _expect(eig[:, -2].max() <= TOL, f"element not rank one (second eigenvalue {eig[:, -2].max():.3e})")
    comp = float(np.linalg.norm(els.sum(axis=0) - np.eye(d)))
    _expect(comp <= TOL, f"elements sum to identity only within {comp:.3e}")
    flat = els.reshape(n, -1)
    s = np.linalg.svd(flat @ np.conj(flat).T, compute_uv=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    _expect(rank == n, f"Gram rank {rank}, expected {n}")
    probs = np.einsum("bii,i->b", els, np.asarray(alpha) ** 2).real
    worst = float(np.max(np.abs(probs - 1.0 / n)))
    _expect(worst <= TOL, f"outcome probability off 1/d^2 by {worst:.3e}")


def _povm_verdicts(rep, n: int) -> None:
    _expect(rep.get("validation", {}).get("passed") is True, "validation did not pass")
    ext = rep.get("extremality", {})
    _expect(ext.get("extremal") is True, "POVM not reported extremal")
    _expect(ext.get("gram_rank") == n, f"gram_rank {ext.get('gram_rank')!r}, expected {n}")


def _povm_build(op, code, text):
    e = op["expect"]
    _exit(code, 0)
    rep = _report(text)
    d = e["d"]
    _expect(rep.get("n_outcomes") == d * d, f"n_outcomes {rep.get('n_outcomes')!r}")
    _povm_verdicts(rep, d * d)
    check_povm_elements(_elements(rep), e["alpha"])


def _povm_check(op, code, text):
    d = op["expect"]["d"]
    _exit(code, 0)
    rep = _report(text)
    _expect(rep.get("n_outcomes") == d * d and rep.get("dim") == d, "wrong POVM size")
    _povm_verdicts(rep, d * d)
    _close(rep["validation"].get("completeness_residual"), 0.0, "completeness_residual")


def _randomness(op, code, text):
    d = op["expect"]["d"]
    _exit(code, 0)
    rep = _report(text)
    probs = rep.get("outcome_probs")
    _expect(isinstance(probs, list) and len(probs) == d * d, "wrong number of outcome probabilities")
    for p in probs:
        _close(p, 1.0 / d**2, "outcome probability")
    _close(rep.get("guessing_probability"), 1.0 / d**2, "guessing_probability")
    _close(rep.get("min_entropy_bits"), 2.0 * math.log2(d), "min_entropy_bits")
    _expect(rep.get("uniform") is True, "outcomes not reported uniform")


def _bell3(op, code, text):
    _exit(code, 0)
    rep = _report(text)
    value = rep.get("value")
    _expect(
        isinstance(value, float) and BELL3_BOUND < value <= BELL3_MAX,
        f"see-saw value {value!r} outside ({BELL3_BOUND}, {BELL3_MAX}]",
    )
    _close(rep.get("threshold"), BELL3_BOUND, "threshold", 1e-12)
    _expect(rep.get("restarts") == op["expect"]["restarts"], "restarts not echoed")


_CHECKS = {
    "certify": _certify,
    "bounds": _bounds,
    "sweep": _sweep,
    "povm_build": _povm_build,
    "povm_check": _povm_check,
    "randomness": _randomness,
    "bell3": _bell3,
}


def check(op: dict, code, exc, text: str) -> str | None:
    """None if the call did what it must, else the reason it did not."""
    if op["kind"] == "certify_nan":
        # A NaN amplitude is a usage error: exit 2, no traceback, no report.
        if exc is not None:
            return f"{exc} escaped cli.main"
        if code != 2 or "certified" in text:
            return f"exit code {code!r} with output {text[:60]!r}"
        return None
    if exc is not None:
        return f"{exc} escaped cli.main"
    try:
        _CHECKS[op["kind"]](op, code, text)
    except Wrong as e:
        return str(e)
    return None
