"""Extremal d^2-outcome POVMs and their certification from correlations.

Two constructions are provided. The covariant POVM orbits a fiducial
vector under the full Weyl-Heisenberg group; the partial construction
keeps d-2 projective elements locked to the Schmidt basis and spreads
the rest over phased vectors whose exponents come from a perfect
difference (Sidon) set mod d^2-d+1, which is what makes the element sum
telescope to the identity.

Certification compares the correlators <X^i Z^j (x) R_b> produced by an
unknown measurement on the physical state against the values the ideal
POVM produces on |psi(alpha)>; with the state and Alice's side already
certified, zero residuals pin the measurement down to the dressing
freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotExtremalError, SizeError
from .linalg import DEFAULT_TOL, Ket, dagger
from .measurements import Povm, _weyl_operators
from .states import SchmidtVector

# Relative cutoff of the rank-one and Gram-rank tests in is_extremal_rank_one.
EXTREMAL_TOL = 1e-8

# Phase exponent tables with the Sidon property mod d^2-d+1.
DEFAULT_PHASE_TABLES = {
    2: (0, 1),
    3: (0, 1, 3),
    4: (0, 1, 3, 9),
    5: (0, 1, 4, 14, 16),
    6: (0, 1, 3, 8, 12, 18),
}


def default_phase_table(d: int) -> tuple:
    """The built-in exponents xi_0..xi_{d-1} for d, a Sidon set mod d^2-d+1."""
    if d not in DEFAULT_PHASE_TABLES:
        covariant = ("the covariant POVM needs none: povm build --kind covariant, "
                     "randomness --povm builtin:covariant")
        if d == 7:
            raise DomainError(
                "no phase table exists for d=7: a perfect difference set mod 43 would give "
                f"a projective plane of order 6, which Bruck-Ryser rules out; {covariant}")
        raise DomainError(f"no built-in phase table for d={d} (have 2..6); {covariant}")
    return DEFAULT_PHASE_TABLES[d]


def sidon_check(xi: tuple) -> bool:
    """All pairwise differences xi_i - xi_j (i != j) distinct mod d^2-d+1, d = len(xi)."""
    d = len(xi)
    m = d * d - d + 1
    diffs = [(xi[i] - xi[j]) % m for i in range(d) for j in range(d) if i != j]
    return len(set(diffs)) == len(diffs)


def covariant_povm(d: int, nu) -> Povm:
    """d^2 elements (1/d) X^k Z^l |nu><nu| Z^-l X^-k, outcome b = d*k + l.

    Any unit fiducial gives a valid POVM (the Weyl-Heisenberg twirl is
    the identity channel up to trace); extremality additionally needs
    the d^2 orbit elements to be linearly independent, which degenerate
    fiducials such as basis vectors break. Those raise NotExtremalError
    with the achieved Gram rank. nu may have any finite nonzero scale: it
    is first scaled by the power of two that brings its largest real or
    imaginary part into [1/2, 1), which is exact, so its norm neither
    overflows nor underflows.
    """
    v = np.ascontiguousarray(nu, dtype=np.complex128).reshape(-1)
    if v.size != d:
        raise SizeError(f"fiducial has dim {v.size}, expected {d}")
    parts = v.view(np.float64)
    top = np.max(np.abs(parts))
    if top == 0:
        raise DomainError("fiducial vector is zero")
    v = np.ldexp(parts, -np.frexp(top)[1]).view(np.complex128)
    u = _weyl_operators(d) @ (v / np.linalg.norm(v))  # [d*k + l] -> X^k Z^l v
    p = Povm(u[:, :, None] * np.conj(u)[:, None, :] / d)
    ok, diag = is_extremal_rank_one(p)
    if not ok:
        raise NotExtremalError(
            f"covariant orbit has Gram rank {diag['gram_rank']} < {d * d}",
            rank=diag["gram_rank"],
            expected=d * d,
        )
    return p


def partial_povm(sv: SchmidtVector) -> Povm:
    """d^2-outcome extremal POVM matched to |psi(alpha)>.

    The first d-1 outcomes are weighted Schmidt-basis projectors with
    lambda_i = 1/(d^2 alpha_i^2), which needs alpha_i >= 1/d for those
    indices; the remaining d^2-d+1 outcomes share a common weight and
    phased vectors built from the exponents of default_phase_table(d).
    On the reduced state of |psi(alpha)> every outcome then has
    probability 1/d^2.
    """
    d = sv.d
    xi = np.asarray(default_phase_table(d))
    a = sv.alpha
    bad = [i for i in range(d - 1) if a[i] < 1.0 / d - 1e-12]
    if bad:
        raise DomainError(f"alpha indices {bad} are below 1/d; construction needs alpha_i >= 1/d for i <= d-2")
    m = d * d - d + 1
    lam = 1.0 / (d * d * a[: d - 1] ** 2)  # weights for i <= d-2
    lam_rest = (d - lam.sum()) / m
    mu = np.empty(d)
    mu[: d - 1] = np.sqrt(np.maximum(1.0 - lam, 0.0) / (m * lam_rest))
    mu[d - 1] = np.sqrt(1.0 / (m * lam_rest))
    els = np.zeros((d * d, d, d), dtype=np.complex128)
    for i in range(d - 1):
        els[i, i, i] = lam[i]
    for b in range(d - 1, d * d):
        phases = np.exp(2j * np.pi * xi * (b - d + 1) / m)
        delta = mu * phases
        els[b] = lam_rest * np.outer(delta, np.conj(delta))
    return Povm(els)


@dataclass(frozen=True)
class PovmValidationReport:
    """Per-element and aggregate validity diagnostics."""

    hermiticity: np.ndarray
    min_eigenvalues: np.ndarray
    completeness_residual: float
    failures: list
    passed: bool


def validate_povm(p: Povm, tol: float = DEFAULT_TOL) -> PovmValidationReport:
    """Report hermiticity, positivity within -tol and completeness within tol; NaN fails."""
    # Per element: a norm over the whole stack differs in the last bit.
    herm = np.array([np.linalg.norm(e - dagger(e)) for e in p.elements])
    mins = p.hermitian_eigenvalues[:, 0]
    failures = []
    for b in range(p.n_outcomes):
        if not herm[b] <= tol:
            failures.append(f"element {b}: hermiticity residual {herm[b]:.3e}")
        if not mins[b] >= -tol:
            failures.append(f"element {b}: eigenvalue {mins[b]:.3e}")
    comp = float(np.linalg.norm(p.elements.sum(axis=0) - np.eye(p.dim)))
    if not comp <= tol:
        failures.append(f"completeness residual {comp:.3e}")
    return PovmValidationReport(herm, mins, comp, failures, not failures)


def is_extremal_rank_one(p: Povm):
    """Rank-one test per element plus full-rank test of the Gram matrix.

    The Gram matrix G_{bb'} = Tr[I_b I_b'] has full rank exactly when the
    elements are linearly independent, which for rank-one elements is the
    extremality criterion. The second-to-top eigenvalue ratio of each
    element and the numerical Gram rank both use the relative cutoff
    EXTREMAL_TOL. The spectra are the ones p caches, so repeated tests of
    one Povm solve no eigenproblem twice.
    """
    n = p.n_outcomes
    vals = np.abs(p.hermitian_eigenvalues)
    top = vals[:, -1]
    second = vals[:, -2] if p.dim > 1 else np.zeros(n)
    ratios = np.full(n, np.inf)
    np.divide(second, top, out=ratios, where=top > 0)
    rank_violations = [b for b in range(n) if not ratios[b] <= EXTREMAL_TOL]
    sv = p.gram_singular_values
    rank = int(np.sum(sv > EXTREMAL_TOL * sv[0])) if sv[0] > 0 else 0
    diagnostics = {
        "second_eigenvalue_ratios": ratios,
        "rank_one_violations": rank_violations,
        "gram_rank": rank,
        "expected_rank": n,
    }
    ok = not rank_violations and rank == n
    return ok, diagnostics


def _povm_correlators(povm_elements: np.ndarray, psi3: np.ndarray, weyl: np.ndarray) -> np.ndarray:
    """<X^i Z^j (x) R_b (x) 1_E> for all (i, j, b); psi3 is (dA, dB, dE)."""
    # C_b = Tr_{B,E}[(1 (x) R_b (x) 1)|psi><psi|] as an operator on A.
    c = np.einsum("bij,mje,nie->bmn", povm_elements, psi3, np.conj(psi3))
    # value = Tr_A[G_ij C_b]
    return np.einsum("gmn,bnm->gb", weyl, c)


def theorem3_residuals(
    r_povm: Povm, ideal: Povm, psi: Ket, sv: SchmidtVector
) -> np.ndarray:
    """Correlator mismatch between a candidate POVM and the ideal one.

    residual[i, j, b] = |<X^i Z^j (x) R_b (x) 1_E>_psi
                         - <X^i Z^j (x) I_b>_psi(alpha)|.

    psi has factors (A, B', B'', E) with R acting on B' (x) B''; the
    reference side evaluates the ideal d-dimensional POVM on the bare
    |psi(alpha)>. Zero residuals are exactly the Theorem-3 premise.
    """
    d = sv.d
    if len(psi.factor_dims) != 4:
        raise SizeError("psi must have factors (A, B', B'', E)")
    da, db1, db2, de = psi.factor_dims
    if da != d or db1 != d:
        raise SizeError(f"factors (A, B') = ({da}, {db1}) must both be d = {d}")
    if ideal.n_outcomes != r_povm.n_outcomes:
        raise SizeError(
            f"outcome mismatch: ideal {ideal.n_outcomes}, candidate {r_povm.n_outcomes}"
        )
    if ideal.dim != d:
        raise SizeError(f"ideal POVM dim {ideal.dim} != {d}")
    if r_povm.dim != db1 * db2:
        raise SizeError(f"candidate POVM dim {r_povm.dim} != {db1 * db2}")
    weyl = _weyl_operators(d)
    psi3 = psi.amplitudes.reshape(da, db1 * db2, de)
    measured = _povm_correlators(r_povm.elements, psi3, weyl)
    alpha_amps = np.zeros(d * d, dtype=np.complex128)
    alpha_amps[np.arange(d) * d + np.arange(d)] = sv.alpha
    ref3 = alpha_amps.reshape(d, d, 1)
    reference = _povm_correlators(ideal.elements, ref3, weyl)
    res = np.abs(measured - reference)
    return res.reshape(d, d, ideal.n_outcomes)
