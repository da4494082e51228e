"""Certification of realizations from maximal steering violation.

Maximal violation forces a family of algebraic identities: the value
itself, projectivity of Bob's observables, the stabilizer relations
that pin the state, the twisted commutation relation between Bob's two
observables on the state support, and positivity of the diagonal
operator whose spectrum gamma * sum_i alpha_i / alpha_l certifies the
Schmidt coefficients. The value and the stabilizer relations come from
the same local terms, so certify() applies each term to the state once
(steering._walk_terms). It checks every identity at one tolerance and
returns a verdict: failures are data. Only malformed input raises (a
tolerance outside (0, 1) or too loose to exclude every LHS model, fewer
than two observables on a side), and every check fails closed, so a NaN
residual is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .linalg import dagger, range_basis
from .measurements import (
    generalized_pauli, is_projective, omega, root_powers, unitary_observable_povm,
)
from .states import Realization
from .steering import SteeringFunctional, _walk_terms, lhs_bound_paper_upper

VERDICT_TOL = 1e-7


def stabilizer_residuals(f: SteeringFunctional, r: Realization):
    """Residuals of the relations the ideal pair satisfies exactly.

    per_k[k-1] measures (A_0^k (x) B_{k|0})|psi> = |psi> for k = 1..d-1;
    s_residual measures the combined relation built from the second
    setting and the delta coefficients. Both come from the walk that also
    gives the value, steering._walk_terms.
    """
    return _walk_terms(f, r)[1:]


def commutation_residual(r: Realization, tol: float = VERDICT_TOL) -> float:
    """|| (B_0 B_1 - omega^-1 B_1 B_0) sqrt(rho_B) ||_F.

    The twisted commutation relation only holds on the support of Bob's
    reduced state, so the residual is weighted by sqrt(rho_B) rather
    than evaluated as an operator identity. Requires projective Bob
    observables.

    With C the commutator, ||C sqrt(rho_B)||_F^2 = Tr[C rho_B C^dagger]
    = ||(1 (x) C (x) 1_E)|psi>||^2, so the residual is taken on the state
    and rho_B is never formed.
    """
    for i, g in enumerate(r.bob_observables[:2]):
        ok, res = is_projective(g, tol)
        if not ok:
            raise ContractError(
                f"Bob observable {i} is not projective (residuals {res})"
            )
    return _commutation_residual(r)


def _commutation_residual(r: Realization) -> float:
    """commutation_residual without its projectivity precondition check."""
    b0, b1 = (g.operators[1] for g in r.bob_observables[:2])
    da, db = r.state.factor_dims[0], r.state.factor_dims[1]
    comm = b0 @ b1 - (1.0 / omega(r.d)) * b1 @ b0
    return float(np.linalg.norm(comm @ r.state.amplitudes.reshape(da, db, -1)))


def ztilde_spectrum(f: SteeringFunctional) -> np.ndarray:
    """Eigenvalues of (1+gamma) 1 - sum_{k>=1} delta_k Z^k, in basis order.

    The operator is diagonal in the Schmidt basis; its l-th eigenvalue
    must come out as gamma * sum_i alpha_i / alpha_l, strictly positive,
    which is what makes the stabilizer relations actually pin the state.
    """
    d = f.d
    vals = (1.0 + f.gamma) - root_powers(d, np.arange(d), np.arange(1, d)) @ f.delta[1:]
    return vals.real


@dataclass(frozen=True)
class CertReport:
    """Everything certify() measured, plus the verdict."""

    d: int
    tolerance: float
    value: float
    value_gap: float
    stabilizer_residuals: np.ndarray
    s_residual: float
    commutation_residual: float | None
    projectivity: list
    ztilde_min_eig: float
    verdict: str
    failures: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "tolerance": self.tolerance,
            "value": self.value,
            "value_gap": self.value_gap,
            "stabilizer_residuals": [float(v) for v in self.stabilizer_residuals],
            "s_residual": self.s_residual,
            "commutation_residual": self.commutation_residual,
            "projectivity": [
                {"projective": bool(ok), "residual": float(res)}
                for ok, res in self.projectivity
            ],
            "ztilde_min_eig": self.ztilde_min_eig,
            "verdict": self.verdict,
            "failures": list(self.failures),
        }


def certify(f: SteeringFunctional, r: Realization, tol: float = VERDICT_TOL) -> CertReport:
    """Run every check the maximal-violation argument needs, at one tol.

    A tol at or above d - beta_l_upper raises DomainError: the value test
    value_gap <= tol would then pass a value that an LHS model reaches.
    Below it, a value within tol of d is above beta_l_upper; that is also
    checked, so roundoff cannot certify a value at the LHS bound.

    The commutation residual is only evaluated when both Bob observables
    pass projectivity (its precondition); the verdict is already failed
    in that case and the field is reported as None.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance {tol} is outside (0, 1)")
    beta_l = lhs_bound_paper_upper(f).value
    if not tol < f.d - beta_l:
        raise DomainError(
            f"tolerance {tol} is at or above d - beta_l_upper = {f.d - beta_l:.6g}, where "
            "value_gap <= tolerance cannot tell a quantum device from an LHS model"
        )
    failures: list[str] = []
    value, per_k, s_res = _walk_terms(f, r)
    gap = f.d - value
    if not gap <= tol:
        failures.append(f"value_gap {gap:.3e} > {tol:.1e}")
    elif not value > beta_l:  # a NaN value has already failed on its gap
        failures.append(f"value {value!r} is not above beta_l_upper {beta_l!r}")
    proj = []
    for i, g in enumerate(r.bob_observables[:2]):
        ok, res = is_projective(g, tol)
        worst = max(res.values())
        proj.append((ok, worst))
        if not ok:
            failures.append(f"Bob observable {i} projectivity residual {worst:.3e}")
    if not np.max(per_k) <= tol:
        failures.append(f"stabilizer residual {np.max(per_k):.3e} > {tol:.1e}")
    if not s_res <= tol:
        failures.append(f"s_residual {s_res:.3e} > {tol:.1e}")
    comm = None
    if all(ok for ok, _ in proj):
        comm = _commutation_residual(r)
        if not comm <= tol:
            failures.append(f"commutation residual {comm:.3e} > {tol:.1e}")
    ztilde_min = float(np.min(ztilde_spectrum(f)))
    if not ztilde_min > tol:
        failures.append(f"ztilde min eigenvalue {ztilde_min:.3e} not positive")
    verdict = "certified" if not failures else "failed"
    return CertReport(
        d=f.d,
        tolerance=tol,
        value=value,
        value_gap=gap,
        stabilizer_residuals=per_k,
        s_residual=s_res,
        commutation_residual=comm,
        projectivity=proj,
        ztilde_min_eig=ztilde_min,
        verdict=verdict,
        failures=failures,
    )


def extract_bob_unitary(r: Realization, tol: float = 1e-8) -> np.ndarray:
    """Unitary taking Bob's observables to (Z* (x) 1, X (x) 1) exactly.

    Only defined for realizations whose Bob pair is exactly block
    diagonalizable: B_0's eigenspaces must all have the same dimension
    and B_1 must cycle them. The basis of the first eigenspace is
    canonical (Gram-Schmidt on projector columns) and transported by
    powers of B_1, so the output is deterministic. Inputs that are
    merely close to block-diagonal raise ContractError.
    """
    for i, g in enumerate(r.bob_observables[:2]):
        ok, res = is_projective(g, tol)
        if not ok:
            raise ContractError(f"Bob observable {i} not projective: {res}")
    d = r.d
    db = r.bob_observables[0].dim
    if db % d != 0:
        raise ContractError(f"Bob dimension {db} is not a multiple of {d}")
    mult = db // d
    b0, b1 = (g.operators[1] for g in r.bob_observables[:2])
    projs = unitary_observable_povm(b0, d, tol).elements
    # eigenvalue omega^-a of B_0 plays the role of Z* on sector a
    sectors = [projs[(-a) % d] for a in range(d)]
    for a, p in enumerate(sectors):
        rk = float(np.trace(p).real)
        if abs(rk - mult) > tol * db:
            raise ContractError(
                f"eigenspace {a} has dimension {rk:.6f}, expected {mult}"
            )
    q = range_basis(sectors[0], mult)
    blocks = [q]
    for a in range(1, d):
        q = b1 @ q
        # B_1 must map sector a-1 into sector a for the pattern to close.
        if np.linalg.norm(sectors[a] @ q - q) > tol * np.sqrt(db):
            raise ContractError("Bob pair is not exactly block-diagonalizable")
        blocks.append(q)
    u = np.zeros((db, db), dtype=np.complex128)
    for a in range(d):
        for j in range(mult):
            u[a * mult + j, :] = np.conj(blocks[a][:, j])
    z = generalized_pauli(d, "Z")
    x = generalized_pauli(d, "X")
    eye_m = np.eye(mult)
    if np.linalg.norm(u @ b0 @ dagger(u) - np.kron(np.conj(z), eye_m)) > tol * db:
        raise ContractError("extracted unitary does not canonicalize B_0")
    if np.linalg.norm(u @ b1 @ dagger(u) - np.kron(x, eye_m)) > tol * db:
        raise ContractError("extracted unitary does not canonicalize B_1")
    return u
