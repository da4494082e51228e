"""Certification of realizations from maximal steering violation.

Maximal violation forces a family of algebraic identities: the value
itself, projectivity of Bob's observables, the stabilizer relations
that pin the state, the twisted commutation relation between Bob's two
observables on the state support, and positivity of the diagonal
operator whose spectrum gamma * sum_i alpha_i / alpha_l certifies the
Schmidt coefficients. The value and the stabilizer relations come from
the same local terms, so certify() applies each term to the state once
(steering._walk_terms). It checks the identities as one table at one
tolerance, except the two that its tolerance guard implies (see certify):
the value above beta_l_upper and a positive diagonal operator. Beside
the residuals it reports how close the state is to |psi(alpha)> after
Bob's swap isometry, the local isometry the self-test says exists. It
returns a verdict: failures are data. Only malformed input raises (a
tolerance outside (0, 1) or too loose to exclude every LHS model, fewer
than two observables on a side), and every row fails closed, so a NaN
residual is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .linalg import DEFAULT_TOL, failed_checks
from .measurements import _require_projective, generalized_pauli, is_projective, omega, root_powers
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
    _require_projective([g.operators for g in r.bob_observables[:2]], tol)
    return _commutation_residual(r)


def _commutation_residual(r: Realization) -> float:
    """commutation_residual without its projectivity precondition check."""
    b0, b1 = (g.operators[1] for g in r.bob_observables[:2])
    da, db = r.state.factor_dims[0], r.state.factor_dims[1]
    comm = b0 @ b1 - (1.0 / omega(r.d)) * b1 @ b0
    return float(np.linalg.norm(comm @ r.state.amplitudes.reshape(da, db, -1)))


def _extracted_fidelity(r: Realization, alpha: np.ndarray) -> float | None:
    """<psi(alpha)| Tr_junk,E[(1 (x) Phi)|psi><psi|(1 (x) Phi)^dagger] |psi(alpha)>.

    Phi(phi) = sum_a |a> (x) B_1^-a P_a phi is Bob's swap isometry, with
    P_a = (1/d) sum_k omega^(ak) B_{k|0} the eigenprojector of B_0 for
    omega^-a, so the fidelity is ||sum_a alpha_a B_{d-a|1} P_a psi[a]||^2,
    psi[a] being Alice's row a of the amplitudes. Phi is an isometry only
    for a projective pair, which the caller has checked, and B_{d-a|1} is
    then B_1^-a. None when Alice's space is not C^d.
    """
    d, (da, db) = r.d, r.state.factor_dims[:2]
    if da != d:
        return None
    b0, b1 = (g.operators for g in r.bob_observables[:2])
    psi = r.state.amplitudes.reshape(d, db, -1).transpose(1, 0, 2).reshape(db, -1)
    # B_{k|0} psi[a] for every k and a in one product, as [k, i, a, e]
    moved = (b0.reshape(d * db, db) @ psi).reshape(d, db, d, -1)
    phases = root_powers(d, np.arange(d), np.arange(d)) * (alpha / d)[:, None]  # [a, k]
    w = np.einsum("ak,kiae->aie", phases, moved)  # alpha_a P_a psi[a]
    v = (b1 @ w[-np.arange(d) % d]).sum(axis=0)  # sum_k B_{k|1} w[-k]
    return float(np.vdot(v, v).real)


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
    """Everything certify() measured, plus the verdict: the certify
    report's fields as it writes them, so the CLI writes vars() of it.
    lhs_gap is value - beta_l_upper. alice_residual holds the Frobenius
    distance of each of Alice's two observables from the trusted Z, X,
    None for one of another shape. projectivity holds
    {"projective": bool, "residual": worst residual} per Bob observable.
    extracted_fidelity is the fidelity with |psi(alpha)> after Bob's swap
    isometry (_extracted_fidelity), a figure of this realization, not a
    device-independent bound. With Alice on C^d it is None exactly when
    commutation_residual is; with Alice on another space, always. It is no
    check, so it has no part in the verdict."""

    d: int
    tolerance: float
    value: float
    value_gap: float
    lhs_gap: float
    alice_residual: list
    stabilizer_residuals: np.ndarray
    s_residual: float
    commutation_residual: float | None
    extracted_fidelity: float | None
    projectivity: list
    ztilde_min_eig: float
    verdict: str
    failures: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def certify(f: SteeringFunctional, r: Realization, tol: float = VERDICT_TOL) -> CertReport:
    """Run every check the maximal-violation argument needs, at one tol.

    A tol at or above d - beta_l_upper raises DomainError: the value test
    value_gap <= tol would then pass a value that an LHS model reaches.
    A value above d + DEFAULT_TOL, beyond the trusted Alice's maximum d,
    fails. The bound, the maximum and the self-test hold only for Alice's
    trusted Z, X on C^d, so Alice observables farther than tol from them
    in Frobenius norm, or of another shape, fail too. Each check is a row
    of one table (linalg.failed_checks), so a NaN residual fails.

    The guard implies two identities, which therefore have no row:
    - a value that passes value_gap is above beta_l_upper: rounding is
      monotone, so fl(d - value) <= tol < fl(d - beta_l_upper) implies it;
    - Z~ is positive: its least eigenvalue is gamma S / alpha_max with
      S = sum_i alpha_i, and Alice's hidden state e_a, a = argmax alpha, is
      an LHS strategy of value d + gamma - gamma S / alpha_max, so in exact
      arithmetic ztilde_min > d - beta_L >= d - beta_l_upper > tol.

    The commutation residual and the extracted fidelity are only
    evaluated when both Bob observables pass projectivity (their
    precondition); the verdict is already failed otherwise and both fields
    are reported as None.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance {tol} is outside (0, 1)")
    beta_l = lhs_bound_paper_upper(f).value
    if not tol < f.d - beta_l:
        raise DomainError(
            f"tolerance {tol} is at or above d - beta_l_upper = {f.d - beta_l:.6g}, where "
            "value_gap <= tolerance cannot tell a quantum device from an LHS model"
        )
    value, per_k, s_res = _walk_terms(f, r)
    gap = f.d - value

    def above(label, res):
        return lambda: f"{label} {float(res)!r} > {float(tol)!r}"

    rows = [
        ("value_gap", gap, tol, above("value_gap", gap)),
        ("quantum_maximum", value, f.d + DEFAULT_TOL,
         lambda: f"value {value!r} is above the quantum maximum {f.d}"),
    ]
    alice = []
    for i, (a, kind) in enumerate(zip(r.alice_observables[:2], "ZX")):
        res = (float(np.linalg.norm(a - generalized_pauli(f.d, kind))) if a.shape == (f.d, f.d)
               else np.inf)
        alice.append(res if res < np.inf else None)  # strict JSON has no inf
        rows.append(("alice", res, tol, lambda i=i, kind=kind, res=res:
                     f"Alice observable {i} is not the trusted {kind} (residual {res:.3e})"))
    proj = []
    for i, g in enumerate(r.bob_observables[:2]):
        ok, res = is_projective(g, tol)
        worst = float(np.max([*res.values()]))  # a NaN residual is the worst
        proj.append({"projective": ok, "residual": worst})
        rows.append(("projectivity", worst, tol, lambda i=i, worst=worst:
                     f"Bob observable {i} projectivity residual {worst:.3e}"))
    stab = np.max(per_k)
    rows += [
        ("stabilizer", stab, tol, above("stabilizer residual", stab)),
        ("s_residual", s_res, tol, above("s_residual", s_res)),
    ]
    comm = fidelity = None
    if all(p["projective"] for p in proj):
        comm = _commutation_residual(r)
        rows.append(("commutation", comm, tol, above("commutation residual", comm)))
        fidelity = _extracted_fidelity(r, f.sv.alpha)
    failures = failed_checks(rows)
    return CertReport(
        d=f.d, tolerance=tol, value=value, value_gap=gap, lhs_gap=value - beta_l,
        alice_residual=alice, stabilizer_residuals=per_k, s_residual=s_res,
        commutation_residual=comm, extracted_fidelity=fidelity, projectivity=proj,
        ztilde_min_eig=float(np.min(ztilde_spectrum(f))),
        verdict="failed" if failures else "certified", failures=failures,
    )

