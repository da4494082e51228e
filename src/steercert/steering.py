"""Steering functional, quantum value and local-hidden-state bounds.

For Schmidt coefficients alpha the functional

    sum_{k=1}^{d-1} <A_0^k B_{k|0}> + gamma <A_1^k B_{k|1}> + delta_k <A_0^k>

with A_0 = Z, A_1 = X reaches d exactly on the ideal realization and is
bounded away from d for every LHS assemblage. The exact LHS bound is the
max over Bob's deterministic responses of the best hidden-state value; the
paper's closed-form upper bound is

    max_eta  d max_a eta_a^2 + gamma ((sum eta)^2 - sum_i alpha_i sum_a eta_a^2/alpha_a)

over nonnegative unit vectors eta. With Alice's ideal observables both
equal max_a lambda_max(Q_a) for d explicit d x d matrices, attained at
a = argmax alpha (proof in _branch_perron); lhs_bound_paper_upper adds
the eigensolver's roundoff margin so that it is a certified bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .linalg import apply_local
from .measurements import _powers, omega, unitary_observable_povm
from .states import Realization, SchmidtVector


@dataclass(frozen=True)
class SteeringFunctional:
    """Coefficients (gamma, delta_k) attached to a Schmidt vector."""

    sv: SchmidtVector
    gamma: float
    delta: np.ndarray

    def __post_init__(self):
        dl = np.asarray(self.delta, dtype=np.complex128).reshape(-1)
        if dl.size != self.sv.d:
            raise SizeError(f"delta has length {dl.size}, expected {self.sv.d}")
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if abs(dl[0] + 1.0) > 1e-12:
            raise DomainError(f"delta_0 = {dl[0]} != -1")
        d = self.sv.d
        for k in range(1, d):
            if abs(dl[d - k] - np.conj(dl[k])) > 1e-12:
                raise DomainError(f"delta_{d - k} != conj(delta_{k})")
        object.__setattr__(self, "delta", dl)

    @property
    def d(self) -> int:
        return self.sv.d


def functional_coefficients(sv: SchmidtVector) -> SteeringFunctional:
    """gamma = d / sum_{i!=j} alpha_i/alpha_j and the matching delta_k.

    delta_k = -(gamma/d) sum_{i!=j} (alpha_i/alpha_j) omega^{k(d-j)}; the
    i-sum only enters through column sums, so everything reduces to a
    single Fourier sum over j. delta_0 = -1 follows identically.
    """
    a = sv.alpha
    d = sv.d
    total = float(a.sum())
    # col_j = sum_{i != j} alpha_i/alpha_j
    col = total / a - 1.0
    s = float(col.sum())
    gamma = d / s
    w = omega(d)
    ks = np.arange(d)
    phases = w ** (-np.outer(ks, np.arange(d)))  # [k, j], omega^{k(d-j)}
    delta = -(gamma / d) * phases @ col.astype(np.complex128)
    return SteeringFunctional(sv, gamma, delta)


def quantum_maximum(f: SteeringFunctional) -> float:
    """The quantum value of the functional is d, reached by the ideal pair."""
    return float(f.d)


def _terms(f: SteeringFunctional, r: Realization):
    """The functional's local terms, one group of three for each k = 1..d-1.

    Each group is ((1, A_0^k, B_{k|0}), (gamma, A_1^k, B_{k|1}),
    (delta_k, A_0^k, 1_B)) as (coefficient, Alice matrix, Bob matrix); the
    first term alone is a stabilizer of the ideal state, the other two
    together make the S relation.
    """
    if r.d != f.d:
        raise SizeError(f"realization has {r.d} outcomes, functional {f.d}")
    if len(r.alice_observables) < 2 or len(r.bob_observables) < 2:
        raise SizeError("the functional needs 2 Alice and 2 Bob observables")
    alice = zip(*(_powers(a, f.d) for a in r.alice_observables[:2]))
    next(alice)  # k = 0, the identity, is no term
    b0, b1 = r.bob_observables[0].operators, r.bob_observables[1].operators
    eye_b = np.eye(b0.shape[1])
    for k, (a0k, a1k) in enumerate(alice, start=1):
        yield (1.0, a0k, b0[k]), (f.gamma, a1k, b1[k]), (f.delta[k], a0k, eye_b)


def steering_operator(f: SteeringFunctional, r: Realization) -> np.ndarray:
    """Assemble the functional as an operator on Alice (x) Bob.

    An Eve factor of the realization is not included. Only callers that
    need the matrix use this; evaluate() applies the terms to the state.
    """
    da, db = r.state.factor_dims[0], r.state.factor_dims[1]
    op = np.zeros((da * db, da * db), dtype=np.complex128)
    for group in _terms(f, r):
        for coef, a, b in group:
            op += coef * np.kron(a, b)
    return op


def evaluate(f: SteeringFunctional, r: Realization) -> float:
    """<psi| functional (x) 1_E |psi> for the realization, Eve traced out."""
    psi = r.state.amplitudes
    val = sum(
        coef * np.vdot(psi, apply_local(a, b, r.state))
        for group in _terms(f, r)
        for coef, a, b in group
    )
    return float(val.real)


@dataclass(frozen=True)
class LhsOptimum:
    """Result of an LHS-bound computation."""

    value: float
    method: str
    strategy: tuple | None = None
    eta: np.ndarray | None = None


def _alice_projector_families(f: SteeringFunctional, alice_observables):
    """Eigenprojector families {P_x[a]} for Alice's two explicit observables."""
    fams = [unitary_observable_povm(obs, f.d).elements for obs in alice_observables]
    return fams[0], fams[1]


# Roundoff margin of a computed top eigenvalue of Q_a, in units of
# d * eps * scale with scale = gamma d + gamma S ||1/alpha||_2 + d, which bounds
# ||Q_a||_F >= ||Q_a||_2 and the unsummed terms of every entry. Forming the
# entries costs at most (d + 3) eps * scale in Frobenius norm (a d-term sum, a
# quotient, a difference, a product, the + d). LAPACK's symmetric eigensolver
# is backward stable, so by Weyl's inequality it adds at most
# p(d) eps ||Q_a||_2, taking p(d) <= d for LAPACK's "modestly growing" p(n).
# (2d + 3) eps * scale <= 4 d eps * scale for d >= 2.
_EIG_MARGIN_C = 4.0


def _branch_perron(f: SteeringFunctional):
    """Best branch of the LHS bound with its top eigenpair, in closed form.

    With Alice's ideal Z, X (eigenprojectors e_a e_a^T and the Fourier
    projectors F_a), Bob's deterministic responses (b0, b1) give the
    strategy matrix

        M(b0, b1) = d e_a e_a^T + gamma d F_{-b1} - gamma S diag(1/alpha),

    a = -b0 mod d, S = sum(alpha). Its top eigenvalue is the best
    hidden-state value for that strategy. Three facts reduce the d^2
    strategies to one eigenproblem.

    Bob's second response b1 does not change the bound: conjugating by
    Z^k fixes every diagonal matrix (so diag(1/alpha) and Alice's Z
    projectors) and maps F_c to F_{c-k}, so M(b0, b1) is unitarily
    equivalent to M(b0, 0) =: Q_a, with

        Q_a = gamma (11^T - S diag(1/alpha)) + d e_a e_a^T.

    The constraint eta >= 0 of the paper's bound is never active: its
    objective on branch a, d eta_a^2 + gamma((sum eta)^2 - S sum eta^2/alpha),
    is the quadratic form eta^T Q_a eta. Every off-diagonal entry of Q_a is
    gamma > 0, so Q_a + c 1 is entrywise positive for large c and, by
    Perron-Frobenius, the top eigenvector of Q_a is entrywise positive
    (up to sign). Maximizing over a, the paper's upper bound over
    nonnegative unit eta (where max_a eta_a^2 picks the branch) and the
    exact bound over all (b0, b1) are both max_a lambda_max(Q_a).

    The largest alpha_a gives the largest branch. Q_a = diag(D) + gamma 11^T
    with D = c + d e_a, c_i = -gamma S / alpha_i, so lambda_max(Q_a) is the
    unique root above max(D) of phi_a(l) = gamma sum_i 1/(l - D_i) = 1, and
    phi_a decreases there. Take c_a >= c_b. If lambda_b <= c_a + d then
    lambda_a > c_a + d >= lambda_b. Otherwise lambda_b lies above max(D) for
    both branches and phi_a(lambda_b) - phi_b(lambda_b) =
    gamma (h(c_a) - h(c_b)) >= 0 with h(c) = d / ((l - c - d)(l - c)) at
    l = lambda_b, which increases in c < l - d; so phi_a(lambda_b) >= 1 and
    lambda_a >= lambda_b.

    Returns (b0, value, perron vector, margin) for a = argmax alpha, ties
    kept at the smallest b0, where margin bounds |computed - exact| of the
    top eigenvalue (see _EIG_MARGIN_C).
    """
    d = f.d
    alpha = f.sv.alpha
    s = float(alpha.sum())
    b0 = int(np.argmax(alpha[(-np.arange(d)) % d]))
    a = (-b0) % d
    q = f.gamma * (np.ones((d, d)) - np.diag(s / alpha))
    q[a, a] += d
    vals, vecs = np.linalg.eigh(q)
    scale = f.gamma * d + f.gamma * s * float(np.linalg.norm(1.0 / alpha)) + d
    margin = _EIG_MARGIN_C * d * np.finfo(float).eps * scale
    return b0, float(vals[-1]), vecs[:, -1], margin


def lhs_bound_exact(f: SteeringFunctional, alice_observables=None) -> LhsOptimum:
    """Exact LHS bound over Bob's deterministic responses.

    For responses (b0, b1) the best hidden state is the top eigenvector
    of a d x d matrix built from Alice's eigenprojectors. With the ideal
    Alice (the default) the bound is max_a lambda_max(Q_a), one eigenvalue
    problem (_branch_perron), reported with the canonical strategy (b0, 0)
    since b1 does not matter. Passing explicit Alice observables (unitary,
    with omega^a spectra) enumerates all d^2 strategies for dressed
    scenarios; ties keep the lexicographically first strategy.
    """
    if alice_observables is None:
        b0, value, _, _ = _branch_perron(f)
        return LhsOptimum(value, "exact", strategy=(b0, 0))
    d = f.d
    alpha = f.sv.alpha
    p0, p1 = _alice_projector_families(f, alice_observables)
    # -gamma S sum_a P0[a]/alpha_a is the same for every strategy (b0, b1).
    shift = f.gamma * float(alpha.sum()) * np.tensordot(1.0 / alpha, p0, axes=(0, 0))
    best = -np.inf
    best_strategy = (0, 0)
    for b0 in range(d):
        for b1 in range(d):
            m = d * p0[(-b0) % d] + f.gamma * d * p1[(-b1) % d] - shift
            val = float(np.linalg.eigvalsh((m + np.conj(m).T) / 2)[-1])
            if val > best:
                best = val
                best_strategy = (b0, b1)
    return LhsOptimum(best, "exact", strategy=best_strategy)


def lhs_bound_paper_upper(
    f: SteeringFunctional, restarts: int = 32, seed: int = 0
) -> LhsOptimum:
    """The paper's bound max over nonnegative unit eta, certified.

    The bound is max_a lambda_max(Q_a) (proof in _branch_perron), so the
    value is the computed top eigenvalue plus the eigensolver's roundoff
    margin: an upper bound on the exact maximum, not an optimizer's best
    point. eta is the entrywise absolute value of the Perron vector of
    the best branch. restarts and seed are accepted for compatibility
    and have no effect.
    """
    _, value, vec, margin = _branch_perron(f)
    return LhsOptimum(value + margin, "paper-upper", eta=np.abs(vec))


def violation_gap(f: SteeringFunctional) -> tuple[float, float, float]:
    """(quantum maximum, exact LHS bound, gap)."""
    bq = quantum_maximum(f)
    bl = lhs_bound_exact(f).value
    return bq, bl, bq - bl
