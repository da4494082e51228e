"""Steering functional, quantum value and local-hidden-state bounds.

For Schmidt coefficients alpha the functional

    sum_{k=1}^{d-1} <A_0^k B_{k|0}> + gamma <A_1^k B_{k|1}> + delta_k <A_0^k>

with A_0 = Z, A_1 = X reaches d exactly on the ideal realization and is
bounded away from d for every LHS assemblage. On a realization, one walk
(_walk_terms) applies each of its 3(d-1) local terms to the state once and
gives the value and the self-testing residuals. The exact LHS bound is the
max over Bob's deterministic responses of the best hidden-state value; the
paper's closed-form upper bound is

    max_eta  d max_a eta_a^2 + gamma ((sum eta)^2 - sum_i alpha_i sum_a eta_a^2/alpha_a)

over nonnegative unit vectors eta. With Alice's ideal observables both
equal max_a lambda_max(Q_a) for d explicit d x d matrices, attained at
a = argmax alpha (proof in _branch_perron); lhs_bound_paper_upper adds
the eigensolver's roundoff margin so that it is a certified bound.

The chain from Schmidt vector to LHS bound runs over stacks of rows, a
leading axis of Schmidt vectors: states.schmidt_rows checks and scales
them, _gamma takes gamma of every row and _branch_perron solves every
row's Q_a in one stacked eigh. The scalar API passes a stack of one, and
lhs_bound_rows a whole grid, bit for bit the same row by row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .linalg import apply_local
from .measurements import unitary_observable_povm
from .states import Realization, SchmidtVector, schmidt_rows


@dataclass(frozen=True)
class SteeringFunctional:
    """Coefficients (gamma, delta_k) attached to a Schmidt vector.

    delta is a read-only copy of the array given.
    """

    sv: SchmidtVector
    gamma: float
    delta: np.ndarray

    def __post_init__(self):
        dl = np.array(self.delta, dtype=np.complex128).reshape(-1)
        if dl.size != self.sv.d:
            raise SizeError(f"delta has length {dl.size}, expected {self.sv.d}")
        if not 0.0 < self.gamma < np.inf:
            raise DomainError(f"gamma must be positive and finite, got {self.gamma}")
        if not abs(dl[0] + 1.0) <= 1e-12:
            raise DomainError(f"delta_0 = {dl[0]} != -1")
        d = self.sv.d
        for k in range(1, d):
            if not abs(dl[d - k] - np.conj(dl[k])) <= 1e-12:
                raise DomainError(f"delta_{d - k} != conj(delta_{k})")
        dl.flags.writeable = False
        object.__setattr__(self, "delta", dl)

    @property
    def d(self) -> int:
        return self.sv.d

    @functools.cached_property
    def _perron(self) -> tuple[int, float, np.ndarray, float]:
        """_branch_perron of this functional's row: (b0, value, vector, margin).

        Solved on first use and kept, so lhs_bound_exact and
        lhs_bound_paper_upper on one functional share one eigh. sv.alpha
        is read-only and gamma a float, so the kept value cannot go stale.
        """
        b0, value, vec, margin = _branch_perron(self.sv.alpha[None, :], np.array([self.gamma]))
        vec = vec[0]
        vec.flags.writeable = False
        return int(b0[0]), float(value[0]), vec, float(margin[0])


def _gamma(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gamma = d / sum_{i!=j} alpha_i/alpha_j of every row of an (n, d) stack.

    Returns (gamma, col), shapes (n,) and (n, d), with the column sums
    col_j = sum_{i != j} alpha_i/alpha_j = S/alpha_j - 1, S = sum(alpha).
    Each row is summed along its own contiguous axis, so a row of the
    stack gets the same bits as that row alone.
    """
    d = alpha.shape[-1]
    col = alpha.sum(axis=-1, keepdims=True) / alpha - 1.0
    return d / col.sum(axis=-1), col


def functional_coefficients(sv: SchmidtVector) -> SteeringFunctional:
    """gamma = d / sum_{i!=j} alpha_i/alpha_j and the matching delta_k.

    delta_k = -(gamma/d) sum_{i!=j} (alpha_i/alpha_j) omega^{k(d-j)}; the
    i-sum only enters through column sums, so everything reduces to a
    single Fourier sum over j, the FFT of the column sums. delta_0 = -1
    follows identically. The FFT needs no power omega^{kj}, whose roundoff
    grows with kj, so delta_{d-k} = conj(delta_k) holds to ~1e-15 at any d.
    """
    gamma, col = _gamma(sv.alpha[None, :])
    gamma = float(gamma[0])
    delta = -(gamma / sv.d) * np.fft.fft(col[0].astype(np.complex128))
    return SteeringFunctional(sv, gamma, delta)


def quantum_maximum(f: SteeringFunctional) -> float:
    """The quantum value of the functional is d, reached by the ideal pair."""
    return float(f.d)


def _walk_terms(f: SteeringFunctional, r: Realization):
    """Apply each term (coefficient, A, B) of the functional to the state once.

    For k = 1..d-1: (1, A_0^k, B_{k|0}), a stabilizer of the ideal state, and
    (gamma, A_1^k, B_{k|1}), (delta_k, A_0^k, 1_B), which make the S relation.
    A delta_k term applies A_0^k alone to the amplitudes; no identity on Bob
    is formed. Returns the value, then selftest.stabilizer_residuals'
    (per_k, s_residual).
    """
    if r.d != f.d:
        raise SizeError(f"realization has {r.d} outcomes, functional {f.d}")
    if len(r.alice_observables) < 2 or len(r.bob_observables) < 2:
        raise SizeError("the functional needs 2 Alice and 2 Bob observables")
    psi, amps = r.state, r.state.amplitudes
    ket = amps.reshape(psi.factor_dims[0], psi.factor_dims[1], -1)
    a0, a1 = r.alice_powers[:2]
    b0, b1 = r.bob_observables[0].operators, r.bob_observables[1].operators
    flat = amps.reshape(psi.factor_dims[0], -1)
    value, per_k, s_vec = 0, [], -ket
    for k in range(1, f.d):
        terms = ((1.0, apply_local(a0[k], b0[k], psi)),
                 (f.gamma, apply_local(a1[k], b1[k], psi)),
                 (f.delta[k], (a0[k] @ flat).reshape(ket.shape)))
        for i, (coef, v) in enumerate(terms):
            value = value + coef * np.vdot(amps, v)
            if i == 0:
                per_k.append(np.linalg.norm(coef * v - ket))
            else:
                s_vec += coef * v
    return float(value.real), np.array(per_k), float(np.linalg.norm(s_vec))


def evaluate(f: SteeringFunctional, r: Realization) -> float:
    """<psi| functional (x) 1_E |psi> for the realization, Eve traced out."""
    return _walk_terms(f, r)[0]


@dataclass(frozen=True)
class LhsOptimum:
    """Result of an LHS-bound computation."""

    value: float
    strategy: tuple | None = None
    eta: np.ndarray | None = None


# Roundoff margin of a computed top eigenvalue of Q_a, in units of
# d * eps * scale with scale = gamma d + gamma S ||1/alpha||_2 + d, which bounds
# ||Q_a||_F >= ||Q_a||_2 and the unsummed terms of every entry. Forming the
# entries costs at most (d + 3) eps * scale in Frobenius norm (a d-term sum, a
# quotient, a difference, a product, the + d). LAPACK's symmetric eigensolver
# is backward stable, so by Weyl's inequality it adds at most
# p(d) eps ||Q_a||_2, taking p(d) <= d for LAPACK's "modestly growing" p(n).
# (2d + 3) eps * scale <= 4 d eps * scale for d >= 2.
_EIG_MARGIN_C = 4.0


def _branch_perron(alpha: np.ndarray, gamma: np.ndarray):
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

    The kernel runs over a stack of rows: alpha is (n, d), unit rows as
    states.schmidt_rows returns them, and gamma (n,) their _gamma. It
    forms every row's Q_a and makes one stacked np.linalg.eigh call,
    which solves each matrix as a call on that matrix alone would.
    (eigvalsh would not: its values differ in the last bits.)

    Returns arrays (b0, value, perron vector, margin) of shapes (n,),
    (n,), (n, d) and (n,), for a = argmax alpha of each row, ties kept at
    the smallest b0, where margin bounds |computed - exact| of the top
    eigenvalue (see _EIG_MARGIN_C).
    """
    n, d = alpha.shape
    g = gamma[:, None]
    s = alpha.sum(axis=-1, keepdims=True)
    b0 = np.argmax(alpha[:, (-np.arange(d)) % d], axis=-1)
    # Q_a's diagonal; each off-diagonal entry is gamma * 1 = gamma exactly.
    dia = g * (1.0 - s / alpha)
    dia[np.arange(n), (-b0) % d] += d
    q = np.empty((n, d, d))
    q[...] = g[:, :, None]
    q.reshape(n, d * d)[:, :: d + 1] = dia
    vals, vecs = np.linalg.eigh(q)
    inv = 1.0 / alpha
    scale = g * d + g * s * np.sqrt(np.vecdot(inv, inv, keepdims=True)) + d
    margin = _EIG_MARGIN_C * d * np.finfo(float).eps * scale[:, 0]
    return b0, vals[:, -1], vecs[:, :, -1], margin


def lhs_bound_rows(alpha) -> np.ndarray:
    """Exact LHS bound, with the ideal Alice, of every row of an (n, d) stack.

    The rows are checked and scaled as SchmidtVector scales one, and the
    whole stack goes through _gamma and _branch_perron once, so entry i
    equals lhs_bound_exact(functional_coefficients(SchmidtVector(alpha[i])))
    .value bit for bit.
    """
    rows = schmidt_rows(alpha)
    return _branch_perron(rows, _gamma(rows)[0])[1]


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
        b0, value, _, _ = f._perron
        return LhsOptimum(value, strategy=(b0, 0))
    d = f.d
    alpha = f.sv.alpha
    p0, p1 = [unitary_observable_povm(obs, d).elements for obs in alice_observables][:2]
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
    return LhsOptimum(best, strategy=best_strategy)


def lhs_bound_paper_upper(f: SteeringFunctional) -> LhsOptimum:
    """The paper's bound max over nonnegative unit eta, certified.

    The bound is max_a lambda_max(Q_a) (proof in _branch_perron), so the
    value is the computed top eigenvalue plus the eigensolver's roundoff
    margin: an upper bound on the exact maximum, not an optimizer's best
    point. eta is the entrywise absolute value of the Perron vector of
    the best branch.
    """
    _, value, vec, margin = f._perron
    return LhsOptimum(value + margin, eta=np.abs(vec))


def violation_gap(f: SteeringFunctional) -> tuple[float, float, float]:
    """(quantum maximum, exact LHS bound, gap)."""
    bq = quantum_maximum(f)
    bl = lhs_bound_exact(f).value
    return bq, bl, bq - bl
