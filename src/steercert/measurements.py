"""d-outcome measurements: POVMs and generalized observables.

A d-outcome measurement is handled in two equivalent pictures. The POVM
picture stores the elements N_a directly; the observable picture stores
the Fourier transforms B_k = sum_a omega^{ka} N_a, which for projective
measurements collapse to powers of a single unitary with d-th-roots-of-
unity spectrum. Outcome labels are always 0..d-1 and all outcome
arithmetic is mod d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, InvalidObservableError, SizeError
from .linalg import DEFAULT_TOL, as_complex_matrix, dagger

_EPS = math.ulp(1.0)  # float64 machine epsilon


def omega(d: int) -> complex:
    """Principal d-th root of unity, positive sign convention."""
    return np.exp(2j * np.pi / d)


def root_powers(d: int, rows, cols) -> np.ndarray:
    """The table omega^(r c) for r in rows and c in cols.

    Each exponent is reduced mod d and picks one of the d roots
    exp(2 pi i j / d), each computed from its own angle, so every entry is
    within a few ulps whatever the size of r c. Powers of omega(d) carry
    its roundoff times the exponent: omega ** outer(rows, cols) is off by
    2e-11 at d = 512.
    """
    return np.exp(2j * np.pi * np.arange(d) / d)[np.outer(rows, cols) % d]


def _powers(u: np.ndarray, n: int):
    """Yield u^0, ..., u^(n-1), each the previous one times u on the right.

    One power is held at a time, so a caller that streams them needs no
    (n, dim, dim) array.
    """
    p = np.eye(u.shape[0], dtype=np.complex128)
    yield p
    for _ in range(n - 1):
        p = p @ u
        yield p


def generalized_pauli(d: int, kind: str) -> np.ndarray:
    """Clock (Z) or shift (X) operator on C^d.

    Z = diag(1, w, ..., w^(d-1)) with w = exp(2i pi/d); X|i> = |i+1 mod d>.
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if kind == "Z":
        return np.diag(root_powers(d, 1, np.arange(d))[0])
    if kind == "X":
        return np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    raise DomainError(f"kind must be 'Z' or 'X', got {kind!r}")


def _weyl_operators(d: int) -> np.ndarray:
    """All X^k Z^l stacked as [d*k + l], with phases from root_powers.

    X^k Z^l maps |j> to omega^(l j) |j + k mod d>.
    """
    k, l, j = np.ogrid[:d, :d, :d]
    out = np.zeros((d, d, d, d), dtype=np.complex128)
    out[k, l, (j + k) % d, j] = root_powers(d, np.arange(d), np.arange(d))
    return out.reshape(d * d, d, d)


@dataclass(frozen=True)
class Povm:
    """Container for measurement elements, outcome b = positional index.

    The container itself only fixes shapes and finite entries; library
    builders return elements that satisfy hermiticity, positivity within
    -1e-9 and completeness within 1e-9, and untrusted input is meant to go
    through povm.validate_povm, which reports instead of raising. elements
    is a read-only copy of the array given.
    """

    elements: np.ndarray

    def __post_init__(self):
        try:
            a = np.array(self.elements, dtype=np.complex128)
        except ValueError as exc:
            raise SizeError(f"ragged element shapes: {exc}") from None
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise SizeError(f"expected (n, dim, dim) elements, got {a.shape}")
        if a.shape[0] < 1:
            raise SizeError("a POVM needs at least one element")
        if not np.all(np.isfinite(a)):
            raise DomainError("POVM elements have non-finite entries")
        a.flags.writeable = False
        object.__setattr__(self, "elements", a)

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @functools.cached_property
    def hermitian_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of every element's Hermitian part (E + E^dagger)/2.

        Computed on first use and kept, read-only, so povm.validate_povm
        and povm.is_extremal_rank_one share one eigvalsh. elements is a
        read-only copy, so the kept value cannot go stale.
        """
        e = self.elements
        vals = np.linalg.eigvalsh((e + np.conj(e).transpose(0, 2, 1)) / 2)
        vals.flags.writeable = False
        return vals

    @functools.cached_property
    def gram_singular_values(self) -> np.ndarray:
        """Descending singular values of the Gram matrix G_bc = Tr[E_b E_c].

        Computed on first use and kept, read-only, like
        hermitian_eigenvalues, so every povm.is_extremal_rank_one on one
        Povm shares one SVD.
        """
        flat = self.elements.reshape(self.n_outcomes, -1)
        gram = (flat @ flat.conj().T).real
        sv = np.linalg.svd(gram, compute_uv=False)
        sv.flags.writeable = False
        return sv


def _gram_excess(b: np.ndarray) -> float:
    """An upper bound on ||B||_op^2 - 1 from the Gram matrix, with no SVD.

    ||B||_op^2 = lambda_max(B^dag B) <= 1 + ||B^dag B - 1||_F. Each
    computed entry of B^dag B is within sqrt(2) gamma_(n+2) of the
    matching entry of |B|^T |B| (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.6), whose Frobenius norm is at most
    ||B||_F^2. So the returned figure adds r = 4 (n + 2) eps ||B||_F^2,
    which covers that roundoff with room for the norm's own. The bound is
    near 0 only for a near-unitary B; for any other, callers fall back on
    the SVD.
    """
    gram = dagger(b) @ b
    n = gram.shape[0]
    r = 4 * (n + 2) * _EPS * gram.trace().real
    return float(np.linalg.norm(gram - np.eye(n))) + r


@dataclass(frozen=True)
class GeneralizedObservable:
    """Fourier picture of a d-outcome measurement.

    operators[k] = B_k = sum_a omega^{ka} N_a, a read-only copy of the array
    given. Construction enforces B_0 = 1, the conjugate pairing
    B_{d-k} = B_k^dag and ||B_k||_op <= 1, which hold for every valid POVM
    but do not by themselves imply projectivity; see is_projective.
    """

    operators: np.ndarray

    def __post_init__(self):
        a = np.array(self.operators, dtype=np.complex128)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise SizeError(f"expected (d, dim, dim) operators, got {a.shape}")
        d = a.shape[0]
        if d < 2:
            raise SizeError(f"need at least 2 outcomes, got {d}")
        eye = np.eye(a.shape[1])
        if not np.allclose(a[0], eye, atol=1e-9):
            raise ContractError("B_0 must be the identity")
        # np.allclose(a[d-k], a[k]^dag) and (a[k], a[d-k]^dag) hold iff |D| <=
        # 1e-9 + 1e-5 min(|a[k]^dag|, |a[d-k]|), D = a[d-k] - a[k]^dag; inf or NaN
        # fails. A failing pair raises as a loop of both over k = 1..d-1 would.
        late = None
        for k in range(1, d // 2 + 1):
            b_dag = dagger(a[k])
            diff = a[d - k] - b_dag
            scale = np.abs(b_dag) if 2 * k == d else np.minimum(np.abs(b_dag), np.abs(a[d - k]))
            if not np.all(np.abs(diff) <= 1e-9 + 1e-5 * scale):
                if not np.allclose(a[d - k], b_dag, atol=1e-9):
                    raise ContractError(f"B_{d - k} != B_{k}^dag")
                late = k
            # ||B_{d-k}||_op <= ||B_k||_op + ||B_{d-k} - B_k^dag||_F, so one
            # norm per conjugate pair bounds both. The Gram bound decides it
            # without an SVD when it passes (NaN does not), and the SVD
            # when it does not.
            dev = np.linalg.norm(diff)
            if (not math.sqrt(1.0 + _gram_excess(a[k])) + dev <= 1.0 + 1e-9
                    and np.linalg.svd(a[k], compute_uv=False)[0] + dev > 1.0 + 1e-9):
                raise ContractError(f"||B_{k}||_op or ||B_{d - k}||_op > 1")
        if late is not None:
            raise ContractError(f"B_{late} != B_{d - late}^dag")
        a.flags.writeable = False
        object.__setattr__(self, "operators", a)

    @property
    def d(self) -> int:
        return self.operators.shape[0]

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @classmethod
    def from_unitary(cls, u: np.ndarray, d: int) -> "GeneralizedObservable":
        """Observable generated by powers of a unitary with u^d = 1."""
        return cls(np.stack(list(_powers(as_complex_matrix(u), d))))


def povm_to_observable(p: Povm) -> GeneralizedObservable:
    """B_k = sum_a omega^{ka} N_a for a d-outcome POVM."""
    d = p.n_outcomes
    phases = root_powers(d, np.arange(d), np.arange(d))  # [k, a]
    ops = np.einsum("ka,aij->kij", phases, p.elements)
    return GeneralizedObservable(ops)


def observable_to_povm(g: GeneralizedObservable) -> Povm:
    """Inverse Fourier transform N_a = (1/d) sum_k omega^{-ak} B_k.

    Returns the Hermitian parts of the N_a as they are. An element with
    an eigenvalue below -DEFAULT_TOL means the operators never came from
    a POVM and raises InvalidObservableError; nothing is clipped.
    """
    d = g.d
    phases = root_powers(d, -np.arange(d), np.arange(d))  # [a, k]
    els = np.einsum("ak,kij->aij", phases, g.operators) / d
    els = (els + np.conj(els).transpose(0, 2, 1)) / 2
    least = np.linalg.eigvalsh(els)[:, 0]
    bad = np.flatnonzero(~(least >= -DEFAULT_TOL))  # NaN fails too
    if bad.size:
        raise InvalidObservableError(
            f"element {bad[0]} has eigenvalue {least[bad[0]]:.3e} below -{DEFAULT_TOL:g}"
        )
    return Povm(els)


def is_projective(g: GeneralizedObservable, tol: float = DEFAULT_TOL):
    """Check B_1 unitary with B_1^d = 1 and B_k = B_1^k.

    Returns (flag, residuals) with Frobenius-norm residuals keyed
    'unitarity', 'power_identity' and 'powers'.
    """
    b1 = g.operators[1]
    eye = np.eye(g.dim)
    res_unit = float(np.linalg.norm(dagger(b1) @ b1 - eye))
    res_pow = 0.0
    for k, power in enumerate(_powers(b1, g.d + 1)):
        if 2 <= k < g.d:
            res_pow = max(res_pow, float(np.linalg.norm(g.operators[k] - power)))
    res_id = float(np.linalg.norm(power - eye))
    residuals = {
        "unitarity": res_unit,
        "power_identity": res_id,
        "powers": res_pow,
    }
    ok = all(v <= tol for v in residuals.values())
    return ok, residuals


def unitary_observable_povm(u: np.ndarray, d: int, tol: float = 1e-8) -> Povm:
    """Projective POVM of a unitary observable with omega^a spectrum.

    Outcome a collects the eigenspace of eigenvalue omega^a, built as the
    Fourier projector N_a = (1/d) sum_k omega^{-ak} U^k, which is exact
    for a unitary with U^d = 1. Frobenius residuals of U^dag U = 1 or
    U^d = 1 above tol are a contract violation. Empty outcomes yield zero
    elements.
    """
    u = as_complex_matrix(u)
    eye = np.eye(u.shape[0])
    if not np.linalg.norm(dagger(u) @ u - eye) <= tol:
        raise ContractError("observable is not unitary")
    powers = np.stack(list(_powers(u, d)))
    if not np.linalg.norm(powers[-1] @ u - eye) <= tol:
        raise ContractError("spectrum is not d-th roots of unity")
    phases = root_powers(d, -np.arange(d), np.arange(d))  # [a, k]
    return Povm(np.einsum("ak,kij->aij", phases, powers) / d)


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Generic full-rank POVM: Wishart pieces whitened by their sum."""
    raw = np.empty((n_outcomes, dim, dim), dtype=np.complex128)
    for b in range(n_outcomes):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw[b] = m @ dagger(m)
    s = raw.sum(axis=0)
    vals, vecs = np.linalg.eigh(s)
    isq = (vecs * (1.0 / np.sqrt(vals))) @ dagger(vecs)
    els = isq @ raw @ isq
    els = (els + np.conj(np.transpose(els, (0, 2, 1)))) / 2
    return Povm(els)
