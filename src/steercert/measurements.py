"""d-outcome measurements: POVMs and generalized observables.

A d-outcome measurement is handled in two equivalent pictures. The POVM
picture stores the elements N_a directly; the observable picture stores
the Fourier transforms B_k = sum_a omega^{ka} N_a, which for projective
measurements collapse to powers of a single unitary with d-th-roots-of-
unity spectrum. Outcome labels are always 0..d-1 and all outcome
arithmetic is mod d.

Every identity an operator stack is tested for here, B_0 = 1, the
conjugate pairing and the chain of is_projective, is a Frobenius residual
against an absolute tolerance; the bound ||B_k||_op <= 1 is one Cholesky
factorization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, InvalidObservableError, SizeError
from .linalg import DEFAULT_TOL, as_complex_matrix, dagger, failed_checks


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
        # The checks square and sum the entries. A hermiticity residual is at
        # most 2 ||E_b||_F, the element sum at most s = sum_b ||E_b||_F and a
        # Gram entry at most s^2, so each of their norms is finite if 4 s^2 is.
        parts = a.reshape(a.shape[0], -1).view(np.float64)
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.vecdot(parts, parts))
            bound = 4 * norms.sum() ** 2
        if not np.isfinite(bound):
            raise DomainError(f"POVM element {np.argmax(norms)} is too large: the squares "
                              "of the elements' entries overflow in their sums")
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


@dataclass(frozen=True)
class GeneralizedObservable:
    """Fourier picture of a d-outcome measurement.

    operators[k] = B_k = sum_a omega^{ka} N_a, a read-only copy of the array
    given. Construction enforces B_0 = 1, the conjugate pairing
    B_{d-k} = B_k^dag and ||B_k||_op <= 1, which hold for every valid POVM
    but do not by themselves imply projectivity; see is_projective. Each
    is judged once, at tol = DEFAULT_TOL: an entry of modulus above
    1 + 2 tol anywhere in the stack is refused before any product;
    ||B_0 - 1||_F <= tol; and per conjugate pair, dev =
    ||B_{d-k} - B_k^dag||_F <= tol and ||B_k||_op <= 1 + tol - dev, by a
    Cholesky factorization. A ContractError names the first failing test.
    """

    operators: np.ndarray

    def __post_init__(self):
        a = np.array(self.operators, dtype=np.complex128)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise SizeError(f"expected (d, dim, dim) operators, got {a.shape}")
        d = a.shape[0]
        if d < 2:
            raise SizeError(f"need at least 2 outcomes, got {d}")
        # Every entry is at most its operator's norm, so one above 1 + 2 tol
        # fails a test below whatever its roundoff; refused here, before
        # any product can overflow. NaN fails too.
        top = np.abs(a).max(axis=(1, 2))
        bad = np.flatnonzero(~(top <= 1.0 + 2 * DEFAULT_TOL))
        first = bad[0] if bad.size else d
        eye = np.eye(a.shape[1])
        if first == 0 or not np.linalg.norm(a[0] - eye) <= DEFAULT_TOL:
            raise ContractError("B_0 must be the identity")
        if first < d:
            raise ContractError(f"B_{first} has an entry of modulus {top[first]:.3e}, "
                                f"so ||B_{first}||_op > 1")
        for k in range(1, d // 2 + 1):
            dev = np.linalg.norm(a[d - k] - dagger(a[k]))
            if not dev <= DEFAULT_TOL:
                raise ContractError(f"B_{d - k} != B_{k}^dag")
            # ||B_{d-k}||_op <= ||B_k||_op + dev, so ||B_k||_op <= c bounds
            # both; up to roundoff, it holds iff c^2 1 - B_k^dag B_k has a
            # Cholesky factor.
            c = 1.0 + DEFAULT_TOL - dev
            try:
                np.linalg.cholesky(c * c * eye - dagger(a[k]) @ a[k])
            except np.linalg.LinAlgError:
                raise ContractError(f"||B_{k}||_op or ||B_{d - k}||_op > 1") from None
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
    'unitarity', 'power_identity' and 'powers': the one test of an order-d
    unitary observable, which _chain_check applies to any operator stack.
    """
    return _chain_check(g.operators, tol)


def _chain_check(ops: np.ndarray, tol: float):
    """is_projective on an operator stack B_0..B_{d-1}."""
    d, b1, eye = ops.shape[0], ops[1], np.eye(ops.shape[1])
    res_unit = float(np.linalg.norm(dagger(b1) @ b1 - eye))
    res_pow = 0.0
    for k, power in enumerate(_powers(b1, d + 1)):
        if 2 <= k < d:
            res_pow = max(res_pow, float(np.linalg.norm(ops[k] - power)))
    residuals = {"unitarity": res_unit, "power_identity": float(np.linalg.norm(power - eye)),
                 "powers": res_pow}
    rows = [(k, v, tol, lambda k=k: k) for k, v in residuals.items()]
    return not failed_checks(rows), residuals


def _require_projective(stacks, tol: float, side: str = "Bob") -> None:
    """Raise ContractError at the first operator stack that _chain_check rejects."""
    for i, ops in enumerate(stacks):
        ok, res = _chain_check(ops, tol)
        if not ok:
            raise ContractError(f"{side} observable {i} is not projective (residuals {res})")


def _alice_chains(observables, d: int) -> list:
    """Read-only chains A^0..A^(d-1) of Alice's observables, each of which
    must pass _require_projective at DEFAULT_TOL. An entry of modulus above
    1 + 2 DEFAULT_TOL, which no unitary has, is refused first, so no
    product can overflow."""
    chains = []
    for i, a in enumerate(map(as_complex_matrix, observables)):
        if not (top := np.abs(a).max()) <= 1.0 + 2 * DEFAULT_TOL:
            raise ContractError(f"Alice observable {i} has an entry of modulus {top:.3e}, "
                                "so it is not unitary")
        chains.append(np.stack(list(_powers(a, d))))
        chains[-1].flags.writeable = False
    _require_projective(chains, DEFAULT_TOL, "Alice")
    return chains


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
