"""d-outcome measurements: POVMs, generalized observables and correlations.

A d-outcome measurement is handled in two equivalent pictures. The POVM
picture stores the elements N_a directly; the observable picture stores
the Fourier transforms B_k = sum_a omega^{ka} N_a, which for projective
measurements collapse to powers of a single unitary with d-th-roots-of-
unity spectrum. Outcome labels are always 0..d-1 and all outcome
arithmetic is mod d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, InvalidObservableError, SizeError
from .linalg import DEFAULT_TOL, Ket, as_complex_matrix, dagger


def omega(d: int) -> complex:
    """Principal d-th root of unity, positive sign convention."""
    return np.exp(2j * np.pi / d)


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
        return np.diag(omega(d) ** np.arange(d)).astype(np.complex128)
    if kind == "X":
        x = np.zeros((d, d), dtype=np.complex128)
        for i in range(d):
            x[(i + 1) % d, i] = 1.0
        return x
    raise DomainError(f"kind must be 'Z' or 'X', got {kind!r}")


@dataclass(frozen=True)
class Povm:
    """Container for measurement elements, outcome b = positional index.

    The container itself only fixes shapes and finite entries; library
    builders return elements that satisfy hermiticity, positivity within
    -1e-9 and completeness within 1e-9, and untrusted input is meant to go
    through povm.validate_povm, which reports instead of raising.
    """

    elements: np.ndarray

    def __post_init__(self):
        try:
            a = np.asarray(self.elements, dtype=np.complex128)
        except ValueError as exc:
            raise SizeError(f"ragged element shapes: {exc}") from None
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise SizeError(f"expected (n, dim, dim) elements, got {a.shape}")
        if a.shape[0] < 1:
            raise SizeError("a POVM needs at least one element")
        if not np.all(np.isfinite(a)):
            raise DomainError("POVM elements have non-finite entries")
        object.__setattr__(self, "elements", a)

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


@dataclass(frozen=True)
class GeneralizedObservable:
    """Fourier picture of a d-outcome measurement.

    operators[k] = B_k = sum_a omega^{ka} N_a. Construction enforces
    B_0 = 1, the conjugate pairing B_{d-k} = B_k^dag and ||B_k||_op <= 1,
    which hold for every valid POVM but do not by themselves imply
    projectivity; see is_projective.
    """

    operators: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.operators, dtype=np.complex128)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise SizeError(f"expected (d, dim, dim) operators, got {a.shape}")
        d = a.shape[0]
        if d < 2:
            raise SizeError(f"need at least 2 outcomes, got {d}")
        eye = np.eye(a.shape[1])
        if not np.allclose(a[0], eye, atol=1e-9):
            raise ContractError("B_0 must be the identity")
        for k in range(1, d):
            if not np.allclose(a[d - k], dagger(a[k]), atol=1e-9):
                raise ContractError(f"B_{d - k} != B_{k}^dag")
            if np.linalg.norm(a[k], ord=2) > 1.0 + 1e-9:
                raise ContractError(f"||B_{k}||_op > 1")
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
    w = omega(d)
    phases = w ** (np.arange(d)[:, None] * np.arange(d)[None, :])  # [k, a]
    ops = np.einsum("ka,aij->kij", phases, p.elements)
    return GeneralizedObservable(ops)


def observable_to_povm(g: GeneralizedObservable) -> Povm:
    """Inverse Fourier transform N_a = (1/d) sum_k omega^{-ak} B_k.

    Eigenvalues of the reconstructed elements in [-1e-6, 0) are clipped
    to zero and the element rebuilt; anything below -1e-6 means the
    coefficients never came from a POVM and raises.
    """
    d = g.d
    w = omega(d)
    phases = w ** (-np.arange(d)[:, None] * np.arange(d)[None, :])  # [a, k]
    els = np.einsum("ak,kij->aij", phases, g.operators) / d
    out = np.empty_like(els)
    for a in range(d):
        h = (els[a] + dagger(els[a])) / 2
        vals, vecs = np.linalg.eigh(h)
        if vals.min() < -1e-6:
            raise InvalidObservableError(
                f"element {a} has eigenvalue {vals.min():.3e} below -1e-6"
            )
        vals = np.where(vals < 0.0, 0.0, vals)
        out[a] = (vecs * vals) @ dagger(vecs)
    return Povm(out)


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
    phases = omega(d) ** (-np.outer(np.arange(d), np.arange(d)))  # [a, k]
    return Povm(np.einsum("ak,kij->aij", phases, powers) / d)


@dataclass(frozen=True)
class CorrelationTable:
    """Joint outcome probabilities p[x][y][a][b] for a d-outcome scenario."""

    p: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.p, dtype=np.float64)
        if a.ndim != 4 or a.shape[2] != a.shape[3]:
            raise SizeError(f"expected (nx, ny, d, d) probabilities, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("probabilities must be finite")
        if not a.min() >= -1e-12:
            raise DomainError(f"negative probability {a.min():.3e}")
        sums = a.sum(axis=(2, 3))
        if not np.max(np.abs(sums - 1.0)) <= 1e-9:
            raise DomainError("some (x, y) block does not sum to 1 within 1e-9")
        object.__setattr__(self, "p", a)

    @property
    def nx(self) -> int:
        return self.p.shape[0]

    @property
    def ny(self) -> int:
        return self.p.shape[1]

    @property
    def d(self) -> int:
        return self.p.shape[2]


def correlator(table: CorrelationTable, k: int, l: int, x: int, y: int) -> complex:
    """<A_x^k B_y^l> = sum_{a,b} omega^{ak+bl} p(a,b|x,y)."""
    d = table.d
    if not (0 <= x < table.nx and 0 <= y < table.ny):
        raise IndexError(f"setting ({x}, {y}) out of range")
    w = omega(d)
    pa = w ** (np.arange(d) * (k % d))
    pb = w ** (np.arange(d) * (l % d))
    return complex(pa @ table.p[x, y] @ pb)


def table_from_realization(state: Ket, alice_povms, bob_povms) -> CorrelationTable:
    """Born-rule table from POVM lists acting on factors 0 and 1.

    Any further factors of the state (junk registers, an eavesdropper)
    are traced out.
    """
    if len(state.factor_dims) < 2:
        raise SizeError("state needs at least two factors")
    da, db = state.factor_dims[0], state.factor_dims[1]
    douts = {p.n_outcomes for p in alice_povms} | {p.n_outcomes for p in bob_povms}
    if len(douts) != 1:
        raise SizeError(f"mixed outcome counts {sorted(douts)}")
    d = douts.pop()
    for p in alice_povms:
        if p.dim != da:
            raise SizeError(f"Alice POVM dim {p.dim} != {da}")
    for p in bob_povms:
        if p.dim != db:
            raise SizeError(f"Bob POVM dim {p.dim} != {db}")
    rho = state.reduced((0, 1)).reshape(da, db, da, db)
    out = np.empty((len(alice_povms), len(bob_povms), d, d))
    for x, pa in enumerate(alice_povms):
        for y, pb in enumerate(bob_povms):
            # Tr[(M_a (x) N_b) rho] with rho indexed (j, l; i, k).
            vals = np.einsum("aij,bkl,jlik->ab", pa.elements, pb.elements, rho)
            out[x, y] = vals.real
    return CorrelationTable(out)


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
