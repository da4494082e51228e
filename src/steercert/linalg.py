"""Dense complex linear algebra primitives used throughout the package.

Everything here works on plain numpy arrays in row-major order with
complex128 entries. Multipartite structure is carried explicitly as a
tuple of factor dimensions next to the flat array, never encoded in the
array itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ContractError, DomainError, SizeError

# Hard cap on total Hilbert-space dimension for any assembled operator.
DIM_CAP = 4096

# Default tolerance for algebraic identities; verdicts use a looser 1e-7.
DEFAULT_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more square matrices.

    The total dimension is checked against DIM_CAP before any product is
    formed so a runaway chain fails fast instead of allocating.
    """
    if not ops:
        raise SizeError("tensor needs at least one operand")
    mats = [as_complex_matrix(op) for op in ops]
    total = prod(m.shape[0] for m in mats)
    if total > DIM_CAP:
        raise SizeError(f"tensor dimension {total} exceeds cap {DIM_CAP}")
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _validate_factors(dim: int, factor_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in factor_dims)
    if any(d < 1 for d in dims):
        raise SizeError(f"factor dimensions must be positive, got {dims}")
    if prod(dims) != dim:
        raise SizeError(f"factor dims {dims} do not multiply to {dim}")
    return dims


def partial_trace(m: np.ndarray, factor_dims, keep) -> np.ndarray:
    """Trace out all factors not listed in keep.

    keep is a tuple of factor indices; kept factors appear in the output
    in the order they are listed.
    """
    a = as_complex_matrix(m)
    dims = _validate_factors(a.shape[0], factor_dims)
    n = len(dims)
    keep = tuple(int(i) for i in keep)
    if len(set(keep)) != len(keep):
        raise IndexError(f"duplicate factor index in keep={keep}")
    for i in keep:
        if not 0 <= i < n:
            raise IndexError(f"factor index {i} out of range for {n} factors")
    rest = [i for i in range(n) if i not in keep]
    keep_dim = prod(dims[i] for i in keep) if keep else 1
    rest_dim = prod(dims[i] for i in rest) if rest else 1
    perm = list(keep) + rest
    t = a.reshape(dims + dims)
    t = t.transpose(perm + [n + i for i in perm])
    t = t.reshape(keep_dim, rest_dim, keep_dim, rest_dim)
    return np.einsum("arbr->ab", t)


def hermitian_eig(m: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix with a canonical output.

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    each eigenvector's phase fixed so its first significant component is
    real positive. Degenerate clusters are re-orthonormalized by
    Gram-Schmidt on the cluster projector's action on the standard basis,
    in index order, so the basis depends only on the subspace.
    """
    a = as_complex_matrix(m)
    herm_res = np.linalg.norm(a - dagger(a))
    if herm_res > tol * max(1.0, np.linalg.norm(a)):
        raise ContractError(f"matrix is not Hermitian (residual {herm_res:.3e})")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    # Rebuild a canonical basis inside each degenerate cluster.
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[i]) <= tol * scale:
            j += 1
        if j - i > 1:
            cluster = v[:, i:j]
            v[:, i:j] = range_basis(cluster @ dagger(cluster), j - i)
        i = j
    return w, _fix_phases(v)


def range_basis(proj: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of a projector's range, Gram-Schmidt over its
    columns in index order, so the basis depends only on the subspace."""
    basis: list[np.ndarray] = []
    for j in range(proj.shape[0]):
        cand = proj[:, j].copy()
        for b in basis:
            cand -= b * (np.conj(b) @ cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            basis.append(cand / nrm)
        if len(basis) == rank:
            return np.column_stack(basis)
    # Projector columns always span the range; reaching here means the
    # projector has lower rank than expected to working precision.
    raise ContractError("projector rank below expected multiplicity")


def _fix_phases(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))
        k = nz[0] if nz.size else 0
        ph = col[k] / abs(col[k]) if abs(col[k]) > 0 else 1.0
        out[:, j] = col * np.conj(ph)
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, R-phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


@dataclass(frozen=True)
class Ket:
    """Pure state vector with explicit tensor-factor bookkeeping."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        dims = _validate_factors(a.size, self.factor_dims)
        if not np.all(np.isfinite(a)):
            raise DomainError("ket has non-finite amplitudes")
        nrm = np.linalg.norm(a)
        if not abs(nrm - 1.0) <= 1e-6:
            raise DomainError(f"ket norm {nrm} is not 1 within 1e-6")
        object.__setattr__(self, "amplitudes", a / nrm)
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conj(self.amplitudes))

    def reduced(self, keep) -> np.ndarray:
        """Reduced density matrix on the kept factors (order as listed)."""
        keep = tuple(int(i) for i in keep)
        n = len(self.factor_dims)
        for i in keep:
            if not 0 <= i < n:
                raise IndexError(f"factor index {i} out of range for {n} factors")
        rest = [i for i in range(n) if i not in keep]
        keep_dim = prod(self.factor_dims[i] for i in keep) if keep else 1
        t = self.amplitudes.reshape(self.factor_dims)
        t = t.transpose(list(keep) + rest).reshape(keep_dim, -1)
        return t @ dagger(t)


def check_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate hermiticity, positivity and unit trace; returns the array."""
    a = as_complex_matrix(rho)
    if np.linalg.norm(a - dagger(a)) > tol * max(1.0, np.linalg.norm(a)):
        raise DomainError("density matrix is not Hermitian")
    tr = np.trace(a).real
    if abs(tr - 1.0) > max(tol, 1e-9) * 10:
        raise DomainError(f"density matrix trace {tr} is not 1")
    wmin = float(np.min(np.linalg.eigvalsh((a + dagger(a)) / 2)))
    if wmin < -max(tol, 1e-9) * 10:
        raise DomainError(f"density matrix has eigenvalue {wmin}")
    return a


def apply_local(a: np.ndarray, b: np.ndarray, psi: Ket) -> np.ndarray:
    """(A (x) B (x) 1_E)|psi> as a (dim_A, dim_B, dim_E) array.

    A acts on factor 0 and B on factor 1; all further factors (dim_E = 1
    when there are none) are left alone. The local matrices are applied
    to the reshaped amplitudes, so no (dim_A dim_B)^2 operator is formed.
    """
    da, db = psi.factor_dims[0], psi.factor_dims[1]
    m = (a @ psi.amplitudes.reshape(da, -1)).reshape(da, db, -1)
    return b @ m


def expectation(op: np.ndarray, psi: Ket, with_identity_on: int | None = None) -> complex:
    """<psi| op (x) 1 |psi> where op acts on all factors before
    with_identity_on; with_identity_on=None means op matches the full state.
    """
    a = psi.amplitudes
    if with_identity_on is None:
        if op.shape[0] != psi.dim:
            raise SizeError(f"operator dim {op.shape[0]} != state dim {psi.dim}")
        return complex(np.vdot(a, op @ a))
    head = prod(psi.factor_dims[:with_identity_on])
    if op.shape[0] != head:
        raise SizeError(f"operator dim {op.shape[0]} != leading block {head}")
    m = a.reshape(head, -1)
    return complex(np.sum(np.conj(m) * (op @ m)))
