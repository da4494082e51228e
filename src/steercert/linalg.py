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

# Default tolerance for algebraic identities; verdicts use a looser 1e-7.
DEFAULT_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def _validate_factors(dim: int, factor_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in factor_dims)
    if any(d < 1 for d in dims):
        raise SizeError(f"factor dimensions must be positive, got {dims}")
    if prod(dims) != dim:
        raise SizeError(f"factor dims {dims} do not multiply to {dim}")
    return dims


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
    """Pure state vector with explicit tensor-factor bookkeeping.

    amplitudes is a read-only array of its own, normalized at construction.
    """

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        dims = _validate_factors(a.size, self.factor_dims)
        if not np.all(np.isfinite(a)):
            raise DomainError("ket has non-finite amplitudes")
        # An amplitude is at most the norm, so one above 1 + 2e-6 fails the
        # norm test below whatever its roundoff; refused here, before it is
        # squared, so the norm cannot overflow.
        top = np.abs(a).max()
        if not top <= 1.0 + 2e-6:
            raise DomainError(f"ket amplitude of modulus {top:.3e} is above 1, "
                              "so the norm is not 1")
        nrm = np.linalg.norm(a)
        if not abs(nrm - 1.0) <= 1e-6:
            raise DomainError(f"ket norm {nrm} is not 1 within 1e-6")
        amps = a / nrm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

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
    """Validate finiteness, hermiticity, positivity and unit trace."""
    a = as_complex_matrix(rho)
    finite = np.isfinite(a)
    if not finite.all():
        bad = np.argwhere(~finite)
        i, j = bad[0]
        raise DomainError(f"density matrix has {len(bad)} non-finite entries, "
                          f"the first ({i}, {j}) = {a[i, j]}")
    if not np.linalg.norm(a - dagger(a)) <= tol * max(1.0, np.linalg.norm(a)):
        raise DomainError("density matrix is not Hermitian")
    tr = np.trace(a).real
    if not abs(tr - 1.0) <= max(tol, 1e-9) * 10:
        raise DomainError(f"density matrix trace {tr} is not 1")
    wmin = float(np.min(np.linalg.eigvalsh((a + dagger(a)) / 2)))
    if not wmin >= -max(tol, 1e-9) * 10:
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

