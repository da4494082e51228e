"""Schmidt-diagonal target states and measurement realizations.

The certified family is |psi(alpha)> = sum_i alpha_i |ii> with strictly
positive Schmidt coefficients. A Realization packages a state with
Alice's unitary observables and Bob's generalized observables; dressing
embeds the ideal realization into larger Bob/Eve registers behind a
random local unitary, which is exactly the freedom the certification
statements allow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError, SizeError
from .linalg import Ket, dagger, haar_unitary
from .measurements import GeneralizedObservable, _powers, generalized_pauli


def schmidt_rows(alpha) -> np.ndarray:
    """Each row of a stack of Schmidt vectors, checked and scaled to unit norm.

    alpha is (n, d) with d >= 2; every entry must be finite and positive
    and every row's 2-norm within 1e-6 of 1, or DomainError is raised.
    Returns a new (n, d) array of the rows divided by their norms, each
    norm taken as np.linalg.norm takes it, so a row of the stack is
    bit for bit the SchmidtVector of that row.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape[-1] < 2:
        raise DomainError("need at least two Schmidt coefficients")
    if not np.isfinite(a).all():
        raise DomainError("Schmidt coefficients must be finite")
    if not a.min() > 0.0:
        raise DomainError(f"Schmidt coefficients must be positive, min {a.min()}")
    nrm = np.sqrt(np.vecdot(a, a, keepdims=True))
    near = abs(nrm - 1.0) <= 1e-6
    if not near.all():
        raise DomainError(f"||alpha|| = {nrm[~near][0]} is off by more than 1e-6")
    return a / nrm


@dataclass(frozen=True)
class SchmidtVector:
    """Strictly positive Schmidt coefficients, unit 2-norm; alpha is read-only."""

    alpha: np.ndarray

    def __post_init__(self):
        a = schmidt_rows(np.asarray(self.alpha, dtype=np.float64).reshape(1, -1))[0]
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)

    @property
    def d(self) -> int:
        return self.alpha.size


def maximally_entangled(d: int) -> SchmidtVector:
    return SchmidtVector(np.full(d, 1.0 / np.sqrt(d)))


def schmidt_state(sv: SchmidtVector) -> Ket:
    """|psi(alpha)> on C^d (x) C^d."""
    d = sv.d
    amps = np.zeros(d * d, dtype=np.complex128)
    amps[np.arange(d) * d + np.arange(d)] = sv.alpha
    return Ket(amps, (d, d))


@dataclass(frozen=True)
class Realization:
    """State plus one observable per setting on each side.

    Factor 0 of the state is Alice's, factor 1 Bob's; a third factor, if
    present, is an eavesdropper's and is traced out by every statistic.
    Alice observables must be unitary with A^d = 1 (d = Bob's outcome
    count), so their spectra are d-th roots of unity; alice_observables
    is a list of read-only copies of the arrays given, and alice_powers[i]
    the read-only stack A_i^0..A_i^(d-1) formed while A_i^d = 1 is checked.
    """

    state: Ket
    alice_observables: list
    bob_observables: list
    alice_powers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.state.factor_dims) not in (2, 3):
            raise SizeError("state must have factors (A, B) or (A, B, E)")
        if not self.bob_observables:
            raise SizeError("need at least one Bob observable")
        d = self.bob_observables[0].d
        da, db = self.state.factor_dims[0], self.state.factor_dims[1]
        alice, powers = [np.array(a, dtype=np.complex128) for a in self.alice_observables], []
        for i, a in enumerate(alice):
            if a.shape != (da, da):
                raise SizeError(f"Alice observable {i} shape {a.shape} != {(da, da)}")
            if not np.allclose(a @ dagger(a), np.eye(da), rtol=0.0, atol=1e-9):
                raise ContractError(f"Alice observable {i} is not unitary")
            chain = np.stack(list(_powers(a, d)))
            if not np.allclose(chain[-1] @ a, np.eye(da), rtol=0.0, atol=1e-9):
                raise ContractError(f"Alice observable {i}^{d} != identity")
            a.flags.writeable = chain.flags.writeable = False
            powers.append(chain)
        for i, g in enumerate(self.bob_observables):
            if not isinstance(g, GeneralizedObservable):
                raise ContractError(f"Bob observable {i} is not a GeneralizedObservable")
            if g.d != d:
                raise SizeError(f"Bob observable {i} has {g.d} outcomes, expected {d}")
            if g.dim != db:
                raise SizeError(f"Bob observable {i} dim {g.dim} != {db}")
        object.__setattr__(self, "alice_observables", alice)
        object.__setattr__(self, "bob_observables", list(self.bob_observables))
        object.__setattr__(self, "alice_powers", tuple(powers))

    @property
    def d(self) -> int:
        return self.bob_observables[0].d


def ideal_realization(sv: SchmidtVector) -> Realization:
    """Reference realization reaching the quantum maximum.

    Alice measures the clock and shift operators; Bob measures their
    images under the state's complex conjugation, Z* and X.
    """
    d = sv.d
    z = generalized_pauli(d, "Z")
    x = generalized_pauli(d, "X")
    bob = [
        GeneralizedObservable.from_unitary(np.conj(z), d),
        GeneralizedObservable.from_unitary(x, d),
    ]
    return Realization(schmidt_state(sv), [z, x], bob)


def dress_realization(
    r: Realization,
    junk_dim_b: int = 1,
    eve_dim: int = 1,
    seed: int | None = None,
) -> Realization:
    """Embed Bob's side into a junk register and hand Eve a purification.

    The state becomes U_B (|psi> (x) |xi>) with |xi> a state of the
    junk/Eve registers and U_B a unitary on Bob's enlarged factor; Bob's
    observables are extended by the identity and conjugated by the same
    U_B, so every observable statistic is unchanged. seed=None keeps
    U_B = identity and |xi> = |0..0>; an integer seed draws both.
    """
    if len(r.state.factor_dims) != 2:
        raise SizeError("can only dress an (A, B) realization")
    if junk_dim_b < 1 or eve_dim < 1:
        raise DomainError("junk_dim_b and eve_dim must be >= 1")
    da, db = r.state.factor_dims
    dbj = db * junk_dim_b
    if seed is None:
        xi = np.zeros(junk_dim_b * eve_dim, dtype=np.complex128)
        xi[0] = 1.0
        u = np.eye(dbj, dtype=np.complex128)
    else:
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal(junk_dim_b * eve_dim) + 1j * rng.standard_normal(
            junk_dim_b * eve_dim
        )
        xi /= np.linalg.norm(xi)
        u = haar_unitary(dbj, rng)
    amps = np.einsum(
        "ab,je->abje",
        r.state.amplitudes.reshape(da, db),
        xi.reshape(junk_dim_b, eve_dim),
    ).reshape(da, dbj, eve_dim)
    amps = np.einsum("ij,aje->aie", u, amps)
    dims = (da, dbj) if eve_dim == 1 else (da, dbj, eve_dim)
    state = Ket(amps.reshape(-1), dims)
    eye_j = np.eye(junk_dim_b)
    bob = []
    for g in r.bob_observables:
        ops = np.stack([u @ np.kron(bk, eye_j) @ dagger(u) for bk in g.operators])
        bob.append(GeneralizedObservable(ops))
    return Realization(state, r.alice_observables, bob)


_MAX_DRAWS = 10_000


def random_schmidt_vector(
    d: int, rng: np.random.Generator, min_coeff: float = 0.05
) -> SchmidtVector:
    """Rejection-sample alpha with every coefficient >= min_coeff.

    Raises DomainError when the floor is infeasible, or when none of
    _MAX_DRAWS draws meets it: at large d that happens far below the
    feasibility limit 1/sqrt(d), e.g. d=512 with min_coeff=0.01.
    """
    if min_coeff * np.sqrt(d) >= 1.0:
        raise DomainError(f"min_coeff {min_coeff} infeasible for d={d}")
    for _ in range(_MAX_DRAWS):
        sq = rng.dirichlet(np.ones(d))
        a = np.sqrt(sq)
        if a.min() >= min_coeff:
            return SchmidtVector(a)
    raise DomainError(
        f"no draw in {_MAX_DRAWS} met min_coeff {min_coeff} at d={d}; lower the floor"
    )
