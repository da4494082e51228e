"""Three-setting qutrit Bell scenario and the dressed-Alice check.

The functional sum_{k=1,2} sum_{x,y} lambda_k omega^{kxy} <A_x^k B_y^k>
with lambda_1 = exp(-i pi/18) has deterministic bound 6 sqrt(3) cos(pi/9);
quantum strategies beat it, and a see-saw over order-3 observables finds
the maximum. The see-saw runs all its seeded restarts in lockstep: each
step is one stacked numpy call over the restarts still running, and
every restart keeps the bits it has when run alone. A maximal violation
certifies Alice's observables only up to a block structure Z_3 (x) 1 and
X_3 (x) Q + X_3^T (x) (1-Q); the extended check verifies that the
steering certificate still works verbatim for such dressed observables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import ContractError, DomainError, SizeError
from .linalg import Ket, dagger
from .measurements import GeneralizedObservable, generalized_pauli, is_projective, omega
from .states import Realization, SchmidtVector, schmidt_state
from .steering import functional_coefficients, lhs_bound_exact, evaluate

BELL3_BOUND = 6.0 * np.sqrt(3.0) * np.cos(np.pi / 9.0)
LAMBDA1 = np.exp(-1j * np.pi / 18.0)


def _bell_scalars(lam1) -> np.ndarray:
    """lambda_k omega^{kxy} as a (3, 3, 2) array indexed by (x, y, k - 1).

    Each is one numpy scalar product, lam1 * w ** (x y) or
    conj(lam1) * w ** (2 x y), as the reference sum of np.kron terms forms
    it, so lambda_2 = conj(lambda_1).
    """
    w = omega(3)
    lam2 = np.conj(lam1)
    return np.array([[(lam1 * w ** (x * y), lam2 * w ** (2 * x * y)) for y in range(3)]
                     for x in range(3)])


def _bell_sum(alice_pairs, bob_pairs, scalars) -> np.ndarray:
    """sum_xyk scalars[x, y, k] A_x^{k+1} (x) B_y^{k+1} as one matrix.

    alice_pairs holds the pairs (A_x, A_x^2) and bob_pairs (B_y, B_y^2),
    shape (..., 3, 2, dim, dim); leading axes, such as the see-saw's
    restart axis, are kept, and each leading index gets the bits of its
    pairs alone. The sum is _term_sum of the two sides' _terms layouts.
    """
    return _term_sum(_terms(alice_pairs, 0), _terms(bob_pairs, 1), scalars)


def _terms(pairs, side: int) -> np.ndarray:
    """(..., 3, 2, dim, dim) pairs laid out for _term_sum's broadcast.

    Alice (side 0) becomes (..., 3, 1, 2, dim^2, 1) and Bob (side 1)
    (..., 1, 3, 2, 1, dim^2), so their product holds the 18 terms as
    np.multiply.outer(A, B). The see-saw lays out a fixed side once and
    reuses it for every trial of the other side.
    """
    p = np.asarray(pairs)
    lead, n = p.shape[:-4], p.shape[-1] ** 2
    return p.reshape(*lead, 1, 3, 2, 1, n) if side else p.reshape(*lead, 3, 1, 2, n, 1)


def _term_sum(a, b, scalars) -> np.ndarray:
    """sum_xyk scalars[x, y, k] A_x^{k+1} (x) B_y^{k+1} from _terms layouts.

    One broadcast product forms all 18 terms, with indices (i, i', j, j').
    One product scales them, and one reduction sums them in (x, y, k)
    order, starting from 0.0. A last transpose puts the sum in np.kron's
    (i, j, i', j') order. Each step rounds as the sum of np.kron terms
    added into a zero matrix does, term by term and in the same order, so
    the two agree bit for bit. numpy's complex multiply is not bitwise
    commutative (its SIMD kernels use fused multiply-adds), so the
    operands keep that sum's order: A before B, the scalar before the
    product. The 18 terms are held at once, 18 times the operator's
    memory.
    """
    lead, da, db = a.shape[:-5], isqrt(a.shape[-2]), isqrt(b.shape[-1])
    terms = a * b
    np.multiply(scalars[:, :, :, None, None], terms, out=terms)
    op = np.add.reduce(terms.reshape(*lead, 18, da, da, db, db), axis=-5, initial=0.0)
    return op.swapaxes(-3, -2).reshape(*lead, da * db, da * db)


def bell_value(r: Realization) -> float:
    """Value of the three-setting functional on a realization.

    The operator sum_xy sum_k lambda_k omega^{kxy} A_x^k (x) B_y^k, with
    lambda_1 = LAMBDA1 and lambda_2 = conj(LAMBDA1), is formed by
    _bell_sum, so it equals the np.kron sum, added into a zero matrix in
    (x, y, k) order, bit for bit.
    """
    if len(r.alice_observables) != 3 or len(r.bob_observables) != 3:
        raise SizeError("the functional takes three settings per side")
    if r.d != 3:
        raise SizeError(f"expected 3 outcomes, got {r.d}")
    for i, g in enumerate(r.bob_observables):
        ok, res = is_projective(g)
        if not ok:
            raise ContractError(f"Bob observable {i} not projective: {res}")
    op = _bell_sum(
        [(a, a @ a) for a in r.alice_observables],
        [g.operators[1:] for g in r.bob_observables],
        _bell_scalars(LAMBDA1),
    )
    # op acts on A (x) B; an Eve factor, if any, is the trailing axis of m.
    m = r.state.amplitudes.reshape(op.shape[0], -1)
    val = complex(np.sum(np.conj(m) * (op @ m)))
    if not abs(val.imag) <= 1e-9:
        raise ContractError(f"functional value has imaginary part {val.imag:.3e}")
    return float(val.real)


def _no_sort(_):
    return None


@functools.cache
def _gees(n: int):
    """LAPACK zgees and the lwork that scipy.linalg.schur queries for order n.

    The query's answer depends on n alone, so one query per size serves
    every later call.
    """
    from scipy.linalg import get_lapack_funcs  # only the see-saw needs it; kept off the CLI import

    gees = get_lapack_funcs("gees", dtype=np.complex128)
    work = gees(_no_sort, np.zeros((n, n), dtype=np.complex128), lwork=-1)[-2]
    return gees, int(work[0].real)


def _schur(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (t, q) of a finite square matrix, u = q t q^dagger.

    LAPACK zgees is called as scipy.linalg.schur(u, output="complex")
    calls it (same lwork, no sorting, u left unchanged), so the bits are
    schur's, without its per-call wrapper. Finiteness is not checked
    here: _project_order3 checks each stack once. A failed decomposition
    raises LinAlgError.
    """
    gees, lwork = _gees(u.shape[0])
    t, _, _, q, _, info = gees(_no_sort, u, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found (zgees info {info})")
    return t, q


def _project_order3(u: np.ndarray) -> np.ndarray:
    """Nearest unitary whose spectrum sits on the cube roots of unity.

    Takes a 3 x 3 matrix or a (..., 3, 3) stack and rounds each matrix.
    A non-finite entry raises ValueError, as in scipy.linalg.schur.
    zgees has no stacked form, so _schur runs once per matrix, writing
    into one stack of Schur forms and one of Schur vector matrices, the
    latter kept Fortran-ordered, as zgees returns them; the rest of the
    step runs on the whole stack.
    """
    flat = u.reshape(-1, 3, 3)
    if not np.isfinite(flat).all():
        raise ValueError("array must not contain infs or NaNs")
    t = np.empty(flat.shape, dtype=np.complex128)
    q = np.empty(flat.shape, dtype=np.complex128).swapaxes(-1, -2)
    for i, m in enumerate(flat):
        t[i], q[i] = _schur(m)
    angles = np.angle(np.diagonal(t, axis1=-2, axis2=-1))
    ks = np.round(angles * 3.0 / (2.0 * np.pi)).astype(int) % 3
    return ((q * omega(3) ** ks[:, None, :]) @ dagger(q)).reshape(u.shape)


def _random_starts(seeds) -> np.ndarray:
    """Six Haar-random order-3 unitaries per seed, shape (len(seeds), 6, 3, 3).

    Each has a Haar-random eigenbasis and the full spectrum (1, w, w^2).
    A seed's generator draws one (6, 2, 3, 3) normal array, the real and
    then the imaginary part of each matrix in turn; one stacked QR and
    one phase fix then serve every matrix of every seed.
    """
    g = np.array([np.random.default_rng(ss).normal(size=(6, 2, 3, 3)) for ss in seeds])
    q, r = np.linalg.qr(g[:, :, 0] + 1j * g[:, :, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return (q * omega(3) ** np.arange(3)) @ dagger(q)


def _polar_rounded(m: np.ndarray) -> np.ndarray:
    """Polar factor of each matrix of a (..., 3, 3) stack, rounded to order 3.

    One stacked SVD gives every polar factor; a non-finite entry raises
    LinAlgError before it.
    """
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("SVD of a matrix with infs or NaNs")
    u, _, vh = np.linalg.svd(m)
    return _project_order3(dagger(vh) @ dagger(u))


def _with_squares(obs: np.ndarray) -> np.ndarray:
    """(..., 3, 3, 3) observables as (..., 3, 2, 3, 3) pairs (U, U @ U)."""
    return np.stack((obs, obs @ obs), axis=-3)


def _seesaw(seeds, iters: int, lam1) -> list:
    """Run every restart of seeds in lockstep.

    Returns, per restart, (value, psi, alice, bobs, history).

    A restart draws its six starting observables from its own seed. State
    update is exact; observable updates propose the polar factor of the
    linear coefficient matrix rounded to an order-3 spectrum and are
    accepted only when they do not decrease the value, so the per-sweep
    history is monotone by construction. The observables (held with their
    squares), the Bell operator and the value carry a leading restart
    axis, and each step is one stacked call over the live restarts: eigh
    for the state, one broadcast product and one SVD per side for the
    coefficient matrices and their polar factors, _term_sum and a
    quadratic form for each trial, whose acceptance is a mask. The Bell
    operator of the current observables is kept from the trial that set
    them. A restart whose value has not risen by 1e-15 over five sweeps
    leaves the batch. Each stacked call works matrix by matrix with the
    memory layout of one restart alone, so a restart's bits do not
    depend on the others.
    """
    w = omega(3)
    scalars = _bell_scalars(lam1)
    # roots[x, y] = w^(xy), each the scalar power that multiplies a term
    # of the coefficient sums
    roots = np.array([[w ** (x * y) for y in range(3)] for x in range(3)])[:, :, None, None]
    alice, bob = np.split(_with_squares(_random_starts(seeds)), 2, axis=1)
    op = _bell_sum(alice, bob, scalars)
    live = np.arange(len(seeds))
    hist = np.empty((len(seeds), iters))
    runs = [None] * len(seeds)

    def coefficients(ms):
        """lam1 sum_j w^(ij) ms[:, j] for each i, summed from 0 in j order.

        roots is symmetric, so Alice's matrices (ms = ks, summed over y)
        and Bob's (ms = ls, summed over x) take the same form.
        """
        return lam1 * np.add.reduce(roots * ms[:, None], axis=2, initial=0.0)

    def trials(pairs, new, op, cur, bell):
        """Propose new[:, x] for x = 0, 1, 2 in turn, each kept by a
        restart whose value it does not lower; bell maps trial pairs to
        their Bell operators. Returns the updated pairs, op and cur: the
        trial's arrays when every restart keeps it, else the given ones,
        written where a restart keeps it.
        """
        new = _with_squares(new)
        for x in range(3):
            trial = pairs.copy()
            trial[:, x] = new[:, x]
            trial_op = bell(trial)
            v = (bra @ trial_op @ ket).real[:, 0, 0]
            ok = v >= cur
            kept = np.count_nonzero(ok)
            if kept == ok.size:
                pairs, op, cur = trial, trial_op, v
            elif kept:
                pairs[ok], op[ok], cur[ok] = trial[ok], trial_op[ok], v[ok]
        return pairs, op, cur

    for sweep in range(iters):
        vals, vecs = np.linalg.eigh(op)
        psi, cur = vecs[:, :, -1], vals[:, -1]
        bra, ket = np.conj(psi)[:, None, :], psi[:, :, None]
        p = psi.reshape(-1, 3, 3)
        # Alice's updates leave Bob fixed and Bob's leave Alice fixed, so
        # each side's coefficient matrices and the fixed side's terms are
        # formed once per sweep.
        ks = p[:, None] @ bob[:, :, 0].swapaxes(-1, -2) @ dagger(p)[:, None]
        bob_terms = _terms(bob, 1)
        alice, op, cur = trials(alice, _polar_rounded(coefficients(ks)), op, cur,
                                lambda t: _term_sum(_terms(t, 0), bob_terms, scalars))
        ls = np.einsum("lia,lxij,ljb->lxba", np.conj(p), alice[:, :, 0], p)
        alice_terms = _terms(alice, 0)
        bob, op, cur = trials(bob, _polar_rounded(coefficients(ls)), op, cur,
                              lambda t: _term_sum(alice_terms, _terms(t, 1), scalars))
        hist[live, sweep] = cur
        if sweep + 1 == iters:
            done = np.ones(live.size, dtype=bool)
        elif sweep >= 5:
            done = cur - hist[live, sweep - 5] < 1e-15
        else:
            continue
        if not done.any():
            continue
        for j in np.flatnonzero(done):
            runs[live[j]] = (float(cur[j]), psi[j].copy(), list(alice[j, :, 0].copy()),
                             list(bob[j, :, 0].copy()), hist[live[j], :sweep + 1].tolist())
        keep = ~done
        live, alice, bob, op = live[keep], alice[keep], bob[keep], op[keep]
        if not live.size:
            break
    return runs


def seesaw_details(seed: int = 42, restarts: int = 32, iters: int = 150):
    """Best (value, realization, sweeps used) over seeded random restarts.

    The restarts run in lockstep in the calling thread (_seesaw); each
    gives the bits it gives when run alone, and no thread-count setting
    is read. The best value wins, ties broken by the lowest restart
    index, and the sweep count is the winner's.
    """
    if restarts < 1 or iters < 1:
        raise DomainError("restarts and iters must be >= 1")
    runs = _seesaw(np.random.SeedSequence(seed).spawn(restarts), iters, LAMBDA1)
    best = max(range(restarts), key=lambda i: (runs[i][0], -i))
    val, psi, alice, bobs, history = runs[best]
    r = Realization(
        state=Ket(psi, (3, 3)),
        alice_observables=alice,
        bob_observables=[GeneralizedObservable.from_unitary(b, 3) for b in bobs],
    )
    return val, r, len(history)


@dataclass(frozen=True)
class DressedAlice:
    """Observables certified by maximal violation: fixed only up to a
    projector Q on an auxiliary factor of unknown dimension.

    q_projector, a0 and a1 are read-only copies of the arrays given.
    """

    aux_dim: int
    q_projector: np.ndarray
    a0: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        q = np.array(self.q_projector, dtype=np.complex128)
        if q.shape != (self.aux_dim, self.aux_dim):
            raise SizeError("q_projector must act on the aux factor")
        if not (np.linalg.norm(q @ q - q) <= 1e-9 and np.linalg.norm(q - dagger(q)) <= 1e-9):
            raise DomainError("q_projector is not an orthogonal projector")
        q.flags.writeable = False
        object.__setattr__(self, "q_projector", q)
        for name in ("a0", "a1"):
            a = np.array(getattr(self, name), dtype=np.complex128)
            n = 3 * self.aux_dim
            if a.shape != (n, n):
                raise SizeError(f"{name} must have dimension {n}")
            if not np.linalg.norm(a @ dagger(a) - np.eye(n)) <= 1e-9:
                raise DomainError(f"{name} is not unitary")
            if not np.linalg.norm(np.linalg.matrix_power(a, 3) - np.eye(n)) <= 1e-9:
                raise DomainError(f"{name} cubed is not the identity")
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def q_rank(self) -> int:
        return int(round(np.trace(self.q_projector).real))


def dressed_alice(aux_dim: int, q_rank: int) -> DressedAlice:
    """Z_3 (x) 1 and X_3 (x) Q + X_3^T (x) (1-Q), Q of the given rank."""
    if aux_dim < 1:
        raise DomainError("aux_dim must be positive")
    if not 0 <= q_rank <= aux_dim:
        raise DomainError(f"q_rank {q_rank} outside [0, {aux_dim}]")
    z = generalized_pauli(3, "Z")
    x = generalized_pauli(3, "X")
    q = np.zeros((aux_dim, aux_dim), dtype=np.complex128)
    for i in range(q_rank):
        q[i, i] = 1.0
    qc = np.eye(aux_dim) - q
    a0 = np.kron(z, np.eye(aux_dim))
    a1 = np.kron(x, q) + np.kron(x.T, qc)
    return DressedAlice(aux_dim=aux_dim, q_projector=q, a0=a0, a1=a1)


def _dressed_pair_realization(sv: SchmidtVector, da: DressedAlice, w: float) -> Realization:
    """psi(alpha) (x) branch with Bob's observables matched branch by
    branch: X_3 against Alice's Q sector and X_3-dagger against the
    complement."""
    d = 3
    aux = da.aux_dim
    z = generalized_pauli(d, "Z")
    x = generalized_pauli(d, "X")
    q = da.q_projector
    qc = np.eye(aux) - q
    b0 = np.kron(np.conj(z), np.eye(aux))
    b1 = np.kron(x, q) + np.kron(dagger(x), qc)
    branch = np.zeros((aux, aux), dtype=np.complex128)
    branch[0, 0] = np.sqrt(w)
    if aux > 1:
        branch[1, 1] = np.sqrt(1.0 - w)
    core = schmidt_state(sv).amplitudes.reshape(d, d)
    full = np.einsum("ab,cd->acbd", core, branch).reshape(d * aux, d * aux)
    return Realization(
        state=Ket(full, (d * aux, d * aux)),
        alice_observables=[da.a0, da.a1],
        bob_observables=[
            GeneralizedObservable.from_unitary(b0, d),
            GeneralizedObservable.from_unitary(b1, d),
        ],
    )


@dataclass(frozen=True)
class ExtendedCheckReport:
    """Steering certificate evaluated on dressed-Alice observables."""

    aux_dim: int
    q_rank: int
    branch_weight: float
    value: float
    value_residual: float
    lhs_bound: float
    lhs_gap: float
    passed: bool
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "aux_dim": self.aux_dim,
            "q_rank": self.q_rank,
            "branch_weight": self.branch_weight,
            "value": self.value,
            "value_residual": self.value_residual,
            "lhs_bound": self.lhs_bound,
            "lhs_gap": self.lhs_gap,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def extended_certification_check(
    sv: SchmidtVector, da: DressedAlice, seed: int
) -> ExtendedCheckReport:
    """Certificate for a two-preparation run with dressed observables.

    The branch state sqrt(w)|00> + sqrt(1-w)|11> carries a seeded weight;
    when Q is the full aux identity (or there is no second level) the
    second branch is unused and w is pinned to 1. The check must find the
    functional value exactly 3 and a strictly smaller exact LHS bound.
    """
    if sv.alpha.size != 3:
        raise SizeError("the extended check is a qutrit construction")
    rng = np.random.default_rng(seed)
    if da.q_rank == da.aux_dim or da.aux_dim == 1:
        w = 1.0
    else:
        w = float(rng.uniform(0.1, 0.9))
    r = _dressed_pair_realization(sv, da, w)
    f = functional_coefficients(sv)
    value = evaluate(f, r)
    residual = abs(value - 3.0)
    lhs = lhs_bound_exact(f, alice_observables=r.alice_observables).value
    failures = []
    if not residual <= 1e-9:
        failures.append(f"functional value {value:.12f} differs from 3")
    if not lhs < 3.0 - 1e-9:
        failures.append(f"dressed LHS bound {lhs:.12f} does not stay below 3")
    return ExtendedCheckReport(
        aux_dim=da.aux_dim,
        q_rank=da.q_rank,
        branch_weight=w,
        value=value,
        value_residual=residual,
        lhs_bound=lhs,
        lhs_gap=3.0 - lhs,
        passed=not failures,
        failures=failures,
    )
