"""Shared builders used across the test suite.

Everything here is deterministic given an explicit rng or seed; tests that
need fresh randomness construct their own ``np.random.default_rng(seed)``.
"""

import copy

import numpy as np
from hypothesis import strategies as st

import steercert as sc
from steercert.measurements import root_powers


def admissible_schmidt(d, rng):
    """Random Schmidt vector whose first d-1 coefficients stay >= 1/d.

    The weighted-projector measurement construction needs element weights
    1/(d*alpha_i)^2 <= 1 for i < d-1, i.e. alpha_i >= 1/d on those slots.
    The last coefficient only has to stay away from zero, so the squared
    coefficients are floored at 1/d^2 and the leftover mass is spread with
    a flat Dirichlet draw.
    """
    floor = 1.0 / d**2
    spare = 1.0 - (d - 1) * floor
    while True:
        w = rng.dirichlet(np.ones(d))
        squares = np.concatenate([floor + w[:-1] * spare, [w[-1] * spare]])
        alpha = np.sqrt(squares)
        if alpha[-1] >= 0.05:
            return sc.SchmidtVector(alpha)


def fourier_observable(elements):
    """B_k = sum_a omega^(k a) N_a: the observable of d POVM elements.

    The forward map of observable_to_povm, kept here as the tests' way to
    build noisy or random observables and as a reference.
    """
    d = len(elements)
    phases = root_powers(d, np.arange(d), np.arange(d))  # [k, a]
    return sc.GeneralizedObservable(np.einsum("ka,aij->kij", phases, np.asarray(elements)))


def steering_operator(f, r):
    """The steering functional as one dense matrix on Alice (x) Bob.

    The reference that the matrix-free sc.evaluate and sc.stabilizer_residuals
    are compared against, written out term by term from the realization's
    first two observables per side. An Eve factor is not included.
    """
    da, db = r.state.factor_dims[0], r.state.factor_dims[1]
    a0, a1 = r.alice_observables[:2]
    b0, b1 = (g.operators for g in r.bob_observables[:2])
    op = np.zeros((da * db, da * db), dtype=complex)
    for k in range(1, f.d):
        a0k = np.linalg.matrix_power(a0, k)
        op += np.kron(a0k, b0[k] + f.delta[k] * np.eye(db))
        op += f.gamma * np.kron(np.linalg.matrix_power(a1, k), b1[k])
    return op


def tampered_dressed(d, rng, eps=1e-3):
    """Honest dressed device and a copy whose B_1 is rotated by ~eps: the
    rotation is exp(i eps H), H a Gaussian Hermitian matrix drawn from rng."""
    sv = sc.random_schmidt_vector(d, rng)
    r = sc.dress_realization(sc.ideal_realization(sv), 2, 2, seed=d)
    m = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    w, v = np.linalg.eigh((m + sc.dagger(m)) / 2)
    rot = (v * np.exp(1j * eps * w)) @ sc.dagger(v)
    b1 = rot @ r.bob_observables[1].operators[1] @ sc.dagger(rot)
    bad = sc.Realization(
        r.state,
        r.alice_observables,
        [r.bob_observables[0], sc.GeneralizedObservable.from_unitary(b1, d)],
    )
    return sc.functional_coefficients(sv), r, bad


def bell_operator_reference(alice, bob_pairs, lam1):
    """The qutrit Bell operator as a sum of np.kron terms.

    sum_xy sum_k lambda_k omega^{kxy} A_x^k (x) B_y^k with lambda_2 =
    conj(lambda_1) and bob_pairs holding (B_y, B_y^2), added into a zero
    matrix in (x, y, k) order with each scalar formed as in the see-saw.
    bell3._bell_sum must reproduce it bit for bit.
    """
    w = sc.omega(3)
    da, db = alice[0].shape[0], bob_pairs[0][0].shape[0]
    op = np.zeros((da * db, da * db), dtype=complex)
    for x in range(3):
        a1 = alice[x]
        a2 = a1 @ a1
        for y in range(3):
            b1, b2 = bob_pairs[y]
            op += lam1 * w ** (x * y) * np.kron(a1, b1)
            op += np.conj(lam1) * w ** (2 * x * y) * np.kron(a2, b2)
    return op


def random_junk_state(junk_dim, eve_dim, rng):
    """Normalized pseudo-random vector on the junk x Eve factor."""
    xi = rng.normal(size=(junk_dim * eve_dim, 2)) @ np.array([1.0, 1.0j])
    return xi / np.linalg.norm(xi)


def dressed_pipeline(d, junk, eve, seed, kind="partial"):
    """Dressed state, observables and measurement sharing one hiding unitary.

    Builds |psi> = (I_A x V x I_E)(|psi(alpha)> x |xi>) with V acting on
    Bob's full d*junk factor, Bob observables V (B_k x I) V*, and the
    measurement V (I_b x I) V*.  Because the same V dresses state,
    observables and measurement, the ideal correlations survive exactly.

    Returns a dict with keys sv, realization, psi4, r_povm, ideal, rho.
    psi4 carries factor dims (d, d, junk, eve) so the residual check can
    address Bob's certified slot separately from the junk.
    """
    rng = np.random.default_rng(seed)
    if kind == "partial":
        sv = admissible_schmidt(d, rng)
        ideal = sc.partial_povm(sv)
    elif kind == "covariant":
        sv = sc.maximally_entangled(d)
        nu = rng.normal(size=(d, 2)) @ np.array([1.0, 1.0j])
        ideal = sc.covariant_povm(d, nu / np.linalg.norm(nu))
    else:
        raise ValueError(kind)

    v = sc.haar_unitary(d * junk, rng)
    xi = random_junk_state(junk, eve, rng)
    amps = np.einsum("i,j->ij", sc.schmidt_state(sv).amplitudes, xi).reshape(-1)
    # reorder (dA, dB, junk, eve) -> (dA, [dB junk], eve) then apply V on the middle
    amps = amps.reshape(d, d, junk, eve).reshape(d, d * junk, eve)
    amps = np.einsum("ij,ajc->aic", v, amps)
    psi3 = sc.Ket(amps.reshape(-1), (d, d * junk, eve))
    psi4 = sc.Ket(amps.reshape(-1), (d, d, junk, eve))

    ones = np.eye(junk)
    zd = sc.generalized_pauli(d, "Z")
    xd = sc.generalized_pauli(d, "X")
    bob = [
        sc.GeneralizedObservable.from_unitary(v @ np.kron(u, ones) @ sc.dagger(v), d)
        for u in (zd.conj(), xd)
    ]
    realization = sc.Realization(psi3, [zd, xd], bob)
    r_povm = sc.Povm([v @ np.kron(e, ones) @ sc.dagger(v) for e in ideal.elements])
    rho = psi3.reduced((1,))
    return {
        "sv": sv,
        "realization": realization,
        "psi4": psi4,
        "r_povm": r_povm,
        "ideal": ideal,
        "rho": rho,
    }


EDITS = ("leaf", "wrap", "unwrap", "shorten", "extend", "drop_key")


def _edit(node, data, leaves):
    """node with one edit applied: a leaf, nesting changed, a list cut."""
    edit = data.draw(st.sampled_from(EDITS))
    if edit == "wrap":
        return [node]
    if isinstance(node, list) and node and edit in ("unwrap", "shorten", "extend"):
        return {"unwrap": node[0], "shorten": node[:-1], "extend": node + node[-1:]}[edit]
    if isinstance(node, dict) and node and edit == "drop_key":
        key = data.draw(st.sampled_from(sorted(node)))
        return {k: v for k, v in node.items() if k != key}
    return data.draw(leaves)


def perturb(node, data, depth, leaves):
    """node with one descendant, at most depth levels down, edited.

    `data` is hypothesis's st.data(); a leaf edit draws from `leaves`.
    """
    if depth and isinstance(node, (list, dict)) and node:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        out = dict(node) if isinstance(node, dict) else list(node)
        out[key] = perturb(node[key], data, depth - 1, leaves)
        return out
    return _edit(node, data, leaves)


def set_at(blob, path, value):
    """A deep copy of blob with the entry at path replaced by value."""
    out = copy.deepcopy(blob)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out
