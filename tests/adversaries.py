"""Devices that an LHS model or a cheating Bob can produce.

Each builder takes the functional f of a Schmidt vector and returns a
Realization that certify must never call `certified`: its value is at
most beta_l_upper, or it is off the ideal device by more than any
tolerance certify accepts.
"""

import numpy as np

import steercert as sc
from steercert.measurements import root_powers


def lhs_device(f):
    """The beta_L-optimal LHS device.

    Alice holds |eta>, the Perron vector of the best branch of the LHS
    bound, on a (d, 1) state. Bob has no quantum register: his 1 x 1
    operators are the constant responses (b0, 0) of that branch,
    B_{k|0} = omega^(k b0) and B_{k|1} = 1. Its value is beta_L.
    """
    d = f.d
    b0, _, eta, _ = f._perron
    bob = [sc.GeneralizedObservable.from_unitary(np.array([[u]]), d)
           for u in (sc.omega(d) ** b0, 1.0)]
    alice = [sc.generalized_pauli(d, "Z"), sc.generalized_pauli(d, "X")]
    return sc.Realization(sc.Ket(np.abs(eta), (d, 1)), alice, bob)


def mixture_device(f, p):
    """(1-p)|psi_alpha><psi_alpha| + p|11><11|, purified by an Eve qubit,
    measured by the ideal pair."""
    return _mixture(sc.ideal_realization(f.sv), p)


def _mixture(ideal, p):
    d = ideal.d
    psi = np.zeros((d, d, 2), dtype=complex)
    psi[:, :, 0] = np.sqrt(1.0 - p) * ideal.state.amplitudes.reshape(d, d)
    psi[1, 1, 1] = np.sqrt(p)
    return sc.Realization(sc.Ket(psi.ravel(), (d, d, 2)), ideal.alice_observables,
                          ideal.bob_observables)


def lhs_level_mixture(f, u):
    """The mixture at p = p_L + u (1 - p_L), u in [0, 1], where p_L puts
    its value at beta_l_upper.

    The value is linear in p, from d at p = 0 to the value of the product
    state |11>, which an LHS model reaches, at p = 1.
    """
    v11 = sc.evaluate(f, mixture_device(f, 1.0))
    p_l = (f.d - sc.lhs_bound_paper_upper(f).value) / (f.d - v11)
    return mixture_device(f, min(1.0, p_l + u * (1.0 - p_l)))


def near_miss_mixture(f, tol, inside=False):
    """The mixture whose value is d - tol (1 + 1e-3), or d - tol (1 - 1e-3)
    when inside, p found by bisection. Inside the tolerance the value
    passes; the state is off |psi_alpha> by far more than tol."""
    ideal = sc.ideal_realization(f.sv)
    target = f.d - tol * (1.0 - 1e-3 if inside else 1.0 + 1e-3)
    lo, hi = 0.0, 1.0  # the value falls as p grows
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sc.evaluate(f, _mixture(ideal, mid)) > target else (lo, mid)
    return _mixture(ideal, hi)


def swapped_device(f):
    """The ideal device with Bob's two observables swapped."""
    ideal = sc.ideal_realization(f.sv)
    return sc.Realization(ideal.state, ideal.alice_observables, ideal.bob_observables[::-1])


def conjugated_device(f):
    """The ideal device with Bob's operators complex conjugated: (Z, X) in
    place of (Z*, X). At d = 2 this is the ideal device itself."""
    ideal = sc.ideal_realization(f.sv)
    bob = [sc.GeneralizedObservable(np.conj(g.operators)) for g in ideal.bob_observables]
    return sc.Realization(ideal.state, ideal.alice_observables, bob)


def relabelled_device(f, y, c):
    """The ideal device with Bob's outcomes of setting y shifted by c in
    1..d-1: outcome b is reported as b + c mod d, so B_{k|y} becomes
    omega^(k c) B_{k|y}."""
    ideal, d = sc.ideal_realization(f.sv), f.d
    bob = list(ideal.bob_observables)
    phases = root_powers(d, np.arange(d), [c])
    bob[y] = sc.GeneralizedObservable(phases[:, :, None] * bob[y].operators)
    return sc.Realization(ideal.state, ideal.alice_observables, bob)
