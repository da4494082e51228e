#!/usr/bin/env python3
"""Quantum value vs local-hidden-state bounds across dimensions.

For every Schmidt vector the ideal measurements reach the quantum
maximum d, while the best LHS model stays strictly below it.  This
script tabulates the gap for maximally entangled states, for random
states, and along the qubit family alpha = (cos t, sin t) where the
gap closes as the state approaches a product state.  The paper's
upper bound is the same eigenvalue as beta_L plus the eigensolver's
roundoff margin; the "upper - beta_L" column shows that margin.
"""

import numpy as np

import steercert as sc


def show(label, f):
    beta_q, beta_l = sc.quantum_maximum(f), sc.lhs_bound_exact(f).value
    gap = beta_q - beta_l
    upper = sc.lhs_bound_paper_upper(f).value
    print(f"  {label:<28} beta_Q = {beta_q:.0f}   beta_L = {beta_l:.6f}   "
          f"upper - beta_L = {upper - beta_l:.1e}   gap = {gap:.6f}")


def main():
    print("maximally entangled states")
    for d in range(2, 7):
        show(f"d = {d}, uniform alpha", sc.functional_coefficients(sc.maximally_entangled(d)))

    print("\nrandom Schmidt vectors (seed 7)")
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        sv = sc.random_schmidt_vector(d, rng)
        show(f"d = {d}, alpha = {np.round(sv.alpha, 3)}", sc.functional_coefficients(sv))

    print("\nqubit family alpha = (cos t, sin t)")
    for theta in (np.pi / 4, np.pi / 6, np.pi / 12, np.pi / 24):
        sv = sc.SchmidtVector(np.array([np.cos(theta), np.sin(theta)]))
        show(f"t = pi/{round(np.pi / theta):<3d}", sc.functional_coefficients(sv))
    print("\nthe gap never vanishes for an entangled state, but it fades with it")


if __name__ == "__main__":
    main()
