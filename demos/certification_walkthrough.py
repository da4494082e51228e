#!/usr/bin/env python3
"""Certifying a black-box realization, then breaking it on purpose.

Bob's measurement device is untrusted: all we assume is that someone
hands us a state and two d-outcome observables which together claim the
maximal steering value.  The certifier checks the value, the stabilizer
residuals, projectivity and the Weyl commutation relation.  Passing all
of them pins the realization down to the ideal one up to a local
isometry. certify applies one such isometry, Bob's swap isometry, and
reports extracted_fidelity: how close the state it leaves is to
psi(alpha). It is null when Bob's pair is not projective, as the
isometry then is none.
"""

import numpy as np

import steercert as sc

D = 3
JUNK, EVE = 2, 2


def report_line(rep):
    per_k = ", ".join(f"{x:.2e}" for x in rep.stabilizer_residuals)
    comm = "skipped" if rep.commutation_residual is None else f"{rep.commutation_residual:.2e}"
    print(f"  verdict {rep.verdict:<10} value {rep.value:+.9f}  "
          f"stabilizers [{per_k}]  s_op {rep.s_residual:.2e}  commutation {comm}")
    for msg in rep.failures:
        print(f"    failure: {msg}")


def main():
    rng = np.random.default_rng(12)
    sv = sc.random_schmidt_vector(D, rng)
    f = sc.functional_coefficients(sv)
    print(f"alpha = {np.round(sv.alpha, 4)}, gamma = {f.gamma:.4f}")

    honest = sc.dress_realization(sc.ideal_realization(sv), JUNK, EVE, seed=5)
    print(f"\nhonest device, Bob hidden in dim {D * JUNK} with an Eve register:")
    reports = {"honest": sc.certify(f, honest)}
    report_line(reports["honest"])

    print("\nsame device, observables reported in the wrong order:")
    swapped = sc.Realization(
        honest.state, honest.alice_observables, honest.bob_observables[::-1]
    )
    reports["swapped"] = sc.certify(f, swapped)
    report_line(reports["swapped"])

    print("\nsame device, 1% depolarized first observable:")
    ops = honest.bob_observables[0].operators.copy()
    ops[1:] = 0.99 * ops[1:]
    noisy = sc.Realization(
        honest.state,
        honest.alice_observables,
        [sc.GeneralizedObservable(ops), honest.bob_observables[1]],
    )
    reports["1% depolarized"] = sc.certify(f, noisy)
    report_line(reports["1% depolarized"])

    print("\nundoing the dressing with Bob's swap isometry:")
    for name, rep in reports.items():
        fid = rep.extracted_fidelity
        print(f"  {name:<15} extracted_fidelity {'null' if fid is None else f'{fid:.15f}'}")


if __name__ == "__main__":
    main()
