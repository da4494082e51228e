"""Acceptance suite: ten numbered criteria, one test and one verdict line each.

Every criterion is backed by a kernel function that takes nothing but
hard-coded seeds and returns a JSON-serializable summary, so criterion 10
can rerun all of them and compare the serialized bytes.
"""

import json
import time

import numpy as np

import steercert as sc
import steercert.bell3 as b3

from conftest import admissible_schmidt, dressed_pipeline

RESULTS = {}


def cached(n, kernel):
    if n not in RESULTS:
        RESULTS[n] = kernel()
    return RESULTS[n]


def alpha_set(d, count, seed):
    rng = np.random.default_rng(seed)
    return [sc.random_schmidt_vector(d, rng, min_coeff=0.05) for _ in range(count)]


# ----------------------------------------------------------------- kernels


def kernel_1():
    out = {}
    for d in range(2, 9):
        devs = [
            abs(sc.evaluate(sc.functional_coefficients(sv), sc.ideal_realization(sv)) - d)
            for sv in alpha_set(d, 50, seed=100 + d)
        ]
        out[str(d)] = float(max(devs))
    return out


def kernel_2():
    out = {"worst_margin": {}, "d2_mes": 0.0}
    for d in range(2, 9):
        values = [
            sc.lhs_bound_exact(sc.functional_coefficients(sv)).value
            for sv in alpha_set(d, 50, seed=100 + d)
        ]
        out["worst_margin"][str(d)] = float(d - max(values))
    out["d2_mes"] = float(
        sc.lhs_bound_exact(sc.functional_coefficients(sc.maximally_entangled(2))).value
    )
    return out


def kernel_3():
    out = {"worst_order": {}, "d2_exact": 0.0, "d2_upper": 0.0}
    for d in range(2, 7):
        margins = []
        for sv in alpha_set(d, 100, seed=200 + d):
            f = sc.functional_coefficients(sv)
            lo = sc.lhs_bound_exact(f).value
            up = sc.lhs_bound_paper_upper(f).value
            margins.append(up - lo)
        out["worst_order"][str(d)] = float(min(margins))
    f = sc.functional_coefficients(sc.maximally_entangled(2))
    out["d2_exact"] = float(sc.lhs_bound_exact(f).value)
    out["d2_upper"] = float(sc.lhs_bound_paper_upper(f).value)
    return out


def kernel_4():
    sv = sc.maximally_entangled(3)
    f = sc.functional_coefficients(sv)
    r0 = sc.ideal_realization(sv)
    certified = 0
    for junk in (1, 2, 3):
        for eve in (1, 2):
            for seed in range(10):
                rep = sc.certify(f, sc.dress_realization(r0, junk, eve, seed=seed))
                certified += int(rep.certified)

    dressed = sc.dress_realization(r0, 2, 2, seed=3)
    swapped = sc.Realization(
        dressed.state, dressed.alice_observables, dressed.bob_observables[::-1]
    )
    other = sc.functional_coefficients(sc.SchmidtVector(np.array([0.8, 0.36, 0.48])))
    g = dressed.bob_observables[0]
    depol_ops = g.operators.copy()
    depol_ops[1:] = 0.99 * depol_ops[1:]
    depol = sc.Realization(
        dressed.state,
        dressed.alice_observables,
        [sc.GeneralizedObservable(depol_ops), dressed.bob_observables[1]],
    )
    tampers = {
        "swapped_observable": sc.certify(f, swapped).verdict,
        "mismatched_alpha": sc.certify(other, dressed).verdict,
        "depolarized_observable": sc.certify(f, depol).verdict,
    }
    return {"certified": certified, "tampers": tampers}


def kernel_5():
    out = {}
    for d in range(2, 7):
        worst_dev, min_eig = 0.0, np.inf
        for sv in alpha_set(d, 100, seed=300 + d):
            f = sc.functional_coefficients(sv)
            spec = sc.ztilde_spectrum(f)
            closed = f.gamma * np.sum(sv.alpha) / sv.alpha
            worst_dev = max(worst_dev, float(np.max(np.abs(spec - closed))))
            min_eig = min(min_eig, float(spec.min()))
        out[str(d)] = {"dev": worst_dev, "min_eig": min_eig}
    return out


def kernel_6():
    out = {"partial": {}, "covariant": {}}
    for d in (3, 4, 5, 6):
        rng = np.random.default_rng(400 + d)
        worst_uniform, all_valid, all_extremal = 0.0, True, True
        for _ in range(20):
            sv = admissible_schmidt(d, rng)
            p = sc.partial_povm(sv)
            all_valid &= sc.validate_povm(p).passed
            ok, info = sc.is_extremal_rank_one(p)
            all_extremal &= ok and info["gram_rank"] == d * d
            probs = sc.outcome_distribution(p, np.diag(sv.alpha**2))
            worst_uniform = max(worst_uniform, float(np.max(np.abs(probs - 1 / d**2))))
        out["partial"][str(d)] = {
            "valid": all_valid, "extremal": all_extremal, "uniform_dev": worst_uniform
        }
    for d in range(2, 7):
        rng = np.random.default_rng(500 + d)
        nu = rng.normal(size=d) + 1j * rng.normal(size=d)
        p = sc.covariant_povm(d, nu)  # raises if not extremal
        rep = sc.validate_povm(p)
        probs = sc.outcome_distribution(p, np.eye(d) / d)
        out["covariant"][str(d)] = {
            "valid": rep.passed,
            "uniform_dev": float(np.max(np.abs(probs - 1 / d**2))),
        }
    return out


def kernel_7():
    out = {}
    for d in range(2, 7):
        kind = "partial" if d >= 3 else "covariant"
        pl = dressed_pipeline(d, junk=2, eve=2, seed=600 + d, kind=kind)
        f = sc.functional_coefficients(pl["sv"])
        rep = sc.certify(f, pl["realization"])
        res = sc.theorem3_residuals(pl["r_povm"], pl["ideal"], pl["psi4"], pl["sv"])
        rnd = sc.randomness_report(pl["r_povm"], pl["rho"])
        h, g = rnd.min_entropy_bits, rnd.guessing_probability
        oracle = sc.eve_bruteforce_oracle(pl["r_povm"], pl["rho"], samples=1000, seed=d)
        out[str(d)] = {
            "verdict": rep.verdict,
            "max_residual": float(res.max()),
            "entropy_dev": float(abs(h - 2 * np.log2(d))),
            "oracle_excess": float(oracle - g),
        }
    return out


def kernel_8():
    pl = dressed_pipeline(3, junk=2, eve=2, seed=700, kind="partial")
    clean = sc.theorem3_residuals(pl["r_povm"], pl["ideal"], pl["psi4"], pl["sv"])
    els = pl["r_povm"].elements * 0.99
    els[0] = els[0] + 0.01 * np.eye(els.shape[1])
    tampered = sc.theorem3_residuals(
        sc.Povm(els), pl["ideal"], pl["psi4"], pl["sv"]
    )
    return {"clean_max": float(clean.max()), "tampered_max": float(tampered.max())}


def kernel_9():
    values, best = {}, None
    for seed in (1, 7, 42):
        val, r, _ = sc.seesaw_details(seed=seed, restarts=16, iters=150)
        values[str(seed)] = float(val)
        if best is None or val > values[str(best[0])]:
            best = (seed, r)
    spread = max(values.values()) - min(values.values())
    _, r = best
    schmidt = np.linalg.svd(r.state.amplitudes.reshape(3, 3), compute_uv=False)
    rng = np.random.default_rng(900)
    passes = 0
    for q_rank in (0, 1, 2):
        for i in range(20):
            sv = sc.random_schmidt_vector(3, rng, min_coeff=0.05)
            rep = sc.extended_certification_check(
                sv, sc.dressed_alice(2, q_rank), seed=1000 + 100 * q_rank + i
            )
            passes += int(rep.passed)
    return {
        "values": values,
        "spread": float(spread),
        "bell_value": float(b3.bell_value(r)),
        "schmidt_dev": float(np.max(np.abs(schmidt - 1 / np.sqrt(3)))),
        "extended_passes": passes,
    }


KERNELS = {
    1: kernel_1, 2: kernel_2, 3: kernel_3, 4: kernel_4, 5: kernel_5,
    6: kernel_6, 7: kernel_7, 8: kernel_8, 9: kernel_9,
}


# ------------------------------------------------------------------- tests


def test_criterion_01_quantum_maximum_reaches_d():
    t0 = time.perf_counter()
    out = cached(1, kernel_1)
    elapsed = time.perf_counter() - t0
    worst = max(out.values())
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"criterion 1 (quantum maximum = d, 7 dims x 50 alpha): "
          f"PASS  worst |value - d| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_strict_classical_gap():
    out = cached(2, kernel_2)
    worst = min(out["worst_margin"].values())
    assert worst > 1e-6
    oracle = 2 * (1 + 1 / np.sqrt(2)) - 2  # four-strategy closed form
    assert abs(out["d2_mes"] - oracle) < 1e-9
    assert abs(oracle - np.sqrt(2)) < 1e-15
    print(f"criterion 2 (beta_L < d strictly): PASS  "
          f"min margin = {worst:.3e}, d=2 MES bound = sqrt(2) +/- "
          f"{abs(out['d2_mes'] - np.sqrt(2)):.1e}")


def test_criterion_03_upper_bound_dominates_exact():
    out = cached(3, kernel_3)
    worst = min(out["worst_order"].values())
    assert worst >= -1e-7
    assert abs(out["d2_exact"] - np.sqrt(2)) < 1e-6
    assert abs(out["d2_upper"] - np.sqrt(2)) < 1e-6
    print(f"criterion 3 (upper >= exact, 5 dims x 100 alpha): PASS  "
          f"worst ordering margin = {worst:.2e}")


def test_criterion_04_selftest_verdicts():
    out = cached(4, kernel_4)
    assert out["certified"] == 60
    assert all(v == "failed" for v in out["tampers"].values())
    print(f"criterion 4 (60/60 dressed certified, 3/3 tampers flagged): PASS  "
          f"{out['tampers']}")


def test_criterion_05_ztilde_positive_spectrum():
    out = cached(5, kernel_5)
    dev = max(v["dev"] for v in out.values())
    low = min(v["min_eig"] for v in out.values())
    assert dev < 1e-9
    assert low > 0
    print(f"criterion 5 (Z-tilde spectrum closed form): PASS  "
          f"worst dev = {dev:.2e}, min eigenvalue = {low:.3f}")


def test_criterion_06_povm_constructions():
    out = cached(6, kernel_6)
    for d, rec in out["partial"].items():
        assert rec["valid"] and rec["extremal"], d
        assert rec["uniform_dev"] < 1e-9
    for d, rec in out["covariant"].items():
        assert rec["valid"]
        assert rec["uniform_dev"] < 1e-9
    worst = max(r["uniform_dev"] for g in out.values() for r in g.values())
    print(f"criterion 6 (POVM validity/extremality/uniformity): PASS  "
          f"worst uniformity dev = {worst:.2e}")


def test_criterion_07_maximal_randomness_pipeline():
    out = cached(7, kernel_7)
    for d, rec in out.items():
        assert rec["verdict"] == "certified", d
        assert rec["max_residual"] < 1e-9
        assert rec["entropy_dev"] < 1e-6
        assert rec["oracle_excess"] <= 1e-9
    worst = max(rec["entropy_dev"] for rec in out.values())
    print(f"criterion 7 (certify -> residuals -> 2 log2 d bits, d=2..6): PASS  "
          f"worst entropy dev = {worst:.2e}")


def test_criterion_08_tamper_detection():
    out = cached(8, kernel_8)
    assert out["clean_max"] <= 1e-9
    assert out["tampered_max"] > 1e-3
    print(f"criterion 8 (1% POVM tamper): PASS  clean = {out['clean_max']:.1e}, "
          f"tampered = {out['tampered_max']:.2e}")


def test_criterion_09_extended_bell_scenario():
    out = cached(9, kernel_9)
    assert out["spread"] <= 1e-6
    assert out["bell_value"] >= sc.BELL3_BOUND - 1e-6
    assert out["schmidt_dev"] <= 1e-4
    assert out["extended_passes"] == 60
    print(f"criterion 9 (see-saw V* stable, extended checks 60/60): PASS  "
          f"spread = {out['spread']:.1e}, V* = {out['values']['42']:.12f}")


def test_criterion_10_byte_identical_reruns():
    mismatches = []
    for n, kernel in KERNELS.items():
        first = json.dumps(cached(n, kernel), sort_keys=True).encode()
        again = json.dumps(kernel(), sort_keys=True).encode()
        if first != again:
            mismatches.append(n)
    assert not mismatches, f"criteria {mismatches} not byte-stable"
    print("criterion 10 (determinism): PASS  all nine kernels byte-identical on rerun")
