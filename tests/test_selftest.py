"""Certification conditions: stabilizers, commutation, verdicts, extraction."""

import json
import tracemalloc

import numpy as np
import pytest

import steercert as sc
from conftest import fourier_observable
from steercert.report import render


def ideal3():
    mes = sc.maximally_entangled(3)
    return sc.functional_coefficients(mes), sc.ideal_realization(mes)


def test_ideal_residuals_vanish():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4, 5):
        sv = sc.random_schmidt_vector(d, rng)
        f = sc.functional_coefficients(sv)
        per_k, s_res = sc.stabilizer_residuals(f, sc.ideal_realization(sv))
        assert per_k.shape == (d - 1,)
        assert np.max(per_k) < 1e-12
        assert s_res < 1e-12


def test_stabilizer_residuals_dimension_mismatch():
    f = sc.functional_coefficients(sc.maximally_entangled(2))
    _, r = ideal3()
    with pytest.raises(sc.SizeError):
        sc.stabilizer_residuals(f, r)


def test_swapped_shift_observable_detected():
    f, _ = ideal3()
    mes = sc.maximally_entangled(3)
    z = sc.generalized_pauli(3, "Z")
    x = sc.generalized_pauli(3, "X")
    bad = sc.Realization(
        sc.schmidt_state(mes),
        [z, x],
        [
            sc.GeneralizedObservable.from_unitary(z.conj(), 3),
            sc.GeneralizedObservable.from_unitary(sc.dagger(x), 3),
        ],
    )
    per_k, s_res = sc.stabilizer_residuals(f, bad)
    # Z-type stabilizers still hold, only the S-operator term moves
    assert np.max(per_k) < 1e-12
    assert abs(s_res - np.sqrt(1.5)) < 1e-12
    rep = sc.certify(f, bad)
    assert rep.verdict == "failed"
    assert any("s_residual" in msg for msg in rep.failures)


def test_commutation_residual_ideal_and_commuting_pair():
    f, r = ideal3()
    assert sc.commutation_residual(r) < 1e-12

    mes = sc.maximally_entangled(3)
    z = sc.generalized_pauli(3, "Z")
    zbar = sc.GeneralizedObservable.from_unitary(z.conj(), 3)
    same = sc.Realization(
        sc.schmidt_state(mes),
        [z, sc.generalized_pauli(3, "X")],
        [zbar, zbar],
    )
    # commuting observables miss the Weyl phase by |1 - omega^{-1}| per term
    assert abs(sc.commutation_residual(same) - np.sqrt(3)) < 1e-12


def sqrt_rho_commutation_residual(r):
    """|| (B_0 B_1 - omega^-1 B_1 B_0) sqrt(rho_B) ||_F through an eigensolve of rho_B."""
    b0, b1 = (g.operators[1] for g in r.bob_observables[:2])
    rho = r.state.reduced((1,))
    vals, vecs = np.linalg.eigh((rho + sc.dagger(rho)) / 2)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ sc.dagger(vecs)
    comm = b0 @ b1 - (1.0 / sc.omega(r.d)) * b1 @ b0
    return float(np.linalg.norm(comm @ sqrt_rho))


def test_commutation_residual_is_the_sqrt_rho_formula():
    rng = np.random.default_rng(71)
    for d in (2, 3, 4):
        sv = sc.random_schmidt_vector(d, rng)
        ideal = sc.ideal_realization(sv)
        dressed = sc.dress_realization(ideal, 2, 2, seed=d)
        bob = dressed.bob_observables
        h = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
        vals, vecs = np.linalg.eigh(h + sc.dagger(h))
        v = (vecs * np.exp(0.1j * vals / np.max(np.abs(vals)))) @ sc.dagger(vecs)
        tampered = sc.GeneralizedObservable.from_unitary(v @ bob[1].operators[1] @ sc.dagger(v), d)
        for r in (
            ideal,
            dressed,
            sc.Realization(dressed.state, dressed.alice_observables, bob[::-1]),
            sc.Realization(dressed.state, dressed.alice_observables, [bob[0], tampered]),
        ):
            ref = sqrt_rho_commutation_residual(r)
            assert abs(sc.commutation_residual(r) - ref) <= 1e-12 * ref + 1e-14, (d, ref)


# The one message of measurements._require_projective, for Bob observable 0.
NOT_PROJECTIVE = r"^Bob observable 0 is not projective \(residuals \{'unitarity': "


def test_commutation_residual_needs_projective_input():
    mes = sc.maximally_entangled(3)
    noisy = fourier_observable([np.eye(3, dtype=complex) / 3] * 3)
    r = sc.Realization(
        sc.schmidt_state(mes),
        [sc.generalized_pauli(3, "Z"), sc.generalized_pauli(3, "X")],
        [noisy, noisy],
    )
    with pytest.raises(sc.ContractError, match=NOT_PROJECTIVE):
        sc.commutation_residual(r)


def test_ztilde_spectrum_closed_form():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4, 6):
        for _ in range(10):
            sv = sc.random_schmidt_vector(d, rng)
            f = sc.functional_coefficients(sv)
            spec = sc.ztilde_spectrum(f)
            closed = f.gamma * np.sum(sv.alpha) / sv.alpha
            assert np.max(np.abs(spec - closed)) < 1e-9
            assert np.all(spec > 0)


def test_ztilde_spectrum_matrix_oracle():
    # assemble (1+gamma)I - sum_k delta_k Z^k and read its diagonal
    rng = np.random.default_rng(3)
    sv = sc.random_schmidt_vector(4, rng)
    f = sc.functional_coefficients(sv)
    z = sc.generalized_pauli(4, "Z")
    m = (1 + f.gamma) * np.eye(4, dtype=complex)
    acc = np.eye(4, dtype=complex)
    for k in range(1, 4):
        acc = acc @ z
        m -= f.delta[k] * acc
    diag = np.diag(m)
    assert np.max(np.abs(diag.imag)) < 1e-12
    assert np.max(np.abs(sc.ztilde_spectrum(f) - diag.real)) < 1e-12


def test_ztilde_mes_value():
    f, _ = ideal3()
    assert np.allclose(sc.ztilde_spectrum(f), 1.5, atol=1e-12)


def test_certify_ideal_and_dressed():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        sv = sc.random_schmidt_vector(d, rng)
        f = sc.functional_coefficients(sv)
        rep = sc.certify(f, sc.ideal_realization(sv))
        assert rep.certified and rep.verdict == "certified"
        assert rep.value_gap < 1e-9
        dressed = sc.dress_realization(sc.ideal_realization(sv), 2, 2, seed=13)
        rep = sc.certify(f, dressed)
        assert rep.certified


def test_certify_mismatched_alpha():
    _, r = ideal3()
    other = sc.SchmidtVector(np.array([0.8, 0.36, 0.48]))
    rep = sc.certify(sc.functional_coefficients(other), r)
    assert not rep.certified
    assert abs(rep.value_gap - 0.14556962025316444) < 1e-12
    assert any(msg.startswith("value_gap") for msg in rep.failures)


def test_certify_depolarized_observable():
    f, _ = ideal3()
    mes = sc.maximally_entangled(3)
    z = sc.generalized_pauli(3, "Z")
    shrunk = sc.GeneralizedObservable(
        np.stack(
            [np.eye(3, dtype=complex), 0.99 * z.conj(), 0.99 * z.conj() @ z.conj()]
        )
    )
    r = sc.Realization(
        sc.schmidt_state(mes),
        [z, sc.generalized_pauli(3, "X")],
        [shrunk, sc.GeneralizedObservable.from_unitary(sc.generalized_pauli(3, "X"), 3)],
    )
    rep = sc.certify(f, r)
    assert not rep.certified
    ok0, worst0 = rep.projectivity[0]["projective"], rep.projectivity[0]["residual"]
    assert not ok0
    # worst offender is the d-th power residual (1 - 0.99^3)*sqrt(3)
    assert abs(worst0 - (1 - 0.99**3) * np.sqrt(3)) < 1e-12
    # commutation is skipped rather than reported against a non-projective pair
    assert rep.commutation_residual is None


def test_certify_residuals_scale_with_perturbation():
    f, r0 = ideal3()
    rng = np.random.default_rng(99)
    junk = rng.normal(size=9) + 1j * rng.normal(size=9)
    junk /= np.linalg.norm(junk)
    worsts = []
    for eps in (1e-4, 1e-3, 1e-2):
        amps = r0.state.amplitudes + eps * junk
        psi = sc.Ket(amps / np.linalg.norm(amps), (3, 3))
        r = sc.Realization(psi, r0.alice_observables, r0.bob_observables)
        per_k, s_res = sc.stabilizer_residuals(f, r)
        worsts.append(max(per_k.max(), s_res))
    assert worsts[0] < worsts[1] < worsts[2]
    assert worsts[0] > 1e-7  # already enough to flip a verdict


def test_certify_verdict_invariant_under_dressing():
    rng = np.random.default_rng(7)
    sv = sc.random_schmidt_vector(3, rng)
    f = sc.functional_coefficients(sv)
    r = sc.ideal_realization(sv)
    for seed in (0, 1, 2):
        rep = sc.certify(f, sc.dress_realization(r, 2, 2, seed=seed))
        assert rep.certified


def _above_d_device():
    """A d=2 device above the trusted pair's quantum maximum d = 2.

    Alice declares (Z, cos 0.05 X + sin 0.05 Z), not the trusted (Z, X).
    Bob holds (Z, cos 1.515 Z + sin 1.515 X), and the state is the top
    eigenvector of the functional's operator at these observables.
    """
    f = sc.functional_coefficients(sc.SchmidtVector(np.array([0.8, 0.6])))
    z, x = sc.generalized_pauli(2, "Z"), sc.generalized_pauli(2, "X")
    a1 = np.cos(0.05) * x + np.sin(0.05) * z
    b1 = np.cos(1.515) * z + np.sin(1.515) * x
    op = np.kron(z, z) + f.gamma * np.kron(a1, b1) + f.delta[1] * np.kron(z, np.eye(2))
    psi = np.linalg.eigh((op + op.conj().T) / 2)[1][:, -1]
    bob = [sc.GeneralizedObservable.from_unitary(u, 2) for u in (z, b1)]
    return f, sc.Realization(sc.Ket(psi, (2, 2)), [z, a1], bob)


def test_certify_fails_a_value_above_the_quantum_maximum():
    # value_gap = d - value is negative here, so it passes value_gap <= tol
    f, r = _above_d_device()
    value = sc.evaluate(f, r)
    assert 2.0001 < value < 2.0003
    for tol in (0.05, 0.2, 0.39):
        rep = sc.certify(f, r, tol)
        assert not rep.certified
        assert f"value {value!r} is above the quantum maximum 2" in rep.failures, tol


def test_certify_fails_unless_alice_is_the_trusted_pair():
    # The ideal d=2 device with Alice's X turned toward Z by 0.05 stays below
    # d, and every other residual is within 0.05: only Alice gives it away.
    sv = sc.SchmidtVector(np.array([0.8, 0.6]))
    f, ideal = sc.functional_coefficients(sv), sc.ideal_realization(sv)
    z, x = sc.generalized_pauli(2, "Z"), sc.generalized_pauli(2, "X")
    a1 = np.cos(0.05) * x + np.sin(0.05) * z
    r = sc.Realization(ideal.state, [z, a1], ideal.bob_observables)
    assert abs(sc.evaluate(f, r) - 1.998848) < 1e-6
    rep = sc.certify(f, r, 0.05)
    residual = np.linalg.norm(a1 - x)
    assert residual > 0.05
    assert rep.failures == [f"Alice observable 1 is not the trusted X (residual {residual:.3e})"]
    assert rep.alice_residual == [0.0, residual] and abs(residual - 0.0707) < 1e-4
    # Z (x) 1 and X (x) 1 on an Alice with a spare level reach d on psi (x) |0>,
    # but are not the trusted pair on C^d
    amps = np.kron(sc.schmidt_state(sv).amplitudes.reshape(2, 2), [[1.0], [0.0]])
    wide = sc.Realization(sc.Ket(amps.reshape(4, 2), (4, 2)),
                          [np.kron(z, np.eye(2)), np.kron(x, np.eye(2))], ideal.bob_observables)
    assert abs(sc.evaluate(f, wide) - 2.0) < 1e-12
    rep = sc.certify(f, wide)
    assert rep.failures == [
        f"Alice observable {i} is not the trusted {k} (residual inf)" for i, k in enumerate("ZX")]
    assert rep.alice_residual == [None, None]  # strict JSON has no inf


def test_certify_rejects_tolerance_out_of_range():
    f, r = ideal3()
    for tol in (np.nan, -1.0, 0.0, 1.0, np.inf):
        with pytest.raises(sc.DomainError):
            sc.certify(f, r, tol)


def test_certify_checks_projectivity_once_per_observable(monkeypatch):
    import steercert.selftest as selftest

    checked = []

    def counting(g, tol):
        checked.append(g)
        return sc.is_projective(g, tol)

    monkeypatch.setattr(selftest, "is_projective", counting)
    f, r = ideal3()
    assert sc.certify(f, r).certified
    assert [id(g) for g in checked] == [id(g) for g in r.bob_observables[:2]]


@pytest.mark.parametrize("d", [2, 3, 8])
def test_certify_applies_each_term_once(monkeypatch, d):
    import steercert.selftest as selftest
    import steercert.steering as steering

    calls = []

    def counting(a, b, psi):
        calls.append(1)
        return sc.apply_local(a, b, psi)

    for module in (steering, selftest):
        monkeypatch.setattr(module, "apply_local", counting, raising=False)
    sv = sc.random_schmidt_vector(d, np.random.default_rng(d))
    r = sc.dress_realization(sc.ideal_realization(sv), 2, 2, seed=d)
    assert sc.certify(sc.functional_coefficients(sv), r).certified
    # two local terms per k; each delta_k term applies A_0^k alone, with no
    # identity on Bob
    assert len(calls) == 2 * (d - 1)


def test_certify_dim_4096_is_matrix_free():
    # one dense operator on dim_A * dim_B = 4096 would take 256 MiB
    rng = np.random.default_rng(8)
    sv = sc.random_schmidt_vector(8, rng)
    f = sc.functional_coefficients(sv)
    r = sc.dress_realization(sc.ideal_realization(sv), 64, 2, seed=8)
    assert r.state.factor_dims == (8, 512, 2)
    tracemalloc.start()
    try:
        rep = sc.certify(f, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.certified, rep.failures
    assert peak < 64 * 2**20


def test_cert_report_serializes():
    f, r = ideal3()
    rep = sc.certify(f, r)
    meta = {"tool_version": sc.__version__, "seed": 42, "tolerance": rep.tolerance}
    blob = render("certify", {"alpha": f.sv.alpha, **vars(rep), **meta})
    back = json.loads(blob)
    assert back["verdict"] == "certified"
    assert back["d"] == 3
    assert back["lhs_gap"] == rep.value - sc.lhs_bound_paper_upper(f).value > 0
    assert back["alice_residual"] == [0.0, 0.0]


def test_extract_bob_unitary_ideal_and_dressed():
    d = 3
    mes = sc.maximally_entangled(d)
    rd = sc.dress_realization(sc.ideal_realization(mes), 2, 2, seed=31)
    u = sc.extract_bob_unitary(rd)
    db = rd.state.factor_dims[1]
    m = db // d
    z = sc.generalized_pauli(d, "Z")
    x = sc.generalized_pauli(d, "X")
    b0 = rd.bob_observables[0].operators[1]
    b1 = rd.bob_observables[1].operators[1]
    assert np.max(np.abs(u @ b0 @ sc.dagger(u) - np.kron(z.conj(), np.eye(m)))) < 1e-12
    assert np.max(np.abs(u @ b1 @ sc.dagger(u) - np.kron(x, np.eye(m)))) < 1e-12

    # the rotated state factors as |psi(alpha)> (x) |junk>
    amps = rd.state.amplitudes.reshape(d, db, -1)
    rot = np.einsum("ij,ajc->aic", u, amps).reshape(d, d, m, -1)
    alpha = mes.alpha
    w = np.einsum("a,aamc->mc", alpha, rot)
    recon = np.einsum("a,ab,mc->abmc", alpha, np.eye(d), w)
    assert np.linalg.norm(rot - recon) < 1e-9


def test_extract_bob_unitary_skewed_alpha():
    rng = np.random.default_rng(17)
    sv = sc.random_schmidt_vector(3, rng)
    rd = sc.dress_realization(sc.ideal_realization(sv), 3, 1, seed=8)
    u = sc.extract_bob_unitary(rd)
    db = rd.state.factor_dims[1]
    amps = rd.state.amplitudes.reshape(3, db)
    rot = np.einsum("ij,aj->ai", u, amps).reshape(3, 3, db // 3)
    w = np.einsum("a,aam->m", sv.alpha, rot)
    recon = np.einsum("a,ab,m->abm", sv.alpha, np.eye(3), w)
    assert np.linalg.norm(rot - recon) < 1e-9


def test_extract_bob_unitary_rejects_nonprojective():
    mes = sc.maximally_entangled(3)
    noisy = fourier_observable([np.eye(3, dtype=complex) / 3] * 3)
    r = sc.Realization(
        sc.schmidt_state(mes),
        [sc.generalized_pauli(3, "Z"), sc.generalized_pauli(3, "X")],
        [noisy, noisy],
    )
    with pytest.raises(sc.ContractError, match=NOT_PROJECTIVE):
        sc.extract_bob_unitary(r)


def test_extract_bob_unitary_rejects_indivisible_dimension():
    w = sc.omega(3)
    amps = np.zeros(12)
    amps[0] = 1.0
    psi = sc.Ket(amps, (3, 4))
    g = sc.GeneralizedObservable.from_unitary(np.diag([1, w, w**2, 1.0]), 3)
    r = sc.Realization(
        psi, [sc.generalized_pauli(3, "Z"), sc.generalized_pauli(3, "X")], [g, g]
    )
    with pytest.raises(sc.ContractError):
        sc.extract_bob_unitary(r)
