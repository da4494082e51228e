"""Certification conditions: stabilizers, commutation, verdicts, extracted fidelity."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import steercert as sc
from conftest import fourier_observable, tampered_dressed
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
    # Bob's pair is projective, but the swap isometry needs Alice on C^d
    assert rep.commutation_residual is not None and rep.extracted_fidelity is None


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


def test_extracted_fidelity_of_ideal_and_dressed_devices_is_one():
    mes = sc.maximally_entangled(3)
    f, ideal = sc.functional_coefficients(mes), sc.ideal_realization(mes)
    for r in (ideal, sc.dress_realization(ideal, 2, 2, seed=31)):
        assert 1 - 1e-12 <= sc.certify(f, r).extracted_fidelity <= 1 + 1e-12


def test_extracted_fidelity_skewed_alpha():
    rng = np.random.default_rng(17)
    sv = sc.random_schmidt_vector(3, rng)
    rd = sc.dress_realization(sc.ideal_realization(sv), 3, 1, seed=8)
    rep = sc.certify(sc.functional_coefficients(sv), rd)
    assert 1 - 1e-12 <= rep.extracted_fidelity <= 1 + 1e-12


def test_extracted_fidelity_is_none_for_a_nonprojective_bob():
    mes = sc.maximally_entangled(3)
    noisy = fourier_observable([np.eye(3, dtype=complex) / 3] * 3)
    r = sc.Realization(
        sc.schmidt_state(mes),
        [sc.generalized_pauli(3, "Z"), sc.generalized_pauli(3, "X")],
        [noisy, noisy],
    )
    rep = sc.certify(sc.functional_coefficients(mes), r)
    assert rep.commutation_residual is None and rep.extracted_fidelity is None


def test_extracted_fidelity_needs_no_block_structure():
    # Bob's dimension 4 is no multiple of d = 3, so B_0's eigenspaces differ
    # in size; the swap isometry is defined all the same. Only Alice's row 0
    # is occupied, so F = alpha_0^2 ||B_{0|1} P_0 |0>||^2 = 1/3.
    w = sc.omega(3)
    amps = np.zeros(12)
    amps[0] = 1.0
    psi = sc.Ket(amps, (3, 4))
    g = sc.GeneralizedObservable.from_unitary(np.diag([1, w, w**2, 1.0]), 3)
    r = sc.Realization(
        psi, [sc.generalized_pauli(3, "Z"), sc.generalized_pauli(3, "X")], [g, g]
    )
    rep = sc.certify(sc.functional_coefficients(sc.maximally_entangled(3)), r)
    assert abs(rep.extracted_fidelity - 1 / 3) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5])
def test_extracted_fidelity_falls_as_bobs_x_is_rotated(d):
    for seed in (0, 1, 2):
        losses = []
        for eps in (1e-4, 1e-3, 1e-2, 0.1):
            f, _, r = tampered_dressed(d, np.random.default_rng(seed), eps)
            fidelity = sc.certify(f, r).extracted_fidelity
            assert fidelity < 1 - 1e-12, (seed, eps)
            losses.append(1 - fidelity)
        assert losses == sorted(set(losses)), (seed, losses)


def test_bob_non_projective_off_the_state_support_fails():
    # Bob holds Z (+) 0.5 and X (+) 0.5 on C^3 and the state lives on his
    # first two levels, so every identity the state can see holds and the
    # value reaches d. The device still fails: the self-test's isometry is
    # built from Bob's projectors on his whole space, and these operators
    # are not unitary, so they are no projective measurement and the
    # theorem's premise does not hold. No claim is made off the support.
    sv = sc.SchmidtVector(np.array([0.8, 0.6]))
    z, x = sc.generalized_pauli(2, "Z"), sc.generalized_pauli(2, "X")
    amps = np.zeros((2, 3), dtype=complex)
    amps[:, :2] = sc.schmidt_state(sv).amplitudes.reshape(2, 2)
    bob = []
    for u in (z, x):
        b1 = np.zeros((3, 3), dtype=complex)
        b1[:2, :2], b1[2, 2] = u, 0.5
        bob.append(sc.GeneralizedObservable(np.stack([np.eye(3), b1])))
    r = sc.Realization(sc.Ket(amps.ravel(), (2, 3)), [z, x], bob)
    rep = sc.certify(sc.functional_coefficients(sv), r)
    assert rep.value == 2.0000000000000004
    assert rep.verdict == "failed"
    assert rep.failures == ["Bob observable 0 projectivity residual 7.500e-01",
                            "Bob observable 1 projectivity residual 7.500e-01"]
    assert rep.commutation_residual is None
    assert rep.extracted_fidelity is None


# A tolerance whose gap d - (d - TOL) is exact at d = 3, so the value_gap row
# can be put exactly at its bound.
TOL = 2.0**-24
ABOVE = np.nextafter(TOL, np.inf)


def _certify_with(monkeypatch, value=None, per_k=None, s_res=None, proj=None, comm=None):
    """certify of the ideal d = 3 device at TOL, with the inputs of chosen
    rows replaced: proj maps a Bob observable's index to its residual."""
    import steercert.selftest as selftest
    from steercert.steering import _walk_terms

    f, r = ideal3()

    def walk(f, r):
        v, pk, s = _walk_terms(f, r)
        return (v if value is None else value, pk if per_k is None else per_k,
                s if s_res is None else s_res)

    def projective(g, tol):
        ok, res = sc.is_projective(g, tol)
        i = [id(b) for b in r.bob_observables].index(id(g))
        if proj is None or i not in proj:
            return ok, res
        # the replaced residual is the last one, where max() would miss a NaN
        return bool(proj[i] <= tol), {"unitarity": 0.0, "power_identity": 0.0, "powers": proj[i]}

    monkeypatch.setattr(selftest, "_walk_terms", walk)
    monkeypatch.setattr(selftest, "is_projective", projective)
    if comm is not None:
        monkeypatch.setattr(selftest, "_commutation_residual", lambda r: comm)
    return sc.certify(f, r, TOL)


@pytest.mark.parametrize("row, message", [
    ("stabilizer", "stabilizer residual {!r} > 5.960464477539063e-08"),
    ("s_residual", "s_residual {!r} > 5.960464477539063e-08"),
    ("bob_0", "Bob observable 0 projectivity residual {:.3e}"),
    ("bob_1", "Bob observable 1 projectivity residual {:.3e}"),
    ("commutation", "commutation residual {!r} > 5.960464477539063e-08"),
])
def test_certify_rows_decide_at_their_bound(monkeypatch, row, message):
    def run(x):
        kw = {"stabilizer": {"per_k": np.array([0.0, x])}, "s_residual": {"s_res": x},
              "bob_0": {"proj": {0: x}}, "bob_1": {"proj": {1: x}},
              "commutation": {"comm": x}}[row]
        return _certify_with(monkeypatch, **kw)

    assert run(TOL).certified
    for x in (ABOVE, np.nan):
        rep = run(x)
        assert rep.failures == [message.format(float(x))], (x, rep.failures)


def test_certify_value_rows_decide_at_their_bound(monkeypatch):
    # value_gap = d - value: its smallest step above TOL is one ulp of d
    assert _certify_with(monkeypatch, value=3.0 - TOL).value_gap == TOL
    assert _certify_with(monkeypatch, value=3.0 - TOL).certified
    low = np.nextafter(3.0 - TOL, -np.inf)
    rep = _certify_with(monkeypatch, value=low)
    assert rep.value_gap > TOL and rep.failures == [f"value_gap {float(rep.value_gap)!r} > {TOL!r}"]
    top = 3.0 + sc.DEFAULT_TOL
    assert _certify_with(monkeypatch, value=top).certified
    rep = _certify_with(monkeypatch, value=np.nextafter(top, np.inf))
    assert rep.failures == [f"value {np.nextafter(top, np.inf)!r} is above the quantum maximum 3"]
    # a NaN value fails both value rows
    rep = _certify_with(monkeypatch, value=np.nan)
    assert rep.failures == ["value_gap nan > 5.960464477539063e-08",
                            "value nan is above the quantum maximum 3"]


def _alpha_draws():
    """3,213 Schmidt vectors at d = 2..64, 17 of each kind per d: uniform
    weights, geometric weights 2^-(i + u_i), u_i uniform in [0, 1), and
    near-uniform weights 1 +- 1e-6."""
    rng = np.random.default_rng(21)
    for d in range(2, 65):
        i = np.arange(d)
        for _ in range(17):
            for w in (rng.uniform(size=d), 2.0 ** -(i + rng.uniform(size=d)),
                      1.0 + rng.uniform(-1e-6, 1e-6, size=d)):
                yield sc.SchmidtVector(w / np.linalg.norm(w))


def test_the_tolerance_guard_implies_a_positive_ztilde():
    # certify has no Z~ row: tol < d - beta_l_upper < ztilde_min (see certify)
    ratios, refused = [], {}
    for sv in _alpha_draws():
        f = sc.functional_coefficients(sv)
        room = f.d - sc.lhs_bound_paper_upper(f).value
        if room > 0:
            ratios.append(np.min(sc.ztilde_spectrum(f)) / room)
            continue
        # the geometric vectors at large d: no tolerance is admissible, and
        # the guard refuses before it reads the device
        if f.d not in refused:
            refused[f.d] = [sc.ideal_realization(sc.maximally_entangled(f.d)), 0]
        with pytest.raises(sc.DomainError, match="at or above d - beta_l_upper"):
            sc.certify(f, refused[f.d][0], 1e-300)
        refused[f.d][1] += 1
    n_refused = sum(n for _, n in refused.values())
    assert len(ratios) + n_refused == 3213 and min(refused) > 32
    assert min(ratios) > 1.016


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_value_within_the_tolerance_is_above_beta_l_upper(data):
    # certify has no "not above beta_l_upper" row: rounding is monotone, so
    # fl(d - value) <= tol < fl(d - beta) implies value > beta. The draws
    # crowd the edges of both premises, where the rounding decides.
    d = data.draw(st.integers(2, 64))
    tol = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    edge = d - tol
    value = data.draw(st.one_of(st.floats(edge, d + 1e-6), st.sampled_from(
        [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)])))
    beta = data.draw(st.one_of(st.floats(d - 1.0, edge), st.sampled_from(
        [value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf),
         edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)])))
    assume(d - value <= tol < d - beta)
    assert value > beta
