"""Dense tensor-algebra building blocks."""

import numpy as np
import pytest

import steercert as sc


I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])


def test_tensor_identities():
    assert np.array_equal(sc.tensor(I2, I2), np.eye(4))
    assert np.array_equal(sc.tensor(Z2, Z2), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_tensor_shift_acts_on_first_factor():
    x3 = sc.generalized_pauli(3, "X")
    ket00 = np.zeros(6)
    ket00[0] = 1.0
    out = sc.tensor(x3, I2) @ ket00
    expect = np.zeros(6)
    expect[2] = 1.0  # |1>|0> in row-major order
    assert np.allclose(out, expect, atol=1e-12)


def test_tensor_associative_on_integer_matrices():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.integers(-3, 4, size=(2, 2))
        b = rng.integers(-3, 4, size=(3, 3))
        c = rng.integers(-3, 4, size=(2, 2))
        left = sc.tensor(sc.tensor(a, b), c)
        right = sc.tensor(a, sc.tensor(b, c))
        assert np.array_equal(left, right)


def test_tensor_dim_cap():
    big = np.eye(70)
    with pytest.raises(sc.SizeError):
        sc.tensor(big, big)  # 4900 > 4096


def test_partial_trace_bell():
    bell = sc.schmidt_state(sc.maximally_entangled(2)).density()
    assert np.allclose(sc.partial_trace(bell, [2, 2], [0]), I2 / 2, atol=1e-12)


def test_partial_trace_product():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = m @ sc.dagger(m)
    rho /= np.trace(rho).real
    p0 = np.zeros((2, 2))
    p0[0, 0] = 1.0
    joint = sc.tensor(p0, rho)
    assert np.allclose(sc.partial_trace(joint, [2, 3], [0]), p0, atol=1e-12)
    assert np.allclose(sc.partial_trace(joint, [2, 3], [1]), rho, atol=1e-12)


def test_partial_trace_schmidt_weights():
    sv = sc.SchmidtVector(np.array([np.sqrt(3) / 2, 0.5]))
    rho = sc.schmidt_state(sv).density()
    red = sc.partial_trace(rho, [2, 2], [1])
    assert np.allclose(red, np.diag([0.75, 0.25]), atol=1e-12)


def test_partial_trace_full_trace_and_errors():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    kept = sc.partial_trace(m, [2, 3], [0, 1])
    assert np.allclose(kept, m)
    with pytest.raises(IndexError):
        sc.partial_trace(m, [2, 3], [2])
    with pytest.raises(sc.SizeError):
        sc.partial_trace(m, [2, 2], [0])


def test_hermitian_eig_examples():
    vals, _ = sc.hermitian_eig(Z2)
    assert np.allclose(vals, [1.0, -1.0], atol=1e-12)
    p0 = np.zeros((3, 3))
    p0[0, 0] = 1.0
    vals, vecs = sc.hermitian_eig(p0)
    assert np.allclose(vals, [1.0, 0.0, 0.0], atol=1e-12)
    # descending order and orthonormal columns
    assert np.allclose(sc.dagger(vecs) @ vecs, np.eye(3), atol=1e-12)


def test_hermitian_eig_trace_identity():
    rng = np.random.default_rng(11)
    for dim in (2, 7, 33, 64):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (m + sc.dagger(m)) / 2
        vals, vecs = sc.hermitian_eig(h)
        assert abs(vals.sum() - np.trace(h).real) < 1e-9
        assert np.all(np.diff(vals) <= 1e-12)
        recon = vecs @ np.diag(vals) @ sc.dagger(vecs)
        assert np.allclose(recon, h, atol=1e-9)


def test_hermitian_eig_deterministic_phase():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (m + sc.dagger(m)) / 2
    _, v1 = sc.hermitian_eig(h)
    _, v2 = sc.hermitian_eig(h.copy())
    assert np.array_equal(v1, v2)


def test_ket_validation():
    psi = sc.Ket(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    assert psi.dim == 4
    with pytest.raises(sc.DomainError):
        sc.Ket(np.array([1.0, 1.0]), (2,))  # not normalized
    with pytest.raises(sc.SizeError):
        sc.Ket(np.array([1.0, 0.0]), (2, 2))  # dims do not multiply out


def test_ket_density_and_reduced():
    sv = sc.SchmidtVector(np.array([np.sqrt(3) / 2, 0.5]))
    psi = sc.schmidt_state(sv)
    rho = psi.density()
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.allclose(psi.reduced((0,)), np.diag([0.75, 0.25]), atol=1e-12)


def test_check_density_matrix():
    rho = sc.check_density_matrix(np.eye(3) / 3)
    assert rho.shape == (3, 3)
    with pytest.raises(sc.DomainError):
        sc.check_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(sc.DomainError):
        sc.check_density_matrix(np.diag([0.6, 0.6]))


def test_expectation_matches_dense_formula():
    rng = np.random.default_rng(17)
    psi = sc.schmidt_state(sc.random_schmidt_vector(3, rng))
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h = (m + sc.dagger(m)) / 2
    direct = np.vdot(psi.amplitudes, h @ psi.amplitudes)
    assert abs(sc.expectation(h, psi) - direct) < 1e-12


def test_expectation_with_identity_factor():
    # operator on (A,B) of an (A,B,E) state, identity padded on E
    rng = np.random.default_rng(19)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = sc.Ket(amps / np.linalg.norm(amps), (2, 3, 2))
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (m + sc.dagger(m)) / 2
    padded = sc.tensor(h, np.eye(2))
    assert abs(
        sc.expectation(h, psi, with_identity_on=2) - sc.expectation(padded, psi)
    ) < 1e-12


def test_apply_local_matches_tensor():
    rng = np.random.default_rng(29)
    for dims in ((2, 3), (3, 2, 4)):
        n = int(np.prod(dims))
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi = sc.Ket(amps / np.linalg.norm(amps), dims)
        a = rng.normal(size=(dims[0], dims[0])) + 1j * rng.normal(size=(dims[0], dims[0]))
        b = rng.normal(size=(dims[1], dims[1])) + 1j * rng.normal(size=(dims[1], dims[1]))
        eye_e = np.eye(n // (dims[0] * dims[1]))
        out = sc.apply_local(a, b, psi)
        assert out.shape == (dims[0], dims[1], eye_e.shape[0])
        dense = sc.tensor(a, b, eye_e) @ psi.amplitudes
        assert np.allclose(out.reshape(-1), dense, atol=1e-12)


def test_haar_unitary_seeded_and_unitary():
    rng = np.random.default_rng(23)
    u = sc.haar_unitary(5, rng)
    assert np.allclose(sc.dagger(u) @ u, np.eye(5), atol=1e-12)
    again = sc.haar_unitary(5, np.random.default_rng(23))
    assert np.array_equal(u, again)


def test_ket_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf):
        amps = np.array([1.0, 0.0, 0.0, bad])
        with pytest.raises(sc.DomainError):
            sc.Ket(amps, (2, 2))
