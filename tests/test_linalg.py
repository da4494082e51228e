"""Kets with tensor factors, density matrices and the local-operator kernel."""

import numpy as np
import pytest

import steercert as sc



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
    rho = np.outer(psi.amplitudes, np.conj(psi.amplitudes))
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.allclose(psi.reduced((0,)), np.diag([0.75, 0.25]), atol=1e-12)


def test_check_density_matrix():
    rho = sc.check_density_matrix(np.eye(3) / 3)
    assert rho.shape == (3, 3)
    with pytest.raises(sc.DomainError):
        sc.check_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(sc.DomainError):
        sc.check_density_matrix(np.diag([0.6, 0.6]))


def test_check_density_matrix_refuses_nan():
    with pytest.raises(sc.DomainError):
        sc.check_density_matrix(np.full((2, 2), np.nan))


def test_check_density_matrix_refuses_inf():
    # inf - inf is NaN in the hermiticity residual and in the trace
    with pytest.raises(sc.DomainError):
        sc.check_density_matrix(np.diag([np.inf, -np.inf]))


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
        dense = np.kron(np.kron(a, b), eye_e) @ psi.amplitudes
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


def test_ket_amplitudes_are_read_only():
    caller = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    k = sc.Ket(caller, (2, 2))
    caller[0] = 5.0
    with pytest.raises(ValueError):
        k.amplitudes[0] = 5.0  # would break the unit norm checked at construction
    assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-15
