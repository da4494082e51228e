"""Schmidt states, ideal realizations and junk-dressed embeddings."""

import numpy as np
import pytest

import steercert as sc


def test_schmidt_vector_validation():
    sv = sc.SchmidtVector(np.array([0.6, 0.8]))
    assert sv.d == 2
    with pytest.raises(sc.DomainError):
        sc.SchmidtVector(np.array([1.0, 0.0]))  # zero coefficient
    with pytest.raises(sc.DomainError):
        sc.SchmidtVector(np.array([0.9, 0.1]))  # badly unnormalized
    # deviations within 1e-6 are renormalized silently
    eps = np.array([0.6, 0.8]) * (1 + 2e-7)
    sv = sc.SchmidtVector(eps)
    assert abs(np.sum(sv.alpha**2) - 1.0) < 1e-12


def test_schmidt_state_examples():
    bell = sc.schmidt_state(sc.maximally_entangled(2))
    assert np.allclose(bell.amplitudes, [1, 0, 0, 1] / np.sqrt(2), atol=1e-12)

    mes3 = sc.schmidt_state(sc.maximally_entangled(3))
    expect = np.zeros(9)
    expect[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.allclose(mes3.amplitudes, expect, atol=1e-12)

    skew = sc.schmidt_state(sc.SchmidtVector(np.array([np.sqrt(3) / 2, 0.5])))
    assert np.allclose(skew.reduced((1,)), np.diag([0.75, 0.25]), atol=1e-12)


def test_schmidt_symmetry():
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        sv = sc.random_schmidt_vector(d, rng)
        psi = sc.schmidt_state(sv)
        diag = np.diag(sv.alpha**2)
        assert np.allclose(psi.reduced((0,)), diag, atol=1e-12)
        assert np.allclose(psi.reduced((1,)), diag, atol=1e-12)


def test_ideal_realization_structure():
    sv = sc.maximally_entangled(3)
    r = sc.ideal_realization(sv)
    w = sc.omega(3)
    assert np.allclose(
        r.bob_observables[0].operators[1], np.diag([1, w**2, w]), atol=1e-12
    )
    assert np.allclose(r.alice_observables[0], sc.generalized_pauli(3, "Z"), atol=1e-12)
    assert np.allclose(r.alice_observables[1], sc.generalized_pauli(3, "X"), atol=1e-12)


def test_realization_is_not_changed_by_edits_to_the_callers_observables():
    r0 = sc.ideal_realization(sc.maximally_entangled(3))
    caller = [np.array(a) for a in r0.alice_observables]
    r = sc.Realization(r0.state, caller, r0.bob_observables)
    caller[0][:] = 5.0 * np.eye(3)  # unitarity and A^3 = 1 were checked at construction
    assert np.array_equal(r.alice_observables[0], sc.generalized_pauli(3, "Z"))
    assert abs(sc.evaluate(sc.functional_coefficients(sc.maximally_entangled(3)), r) - 3.0) < 1e-12


def test_realization_alice_observables_are_read_only():
    r = sc.ideal_realization(sc.maximally_entangled(3))
    for a in r.alice_observables + sc.dress_realization(r, 2, 2, seed=1).alice_observables:
        with pytest.raises(ValueError):
            a[0, 0] = 5.0


def test_ideal_realization_d2_value():
    f = sc.functional_coefficients(sc.maximally_entangled(2))
    r = sc.ideal_realization(sc.maximally_entangled(2))
    assert abs(sc.evaluate(f, r) - 2.0) < 1e-12


def test_realization_validation():
    sv = sc.maximally_entangled(2)
    psi = sc.schmidt_state(sv)
    z = sc.generalized_pauli(2, "Z")
    x = sc.generalized_pauli(2, "X")
    bob = [
        sc.GeneralizedObservable.from_unitary(z.conj(), 2),
        sc.GeneralizedObservable.from_unitary(x, 2),
    ]
    sc.Realization(psi, [z, x], bob)
    with pytest.raises(sc.ContractError):
        sc.Realization(psi, [0.5 * z, x], bob)  # not unitary
    with pytest.raises(sc.ContractError):
        # unitary but order 4, not 2
        s = np.diag([1.0, 1.0j])
        sc.Realization(psi, [s, x], bob)


def test_dress_identity_seed_is_noop():
    r = sc.ideal_realization(sc.maximally_entangled(2))
    dressed = sc.dress_realization(r, 1, 1, seed=None)
    assert np.array_equal(dressed.state.amplitudes, r.state.amplitudes)
    assert dressed.state.factor_dims == r.state.factor_dims
    for a, b in zip(dressed.bob_observables, r.bob_observables):
        assert np.allclose(a.operators, b.operators, atol=1e-15)


def test_dress_preserves_steering_value():
    sv = sc.maximally_entangled(2)
    f = sc.functional_coefficients(sv)
    r = sc.ideal_realization(sv)
    dressed = sc.dress_realization(r, 3, 2, seed=9)
    assert abs(sc.evaluate(f, dressed) - 2.0) < 1e-9


def test_dress_preserves_projectivity():
    r = sc.ideal_realization(sc.maximally_entangled(3))
    dressed = sc.dress_realization(r, 2, 1, seed=5)
    for g in dressed.bob_observables:
        ok, _ = sc.is_projective(g)
        assert ok


def born_table(state, alice_povms, bob_povms):
    """p[x, y, a, b] = <psi| M_{a|x} (x) N_{b|y} (x) 1_E |psi> by the Born rule."""
    da, db = state.factor_dims[0], state.factor_dims[1]
    m = state.amplitudes.reshape(da, db, -1)
    alice = np.stack([p.elements for p in alice_povms])
    bob = np.stack([p.elements for p in bob_povms])
    return np.einsum("xaij,ybkl,jle,ike->xyab", alice, bob, m, np.conj(m)).real


def test_dress_preserves_correlators():
    rng = np.random.default_rng(21)
    sv = sc.random_schmidt_vector(3, rng)
    r = sc.ideal_realization(sv)
    dressed = sc.dress_realization(r, 2, 2, seed=77)

    alice = [sc.unitary_observable_povm(a, 3) for a in r.alice_observables]
    bob = [sc.observable_to_povm(g) for g in r.bob_observables]
    bob_dressed = [sc.observable_to_povm(g) for g in dressed.bob_observables]
    t0 = born_table(r.state, alice, bob)
    t1 = born_table(dressed.state, alice, bob_dressed)
    assert np.max(np.abs(t0 - t1)) < 1e-9


def test_dress_domain_errors():
    r = sc.ideal_realization(sc.maximally_entangled(2))
    with pytest.raises(sc.DomainError):
        sc.dress_realization(r, 0, 1, seed=1)
    with pytest.raises(sc.SizeError):
        sc.dress_realization(sc.dress_realization(r, 2, 2, seed=1), 2, 2, seed=1)


def test_random_schmidt_vector_respects_floor():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        sv = sc.random_schmidt_vector(d, rng)
        assert sv.alpha.min() >= 0.05
        assert abs(np.sum(sv.alpha**2) - 1.0) < 1e-12


def test_random_schmidt_vector_gives_up_on_a_floor_no_draw_meets():
    # Feasible (0.01 * sqrt(512) < 1), but about 4e-12 of draws meet it.
    with pytest.raises(sc.DomainError, match="no draw"):
        sc.random_schmidt_vector(512, np.random.default_rng(0), min_coeff=0.01)


def test_schmidt_vector_rejects_non_finite():
    for bad in ([np.nan, 1.0], [0.6, np.nan, 0.8], [np.inf, 0.5]):
        with pytest.raises(sc.DomainError):
            sc.SchmidtVector(np.array(bad))


def test_schmidt_vector_alpha_is_read_only():
    caller = np.array([0.6, 0.8])
    sv = sc.SchmidtVector(caller)
    caller[0] = 5.0
    with pytest.raises(ValueError):
        sv.alpha[0] = 0.0  # would break positivity after the checks ran
    assert np.array_equal(sv.alpha, [0.6, 0.8] / np.linalg.norm([0.6, 0.8]))


def test_schmidt_rows_are_schmidt_vectors_bit_for_bit():
    rng = np.random.default_rng(31)
    for d in (2, 3, 5, 8, 16, 32, 64, 512):
        stack = np.sqrt(rng.dirichlet(np.ones(d), size=50)) * (1 + rng.uniform(-9e-7, 9e-7, (50, 1)))
        rows = sc.states.schmidt_rows(stack)
        for row, a in zip(rows, stack):
            assert np.array_equal(row, sc.SchmidtVector(a).alpha)


def test_schmidt_rows_refuse_any_bad_row():
    good = np.array([[0.6, 0.8], [0.8, 0.6]])
    for i, bad in enumerate(([np.nan, 1.0], [0.0, 1.0], [-0.6, 0.8], [0.9, 0.1])):
        stack = good.copy()
        stack[i % 2] = bad
        with pytest.raises(sc.DomainError):
            sc.states.schmidt_rows(stack)
    with pytest.raises(sc.DomainError, match="two Schmidt"):
        sc.states.schmidt_rows(np.ones((3, 1)))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_realization_keeps_alice_powers_read_only_and_bit_equal_to_the_chain(d):
    from steercert.measurements import _powers

    r = sc.ideal_realization(sc.random_schmidt_vector(d, np.random.default_rng(d)))
    for real in (r, sc.dress_realization(r, 2, 2, seed=d)):
        assert len(real.alice_powers) == len(real.alice_observables) == 2
        for a, kept in zip(real.alice_observables, real.alice_powers):
            chain = np.stack(list(_powers(a, d)))
            assert kept.shape == chain.shape == (d, d, d)
            assert kept.tobytes() == chain.tobytes()
            with pytest.raises(ValueError):
                kept[1, 0, 0] = 5.0
