"""Steering functional coefficients, quantum value, LHS bounds."""

import numpy as np
import pytest

import steercert as sc

from conftest import steering_operator


def four_strategy_oracle(alpha):
    """d=2 deterministic-Bob bound written out with explicit projectors."""
    a0, a1 = alpha
    gamma = 2.0 / (a0 / a1 + a1 / a0)
    p0 = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    h = np.full((2, 2), 0.5)
    p1 = [h, np.diag([1.0, 1.0]) - h]
    penalty = gamma * (a0 + a1) * (p0[0] / a0 + p0[1] / a1)
    best = -np.inf
    for b0 in range(2):
        for b1 in range(2):
            m = 2 * p0[(-b0) % 2] + gamma * 2 * p1[(-b1) % 2] - penalty
            best = max(best, np.linalg.eigvalsh(m)[-1])
    return best


def test_coefficients_mes():
    for d in (2, 3, 5):
        f = sc.functional_coefficients(sc.maximally_entangled(d))
        assert abs(f.gamma - 1.0 / (d - 1)) < 1e-12
        assert abs(f.delta[0] + 1.0) < 1e-12
        assert np.all(np.abs(f.delta[1:]) < 1e-12)


def test_coefficients_skewed_qubit():
    f = sc.functional_coefficients(sc.SchmidtVector(np.array([np.sqrt(3) / 2, 0.5])))
    assert abs(f.gamma - np.sqrt(3) / 2) < 1e-12
    assert abs(f.delta[1] - 0.5) < 1e-12


def test_delta0_always_minus_one():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4, 6):
        for _ in range(10):
            f = sc.functional_coefficients(sc.random_schmidt_vector(d, rng))
            assert abs(f.delta[0] + 1.0) < 1e-12


def test_quantum_maximum_is_d():
    for d in (2, 3, 7):
        f = sc.functional_coefficients(sc.maximally_entangled(d))
        assert sc.quantum_maximum(f) == d


def test_steering_operator_d2_mes():
    sv = sc.maximally_entangled(2)
    op = steering_operator(
        sc.functional_coefficients(sv), sc.ideal_realization(sv)
    )
    z = sc.generalized_pauli(2, "Z")
    x = sc.generalized_pauli(2, "X")
    expect = np.kron(z, z.conj()) + np.kron(x, x)
    assert np.allclose(op, expect, atol=1e-12)


def test_steering_operator_top_eigenvalue_is_d():
    rng = np.random.default_rng(14)
    for d in (2, 3, 5):
        sv = sc.random_schmidt_vector(d, rng)
        op = steering_operator(
            sc.functional_coefficients(sv), sc.ideal_realization(sv)
        )
        assert np.max(np.abs(op - sc.dagger(op))) < 1e-9
        assert abs(np.linalg.eigvalsh(op)[-1] - d) < 1e-9


def test_steering_operator_zero_bob_mes():
    # with delta_k = 0 for k >= 1 only the -1 identity term could survive,
    # and the k=0 term is excluded, so everything cancels
    d = 3
    sv = sc.maximally_entangled(d)
    zeros = sc.GeneralizedObservable(
        np.stack([np.eye(d, dtype=complex)] + [np.zeros((d, d))] * (d - 1))
    )
    r = sc.Realization(
        sc.schmidt_state(sv),
        [sc.generalized_pauli(d, "Z"), sc.generalized_pauli(d, "X")],
        [zeros, zeros],
    )
    op = steering_operator(sc.functional_coefficients(sv), r)
    assert np.max(np.abs(op)) < 1e-12


def test_steering_operator_size_mismatch():
    f = sc.functional_coefficients(sc.maximally_entangled(2))
    r = sc.ideal_realization(sc.maximally_entangled(3))
    for fn in (sc.evaluate, sc.stabilizer_residuals):
        with pytest.raises(sc.SizeError):
            fn(f, r)


def tampered_dressed(d, rng):
    """Honest dressed device and a copy whose B_1 is rotated by ~1e-3."""
    sv = sc.random_schmidt_vector(d, rng)
    r = sc.dress_realization(sc.ideal_realization(sv), 2, 2, seed=d)
    m = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    w, v = np.linalg.eigh((m + sc.dagger(m)) / 2)
    rot = (v * np.exp(1e-3j * w)) @ sc.dagger(v)
    b1 = rot @ r.bob_observables[1].operators[1] @ sc.dagger(rot)
    bad = sc.Realization(
        r.state,
        r.alice_observables,
        [r.bob_observables[0], sc.GeneralizedObservable.from_unitary(b1, d)],
    )
    return sc.functional_coefficients(sv), r, bad


def test_evaluate_and_residuals_match_dense_operators():
    # reference: the functional and its relations as (dim_A dim_B)^2 matrices
    rng = np.random.default_rng(31)
    for d in range(2, 9):
        f, honest, bad = tampered_dressed(d, rng)
        for r in (honest, bad):
            op = steering_operator(f, r)
            m = r.state.amplitudes.reshape(op.shape[0], -1)
            dense = np.sum(np.conj(m) * (op @ m)).real
            assert abs(sc.evaluate(f, r) - dense) < 1e-12
            a0, a1 = r.alice_observables
            b0, b1 = (g.operators for g in r.bob_observables)
            eye_b = np.eye(b0.shape[1])
            s_op = np.zeros_like(op)
            per_k = []
            for k in range(1, d):
                a0k = np.linalg.matrix_power(a0, k)
                per_k.append(np.linalg.norm(np.kron(a0k, b0[k]) @ m - m))
                s_op += f.gamma * np.kron(np.linalg.matrix_power(a1, k), b1[k])
                s_op += f.delta[k] * np.kron(a0k, eye_b)
            got_k, got_s = sc.stabilizer_residuals(f, r)
            assert np.max(np.abs(got_k - per_k)) < 1e-12
            assert abs(got_s - np.linalg.norm(s_op @ m - m)) < 1e-12
        assert sc.certify(f, honest).certified
        assert not sc.certify(f, bad).certified


def test_functional_needs_two_observables_per_side():
    sv = sc.maximally_entangled(3)
    f = sc.functional_coefficients(sv)
    r = sc.ideal_realization(sv)
    for alice, bob in ((r.alice_observables[:1], r.bob_observables),
                       (r.alice_observables, r.bob_observables[:1])):
        short = sc.Realization(r.state, alice, bob)
        for fn in (sc.evaluate, sc.stabilizer_residuals):
            with pytest.raises(sc.SizeError):
                fn(f, short)


def test_evaluate_ideal():
    rng = np.random.default_rng(15)
    for d in (2, 3, 4):
        for _ in range(5):
            sv = sc.random_schmidt_vector(d, rng)
            f = sc.functional_coefficients(sv)
            assert abs(sc.evaluate(f, sc.ideal_realization(sv)) - d) < 1e-9


def test_evaluate_closed_form_qubit():
    a0, a1 = np.sqrt(3) / 2, 0.5
    sv = sc.SchmidtVector(np.array([a0, a1]))
    val = sc.evaluate(sc.functional_coefficients(sv), sc.ideal_realization(sv))
    closed = 1 + 4 * a0**2 * a1**2 + (a0**2 - a1**2) ** 2
    assert abs(closed - 2.0) < 1e-12
    assert abs(val - closed) < 1e-12


def test_evaluate_never_beats_quantum_bound():
    rng = np.random.default_rng(16)
    for d in (2, 3, 4):
        f = sc.functional_coefficients(sc.maximally_entangled(d))
        for _ in range(60):
            amps = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            psi = sc.Ket(amps / np.linalg.norm(amps), (d, d))
            obs = []
            for _ in range(4):
                u = sc.haar_unitary(d, rng)
                w = sc.omega(d)
                obs.append(u @ np.diag(w ** np.arange(d)) @ sc.dagger(u))
            bob = [sc.GeneralizedObservable.from_unitary(b, d) for b in obs[2:]]
            r = sc.Realization(psi, obs[:2], bob)
            assert sc.evaluate(f, r) <= d + 1e-9


def test_lhs_exact_d2_against_enumeration_oracle():
    mes = sc.functional_coefficients(sc.maximally_entangled(2))
    lo = sc.lhs_bound_exact(mes)
    assert abs(lo.value - np.sqrt(2)) < 1e-9

    rng = np.random.default_rng(18)
    for _ in range(20):
        sv = sc.random_schmidt_vector(2, rng)
        lo = sc.lhs_bound_exact(sc.functional_coefficients(sv))
        assert abs(lo.value - four_strategy_oracle(sv.alpha)) < 1e-12


def test_lhs_exact_skewed_qubit_frozen():
    sv = sc.SchmidtVector(np.array([np.sqrt(3) / 2, 0.5]))
    lo = sc.lhs_bound_exact(sc.functional_coefficients(sv))
    assert 1.0 <= lo.value < 2.0
    assert abs(lo.value - np.sqrt(3)) < 1e-12  # quirky but exact


def test_lhs_exact_below_quantum():
    rng = np.random.default_rng(19)
    for d in (2, 3, 4):
        for _ in range(8):
            f = sc.functional_coefficients(sc.random_schmidt_vector(d, rng))
            assert sc.lhs_bound_exact(f).value < d


def test_lhs_exact_ignores_alice_dressing():
    rng = np.random.default_rng(20)
    for d in (2, 3):
        sv = sc.random_schmidt_vector(d, rng)
        f = sc.functional_coefficients(sv)
        base = sc.lhs_bound_exact(f).value
        u = sc.haar_unitary(2 * d, rng)
        eye = np.eye(2)
        big = [
            u @ np.kron(sc.generalized_pauli(d, k), eye) @ sc.dagger(u)
            for k in ("Z", "X")
        ]
        dressed = sc.lhs_bound_exact(f, alice_observables=big).value
        assert abs(dressed - base) < 1e-9


def test_lhs_upper_d2_mes():
    f = sc.functional_coefficients(sc.maximally_entangled(2))
    up = sc.lhs_bound_paper_upper(f)
    assert abs(up.value - np.sqrt(2)) < 1e-6
    # eta is the known stationary direction (cos pi/8, sin pi/8)
    assert np.allclose(
        np.sort(np.abs(up.eta))[::-1],
        [np.cos(np.pi / 8), np.sin(np.pi / 8)],
        atol=1e-6,
    )


def test_lhs_upper_dominates_exact():
    rng = np.random.default_rng(22)
    for d in (2, 3, 4):
        for _ in range(6):
            f = sc.functional_coefficients(sc.random_schmidt_vector(d, rng))
            lo = sc.lhs_bound_exact(f)
            up = sc.lhs_bound_paper_upper(f)
            assert up.value >= lo.value - 1e-7
            assert up.value < d


def test_closed_form_matches_enumeration():
    # The default-Alice bound is max_a lambda_max(Q_a); the explicit-Alice
    # path still enumerates all d^2 strategies from Z and X's projectors.
    rng = np.random.default_rng(23)
    margin_c = sc.steering._EIG_MARGIN_C
    for d in (2, 3, 4, 5, 8, 12, 16):
        z = sc.generalized_pauli(d, "Z")
        x = sc.generalized_pauli(d, "X")
        w = np.exp(2j * np.pi / d)
        fourier = np.array([w ** (-j * np.arange(d)) for j in range(d)]) / np.sqrt(d)
        cols = fourier[:, (-np.arange(d)) % d].T  # [b1] -> F_{-b1} column
        proj = np.einsum("bi,bj->bij", cols, cols.conj())
        b0s = np.arange(d)
        for _ in range(30):
            sv = sc.random_schmidt_vector(d, rng)
            a = sv.alpha
            f = sc.functional_coefficients(sv)
            lo = sc.lhs_bound_exact(f)
            enum = sc.lhs_bound_exact(f, alice_observables=[z, x])
            assert abs(lo.value - enum.value) < 1e-12
            assert lo.strategy[1] == 0

            # for each b0 the top eigenvalue does not depend on b1
            m = np.broadcast_to(f.gamma * d * proj - f.gamma * a.sum() * np.diag(1.0 / a),
                                (d, d, d, d)).copy()  # [b0, b1]
            m[b0s, :, (-b0s) % d, (-b0s) % d] += d
            tops = np.linalg.eigvalsh(m)[..., -1]
            assert np.max(np.ptp(tops, axis=1)) < 1e-12
            assert abs(tops[lo.strategy[0], 0] - lo.value) < 1e-12

            up = sc.lhs_bound_paper_upper(f)
            scale = f.gamma * d + f.gamma * a.sum() * np.linalg.norm(1.0 / a) + d
            margin = margin_c * d * np.finfo(float).eps * scale
            assert lo.value <= up.value <= lo.value + margin
            assert np.all(up.eta > 0) and abs(np.linalg.norm(up.eta) - 1.0) < 1e-12


def test_violation_gap_examples():
    bq, bl, gap = sc.violation_gap(sc.functional_coefficients(sc.maximally_entangled(2)))
    assert (bq, bl) == (2.0, pytest.approx(np.sqrt(2), abs=1e-12))
    assert abs(gap - (2 - np.sqrt(2))) < 1e-12

    _, _, gap3 = sc.violation_gap(sc.functional_coefficients(sc.maximally_entangled(3)))
    assert gap3 > 0


def test_violation_gap_closes_toward_product_state():
    # alpha = (cos t, sin t): the violation fades as the state disentangles
    gaps = []
    for theta in (0.7, 0.5, 0.3, 0.15, 0.08):
        sv = sc.SchmidtVector(np.array([np.cos(theta), np.sin(theta)]))
        gaps.append(sc.violation_gap(sc.functional_coefficients(sv))[2])
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_functional_is_not_changed_by_edits_to_the_callers_delta():
    sv = sc.SchmidtVector(np.array([0.8, 0.6]))
    f0 = sc.functional_coefficients(sv)
    caller = np.array(f0.delta)
    f = sc.SteeringFunctional(sv, f0.gamma, caller)
    caller[0] = 5.0  # delta_0 = -1 was checked at construction
    assert f.delta[0] == -1.0
    with pytest.raises(ValueError):
        f.delta[1] = 7.0


def test_functional_refuses_nan_delta():
    with pytest.raises(sc.DomainError):
        sc.SteeringFunctional(sc.maximally_entangled(3), 1.0, [np.nan, 0.1, 0.1])


def test_functional_refuses_inf_delta():
    # inf - conj(inf) is NaN in the pairing residual
    with pytest.raises(sc.DomainError):
        sc.SteeringFunctional(sc.maximally_entangled(3), 1.0, [-1.0, np.inf, np.inf])


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_functional_refuses_a_gamma_that_is_not_positive_and_finite(gamma):
    # an infinite gamma used to construct, and the LHS bound then raised LinAlgError
    delta = sc.functional_coefficients(sc.maximally_entangled(3)).delta
    with pytest.raises(sc.DomainError, match="gamma"):
        sc.SteeringFunctional(sc.maximally_entangled(3), gamma, delta)


def _two_walkers(f, r):
    """evaluate and stabilizer_residuals as two walks over the terms, each
    with its own chain of Alice's powers."""
    from steercert.measurements import _powers

    def terms():
        alice = zip(*(_powers(a, f.d) for a in r.alice_observables[:2]))
        next(alice)
        b0, b1 = r.bob_observables[0].operators, r.bob_observables[1].operators
        eye_b = np.eye(b0.shape[1])
        for k, (a0k, a1k) in enumerate(alice, start=1):
            yield (1.0, a0k, b0[k]), (f.gamma, a1k, b1[k]), (f.delta[k], a0k, eye_b)

    psi = r.state
    value = sum(coef * np.vdot(psi.amplitudes, sc.apply_local(a, b, psi))
                for group in terms() for coef, a, b in group)
    ket = psi.amplitudes.reshape(psi.factor_dims[0], psi.factor_dims[1], -1)
    per_k, s_vec = [], -ket
    for (coef, a, b), *s_terms in terms():
        per_k.append(np.linalg.norm(coef * sc.apply_local(a, b, psi) - ket))
        for coef, a, b in s_terms:
            s_vec += coef * sc.apply_local(a, b, psi)
    return float(value.real), np.array(per_k), float(np.linalg.norm(s_vec))


def test_one_walk_equals_the_two_walkers_bit_for_bit():
    rng = np.random.default_rng(44)
    for d in range(2, 9):
        f, dressed, tampered = tampered_dressed(d, rng)
        honest = sc.ideal_realization(f.sv)
        swapped = sc.Realization(dressed.state, dressed.alice_observables,
                                 dressed.bob_observables[::-1])
        for r in (honest, dressed, tampered, swapped):
            value, per_k, s_res = _two_walkers(f, r)
            got_k, got_s = sc.stabilizer_residuals(f, r)
            assert sc.evaluate(f, r) == value
            assert got_k.tobytes() == per_k.tobytes() and got_s == s_res
            rep = sc.certify(f, r)
            assert (rep.value, rep.s_residual) == (value, s_res)
            assert rep.stabilizer_residuals.tobytes() == per_k.tobytes()


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32, 64])
def test_stacked_kernel_equals_one_row_calls_bit_for_bit(d):
    rng = np.random.default_rng(1000 + d)
    stack = np.sqrt(rng.dirichlet(np.ones(d), size=40))
    rows = sc.states.schmidt_rows(stack)
    gamma, _ = sc.steering._gamma(rows)
    b0, vals, vecs, margins = sc.steering._branch_perron(rows, gamma)
    assert np.array_equal(sc.steering.lhs_bound_rows(stack), vals)
    for i, a in enumerate(stack):
        f = sc.functional_coefficients(sc.SchmidtVector(a))
        exact = sc.lhs_bound_exact(f)
        upper = sc.lhs_bound_paper_upper(f)
        assert f.gamma == gamma[i]
        assert (exact.value, exact.strategy) == (vals[i], (b0[i], 0))
        assert upper.value == vals[i] + margins[i]
        assert np.array_equal(upper.eta, np.abs(vecs[i]))

