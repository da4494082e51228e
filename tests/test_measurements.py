"""Generalized Pauli operators and the POVM/observable Fourier pair."""

from fractions import Fraction

import numpy as np
import pytest

import steercert as sc
from steercert.measurements import _gram_excess, root_powers


def comp_basis_povm(d):
    els = [np.zeros((d, d), dtype=complex) for _ in range(d)]
    for a in range(d):
        els[a][a, a] = 1.0
    return sc.Povm(els)


def test_generalized_pauli_values():
    assert np.allclose(sc.generalized_pauli(2, "Z"), np.diag([1.0, -1.0]), atol=1e-12)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(
        sc.generalized_pauli(3, "Z"), np.diag([1.0, w, w**2]), atol=1e-12
    )
    x3 = sc.generalized_pauli(3, "X")
    ket2 = np.array([0.0, 0.0, 1.0])
    assert np.allclose(x3 @ ket2, [1.0, 0.0, 0.0], atol=1e-12)  # cyclic wrap


def test_generalized_pauli_weyl_relation():
    for d in range(2, 7):
        z = sc.generalized_pauli(d, "Z")
        x = sc.generalized_pauli(d, "X")
        w = sc.omega(d)
        assert np.allclose(z @ x, w * x @ z, atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-12)


def test_generalized_pauli_domain():
    with pytest.raises(sc.DomainError):
        sc.generalized_pauli(1, "Z")
    with pytest.raises(sc.DomainError):
        sc.generalized_pauli(3, "Y")


def test_root_powers_reduce_exponents_mod_d():
    for d in (2, 3, 7, 101, 512):
        rows, cols = np.arange(-d, 2 * d), np.arange(d)
        table = root_powers(d, rows, cols)
        # the same exponent mod d gives the same number, to the bit
        assert np.array_equal(table[:d], table[d:2 * d])
        assert np.array_equal(table[:d], table[2 * d:])
        # against roots computed in extended precision
        angles = 2 * np.arccos(np.longdouble(-1)) * (np.outer(rows, cols) % d) / d
        exact = np.cos(angles) + 1j * np.sin(angles)
        assert np.max(np.abs(table - exact)) < 2e-15


def test_povm_to_observable_computational():
    g = sc.povm_to_observable(comp_basis_povm(2))
    assert np.allclose(g.operators[1], np.diag([1.0, -1.0]), atol=1e-12)


def test_povm_to_observable_b0_is_identity():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        g = sc.povm_to_observable(sc.random_povm(d, d, rng))
        assert np.allclose(g.operators[0], np.eye(d), atol=1e-12)


def test_povm_to_observable_uniform_noise():
    g = sc.povm_to_observable(sc.Povm([np.eye(3, dtype=complex) / 3] * 3))
    assert np.allclose(g.operators[1], 0, atol=1e-12)
    assert np.allclose(g.operators[2], 0, atol=1e-12)


def test_observable_to_povm_projective_cases():
    z2 = sc.GeneralizedObservable.from_unitary(sc.generalized_pauli(2, "Z"), 2)
    p = sc.observable_to_povm(z2)
    assert np.allclose(p.elements[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(p.elements[1], np.diag([0.0, 1.0]), atol=1e-12)

    zeros = sc.GeneralizedObservable(
        np.stack([np.eye(3, dtype=complex), np.zeros((3, 3)), np.zeros((3, 3))])
    )
    p = sc.observable_to_povm(zeros)
    for e in p.elements:
        assert np.allclose(e, np.eye(3) / 3, atol=1e-12)

    x3 = sc.GeneralizedObservable.from_unitary(sc.generalized_pauli(3, "X"), 3)
    p = sc.observable_to_povm(x3)
    # X_3 eigenvector with eigenvalue omega^a has components omega^{-aj}/sqrt(3)
    f = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    for a in range(3):
        proj = np.outer(f[:, a], f[:, a].conj())
        assert np.allclose(p.elements[a], proj, atol=1e-12)


def test_observable_to_povm_rejects_negative():
    # B_1 = B_2 = -I is norm-compliant yet gives element (1-2)/3 < 0 at b=0
    eye = np.eye(3, dtype=complex)
    bad = sc.GeneralizedObservable(np.stack([eye, -eye, -eye]))
    with pytest.raises(sc.InvalidObservableError):
        sc.observable_to_povm(bad)


def test_observable_to_povm_refuses_a_slightly_negative_element():
    # N_0 has least eigenvalue -1e-7: within reach of a clip to zero, but
    # no POVM's element, so it is refused rather than repaired.
    p = [-1e-7, 0.5 + 5e-8, 0.5 + 5e-8]
    elements = np.array([np.diag([pa, 1.0 / 3.0]) for pa in p], dtype=complex)
    g = sc.povm_to_observable(sc.Povm(elements))
    assert np.linalg.eigvalsh(elements[0])[0] == -1e-7
    with pytest.raises(sc.InvalidObservableError, match="element 0"):
        sc.observable_to_povm(g)


def test_observable_to_povm_returns_the_hermitian_parts_unclipped():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        p = sc.random_povm(d, d, rng)
        els = sc.observable_to_povm(sc.povm_to_observable(p)).elements
        assert np.array_equal(els, np.conj(els).transpose(0, 2, 1))


def test_fourier_round_trip_random_povms():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        p = sc.random_povm(d, d, rng)
        q = sc.observable_to_povm(sc.povm_to_observable(p))
        for e1, e2 in zip(p.elements, q.elements):
            assert np.max(np.abs(e1 - e2)) < 1e-12


def test_is_projective_examples():
    z3 = sc.GeneralizedObservable.from_unitary(sc.generalized_pauli(3, "Z"), 3)
    ok, info = sc.is_projective(z3)
    assert ok and info["unitarity"] < 1e-12

    noisy = sc.povm_to_observable(sc.Povm([np.eye(3, dtype=complex) / 3] * 3))
    ok, _ = sc.is_projective(noisy)
    assert not ok

    z = sc.generalized_pauli(3, "Z")
    shrunk = sc.GeneralizedObservable(
        np.stack([np.eye(3, dtype=complex), 0.99 * z, 0.99 * z @ z])
    )
    ok, info = sc.is_projective(shrunk)
    assert not ok
    assert abs(info["unitarity"] - (1 - 0.99**2) * np.sqrt(3)) < 1e-12


def test_random_projective_observables_are_unit_norm():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        u = sc.haar_unitary(d, rng)
        p = sc.Povm([np.outer(u[:, a], u[:, a].conj()) for a in range(d)])
        g = sc.povm_to_observable(p)
        ok, _ = sc.is_projective(g)
        assert ok
        for k in range(1, d):
            assert abs(np.linalg.norm(g.operators[k], 2) - 1.0) < 1e-9


def test_unitary_observable_povm_recovers_projectors():
    z3 = sc.generalized_pauli(3, "Z")
    p = sc.unitary_observable_povm(z3, 3)
    for a in range(3):
        e = np.zeros((3, 3))
        e[a, a] = 1.0
        assert np.allclose(p.elements[a], e, atol=1e-12)


def test_povm_container_checks():
    with pytest.raises(sc.SizeError):
        sc.Povm([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
    p = comp_basis_povm(3)
    assert p.dim == 3 and p.n_outcomes == 3


def test_povm_and_table_reject_non_finite():
    els = comp_basis_povm(2).elements.copy()
    els[1, 0, 1] = np.nan
    with pytest.raises(sc.DomainError):
        sc.Povm(els)


@pytest.mark.parametrize("k,scale", [(1, 2.0), (3, 2.0), (3, 1.0 + 5e-6)])
def test_generalized_observable_rejects_norm_above_one_at_any_k(k, scale):
    # d = 4 takes an SVD only at k <= 2; B_3 is bounded through its pairing
    # with B_1, also when it lies within np.allclose's rtol of B_1^dag.
    eye = np.eye(2, dtype=complex)
    ops = np.stack([eye, eye, 0.5 * eye, eye])
    ops[k] = scale * eye
    if k == 1:
        ops[3] = ops[1].conj().T
    with pytest.raises(sc.ContractError):
        sc.GeneralizedObservable(ops)


def test_generalized_observable_is_not_changed_by_edits_to_the_callers_array():
    z = sc.generalized_pauli(3, "Z")
    ops = np.stack([np.eye(3), z.conj(), z])
    g = sc.GeneralizedObservable(ops)
    assert sc.is_projective(g)[0]
    ops[1] = ops[2] = 5.0 * np.eye(3)  # B_{d-k} = B_k^dag and ||B_k|| <= 1 were checked
    assert np.array_equal(g.operators[1], z.conj())
    assert sc.is_projective(g)[0]
    with pytest.raises(ValueError):
        g.operators[1, 0, 0] = 5.0


def _svd_only_accepts(ops) -> bool:
    """The norm test by SVD alone: ||B_k||_op + ||B_{d-k} - B_k^dag||_F <= 1 + 1e-9."""
    d = len(ops)
    return all(np.linalg.svd(ops[k], compute_uv=False)[0]
               + np.linalg.norm(ops[d - k] - ops[k].conj().T) <= 1.0 + 1e-9
               for k in range(1, d // 2 + 1))


def _accepts(ops) -> bool:
    try:
        sc.GeneralizedObservable(ops)
    except sc.ContractError:
        return False
    return True


@pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, 1e-6])
def test_norm_pretest_agrees_with_the_svd_on_scaled_unitaries(delta):
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 8):
        for _ in range(4):
            b = (1.0 + delta) * sc.haar_unitary(n, rng)
            for ops in (np.stack([np.eye(n), b, b.conj().T]),
                        # d = 2: B_1 must be Hermitian, so a scaled reflection
                        np.stack([np.eye(n), (b + b.conj().T) / np.linalg.norm(
                            b + b.conj().T, 2) * (1.0 + delta)])):
                assert _accepts(ops) == _svd_only_accepts(ops), (n, delta)


def test_norm_pretest_agrees_with_the_svd_on_contractions():
    rng = np.random.default_rng(32)
    for n in (1, 2, 5):
        for scale in (0.5, 0.999, 1.0, 1.0 + 1e-9, 1.001):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = scale * m / np.linalg.norm(m, 2)
            ops = np.stack([np.eye(n), b, b @ b, b.conj().T])
            ops[2] = (ops[2] + ops[2].conj().T) / 2  # d = 4 pairs B_2 with itself
            assert _accepts(ops) == _svd_only_accepts(ops), (n, scale)


def _exact_gram_residual_squared(b) -> Fraction:
    """||B^dag B - 1||_F^2 in exact rational arithmetic on b's doubles."""
    n = b.shape[0]
    re = [[Fraction(x) for x in row] for row in b.real.tolist()]
    im = [[Fraction(x) for x in row] for row in b.imag.tolist()]
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            g_re = sum(re[k][i] * re[k][j] + im[k][i] * im[k][j] for k in range(n))
            g_im = sum(re[k][i] * im[k][j] - im[k][i] * re[k][j] for k in range(n))
            total += (g_re - (i == j)) ** 2 + g_im ** 2
    return total


def test_gram_excess_bounds_the_exact_residual():
    # On a near-unitary B the computed residual is all roundoff, and is
    # below the exact one about half the time; the allowance covers it.
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        b = sc.haar_unitary(n, rng)
        assert Fraction(_gram_excess(b)) ** 2 >= _exact_gram_residual_squared(b)


def test_unitary_observable_takes_no_svd(monkeypatch):
    d, junk = 8, 16
    rng = np.random.default_rng(34)
    v = sc.haar_unitary(d * junk, rng)
    u = v @ np.kron(sc.generalized_pauli(d, "X"), np.eye(junk)) @ v.conj().T
    powers = sc.GeneralizedObservable.from_unitary(u, d).operators
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    sc.GeneralizedObservable(powers)
    assert calls == []
    # B_k / 2 for k >= 1 is decided by the SVD, once per conjugate pair
    halved = powers / 2
    halved[0] = powers[0]
    sc.GeneralizedObservable(halved)
    assert len(calls) == d // 2


def _two_allclose(ops):
    """The message of the loop that compared each conjugate pair from both
    sides, with the same norm test, or None when it accepts."""
    d = len(ops)
    for k in range(1, d):
        if not np.allclose(ops[d - k], ops[k].conj().T, atol=1e-9):
            return f"B_{d - k} != B_{k}^dag"
        if 2 * k <= d and (np.linalg.svd(ops[k], compute_uv=False)[0]
                           + np.linalg.norm(ops[d - k] - ops[k].conj().T) > 1.0 + 1e-9):
            return f"||B_{k}||_op or ||B_{d - k}||_op > 1"
    return None


def _message(ops):
    try:
        sc.GeneralizedObservable(ops)
    except sc.ContractError as e:
        return str(e)
    return None


def test_conjugate_pairing_matches_the_two_allclose_loop_at_its_edges():
    # B_k = U^k / 2 keeps the norm test far from its edge. Entry (0, 1) of
    # B_{d-k} is moved along its own phase by just under or just over one
    # side's tolerance, 1e-9 + 1e-5 |B_k^dag|: moving it out raises the
    # other side's tolerance, and moving it in lowers it, so the two calls
    # disagree and each can fail alone. Pairs fail together or apart, to
    # check which message comes first.
    rng = np.random.default_rng(35)
    outcomes = set()
    for d in (3, 4, 5, 6):
        v = sc.haar_unitary(3, rng)
        u = v @ np.diag(np.exp(2j * np.pi * rng.integers(0, d, 3) / d)) @ v.conj().T
        base = sc.GeneralizedObservable.from_unitary(u, d).operators / 2
        base[0] = np.eye(3)
        moves = [None] + [(s, f) for s in (1, -1) for f in (1 - 1e-7, 1 + 1e-7, 2.0)]
        for k in range(1, d // 2 + 1):
            for other in range(1, d // 2 + 1):
                for move in moves:
                    for other_move in (None, (1, 2.0), (-1, 1 - 1e-7)):
                        ops = base.copy()
                        for j, m in ((k, move), (other, other_move)):
                            if m is not None:
                                z = ops[d - j, 0, 1]
                                tol = 1e-9 + 1e-5 * abs(ops[j, 1, 0])
                                ops[d - j, 0, 1] = z + m[0] * m[1] * tol * z / abs(z)
                        want = _two_allclose(ops)
                        assert _message(ops) == want, (d, k, move, other, other_move)
                        outcomes.add(want if want is None else want.split(" ")[0][2:])
    assert {None, "1", "2", "3", "4"} <= outcomes


def test_generalized_observable_refuses_non_finite_operators():
    # B_1 and B_2 = B_1^dag both hold inf at the same place: np.allclose
    # counts equal infinities as close, and the old loop accepted this.
    z = sc.generalized_pauli(3, "Z")
    for value in (np.inf, complex(0, -np.inf), np.nan):
        ops = np.stack([np.eye(3), z, z.conj()]).astype(complex)
        ops[1, 0, 1] = value
        ops[2, 1, 0] = np.conj(value)
        with np.errstate(invalid="ignore"), pytest.raises(sc.ContractError):
            sc.GeneralizedObservable(ops)
