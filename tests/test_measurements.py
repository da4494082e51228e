"""Generalized Pauli operators and the POVM/observable Fourier pair."""

import numpy as np
import pytest

import steercert as sc
from conftest import fourier_observable
from steercert.measurements import _alice_chains, _chain_check, root_powers


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


def test_observable_to_povm_of_a_checked_chain_is_the_plain_fourier_sum():
    # N_a = (1/d) sum_k omega^(-a k) A^k is the eigenprojector of a unitary
    # with A^d = 1; taking its Hermitian part moves it by roundoff alone
    cases = [(sc.generalized_pauli(d, kind), d) for d in (2, 3, 5, 8) for kind in "ZX"]
    for aux, rank in ((1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (4, 2)):
        da = sc.dressed_alice(aux, rank)
        cases += [(da.a0, 3), (da.a1, 3)]
    for u, d in cases:
        chain = _alice_chains([u], d)[0]
        plain = np.einsum("ak,kij->aij", root_powers(d, -np.arange(d), np.arange(d)), chain) / d
        els = sc.observable_to_povm(sc.GeneralizedObservable(chain)).elements
        assert np.max(np.abs(els - plain)) <= 1e-15


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
    g = fourier_observable(elements)
    assert np.linalg.eigvalsh(elements[0])[0] == -1e-7
    with pytest.raises(sc.InvalidObservableError, match="element 0"):
        sc.observable_to_povm(g)


def test_observable_to_povm_returns_the_hermitian_parts_unclipped():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        p = sc.random_povm(d, d, rng)
        els = sc.observable_to_povm(fourier_observable(p.elements)).elements
        assert np.array_equal(els, np.conj(els).transpose(0, 2, 1))


def test_fourier_round_trip_random_povms():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        p = sc.random_povm(d, d, rng)
        q = sc.observable_to_povm(fourier_observable(p.elements))
        for e1, e2 in zip(p.elements, q.elements):
            assert np.max(np.abs(e1 - e2)) < 1e-12


def test_is_projective_examples():
    z3 = sc.GeneralizedObservable.from_unitary(sc.generalized_pauli(3, "Z"), 3)
    ok, info = sc.is_projective(z3)
    assert ok and info["unitarity"] < 1e-12

    noisy = fourier_observable([np.eye(3, dtype=complex) / 3] * 3)
    ok, _ = sc.is_projective(noisy)
    assert not ok

    z = sc.generalized_pauli(3, "Z")
    shrunk = sc.GeneralizedObservable(
        np.stack([np.eye(3, dtype=complex), 0.99 * z, 0.99 * z @ z])
    )
    ok, info = sc.is_projective(shrunk)
    assert not ok
    assert abs(info["unitarity"] - (1 - 0.99**2) * np.sqrt(3)) < 1e-12


def test_is_projective_decides_at_its_tolerance():
    # each stack's worst residual r passes at tol = r and fails one ulp below
    z = sc.generalized_pauli(3, "Z")
    off = z @ z + np.diag([0.0, 0.0, 2.0**-31])  # B_2 off B_1^2: the "powers" row
    stacks = [np.stack([np.eye(2), np.diag([1.0, 1.0 - 2.0**-20])]),
              np.stack([np.eye(3), z, off])]
    for ops, key in zip(stacks, ("unitarity", "powers")):
        g = sc.GeneralizedObservable(ops)
        _, res = sc.is_projective(g)
        r = max(res.values())
        assert res[key] == r > 0
        assert sc.is_projective(g, r)[0] and not sc.is_projective(g, np.nextafter(r, -np.inf))[0]
    assert not _chain_check(np.full((2, 2, 2), np.nan), 1.0)[0]


def test_random_projective_observables_are_unit_norm():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        u = sc.haar_unitary(d, rng)
        p = sc.Povm([np.outer(u[:, a], u[:, a].conj()) for a in range(d)])
        g = fourier_observable(p.elements)
        ok, _ = sc.is_projective(g)
        assert ok
        for k in range(1, d):
            assert abs(np.linalg.norm(g.operators[k], 2) - 1.0) < 1e-9


def test_observable_to_povm_recovers_the_projectors_of_a_unitary():
    z3 = sc.generalized_pauli(3, "Z")
    p = sc.observable_to_povm(sc.GeneralizedObservable.from_unitary(z3, 3))
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


def test_povm_refuses_elements_whose_squares_overflow():
    # Three orthogonal projectors, the second scaled by t: the checks' norms
    # stay finite while 4 (t + 2)^2 does, that is for t below 6.7e153.
    for t in (6e153, 7e153, 1e200):
        els = comp_basis_povm(3).elements * np.array([1.0, t, 1.0])[:, None, None]
        if t < 6.7e153:
            p = sc.Povm(els)
            assert np.isfinite(sc.validate_povm(p).completeness_residual)
            sc.is_extremal_rank_one(p)  # the Gram SVD, warning-free
        else:
            with pytest.raises(sc.DomainError, match="POVM element 1 is too large"):
                sc.Povm(els)


@pytest.mark.parametrize("k,scale", [(1, 2.0), (3, 2.0), (3, 1.0 + 5e-6)])
def test_generalized_observable_rejects_norm_above_one_at_any_k(k, scale):
    # d = 4 takes a Cholesky factor only at k <= 2; B_3 is bounded by the
    # entry guard and through its pairing with B_1.
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


TOL = sc.DEFAULT_TOL
# The two sides of each tolerance: a test that decides within a relative
# 1e-3 of its edge is wrong, since roundoff moves these residuals by far less.
SIDES = (1 - 1e-3, 1 + 1e-3)


def _reference_message(ops):
    """The message GeneralizedObservable should raise, or None, with the
    norm taken by SVD: entries above 1 + 2 tol anywhere first, then B_0,
    then each conjugate pair in turn, the pairing before the norm."""
    d, eye = len(ops), np.eye(ops.shape[1])
    top = np.abs(ops).max(axis=(1, 2))
    if not top[0] <= 1 + 2 * TOL or np.linalg.norm(ops[0] - eye) > TOL:
        return "B_0 must be the identity"
    for k in range(1, d):
        if not top[k] <= 1 + 2 * TOL:
            return f"B_{k} has an entry of modulus {top[k]:.3e}, so ||B_{k}||_op > 1"
    for k in range(1, d // 2 + 1):
        dev = np.linalg.norm(ops[d - k] - ops[k].conj().T)
        if dev > TOL:
            return f"B_{d - k} != B_{k}^dag"
        if np.linalg.svd(ops[k], compute_uv=False)[0] + dev > 1 + TOL:
            return f"||B_{k}||_op or ||B_{d - k}||_op > 1"
    return None


def _message(ops):
    try:
        sc.GeneralizedObservable(ops)
    except sc.ContractError as e:
        return str(e)
    return None


@pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12, -1e-9, 1e-9 * SIDES[0], 1e-9 * SIDES[1],
                                   2e-9, 1e-6, -1e-3, 1e-3])
def test_norm_pretest_agrees_with_the_svd_on_scaled_unitaries(delta):
    # ||(1 + delta) U||_op = 1 + delta; the norm test passes it iff delta
    # <= tol, and 1e-9 (1 +- 1e-3) are the two sides of that edge.
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 8):
        for _ in range(4):
            b = (1.0 + delta) * sc.haar_unitary(n, rng)
            for ops in (np.stack([np.eye(n), b, b.conj().T]),
                        # d = 2: B_1 must be Hermitian, so a scaled reflection
                        np.stack([np.eye(n), (b + b.conj().T) / np.linalg.norm(
                            b + b.conj().T, 2) * (1.0 + delta)])):
                want = _reference_message(ops)
                assert _message(ops) == want and (want is None) == (delta <= TOL), (n, delta)


def test_norm_pretest_agrees_with_the_svd_on_contractions():
    rng = np.random.default_rng(32)
    for n in (1, 2, 5):
        for scale in (0.5, 0.999, 1.0, 1.0 + TOL * SIDES[0], 1.0 + TOL * SIDES[1], 1.001):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = scale * m / np.linalg.norm(m, 2)
            ops = np.stack([np.eye(n), b, b @ b, b.conj().T])
            ops[2] = (ops[2] + ops[2].conj().T) / 2  # d = 4 pairs B_2 with itself
            want = _reference_message(ops)
            assert _message(ops) == want and (want is None) == (scale <= 1 + TOL), (n, scale)


def _direction(rng, n, anti_hermitian=False):
    """A random complex n x n matrix of unit Frobenius norm."""
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if anti_hermitian:
        e = e - e.conj().T
    return e / np.linalg.norm(e)


def test_identity_residual_decides_at_the_tolerance():
    rng = np.random.default_rng(36)
    for n in (1, 2, 3, 8):
        for side in SIDES:
            ops = np.zeros((3, n, n), dtype=complex)
            ops[0] = np.eye(n) + side * TOL * _direction(rng, n)
            want = None if side < 1 else "B_0 must be the identity"
            assert _message(ops) == _reference_message(ops) == want, (n, side)
    # Bob's Z* with B_0 = (1 + 5e-6) 1: each entry is within np.allclose's
    # 1e-9 + 1e-5 |x| of the identity, but the residual is 8.7e-6
    ops = sc.GeneralizedObservable.from_unitary(sc.generalized_pauli(3, "Z").conj(), 3).operators
    with pytest.raises(sc.ContractError, match="B_0 must be the identity"):
        sc.GeneralizedObservable(np.stack([(1 + 5e-6) * ops[0], ops[1], ops[2]]))


def _pair_move(ops, j, move, rng):
    """Move the conjugate pair (B_j, B_{d-j}) of ops to one side of a test:
    ("dev", f) puts dev = f tol, ("norm", f) puts ||B_j||_op = 1 + f tol,
    and ("both", f) puts dev = tol / 2 and ||B_j||_op = 1 + f tol / 2."""
    d, n = len(ops), ops.shape[1]
    kind, f = move
    if kind != "dev":
        u = ops[j] / np.linalg.norm(ops[j], 2)  # a unitary, Hermitian when 2 j = d
        ops[j] = u * (1 + f * TOL / (2 if kind == "both" else 1))
        ops[d - j] = ops[j].conj().T
    if kind != "norm":
        size = f * TOL if kind == "dev" else TOL / 2
        if 2 * j == d:  # dev = ||E - E^dag||_F = 2 ||E||_F
            ops[j] = ops[j] + size / 2 * _direction(rng, n, anti_hermitian=True)
        else:
            ops[d - j] = ops[d - j] + size * _direction(rng, n)


def test_pairing_and_norm_decide_at_their_tolerance_and_the_first_failing_pair_is_named():
    # B_k = U^k / 2 with B_{d-k} = B_k^dag exactly keeps every test off its
    # edge. One pair is moved to either side of the pairing test, the norm
    # test, or both at once (c = 1 + tol - dev); a second pair fails, or
    # not, to check that the message names the first failing pair.
    rng = np.random.default_rng(35)
    moves = [None] + [(kind, f) for kind in ("dev", "norm", "both") for f in SIDES]
    outcomes = set()
    for d in (3, 4, 5, 6):
        v = sc.haar_unitary(3, rng)
        u = v @ np.diag(np.exp(2j * np.pi * rng.integers(0, d, 3) / d)) @ v.conj().T
        base = sc.GeneralizedObservable.from_unitary(u, d).operators / 2
        base[0] = np.eye(3)
        for k in range(1, d // 2 + 1):
            base[d - k] = base[k].conj().T
            if 2 * k == d:
                base[k] = (base[k] + base[k].conj().T) / 2
        for k in range(1, d // 2 + 1):
            for other in range(1, d // 2 + 1):
                for move in moves:
                    for other_move in (None, ("dev", 2.0), ("norm", 1e3)):
                        ops = base.copy()
                        for j, m in ((k, move), (other, other_move)):
                            if m is not None:
                                _pair_move(ops, j, m, rng)
                        want = _reference_message(ops)
                        assert _message(ops) == want, (d, k, move, other, other_move)
                        outcomes.add(want and want.split(" ")[0])
    assert outcomes == {None, "B_2", "B_3", "B_4", "B_5", "||B_1||_op", "||B_2||_op",
                        "||B_3||_op"}


def test_entry_guard_covers_the_whole_stack_before_any_product():
    # 1e300 overflows any product or squared norm; the tier-1 warning
    # filter makes such an overflow an error.
    for d in (2, 3, 4, 5):
        ops = sc.GeneralizedObservable.from_unitary(sc.generalized_pauli(d, "X"), d).operators
        for k in range(d):
            bad = ops.copy()
            bad[k, 0, 1] = 1e300
            want = ("B_0 must be the identity" if k == 0 else
                    f"B_{k} has an entry of modulus 1.000e+300, so ||B_{k}||_op > 1")
            assert _message(bad) == _reference_message(bad) == want, (d, k)


def test_unitary_observable_takes_no_svd(monkeypatch):
    d, junk = 8, 16
    rng = np.random.default_rng(34)
    v = sc.haar_unitary(d * junk, rng)
    u = v @ np.kron(sc.generalized_pauli(d, "X"), np.eye(junk)) @ v.conj().T
    powers = sc.GeneralizedObservable.from_unitary(u, d).operators
    halved = powers / 2
    halved[0] = powers[0]

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for ops in (powers, halved):
        sc.GeneralizedObservable(ops)


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
