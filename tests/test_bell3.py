"""Three-setting qutrit Bell functional: bound, see-saw, extended check."""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest
import scipy.linalg

import steercert as sc
import steercert.bell3 as b3
import steercert.cli as cli
from conftest import bell_operator_reference, fourier_observable


def brute_force_classical_bound():
    """Deterministic strategies reduce to f(m) = 2 Re[lambda_1 omega^m]."""
    w = np.exp(2j * np.pi / 3)
    lam1 = np.exp(-1j * np.pi / 18)
    f = np.array([2 * (lam1 * w**m).real for m in range(3)])
    best = -np.inf
    for a in itertools.product(range(3), repeat=3):
        for b in itertools.product(range(3), repeat=3):
            total = sum(f[(x * y + a[x] + b[y]) % 3] for x in range(3) for y in range(3))
            best = max(best, total)
    return best


def test_classical_bound_matches_enumeration():
    assert abs(brute_force_classical_bound() - sc.BELL3_BOUND) < 1e-12
    # and the closed form
    assert abs(sc.BELL3_BOUND - 6 * np.sqrt(3) * np.cos(np.pi / 9)) < 1e-12


def test_lambda1_is_the_papers_phase():
    assert abs(sc.LAMBDA1 - np.exp(-1j * np.pi / 18)) < 1e-15


def same_bits(a, b):
    """Equal shapes and identical bits, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_order3(dim, rng):
    """Unitary with a Haar-random eigenbasis and spectrum omega^(i mod 3)."""
    q = sc.haar_unitary(dim, rng)
    return (q * sc.omega(3) ** (np.arange(dim) % 3)) @ sc.dagger(q)


def test_bell_operator_is_the_kron_sum_bit_for_bit():
    rng = np.random.default_rng(808)
    for trial in range(240):
        alice = [random_order3(3, rng) for _ in range(3)]
        pairs = [(b, b @ b) for b in (random_order3(3, rng) for _ in range(3))]
        lam1 = np.exp(1j * rng.uniform(-np.pi, np.pi)) if trial % 2 else sc.LAMBDA1
        assert same_bits(
            b3._bell_sum([(a, a @ a) for a in alice], pairs, b3._bell_scalars(lam1)),
            bell_operator_reference(alice, pairs, lam1),
        ), trial


def test_bell_operator_dressed_bit_for_bit():
    # dim 6 per side: the dressed observables and their products, then
    # Haar-random order-3 unitaries
    lam1 = sc.LAMBDA1
    dressed = sc.dressed_alice(2, 1)
    r = b3._dressed_pair_realization(sc.maximally_entangled(3), dressed, 0.3)
    a0, a1 = r.alice_observables
    b0, b1 = (g.operators[1] for g in r.bob_observables)
    rng = np.random.default_rng(909)
    cases = [([a0, a1, a0 @ a1], [b0, b1, b0 @ b1])]
    cases += [([random_order3(6, rng) for _ in range(3)],
               [random_order3(6, rng) for _ in range(3)]) for _ in range(20)]
    for alice, bobs in cases:
        real = sc.Realization(
            r.state, alice, [sc.GeneralizedObservable.from_unitary(b, 3) for b in bobs]
        )
        pairs = [g.operators[1:] for g in real.bob_observables]
        ref = bell_operator_reference(alice, pairs, lam1)
        op = b3._bell_sum([(a, a @ a) for a in alice], pairs, b3._bell_scalars(lam1))
        assert same_bits(op, ref)
        m = r.state.amplitudes.reshape(36, 1)
        assert b3.bell_value(real) == float(np.sum(np.conj(m) * (ref @ m)).real)


def same_schur(u):
    """_schur(u) equals scipy.linalg.schur(u, output="complex") bit for bit."""
    ours = b3._schur(u)
    theirs = scipy.linalg.schur(u, output="complex")
    # LAPACK returns Fortran-ordered arrays; same_bits views rows.
    return all(same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b))
               for a, b in zip(ours, theirs))


def test_schur_is_scipys_bit_for_bit():
    rng = np.random.default_rng(515)
    for trial in range(500):
        assert same_schur(random_order3(3, rng)), trial


def test_schur_is_scipys_on_seesaw_polar_factors(monkeypatch):
    seen = []
    schur = b3._schur

    def recording(u):
        seen.append(u.copy())
        return schur(u)

    monkeypatch.setattr(b3, "_schur", recording)
    runs = b3._seesaw(np.random.SeedSequence(5).spawn(3), 30, sc.LAMBDA1)
    # one Schur form per proposed observable: six per sweep of each restart
    assert len(seen) == 6 * sum(len(history) for *_, history in runs)
    monkeypatch.undo()
    for i, u in enumerate(seen):
        assert same_schur(u), i


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_schur_refuses_non_finite_input(bad):
    # checked once per stack, before any Schur form: _schur itself takes
    # the finite polar factors as they are
    u = np.eye(3, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        b3._project_order3(u)
    with pytest.raises(ValueError, match="infs or NaNs"):
        b3._project_order3(np.stack([np.eye(3, dtype=complex), u]))


def test_schur_raises_when_lapack_fails(monkeypatch):
    gees, lwork = b3._gees(3)

    def failing(*args, **kwargs):
        return (*gees(*args, **kwargs)[:-1], 2)

    monkeypatch.setattr(b3, "_gees", lambda n: (failing, lwork))
    with pytest.raises(np.linalg.LinAlgError):
        b3._schur(random_order3(3, np.random.default_rng(0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_svd_refuses_non_finite_input(bad):
    # the polar step refuses before its stacked SVD, for one matrix or a stack
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        b3._polar_rounded(m)
    stack = np.stack([np.eye(3, dtype=complex), m, np.eye(3, dtype=complex)])
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        b3._polar_rounded(stack)


@pytest.mark.parametrize("args, value, iterations", [
    (["--restarts", "3", "--seed", "1"], 10.392304845413276, 24),
    (["--restarts", "4", "--seed", "3"], 10.392304845413285, 28),
    (["--restarts", "6", "--iters", "120"], 10.392304845413282, 27),
])
def test_bell3_reports_are_pinned(args, value, iterations):
    # the see-saw's accept test, early stop and tie-break see every bit
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bell3", *args]) == 0
    rep = json.loads(out.getvalue())
    assert rep["value"] == value
    assert rep["iterations"] == iterations


def ideal_bell_realization():
    val, r, _ = sc.seesaw_details(seed=42, restarts=8, iters=120)
    assert val > sc.BELL3_BOUND  # quantum side of the inequality
    return r


def test_seesaw_reaches_quantum_maximum():
    val, r, _ = sc.seesaw_details(seed=42, restarts=8, iters=120)
    assert abs(val - 6 * np.sqrt(3)) < 1e-9
    assert abs(b3.bell_value(r) - val) < 1e-9


def test_seesaw_history_monotone():
    for *_, history in b3._seesaw(np.random.SeedSequence(5).spawn(4), 60, sc.LAMBDA1):
        hist = np.array(history)
        assert np.all(np.diff(hist) >= -1e-12)
        assert hist[-1] <= 6 * np.sqrt(3) + 1e-9


def same_run(a, b):
    """Two see-saw restarts agree bit for bit: value, state, observables, history."""
    (va, psia, alicea, bobsa, hista), (vb, psib, aliceb, bobsb, histb) = a, b
    return (same_bits(np.array([va]), np.array([vb])) and same_bits(psia, psib)
            and all(map(same_bits, alicea + bobsa, aliceb + bobsb))
            and same_bits(np.array(hista), np.array(histb)))


def test_each_restart_is_the_same_run_alone_bit_for_bit():
    # spawn(n) gives every n the same first children, so restart i is the
    # same seed in each batch
    for seed in range(10):
        alone = [b3._seesaw([ss], 150, sc.LAMBDA1)[0]
                 for ss in np.random.SeedSequence(seed).spawn(8)]
        for n in range(1, 9):
            runs = b3._seesaw(np.random.SeedSequence(seed).spawn(n), 150, sc.LAMBDA1)
            assert len(runs) == n
            for i, run in enumerate(runs):
                assert same_run(run, alone[i]), (seed, n, i)


def random_start(rng):
    """One starting observable, drawn as the per-restart loop drew it.

    A Haar-random eigenbasis from the QR of a complex Gaussian matrix,
    its real then its imaginary part drawn, and the spectrum (1, w, w^2).
    """
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return (q * sc.omega(3) ** np.arange(3)) @ sc.dagger(q)


@pytest.mark.parametrize("restarts", [1, 3, 32])
def test_stacked_start_is_the_per_matrix_draw_bit_for_bit(restarts):
    seeds = np.random.SeedSequence(17).spawn(restarts)
    start = b3._random_starts(seeds)
    assert start.shape == (restarts, 6, 3, 3)
    for i, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        for k in range(6):
            assert same_bits(start[i, k], random_start(rng)), (i, k)


def seesaw_one_restart(ss, iters, lam1, kept=None):
    """The per-restart see-saw loop, as it ran before the lockstep.

    Bell operators are the np.kron sum of conftest, polar factors come
    from np.linalg.svd and scipy.linalg.schur, one matrix at a time.
    If kept is a list, whether each trial was kept is appended to it,
    six per sweep: Alice's x = 0, 1, 2, then Bob's y = 0, 1, 2.
    """
    kept = [] if kept is None else kept
    rng = np.random.default_rng(ss)
    w = sc.omega(3)

    def polar_rounded(m):
        u, _, vh = np.linalg.svd(m)
        t, q = scipy.linalg.schur(sc.dagger(vh) @ sc.dagger(u), output="complex")
        ks = np.round(np.angle(np.diag(t)) * 3.0 / (2.0 * np.pi)).astype(int) % 3
        return (q * w ** ks) @ sc.dagger(q)

    def value(psi, alice_pairs, bob_pairs):
        op = bell_operator_reference([a for a, _ in alice_pairs], bob_pairs, lam1)
        return float(np.real(np.conj(psi) @ op @ psi)), op

    alice_pairs = [(a, a @ a) for a in (random_start(rng) for _ in range(3))]
    bob_pairs = [(b, b @ b) for b in (random_start(rng) for _ in range(3))]
    _, op = value(np.zeros(9), alice_pairs, bob_pairs)
    history = []
    for _ in range(iters):
        vals, vecs = np.linalg.eigh(op)
        psi, cur = vecs[:, -1], float(vals[-1])
        p = psi.reshape(3, 3)
        ks = [p @ b.T @ np.conj(p).T for b, _ in bob_pairs]
        for x in range(3):
            a = polar_rounded(lam1 * sum(w ** (x * y) * ks[y] for y in range(3)))
            trial = alice_pairs.copy()
            trial[x] = (a, a @ a)
            v, trial_op = value(psi, trial, bob_pairs)
            kept.append(v >= cur)
            if v >= cur:
                alice_pairs, cur, op = trial, v, trial_op
        ls = [np.einsum("ia,ij,jb->ba", np.conj(p), a, p) for a, _ in alice_pairs]
        for y in range(3):
            b = polar_rounded(lam1 * sum(w ** (x * y) * ls[x] for x in range(3)))
            trial = bob_pairs.copy()
            trial[y] = (b, b @ b)
            v, trial_op = value(psi, alice_pairs, trial)
            kept.append(v >= cur)
            if v >= cur:
                bob_pairs, cur, op = trial, v, trial_op
        history.append(cur)
        if len(history) > 5 and history[-1] - history[-6] < 1e-15:
            break
    return cur, psi.copy(), [a for a, _ in alice_pairs], [b for b, _ in bob_pairs], history


@pytest.mark.parametrize("seed, restarts, iters", [(1, 3, 150), (3, 4, 150), (9, 3, 4)])
def test_lockstep_is_the_per_restart_loop_bit_for_bit(seed, restarts, iters):
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    for i, run in enumerate(b3._seesaw(seeds, iters, sc.LAMBDA1)):
        assert same_run(run, seesaw_one_restart(seeds[i], iters, sc.LAMBDA1)), i


def test_lockstep_is_each_restart_alone_when_a_trial_splits_the_batch():
    # seed 2, two restarts, eight sweeps, both live throughout. Trial 3 is
    # Bob's y = 0: at sweep 5 restart 1 keeps it and restart 0 refuses it,
    # at sweep 6 both refuse it, and at sweep 0 both keep every trial, so
    # the split, none-kept and all-kept paths of the lockstep trial all run.
    seeds = np.random.SeedSequence(2).spawn(2)
    logs = [[], []]
    alone = [seesaw_one_restart(ss, 8, sc.LAMBDA1, log) for ss, log in zip(seeds, logs)]
    assert [len(history) for *_, history in alone] == [8, 8]
    kept = np.array(logs).reshape(2, 8, 6)  # restart, sweep, trial
    assert kept[:, 5, 3].tolist() == [False, True]
    assert kept[:, 6, 3].tolist() == [False, False]
    assert kept[:, 0].all()
    for i, run in enumerate(b3._seesaw(seeds, 8, sc.LAMBDA1)):
        assert same_run(run, alone[i]), i


def test_seesaw_details_reports_iterations():
    val, r, used = sc.seesaw_details(seed=1, restarts=3, iters=80)
    assert 1 <= used <= 80  # sweeps consumed by the winning restart
    assert val <= 6 * np.sqrt(3) + 1e-9
    assert abs(b3.bell_value(r) - val) < 1e-9


def test_seesaw_optimal_state_schmidt_uniform():
    _, r, _ = sc.seesaw_details(seed=42, restarts=8, iters=150)
    s = np.linalg.svd(r.state.amplitudes.reshape(3, 3), compute_uv=False)
    assert np.max(np.abs(s - 1 / np.sqrt(3))) < 1e-6


def test_bell_value_local_unitary_invariance():
    r = ideal_bell_realization()
    rng = np.random.default_rng(33)
    base = b3.bell_value(r)
    for _ in range(10):
        ua = sc.haar_unitary(3, rng)
        ub = sc.haar_unitary(3, rng)
        amps = np.einsum(
            "ij,kl,jl->ik", ua, ub, r.state.amplitudes.reshape(3, 3)
        ).reshape(-1)
        rot = sc.Realization(
            sc.Ket(amps, (3, 3)),
            [ua @ a @ sc.dagger(ua) for a in r.alice_observables],
            [
                sc.GeneralizedObservable.from_unitary(
                    ub @ g.operators[1] @ sc.dagger(ub), 3
                )
                for g in r.bob_observables
            ],
        )
        assert abs(b3.bell_value(rot) - base) < 1e-9


def test_bell_value_input_validation():
    r2 = sc.ideal_realization(sc.maximally_entangled(2))
    with pytest.raises(sc.SizeError):
        b3.bell_value(r2)
    r3 = sc.ideal_realization(sc.maximally_entangled(3))
    with pytest.raises(sc.SizeError):
        b3.bell_value(r3)  # two settings, needs three
    noisy = fourier_observable([np.eye(3, dtype=complex) / 3] * 3)
    z, x = sc.generalized_pauli(3, "Z"), sc.generalized_pauli(3, "X")
    r = sc.Realization(sc.schmidt_state(sc.maximally_entangled(3)), [z, x, z], [noisy] * 3)
    with pytest.raises(sc.ContractError, match=r"^Bob observable 0 is not projective \(residuals "):
        b3.bell_value(r)


def test_dressed_alice_shapes():
    for aux in range(1, 5):
        for q in range(aux + 1):
            da = sc.dressed_alice(aux, q)
            assert (da.aux_dim, da.q_rank) == (aux, q)
            p = da.q_projector
            assert p.shape == (aux, aux)
            # an orthogonal projector of rank q
            assert np.linalg.norm(p @ p - p) <= 1e-12 and np.linalg.norm(p - p.conj().T) <= 1e-12
            assert np.linalg.matrix_rank(p) == q and abs(np.trace(p) - q) <= 1e-12
            n = 3 * aux
            for a in (da.a0, da.a1):
                # unitary and cubing to the identity like any admissible Alice observable
                assert a.shape == (n, n)
                assert np.linalg.norm(a @ a.conj().T - np.eye(n)) <= 1e-12
                assert np.linalg.norm(np.linalg.matrix_power(a, 3) - np.eye(n)) <= 1e-12
    with pytest.raises(sc.DomainError):
        sc.dressed_alice(2, 3)
    with pytest.raises(sc.DomainError):
        sc.dressed_alice(2, -1)
    with pytest.raises(sc.DomainError):
        sc.dressed_alice(0, 0)


def test_dressed_alice_arrays_are_read_only():
    da = sc.dressed_alice(2, 1)
    for field in ("q_projector", "a0", "a1"):
        with pytest.raises(ValueError):
            getattr(da, field)[0, 0] = 5.0


def test_extended_check_passes_across_q_ranks():
    sv = sc.maximally_entangled(3)
    for aux, q in [(1, 1), (2, 0), (2, 1), (2, 2)]:
        rep = sc.extended_certification_check(sv, sc.dressed_alice(aux, q), seed=3)
        assert rep.passed, rep.failures
        assert abs(rep.value - 3.0) < 1e-9
        assert rep.lhs_bound < 3 - 1e-9


def test_extended_check_skewed_alpha():
    sv = sc.SchmidtVector(np.array([0.7, 0.5, np.sqrt(0.26)]))
    rep = sc.extended_certification_check(sv, sc.dressed_alice(2, 1), seed=5)
    assert rep.passed and abs(rep.value - 3.0) < 1e-9


def test_extended_check_detects_broken_pairing():
    # conjugating only one branch spoils the X(x)X correlators
    sv = sc.SchmidtVector(np.array([0.7, 0.5, np.sqrt(0.26)]))
    da = sc.dressed_alice(2, 1)
    good = b3._dressed_pair_realization(sv, da, 0.5)
    # X_3 on the complement of Q too, where the matched pairing has X_3-dagger
    x, q = sc.generalized_pauli(3, "X"), da.q_projector
    b1 = np.kron(x, q) + np.kron(x, np.eye(2) - q)
    bad = sc.Realization(good.state, good.alice_observables,
                         [good.bob_observables[0], sc.GeneralizedObservable.from_unitary(b1, 3)])
    f = sc.functional_coefficients(sv)
    assert abs(sc.evaluate(f, good) - 3.0) < 1e-9
    assert sc.evaluate(f, bad) < 3.0 - 1e-3


def test_extended_check_requires_qutrit():
    with pytest.raises(sc.SizeError):
        sc.extended_certification_check(
            sc.maximally_entangled(2), sc.dressed_alice(2, 1), seed=0
        )
