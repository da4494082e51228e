"""Outcome statistics, guessing probability and the brute-force Eve oracle."""

import os
import subprocess
import sys

import numpy as np
import pytest

import steercert as sc

from conftest import admissible_schmidt


def comp_projectors(d):
    els = np.zeros((d, d, d), dtype=complex)
    for a in range(d):
        els[a, a, a] = 1.0
    return sc.Povm(els)


def generic_covariant(d, seed=0):
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=d) + 1j * rng.normal(size=d)
    return sc.covariant_povm(d, nu)


def test_outcome_distribution_examples():
    probs = sc.outcome_distribution(comp_projectors(2), np.diag([0.75, 0.25]))
    assert np.allclose(probs, [0.75, 0.25], atol=1e-12)

    probs = sc.outcome_distribution(generic_covariant(3), np.eye(3) / 3)
    assert np.allclose(probs, 1 / 9, atol=1e-12)

    rng = np.random.default_rng(1)
    sv = admissible_schmidt(3, rng)
    probs = sc.outcome_distribution(sc.partial_povm(sv), np.diag(sv.alpha**2))
    assert np.allclose(probs, 1 / 9, atol=1e-9)


def test_outcome_distribution_checks_inputs():
    with pytest.raises(sc.SizeError):
        sc.outcome_distribution(comp_projectors(2), np.eye(3) / 3)
    with pytest.raises(sc.DomainError):
        sc.outcome_distribution(comp_projectors(2), np.diag([0.9, 0.9]))


def guessing(p, rho):
    return sc.randomness_report(p, rho).guessing_probability


def min_entropy(p, rho):
    return sc.randomness_report(p, rho).min_entropy_bits


def test_guessing_probability_examples():
    assert abs(guessing(generic_covariant(3), np.eye(3) / 3) - 1 / 9) < 1e-12

    det = sc.Povm([np.eye(2, dtype=complex), np.zeros((2, 2))])
    assert abs(guessing(det, np.eye(2) / 2) - 1.0) < 1e-12

    g = guessing(comp_projectors(2), np.diag([0.75, 0.25]))
    assert abs(g - 0.75) < 1e-12


def test_min_entropy_examples():
    mes3 = np.eye(3) / 3
    h = min_entropy(generic_covariant(3), mes3)
    assert abs(h - 2 * np.log2(3)) < 1e-12

    h = min_entropy(generic_covariant(2, seed=3), np.eye(2) / 2)
    assert abs(h - 2.0) < 1e-12

    for d in (2, 3, 5):
        h = min_entropy(comp_projectors(d), np.eye(d) / d)
        assert abs(h - np.log2(d)) < 1e-12


def test_distribution_normalization_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 2 * d))
        p = sc.random_povm(d, n, rng)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ sc.dagger(m)
        rho /= np.trace(rho).real
        probs = sc.outcome_distribution(p, rho)
        assert abs(probs.sum() - 1.0) < 1e-9
        g = guessing(p, rho)
        assert 1 / n - 1e-12 <= g <= 1 + 1e-12
        h = min_entropy(p, rho)
        assert -1e-12 <= h <= np.log2(n) + 1e-12


def test_eve_oracle_never_beats_analytic():
    rng = np.random.default_rng(5)
    for _ in range(6):
        d = int(rng.integers(2, 5))
        p = sc.random_povm(d, d * d, rng)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ sc.dagger(m)
        rho /= np.trace(rho).real
        best = sc.eve_bruteforce_oracle(p, rho, samples=200, seed=7)
        assert best <= guessing(p, rho) + 1e-9


def test_eve_oracle_reaches_deterministic_guess():
    det = sc.Povm([np.eye(2, dtype=complex), np.zeros((2, 2))])
    best = sc.eve_bruteforce_oracle(det, np.eye(2) / 2, samples=1, seed=0)
    assert abs(best - 1.0) < 1e-12


def test_eve_oracle_covariant_qubit():
    best = sc.eve_bruteforce_oracle(
        generic_covariant(2, seed=9), np.eye(2) / 2, samples=1000, seed=21
    )
    assert best <= 0.25 + 1e-9


def test_eve_oracle_input_validation():
    with pytest.raises(ValueError):
        sc.eve_bruteforce_oracle(comp_projectors(2), np.eye(2) / 2, samples=0, seed=0)


def test_eve_oracle_thread_count_invariance():
    code = (
        "import numpy as np, steercert as sc;"
        "rng = np.random.default_rng(2);"
        "p = sc.random_povm(3, 9, rng);"
        "m = rng.normal(size=(3,3)) + 1j*rng.normal(size=(3,3));"
        "rho = m @ sc.dagger(m); rho /= np.trace(rho).real;"
        "print(repr(sc.eve_bruteforce_oracle(p, rho, samples=64, seed=5)))"
    )
    outs = set()
    for threads in ("1", "4"):
        env = dict(os.environ, STEERCERT_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout.strip())
    assert len(outs) == 1


def test_randomness_report_roundtrip():
    rep = sc.randomness_report(generic_covariant(3), np.eye(3) / 3)
    assert rep.uniform
    assert abs(rep.min_entropy_bits - 2 * np.log2(3)) < 1e-12
    assert abs(sum(rep.outcome_probs) - 1.0) < 1e-9

    rep = sc.randomness_report(comp_projectors(2), np.diag([0.75, 0.25]))
    assert not rep.uniform
    assert abs(rep.guessing_probability - 0.75) < 1e-12
