"""Extremal d^2-outcome POVM constructions and the correlation residual check."""

import numpy as np
import pytest

import steercert as sc

from conftest import admissible_schmidt, dressed_pipeline


def test_default_phase_tables_pass_sidon():
    for d, xi in sc.DEFAULT_PHASE_TABLES.items():
        table = sc.default_phase_table(d)
        assert table.xi == xi
        assert sc.sidon_check(table)


def test_default_phase_table_domain():
    # No projective plane of order 6 exists, so no table for d = 7 does.
    with pytest.raises(sc.DomainError, match=r"no built-in phase table for d=7 \(have 2\.\.6\)"):
        sc.default_phase_table(7)


def test_sidon_check_rejects_collisions():
    # 2-1 = 1-0: repeated difference mod 7
    assert not sc.sidon_check(sc.PhaseTable(3, (0, 1, 2)))
    assert sc.sidon_check(sc.PhaseTable(3, (0, 1, 3)))


def test_covariant_povm_validity_and_extremality():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        nu = rng.normal(size=d) + 1j * rng.normal(size=d)
        p = sc.covariant_povm(d, nu)
        assert p.n_outcomes == d * d
        rep = sc.validate_povm(p)
        assert rep.passed
        ok, info = sc.is_extremal_rank_one(p)
        assert ok and info["gram_rank"] == d * d
        # covariance makes every outcome equally likely on I/d
        probs = sc.outcome_distribution(p, np.eye(d) / d)
        assert np.max(np.abs(probs - 1 / d**2)) < 1e-12


def test_povm_is_not_changed_by_edits_to_the_callers_array():
    els = np.array(sc.covariant_povm(2, [0.8, 0.6 * np.exp(0.7j)]).elements)
    p = sc.Povm(els)
    assert sc.validate_povm(p).passed and sc.is_extremal_rank_one(p)[0]
    els[0] += np.diag([1.0, -1.0])
    els[1] -= np.diag([1.0, -1.0])
    # the spectra p cached must describe the elements p holds
    fresh = sc.Povm(p.elements)
    assert np.array_equal(sc.validate_povm(p).min_eigenvalues,
                          sc.validate_povm(fresh).min_eigenvalues)
    assert (sc.is_extremal_rank_one(p)[1]["gram_rank"]
            == sc.is_extremal_rank_one(fresh)[1]["gram_rank"])
    assert sc.validate_povm(p).passed
    assert not sc.validate_povm(sc.Povm(els)).passed


def test_covariant_povm_real_fiducial_degenerates():
    # real qubit fiducials span only a 3-dimensional Gram space
    nu = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    with pytest.raises(sc.NotExtremalError) as exc:
        sc.covariant_povm(2, nu)
    assert exc.value.rank == 3
    assert exc.value.expected == 4


def test_covariant_povm_input_errors():
    with pytest.raises(sc.SizeError):
        sc.covariant_povm(3, np.ones(2))
    with pytest.raises(sc.DomainError):
        sc.covariant_povm(2, np.zeros(2))


def test_partial_povm_weights_and_uniformity():
    rng = np.random.default_rng(11)
    for d in (3, 4, 5, 6):
        sv = admissible_schmidt(d, rng)
        p = sc.partial_povm(sv)
        assert p.n_outcomes == d * d
        # leading outcomes are the advertised weighted projectors
        for i in range(d - 1):
            lam = 1.0 / (d * sv.alpha[i]) ** 2
            e = np.zeros((d, d))
            e[i, i] = lam
            assert np.max(np.abs(p.elements[i] - e)) < 1e-12
        assert sc.validate_povm(p).passed
        ok, info = sc.is_extremal_rank_one(p)
        assert ok and info["gram_rank"] == d * d
        probs = sc.outcome_distribution(p, np.diag(sv.alpha**2))
        assert np.max(np.abs(probs - 1 / d**2)) < 1e-9


def test_partial_povm_qubit_with_explicit_table():
    sv = sc.maximally_entangled(2)
    p = sc.partial_povm(sv, table=sc.PhaseTable(2, (0, 1)))
    assert p.n_outcomes == 4
    assert sc.validate_povm(p).passed
    probs = sc.outcome_distribution(p, np.eye(2) / 2)
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_partial_povm_inadmissible_alpha():
    sv = sc.SchmidtVector(np.array([0.2, 0.2, np.sqrt(1 - 0.08)]))
    with pytest.raises(sc.DomainError):
        sc.partial_povm(sv)


def test_partial_povm_table_mismatch():
    with pytest.raises(sc.SizeError):
        sc.partial_povm(sc.maximally_entangled(3), table=sc.PhaseTable(4, (0, 1, 3, 9)))
    with pytest.raises(sc.DomainError):
        sc.partial_povm(sc.maximally_entangled(3), table=sc.PhaseTable(3, (0, 1, 2)))


def test_validate_povm_reports_failures():
    good = sc.covariant_povm(2, np.array([0.8, 0.6 * np.exp(0.7j)]))
    assert sc.validate_povm(good).passed

    tampered = sc.Povm(good.elements * 0.9)  # completeness broken
    rep = sc.validate_povm(tampered)
    assert not rep.passed
    assert rep.completeness_residual > 1e-3
    assert any("complete" in msg for msg in rep.failures)

    skew = good.elements.copy()
    skew[0] = skew[0] + np.array([[0, 0.1], [0, 0]])  # not Hermitian
    rep = sc.validate_povm(sc.Povm(skew))
    assert not rep.passed
    assert rep.hermiticity[0] > 1e-3


def test_is_extremal_rank_one_rejects_higher_rank():
    p = sc.Povm([np.eye(2, dtype=complex) / 2] * 2)
    ok, info = sc.is_extremal_rank_one(p)
    assert not ok
    assert info["rank_one_violations"] == [0, 1]


def test_theorem3_residuals_vanish_on_shared_dressing():
    for d, kind in [(2, "covariant"), (3, "partial"), (4, "partial")]:
        pl = dressed_pipeline(d, 2, 2, seed=5, kind=kind)
        res = sc.theorem3_residuals(pl["r_povm"], pl["ideal"], pl["psi4"], pl["sv"])
        assert res.shape == (d, d, d * d)
        assert res.max() < 1e-9


def test_theorem3_residuals_detect_tamper():
    d = 3
    pl = dressed_pipeline(d, 2, 2, seed=5, kind="partial")
    els = pl["r_povm"].elements * 0.99
    els[0] = els[0] + 0.01 * np.eye(els.shape[1])
    tampered = sc.Povm(els)
    res = sc.theorem3_residuals(tampered, pl["ideal"], pl["psi4"], pl["sv"])
    # the (0,0) correlator moves by 0.01*(1/d^2 - 1) on outcome 0
    assert abs(res[0, 0, 0] - 0.01 * (1 - 1 / d**2)) < 1e-12
    assert res.max() > 1e-3


def test_theorem3_residuals_dimension_errors():
    pl = dressed_pipeline(3, 2, 1, seed=6, kind="partial")
    with pytest.raises(sc.SizeError):
        sc.theorem3_residuals(
            pl["r_povm"], pl["ideal"], sc.schmidt_state(pl["sv"]), pl["sv"]
        )
    with pytest.raises(sc.SizeError):
        sc.theorem3_residuals(pl["ideal"], pl["ideal"], pl["psi4"], pl["sv"])
