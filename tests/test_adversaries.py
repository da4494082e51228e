"""No device of tests/adversaries.py is ever `certified`.

Each adversary either has a value at most beta_l_upper, which an LHS
model reaches, or sits off the ideal device by more than any tolerance
certify accepts. certify takes tolerances below min(1, d - beta_l_upper).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steercert as sc

import adversaries as adv


def _room(f):
    """The tolerances certify accepts for f are those in (0, _room(f))."""
    return min(1.0, f.d - sc.lhs_bound_paper_upper(f).value)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_lhs_device_reaches_beta_l_and_fails(d):
    rng = np.random.default_rng(d)
    for sv in (sc.maximally_entangled(d), sc.random_schmidt_vector(d, rng)):
        f = sc.functional_coefficients(sv)
        r = adv.lhs_device(f)
        assert abs(sc.evaluate(f, r) - sc.lhs_bound_exact(f).value) <= 1e-12
        for share in (1e-9, 1e-3, 0.5, 0.999):
            rep = sc.certify(f, r, share * _room(f))
            assert rep.verdict == "failed" and rep.lhs_gap <= 1e-12, (d, share)


def test_mixture_device_fails_at_every_tolerance():
    # alpha = (0.8, 0.6), p = 0.315: value 1.5968 < beta_L = 1.6
    f = sc.functional_coefficients(sc.SchmidtVector(np.array([0.8, 0.6])))
    r = adv.mixture_device(f, 0.315)
    for tol in np.linspace(0.0, 1.0, 101)[1:-1]:
        if tol < _room(f):
            assert sc.certify(f, r, tol).verdict == "failed", tol
        else:
            with pytest.raises(sc.DomainError, match="at or above d - beta_l_upper"):
                sc.certify(f, r, tol)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_relabelled_device_is_at_most_beta_l_and_fails(d):
    rng = np.random.default_rng(40 + d)
    for sv in (sc.maximally_entangled(d), sc.random_schmidt_vector(d, rng)):
        f = sc.functional_coefficients(sv)
        for y in (0, 1):
            for c in range(1, d):
                r = adv.relabelled_device(f, y, c)
                for share in (1e-9, 0.5, 0.999):
                    rep = sc.certify(f, r, share * _room(f))
                    assert rep.lhs_gap <= 0 and rep.verdict == "failed", (d, y, c, share)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_near_miss_inside_the_tolerance_fails_on_its_s_residual(d):
    # The value is within tol of d, so only the self-test residual can
    # tell the mixture from the ideal device.
    rng = np.random.default_rng(50 + d)
    for sv in (sc.maximally_entangled(d), sc.random_schmidt_vector(d, rng)):
        f = sc.functional_coefficients(sv)
        for share in (1e-6, 1e-3, 0.1, 0.5, 0.999):
            tol = share * _room(f)
            rep = sc.certify(f, adv.near_miss_mixture(f, tol, inside=True), tol)
            assert rep.value_gap <= tol and rep.verdict == "failed", (d, share, rep)
            assert [x.split(" ")[0] for x in rep.failures] == ["s_residual"], (d, share, rep)


def _adversary(kind, f, tol, data):
    if kind == "lhs":
        return adv.lhs_device(f)
    if kind == "relabelled":
        return adv.relabelled_device(f, data.draw(st.integers(0, 1)),
                                     data.draw(st.integers(1, f.d - 1)))
    if kind == "lhs_mixture":
        return adv.lhs_level_mixture(f, data.draw(st.floats(0.0, 1.0)))
    if kind == "near_miss":
        return adv.near_miss_mixture(f, tol, inside=data.draw(st.booleans()))
    return {"swapped": adv.swapped_device, "conjugated": adv.conjugated_device}[kind](f)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_no_adversary_is_certified(data):
    d = data.draw(st.integers(2, 5))
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    f = sc.functional_coefficients(sc.SchmidtVector(np.sqrt(weights / np.sum(weights))))
    tol = _room(f) * data.draw(st.floats(1e-6, 0.999))
    # Conjugating the ideal qubit pair (Z, X) leaves it as it is.
    kinds = ["lhs", "lhs_mixture", "near_miss", "swapped", "relabelled"] + ["conjugated"] * (d > 2)
    kind = data.draw(st.sampled_from(kinds))
    rep = sc.certify(f, _adversary(kind, f, tol, data), tol)
    if kind.startswith("lhs") or kind == "relabelled":
        assert rep.lhs_gap <= 1e-12, rep
    assert not rep.certified, (kind, rep)
    assert (rep.extracted_fidelity is None) == (rep.commutation_residual is None), (kind, rep)
    if rep.extracted_fidelity is not None:
        assert 0.0 <= rep.extracted_fidelity <= 1 + 1e-12, (kind, rep)
