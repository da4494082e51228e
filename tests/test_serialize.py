"""The [re, im] codec against an entry-by-entry reference."""

import json

import numpy as np
import pytest

import steercert as sc
from steercert.serialize import (
    array_from_json,
    array_to_json,
    realization_from_json,
    realization_to_json,
)


def _reference_decode(rows):
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


def test_codec_is_bit_exact_against_entrywise_reference():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    m[0, :3] = [-0.0, complex(0.0, -0.0), 5e-324 - 1e308j]
    text = json.dumps(array_to_json(m))
    assert text == json.dumps([[[z.real, z.imag] for z in row] for row in m])
    got = array_from_json(json.loads(text), 2)
    want = _reference_decode(json.loads(text))
    assert got.dtype == np.complex128
    assert got.tobytes() == want.tobytes() == m.tobytes()


def test_realization_round_trip_is_bit_exact():
    sv = sc.maximally_entangled(3)
    r = sc.dress_realization(sc.ideal_realization(sv), 2, 2, seed=5)
    back = realization_from_json(json.loads(json.dumps(realization_to_json(r))))
    assert back.state.factor_dims == r.state.factor_dims
    assert back.state.amplitudes.tobytes() == r.state.amplitudes.tobytes()
    for a, b in zip(back.alice_observables, r.alice_observables):
        assert a.tobytes() == b.tobytes()
    for g, h in zip(back.bob_observables, r.bob_observables):
        assert g.operators.tobytes() == h.operators.tobytes()


@pytest.mark.parametrize("data,ndim", [
    ([[1.0, 0.0], [0.0]], 1),          # ragged
    ([[1.0, 0.0, 2.0]], 1),            # not a pair
    ([1.0, 0.0], 1),                   # one axis short
    ([[[1.0, 0.0]]], 1),               # one axis too many
    ([[None, 0.0]], 1),                # null
    ([[float("inf"), 0.0]], 1),        # infinite
    ([["re", 0.0]], 1),                # text
    ([[{}, 0.0]], 1),                  # object
    (5, 2),                            # scalar
])
def test_decoder_rejects_malformed_data(data, ndim):
    with pytest.raises(sc.DomainError):
        array_from_json(data, ndim)
