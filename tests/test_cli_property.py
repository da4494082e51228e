"""Property tests: perturbed realization and POVM files through cli.main.

Each example takes a valid file, perturbs one to three of its nodes (a
NaN, an infinity, null, text, wrong nesting, a short or ragged list, a
missing key) and runs it through cli.main in process. Whatever the file,
nothing may escape cli.main, every exit code must be a documented one,
a report must be strict JSON, a `certified` verdict must come with
finite residuals inside the tolerance, and no entropy may be reported
for a POVM file that fails `povm check`. A file with one number written
as true or false must exit 2. The search is derandomized, so the
examples are the same on every run.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import steercert as sc
import steercert.cli as cli
from conftest import perturb, set_at
from steercert.serialize import array_to_json, realization_to_json

TOL = 1e-7
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _realization(r, sv):
    blob = realization_to_json(r)
    blob["alpha"] = [float(a) for a in sv.alpha]
    return blob


_SV2, _SV3 = sc.maximally_entangled(2), sc.maximally_entangled(3)
REALIZATIONS = [
    _realization(sc.ideal_realization(_SV2), _SV2),
    _realization(sc.dress_realization(sc.ideal_realization(_SV3), 2, 2, seed=1), _SV3),
]
POVMS = [
    {"elements": array_to_json(sc.partial_povm(_SV3).elements)},
    array_to_json(sc.covariant_povm(3, np.array([1.0, 0.5j, 0.25])).elements),
]

LEAVES = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), None, "x", 1e300, -1, 0, True, [], {}]
)


def _perturbed(blobs, data):
    blob = data.draw(st.sampled_from(blobs))
    for _ in range(data.draw(st.integers(1, 3))):
        blob = perturb(blob, data, data.draw(st.integers(0, 8)), LEAVES)
    return blob


def _run(argv):
    """(exit code, stdout, stderr) of cli.main in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"report holds {token}")

    return json.loads(text, parse_constant=reject)


def _check_exit(code, out, err):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("steercert: error: ")
        return None
    if code == 1 and not out:
        assert err.startswith("steercert: failed: ")
        return None
    return _strict_json(out)


@PROPERTY
@given(data=st.data())
def test_perturbed_realization_fails_closed(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("realization") / "r.json"
    path.write_text(json.dumps(_perturbed(REALIZATIONS, data)))
    rep = _check_exit(*_run(["certify", "--realization", str(path)]))
    if rep is None or rep["verdict"] != "certified":
        return
    residuals = [rep["value_gap"], rep["s_residual"], rep["commutation_residual"],
                 *rep["stabilizer_residuals"],
                 *(p["residual"] for p in rep["projectivity"])]
    assert all(r is not None and np.isfinite(r) and r <= TOL for r in residuals), rep
    assert all(p["projective"] for p in rep["projectivity"]), rep
    assert np.isfinite(rep["ztilde_min_eig"]) and rep["ztilde_min_eig"] > TOL, rep
    assert rep["lhs_gap"] > 0, rep
    assert all(a is not None and a <= TOL for a in rep["alice_residual"]), rep


@PROPERTY
@given(data=st.data())
def test_perturbed_povm_file_fails_closed(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("povm") / "p.json"
    path.write_text(json.dumps(_perturbed(POVMS, data)))
    checked = _run(["povm", "check", "--povm", str(path)])
    _check_exit(*checked)
    entropy = _run(["randomness", "--d", "3", "--povm", str(path)])
    _check_exit(*entropy)
    if checked[0] != 0:
        assert "min_entropy_bits" not in entropy[1], entropy


def _number_paths(node, path=()):
    """The path of every JSON number in node."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for k, v in items for p in _number_paths(v, path + (k,))]
    return [path] if type(node) in (int, float) else []


@PROPERTY
@given(data=st.data())
def test_boolean_in_place_of_a_number_is_usage_error(tmp_path_factory, data):
    blob = data.draw(st.sampled_from(REALIZATIONS + POVMS))
    where = data.draw(st.sampled_from(_number_paths(blob)))
    path = tmp_path_factory.mktemp("boolean") / "f.json"
    path.write_text(json.dumps(set_at(blob, where, data.draw(st.booleans()))))
    if isinstance(blob, dict) and "state" in blob:
        argvs = [["certify", "--realization", str(path)]]
    else:
        argvs = [["povm", "check", "--povm", str(path)],
                 ["randomness", "--d", "3", "--povm", str(path)]]
    for argv in argvs:
        code, out, err = _run(argv)
        assert code == 2 and out == "", (where, argv, code, err)
        assert err.startswith("steercert: error: ") and "Traceback" not in err
