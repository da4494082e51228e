"""Property tests: perturbed realization and POVM files through cli.main.

Each example takes a valid file, perturbs one to three of its nodes (a
NaN, an infinity, null, text, wrong nesting, a short or ragged list, a
missing key) and runs it through cli.main in process. Whatever the file,
nothing may escape cli.main, every exit code must be a documented one,
a report must be strict JSON, and a `certified` verdict must come with
finite residuals inside the tolerance. The search is derandomized, so
the examples are the same on every run.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steercert as sc
import steercert.cli as cli
from steercert.serialize import array_to_json, realization_to_json

TOL = 1e-7
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)
# A 1e300 entry overflows numpy products on its way to a failed check.
OVERFLOW_OK = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                         "ignore:invalid value:RuntimeWarning")


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
EDITS = ("leaf", "wrap", "unwrap", "shorten", "extend", "drop_key")


def _edit(node, data):
    """node with one edit applied: a leaf, nesting changed, a list cut."""
    edit = data.draw(st.sampled_from(EDITS))
    if edit == "wrap":
        return [node]
    if isinstance(node, list) and node and edit in ("unwrap", "shorten", "extend"):
        return {"unwrap": node[0], "shorten": node[:-1], "extend": node + node[-1:]}[edit]
    if isinstance(node, dict) and node and edit == "drop_key":
        key = data.draw(st.sampled_from(sorted(node)))
        return {k: v for k, v in node.items() if k != key}
    return data.draw(LEAVES)


def _perturb(node, data, depth):
    """node with one descendant, at most depth levels down, edited."""
    if depth and isinstance(node, (list, dict)) and node:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        out = dict(node) if isinstance(node, dict) else list(node)
        out[key] = _perturb(node[key], data, depth - 1)
        return out
    return _edit(node, data)


def _perturbed(blobs, data):
    blob = data.draw(st.sampled_from(blobs))
    for _ in range(data.draw(st.integers(1, 3))):
        blob = _perturb(blob, data, data.draw(st.integers(0, 8)))
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
    return _strict_json(out)


@OVERFLOW_OK
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


@OVERFLOW_OK
@PROPERTY
@given(data=st.data())
def test_perturbed_povm_file_fails_closed(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("povm") / "p.json"
    path.write_text(json.dumps(_perturbed(POVMS, data)))
    _check_exit(*_run(["povm", "check", "--povm", str(path)]))
    _check_exit(*_run(["randomness", "--d", "3", "--povm", str(path)]))
