"""End-to-end command line checks, via subprocess or cli.main in process."""

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steercert as sc
import steercert.cli as cli
import steercert.report as rpt
import steercert.serialize as serialize
from conftest import perturb, set_at
from steercert.errors import UsageError
from steercert.serialize import _numbers, array_to_json, realization_to_json


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "steercert.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert sc.__version__ in r.stdout


def test_bounds_qubit_mes():
    r = run_cli("bounds", "--d", "2")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["beta_q"] == 2.0
    assert abs(rep["beta_l_exact"] - np.sqrt(2)) < 1e-9
    assert rep["beta_l_upper"] >= rep["beta_l_exact"] - 1e-7
    assert rep["gap"] > 0
    assert rep["seed"] == 42 and rep["tolerance"] == 1e-7


def test_bounds_custom_alpha():
    r = run_cli("bounds", "--d", "2", "--alpha", "[0.8660254037844386, 0.5]")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert abs(rep["gamma"] - np.sqrt(3) / 2) < 1e-9
    assert abs(rep["beta_l_exact"] - np.sqrt(3)) < 1e-9


def test_bounds_rejects_bad_alpha():
    assert run_cli("bounds", "--d", "2", "--alpha", "[0.5, -0.5]").returncode == 2
    assert run_cli("bounds", "--d", "3", "--alpha", "[0.6, 0.8]").returncode == 2


# sha256 of `bounds --d 3 --alpha "[0.8, 0.6, 1e-15]"` with tool_version blanked
_TINY_ALPHA_BOUNDS = "55cf178d08dc2c7d4eca79479e4c5e7d23ca4ee46a8c8c4a2544ebd1b56d5a07"


def test_bounds_refuses_alpha_whose_reciprocal_overflows(tmp_path):
    out = tmp_path / "bounds.json"
    for tiny in ("1e-160", "1e-300"):
        r = run_cli("bounds", "--d", "3", "--alpha", f"[0.8, 0.6, {tiny}]", "--output", str(out))
        assert r.returncode == 2
        assert r.stdout == "" and not out.exists()
        assert r.stderr == (f"steercert: error: alpha: smallest coefficient {tiny} is too "
                            "small: the sum of 1/alpha_i^2 overflows\n")
    r = run_cli("bounds", "--d", "3", "--alpha", "[0.8, 0.6, 1e-15]")
    assert r.returncode == 0 and r.stderr == ""
    text = r.stdout.replace(f'"tool_version": "{sc.__version__}"', '"tool_version": ""')
    assert hashlib.sha256(text.encode()).hexdigest() == _TINY_ALPHA_BOUNDS


def test_bounds_output_file(tmp_path):
    out = tmp_path / "bounds.json"
    r = run_cli("bounds", "--d", "3", "--output", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    rep = json.loads(out.read_text())
    assert rep["beta_q"] == 3.0


def test_bounds_byte_identical_reruns():
    a = run_cli("bounds", "--d", "3", "--seed", "7")
    b = run_cli("bounds", "--d", "3", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_certify_roundtrip(tmp_path):
    sv = sc.maximally_entangled(3)
    dressed = sc.dress_realization(sc.ideal_realization(sv), 2, 2, seed=4)
    blob = realization_to_json(dressed)
    blob["alpha"] = [float(a) for a in sv.alpha]
    path = tmp_path / "realization.json"
    path.write_text(json.dumps(blob))

    r = run_cli("certify", "--realization", str(path))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "certified"

    # mismatched alpha through the flag flips the verdict and the exit code
    r = run_cli("certify", "--realization", str(path), "--alpha", "[0.8,0.36,0.48]")
    assert r.returncode == 1
    assert json.loads(r.stdout)["verdict"] == "failed"


# (Schmidt weights, junk dim, Eve dim, dressing seed, Bob's observables
# swapped, sha256 of the certify report with tool_version blanked)
_DRESSED_CERTIFY_REPORTS = [
    ((4, 3, 2, 1), 2, 3, 11, False,
     "989ea75c4711b7a2674c8d251dd4a7f3c705e2ad7d789087d623ce603218f157"),
    ((6, 5, 4, 3, 2, 1), 1, 4, 5, False,
     "e52d7ee8543134c659c79be827233c3724dc3dda867aa75b7424e60db1c59bfd"),
    ((5, 1, 3, 2, 4), 3, 2, 8, True,
     "c065828afb95f7b20bbaf3cf4c1274bb5333042a8d55b2fc114579b8df2e7bc0"),
    ((8, 7, 6, 5, 4, 3, 2, 1), 2, 2, 3, True,
     "02f99f3bc2b2afb9a04fe1b4e610f589da0422d67f6313cf2c0629fa88a6a69a"),
]


@pytest.mark.parametrize("weights, junk, eve, seed, swapped, digest", _DRESSED_CERTIFY_REPORTS)
def test_certify_reports_of_dressed_devices_with_eve_are_pinned(
        tmp_path, capsys, weights, junk, eve, seed, swapped, digest):
    # d >= 4 with an Eve register and non-zero delta_k: every residual and
    # the value keep their bits, signed zeros included
    alpha = np.sqrt(np.array(weights, dtype=float) / sum(weights))
    r = sc.dress_realization(sc.ideal_realization(sc.SchmidtVector(alpha)), junk, eve, seed=seed)
    blob = {**realization_to_json(r), "alpha": alpha.tolist()}
    if swapped:
        blob["bob_observables"].reverse()
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["certify", "--realization", str(path)]) == (1 if swapped else 0)
    text = capsys.readouterr().out.replace(f'"tool_version": "{sc.__version__}"',
                                           '"tool_version": ""')
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_certify_reports_lhs_gap_and_alice_residual(tmp_path, capsys):
    sv = sc.SchmidtVector(np.array([0.8, 0.6]))
    beta_l = sc.lhs_bound_paper_upper(sc.functional_coefficients(sv)).value
    ideal = sc.ideal_realization(sv)
    # Z (x) 1 and X (x) 1 on an Alice with a spare level are not the trusted pair
    amps = np.kron(sc.schmidt_state(sv).amplitudes.reshape(2, 2), [[1.0], [0.0]])
    wide = sc.Realization(sc.Ket(amps.reshape(4, 2), (4, 2)),
                          [np.kron(a, np.eye(2)) for a in ideal.alice_observables],
                          ideal.bob_observables)
    path = tmp_path / "dev.json"
    for r, code, alice in ((sc.dress_realization(ideal, 2, 2, seed=1), 0, [0.0, 0.0]),
                           (wide, 1, [None, None])):
        path.write_text(json.dumps({**realization_to_json(r), "alpha": [0.8, 0.6]}))
        assert cli.main(["certify", "--realization", str(path)]) == code
        rep = json.loads(capsys.readouterr().out)
        assert rep["lhs_gap"] == rep["value"] - beta_l
        assert rep["alice_residual"] == alice
    # the wide device reaches d, well above beta_l_upper: only Alice fails it
    assert rep["lhs_gap"] > 0.39 and rep["failures"][0].startswith("Alice observable 0")


def test_certify_refuses_a_tolerance_an_lhs_model_passes(tmp_path, capsys):
    # alpha = (0.8, 0.6) has beta_L = 1.6. The mixture (1-p)|psi_alpha><psi_alpha|
    # + p|11><11| at p = 0.315, purified by Eve, has value 1.5968 < beta_L.
    sv, p = sc.SchmidtVector(np.array([0.8, 0.6])), 0.315
    ideal = sc.ideal_realization(sv)
    psi = np.zeros((2, 2, 2), dtype=complex)
    psi[:, :, 0] = np.sqrt(1 - p) * sc.schmidt_state(sv).amplitudes.reshape(2, 2)
    psi[1, 1, 1] = np.sqrt(p)
    mixture = sc.Realization(sc.Ket(psi.ravel(), (2, 2, 2)), ideal.alice_observables,
                             ideal.bob_observables)
    honest = sc.dress_realization(ideal, 2, 2, seed=6)
    paths = {}
    for name, r in (("mixture", mixture), ("honest", honest)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**realization_to_json(r), "alpha": [0.8, 0.6]}))
    for tol, code in (("0.999", 2), ("0.5", 2), ("0.4", 2), ("0.39", 1)):
        assert cli.main(["certify", "--realization", str(paths["mixture"]),
                         "--tolerance", tol]) == code, tol
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert "at or above d - beta_l_upper" in captured.err
        else:
            assert json.loads(captured.out)["verdict"] == "failed"
    assert cli.main(["certify", "--realization", str(paths["honest"]), "--tolerance", "0.39"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "certified"


def test_certify_missing_alpha(tmp_path):
    r0 = sc.ideal_realization(sc.maximally_entangled(2))
    path = tmp_path / "r.json"
    path.write_text(json.dumps(realization_to_json(r0)))
    assert run_cli("certify", "--realization", str(path)).returncode == 2


def test_certify_file_errors(tmp_path):
    assert run_cli("certify", "--realization", str(tmp_path / "nope.json")).returncode == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("certify", "--realization", str(bad)).returncode == 2


def test_certify_nan_amplitude_is_usage_error(tmp_path):
    ideal = sc.ideal_realization(sc.maximally_entangled(2))
    dressed = sc.dress_realization(
        sc.ideal_realization(sc.maximally_entangled(3)), 2, 2, seed=4
    )
    for name, r0, d in (("undressed", ideal, 2), ("dressed", dressed, 3)):
        blob = realization_to_json(r0)
        blob["alpha"] = [1.0 / np.sqrt(d)] * d
        blob["state"]["amplitudes"][0] = [float("nan"), 0.0]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(blob))
        r = run_cli("certify", "--realization", str(path))
        assert r.returncode == 2, (name, r.stderr)
        assert r.stdout == "" and "Traceback" not in r.stderr


def test_povm_file_with_nan_is_usage_error(tmp_path):
    out = tmp_path / "povm.json"
    run_cli("povm", "build", "--kind", "covariant", "--d", "3", "--output", str(out))
    rep = json.loads(out.read_text())
    rep["elements"][2][1][0] = [float("nan"), 0.0]
    out.write_text(json.dumps(rep))
    for args in (("povm", "check", "--povm", str(out)),
                 ("randomness", "--d", "3", "--povm", str(out))):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert r.stdout == "" and "Traceback" not in r.stderr


def test_non_finite_report_is_not_written(monkeypatch, capsys):
    def nan_bounds(config):
        code, report = cli._run_bounds(config)
        return code, {**report, "beta_l_upper": float("nan")}

    monkeypatch.setitem(cli._HANDLERS, "bounds", nan_bounds)
    assert cli.main(["bounds", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "strict JSON" in captured.err


def test_seed_out_of_range_is_usage_error():
    for args in (("bounds", "--d", "3", "--seed", "-1"),
                 ("bell3", "--restarts", "2", "--seed", "-1"),
                 ("bounds", "--d", "2", "--seed", str(2**63))):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert "--seed" in r.stderr and "Traceback" not in r.stderr


_D_ARGVS = {
    "bounds": ("bounds",),
    "randomness": ("randomness",),
    "povm-partial": ("povm", "build", "--kind", "partial"),
    "povm-covariant": ("povm", "build", "--kind", "covariant"),
}


@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize("prefix", _D_ARGVS.values(), ids=_D_ARGVS.keys())
def test_d_below_two_is_usage_error(prefix, d):
    # In a fresh process, so a numpy warning or a traceback would show.
    r = run_cli(*prefix, "--d", str(d))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr == f"steercert: error: --d: need d >= 2, got {d}\n"


def test_tolerance_out_of_range_is_usage_error(monkeypatch, capsys):
    def must_not_run(config):
        raise AssertionError("computation started")

    monkeypatch.setitem(cli._HANDLERS, "bounds", must_not_run)
    for tol in ("nan", "-1", "inf"):
        assert cli.main(["bounds", "--d", "3", "--tolerance", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tolerance" in captured.err


def test_certify_one_bob_observable_is_usage_error(tmp_path):
    sv = sc.maximally_entangled(3)
    r0 = sc.ideal_realization(sv)
    short = sc.Realization(r0.state, r0.alice_observables, r0.bob_observables[:1])
    blob = realization_to_json(short)
    blob["alpha"] = [float(a) for a in sv.alpha]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(blob))
    r = run_cli("certify", "--realization", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "Traceback" not in r.stderr


def _realization_blob():
    sv = sc.maximally_entangled(2)
    blob = realization_to_json(sc.ideal_realization(sv))
    blob["alpha"] = [float(a) for a in sv.alpha]
    return blob


def _povm_blob(tmp_path):
    path = tmp_path / "built.json"
    assert cli.main(["povm", "build", "--kind", "partial", "--d", "3",
                     "--output", str(path)]) == 0
    return {"elements": json.loads(path.read_text())["elements"]}


_BAD_REALIZATIONS = {
    "null_amplitude": lambda b: set_at(b, ("state", "amplitudes", 0), [None, 0.0]),
    "no_state": lambda b: {k: v for k, v in b.items() if k != "state"},
    "ragged_bob_operator": lambda b: set_at(
        b, ("bob_observables", 0, "operators", 1),
        b["bob_observables"][0]["operators"][1][:-1],
    ),
    "top_level_list": lambda b: [b],
    "text_factor_dims": lambda b: set_at(b, ("state", "factor_dims"), ["x", 2]),
    "text_alpha": lambda b: set_at(b, ("alpha",), ["x", 1]),
    "not_utf8": lambda b: b"\xff\xfe{}",
    "deep_nesting": lambda b: b"[" * 5000 + b"]" * 5000,
    "bool_alpha": lambda b: set_at(b, ("alpha",), [True, 1e-300]),
    # Read as 1.0, this is the unit product state |00>: a failed check.
    "true_amplitude": lambda b: set_at(b, ("state", "amplitudes"),
                                       [[True, 0.0]] + [[0.0, 0.0]] * 3),
    # json.dumps writes NaN and Infinity literals, which strict JSON lacks.
    "nan_literal": lambda b: set_at(b, ("state", "amplitudes", 0), [float("nan"), 0.0]),
    "infinity_literal": lambda b: set_at(b, ("alice_observables", 0, 0, 0),
                                         [float("inf"), 0.0]),
    # A string value or a null sends the whole file to the walk; a list or
    # object leaf leaves only its own array to it. Either way the message is
    # the walk's (_WALK_ERRORS).
    "text_amplitude": lambda b: set_at(b, ("state", "amplitudes", 0), ["0.5", 0.0]),
    "object_bob_pair": lambda b: set_at(b, ("bob_observables", 0, "operators", 1, 0, 0),
                                        {"0.5": 0, "1.5": 0}),
    "list_leaf": lambda b: set_at(b, ("state", "amplitudes", 0), [[0.5], 0.0]),
    "null_bob_entry": lambda b: set_at(b, ("bob_observables", 1, "operators", 1, 0, 1),
                                       [0.0, None]),
}
_WALK_ERRORS = {
    "text_amplitude": "state.amplitudes: an entry is not a JSON number",
    "object_bob_pair": "bob_observables[0].operators: not a rectangular JSON array of depth 4",
    "list_leaf": "state.amplitudes: an entry is not a JSON number",
    "null_bob_entry": "bob_observables[1].operators: an entry is not a JSON number",
}
_BAD_POVMS = {
    "ragged": lambda p: set_at(p, ("elements", 1), p["elements"][1][:-1]),
    "null_entry": lambda p: set_at(p, ("elements", 0, 0, 0), [None, 0.0]),
    "number": lambda p: 5,
    "text_entry": lambda p: set_at(p, ("elements", 0, 0, 0),
                                   [str(p["elements"][0][0][0][0]), 0.0]),
    "bool_entry": lambda p: set_at(p, ("elements",),
                                   np.asarray(p["elements"]).astype(bool).tolist()),
    # Read as 0.0, this is the entry's own value, and the POVM passes.
    "lone_false": lambda p: set_at(p, ("elements", 0, 0, 1), [False, 0.0]),
    "no_elements_key": lambda p: {"nope": 1},
    "nan_literal": lambda p: set_at(p, ("elements", 0, 0, 0), [float("nan"), 0.0]),
    "infinity_literal": lambda p: set_at(p, ("elements", 1, 0, 0), [0.0, -float("inf")]),
    # Past int()'s 4300-digit limit, and past the largest double.
    "overlong_integer": lambda p: b"[" + b"1" * 5000 + b"]",
}
_MALFORMED = (
    [("certify", name, make) for name, make in _BAD_REALIZATIONS.items()]
    + [(cmd, name, make) for cmd in ("povm check", "randomness")
       for name, make in _BAD_POVMS.items()]
)


@pytest.mark.parametrize(
    "command,name,make", _MALFORMED, ids=[f"{c}-{n}" for c, n, _ in _MALFORMED]
)
def test_malformed_file_is_usage_error(tmp_path, capsys, command, name, make):
    base = _realization_blob() if command == "certify" else _povm_blob(tmp_path)
    content = make(base)
    path = tmp_path / f"{name}.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    argv = {
        "certify": ["certify", "--realization", str(path)],
        "povm check": ["povm", "check", "--povm", str(path)],
        "randomness": ["randomness", "--d", "3", "--povm", str(path)],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("steercert: error: ")
    if name == "no_elements_key":
        assert "missing key 'elements'" in captured.err
    if name.endswith("_literal"):
        assert "malformed JSON" in captured.err
    if command == "certify" and name in _WALK_ERRORS:
        assert captured.err == f"steercert: error: {_WALK_ERRORS[name]}\n"


_FILE_ARGVS = {
    "certify": ("certify", "--realization"),
    "povm check": ("povm", "check", "--povm"),
    "randomness": ("randomness", "--d", "3", "--povm"),
}
_HOSTILE_FILES = {
    "nested_200000": b"[" * 200_000 + b"]" * 200_000,
    "closed_before_opened": b"]" * 200_000 + b"[" * 200_000,
    # An unterminated string of escaped quotes: a backtracking string scan
    # restarts at every quote and takes quadratic time.
    "escaped_quotes": b'"' + b'\\"' * 500_000,
    # A million rows that pass the skeleton check up to the end: a ragged
    # last row, or a digit too many in it, which the skeleton does not show.
    "ragged_last_row": b"[" + b"[0.5]," * 1_000_000 + b"[0.5,0.5]]",
    "digit_after_last_row": b"[" + b"[0.5]," * 1_000_000 + b"[0.5]5]",
}


@pytest.mark.parametrize("name", _HOSTILE_FILES)
@pytest.mark.parametrize("command", _FILE_ARGVS)
def test_hostile_file_exits_2_in_a_fresh_process(tmp_path, command, name):
    # A parser that overflows its stack kills the process by a signal.
    path = tmp_path / f"{name}.json"
    path.write_bytes(_HOSTILE_FILES[name])
    r = run_cli(*_FILE_ARGVS[command], str(path), timeout=120)
    assert r.returncode == 2, r.stderr[-300:]
    assert r.stdout == "" and r.stderr.startswith("steercert: error: ")


def test_file_of_many_small_arrays_exits_2_in_a_fresh_process(tmp_path):
    # Past _MAX_FLAT_KEYS colons the file goes to orjson whole: a search for
    # flat arrays per key took seconds on this file.
    path = tmp_path / "many_keys.json"
    path.write_text("{" + ", ".join(f'"k{i}": [[0.5]]' for i in range(200_000)) + "}")
    r = run_cli("povm", "check", "--povm", str(path), timeout=120)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "steercert: error: missing key 'elements'\n"


def _nesting(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(_nesting, value), default=0)
    return 0


# Strings hold brackets, quotes, escapes, colons and the literals' letters,
# which the scan must not count outside strings.
_BRACKETY = (st.text(alphabet='[]{}"\\a\n\u00e9:tfn')
             | st.sampled_from(["true", "null", ":", '\\"', '":false,"']))
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False, allow_infinity=False) | _BRACKETY)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_BRACKETY, kids, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(value=_JSON_VALUES, ascii_only=st.booleans())
def test_json_depth_is_the_nesting_of_valid_json(value, ascii_only):
    text = json.dumps(value, ensure_ascii=ascii_only, allow_nan=False).encode()
    assert serialize._json_scan(text) == _nesting(value), text


@pytest.mark.parametrize("text,depth", [
    (b'"[[[', 0),
    (b"]]][[", 0),
    (b'["\\"]]]', 1),
])
def test_json_depth_of_malformed_text(text, depth):
    assert serialize._json_scan(text) == depth


def test_json_depth_of_a_realization_file():
    assert serialize._json_scan(json.dumps(_realization_blob()).encode()) == 7
    assert serialize._MAX_DEPTH >= 7


_HARD_FLOATS = (
    "5e-324",
    "2.2250738585072011e-308",
    "0.1000000000000000055511151231257827021181583404541015625",
    "-0.0",
)


def _load_both(path, text):
    """The file loader's value of text and the json module's, as float64 bits."""
    path.write_text(text)
    loaded, expected = serialize._load_json_file(str(path)), json.loads(text)
    return (np.array(loaded, dtype=np.float64).view(np.int64).tolist(),
            np.array(expected, dtype=np.float64).view(np.int64).tolist())


def test_loader_reads_hard_floats_bit_for_bit(tmp_path):
    text = "[" + ", ".join(_HARD_FLOATS) + "]"
    loaded, expected = _load_both(tmp_path / "hard.json", text)
    assert loaded == expected


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=32),
       fmt=st.sampled_from(["%r", "%.17g", "%.25e", "%.40g"]))
def test_loader_reads_floats_bit_for_bit(tmp_path_factory, values, fmt):
    text = "[" + ", ".join(fmt % v for v in values) + "]"
    loaded, expected = _load_both(tmp_path_factory.getbasetemp() / "floats.json", text)
    assert loaded == expected, text


def test_loader_reads_integers_below_2_to_64_exactly(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(f"[{-2**63}, {2**64 - 1}, {2**64}]")
    small, large, huge = serialize._load_json_file(str(path))
    assert (small, large) == (-2**63, 2**64 - 1)
    assert type(huge) is float and huge == float(2**64)


def test_povm_file_with_integer_entries_reads_bit_for_bit(tmp_path):
    ints = [[[[1, 0], [2**53 + 1, -3]], [[-2**63, 0], [2**64 - 1, 7]]]]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"elements": ints}))
    got = serialize.load_povm_file(str(path)).elements.view(np.int64).ravel()
    assert got.tolist() == np.array(ints, np.float64).view(np.int64).ravel().tolist()


def test_loader_restores_the_collector(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text("[[1.0, 2.0]]")
    bad.write_text("[NaN]")
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert serialize._load_json_file(str(good)).tolist() == [[1.0, 2.0]]
            assert gc.isenabled() == enabled
            with pytest.raises(UsageError, match="malformed JSON"):
                serialize._load_json_file(str(bad))
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_file_readers_build_arrays_with_the_collector_paused(monkeypatch, tmp_path, capsys):
    realization, no_alpha, povm = (tmp_path / n for n in ("r.json", "r0.json", "p.json"))
    realization.write_text(json.dumps(_realization_blob()))
    no_alpha.write_text(json.dumps({k: v for k, v in _realization_blob().items() if k != "alpha"}))
    assert cli.main(["povm", "build", "--kind", "partial", "--d", "3", "--output", str(povm)]) == 0
    paused = []
    for name in ("realization_from_json", "povm_from_json"):
        def reader(data, _original=getattr(serialize, name), **kwargs):
            paused.append(not gc.isenabled())
            return _original(data, **kwargs)
        monkeypatch.setattr(serialize, name, reader)
    runs = [
        (["certify", "--realization", str(realization)], 0),
        (["certify", "--realization", str(no_alpha)], 2),
        (["povm", "check", "--povm", str(povm)], 0),
        (["randomness", "--d", "3", "--povm", str(povm)], 0),
        (["povm", "check", "--povm", str(realization)], 2),
    ]
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in runs:
                assert cli.main(argv) == code, argv
                assert gc.isenabled() == enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert len(paused) == 2 * len(runs) and all(paused)


def _bits(value):
    """value as plain lists, each float as its bit pattern: equal iff bit-equal."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if type(value) is float:
        return ("float", struct.unpack("<q", struct.pack("<d", value))[0])
    return (type(value).__name__, value)


def _walks(value) -> list:
    """What the typed walk makes of value and of each member, at depths 1 to 4."""
    out = []
    for v in [value, *(value.values() if isinstance(value, dict) else ())]:
        for depth in range(1, 5):
            try:
                out.append(_numbers(v, depth, "v").view(np.int64).tolist())
            except sc.DomainError as e:
                out.append(str(e))
    return out


def _read_both(path, raw: bytes):
    """The file reader's result on raw and orjson's, each with the walks."""
    path.write_bytes(raw)
    try:
        value = serialize._load_json_file(str(path))
    except UsageError as e:
        new = str(e)
    else:
        new = (_bits(value), _walks(value))
    try:
        value = orjson.loads(raw)
    except orjson.JSONDecodeError as e:
        old = f"{path}: malformed JSON ({e.msg})"
    else:
        old = (_bits(value), _walks(value))
    return new, old


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = _FLOATS | st.integers(-2**70, 2**70) | st.sampled_from([-0.0, 2**53 + 1, 1e-7])


@st.composite
def _number_arrays(draw):
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = math.prod(shape)
    flat = draw(st.lists(draw(st.sampled_from([_FLOATS, _NUMBERS])), min_size=n, max_size=n))
    return np.array(flat, dtype=object).reshape(shape).tolist()


_KEYS = st.text(alphabet="[]{}:,e1 a", max_size=4)
_DOCUMENTS = _number_arrays() | st.dictionaries(
    _KEYS,
    _number_arrays() | st.builds(lambda a: {"operators": a}, _number_arrays())
    | st.lists(_NUMBERS, max_size=3) | st.none() | st.booleans() | _KEYS,
    max_size=3,
)


def _digits17(value) -> str:
    """value as JSON with every float written by %.17g."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_digits17(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_digits17, value)) + "]"
    return "%.17g" % value if type(value) is float else json.dumps(value)


_FORMATS = {
    "dumps": json.dumps,
    "indent": lambda v: json.dumps(v, indent=2),
    "compact": lambda v: json.dumps(v, separators=(",", ":")),
    "tabs": lambda v: json.dumps(v, separators=(",\t", ":\r\n")).replace("[", "[\n "),
    "digits17": _digits17,
}


def _mutate(raw: bytes, mutation) -> bytes:
    """raw with one bracket, comma, digit or quote dropped or added."""
    if mutation is None:
        return raw
    kind, where = mutation
    if kind == "drop":
        at = [i for i, b in enumerate(raw) if b in b'[],"0123456789']
        if not at:
            return raw
        i = at[int(where * len(at)) % len(at)]
        return raw[:i] + raw[i + 1:]
    i = int(where * (len(raw) + 1)) % (len(raw) + 1)
    return raw[:i] + kind.encode() + raw[i:]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(doc=_DOCUMENTS, fmt=st.sampled_from(sorted(_FORMATS)),
       mutation=st.none() | st.tuples(st.sampled_from(["drop", "[", "]", ",", "7", '"']),
                                      st.floats(0, 1)))
def test_file_reader_matches_orjson_and_the_walk(tmp_path_factory, doc, fmt, mutation):
    raw = _mutate(_FORMATS[fmt](doc).encode(), mutation)
    new, old = _read_both(tmp_path_factory.getbasetemp() / "doc.json", raw)
    assert new == old, raw


_NAMED_FILES = {
    "ragged": b"[[1,2],[3]]",
    "empty_row": b"[[]]",
    "empty_entry": b"[[1,,2]]",
    "no_comma": b"[[1 2]]",
    "leading_zero": b"[[01]]",
    "bare_point": b"[[1.]]",
    "bare_minus": b"[[-]]",
    "overflow": b"[[1e400]]",
    "duplicate_keys": b'{"a": [[1.5, 2.5]], "a": [[3.5], [4.5]]}',
    "odd_keys": b'{"[": [[0.5]], "a:b": [[1.5, 2.5]], "12": [[-0.0]], "e": [[1e-7]], "1e5:[": [[2.5]]}',
    # Numbers out of place: before an opener, after a closer, outside the array.
    "number_before_opener": b"[[1.5,2.5],-3.5[,4.5]]",
    "number_after_closer": b"[[1.5,2.5]3,[4.5,5.5]]",
    "number_before_array": b'{"a": 5 [[1.5]]}',
    "number_after_array": b'{"a": [[1.5]] 5}',
    "many_keys": b"{" + b", ".join(b'"k%d": [[%d.5]]' % (i, i) for i in range(100)) + b"}",
}


@pytest.mark.parametrize("name", _NAMED_FILES)
def test_file_reader_matches_orjson_on_named_cases(tmp_path, name):
    new, old = _read_both(tmp_path / f"{name}.json", _NAMED_FILES[name])
    assert new == old


def test_file_reader_reads_arrays_of_floats_flat(tmp_path):
    path = tmp_path / "keys.json"
    path.write_bytes(_NAMED_FILES["duplicate_keys"][:-1] + b', "n": [[1.5, 2]], "v": [0.5]}')
    value = serialize._load_json_file(str(path))
    assert type(value["a"]) is np.ndarray and value["a"].tolist() == [[3.5], [4.5]]
    # An integer, or a number without a point, leaves its array to the walk;
    # so does a depth of one.
    assert value["n"] == [[1.5, 2]] and value["v"] == [0.5]
    path.write_text(json.dumps(_realization_blob()))
    value = serialize._load_json_file(str(path))
    assert type(value["alice_observables"]) is np.ndarray
    assert type(value["bob_observables"][1]["operators"]) is np.ndarray


def test_file_reader_reads_flat_beside_strings_and_literals_up_to_a_key_bound(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_bytes(b'{"s": "[[2.5]]", "a": [[0.5]], "t": [true, null], "u": "\\u0000"}')
    # A backslash sends the whole file to orjson; strings and literals do not.
    assert type(serialize._load_json_file(str(path))["a"]) is list
    path.write_bytes(b'{"s": "[[2.5]]", "a": [[0.5]], "t": [true, null], "u": "0"}')
    value = serialize._load_json_file(str(path))
    assert type(value["a"]) is np.ndarray
    assert (value["s"], value["t"], value["u"]) == ("[[2.5]]", [True, None], "0")
    path.write_bytes(_NAMED_FILES["many_keys"])
    assert type(serialize._load_json_file(str(path))["k0"]) is list


@pytest.mark.parametrize("depth", [63, 64])
def test_array_at_the_depth_limit_under_an_object(tmp_path, depth):
    path = tmp_path / "deep.json"
    path.write_bytes(b'{"a": ' + b"[" * depth + b"0.5" + b"]" * depth + b"}")
    if depth < serialize._MAX_DEPTH:
        assert serialize._load_json_file(str(path))["a"].shape == (1,) * depth
    else:
        with pytest.raises(UsageError, match="nested deeper than 64"):
            serialize._load_json_file(str(path))


def test_boolean_is_not_a_number(capsys):
    for argv in (["randomness", "--d", "2", "--alpha", "[true, 1e-300]",
                  "--povm", "builtin:covariant"],
                 ["povm", "build", "--kind", "covariant", "--d", "2",
                  "--fiducial", "[true, 0.5]"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("steercert: error: ")


def test_deeply_nested_flag_is_usage_error(capsys):
    deep = "[" * 100_000
    for argv in (["bounds", "--d", "2", "--alpha", deep],
                 ["povm", "build", "--kind", "covariant", "--d", "2", "--fiducial", deep]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("malformed JSON (nested deeper than 64)\n")


@pytest.mark.parametrize("text", ["[NaN, 0.5]", "[0.6, \udcff]", "[0.6, \ud800]"])
@pytest.mark.parametrize("argv", [["bounds", "--d", "2", "--alpha"],
                                  ["povm", "build", "--kind", "covariant", "--d", "2",
                                   "--fiducial"]])
def test_flag_is_strict_json(capsys, argv, text):
    # A lone surrogate is how Python decodes a byte of argv that is not UTF-8.
    assert cli.main(argv + [text]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("steercert: error: ") and "malformed JSON" in captured.err


def test_options_a_subcommand_does_not_take_are_usage_errors():
    for args in (("bounds", "--d", "2", "--restarts", "3"),
                 ("certify", "--realization", "r.json", "--format", "csv")):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert "unrecognized arguments" in r.stderr and r.stdout == ""


@pytest.mark.parametrize("d", [512, 1024])
def test_bounds_at_large_d(capsys, d):
    # delta_{d-k} = conj(delta_k) must hold to 1e-12 however large k(d-k) is
    assert cli.main(["bounds", "--d", str(d)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["d"] == d and rep["gap"] > 0


@pytest.mark.parametrize("module", ["scipy", "orjson", "jsonschema"])
def test_cli_import_leaves_module_out(module):
    code = f"import sys, steercert.cli; print({module!r} in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_povm_build_partial():
    r = run_cli("povm", "build", "--kind", "partial", "--d", "3")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["validation"]["passed"]
    assert rep["extremality"]["extremal"]
    assert rep["extremality"]["gram_rank"] == 9
    assert len(rep["elements"]) == 9


def test_povm_build_covariant_real_fiducial_fails():
    r = run_cli(
        "povm", "build", "--kind", "covariant", "--d", "2",
        "--fiducial", "[[0.9238795325112867,0],[0.3826834323650898,0]]",
    )
    assert r.returncode == 1
    assert "rank 3" in r.stderr


@pytest.mark.filterwarnings("error")
def test_povm_build_covariant_fiducial_of_any_scale(capsys):
    for fiducial in ("[3e200, 5e200, 7e200]", "[3e-170, 5e-170, 7e-170]",
                     "[3e-13, 5e-13, 7e-13]", "[0.3, 0.5, 0.7]"):
        argv = ["povm", "build", "--kind", "covariant", "--d", "3", "--fiducial", fiducial]
        assert cli.main(argv) == 0, fiducial
        assert json.loads(capsys.readouterr().out)["extremality"]["extremal"]
    assert cli.main(["povm", "build", "--kind", "covariant", "--d", "3",
                     "--fiducial", "[0, 0, 0]"]) == 2
    assert capsys.readouterr().err == "steercert: error: fiducial vector is zero\n"
    # an empty flag is read, not taken for an absent one
    assert cli.main(["povm", "build", "--kind", "covariant", "--d", "3", "--fiducial", ""]) == 2
    assert capsys.readouterr().err.startswith("steercert: error: --fiducial: malformed JSON")


def test_povm_build_refuses_a_flag_its_kind_does_not_read(capsys):
    for kind, flag, value in (("partial", "--fiducial", "[1, 2, 3]"),
                              ("partial", "--fiducial", "garbage"),
                              ("covariant", "--alpha", "[0.8, 0.36, 0.48]")):
        assert cli.main(["povm", "build", "--kind", kind, "--d", "3", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"steercert: error: {flag}: --kind {kind} does not read it\n"


def test_povm_build_check_pipeline(tmp_path):
    out = tmp_path / "povm.json"
    r = run_cli("povm", "build", "--kind", "covariant", "--d", "4", "--seed", "11",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    r = run_cli("povm", "check", "--povm", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["extremality"]["gram_rank"] == 16


def test_covariant_build_solves_each_eigenproblem_once(monkeypatch, capsys):
    calls = []
    for name in ("eigvalsh", "svd"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _solve=solve, _name=name, **k:
                            calls.append(_name) or _solve(*a, **k))
    assert cli.main(["povm", "build", "--kind", "covariant", "--d", "4", "--seed", "11"]) == 0
    assert sorted(calls) == ["eigvalsh", "svd"]
    monkeypatch.undo()
    # the report says what the full test says of the written elements
    rep = json.loads(capsys.readouterr().out)
    pairs = np.array(rep["elements"])
    validation, extremality, _ = cli._povm_reports(sc.Povm(pairs[..., 0] + 1j * pairs[..., 1]),
                                                   rep["tolerance"])
    assert (_plain(validation), extremality) == (rep["validation"], rep["extremality"])


def _gaussian_draws(d, seed, n):
    """The first n complex Gaussian fiducials the generator of seed draws."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(n)]


@pytest.mark.parametrize("d,seed",
                         [(4, 1361), (4, 1587), (8, 67), (8, 938), (10, 36), (12, 652)])
def test_seeded_covariant_draws_again_past_a_fiducial_that_fails_extremality(
        tmp_path, d, seed):
    first, second = _gaussian_draws(d, seed, 2)
    with pytest.raises(sc.NotExtremalError):
        sc.covariant_povm(d, first)
    out = tmp_path / "povm.json"
    argv = ["--d", str(d), "--seed", str(seed), "--output", str(out)]
    assert cli.main(["povm", "build", "--kind", "covariant", *argv]) == 0
    pairs = np.array(json.loads(out.read_text())["elements"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1],
                          sc.covariant_povm(d, second).elements)
    if d == 8:
        assert cli.main(["randomness", "--povm", "builtin:covariant", *argv]) == 0


def test_seeded_covariant_keeps_a_first_draw_that_passes():
    kept = 0
    for d in range(3, 13):
        for seed in range(51):
            try:
                want = sc.covariant_povm(d, _gaussian_draws(d, seed, 1)[0])
            except sc.NotExtremalError:
                continue  # drawn again, as in the test above
            got = cli._seeded_covariant(argparse.Namespace(d=d, seed=seed))
            assert np.array_equal(got.elements, want.elements), (d, seed)
            kept += 1
    assert kept >= 500


def test_seeded_covariant_gives_up_after_its_cap(monkeypatch, capsys):
    def never(d, nu):
        raise sc.NotExtremalError("covariant orbit has Gram rank 3 < 4", rank=3, expected=4)

    monkeypatch.setattr(cli, "covariant_povm", never)
    assert cli.main(["povm", "build", "--kind", "covariant", "--d", "2"]) == 1
    assert capsys.readouterr().err == "steercert: failed: covariant orbit has Gram rank 3 < 4\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["bounds"], ["randomness"],
                                  ["povm", "build", "--kind", "partial"]])
def test_alpha_whose_square_overflows_exits_2(capsys, argv):
    assert cli.main([*argv, "--d", "2", "--alpha", "[1e200, 1e200]"]) == 2
    assert capsys.readouterr().err == ("steercert: error: alpha: coefficient 1e+200 is above 1, "
                                       "so ||alpha|| is not 1\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("part,message", [
    ("alice", "Alice observable 0 has an entry of modulus 1.000e+200, so it is not unitary"),
    ("bob", "B_1 has an entry of modulus 8.345e+199, so ||B_1||_op > 1"),
    ("state", "ket amplitude of modulus 5.055e+199 is above 1, so the norm is not 1"),
])
def test_device_entries_whose_squares_overflow_exit_2(tmp_path, capsys, part, message):
    sv = sc.SchmidtVector(np.array([0.8, 0.6]))
    dev = realization_to_json(sc.dress_realization(sc.ideal_realization(sv), 2, 2, seed=1))
    huge = {"alice": lambda: dev["alice_observables"][0],
            "bob": lambda: dev["bob_observables"][0]["operators"][1],
            "state": lambda: dev["state"]["amplitudes"]}[part]()
    huge[:] = (np.array(huge) * 1e200).tolist()
    path = tmp_path / "dev.json"
    path.write_text(json.dumps({**dev, "alpha": [0.8, 0.6]}))
    assert cli.main(["certify", "--realization", str(path)]) == 2
    assert capsys.readouterr().err == f"steercert: error: {message}\n"


def test_povm_check_catches_tamper(tmp_path):
    out = tmp_path / "povm.json"
    run_cli("povm", "build", "--kind", "partial", "--d", "3", "--output", str(out))
    rep = json.loads(out.read_text())
    rep["elements"][0][0][0] = [0.5, 0.0]  # break completeness
    out.write_text(json.dumps(rep))
    r = run_cli("povm", "check", "--povm", str(out))
    assert r.returncode == 1
    assert not json.loads(r.stdout)["validation"]["passed"]


def test_randomness_builtin_partial_at_d_2(capsys):
    # (0, 1) mod 3 is a perfect difference set, so d = 2 has a partial POVM.
    assert cli.main(["randomness", "--d", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["min_entropy_bits"] - 2.0) < 1e-9 and rep["uniform"] is True


def test_randomness_builtin_partial():
    r = run_cli("randomness", "--d", "3")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert abs(rep["min_entropy_bits"] - 2 * np.log2(3)) < 1e-9
    assert rep["uniform"] is True


def test_randomness_refuses_a_povm_file_that_fails_check(tmp_path, capsys):
    path = tmp_path / "povm.json"
    elements = array_to_json(sc.partial_povm(sc.maximally_entangled(3)).elements)
    elements[0][0][0] = [0.5, 0.0]  # break completeness
    path.write_text(json.dumps(elements))
    assert cli.main(["povm", "check", "--povm", str(path)]) == 1
    capsys.readouterr()
    assert cli.main(["randomness", "--d", "3", "--povm", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("steercert: failed: ")
    assert "completeness residual" in captured.err


def test_randomness_povm_file_dimension_mismatch(tmp_path):
    out = tmp_path / "povm.json"
    run_cli("povm", "build", "--kind", "partial", "--d", "4", "--output", str(out))
    r = run_cli("randomness", "--d", "3", "--povm", str(out))
    assert r.returncode == 2


def test_bell3_small_run():
    r = run_cli("bell3", "--restarts", "6", "--iters", "120")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["value"] > rep["threshold"]
    assert abs(rep["threshold"] - sc.BELL3_BOUND) < 1e-12
    assert rep["restarts"] == 6


def test_sweep_csv_and_threads():
    args = ("sweep", "--d", "2", "--theta-grid", "5")
    base = run_cli(*args)
    assert base.returncode == 0, base.stderr
    lines = base.stdout.strip().splitlines()
    assert lines[0].startswith("# steercert")
    assert lines[1] == "theta,beta_l,gap"
    assert len(lines) == 7
    # beta_l(pi/4) = sqrt(2) shows up on the symmetric grid point
    mid = lines[4].split(",")
    assert abs(float(mid[1]) - np.sqrt(2)) < 1e-9

    threaded = run_cli(*args, env_extra={"STEERCERT_THREADS": "4"})
    assert threaded.stdout == base.stdout


def test_sweep_rejects_other_dimensions():
    assert run_cli("sweep", "--d", "3", "--theta-grid", "4").returncode == 2


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 10**5])
def test_sweep_equals_the_per_point_chain_bit_for_bit(capsys, n):
    assert cli.main(["sweep", "--d", "2", "--theta-grid", str(n), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    thetas = np.linspace(0.0, np.pi / 2.0, n + 2)[1:-1]
    assert len(rows) == n
    for row, theta in zip(rows, thetas):
        sv = sc.SchmidtVector(np.array([np.cos(theta), np.sin(theta)]))
        b = sc.lhs_bound_exact(sc.functional_coefficients(sv)).value
        assert row == {"theta": float(theta), "beta_l": b, "gap": 2.0 - b}


@pytest.mark.parametrize("argv", [
    ["bounds", "--d", "2"],
    ["bounds", "--d", "5", "--alpha", "[0.1, 0.2, 0.3, 0.4, 0.83666]"],
    ["bounds", "--d", "32"],
    ["sweep", "--d", "2", "--theta-grid", "1"],
    ["sweep", "--d", "2", "--theta-grid", "64"],
    ["sweep", "--d", "2", "--theta-grid", "1000", "--format", "json"],
])
def test_bounds_and_sweep_run_one_eigensolve(monkeypatch, capsys, argv):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_sweep_grid_outside_one_to_the_cap_is_usage_error(monkeypatch, capsys):
    def refuse(*a, **k):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "linspace", refuse)
    for n in (0, -1, cli._MAX_THETA_GRID + 1, 10**11):
        assert cli.main(["sweep", "--d", "2", "--theta-grid", str(n)]) == 2
        assert "--theta-grid" in capsys.readouterr().err


@pytest.mark.parametrize("flag, cap", [("--restarts", cli._MAX_RESTARTS),
                                       ("--iters", cli._MAX_ITERS)])
def test_bell3_restarts_and_iters_outside_one_to_the_cap_are_usage_errors(
        monkeypatch, capsys, flag, cap):
    def refuse(*a, **k):
        raise AssertionError("a restart was spawned")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    for n in (0, -1, cap + 1, 10**11):
        assert cli.main(["bell3", flag, str(n)]) == 2
        assert flag in capsys.readouterr().err


def test_unknown_subcommand_usage():
    assert run_cli("frobnicate").returncode == 2


_EXIT_CODES = [
    (UsageError("no such builtin"), 2, "error"),
    (sc.SizeError("shapes differ"), 2, "error"),
    (sc.DomainError("alpha is not finite"), 2, "error"),
    (sc.ContractError("B_0 must be the identity"), 2, "error"),
    (sc.InvalidObservableError("element 0 is negative"), 2, "error"),
    (np.linalg.LinAlgError("Eigenvalues did not converge"), 2, "error"),
    (sc.NotExtremalError("Gram rank 3 < 4", rank=3, expected=4), 1, "failed"),
    (OSError("device full"), 3, "i/o error"),
]


@pytest.mark.parametrize("exc,code,label", _EXIT_CODES,
                         ids=[type(exc).__name__ for exc, _, _ in _EXIT_CODES])
def test_exit_code_of_each_error_class(monkeypatch, capsys, exc, code, label):
    def raises(config):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "bounds", raises)
    assert cli.main(["bounds", "--d", "3"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"steercert: {label}: {exc}\n"


def test_input_too_large_for_memory_is_usage_error(capsys):
    # d = 3000 asks numpy for a 1.15 PiB stack of Weyl operators, more than
    # any x86-64 address space holds, so the request is refused at once and
    # nothing is allocated.
    argv = ["povm", "build", "--kind", "covariant", "--d", "3000"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("steercert: error: input too large for memory: Unable to allocate "
                            "1.15 PiB for an array with shape (3000, 3000, 3000, 3000) and data "
                            "type complex128\n")
    r = run_cli(*argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", captured.err)


def test_bare_memory_error_is_named(monkeypatch, capsys):
    def raises(config):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "bounds", raises)
    assert cli.main(["bounds", "--d", "3"]) == 2
    assert capsys.readouterr() == (
        "", "steercert: error: input too large for memory: MemoryError\n")


def test_main_builds_one_parser(monkeypatch, capsys):
    cli.main(["bounds", "--d", "2"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["bounds", "--d", "3"], ["sweep", "--d", "2", "--theta-grid", "2"],
                 ["povm", "build", "--kind", "partial", "--d", "3"]):
        assert cli.main(argv) == 0
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    capsys.readouterr()
    assert built == []


# Each pair runs an option, then the same subcommand without it: the second
# call must see the option's default, not the first call's value.
_REUSE_PAIRS = {
    "sweep-format": (["sweep", "--d", "2", "--theta-grid", "3", "--format", "json"],
                     ["sweep", "--d", "2", "--theta-grid", "3"]),
    "bounds-alpha": (["bounds", "--d", "2", "--alpha", "[0.8660254037844386, 0.5]"],
                     ["bounds", "--d", "2"]),
    "povm-fiducial": (["povm", "build", "--kind", "covariant", "--d", "2",
                       "--fiducial", "[[0.6, 0.1], [0.2, 0.7]]"],
                      ["povm", "build", "--kind", "covariant", "--d", "2"]),
}


@pytest.mark.parametrize("first,second", _REUSE_PAIRS.values(), ids=_REUSE_PAIRS.keys())
def test_consecutive_main_calls_match_fresh_processes(capsys, first, second):
    in_process = []
    for argv in (first, second):
        code = cli.main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = [run_cli(*argv) for argv in (first, second)]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert in_process[0][0] == 0 and in_process[0][1] != in_process[1][1]


def _report_argvs(tmp_path):
    """Argvs that between them produce a report for every schema key."""
    realization = tmp_path / "realization.json"
    realization.write_text(json.dumps(_realization_blob()))
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps(array_to_json(
        sc.partial_povm(sc.maximally_entangled(3)).elements)))
    return [
        ["bounds", "--d", "3"],
        ["certify", "--realization", str(realization)],
        ["povm", "build", "--kind", "partial", "--d", "3"],
        ["povm", "build", "--kind", "covariant", "--d", "2"],
        ["povm", "build", "--kind", "covariant", "--d", "12", "--seed", "5"],
        ["povm", "build", "--kind", "partial", "--d", "6"],
        ["povm", "check", "--povm", str(povm)],
        ["randomness", "--d", "3"],
        ["bell3", "--restarts", "1", "--iters", "5"],
        ["sweep", "--d", "2", "--theta-grid", "3"],
    ]


def _plain(value):
    """value with every ndarray in it replaced by the JSON lists it stands
    for: nested lists, one level per axis, each complex entry an [re, im]
    pair as array_to_json writes it. The reference meaning of a report's
    arrays, for jsonschema and for the json module."""
    if isinstance(value, np.ndarray):
        return array_to_json(value) if value.dtype.kind == "c" else value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return list(map(_plain, value))
    return value


@functools.cache
def _validator(key: str):
    """jsonschema's Draft 2020-12 validator of SCHEMAS[key], the oracle of
    the compiled check; the schema itself is checked once."""
    jsonschema.Draft202012Validator.check_schema(rpt.SCHEMAS[key])
    return jsonschema.Draft202012Validator(rpt.SCHEMAS[key])


def _foreign(value) -> bool:
    """Whether value holds anything but JSON values and float64 or
    complex128 arrays with entries: another ndarray, a numpy integer or
    bool, a tuple."""
    if isinstance(value, dict):
        return any(map(_foreign, value.values()))
    if isinstance(value, list):
        return any(map(_foreign, value))
    if isinstance(value, np.ndarray):
        return value.dtype not in (np.float64, np.complex128) or not value.ndim or not value.size
    return not isinstance(value, (str, bool, int, float, type(None)))


def _assert_agrees(check, validator, value):
    """check(value) fails exactly when jsonschema finds an error in the
    lists value stands for, and names the path of one of those errors; a
    value that holds anything else fails it."""
    failure = check(value)
    if _foreign(value):
        assert failure, value
        return
    errors = validator.iter_errors(_plain(value))  # lazily, so the first match ends the search
    if failure is None:
        assert next(errors, None) is None, value
    else:
        assert any(tuple(e.absolute_path) == failure[0] for e in errors), (value, failure)


@pytest.fixture(scope="module")
def real_reports(tmp_path_factory):
    """(schema key, report) of every subcommand, as its handler returns it,
    numpy arrays and all."""
    out = []
    for argv in _report_argvs(tmp_path_factory.mktemp("reports")):
        config = cli.parse_args(argv)
        _, report = cli._HANDLERS[config.subcommand](config)
        out.append((cli._schema_key(config), report))
    assert {key for key, _ in out} == set(rpt.SCHEMAS)
    # Checked once here, since jsonschema takes most of a second on a d=12 build.
    for key, report in out:
        assert not _foreign(report), key
        assert rpt._check(key)(report) is None and _validator(key).is_valid(_plain(report))
    return out


# Values on both sides of every keyword's meaning: bool against number and
# integer, integral floats, enum members and near misses; and values that
# no report may hold: numpy integers and bools, a tuple, and arrays other
# than float64 or complex128 ones with entries.
_REPORT_LEAVES = st.sampled_from([
    None, True, False, 0, 1, -3, 2.0, 0.5, float("nan"), float("inf"),
    np.float64(2.0), np.float64(0.25), np.int64(3), np.bool_(True),
    "x", "certified", "failed", "partial", "covariant", "Certified",
    [], {}, [0.0, 1.0], [0.0, 1.0, 2.0], [[0.0, 0.0]], [1, 2], ["x"],
    {"theta": 0.1, "beta_l": 1.0, "gap": 1.0}, {"theta": 0.1},
    np.array(0.5), np.array(2.0), np.array(1j), np.zeros(2), np.zeros((1, 2)), np.ones((2, 2)),
    np.array([0.5j]), np.array([[0.5j]]), np.zeros((1, 1, 1), complex), np.zeros((0, 2)),
    np.arange(2), np.array([True]), np.array("certified"), np.array(["x"]),
    np.array([{"theta": 0.1, "beta_l": 1.0, "gap": 1.0}]), np.array([np.zeros(2)], dtype=object),
    (0.0, 1.0), np.arange(2.0, dtype=np.float32),
])


def _agrees_on_a_mutation(key, report, data):
    for _ in range(data.draw(st.integers(1, 3))):
        report = perturb(report, data, data.draw(st.integers(0, 6)), _REPORT_LEAVES)
    _assert_agrees(rpt._check(key), _validator(key), report)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_compiled_schema_agrees_with_jsonschema(real_reports, data):
    key, report = data.draw(st.sampled_from(real_reports))
    _agrees_on_a_mutation(key, report, data)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_compiled_schema_agrees_with_jsonschema_on_plain_reports(real_reports, data):
    # Each report as its JSON lists, with no array in it but those of the
    # leaves; but for the d=12 build, whose lists take jsonschema most of a
    # second, the test above checks as an array.
    small = [(key, report) for key, report in real_reports
             if not any(isinstance(v, np.ndarray) and v.size > 1000 for v in report.values())]
    key, report = data.draw(st.sampled_from(small))
    _agrees_on_a_mutation(key, _plain(report), data)


_TYPE_CASES = [
    True, False, 0, 1, 1.0, 1.5, np.float64(3.0), np.int64(1), np.bool_(True),
    "a", "1", None, [], [1], [1.0, 2], [1, 2, 3], [True], {"a": "x"},
    {"a": 1}, {"b": "x"}, float("nan"), [1.0, True], [np.float64(0.5), 1],
    [np.float64(0.5), True], [float("nan"), 0.0], [[0.0], 1.0], [0.0, [1.0, 2.0]],
]
# Lists of [re, im] pairs, on both sides of the level-wise pair test.
_PAIR_CASES = [
    [[0.0, 1.0], [2, -0.5]], [[0.0, 1.0], [True, 0.0]],
    [[0.0, 1.0], [np.float64(0.5), 0.0]], [[0.0, 1.0], [0.0, 1.0, 2.0]],
    [[0.0, 1.0], [[0.0, 1.0], 0.0]], [[0.0, 1.0], []], [[]],
    [[float("nan"), 0.0]], [[[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0]]],
]
_ELEMENTS = rpt.SCHEMAS["povm-build"]["properties"]["elements"]


def test_compiled_type_and_enum_keep_draft_2020_12_meanings():
    schemas = [
        {"type": "number"},
        {"type": "integer"},
        {"type": ["boolean", "null"]},
        {"enum": [1, "a", None, False]},
        {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 2},
        {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        {"type": "object", "required": ["a"], "properties": {"a": {"enum": ["x"]}}},
        rpt._COMPLEX_VEC,
        rpt._MATRIX,
    ]
    for schema in schemas:
        check = rpt._compile(schema)
        reference = jsonschema.Draft202012Validator(schema)
        for v in _TYPE_CASES + _PAIR_CASES:
            _assert_agrees(check, reference, v)


def _as_arrays(v) -> list:
    """v as a float64 array and, when its last axis has length 2, as the
    complex128 array of those pairs; none when v is not a nest of numbers."""
    try:
        a = np.array(v, dtype=np.float64)
    except (TypeError, ValueError):
        return []
    if a.ndim and a.shape[-1] == 2:
        return [a, np.ascontiguousarray(a).view(np.complex128)[..., 0]]
    return [a]


@pytest.mark.parametrize("schema, depth", [
    (rpt._COMPLEX_VEC, 0), (rpt._MATRIX, 1), (_ELEMENTS, 2),
    ({"type": "array", "items": rpt._COMPLEX_VEC, "minItems": 1}, 1),
])
def test_one_pass_pair_check_agrees_with_the_per_item_predicate(schema, depth):
    assert rpt._array_levels(schema) == (depth + 2, 2)
    check = rpt._compile(schema)
    per_item = rpt._compile(schema["items"])
    reference = jsonschema.Draft202012Validator(schema)
    cases = _TYPE_CASES + _PAIR_CASES
    for _ in range(depth):  # each case also as one item of every level
        cases = cases + [[v] for v in cases] + [[v, v] for v in cases]
    for v in cases:
        _assert_agrees(check, reference, v)
        if isinstance(v, list) and len(v) >= schema.get("minItems", 0) and not _foreign(v):
            assert (not any(map(per_item, v))) == reference.is_valid(v), v
        # An array is checked in one pass, from its dtype, ndim and length.
        for a in _as_arrays(v):
            _assert_agrees(check, reference, a)


def test_one_pass_pair_check_is_only_for_plain_chains():
    def levels(items):
        return rpt._array_levels({"type": "array", "items": items})

    assert levels({"type": "number"}) == (1, None)
    assert levels({}) is None
    assert levels({"type": "array", "items": rpt._COMPLEX, "minItems": 1}) is None
    assert levels({"type": ["array"], "items": rpt._COMPLEX}) is None
    assert levels(rpt._COMPLEX) == (2, 2)


def _stdlib_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ": "), indent=2, allow_nan=False)


def _nest(flat: list, shape: list) -> list:
    """flat as nested lists of the given shape, row-major."""
    for n in reversed(shape[1:]):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat


_WRITER_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([5e-324, -0.0, 1e16, 1e-05, 0.1, 1e300, -2.5e-310]))
_WRITER_NUMBERS = _WRITER_FLOATS | st.integers() | st.integers(2**63, 10**40)
_WRITER_TEXT = st.text() | st.sampled_from(["\ud800", "a\udcff\u00e9", 'q"\\\n\x7f\u20ac'])


@st.composite
def _grids(draw):
    """Rectangular nests of numbers, some with a bool or an np.float64 among them."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    leaves = draw(st.sampled_from([
        _WRITER_FLOATS, st.integers(), _WRITER_NUMBERS,
        _WRITER_NUMBERS | st.sampled_from([True, False, np.float64(-0.0), np.float64(2.5)]),
    ]))
    size = int(np.prod(shape))
    return _nest(draw(st.lists(leaves, min_size=size, max_size=size)), shape)


_WRITER_VALUES = st.recursive(
    st.none() | st.booleans() | _WRITER_NUMBERS | _WRITER_TEXT | _grids()
    | _grids().map(lambda grid: np.array(grid, dtype=np.float64)),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_WRITER_TEXT, kids, max_size=4),
    max_leaves=16,
)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(value=_WRITER_VALUES)
def test_writer_writes_what_the_json_module_writes(value):
    assert rpt._dumps(value, "\n") == _stdlib_dumps(_plain(value))


def _float_edges() -> list:
    """The band edges and their neighbours, signed zeros, subnormals and
    the largest floats, with both signs."""
    edges = [1e-11, 1e-9, 1e-4, 1e15, 1e16]
    near = [np.nextafter(e, t) for e in edges for t in (0.0, np.inf)]
    tiny = [5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-310]
    big = [np.finfo(np.float64).max, np.nextafter(np.finfo(np.float64).max, 0.0)]
    values = [float(x) for x in edges + near + tiny + big]
    return [0.0, -0.0] + values + [-x for x in values]


def _random_finite_floats(n: int, seed: int) -> list:
    """The floats of n random bit patterns, non-finite ones dropped."""
    x = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    return x[np.isfinite(x)].tolist()


def test_float_reprs_are_float_repr_on_random_bit_patterns():
    level = _random_finite_floats(10**6 + 10**3, 1717)
    assert len(level) > 10**6
    # Every binade is present, the subnormals' included.
    exponents = np.frexp(np.array(level))[1]
    assert set(exponents.tolist()) >= set(range(-1021, 1025))
    assert np.sum(np.abs(level) < np.finfo(np.float64).tiny) > 100
    assert rpt._float_reprs(level) == list(map(float.__repr__, level))


def test_float_reprs_are_float_repr_over_the_decimal_range():
    rng = np.random.default_rng(1818)
    level = (rng.choice([-1.0, 1.0], 2 * 10**5) * 10.0 ** rng.uniform(-14, 19, 2 * 10**5)).tolist()
    assert rpt._float_reprs(level) == list(map(float.__repr__, level))


def test_float_reprs_at_the_band_edges():
    edges = _float_edges()
    assert len(edges) >= rpt._ORJSON_MIN
    for level in (edges, edges[::-1], edges * 3, [0.5] * 40 + edges):
        assert rpt._float_reprs(level) == list(map(float.__repr__, level))
    for x in edges:  # each alone, and each in a list long enough for orjson
        assert rpt._float_reprs([x]) == [repr(x)]
        assert rpt._float_reprs([x] * rpt._ORJSON_MIN) == [repr(x)] * rpt._ORJSON_MIN


def test_orjson_writes_float_repr_outside_the_band():
    # The fallback covers exactly the band; everywhere else orjson's own
    # text is what gets written.
    import orjson

    level = _random_finite_floats(2 * 10**5, 1919) + _float_edges()
    a = np.abs(np.array(level))
    outside = ~(((a >= rpt._REPR_LOW) & (a < rpt._REPR_HIGH)) | (a >= rpt._REPR_FROM))
    level = np.array(level)[outside].tolist()
    assert orjson.dumps(level).decode()[1:-1].split(",") == list(map(float.__repr__, level))


@pytest.mark.parametrize("name, narrowed", [
    ("_REPR_LOW", 2e-9), ("_REPR_HIGH", 9.5e-5), ("_REPR_FROM", 2e16),
])
def test_narrowing_either_edge_of_the_band_breaks_the_text(monkeypatch, name, narrowed):
    # Both edges keep a margin past the first float orjson writes in its
    # own notation: 1e-9 and 1e16, and just below 1e-4.
    assert rpt._REPR_LOW <= 1e-11 and rpt._REPR_HIGH >= 1e-4 and rpt._REPR_FROM <= 1e15
    level = _float_edges() + [1.5e-9, 9.7e-5, 1.5e16]
    assert rpt._float_reprs(level) == list(map(float.__repr__, level))
    monkeypatch.setattr(rpt, name, narrowed)
    assert rpt._float_reprs(level) != list(map(float.__repr__, level))


def test_writer_writes_hard_float_grids_as_the_json_module_does():
    rng = np.random.default_rng(2020)
    edges = _float_edges()
    hard = edges + rng.permutation(edges).tolist() + _random_finite_floats(4096, 2121)
    for shape in ([len(hard)], [2, len(hard) // 2], [len(hard) // 4, 2, 2]):
        grid = _nest(hard[:int(np.prod(shape))], shape)
        assert rpt._dumps(grid, "\n") == _stdlib_dumps(grid), shape
        assert rpt._dumps({"g": grid, "h": [grid]}, "\n") == _stdlib_dumps({"g": grid, "h": [grid]})
    # Finite leaves whose sum overflows go through the per-leaf writer.
    big = [1.7e308] * 2 * rpt._ORJSON_MIN
    assert rpt._dumps(_nest(big, [rpt._ORJSON_MIN, 2]), "\n") == _stdlib_dumps(
        _nest(big, [rpt._ORJSON_MIN, 2]))


def _array_cases(floats: np.ndarray) -> list:
    """floats as float64 and complex128 arrays of one, two and three axes,
    with a non-contiguous and a read-only view of each."""
    n = floats.size - floats.size % 8
    out = []
    for a in (floats[:n], floats[:n].view(np.complex128)):
        m = a.size
        for shape in ((m,), (2, m // 2), (m // 4, 2, 2)):
            grid = a.reshape(shape)
            frozen = grid.copy()
            frozen.flags.writeable = False
            out += [grid, grid[..., ::2], grid.T, frozen]
    return out


def test_array_writer_writes_what_the_json_module_writes_of_its_lists():
    rng = np.random.default_rng(2323)
    edges = np.array(_float_edges() + rng.permutation(_float_edges()).tolist())
    bits = np.array(_random_finite_floats(10**6 + 10**3, 2424))
    assert bits.size > 10**6
    for a in [bits] + _array_cases(
            np.concatenate([edges, bits[:4096]])):
        assert rpt._direct(a)
        assert rpt._dumps(a, "\n") == _stdlib_dumps(_plain(a)), (a.dtype, a.shape)
    # Nested in a report, at other indents.
    for a in [np.full((rpt._ORJSON_MIN, 2), 1.7e308)] + _array_cases(edges):
        value = {"g": a, "h": [a, {"i": a}]}
        assert rpt._dumps(value, "\n") == _stdlib_dumps(_plain(value)), (a.dtype, a.shape)
    # No other array stands for JSON lists: a zero-length axis, no axis, or
    # another dtype is refused, as json.dumps refuses what is not JSON.
    others = [np.zeros(0), np.zeros((3, 0)), np.zeros((2, 0, 2), complex), np.array(1.5),
              np.array(-0.5j), np.arange(5), np.array([[True], [False]]),
              np.array([0.5, "x", None, [1, 2]], dtype=object),
              np.array([np.zeros(2), np.ones(3)], dtype=object), np.arange(3.0, dtype=">f8"),
              np.arange(3.0, dtype=np.float32)]
    for bad in others + [(0.5, 1.0), np.int64(3), np.bool_(True)]:
        with pytest.raises(TypeError, match="is not JSON serializable"):
            rpt._dumps({"g": [1.0, {"h": bad}]}, "\n")
    assert not any(map(rpt._direct, others))


def test_orjson_writes_numpy_floats_as_it_writes_python_floats():
    import orjson

    level = np.array(_random_finite_floats(10**6, 2525) + _float_edges())
    assert (orjson.dumps(level, option=orjson.OPT_SERIALIZE_NUMPY)
            == orjson.dumps(level.tolist()))


_CHECK_SCHEMAS = [
    rpt._REAL_VEC, rpt._COMPLEX, rpt._COMPLEX_VEC, rpt._MATRIX, _ELEMENTS, rpt._NUM, rpt._INT,
    {"type": "array"}, {"type": ["array", "null"], "items": rpt._INT},
    {"type": ["number", "null"]}, {"enum": [1, 0.5, "x"]}, {"items": rpt._NUM},
    {"type": "array", "items": rpt._NUM, "enum": [0.5]},
    {"type": "array", "items": rpt._NUM, "minItems": 2, "maxItems": 3},
    {"type": "array", "items": rpt._COMPLEX_VEC, "minItems": 1},
    *rpt.SCHEMAS.values(),
]
_CHECK_ARRAYS = [
    *(np.zeros(shape) for shape in [(), (1,), (2,), (3,), (2, 2), (3, 2), (2, 3, 3),
                                    (1, 3, 3, 2), (4, 2, 2, 2), (2, 2, 2, 2, 2)]),
    *(np.full(shape, 0.5j) for shape in [(), (1,), (2,), (3,), (2, 2), (3, 2, 2), (1, 2, 2, 2)]),
    np.array([np.nan, 1.0]), np.ones((4, 3))[:, ::2], np.arange(2.0, dtype=">f8"),
    np.arange(2.0, dtype=np.float32), np.arange(2, dtype=np.complex64),
    np.arange(2), np.arange(6).reshape(3, 2), np.array(1), np.array([True, False]),
    np.array(True), np.array([[0.5, 1.0]], dtype=object), np.array(0.5, dtype=object),
    np.array([np.zeros(2), np.ones(2)], dtype=object), np.array([None, "x"], dtype=object),
    np.array("x"), np.array(["x", "y"]),
    np.zeros(0), np.zeros((0, 2)), np.zeros((2, 0, 2), complex), np.zeros((3, 0)),
]


def test_array_check_agrees_with_jsonschema_on_its_lists():
    for schema in _CHECK_SCHEMAS:
        check = rpt._compile(schema)
        reference = jsonschema.Draft202012Validator(schema)
        for a in _CHECK_ARRAYS:
            _assert_agrees(check, reference, a)
            _assert_agrees(check, reference, [a])


def _array_paths(value, path=()) -> list:
    """The path of every ndarray in a report."""
    if isinstance(value, np.ndarray):
        return [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _array_paths(v, path + (k,))]
    return []


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def test_non_finite_entry_of_any_report_array_writes_nothing(monkeypatch, capsys, tmp_path):
    argvs = _report_argvs(tmp_path)
    reports = {}
    for argv in argvs:
        config = cli.parse_args(argv)
        reports[cli._schema_key(config)] = argv, cli._HANDLERS[config.subcommand](config)[1]
    fields = {(key, path) for key, (_, report) in reports.items()
              for path in _array_paths(report)}
    assert {path[-1] for _, path in fields} == {
        "alpha", "delta", "elements", "hermiticity", "min_eigenvalues", "outcome_probs",
        "stabilizer_residuals", "state_schmidt"}
    out = tmp_path / "report.json"
    for key, path in sorted(fields):
        argv, report = reports[key]
        for bad in (float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan"))):
            a = _get(report, path).copy()
            if a.dtype.kind != "c" and isinstance(bad, complex):
                continue
            a.flat[-1] = bad
            broken = set_at(report, path, a)
            monkeypatch.setitem(cli._HANDLERS, argv[0], lambda config, r=broken: (0, r))
            assert cli.main(argv + ["--output", str(out)]) == 2, (key, path, bad)
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.startswith("steercert: error: report is not strict JSON")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_povm_element_is_a_domain_error_not_null(bad):
    import orjson

    assert orjson.dumps([bad]) == b"[null]"  # why orjson never sees one
    config = cli.parse_args(["povm", "build", "--kind", "covariant", "--d", "5"])
    _, report = cli._run_povm(config)
    assert len(report["elements"]) * 5 * 5 * 2 >= rpt._ORJSON_MIN
    report["elements"] = report["elements"].copy()
    report["elements"][3, 2, 4] = complex(report["elements"][3, 2, 4].real, bad)
    with pytest.raises(sc.DomainError, match="report is not strict JSON"):
        rpt.render("povm-build", report)


def _sweep_csv_reference(report: dict) -> str:
    """The sweep CSV as one f-string per row writes it."""
    lines = [f"# steercert {report['tool_version']} seed={report['seed']} "
             f"tolerance={report['tolerance']!r}", "theta,beta_l,gap"]
    lines += [f"{r['theta']!r},{r['beta_l']!r},{r['gap']!r}" for r in report["rows"]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3, 11, 12, 64, rpt._CSV_BLOCK + 1])
def test_sweep_csv_is_one_repr_per_field(n):
    config = cli.parse_args(["sweep", "--d", "2", "--theta-grid", str(n)])
    _, report = cli._run_sweep(config)
    assert rpt.render("sweep", report, "csv") == _sweep_csv_reference(report)


def test_sweep_csv_writes_other_numbers_as_floats():
    config = cli.parse_args(["sweep", "--d", "2", "--theta-grid", "40"])
    _, report = cli._run_sweep(config)
    report["rows"][5]["beta_l"] = 2
    report["rows"][7]["theta"] = np.float64(0.5)
    text = rpt.render("sweep", report, "csv")
    rows = [{k: float(v) for k, v in row.items()} for row in report["rows"]]
    assert text == _sweep_csv_reference({**report, "rows": rows})
    assert ",2.0," in text and "\n0.5," in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
                         ids=["nan", "inf", "-inf", "np.nan"])
@pytest.mark.parametrize("n", [3, 40])
def test_sweep_csv_refuses_a_non_finite_field_and_writes_nothing(monkeypatch, capsys, tmp_path,
                                                                 bad, n):
    argv = ["sweep", "--d", "2", "--theta-grid", str(n)]
    _, report = cli._run_sweep(cli.parse_args(argv))
    report["rows"][1]["gap"] = bad
    monkeypatch.setitem(cli._HANDLERS, "sweep", lambda config: (0, report))
    out = tmp_path / "s.csv"
    assert cli.main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("steercert: error: report is not strict JSON")


def test_every_report_renders_as_the_json_module_writes_it(real_reports):
    for key, report in real_reports:
        assert rpt.render(key, report) == _stdlib_dumps(_plain(report)) + "\n", key


def test_report_alone_writes_every_report_of_the_benchmark(monkeypatch, capsys, tmp_path):
    # Each handler's report, rendered from the schema key and format its argv
    # names, with no namespace, is what cli.main wrote; so is the JSON read back.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    handed = []

    def recorded(config, handler):
        handed.append(handler(config))
        return handed[-1]

    for name, handler in list(cli._HANDLERS.items()):
        monkeypatch.setitem(cli._HANDLERS, name, lambda config, h=handler: recorded(config, h))
    written = 0
    for workload in inputs.WORKLOADS:
        for op in inputs.make_plan(workload, 21, str(tmp_path)):
            argv = op["argv"]
            handed.clear()
            code, out = cli.main(argv), capsys.readouterr().out
            if not handed:  # refused before a report was made
                continue
            key = f"povm-{argv[1]}" if argv[0] == "povm" else argv[0]
            fmt = "csv" if argv[0] == "sweep" else "json"  # the plans' sweep is CSV
            assert (handed[0][0], rpt.render(key, handed[0][1], fmt)) == (code, out), argv
            if fmt == "json":
                assert rpt.render(key, json.loads(out)) == out, argv
            written += 1
    assert written >= 40


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
                         ids=["nan", "inf", "-inf", "np.nan"])
@pytest.mark.parametrize("key,path", [
    ("bounds", ["gamma"]),
    ("bounds", ["alpha", 0]),
    ("bounds", ["delta", 1]),
    ("povm-build", ["elements", 0, 1, 1]),
    ("povm-build", ["validation", "hermiticity", 2]),
    ("sweep", ["rows", 1, "gap"]),
])
def test_non_finite_report_is_a_domain_error(real_reports, bad, key, path):
    report = set_at(dict(real_reports)[key], path, bad)
    with pytest.raises(sc.DomainError, match="report is not strict JSON"):
        rpt.render(key, report)


@pytest.mark.parametrize("schema", [
    {"type": "number", "minimum": 0},
    {"type": "array", "items": {"$ref": "#/x"}},
    {"enum": [[0, 1]]},
])
def test_compiler_refuses_what_it_cannot_check(schema):
    with pytest.raises(ValueError):
        rpt._compile(schema)


def test_report_keys_are_the_schema_properties(real_reports):
    # SCHEMAS leave additional properties open, so a result field missing
    # from its schema would be written unchecked.
    validation = {f.name for f in dataclasses.fields(sc.PovmValidationReport)}
    for key, report in real_reports:
        properties = rpt.SCHEMAS[key]["properties"]
        assert report.keys() == properties.keys(), key
        if key == "sweep":
            row = properties["rows"]["items"]["properties"].keys()
            assert all(r.keys() == row for r in report["rows"])
        if "validation" in report:
            assert report["validation"].keys() == validation, key


def test_report_failing_its_schema_writes_nothing(monkeypatch, capsys, tmp_path):
    seen = []

    def corrupted(config):
        code, report = cli._run_bounds(config)
        report = {**report, "gap": "wide"}
        seen.append(report)
        return code, report

    monkeypatch.setitem(cli._HANDLERS, "bounds", corrupted)
    out = tmp_path / "bounds.json"
    for argv in (["bounds", "--d", "3"], ["bounds", "--d", "3", "--output", str(out)]):
        with pytest.raises(rpt.SchemaError) as info:  # a fault of the program: it leaves main
            cli.main(argv)
        errors = list(_validator("bounds").iter_errors(_plain(seen[-1])))
        assert info.value.path in {tuple(e.absolute_path) for e in errors}
        assert str(info.value) == "bounds report at /gap: 'wide' is not of type 'number'"
    assert capsys.readouterr().out == ""
    assert not out.exists()
    assert not issubclass(rpt.SchemaError, sc.SteercertError)


def test_failing_report_is_named_from_its_lists(real_reports):
    # The check names a path at which jsonschema, judging the report's
    # lists, finds an error; an array is named as the lists it stands for.
    named = 0
    for key, report in real_reports:
        if any(isinstance(v, np.ndarray) and v.size > 1000 for v in report.values()):
            continue  # jsonschema takes most of a second on one d=12 build
        for field in report:
            for bad in ("wide", True, [True], {"a": 1}, np.zeros(3), np.zeros((2, 3), complex)):
                broken = {**report, field: bad}
                errors = list(_validator(key).iter_errors(_plain(broken)))
                if not errors:
                    assert rpt.render(key, broken), (key, field, bad)
                    continue
                with pytest.raises(rpt.SchemaError) as info:
                    rpt.render(key, broken)
                paths = {tuple(e.absolute_path) for e in errors}
                assert info.value.path in paths, (key, field, bad)
                assert info.value.path[:1] == (field,)
                named += 1
    assert named > 100


_NO_JSONSCHEMA_CHILD = """
import contextlib, io, json, sys

sys.modules["jsonschema"] = None  # any import of it now raises ImportError
import steercert.cli as cli
import steercert.report as rpt

written = []
for argv in json.loads(sys.argv[1]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    written.append([code, stdout.getvalue()])

def corrupted(config):
    code, report = cli._run_bounds(config)
    return code, {**report, "gap": "wide"}

cli._HANDLERS["bounds"] = corrupted
stdout = io.StringIO()
try:
    with contextlib.redirect_stdout(stdout):
        cli.main(["bounds", "--d", "2"])
    raised = None
except rpt.SchemaError as e:
    raised = [list(e.path), str(e)]
try:
    cli.no_such_name
    missing = None
except AttributeError as e:
    missing = str(e)
print(json.dumps({
    "written": written,
    "raised": raised,
    "stdout": stdout.getvalue(),
    "json_is_module": cli.json is json,
    "missing": missing,
    "jsonschema": sys.modules["jsonschema"],
}))
"""


def test_cli_runs_without_jsonschema(tmp_path, capsys):
    argvs = _report_argvs(tmp_path)
    r = subprocess.run([sys.executable, "-c", _NO_JSONSCHEMA_CHILD, json.dumps(argvs)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout)
    assert "jsonschema" in sys.modules  # here it is importable, and imported
    written = []
    for argv in argvs:
        code = cli.main(argv)
        written.append([code, capsys.readouterr().out])
    assert seen["written"] == written
    assert all(out for _, out in written)
    assert seen["raised"] == [["gap"], "bounds report at /gap: 'wide' is not of type 'number'"]
    assert seen["stdout"] == ""
    assert seen["json_is_module"]
    assert seen["missing"] == "module 'steercert.cli' has no attribute 'no_such_name'"
    assert seen["jsonschema"] is None
