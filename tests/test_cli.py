"""End-to-end command line checks, via subprocess or cli.main in process."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import steercert as sc
import steercert.cli as cli
from steercert.serialize import realization_to_json


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "steercert.cli", *args],
        capture_output=True,
        text=True,
        env=env,
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


def _set(blob, path, value):
    """A deep copy of blob with the entry at path replaced by value."""
    out = copy.deepcopy(blob)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


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
    "null_amplitude": lambda b: _set(b, ("state", "amplitudes", 0), [None, 0.0]),
    "no_state": lambda b: {k: v for k, v in b.items() if k != "state"},
    "ragged_bob_operator": lambda b: _set(
        b, ("bob_observables", 0, "operators", 1),
        b["bob_observables"][0]["operators"][1][:-1],
    ),
    "top_level_list": lambda b: [b],
    "text_factor_dims": lambda b: _set(b, ("state", "factor_dims"), ["x", 2]),
    "text_alpha": lambda b: _set(b, ("alpha",), ["x", 1]),
    "not_utf8": lambda b: b"\xff\xfe{}",
    "deep_nesting": lambda b: b"[" * 5000 + b"]" * 5000,
}
_BAD_POVMS = {
    "ragged": lambda p: _set(p, ("elements", 1), p["elements"][1][:-1]),
    "null_entry": lambda p: _set(p, ("elements", 0, 0, 0), [None, 0.0]),
    "number": lambda p: 5,
    "no_elements_key": lambda p: {"nope": 1},
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


def test_cli_import_leaves_scipy_out():
    code = "import sys, steercert.cli; print('scipy' in sys.modules)"
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


def test_povm_build_check_pipeline(tmp_path):
    out = tmp_path / "povm.json"
    r = run_cli("povm", "build", "--kind", "covariant", "--d", "4", "--seed", "11",
                "--output", str(out))
    assert r.returncode == 0, r.stderr
    r = run_cli("povm", "check", "--povm", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["extremality"]["gram_rank"] == 16


def test_povm_check_catches_tamper(tmp_path):
    out = tmp_path / "povm.json"
    run_cli("povm", "build", "--kind", "partial", "--d", "3", "--output", str(out))
    rep = json.loads(out.read_text())
    rep["elements"][0][0][0] = [0.5, 0.0]  # break completeness
    out.write_text(json.dumps(rep))
    r = run_cli("povm", "check", "--povm", str(out))
    assert r.returncode == 1
    assert not json.loads(r.stdout)["validation"]["passed"]


def test_randomness_builtin_partial():
    r = run_cli("randomness", "--d", "3")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert abs(rep["min_entropy_bits"] - 2 * np.log2(3)) < 1e-9
    assert rep["uniform"] is True


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


def test_unknown_subcommand_usage():
    assert run_cli("frobnicate").returncode == 2
