"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench/tests

One cycle of each workload must pass every check, and the checker must
reject reports that are off by 1e-6 or carry a wrong verdict, so the
checks are not vacuous.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from steercert import cli  # noqa: E402


def one_cycle(plan, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    records = []
    worker.run_cycles(
        lambda argv: worker.call(cli.main, argv), [op["argv"] for op in plan], 0, str(out), records
    )
    return [(plan[r["op"]], r, (out / f"{seq}.out").read_text()) for seq, r in enumerate(records)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(op, record, stdout) for one cycle of every workload at seed 5."""
    done = {}
    for workload in inputs.WORKLOADS:
        tmp = tmp_path_factory.mktemp(workload)
        done[workload] = one_cycle(inputs.make_plan(workload, 5, str(tmp)), tmp)
    return done


def find(outputs, workload, kind, **expect):
    for op, rec, text in outputs[workload]:
        if op["kind"] == kind and all(op["expect"].get(k) == v for k, v in expect.items()):
            return op, rec, text
    raise LookupError((workload, kind, expect))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_cycle_passes_every_check(outputs, workload):
    for op, rec, text in outputs[workload]:
        if op["kind"] in run.KNOWN_FAULTS:
            continue
        assert checks.check(op, rec["code"], rec["exc"], text) is None, op["argv"]


def test_certify_cycle_mix(outputs):
    plan = [op for op, _, _ in outputs["certify_devices"]]
    kinds = [op["kind"] for op in plan]
    assert kinds.count("certify_nan") == 1
    honest = [op for op in plan if op["kind"] == "certify" and op["expect"]["honest"]]
    tampered = [op for op in plan if op["kind"] == "certify" and not op["expect"]["honest"]]
    assert len(honest) == len(tampered) == len(inputs.CERTIFY_SIZES)
    assert all(op["expect"]["value"] < op["expect"]["d"] - 1e-3 for op in tampered)
    dims = sorted(op["expect"]["dim_ab"] for op in honest)
    assert dims[0] == 32 and dims[-1] == 1024


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    pa = inputs.make_plan("povm_randomness", 9, str(a))
    pb = inputs.make_plan("povm_randomness", 9, str(b))
    assert json.dumps(pa).replace(str(a), "") == json.dumps(pb).replace(str(b), "")
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes()
    pc = inputs.make_plan("povm_randomness", 10, str(b))
    assert json.dumps(pc).replace(str(b), "") != json.dumps(pa).replace(str(a), "")


def rejects(op, rec, report: dict):
    return checks.check(op, rec["code"], rec["exc"], json.dumps(report)) is not None


def test_checker_rejects_corrupted_certify(outputs):
    for honest in (True, False):
        op, rec, text = find(outputs, "certify_devices", "certify", d=2, honest=honest)
        rep = json.loads(text)
        assert not rejects(op, rec, rep)
        assert rejects(op, rec, {**rep, "value": rep["value"] + 1e-6})
        flipped = "failed" if honest else "certified"
        assert rejects(op, rec, {**rep, "verdict": flipped})
        assert rejects(op, {**rec, "code": 1 - rec["code"]}, rep)


def test_checker_rejects_corrupted_bounds(outputs):
    op, rec, text = find(outputs, "bounds_scan", "bounds", d=5)
    rep = json.loads(text)
    assert not rejects(op, rec, rep)
    for key in ("beta_l_exact", "gamma"):
        assert rejects(op, rec, {**rep, key: rep[key] + 1e-6})
    assert rejects(op, rec, {**rep, "beta_l_upper": rep["beta_l_exact"] - 1e-6})
    op, rec, text = find(outputs, "bounds_scan", "sweep")
    lines = text.splitlines()
    theta, beta_l, gap = lines[5].split(",")
    lines[5] = f"{theta},{float(beta_l) + 1e-6!r},{float(gap) - 1e-6!r}"
    assert checks.check(op, rec["code"], rec["exc"], "\n".join(lines) + "\n") is not None


def test_checker_rejects_corrupted_povm_and_randomness(outputs):
    op, rec, text = find(outputs, "povm_randomness", "povm_build", d=5)
    rep = json.loads(text)
    assert not rejects(op, rec, rep)
    rep["elements"][3][1][1][0] += 1e-6
    assert rejects(op, rec, rep)
    op, rec, text = find(outputs, "povm_randomness", "randomness", d=4)
    rep = json.loads(text)
    assert not rejects(op, rec, rep)
    assert rejects(op, rec, {**rep, "min_entropy_bits": rep["min_entropy_bits"] + 1e-6})
    op, rec, text = find(outputs, "povm_randomness", "bell3")
    rep = json.loads(text)
    assert not rejects(op, rec, rep)
    assert rejects(op, rec, {**rep, "value": inputs.BELL3_BOUND})
    assert checks.check(op, rec["code"], rec["exc"], text.replace(str(rep["value"]), "NaN")) is not None


def test_nan_device_outcome_rule():
    op = {"kind": "certify_nan", "argv": [], "expect": {"d": 3}}
    assert checks.check(op, 2, None, "") is None
    assert checks.check(op, None, "LinAlgError", "") is not None
    assert checks.check(op, 0, None, '{"verdict": "certified"}') is not None


def test_traced_worker_spans(tmp_path):
    plan = inputs.make_plan("bounds_scan", 3, str(tmp_path))
    summary = run.run_worker(plan, 0, tmp_path / "traced", True, run.program_env())
    n = summary["passes"]["timed"]["count"]
    assert n == len(plan)
    layers = spans.aggregate(summary["spans"], n)
    bounds_ops = sum(op["kind"] == "bounds" for op in plan)
    calls = (bounds_ops + inputs.SWEEP_GRID) / n
    assert math.isclose(layers["steering.lhs_bound_exact"]["calls"], calls)
    assert layers["cli.main"]["calls"] == 1.0
    assert layers["selftest.certify"]["calls"] == 0.0
    main = layers["cli.main"]
    children = sum(layers[k]["busy"] for k in ("cli.schema_validate", "steering.lhs_bound_exact",
                                               "steering.lhs_bound_paper_upper"))
    assert 0.0 < main["self"] < main["busy"] and children < main["busy"]
    assert summary["peak_alloc_mb"] > 0.0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       400 |        450 |   scipy.linalg",
        "import time:        10 |        760 | steercert",
        "import time:        20 |         20 | jsonschema",
        "import time:        30 |         30 |   numpy.random",
    ])
    got = run.parse_importtime(text)
    assert got == pytest.approx(
        {"numpy": 330e-6, "scipy": 450e-6, "jsonschema": 20e-6, "steercert": 760e-6}
    )
