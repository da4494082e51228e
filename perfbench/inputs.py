"""Seeded inputs and expected answers for the benchmark workloads.

Nothing here imports steercert: the inputs and the answers they are
checked against are made with numpy alone, so a change to the program
cannot change what it is given or what it must return.

Each workload is one cycle of operations. The worker repeats whole
cycles, so every run attempts the same mix in the same proportions and
the share of failed operations is the same in every run.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Bell functional of the three-setting qutrit scenario: deterministic bound
# 6 sqrt(3) cos(pi/9); no quantum value exceeds 2 * 9 = 18.
BELL3_BOUND = 6.0 * math.sqrt(3.0) * math.cos(math.pi / 9.0)
BELL3_MAX = 18.0

# certify_devices: (d, junk dimension on Bob's side), Eve dimension 2, so
# dim_A * dim_B = d * d * junk runs from 32 to 1024.
CERTIFY_SIZES = ((2, 8), (3, 6), (4, 6), (5, 6), (6, 6), (7, 8), (8, 16))
EVE_DIM = 2
TAMPER_ANGLE = 0.5
# d = 20 and 24 are left out: with them a cycle takes about 1.5 times as
# long, so every call runs fewer times in a run and the median of its
# corrected time (see run.py) rests on fewer samples.
BOUNDS_DIMS = (2, 3, 4, 5, 6, 8, 10, 12, 16, 32)
SWEEP_GRID = 64
PARTIAL_DIMS = (3, 4, 5, 6)
COVARIANT_DIMS = (3, 5, 8, 12)
POVM_FILE_DIMS = (3, 4, 5, 6)
BUILTIN_COVARIANT_DIMS = (3, 4, 5)
# (see-saw seed, restarts). The seeds are fixed: how many restarts stop
# early depends on the seed, so seeded see-saws would make the work of a
# cycle differ from one workload seed to the next. A single restart ends
# below the classical bound about a third of the time; both runs here
# reach 6 sqrt(3) = 10.392.
BELL3_RUNS = ((1, 3), (3, 4))


def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def clock(d: int) -> np.ndarray:
    return np.diag(omega(d) ** np.arange(d))


def shift(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return x


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def schmidt_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Positive unit vector with entries within a factor 4 of each other."""
    w = rng.uniform(0.25, 1.0, size=d)
    return w / np.linalg.norm(w)


def admissible_schmidt(d: int, rng: np.random.Generator) -> np.ndarray:
    """Schmidt vector with alpha_i >= 1/d for i <= d-2, as the partial
    POVM construction needs; the last coefficient takes the rest."""
    floor = 1.0 / d**2
    spare = 1.0 - (d - 1) * floor
    w = rng.dirichlet(np.ones(d)) * 0.5 + 0.5 / d  # keep the last one away from 0
    sq = np.concatenate([floor + w[:-1] * spare, [w[-1] * spare]])
    return np.sqrt(sq / sq.sum())


def functional(alpha: np.ndarray) -> tuple[float, np.ndarray]:
    """gamma = d / sum_{i!=j} alpha_i/alpha_j and delta_k of the functional."""
    d = alpha.size
    ratio = alpha[:, None] / alpha[None, :]
    np.fill_diagonal(ratio, 0.0)
    gamma = d / ratio.sum()
    col = ratio.sum(axis=0)  # sum over i != j of alpha_i/alpha_j, per j
    j = np.arange(d)
    delta = np.array(
        [-(gamma / d) * np.sum(col * omega(d) ** (k * (d - j))) for k in range(d)]
    )
    return gamma, delta


def lhs_closed_form(alpha: np.ndarray) -> float:
    """max_a lambda_max(gamma (11^T - sum(alpha) diag(1/alpha)) + d e_a e_a^T)."""
    d = alpha.size
    gamma, _ = functional(alpha)
    base = gamma * (np.ones((d, d)) - alpha.sum() * np.diag(1.0 / alpha))
    best = -np.inf
    for a in range(d):
        q = base.copy()
        q[a, a] += d
        best = max(best, float(np.linalg.eigvalsh(q)[-1]))
    return best


def powers(u: np.ndarray, d: int) -> np.ndarray:
    out = np.empty((d,) + u.shape, dtype=complex)
    out[0] = np.eye(u.shape[0])
    for k in range(1, d):
        out[k] = out[k - 1] @ u
    return out


def _local_expectation(a: np.ndarray, b: np.ndarray, amps: np.ndarray) -> complex:
    """<psi| A (x) B (x) 1_E |psi> with amps shaped (dim_A, dim_B, dim_E)."""
    t = np.tensordot(a, amps, axes=(1, 0))
    t = np.einsum("bd,ade->abe", b, t)
    return complex(np.vdot(amps, t))


def functional_value(alpha, amps, alice, bob0, bob1) -> float:
    """The steering functional evaluated with local operators."""
    d = alpha.size
    gamma, delta = functional(alpha)
    eye_b = np.eye(amps.shape[1])
    total = 0.0
    a0k = np.eye(alice[0].shape[0], dtype=complex)
    a1k = a0k.copy()
    for k in range(1, d):
        a0k = a0k @ alice[0]
        a1k = a1k @ alice[1]
        total += _local_expectation(a0k, bob0[k], amps)
        total += gamma * _local_expectation(a1k, bob1[k], amps)
        total += delta[k] * _local_expectation(a0k, eye_b, amps)
    return float(np.real(total))


def matrix_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def device(alpha, junk, eve, rng, tamper=False):
    """A dressed realization as the CLI reads it, and its functional value.

    The ideal pair (Z, X) for Alice and (Z*, X) for Bob on psi(alpha) is
    hidden behind a Haar unitary on Bob's d*junk space, with the junk and
    Eve registers in a random joint state. A tampered device has Bob's
    second observable conjugated by exp(i TAMPER_ANGLE H) for a random
    Hermitian H of unit norm, which pulls the value below d.
    """
    d = alpha.size
    db = d * junk
    psi = np.diag(alpha).astype(complex)
    xi = unit_vector(junk * eve, rng).reshape(junk, eve)
    u = haar_unitary(db, rng)
    amps = np.einsum("ab,je->abje", psi, xi).reshape(d, db, eve)
    amps = np.einsum("ij,aje->aie", u, amps)
    eye_j = np.eye(junk)
    b0 = u @ np.kron(np.conj(clock(d)), eye_j) @ np.conj(u).T
    b1 = u @ np.kron(shift(d), eye_j) @ np.conj(u).T
    if tamper:
        h = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
        h = (h + np.conj(h).T) / 2
        vals, vecs = np.linalg.eigh(h)
        vals /= np.max(np.abs(vals))
        v = (vecs * np.exp(1j * TAMPER_ANGLE * vals)) @ np.conj(vecs).T
        b1 = v @ b1 @ np.conj(v).T
    alice = [clock(d), shift(d)]
    bob0, bob1 = powers(b0, d), powers(b1, d)
    value = functional_value(alpha, amps, alice, bob0, bob1)
    dims = [d, db, eve] if eve > 1 else [d, db]
    blob = {
        "alpha": alpha.tolist(),
        "state": {
            "amplitudes": np.stack([amps.real, amps.imag], -1).reshape(-1, 2).tolist(),
            "factor_dims": dims,
        },
        "alice_observables": [matrix_json(a) for a in alice],
        "bob_observables": [
            {"operators": [matrix_json(m) for m in bob0]},
            {"operators": [matrix_json(m) for m in bob1]},
        ],
    }
    return blob, value


def nan_device():
    """A d=3 dressed device with one NaN amplitude; the same on every seed."""
    alpha = np.full(3, 1.0 / math.sqrt(3.0))
    blob, _ = device(alpha, 2, EVE_DIM, np.random.default_rng(0))
    blob["state"]["amplitudes"][0] = [float("nan"), 0.0]
    return blob


def covariant_orbit(nu: np.ndarray) -> np.ndarray:
    """The d^2 elements X^k Z^l |nu><nu| Z^-l X^-k / d."""
    d = nu.size
    els = []
    for k in range(d):
        xk = np.linalg.matrix_power(shift(d), k)
        for l in range(d):
            v = xk @ np.linalg.matrix_power(clock(d), l) @ nu
            els.append(np.outer(v, np.conj(v)) / d)
    return np.array(els)


def _write_json(path: str, blob) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def _vec(values) -> str:
    return json.dumps([float(v) for v in values])


def _op(kind: str, argv: list, **expect) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "expect": expect}


def certify_devices(rng, workdir):
    ops = []
    for d, junk in CERTIFY_SIZES:
        alpha = schmidt_vector(d, rng)
        for tamper in (False, True):
            blob, value = device(alpha, junk, EVE_DIM, rng, tamper=tamper)
            while tamper and d - value < 1e-3:
                blob, value = device(alpha, junk, EVE_DIM, rng, tamper=True)
            path = os.path.join(workdir, f"device-d{d}-{'tampered' if tamper else 'honest'}.json")
            _write_json(path, blob)
            ops.append(_op(
                "certify", ["certify", "--realization", path],
                d=d, dim_ab=d * d * junk, honest=not tamper, value=value,
            ))
    path = os.path.join(workdir, "device-nan.json")
    _write_json(path, nan_device())
    ops.append(_op("certify_nan", ["certify", "--realization", path], d=3))
    return ops


def bounds_scan(rng, workdir):
    ops = []
    for d in BOUNDS_DIMS:
        alpha = schmidt_vector(d, rng)
        gamma, _ = functional(alpha)
        ops.append(_op(
            "bounds",
            ["bounds", "--d", d, "--alpha", _vec(alpha), "--seed", int(rng.integers(2**31))],
            d=d, gamma=gamma, beta_l=lhs_closed_form(alpha),
        ))
    ops.append(_op("sweep", ["sweep", "--d", 2, "--theta-grid", SWEEP_GRID], n=SWEEP_GRID))
    return ops


def _fiducial(d, rng):
    """Random fiducial whose orbit is linearly independent by a wide margin."""
    while True:
        nu = unit_vector(d, rng)
        flat = covariant_orbit(nu).reshape(d * d, -1)
        s = np.linalg.svd(flat, compute_uv=False)
        if s[-1] > 1e-3 * s[0]:
            return nu


def povm_randomness(rng, workdir):
    ops = []
    for d in PARTIAL_DIMS:
        alpha = admissible_schmidt(d, rng)
        ops.append(_op(
            "povm_build", ["povm", "build", "--kind", "partial", "--d", d, "--alpha", _vec(alpha)],
            d=d, alpha=alpha.tolist(),
        ))
    for d in COVARIANT_DIMS:
        nu = _fiducial(d, rng)
        fid = json.dumps([[float(z.real), float(z.imag)] for z in nu])
        ops.append(_op(
            "povm_build", ["povm", "build", "--kind", "covariant", "--d", d, "--fiducial", fid],
            d=d, alpha=[1.0 / math.sqrt(d)] * d,
        ))
    for d in POVM_FILE_DIMS:
        path = os.path.join(workdir, f"povm-d{d}.json")
        _write_json(path, {"elements": [matrix_json(e) for e in covariant_orbit(_fiducial(d, rng))]})
        ops.append(_op("povm_check", ["povm", "check", "--povm", path], d=d))
        ops.append(_op("randomness", ["randomness", "--d", d, "--povm", path], d=d))
    for d in PARTIAL_DIMS:
        alpha = admissible_schmidt(d, rng)
        ops.append(_op("randomness", ["randomness", "--d", d, "--alpha", _vec(alpha)], d=d))
    for d in BUILTIN_COVARIANT_DIMS:
        ops.append(_op(
            "randomness",
            ["randomness", "--d", d, "--povm", "builtin:covariant", "--seed", int(rng.integers(2**31))],
            d=d,
        ))
    for seed, restarts in BELL3_RUNS:
        ops.append(_op("bell3", ["bell3", "--restarts", restarts, "--seed", seed], restarts=restarts))
    return ops


_BUILDERS = {
    "certify_devices": certify_devices,
    "bounds_scan": bounds_scan,
    "povm_randomness": povm_randomness,
}
WORKLOADS = tuple(_BUILDERS)


def make_plan(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files into workdir; return its cycle.

    The same (workload, seed) always gives the same files and answers.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, workdir)
