"""Local randomness certified by a state and an extremal measurement.

Eve's optimal strategy against an extremal POVM reduces to guessing the
modal outcome, so the guessing probability is just the largest outcome
probability and the certified min-entropy is its negative log. The
brute-force oracle exists to sanity-check that reduction by sampling:
no sampled Eve measurement may ever beat the analytic value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .linalg import DEFAULT_TOL, check_density_matrix
from .measurements import Povm, random_povm


def outcome_distribution(p: Povm, rho: np.ndarray) -> np.ndarray:
    """Tr[I_b rho] for every outcome b."""
    rho = check_density_matrix(rho)
    if rho.shape[0] != p.dim:
        raise SizeError(f"state dim {rho.shape[0]} != POVM dim {p.dim}")
    probs = np.einsum("bij,ji->b", p.elements, rho).real
    return probs


def guessing_probability(p: Povm, rho: np.ndarray) -> float:
    """Best probability any outside party has of naming Bob's outcome.

    For extremal POVMs the optimum over Eve's states and measurements is
    attained by deterministically announcing the most likely outcome.
    """
    return float(np.max(outcome_distribution(p, rho)))


def min_entropy(p: Povm, rho: np.ndarray) -> float:
    """Certified min-entropy of the outcome, in bits."""
    return float(-np.log2(guessing_probability(p, rho)))


def eve_bruteforce_oracle(p: Povm, rho: np.ndarray, samples: int, seed: int) -> float:
    """Best guessing value over sampled Eve strategies.

    Eve holds a space of dimension n_outcomes, measures a random POVM
    {Z_b}, and announces b; for a fixed measurement her best state gives
    max eig of sum_b q_b Z_b. The deterministic strategy (announce the
    modal outcome) is always included as sample zero, so the oracle
    equals the analytic guessing probability whenever the reduction is
    tight, and can never exceed it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    probs = outcome_distribution(p, rho)
    best = float(np.max(probs))
    for ss in np.random.SeedSequence(seed).spawn(samples):
        eve = random_povm(p.n_outcomes, probs.size, np.random.default_rng(ss))
        score_op = np.tensordot(probs, eve.elements, axes=(0, 0))
        best = max(best, float(np.linalg.eigvalsh(score_op)[-1]))
    return best


@dataclass(frozen=True)
class RandomnessReport:
    """Outcome statistics of a POVM on a state, entropy in bits."""

    outcome_probs: np.ndarray
    guessing_probability: float
    min_entropy_bits: float
    uniform: bool

    def to_dict(self) -> dict:
        return {
            "outcome_probs": [float(q) for q in self.outcome_probs],
            "guessing_probability": self.guessing_probability,
            "min_entropy_bits": self.min_entropy_bits,
            "uniform": self.uniform,
        }


def randomness_report(p: Povm, rho: np.ndarray, tol: float = DEFAULT_TOL) -> RandomnessReport:
    probs = outcome_distribution(p, rho)
    g = float(np.max(probs))
    uniform = bool(np.max(np.abs(probs - 1.0 / probs.size)) <= tol)
    return RandomnessReport(
        outcome_probs=probs,
        guessing_probability=g,
        min_entropy_bits=float(-np.log2(g)),
        uniform=uniform,
    )
