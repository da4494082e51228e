"""Steering-based certification of states, measurements and randomness.

One trusted measuring party (Alice) and one untrusted (Bob) share a
bipartite state. The package builds the steering functional tied to a
Schmidt vector, computes its quantum maximum and local-hidden-state
bounds, certifies realizations that reach the maximum, constructs
extremal d^2-outcome POVMs and the residual checks that certify them,
and quantifies the local randomness this guarantees. A three-setting
qutrit Bell functional extends the certificate to a fully untrusted
Alice.
"""

__version__ = "0.1.0"

from .errors import (
    ContractError,
    DomainError,
    InvalidObservableError,
    NotExtremalError,
    SizeError,
    SteercertError,
)
from .linalg import (
    DEFAULT_TOL,
    Ket,
    apply_local,
    check_density_matrix,
    dagger,
    haar_unitary,
)
from .measurements import (
    GeneralizedObservable,
    Povm,
    generalized_pauli,
    is_projective,
    observable_to_povm,
    omega,
    povm_to_observable,
    random_povm,
    unitary_observable_povm,
)
from .states import (
    Realization,
    SchmidtVector,
    dress_realization,
    ideal_realization,
    maximally_entangled,
    random_schmidt_vector,
    schmidt_state,
)
from .steering import (
    LhsOptimum,
    SteeringFunctional,
    evaluate,
    functional_coefficients,
    lhs_bound_exact,
    lhs_bound_paper_upper,
    quantum_maximum,
    violation_gap,
)
from .selftest import (
    VERDICT_TOL,
    CertReport,
    certify,
    commutation_residual,
    extract_bob_unitary,
    stabilizer_residuals,
    ztilde_spectrum,
)
from .povm import (
    DEFAULT_PHASE_TABLES,
    PhaseTable,
    PovmValidationReport,
    covariant_povm,
    default_phase_table,
    is_extremal_rank_one,
    partial_povm,
    sidon_check,
    theorem3_residuals,
    validate_povm,
)
from .randomness import (
    RandomnessReport,
    eve_bruteforce_oracle,
    guessing_probability,
    min_entropy,
    outcome_distribution,
    randomness_report,
)
from .bell3 import (
    BELL3_BOUND,
    LAMBDA1,
    DressedAlice,
    ExtendedCheckReport,
    bell_value,
    dressed_alice,
    extended_certification_check,
    seesaw_details,
)

__all__ = [
    "__version__",
    "SteercertError", "SizeError", "DomainError", "ContractError",
    "InvalidObservableError", "NotExtremalError",
    "DEFAULT_TOL", "Ket", "dagger", "haar_unitary", "apply_local",
    "check_density_matrix",
    "omega", "generalized_pauli", "Povm", "GeneralizedObservable",
    "povm_to_observable", "observable_to_povm", "is_projective",
    "unitary_observable_povm", "random_povm",
    "SchmidtVector", "maximally_entangled", "schmidt_state", "Realization",
    "ideal_realization", "dress_realization", "random_schmidt_vector",
    "SteeringFunctional", "functional_coefficients", "quantum_maximum",
    "evaluate", "LhsOptimum", "lhs_bound_exact",
    "lhs_bound_paper_upper", "violation_gap",
    "VERDICT_TOL", "CertReport", "certify", "stabilizer_residuals",
    "commutation_residual", "ztilde_spectrum", "extract_bob_unitary",
    "DEFAULT_PHASE_TABLES", "PhaseTable", "default_phase_table", "sidon_check",
    "covariant_povm", "partial_povm", "PovmValidationReport", "validate_povm",
    "is_extremal_rank_one", "theorem3_residuals",
    "RandomnessReport", "outcome_distribution", "guessing_probability",
    "min_entropy", "eve_bruteforce_oracle", "randomness_report",
    "BELL3_BOUND", "LAMBDA1", "bell_value", "seesaw_details",
    "DressedAlice", "dressed_alice", "ExtendedCheckReport", "extended_certification_check",
]
