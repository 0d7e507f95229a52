"""Projected least-squares POVM tomography toolkit.

Simulate measurement statistics from informationally complete probe
ensembles, reconstruct POVMs by closed-form least squares plus convex
projection, evaluate worst-case and average-case reconstruction distances,
and size experiments with non-asymptotic shot calculators.
"""

from .distances import DistanceReport, d_av, d_op_exact, d_op_lower, upper_surrogates
from .frames import (
    ProbeEnsemble,
    build_ensemble,
    design_check,
    mub_ensemble,
    pauli6_product,
    sic_qubit_ensemble,
    sic_qubit_product,
)
from .packing_lab import PackingFamily, build_packing, verify_separation
from .povm import (
    Povm,
    PovmValidationError,
    RawEstimate,
    build_povm,
    computational_povm,
    depolarized,
    load_povm,
    measurement_channel,
    random_povm,
    save_povm,
    sic_qubit_povm,
    validate,
)
from .tomography import (
    FrequencyTable,
    bernstein_diagnostics,
    lse_estimate,
    project_onto_povms,
    sample_size,
    simulate_shots,
)

__version__ = "0.1.0"
