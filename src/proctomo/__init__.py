"""Quantum process tomography: simulation, closed-form two-stage
reconstruction, and optimal-design audits for input states and measurements."""

from .channels import (
    KrausChannel,
    ProcessMatrix,
    cnot_channel,
    identity_channel,
    process_matrix,
    random_channel,
    unitary_channel,
)
from .ensembles import (
    DesignReport,
    InputEnsemble,
    PovmCollection,
    cube_povm,
    cube_states,
    design_metrics_C,
    design_metrics_V,
    mub_povm,
    mub_states,
    natural_basis_states,
    projective_povm,
    random_states,
    sic_povm,
    sic_states,
)
from .metrics import (
    error_scaling_functional,
    fidelity,
    infidelity,
    loglog_slope,
    squared_error,
)
from .reconstruct import (
    ProcessEstimate,
    TwoStageReconstructor,
    nearest_psd,
)
from .simulate import MeasurementRecord, exact_record, ideal_outputs, ideal_probabilities, sample_outputs, sample_record

__version__ = "0.1.0"
