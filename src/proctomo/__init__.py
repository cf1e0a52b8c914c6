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
    cube_states,
    design_metrics_V,
    mub_states,
    natural_basis_states,
    random_states,
    sic_states,
)
from .metrics import (
    error_scaling_functional,
    fidelity,
    infidelity,
    loglog_slope,
    squared_error,
)
from .povms import (
    PovmCollection,
    cube_povm,
    design_metrics_C,
    mub_povm,
    projective_povm,
    sic_povm,
)
from .reconstruct import (
    ProcessEstimate,
    TwoStageReconstructor,
    nearest_psd,
)
from .simulate import MeasurementRecord, exact_record, ideal_probabilities, sample_record

__version__ = "0.1.0"
