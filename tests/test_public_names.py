import proctomo

# The package's public names; each must import from ``proctomo`` itself, also
# through ``import *``.
PUBLIC = """
KrausChannel ProcessMatrix cnot_channel identity_channel process_matrix
random_channel unitary_channel
DesignReport InputEnsemble cube_states design_metrics_V mub_states
natural_basis_states random_states sic_states
error_scaling_functional fidelity infidelity loglog_slope squared_error
PovmCollection cube_povm design_metrics_C mub_povm projective_povm sic_povm
ProcessEstimate TwoStageReconstructor nearest_psd
MeasurementRecord exact_record ideal_outputs ideal_probabilities sample_outputs
sample_record
""".split()


def test_public_names_import_from_the_package():
    namespace = {}
    exec("from proctomo import *", namespace)
    assert [name for name in PUBLIC if name not in namespace] == []
    assert all(getattr(proctomo, name) is namespace[name] for name in PUBLIC)
