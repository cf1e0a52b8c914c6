import numpy as np
import pytest

from proctomo.channels import cnot_channel, identity_channel, process_matrix, random_channel
from proctomo.ensembles import mub_states, natural_basis_states, random_states, sic_states
from proctomo.linalg import (
    dagger,
    hermitian_part,
    partial_trace_first,
    reshuffle_permutation,
    unvec,
    vec,
)
from proctomo.povms import cube_povm, projective_povm
from proctomo.reconstruct import (
    TwoStageReconstructor,
    dense_estimates,
    dense_expansion_matrix,
    nearest_psd,
    two_stage_estimate,
)
from proctomo.simulate import exact_record, ideal_probabilities, sample_record
from proctomo.linalg import haar_unitary


def output_coefficient_matrix(channel, ensemble):
    """Independent construction of the M x d^2 output-coordinate matrix."""
    return np.array([vec(channel.apply(rho)) for rho in ensemble.states])


def test_step1_exact_on_noiseless_data():
    ch = random_channel(2, tp=True, seed=31)
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    probs = ideal_probabilities(ch, e, p)
    a_hat = rec.output_coefficients(probs)
    assert np.abs(a_hat - output_coefficient_matrix(ch, e)).max() <= 1e-10


def test_step1_rows_unvec_to_output_states():
    ch = identity_channel(2)
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    a_hat = rec.output_coefficients(ideal_probabilities(ch, e, p))
    for row, rho in zip(a_hat, e.states):
        np.testing.assert_allclose(unvec(row), rho, atol=1e-10)


@pytest.mark.parametrize("make_ensemble", [sic_states, mub_states, natural_basis_states])
def test_step2_inverts_exactly(make_ensemble):
    ensemble = make_ensemble(4)
    ch = random_channel(4, tp=False, seed=32)
    x = process_matrix(ch).mat
    rec = TwoStageReconstructor(ensemble, cube_povm(2))
    d_hat = rec.process_least_squares(output_coefficient_matrix(ch, ensemble))
    assert np.linalg.norm(d_hat - x) <= 1e-9


def test_step2_matches_dense_oracle_on_noisy_data_d2():
    ch = random_channel(2, tp=True, seed=33)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    noisy = sample_record(probs, 3000, p, seed=34)
    rec = TwoStageReconstructor(e, p)
    d_struct = rec.process_least_squares(rec.output_coefficients(noisy.freq))
    d_dense, _ = dense_estimates(noisy, e, p)
    assert np.linalg.norm(d_struct - d_dense) <= 1e-10


def test_step2_matches_dense_oracle_on_noisy_data_d3():
    rng = np.random.default_rng(35)
    e = random_states(3, 10, seed=36)
    p = projective_povm([haar_unitary(3, rng) for _ in range(4)])
    ch = random_channel(3, tp=True, seed=37)
    probs = ideal_probabilities(ch, e, p)
    noisy = sample_record(probs, 4000, p, seed=38)
    rec = TwoStageReconstructor(e, p)
    d_struct = rec.process_least_squares(rec.output_coefficients(noisy.freq))
    d_dense, _ = dense_estimates(noisy, e, p)
    assert np.linalg.norm(d_struct - d_dense) <= 1e-10


def test_dense_global_ls_agrees_on_noiseless_data():
    ch = random_channel(2, tp=False, seed=39)
    e, p = mub_states(2), cube_povm(1)
    x = process_matrix(ch).mat
    clean = exact_record(ideal_probabilities(ch, e, p), p)
    two_step, global_ls = dense_estimates(clean, e, p)
    assert np.linalg.norm(two_step - x) <= 1e-9
    assert np.linalg.norm(global_ls - x) <= 1e-9


def test_dense_oracle_guards_dimension():
    e, p = mub_states(4), cube_povm(2)
    with pytest.raises(ValueError):
        dense_estimates(np.zeros((20, 36)), e, p)
    with pytest.raises(ValueError):
        dense_expansion_matrix(mub_states(4))


def test_elementary_input_matrix_makes_step2_an_isometry():
    # When the stacked input parameterization is the elementary-basis
    # permutation, the coefficient matrix is a permutation and the step-2 map
    # preserves distances: ||D1 - D2|| = ||A1 - A2||.
    d = 2
    v = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for j in range(d):
        for k in range(d):
            v[:, j * d + k] = vec(np.outer(eye[:, j], eye[:, k]))
    w_v = np.linalg.pinv(v.T)
    forward = reshuffle_permutation(d).forward
    rng = np.random.default_rng(40)

    def step2(a):
        return unvec(vec(w_v @ a)[forward])

    a1 = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    a2 = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    lhs = np.linalg.norm(step2(a1) - step2(a2))
    rhs = np.linalg.norm(a1 - a2)
    assert abs(lhs - rhs) <= 1e-10


def test_nearest_psd_examples():
    g, clipped = nearest_psd(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(g, np.diag([2.0, 0.0]), atol=1e-12)
    assert clipped == 1
    psd = np.array([[2.0, 1.0], [1.0, 2.0]])
    g, clipped = nearest_psd(psd)
    assert np.linalg.norm(g - psd) <= 1e-12
    assert clipped == 0


def test_nearest_psd_is_closest():
    rng = np.random.default_rng(41)
    d_hat = hermitian_part(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    g, _ = nearest_psd(d_hat)
    dist = np.linalg.norm(g - d_hat)
    for _ in range(100):
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        z = b @ dagger(b)
        assert dist <= np.linalg.norm(z - d_hat) + 1e-12


def test_trace_correction_leaves_compliant_matrices_alone():
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    g = 0.9 / 2 * np.eye(4, dtype=complex)  # partial trace 0.9 I
    x_hat, *_ = rec.trace_correct(g, copies=1000, tp_prior=False)
    assert x_hat is g


def test_trace_correction_caps_partial_trace():
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    g = 1.2 * process_matrix(identity_channel(2)).mat  # partial trace 1.2 I
    x_hat, *_ = rec.trace_correct(g, copies=1000, tp_prior=False)
    f = np.linalg.eigvalsh(hermitian_part(partial_trace_first(x_hat, 2)))
    assert f.max() <= 1 + 1e-9


def test_tp_prior_enforces_identity_partial_trace():
    ch = random_channel(2, tp=True, seed=42)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    noisy = sample_record(probs, 1200, p, seed=43)
    est = TwoStageReconstructor(e, p).estimate(noisy, tp_prior=True)
    assert est.tp_prior and not est.tp_fallback
    assert np.linalg.norm(partial_trace_first(est.x_hat, 2) - np.eye(2)) <= 1e-9


def test_tp_prior_falls_back_on_singular_trace():
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    s = np.diag([1.0, 0.0]).astype(complex)
    g = np.outer(vec(s), vec(s).conj())  # partial trace diag(1, 0)
    x_hat, _, _, _, _, rank, used_prior, fallback = rec.trace_correct(g, 1000, tp_prior=True)
    assert fallback and not used_prior
    assert rank == 1


def test_projection_never_moves_farther_than_truth():
    # ||G - D|| <= ||D - X|| when the true process matrix is PSD
    ch = random_channel(2, tp=True, seed=44)
    e, p = mub_states(2), cube_povm(1)
    x = process_matrix(ch).mat
    probs = ideal_probabilities(ch, e, p)
    rec = TwoStageReconstructor(e, p)
    for seed in range(5):
        noisy = sample_record(probs, 600, p, seed=seed)
        d_hat = rec.process_least_squares(rec.output_coefficients(noisy.freq))
        g_hat, _ = nearest_psd(d_hat)
        assert np.linalg.norm(g_hat - d_hat) <= np.linalg.norm(d_hat - x) + 1e-12


@pytest.mark.parametrize("tp", [True, False])
def test_noiseless_pipeline_is_identity(tp):
    ch = random_channel(4, tp=tp, seed=45)
    e, p = mub_states(4), cube_povm(2)
    x = process_matrix(ch).mat
    est = two_stage_estimate(exact_record(ideal_probabilities(ch, e, p), p), e, p)
    assert np.linalg.norm(est.x_hat - x) <= 1e-8


def test_noiseless_cnot_recovery():
    ch = cnot_channel()
    e, p = mub_states(4), cube_povm(2)
    est = two_stage_estimate(exact_record(ideal_probabilities(ch, e, p), p), e, p)
    assert np.linalg.norm(est.x_hat - process_matrix(ch).mat) <= 1e-8


def test_pipeline_always_returns_physical_estimates():
    rng = np.random.default_rng(46)
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    for _ in range(100):
        freq = rng.uniform(0, 1, size=(e.num_states, p.num_elements))
        est = rec.estimate(freq)
        x = est.x_hat
        assert np.linalg.norm(x - dagger(x)) <= 1e-12
        assert np.linalg.eigvalsh(hermitian_part(x)).min() >= -1e-9
        f = np.linalg.eigvalsh(hermitian_part(partial_trace_first(x, 2)))
        assert f.max() <= 1 + 1e-9
        est.process()  # constructor re-validates the same invariants


def test_estimate_diagnostics_populated():
    ch = random_channel(2, tp=True, seed=47)
    e, p = mub_states(2), cube_povm(1)
    noisy = sample_record(ideal_probabilities(ch, e, p), 600, p, seed=48)
    est = TwoStageReconstructor(e, p).estimate(noisy)
    assert est.output_coeffs.shape == (6, 4)
    assert est.least_squares.shape == (4, 4)
    assert est.trace_spectrum.shape == (2,)
    assert est.copies_per_state == 600
    assert 0 <= est.trace_rank <= 2


def test_reconstructor_validates_shapes():
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    with pytest.raises(ValueError):
        rec.output_coefficients(np.zeros((3, 6)))
    with pytest.raises(ValueError):
        TwoStageReconstructor(mub_states(4), cube_povm(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_rejects_non_finite_raw_frequencies(bad):
    rec = TwoStageReconstructor(mub_states(2), cube_povm(1))
    freq = np.full((6, 6), 0.5)
    freq[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        rec.estimate(freq)
    with pytest.raises(ValueError, match="shape"):
        rec.estimate(np.full((6, 5), 0.5))
