import numpy as np
import pytest

from proctomo.channels import ProcessMatrix, cnot_channel, identity_channel, process_matrix, random_channel
from proctomo.ensembles import (
    InputEnsemble, PovmCollection, cube_povm, cube_states, mub_states, natural_basis_states, projective_povm,
    random_states, sic_states,
)
from proctomo.linalg import (
    dagger,
    from_herm_coords,
    herm_coords,
    hermitian_part,
    is_hermitian,
    partial_trace_first,
)
from proctomo.reconstruct import ProcessEstimate, TraceCorrection, TwoStageReconstructor, nearest_psd
from proctomo.simulate import MeasurementRecord, exact_record, ideal_probabilities, sample_record
from proctomo.linalg import haar_unitary
from dense_oracle import dense_estimates, dense_expansion_matrix, reshuffle_index
from test_ensembles import assert_matches_numpys_pinv


def output_coefficient_matrix(channel, ensemble):
    """Independent construction of the M x d^2 output-coordinate matrix."""
    outputs = [sum(a @ rho @ dagger(a) for a in channel.kraus) for rho in ensemble.states]
    return np.array([out.reshape(-1, order="F") for out in outputs])


def natural_coefficients(coords):
    """Step 1's real coordinates as the complex M x d^2 natural-basis coefficients: row m
    is vec of output state m, the row-major flattening of the Hermitian matrix they give."""
    return from_herm_coords(coords).reshape(len(coords), -1)


def complex_route(ensemble, coords):
    """Steps 1-2 through the complex natural basis: the from_herm_coords gather,
    numpy's pinv(V^T) @ A-hat, and the reshuffle D-hat[(x, y), (u, v)] = z[(v, y), (u, x)]."""
    d = ensemble.d
    z = (np.linalg.pinv(ensemble.parameterization().T) @ natural_coefficients(coords)).reshape(d, d, d, d)
    return z.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def test_step1_exact_on_noiseless_data():
    ch = random_channel(2, tp=True, seed=31)
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    probs = ideal_probabilities(ch, e, p)
    a_hat = natural_coefficients(rec.output_coefficients(probs))
    assert np.abs(a_hat - output_coefficient_matrix(ch, e)).max() <= 1e-10


def test_step1_rows_unvec_to_output_states():
    ch = identity_channel(2)
    e, p = mub_states(2), cube_povm(1)
    rec = TwoStageReconstructor(e, p)
    a_hat = natural_coefficients(rec.output_coefficients(ideal_probabilities(ch, e, p)))
    for row, rho in zip(a_hat, e.states):
        np.testing.assert_allclose(row.reshape(2, 2, order="F"), rho, atol=1e-10)


@pytest.mark.parametrize("make_ensemble", [sic_states, mub_states, natural_basis_states])
def test_step2_inverts_exactly(make_ensemble):
    ensemble = make_ensemble(4)
    ch = random_channel(4, tp=False, seed=32)
    x = process_matrix(ch).mat
    rec = TwoStageReconstructor(ensemble, cube_povm(2))
    # Row m of the coefficient matrix is the row-major flattening of output m's transpose.
    coords = herm_coords(output_coefficient_matrix(ch, ensemble).reshape(-1, ensemble.d, ensemble.d))
    d_hat = rec.process_least_squares(coords)
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
            v[:, j * d + k] = np.outer(eye[:, j], eye[:, k]).reshape(-1, order="F")
    w_v = np.linalg.pinv(v.T)
    forward = reshuffle_index(d)
    rng = np.random.default_rng(40)

    def step2(a):
        return (w_v @ a).reshape(-1, order="F")[forward].reshape(d * d, d * d, order="F")

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


def test_trace_correction_is_a_record_of_estimate_fields():
    # Callers that trace step 4 read x-hat first and the fallback flag last, by position.
    rec = TwoStageReconstructor(mub_states(2), cube_povm(1))
    out = rec.trace_correct(1.2 * process_matrix(identity_channel(2)).mat, 1000, True)
    assert isinstance(out, TraceCorrection)
    assert out[0] is out.x_hat and out[-1] is out.tp_fallback
    filled = ("x_hat", "trace_spectrum", "trace_rotation", "copies_per_state", "trace_rank", "tp_prior", "tp_fallback")
    assert out._fields == filled
    assert set(filled) <= set(ProcessEstimate.__dataclass_fields__)
    # copies only passes through to the record.
    assert out.copies_per_state == 1000
    assert rec.trace_correct(1.2 * process_matrix(identity_channel(2)).mat, None, True).copies_per_state is None


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
    s = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # vec of diag(1, 0)
    g = np.outer(s, s.conj())  # partial trace diag(1, 0)
    x_hat, _, _, copies, rank, used_prior, fallback = rec.trace_correct(g, 1000, tp_prior=True)
    assert fallback and not used_prior
    assert rank == 1 and copies == 1000


def test_tp_prior_falls_back_on_an_ill_conditioned_trace():
    # Tr_1 G = diag(1e4, 1e-3): F-hat^(-1/2) would amplify G's rounding 1e7-fold.
    rec = TwoStageReconstructor(mub_states(2), cube_povm(1))
    s = np.array([1e2, 0.0, 0.0, 1e-3**0.5], dtype=complex)  # vec of diag(1e2, 1e-3**0.5)
    g = np.outer(s, s.conj())
    *_, rank, used_prior, fallback = rec.trace_correct(g, 1000, tp_prior=True)
    assert fallback is True and used_prior is False
    assert rank == 2


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
    est = TwoStageReconstructor(e, p).estimate(exact_record(ideal_probabilities(ch, e, p), p))
    assert np.linalg.norm(est.x_hat - x) <= 1e-8


def test_noiseless_cnot_recovery():
    ch = cnot_channel()
    e, p = mub_states(4), cube_povm(2)
    est = TwoStageReconstructor(e, p).estimate(exact_record(ideal_probabilities(ch, e, p), p))
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
        ProcessMatrix(est.x_hat)  # constructor re-validates the same invariants


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
    # Step 1 reads a caller's matrix by linalg.real_matrix, which names a ragged one.
    ragged = r"^frequency matrix must be 2-D \(states x operators\), got a ragged or non-numeric array$"
    with pytest.raises(ValueError, match=ragged):
        rec.output_coefficients([[1, 2], [3]])
    with pytest.raises(ValueError):
        TwoStageReconstructor(mub_states(4), cube_povm(1))


def test_reconstructor_rejects_dimension_one():
    one = np.eye(1, dtype=complex)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        TwoStageReconstructor(InputEnsemble((one,)), PovmCollection(((one,),)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_rejects_non_finite_raw_frequencies(bad):
    rec = TwoStageReconstructor(mub_states(2), cube_povm(1))
    freq = np.full((6, 6), 0.5)
    freq[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        rec.estimate(freq)
    with pytest.raises(ValueError, match="shape"):
        rec.estimate(np.full((6, 5), 0.5))
    with pytest.raises(ValueError, match="^frequency matrix must be real$"):
        rec.estimate(freq + 1e-3j)
    with pytest.raises(ValueError, match=r"^frequency matrix must be 2-D \(states x operators\), got shape \(1, 0\)$"):
        rec.estimate([[]])


def test_reconstructor_pinvs_equal_numpys():
    e, p = random_states(4, 40, seed=2), cube_povm(2)
    rec = TwoStageReconstructor(e, p)
    # cube_povm(2) is a product design, whose pinv comes from its parts; the random
    # ensemble's comes from one real SVD.  Both match numpy's complex pinv to rounding.
    assert rec.ensemble is e and rec.povm is p
    assert_matches_numpys_pinv(e)
    assert_matches_numpys_pinv(p)


def test_step1_gives_the_coordinates_of_the_output_states_transposes():
    # C @ vec(X) is [Tr(P_l^T X)]_l, so on exact data step 1 recovers E(rho_m)^T, the
    # conjugate of each output state, not E(rho_m) (they differ by 0.5 here).
    ch, e, p = cnot_channel(), mub_states(4), cube_povm(2)
    est = TwoStageReconstructor(e, p).estimate(exact_record(ideal_probabilities(ch, e, p), p))
    outputs = np.array([sum(a @ rho @ dagger(a) for a in ch.kraus) for rho in e.states])
    assert np.abs(est.output_coeffs - herm_coords(outputs.transpose(0, 2, 1))).max() <= 1e-14
    assert np.abs(est.output_coeffs - herm_coords(outputs)).max() > 0.4


COMPOSITION_CASES = {
    "d2": lambda: (random_channel(2, tp=True, seed=70), mub_states(2), cube_povm(1)),
    "d4-nontp": lambda: (random_channel(4, tp=False, seed=71), random_states(4, 30, seed=72), cube_povm(2)),
    "d8": lambda: (random_channel(8, tp=True, seed=73), cube_states(3), cube_povm(3)),
}


@pytest.mark.parametrize("tp_prior", [False, True])
@pytest.mark.parametrize("case", sorted(COMPOSITION_CASES))
def test_estimate_is_the_composition_of_its_steps(case, tp_prior):
    ch, e, p = COMPOSITION_CASES[case]()
    record = sample_record(ideal_probabilities(ch, e, p), 60 * p.num_sets, p, seed=74)
    rec = TwoStageReconstructor(e, p)
    est = rec.estimate(record, tp_prior=tp_prior)
    a_hat = rec.output_coefficients(record.freq)
    d_hat = rec.process_least_squares(a_hat)
    g_hat, clipped = nearest_psd(d_hat)
    x_hat, w, u, copies, rank, used, fallback = rec.trace_correct(g_hat, record.copies_per_state, tp_prior)
    for got, want in [
        (est.output_coeffs, a_hat), (est.least_squares, d_hat), (est.psd_projection, g_hat),
        (est.x_hat, x_hat), (est.trace_spectrum, w), (est.trace_rotation, u),
    ]:
        assert np.array_equal(got, want)
    assert copies == est.copies_per_state == record.copies_per_state
    assert (est.clipped_count, est.trace_rank, est.tp_prior, est.tp_fallback) == (clipped, rank, used, fallback)


@pytest.mark.parametrize("case", sorted(COMPOSITION_CASES))
def test_step1_matches_the_complex_product(case):
    ch, e, p = COMPOSITION_CASES[case]()
    freq = sample_record(ideal_probabilities(ch, e, p), 60 * p.num_sets, p, seed=75).freq
    coords = TwoStageReconstructor(e, p).output_coefficients(freq)
    assert coords.shape == (e.num_states, e.d**2) and coords.dtype == float
    a_hat = natural_coefficients(coords)
    assert np.abs(a_hat - freq @ np.linalg.pinv(p.parameterization()).T).max() <= 1e-13
    # every row is the vec of a Hermitian matrix, exactly
    for row in a_hat.reshape(-1, e.d, e.d).transpose(0, 2, 1):  # column-stacked rows
        assert np.array_equal(row, dagger(row))


def near_singular_states():
    """Three MUB states and a nearly maximally mixed one: V^T's singular-value ratio is near 1e-9."""
    y = np.array([[0, -1j], [1j, 0]])
    return InputEnsemble((*mub_states(2).states[:3], (np.eye(2) + 2.5e-9 * y) / 2), label="near-singular")


def random_design_3():
    rng = np.random.default_rng(77)
    return random_states(3, 10, seed=76), projective_povm([haar_unitary(3, rng) for _ in range(4)])


EQUIVALENCE_DESIGNS = {
    "mub4": lambda: (mub_states(4), cube_povm(2)),
    "sic2": lambda: (sic_states(2), cube_povm(1)),
    "natural4": lambda: (natural_basis_states(4), cube_povm(2)),
    "cube-states3": lambda: (cube_states(3), cube_povm(3)),
    "random-3-10": random_design_3,
    "near-singular": lambda: (near_singular_states(), cube_povm(1)),
}


def test_near_singular_equivalence_design_is_near_singular():
    sv = near_singular_states().singular_values
    assert 3e-10 <= sv[-1] / sv[0] <= 3e-9


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_DESIGNS))
def test_steps_1_2_match_the_complex_route(case):
    e, p = EQUIVALENCE_DESIGNS[case]()
    rec = TwoStageReconstructor(e, p)
    rng = np.random.default_rng(78)
    sampled = sample_record(ideal_probabilities(random_channel(e.d, tp=False, seed=79), e, p), 60 * p.num_sets, p, seed=80)
    for freq in (sampled.freq, rng.uniform(0, 1, size=(e.num_states, p.num_elements))):
        coords = rec.output_coefficients(freq)
        d_hat = rec.process_least_squares(coords)
        want = complex_route(e, coords)
        tol = 1e-14 * max(1.0, np.abs(want).max())
        # Step 3 reads only the Hermitian part of D-hat.  Near singular, the complex
        # route's D-hat also has an anti-Hermitian part of rounding, amplified by the
        # design (about 2e-8 of its largest entry here), which the real route drops.
        assert np.abs(d_hat - hermitian_part(want)).max() <= tol
        if case != "near-singular":
            assert np.abs(d_hat - want).max() <= tol
        assert is_hermitian(d_hat)


def test_complex_frequencies_raise():
    rec = TwoStageReconstructor(mub_states(2), cube_povm(1))
    freq = np.full((6, 6), 0.5) + 0j
    with pytest.raises(ValueError, match="real"):
        rec.output_coefficients(freq)
    with pytest.raises(ValueError, match="real"):
        rec.estimate(freq)


def test_estimate_refuses_a_record_whose_set_sizes_are_not_the_povms():
    # Six columns either way, so only the set sizes tell the record from the POVM's.
    record = MeasurementRecord(freq=np.full((6, 6), 1 / 3), set_sizes=(3, 3), shots_per_set=3)
    rec = TwoStageReconstructor(mub_states(2), cube_povm(1))
    with pytest.raises(ValueError, match=r"\(3, 3\).*\(2, 2, 2\)"):
        rec.estimate(record)
    # A raw frequency matrix carries no set sizes and is still accepted.
    assert rec.estimate(record.freq).x_hat.shape == (4, 4)
