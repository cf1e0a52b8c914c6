import numpy as np
import pytest

from proctomo.channels import (
    KrausChannel,
    ProcessMatrix,
    apply_channel,
    as_process_matrix,
    cnot_channel,
    cnot_matrix,
    identity_channel,
    process_matrix,
    random_channel,
    success_operator,
    unitary_channel,
)
from proctomo.ensembles import natural_basis_states
from proctomo.linalg import dagger, hermitian_eig, partial_trace_first


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def test_identity_channel_process_matrix():
    x = process_matrix(identity_channel(2))
    w, _ = hermitian_eig(x.mat)
    assert np.sum(w > 1e-9) == 1  # rank one
    assert abs(np.trace(x.mat) - 2) < 1e-12
    np.testing.assert_allclose(x.success_operator(), np.eye(2), atol=1e-12)


def test_identity_channel_acts_trivially_on_state_basis():
    # Apply through the process matrix on a spanning set of density matrices.
    x = process_matrix(identity_channel(2))
    for rho in natural_basis_states(2).states:
        np.testing.assert_allclose(apply_channel(x, rho), rho, atol=1e-12)


def test_cnot_process_matrix_is_rank_one():
    x = process_matrix(cnot_channel()).mat
    assert abs(np.trace(x) - 4) < 1e-12
    assert np.linalg.norm(x) == pytest.approx(4.0, abs=1e-12)
    # rank-1 PSD matrices satisfy X^2 = Tr(X) X
    assert np.linalg.norm(x @ x - np.trace(x) * x) < 1e-10


def test_cnot_truth_table():
    # The implemented convention flips the first qubit when the second is 1.
    u = cnot_matrix()
    ch = cnot_channel()
    basis = np.eye(4)
    expected = {0: 0, 1: 3, 2: 2, 3: 1}
    for col, target in expected.items():
        rho = np.outer(basis[:, col], basis[:, col])
        out = apply_channel(ch, rho)
        np.testing.assert_allclose(out, np.outer(basis[:, target], basis[:, target]), atol=1e-12)
    assert np.array_equal(u @ u, np.eye(4))


def test_reference_tp_channel_is_trace_preserving():
    # Three-Kraus construction with fixed diagonals and seeded unitaries.
    ch = random_channel(4, tp=True, seed=0)
    x = process_matrix(ch)
    assert np.linalg.norm(x.success_operator() - np.eye(4)) <= 1e-9
    assert ch.is_trace_preserving


def test_kraus_and_process_application_agree():
    rng = np.random.default_rng(11)
    ch = random_channel(4, tp=False, seed=2, f_spectrum=(1.0, 0.8, 0.7, 0.5))
    x = process_matrix(ch)
    for _ in range(20):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(apply_channel(ch, rho), apply_channel(x, rho), atol=1e-10)


def test_success_operator_tp_and_nontp():
    assert np.linalg.norm(success_operator(process_matrix(random_channel(2, seed=4))) - np.eye(2)) <= 1e-9
    xn = process_matrix(random_channel(4, tp=False, seed=5, f_spectrum=(1.0, 0.8, 0.7, 0.5)))
    f = success_operator(xn)
    assert abs(np.trace(f).real - 3.0) <= 1e-6
    w, _ = hermitian_eig(f)
    np.testing.assert_allclose(w, [1.0, 0.8, 0.7, 0.5], atol=1e-6)


def test_success_operator_trace_matches_process_trace():
    for seed in range(3):
        x = process_matrix(random_channel(3, tp=False, seed=seed))
        assert abs(np.trace(x.success_operator()) - np.trace(x.mat)) < 1e-10


def test_random_channel_deterministic():
    a = random_channel(4, tp=True, seed=42)
    b = random_channel(4, tp=True, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
    c = random_channel(4, tp=True, seed=43)
    assert not all(np.array_equal(x, y) for x, y in zip(a.kraus, c.kraus))


def test_random_channel_tp_flag():
    ch = random_channel(2, tp=True, seed=1)
    assert np.linalg.norm(ch.contraction() - np.eye(2)) <= 1e-9
    chn = random_channel(2, tp=False, seed=1)
    w, _ = hermitian_eig(chn.contraction())
    assert w[-1] < 1.0 - 1e-6 and not chn.is_trace_preserving


def test_unitary_channels_give_rank_one_norm_d():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4):
        from proctomo.linalg import haar_unitary

        x = process_matrix(unitary_channel(haar_unitary(d, rng))).mat
        w, _ = hermitian_eig(x)
        assert np.sum(w > 1e-9) == 1
        assert np.linalg.norm(x) == pytest.approx(d, abs=1e-9)


def test_generated_channels_satisfy_process_invariants():
    # Hermitian, PSD, and partial trace below the identity, for TP and not.
    for seed in range(4):
        for tp in (True, False):
            x = process_matrix(random_channel(2, tp=tp, seed=seed))
            w, _ = hermitian_eig(x.mat)
            assert w[-1] >= -1e-9
            f, _ = hermitian_eig(partial_trace_first(x.mat, 2))
            assert f[0] <= 1 + 1e-9


def test_apply_channel_validates_state():
    ch = identity_channel(2)
    with pytest.raises(ValueError):
        apply_channel(ch, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        apply_channel(ch, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        apply_channel(ch, np.eye(3) / 3)  # wrong dimension


def test_kraus_channel_rejects_expansion():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 1.1,))


def test_process_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        ProcessMatrix(np.diag([1.0, 1.0, 1.0, -0.5]))
    with pytest.raises(ValueError):
        ProcessMatrix(2.0 * process_matrix(identity_channel(2)).mat)  # Tr_1 = 2I


def test_as_process_matrix_passes_process_matrices_through():
    ch = random_channel(2, tp=False, seed=4)
    x = process_matrix(ch)
    assert as_process_matrix(x) is x
    assert np.array_equal(as_process_matrix(ch).mat, x.mat)
