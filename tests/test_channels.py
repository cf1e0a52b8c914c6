import re

import numpy as np
import pytest

from proctomo.channels import (
    KrausChannel,
    ProcessMatrix,
    cnot_channel,
    cnot_matrix,
    identity_channel,
    process_matrix,
    random_channel,
    unitary_channel,
)
from proctomo.ensembles import natural_basis_states
from proctomo.linalg import dagger, from_herm_coords, herm_coords, hermitian_eig, partial_trace_first, transfer_matrix


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def apply_channel(op, rho):
    """E(rho) through the channel's transfer matrix, as ideal_probabilities applies it."""
    return from_herm_coords(transfer_matrix(op.mat) @ herm_coords(rho))


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
    assert np.linalg.norm(ch.contraction() - np.eye(4)) <= 1e-9 * 4


def test_kraus_and_process_application_agree():
    rng = np.random.default_rng(11)
    ch = random_channel(4, tp=False, seed=2)
    x = process_matrix(ch)
    for _ in range(20):
        rho = random_density(rng, 4)
        expected = sum(a @ rho @ dagger(a) for a in ch.kraus)  # independent of the transfer matrix
        np.testing.assert_allclose(apply_channel(ch, rho), expected, atol=1e-10)
        np.testing.assert_allclose(apply_channel(x, rho), expected, atol=1e-10)


def test_success_operator_tp_and_nontp():
    assert np.linalg.norm(process_matrix(random_channel(2, seed=4)).success_operator() - np.eye(2)) <= 1e-9
    # The default non-TP success operator has d uniform draws in [0.4, 1] as its spectrum.
    w, _ = hermitian_eig(process_matrix(random_channel(4, tp=False, seed=5)).success_operator())
    assert np.all(w >= 0.4 - 1e-9) and np.all(w <= 1.0 + 1e-9)


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
    assert w[-1] < 1.0 - 1e-6 and np.linalg.norm(chn.contraction() - np.eye(2)) > 1e-9 * 2


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


def test_kraus_channel_rejects_expansion():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 1.1,))


def test_process_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        ProcessMatrix(np.diag([1.0, 1.0, 1.0, -0.5]))
    with pytest.raises(ValueError):
        ProcessMatrix(2.0 * process_matrix(identity_channel(2)).mat)  # Tr_1 = 2I
    for shape in [(), (4,), (0, 0), (4, 5)]:  # not one non-empty square matrix: linalg.square_matrix refuses it
        with pytest.raises(ValueError, match=f"^process matrix must be a square matrix, got shape {re.escape(str(shape))}$"):
            ProcessMatrix(np.zeros(shape))
    with pytest.raises(ValueError, match=r"^process matrix must be d\^2 x d\^2, got \(3, 3\)$"):  # square, not d^2 x d^2
        ProcessMatrix(np.zeros((3, 3)))


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda f: KrausChannel((np.sqrt(f) * np.eye(2),)), "Kraus sum of A^dag A"),
        (lambda f: ProcessMatrix(f * process_matrix(identity_channel(2)).mat), "partial trace Tr_1 X"),
    ],
)
def test_channel_bounds_hold_at_channel_atol(make, name):
    # The Kraus sum and Tr_1 X may exceed I by CHANNEL_ATOL = 1e-9 in operator norm, not more;
    # a refusal names the quantity, and I minus it has the excess as a negative eigenvalue.
    make(1 + 5e-10)
    with pytest.raises(ValueError, match=re.escape(f"identity minus the {name} has negative eigenvalue -2.000e-09")):
        make(1 + 2e-9)


def test_kraus_mat_is_the_process_matrix_bit_for_bit():
    for ch in (random_channel(2, tp=False, seed=4), random_channel(4, tp=True, seed=4), cnot_channel()):
        assert np.array_equal(ch.mat, process_matrix(ch).mat)


def test_kraus_operators_are_one_complex_stack():
    ch = random_channel(3, seed=2)
    assert isinstance(ch.kraus, np.ndarray) and ch.kraus.dtype == complex
    assert ch.kraus.shape == (3, 3, 3)
    message = "Kraus operators must be a stack of square matrices of one size, got a ragged or non-numeric array"
    with pytest.raises(ValueError, match=f"^{message}$"):
        KrausChannel((np.eye(2), np.eye(3)))


@pytest.mark.parametrize("make", [lambda: random_channel(3, tp=False, seed=2), lambda: process_matrix(cnot_channel())])
def test_a_channel_builds_its_transfer_matrix_once(make):
    channel = make()
    assert "transfer" not in vars(channel)
    t = channel.transfer
    assert np.array_equal(t, transfer_matrix(channel.mat)) and channel.transfer is t
