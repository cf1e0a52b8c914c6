"""Dense brute-force oracle (small d only): the stacked coefficient matrix built
from its definition, the reshuffle R and vec transpose K as dense 0/1 matrices,
and direct least-squares solves that cross-check the structured estimator."""

from __future__ import annotations

import numpy as np

from .channels import random_channel
from .ensembles import InputEnsemble, PovmCollection, cube_povm, mub_states, random_states, sic_states
from .linalg import check_int, dagger, frob
from .reconstruct import TwoStageReconstructor
from .simulate import MeasurementRecord, check_seed, exact_record, ideal_probabilities, sample_record

_DENSE_MAX_D = 3


def transpose_index(rows: int, cols: int) -> np.ndarray:
    """Index array K with ``vec(A)[K] == vec(A.T)`` for rows x cols A."""
    rows, cols = check_int(rows, "rows", 1), check_int(cols, "columns", 1)
    return np.arange(rows * cols).reshape(cols, rows).T.reshape(-1)


def reshuffle_index(d: int) -> np.ndarray:
    """Index reshuffle R aligning vec of a d^2 x d^2 process matrix with the
    block structure of the stacked input-state parameterization.

    Writing an index of length d^4 in base d as (u, v, x, y), R swaps the two
    middle digits.  R is an involution, so R == R^T == R^-1.
    """
    d = check_int(d, "dimension", 2)
    return np.arange(d**4).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(-1)


def _elementary_basis(d: int) -> list:
    eye = np.eye(d, dtype=complex)
    return [np.outer(eye[:, r], eye[:, c]) for r in range(d) for c in range(d)]


def dense_expansion_matrix(ensemble: InputEnsemble) -> np.ndarray:
    """The M d^2 x d^4 coefficient matrix built entry by entry from its
    definition: column (j, k) holds the natural-basis coordinates of
    E_j rho_m E_k^dag for every state."""
    d, m = ensemble.d, ensemble.num_states
    if d > _DENSE_MAX_D:
        raise ValueError(f"dense construction is limited to d <= {_DENSE_MAX_D}")
    basis = _elementary_basis(d)
    b = np.zeros((m * d * d, d**4), dtype=complex)
    rows = np.arange(d * d) * m
    for k in range(d * d):
        ek_dag = dagger(basis[k])
        for j in range(d * d):
            col = k * d * d + j
            for im, rho in enumerate(ensemble.states):
                b[rows + im, col] = (basis[j] @ rho @ ek_dag).reshape(-1, order="F")
    return b


def dense_estimates(record, ensemble: InputEnsemble, povm: PovmCollection):
    """Fully materialized least-squares solutions for cross-checking.

    Returns ``(two_step, global_ls)``: the dense evaluation of the structured
    two-step formula, and the one-shot least-squares solution of the complete
    linear system.  ``two_step`` equals the structured step-2 output on any
    data; both equal the true process matrix on exact data.
    """
    d, m = ensemble.d, ensemble.num_states
    freq = record.freq if isinstance(record, MeasurementRecord) else np.asarray(record)
    c = povm.parameterization()
    b = dense_expansion_matrix(ensemble)
    k_mat = np.eye(m * d * d)[transpose_index(m, d * d)]
    r_mat = np.eye(d**4)[reshuffle_index(d)]
    data = freq.reshape(-1)  # vec of the transposed frequency matrix

    y = np.kron(np.eye(m), c) @ k_mat @ b
    global_ls = (np.linalg.pinv(y) @ data).reshape(d * d, d * d, order="F")

    w_c = np.linalg.pinv(c)
    w_v = np.linalg.pinv(ensemble.parameterization().T)
    two_step = (
        r_mat.T
        @ np.kron(np.eye(d * d), w_v)
        @ k_mat.T
        @ np.kron(np.eye(m), w_c)
        @ data
    ).reshape(d * d, d * d, order="F")
    return two_step, global_ls


def oracle_check(seed: int = 0) -> list:
    """Cross-checks of the structured solver against dense brute force.

    Returns (name, passed, detail) triples; all should pass on a healthy
    installation.
    """
    check_seed(seed)
    results = []

    # Dense coefficient matrix equals the structured factorization, d=2 and 3.
    for d, ensemble in ((2, sic_states(2)), (3, random_states(3, 9, seed=seed))):
        v = ensemble.parameterization()
        b_dense = dense_expansion_matrix(ensemble)
        b_struct = np.kron(np.eye(d * d), v.T) @ np.eye(d**4)[reshuffle_index(d)]
        err = frob(b_dense - b_struct)
        results.append((f"coefficient-factorization-d{d}", err <= 1e-12, f"max dev {err:.2e}"))

    # Structured two-step equals its dense evaluation on noisy data, and both
    # recover the exact process on noiseless data.
    channel = random_channel(2, tp=True, seed=seed)
    ensemble, povm = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(channel, ensemble, povm)
    noisy = sample_record(probs, 3_000, povm, seed=seed + 1)
    rec = TwoStageReconstructor(ensemble, povm)
    d_struct = rec.process_least_squares(rec.output_coefficients(noisy.freq))
    d_dense, _ = dense_estimates(noisy, ensemble, povm)
    err = frob(d_struct - d_dense)
    results.append(("structured-vs-dense-noisy", err <= 1e-10, f"dev {err:.2e}"))

    x_true = channel.mat
    clean = exact_record(probs, povm)
    two_step, global_ls = dense_estimates(clean, ensemble, povm)
    err = max(frob(two_step - x_true), frob(global_ls - x_true))
    results.append(("noiseless-exact-recovery", err <= 1e-9, f"dev {err:.2e}"))
    return results
