"""Closed-form two-stage process reconstruction.

The estimator runs four steps on a frequency matrix P-hat:

1. Per-state least squares: A-hat = P-hat @ pinv(C)^T recovers the natural-
   basis coordinates of every output state.  No physicality constraint is
   imposed here; A-hat is only an intermediate.
2. Structured least squares: because the stacked coefficient matrix factors
   as (I (x) V^T) R with an index reshuffle R, the global least-squares
   process estimate is D-hat = unvec(R^T vec(pinv(V^T) @ A-hat)) at cost
   O(M d^4), never materializing the d^4-column system.
3. Spectral PSD projection: G-hat is the Frobenius-nearest Hermitian PSD
   matrix to D-hat (negative eigenvalues clipped).
4. Partial-trace correction: the spectrum of F-hat = Tr_1(G-hat) is capped at
   one by conjugating with I (x) T, T = U diag(min(f,1)/f)^(1/2) U^dag, which
   guarantees Tr_1(X-hat) <= I.  With a trace-preserving prior T = F-hat^(-1/2)
   instead, forcing Tr_1(X-hat) = I exactly.

On exact data the pipeline is the identity on valid process matrices; on any
finite input it returns a Hermitian PSD X-hat with Tr_1(X-hat) <= I.

A dense brute-force route (small d only) materializes the full coefficient
matrix from its definition and solves the same problems directly; it exists
to cross-check the structured implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ProcessMatrix
from .ensembles import InputEnsemble
from .linalg import (
    dagger,
    hermitian_eig,
    hermitian_part,
    partial_trace_first,
    reshuffle_permutation,
    transpose_permutation,
    unvec,
    vec,
)
from .povms import PovmCollection
from .simulate import MeasurementRecord

# Eigenvalues of F-hat below this fraction of max(f1, 1) count as rank-zero.
TRACE_RANK_RTOL = 1e-12
# Minimum F-hat eigenvalue for the trace-preserving prior to be usable.
TP_PRIOR_MIN_EIG = 1e-8


@dataclass(eq=False)
class ProcessEstimate:
    """Estimated process matrix with all pipeline intermediates."""

    x_hat: np.ndarray
    output_coeffs: np.ndarray  # step 1, M x d^2
    least_squares: np.ndarray  # step 2, unconstrained d^2 x d^2
    psd_projection: np.ndarray  # step 3
    trace_spectrum: np.ndarray  # eigenvalues of Tr_1 of step 3, descending
    adjusted_spectrum: np.ndarray  # spectrum with rank-zero filler
    capped_spectrum: np.ndarray  # spectrum capped at one
    trace_rotation: np.ndarray  # eigenvectors of Tr_1 of step 3
    trace_rank: int
    clipped_count: int
    tp_prior: bool
    tp_fallback: bool
    copies_per_state: int | None

    @property
    def d(self) -> int:
        return int(round(np.sqrt(self.x_hat.shape[0])))

    def process(self, label: str = "estimate") -> ProcessMatrix:
        return ProcessMatrix(self.x_hat, label=label)


def nearest_psd(mat: np.ndarray):
    """Frobenius-nearest Hermitian PSD matrix, plus the number of clipped
    (negative) eigenvalues."""
    w, u = hermitian_eig(hermitian_part(mat), check=False)
    clipped = int(np.sum(w < 0.0))
    return (u * np.maximum(w, 0.0)) @ dagger(u), clipped


class TwoStageReconstructor:
    """Caches the design pseudo-inverses for one (ensemble, POVM) pair."""

    def __init__(self, ensemble: InputEnsemble, povm: PovmCollection):
        if ensemble.d != povm.d:
            raise ValueError(f"ensemble d={ensemble.d} does not match POVM d={povm.d}")
        self.ensemble = ensemble
        self.povm = povm
        self.d = ensemble.d
        # pinv gives the least-squares inverses via SVD, avoiding the squared
        # conditioning of explicit normal equations.
        self._povm_pinv = np.linalg.pinv(povm.parameterization())
        self._state_pinv = np.linalg.pinv(ensemble.parameterization().T)
        self._reshuffle = reshuffle_permutation(self.d).forward

    def output_coefficients(self, freq: np.ndarray) -> np.ndarray:
        """Step 1: M x d^2 natural-basis coordinates of the output states."""
        freq = np.asarray(freq)
        if freq.shape != (self.ensemble.num_states, self.povm.num_elements):
            raise ValueError(
                f"frequency matrix has shape {freq.shape}, expected "
                f"({self.ensemble.num_states}, {self.povm.num_elements})"
            )
        return freq @ self._povm_pinv.T

    def process_least_squares(self, coeffs: np.ndarray) -> np.ndarray:
        """Step 2: unconstrained least-squares process matrix."""
        z = self._state_pinv @ coeffs
        # R is an involution, so applying R^T is the same index gather.
        return unvec(vec(z)[self._reshuffle])

    def trace_correct(self, g_hat: np.ndarray, copies: int | None, tp_prior: bool):
        """Step 4: conjugate by I (x) T so the partial trace obeys its cap."""
        d = self.d
        f_hat = hermitian_part(partial_trace_first(g_hat, d))
        w, u = hermitian_eig(f_hat, check=False)
        rank = int(np.sum(w > TRACE_RANK_RTOL * max(w[0], 1.0)))
        filler = 0.0
        if rank and copies:
            filler = w[rank - 1] / copies
        adjusted = np.concatenate([w[:rank], np.full(d - rank, filler)])
        capped = np.minimum(adjusted, 1.0)
        fallback = False
        if tp_prior and w[-1] < TP_PRIOR_MIN_EIG:
            # Too little data to invert F-hat; fall back to the general path.
            fallback = True
            tp_prior = False
        if tp_prior:
            scale = 1.0 / np.sqrt(w)
        else:
            # On rank-zero directions the filler cancels and the factor is 1.
            ratios = np.ones(d)
            ratios[:rank] = capped[:rank] / adjusted[:rank]
            scale = np.sqrt(ratios)
        if np.all(scale == 1.0):
            x_hat = g_hat
        else:
            t = np.kron(np.eye(d), (u * scale) @ dagger(u))
            x_hat = t @ g_hat @ dagger(t)
        return x_hat, w, adjusted, capped, u, rank, tp_prior, fallback

    def estimate(self, record, tp_prior: bool = False) -> ProcessEstimate:
        """Run all four steps on a record or a raw frequency matrix."""
        if isinstance(record, MeasurementRecord):
            freq = record.freq
            copies = record.copies_per_state
        else:
            freq = np.asarray(record, dtype=float)
            if not np.all(np.isfinite(freq)):
                raise ValueError("frequency matrix contains non-finite entries")
            copies = None
        a_hat = self.output_coefficients(freq)
        d_hat = self.process_least_squares(a_hat)
        g_hat, clipped = nearest_psd(d_hat)
        x_hat, w, adjusted, capped, u, rank, used_prior, fallback = self.trace_correct(
            g_hat, copies, tp_prior
        )
        return ProcessEstimate(
            x_hat=x_hat,
            output_coeffs=a_hat,
            least_squares=d_hat,
            psd_projection=g_hat,
            trace_spectrum=w,
            adjusted_spectrum=adjusted,
            capped_spectrum=capped,
            trace_rotation=u,
            trace_rank=rank,
            clipped_count=clipped,
            tp_prior=used_prior,
            tp_fallback=fallback,
            copies_per_state=copies,
        )


def two_stage_estimate(
    record, ensemble: InputEnsemble, povm: PovmCollection, tp_prior: bool = False
) -> ProcessEstimate:
    """One-shot convenience wrapper around :class:`TwoStageReconstructor`."""
    return TwoStageReconstructor(ensemble, povm).estimate(record, tp_prior=tp_prior)


# ---------------------------------------------------------------------------
# Dense brute-force oracle (small dimensions only)

_DENSE_MAX_D = 3


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
                b[rows + im, col] = vec(basis[j] @ rho @ ek_dag)
    return b


def dense_estimates(record, ensemble: InputEnsemble, povm: PovmCollection):
    """Fully materialized least-squares solutions for cross-checking.

    Returns ``(two_step, global_ls)``: the dense evaluation of the structured
    two-step formula, and the one-shot least-squares solution of the complete
    linear system.  ``two_step`` equals the structured step-2 output on any
    data; both equal the true process matrix on exact data.
    """
    d, m = ensemble.d, ensemble.num_states
    if d > _DENSE_MAX_D:
        raise ValueError(f"dense oracle is limited to d <= {_DENSE_MAX_D}")
    freq = record.freq if isinstance(record, MeasurementRecord) else np.asarray(record)
    c = povm.parameterization()
    b = dense_expansion_matrix(ensemble)
    k_mat = transpose_permutation(m, d * d).matrix()
    r_mat = reshuffle_permutation(d).matrix()
    data = freq.reshape(-1)  # vec of the transposed frequency matrix

    y = np.kron(np.eye(m), c) @ k_mat @ b
    global_ls = unvec(np.linalg.pinv(y) @ data)

    w_c = np.linalg.pinv(c)
    w_v = np.linalg.pinv(ensemble.parameterization().T)
    two_step = unvec(
        r_mat.T
        @ np.kron(np.eye(d * d), w_v)
        @ k_mat.T
        @ np.kron(np.eye(m), w_c)
        @ data
    )
    return two_step, global_ls
