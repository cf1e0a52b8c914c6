"""Closed-form two-stage process reconstruction.

The estimator runs four steps on a frequency matrix P-hat:

1. Per-state least squares: A-hat = P-hat @ pinv(C)^T recovers every output
   state, as the real product of P-hat with pinv(C) in Hermitian coordinates
   (``linalg.herm_coords``): row m holds the coordinates of the transpose (the
   conjugate) of output state m, since C @ vec(X) is [Tr(P_l^T X)]_l.  No
   physicality constraint is imposed here; A-hat is only an intermediate.
2. Structured least squares: because the stacked coefficient matrix factors
   as (I (x) V^T) R with an index reshuffle R, the global least-squares
   process estimate is D-hat = unvec(R^T vec(pinv(V^T) @ A-hat)) at cost
   O(M d^4), never materializing the d^4-column system.  The product is real
   in Hermitian coordinates; gathers with the imaginary parts' signs make it complex.
3. Spectral PSD projection: G-hat is the Frobenius-nearest Hermitian PSD
   matrix to D-hat (negative eigenvalues clipped).
4. Partial-trace correction: the spectrum of F-hat = Tr_1(G-hat) is capped at
   one by conjugating with I (x) T, T = U diag(min(f,1)/f)^(1/2) U^dag (1 on
   rank-zero f), which guarantees Tr_1(X-hat) <= I.  With a trace-preserving
   prior T = F-hat^(-1/2) instead, forcing Tr_1(X-hat) = I exactly.

On exact data the pipeline is the identity on valid process matrices; on any
finite input it returns a Hermitian PSD X-hat with Tr_1(X-hat) <= I.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .ensembles import InputEnsemble
from .linalg import dagger, from_herm_bilinear, hermitian_eig, hermitian_part, is_hermitian, partial_trace_first
from .povms import PovmCollection
from .simulate import MeasurementRecord

# Eigenvalues of F-hat below this fraction of max(f1, 1) count as rank-zero.
TRACE_RANK_RTOL = 1e-12
# Minimum F-hat eigenvalue, relative to max(f1, 1), for the trace-preserving prior
# to be usable: F-hat^(-1/2) amplifies the rounding in G-hat by f1 / f_d.
TP_PRIOR_MIN_EIG = 1e-6
# Step 4's result: the ProcessEstimate fields it fills, x_hat first and tp_fallback last.
TraceCorrection = namedtuple(
    "TraceCorrection", "x_hat trace_spectrum trace_rotation copies_per_state trace_rank tp_prior tp_fallback"
)


@dataclass(eq=False)
class ProcessEstimate:
    """Estimated process matrix with all pipeline intermediates."""

    x_hat: np.ndarray
    output_coeffs: np.ndarray  # step 1, real M x d^2 herm_coords of the output states' transposes
    least_squares: np.ndarray  # step 2, unconstrained d^2 x d^2
    psd_projection: np.ndarray  # step 3
    trace_spectrum: np.ndarray  # step 4, eigenvalues of Tr_1 of step 3, descending
    trace_rotation: np.ndarray  # step 4, their eigenvectors
    trace_rank: int  # step 4, how many exceed TRACE_RANK_RTOL * max(f_1, 1); only those are capped
    clipped_count: int
    tp_prior: bool
    tp_fallback: bool
    copies_per_state: int | None

    @property
    def d(self) -> int:
        return math.isqrt(self.x_hat.shape[0])


def nearest_psd(mat: np.ndarray):
    """Frobenius-nearest Hermitian PSD matrix, plus the number of clipped
    (negative) eigenvalues."""
    w, u = hermitian_eig(mat, check=False)
    clipped = int(np.sum(w < 0.0))
    return (u * np.maximum(w, 0.0)) @ dagger(u), clipped


class TwoStageReconstructor:
    """The two-stage estimator of one (ensemble, POVM) pair, from the pseudo-inverses the designs keep."""

    def __init__(self, ensemble: InputEnsemble, povm: PovmCollection):
        if ensemble.d != povm.d:
            raise ValueError(f"ensemble d={ensemble.d} does not match POVM d={povm.d}")
        if ensemble.d < 2:
            raise ValueError("dimension must be at least 2")
        self.ensemble = ensemble
        self.povm = povm
        self.d = ensemble.d

    def output_coefficients(self, freq: np.ndarray) -> np.ndarray:
        """Step 1: the real M x d^2 ``herm_coords`` of the output states' transposes (their
        conjugates), one real product with the POVM's d^2 x L pinv(C), which BLAS reads transposed."""
        freq = np.asarray(freq)
        if np.iscomplexobj(freq):
            raise ValueError("frequency matrix must be real")
        if freq.shape != (self.ensemble.num_states, self.povm.num_elements):
            raise ValueError(
                f"frequency matrix has shape {freq.shape}, expected "
                f"({self.ensemble.num_states}, {self.povm.num_elements})"
            )
        return freq @ self.povm.pinv_coords.T

    def process_least_squares(self, coords: np.ndarray) -> np.ndarray:
        """Step 2 from step 1's real coordinates: z = pinv(V^T) @ A-hat is B Z B^T of the real
        Z = ``ensemble.pinv_coords`` @ ``coords`` (``linalg.from_herm_bilinear``), then reshuffled."""
        d, n = self.d, self.d**2
        z = from_herm_bilinear(self.ensemble.pinv_coords @ coords)
        # unvec(R^T vec(z)): D-hat[(x, y), (u, v)] = z[(v, y), (u, x)], digits in base d.
        return z.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(n, n)

    def trace_correct(self, g_hat: np.ndarray, copies: int | None, tp_prior: bool) -> TraceCorrection:
        """Step 4: conjugate by I (x) T so the partial trace obeys its cap; ``copies`` passes through."""
        d = self.d
        w, u = hermitian_eig(partial_trace_first(g_hat, d), check=False)
        rank = int(np.sum(w > TRACE_RANK_RTOL * max(w[0], 1.0)))
        # With too little data to invert F-hat, fall back to the general path.
        fallback = bool(tp_prior and w[-1] < TP_PRIOR_MIN_EIG * max(w[0], 1.0))
        tp_prior = tp_prior and not fallback
        if tp_prior:
            scale = 1.0 / np.sqrt(w)
        else:
            # Rank-zero directions keep the factor 1.
            scale = np.ones(d)
            scale[:rank] = np.sqrt(np.minimum(w[:rank], 1.0) / w[:rank])
        if np.all(scale == 1.0):
            x_hat = g_hat
        else:
            t = (u * scale) @ dagger(u)

            def left(m):  # (I (x) T) m: T on each d x d^2 row block, O(d^5)
                return (t @ m.reshape(d, d, d * d)).reshape(d * d, d * d)

            # (I (x) T) G (I (x) T)^dag = [(I (x) T) [(I (x) T) G]^dag]^dag, C-ordered like G
            x_hat = np.ascontiguousarray(dagger(left(dagger(left(g_hat)))))
            # Rounding in a large G can leave X-hat outside the Hermitian tolerance that
            # ProcessMatrix checks; only then is its Hermitian part taken.
            if not is_hermitian(x_hat):
                x_hat = hermitian_part(x_hat)
        return TraceCorrection(x_hat, w, u, copies, rank, tp_prior, fallback)

    def estimate(self, record, tp_prior: bool = False) -> ProcessEstimate:
        """Run all four steps on a record or a raw frequency matrix."""
        if isinstance(record, MeasurementRecord):
            if record.set_sizes != self.povm.set_sizes:
                raise ValueError(f"record set sizes {record.set_sizes} do not match the POVM's {self.povm.set_sizes}")
            freq = record.freq
            copies = record.copies_per_state
        else:
            freq = np.asarray(record)
            # Complex frequencies go on to step 1, which refuses them.
            freq = freq if np.iscomplexobj(freq) else freq.astype(float, copy=False)
            if not np.all(np.isfinite(freq)):
                raise ValueError("frequency matrix contains non-finite entries")
            copies = None
        coords = self.output_coefficients(freq)
        d_hat = self.process_least_squares(coords)
        g_hat, clipped = nearest_psd(d_hat)
        return ProcessEstimate(
            **self.trace_correct(g_hat, copies, tp_prior)._asdict(),
            output_coeffs=coords,
            least_squares=d_hat,
            psd_projection=g_hat,
            clipped_count=clipped,
        )
