"""Error and fidelity metrics for process estimates.

The fidelity between two PSD matrices is normalized by both traces, so it is
scale invariant, symmetric, and equals one exactly for proportional
arguments.  It is computed from pivoted-Cholesky factors
(``linalg.psd_factor``), whose residual certifies each argument PSD, so no
d^2 x d^2 eigendecomposition runs.  The factor's stopping rule is relative to
each argument's largest diagonal entry, so scaling an argument does not
change the fidelity.  ``error_scaling_functional`` evaluates
the bracketed part of the analytic error bound
sqrt(d) Tr(F) sqrt(J tr_C) sqrt(M tr_V) / sqrt(N); it is a relative scaling
functional, with no attempt to estimate the hidden constant.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, frob, psd_factor


def _same_shape(x_hat, x_true, dtype=None) -> tuple:
    """Both arguments as arrays, refused with ValueError unless they share one shape."""
    a, b = np.asarray(x_hat, dtype=dtype), np.asarray(x_true, dtype=dtype)
    if a.shape != b.shape:
        raise ValueError(f"cannot compare an estimate of shape {a.shape} with a truth of shape {b.shape}")
    return a, b


def squared_error(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    return frob(np.subtract(*_same_shape(x_hat, x_true))) ** 2


def fidelity(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """[Tr sqrt(sqrt(A) B sqrt(A))]^2 / (Tr A Tr B) for PSD A, B.

    Evaluated as the squared nuclear norm of sqrt(A) sqrt(B), which is
    algebraically identical but avoids square roots of noise-level
    eigenvalues when an argument is rank deficient.  Any factors A = K_a K_a^dag,
    B = K_b K_b^dag give sqrt(A) sqrt(B) = W_a (K_a^dag K_b) W_b^dag with W_a, W_b
    partial isometries (polar decomposition), so its singular values are those of
    the rank A x rank B matrix K_a^dag K_b.  The factors are ``psd_factor``'s, in
    O(d^4 r) for rank r; a matrix whose factor leaves a residual above the PSD
    tolerance raises ValueError.
    """
    a, b = _same_shape(x_hat, x_true, complex)
    ta, tb = np.trace(a).real, np.trace(b).real
    if ta <= 0 or tb <= 0:
        raise ValueError("fidelity requires positive-trace arguments")
    ka, kb = psd_factor(a), psd_factor(b)
    sv = np.linalg.svd(dagger(ka) @ kb, compute_uv=False)
    return float(np.sum(sv) ** 2 / (ta * tb))


def infidelity(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    return 1.0 - fidelity(x_hat, x_true)


def error_scaling_functional(
    d: int,
    trace_f: float,
    num_sets: int,
    povm_cost: float,
    num_states: int,
    ensemble_cost: float,
    copies: float,
) -> float:
    """sqrt(d) * Tr(F) * sqrt(J * tr((C^dag C)^-1)) * sqrt(M * tr((V* V^T)^-1)) / sqrt(N).

    ``povm_cost`` and ``ensemble_cost`` are the bare inverse-Gram traces; the
    J and M factors are applied here.
    """
    if min(d, trace_f, num_sets, povm_cost, num_states, ensemble_cost, copies) <= 0:
        raise ValueError("all scaling-functional arguments must be positive")
    return float(
        np.sqrt(d)
        * trace_f
        * np.sqrt(num_sets * povm_cost)
        * np.sqrt(num_states * ensemble_cost)
        / np.sqrt(copies)
    )


def loglog_slope(x, y) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    lx, ly = np.log10(np.asarray(x, dtype=float)), np.log10(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
