"""Error and fidelity metrics for process estimates.

The fidelity between two PSD matrices is normalized by both traces, so it is
scale invariant, symmetric, and equals one exactly for proportional
arguments.  It factors the argument of lower effective rank by pivoted
Cholesky, with a relative stopping rule, and certifies the other with
``linalg.check_psd``, the constructors' certificate; a conditioning guard
falls back to factoring both.  No d^2 x d^2 eigendecomposition runs.
``error_scaling_functional`` evaluates the bracketed part of the analytic
error bound sqrt(d) Tr(F) sqrt(J tr_C) sqrt(M tr_V) / sqrt(N); it is a
relative scaling functional, with no attempt to estimate the hidden constant.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_psd, dagger, frob, numeric_array, psd_factor, psd_tolerance, square_matrix


def _same_shape(x_hat, x_true) -> tuple:
    """Both arguments as arrays of numbers (``linalg.numeric_array``) of one shape, else a ValueError naming either."""
    a, b = numeric_array(x_hat, "estimate"), numeric_array(x_true, "truth")
    if a.shape != b.shape:
        raise ValueError(f"cannot compare an estimate of shape {a.shape} with a truth of shape {b.shape}")
    return a, b


def squared_error(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    return frob(np.subtract(*_same_shape(x_hat, x_true))) ** 2


# Rounding moves each eigenvalue m of the Gram matrix over Tr A Tr B by about eps, so F =
# (sum sqrt m)^2 by up to E = eps (sum sqrt m) (sum m^-1/2) to first order; one factor is
# used while E <= GRAM_ATOL, a tenth of the 1e-12 fidelity is tested to against two factors.
GRAM_ATOL = 1e-13


def fidelity(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """[Tr sqrt(sqrt(A) B sqrt(A))]^2 / (Tr A Tr B) for PSD A, B.

    For any factor B = K K^dag it is (sum sqrt mu)^2 / (Tr A Tr B), mu the eigenvalues of
    K^dag A K (sqrt(B) is K times a partial isometry), with no square root of a noise-level
    eigenvalue of A or B.  ``linalg.psd_factor`` factors the argument of lower effective rank
    (Tr X)^2 / ||X||_F^2, the first on a tie, and ``linalg.check_psd`` certifies the other, both
    at ``linalg.psd_tolerance``.  A Gram matrix too ill-conditioned to give F within GRAM_ATOL
    is the one guard: it factors the other argument too and takes the singular values of K_a^dag K_b.
    """
    a, b = _same_shape(square_matrix(x_hat, "estimate"), square_matrix(x_true, "truth"))  # a stack would pass check_psd
    ta, tb = np.trace(a).real, np.trace(b).real
    if ta <= 0 or tb <= 0:
        raise ValueError("fidelity requires positive-trace arguments")
    # The effective ranks, cross-multiplied.  A NaN fails the comparison; either way a is
    # checked before b, and both are checked.
    first = ta**2 * np.vdot(b, b).real <= tb**2 * np.vdot(a, a).real
    if first:
        k, z = psd_factor(a), check_psd(b, "matrix", psd_tolerance(b))
    else:
        z, k = check_psd(a, "matrix", psd_tolerance(a)), psd_factor(b)
    m = np.linalg.eigvalsh(dagger(k) @ z @ k) / (ta * tb)
    if m[0] > 0 and np.finfo(float).eps * (s := np.sqrt(m)).sum() * (1 / s).sum() <= GRAM_ATOL:
        return float(s.sum() ** 2)
    ka, kb = (k, psd_factor(b)) if first else (psd_factor(a), k)  # the Gram guard
    return float(np.sum(np.linalg.svd(dagger(ka) @ kb, compute_uv=False)) ** 2 / (ta * tb))


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
    for name, value in dict(locals()).items():  # the seven arguments, by name
        if value <= 0:
            raise ValueError("all scaling-functional arguments must be positive")
        if not np.isfinite(value):  # NaN passes the comparison above
            raise ValueError(f"scaling-functional argument {name} must be finite, got {value!r}")
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
