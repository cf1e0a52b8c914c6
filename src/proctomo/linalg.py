"""Dense complex linear-algebra kernel used throughout the package.

Conventions fixed here and relied on everywhere else:

* vec, in formulas, is strictly column-stacking: ``a.reshape(-1, order="F")``.
  The row-stacked coordinate vector of a matrix ``A`` is ``vec(A.T)``, never a
  second convention.
* ``partial_trace_first`` traces out the first (most significant) tensor
  factor, so that ``Tr_1(vec(S) vec(T)^dag) = S T^dag``.

Everything is a pure function of its inputs and safe to share across threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Hermiticity tolerance of is_hermitian, relative to the matrix norm.
HERMITIAN_RTOL = 1e-10
# Eigenvalues below this fraction of the largest are clamped to zero in
# psd_root; eigenvalues more negative than NEGATIVE_EIG_RTOL are an error.
EIG_CLIP_RTOL = 1e-12
NEGATIVE_EIG_RTOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2 of one matrix or of each matrix in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def is_hermitian(x: np.ndarray) -> bool:
    """Whether ``x``, one matrix or a stack, is Hermitian within tolerance: each matrix
    has ||x - x^dag||_F <= HERMITIAN_RTOL * max(||x||_F, 1).  This is the package's one
    Hermiticity rule.  A NaN norm fails no comparison, so callers that need finite
    input check it themselves."""
    if x.ndim == 2:  # frob, not norm(axis=...), keeps the per-estimate calls cheap
        return not frob(x - dagger(x)) > HERMITIAN_RTOL * max(frob(x), 1.0)
    skew = np.linalg.norm(x - x.conj().swapaxes(-1, -2), axis=(-2, -1))
    return not np.any(skew > HERMITIAN_RTOL * np.maximum(np.linalg.norm(x, axis=(-2, -1)), 1.0))


@functools.cache
def _herm_index(d: int):
    """Gathers of herm_coords and from_herm_coords on the real view [Re x_00, Im x_00, ...]."""
    i, j = np.triu_indices(d, 1)
    n = i.size
    diag, upper, lower = 2 * (d + 1) * np.arange(d), 2 * (i * d + j), 2 * (j * d + i)
    first, second = np.r_[diag, upper, upper + 1], np.r_[diag, lower, lower + 1]
    # from_herm_coords gathers every entry from the coordinates, then signs it:
    # conjugates below the diagonal, zero imaginary parts on it.
    back, back_sign = np.zeros(2 * d * d, dtype=np.intp), np.ones(2 * d * d)
    back[first], back[lower], back[lower + 1] = range(d * d), d + np.arange(n), d + n + np.arange(n)
    back_sign[lower + 1], back_sign[diag + 1] = -1.0, 0.0
    return first, second, np.repeat([1.0, 1.0, -1.0], [d, n, n]), back, back_sign


def herm_coords(x) -> np.ndarray:
    """Real coordinates of the Hermitian part of each d x d matrix in a stack: the
    diagonal, then Re and Im of the strict upper triangle, row by row.  Tr(A B) of
    Hermitian A, B is the dot product of theirs with the off-diagonal ones doubled."""
    x = np.ascontiguousarray(x, dtype=complex)
    first, second, sign, _, _ = _herm_index(x.shape[-1])
    v = x.reshape(*x.shape[:-2], x.shape[-1] ** 2).view(float)
    return (v.take(first, axis=-1) + sign * v.take(second, axis=-1)) / 2


def from_herm_coords(c) -> np.ndarray:
    """The Hermitian matrices with coordinates ``c``; inverts :func:`herm_coords`."""
    c = np.asarray(c, dtype=float)
    d = math.isqrt(c.shape[-1])
    if d < 1 or d * d != c.shape[-1]:
        raise ValueError(f"{c.shape[-1]} coordinates are not those of a square matrix")
    _, _, _, back, back_sign = _herm_index(d)
    return (c.take(back, axis=-1) * back_sign).view(complex).reshape(*c.shape[:-1], d, d)


def from_herm_bilinear(z) -> np.ndarray:
    """B z B^T of a real d^2 x d^2 ``z``, column k of B the row-major k-th basis matrix of
    :func:`from_herm_coords`: its gather along the rows of ``z``, then along the columns."""
    z = np.asarray(z, dtype=float)
    _, _, _, back, back_sign = _herm_index(math.isqrt(len(z)))
    y = (z.take(back, axis=1) * back_sign).view(complex)
    # Entry e of B c is c[back[2e]] + i back_sign[2e + 1] c[back[2e + 1]].
    return y.take(back[::2], axis=0) + 1j * back_sign[1::2, None] * y.take(back[1::2], axis=0)


def transfer_matrix(x) -> np.ndarray:
    """The real d^2 x d^2 T with ``herm_coords(E(rho)) = T @ herm_coords(rho)`` for Hermitian
    rho, E(rho) = sum_jk x_jk E_j rho E_k^dag the channel of the process matrix ``x``.  Column
    k of T holds the coordinates of E applied to the k-th basis matrix of :func:`from_herm_coords`."""
    x = np.asarray(x, dtype=complex)
    d = math.isqrt(x.shape[0])
    # Swapping the middle digits gives the map on row-major flattenings:
    # E(rho)[a, c] = sum_bd x[(a, b), (c, d)] rho[b, d].
    flat_map = x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    basis = from_herm_coords(np.eye(d * d)).reshape(d * d, d * d)
    return herm_coords((basis @ flat_map.T).reshape(-1, d, d)).T


def kron_stack(stacks) -> np.ndarray:
    """Kronecker products of one matrix from each ``(n_i, r_i, c_i)`` stack, first
    stack slowest, as an ``(n_1 ... n_k, r_1 ... r_k, c_1 ... c_k)`` stack.

    Folds left with one broadcast multiply per stack, in np.kron's operand
    order, so every entry is bit-identical to ``np.kron(np.kron(a, b), c)``.
    """
    acc = stacks[0]
    for s in stacks[1:]:
        (n, r, c), (k, p, q) = acc.shape, s.shape
        prod = np.multiply(acc[:, None, :, None, :, None], s[None, :, None, :, None, :])
        acc = prod.reshape(n * k, r * p, c * q)
    return acc


def kron_regroup(pairs) -> np.ndarray:
    """Index array taking a Kronecker index (a_1, b_1, ..., a_k, b_k), first digit
    slowest and digit ranges ``pairs = [(A_1, B_1), ...]``, to the grouped index
    (a_1 ... a_k, b_1 ... b_k): entry g is the Kronecker position of grouped position g.

    Two instances: vec(A_1 x ... x A_k) is vec(A_1) x ... x vec(A_k) read at
    ``kron_regroup([(c_i, r_i)])``, and so is the row-major flattening with
    ``kron_regroup([(r_i, c_i)])``.
    """
    shape = [n for pair in pairs for n in pair]
    k = len(shape)
    grid = np.arange(int(np.prod(shape))).reshape(shape)
    return grid.transpose([*range(0, k, 2), *range(1, k, 2)]).reshape(-1)


def herm_pinv(coords):
    """``(s, pinv)`` of the real N x d^2 ``coords``, row n the ``herm_coords`` of a Hermitian x_n:
    the descending singular values s of the map X -> [Tr(x_n X)]_n, and a function returning
    its d^2 x N pseudo-inverse, column n in ``herm_coords``.  One real SVD in orthonormal
    coordinates, the off-diagonal ones times sqrt 2, gives both, and s is also the spectrum of
    the complex map on all d x d matrices.  The pseudo-inverse is formed only on call, so a
    caller can refuse a rank-deficient map before dividing by s."""
    scale = np.where(np.arange(coords.shape[1]) < math.isqrt(coords.shape[1]), 1.0, math.sqrt(2.0))
    u, s, vt = np.linalg.svd(coords * scale, full_matrices=False)
    # pinv = D^-1 pinv(coords D) = D^-1 vt^T s^-1 u^T, D = diag(scale).
    return s, lambda: (vt.T / np.outer(scale, s)) @ u.T


@functools.cache
def _herm_kron_index(d1: int, d2: int):
    """Gather of :func:`herm_kron`: herm_coords(x (x) y) = G (herm_coords(x) (x) herm_coords(y)),
    column (k1, k2) of G ``herm_coords(E_k1 x F_k2)``, E and F the basis matrices of
    :func:`from_herm_coords`.  G's entries are 0 and +-1, at most two non-zero in a row; returns
    the k1 and the k2 of two per row, as 2 x d1^2 d2^2 arrays, and their signs.  A row with one
    gets a second of sign 0."""
    g_t = herm_coords(kron_stack([from_herm_coords(np.eye(d * d)) for d in (d1, d2)]))
    index = np.argsort(g_t == 0, axis=0, kind="stable")[:2]
    return *np.divmod(index, d2 * d2), np.take_along_axis(g_t, index, axis=0)


def herm_kron(a, b) -> np.ndarray:
    """``herm_coords`` of the Kronecker products x (x) y, y fastest, from the d_1^2 x N_1 ``a``
    and d_2^2 x N_2 ``b`` that hold those of the x and the y in their columns.  Row g of the
    result is a sum of two signed Kronecker products of a row of ``a`` and one of ``b``.  It
    maps the pseudo-inverses of :func:`herm_pinv` of two designs to that of their product,
    since the map is orthogonal in the orthonormal coordinates."""
    i, j, sign = _herm_kron_index(math.isqrt(len(a)), math.isqrt(len(b)))
    # One batch of rank-2 outer products, (N_1 x 2) @ (2 x N_2) per row.
    rows = np.matmul((a[i] * sign[:, :, None]).transpose(1, 2, 0), b[j].transpose(1, 0, 2))
    return rows.reshape(len(rows), -1)


def partial_trace_first(x: np.ndarray, d: int) -> np.ndarray:
    """Trace out the first tensor factor of a d^2 x d^2 matrix.

    For X = vec(S) vec(T)^dag this returns S @ T^dag.
    """
    x = np.asarray(x)
    if x.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d}x{d * d} matrix, got {x.shape}")
    return x.reshape(d, d, d, d).trace(axis1=0, axis2=2)


def _hermitian(x: np.ndarray, check: bool = True) -> np.ndarray:
    """Hermitian part of a square matrix; with ``check`` it must be finite and pass :func:`is_hermitian`."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if check and not np.all(np.isfinite(x)):
        raise ValueError("matrix has non-finite entries")
    if check and not is_hermitian(x):
        raise ValueError("matrix is not Hermitian within tolerance")
    return hermitian_part(x)


def hermitian_eig(x: np.ndarray, check: bool = True):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` sorted descending and unitary
    ``u`` such that ``x = u @ diag(w) @ u^dag``.  The input is symmetrized
    first; with ``check`` it must be finite and pass :func:`is_hermitian`.
    """
    w, u = np.linalg.eigh(_hermitian(x, check))
    return w[::-1], u[:, ::-1]


def square_stack(x, error: str) -> np.ndarray:
    """``x`` as a complex (n, d, d) stack with n, d >= 1, or ValueError(error)."""
    try:
        x = np.asarray(x, dtype=complex)
    except ValueError:  # ragged
        raise ValueError(error) from None
    if x.ndim != 3 or x.shape[1] != x.shape[2] or not x.size:
        raise ValueError(error)
    return x


def check_psd(x, what: str, atol: float, unit_trace: bool = False) -> np.ndarray:
    """Return ``x`` (one matrix or a stack) as a complex array after checking that
    each matrix is finite, Hermitian by :func:`is_hermitian`, PSD within ``atol``, and,
    with ``unit_trace``, of trace within ``atol`` of 1 and of positive part's trace at
    most 1 + atol, which bounds its probabilities' sums for any d.  Constructors of states,
    POVM elements and process matrices validate through it, so nothing downstream decides
    Hermiticity again.  One batched Cholesky of the Hermitian parts plus atol * I (plus 0
    with ``unit_trace``: a positive definite matrix is its own positive part) certifies
    them, as it succeeds exactly when no eigenvalue is below -atol (0).  If any matrix fails
    it, ``eigvalsh`` rules and names the least eigenvalue or the matrix's index, so the
    verdict can differ from eigvalsh's alone only by rounding at exactly -atol (0)."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or not x.size:
        raise ValueError(f"{what} must be a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} has non-finite entries")
    if not is_hermitian(x):
        raise ValueError(f"{what} is not Hermitian")
    w = None
    try:
        np.linalg.cholesky(hermitian_part(x) + (0.0 if unit_trace else atol) * np.eye(x.shape[-1]))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(hermitian_part(x))
        if w[..., 0].min() < -atol:
            raise ValueError(f"{what} has negative eigenvalue {w[..., 0].min():.3e}") from None
    if unit_trace and np.any(np.abs(np.trace(x, axis1=-2, axis2=-1).real - 1.0) > atol):
        raise ValueError(f"{what} does not have unit trace")
    positive = np.maximum(w, 0.0).sum(axis=-1).reshape(-1) if unit_trace and w is not None else [0.0]
    if max(positive) > 1.0 + atol:
        i = int(np.argmax(positive))
        raise ValueError(f"{what} {i} has a positive part of trace {positive[i]:.15g}, above 1 + {atol:g}")
    return x


def psd_root(x: np.ndarray):
    """``(u, r)``: the eigenvectors of a Hermitian PSD matrix and the square roots of its
    eigenvalues, descending.  Tiny negative eigenvalues (rounding noise) and those below
    EIG_CLIP_RTOL of the largest become zero; a significantly negative one raises ValueError."""
    w, u = hermitian_eig(x)
    top = max(w[0], 0.0)
    if w[-1] < -NEGATIVE_EIG_RTOL * max(top, 1.0):
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    return u, np.sqrt(np.where(w > EIG_CLIP_RTOL * top, w, 0.0))


def psd_factor(x: np.ndarray) -> np.ndarray:
    """An n x r factor K of a Hermitian PSD matrix, K K^dag = x up to what
    :func:`psd_root` clips, by diagonal-pivoted Cholesky in O(n^2 r).

    Each step pivots on the largest remaining diagonal entry.  The loop stops
    once that entry is at most max(EIG_CLIP_RTOL / n, n eps) times the largest
    diagonal entry of x, so the rule is scale invariant.  The remainder is then
    PSD with norm at most n times its largest diagonal entry: at most
    EIG_CLIP_RTOL * lambda_max, the level below which psd_root clips, for n <= 67;
    above that, n eps (LAPACK xPSTRF's default) keeps the loop from pivoting on
    the rounding the Schur updates leave.

    The input must be Hermitian as in :func:`hermitian_eig`.  Separately from
    the stopping rule, ||x - K K^dag||_F <= tau = NEGATIVE_EIG_RTOL * max(max
    diagonal, 1) certifies it PSD: lambda_max >= max diagonal and lambda_min >=
    -||x - K K^dag||, so no matrix that psd_root refuses is accepted.
    """
    xh = _hermitian(x)
    n = len(xh)
    diag = xh.diagonal().real.copy()
    top_diag = diag.max()
    tau = NEGATIVE_EIG_RTOL * max(top_diag, 1.0)
    stop = max(EIG_CLIP_RTOL / n, n * np.finfo(float).eps) * max(top_diag, 0.0)
    rows = np.empty((n, n), dtype=complex)  # rows of K^dag
    r = 0
    while r < n:
        p = diag.argmax()
        top = diag[p]
        if not top > stop:
            break
        # Row r of K^dag is conj of the residual's column p over sqrt(top).
        rows[r] = (xh[p] - rows[:r, p].conj() @ rows[:r]) / np.sqrt(top)
        diag -= np.square(np.abs(rows[r]))
        r += 1
    k = dagger(rows[:r])
    residual = frob(xh - k @ rows[:r])
    if not residual <= tau:  # also refuses NaN
        raise ValueError(
            f"matrix is not PSD: residual {residual:.3e} of its pivoted Cholesky factor exceeds {tau:.3e}"
        )
    return k


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phase-fixed)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases
