"""Dense complex linear-algebra kernel used throughout the package.

Conventions fixed here and relied on everywhere else:

* vec, in formulas, is strictly column-stacking: ``a.reshape(-1, order="F")``.
  The row-stacked coordinate vector of a matrix ``A`` is ``vec(A.T)``, never a
  second convention.
* ``partial_trace_first`` traces out the first (most significant) tensor
  factor, so that ``Tr_1(vec(S) vec(T)^dag) = S T^dag``.
* ``check_int`` is the one rule for every count, dimension and seed a caller supplies
  (an integer, not a bool, of at least a floor; a fraction is refused, never truncated),
  ``check_dimensions`` for every set of objects that must share one dimension d,
  ``real_matrix`` for every probability and frequency matrix (real, 2-D, non-empty, finite),
  ``square_matrix`` for every matrix and stack of matrices that must be square (and finite);
  both coerce through ``numeric_array``, which also reads ``metrics.squared_error``'s arrays of any shape
  and refuses ragged and non-numeric input by name.

Everything is a pure function of its inputs and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

# Hermiticity tolerance of is_hermitian, relative to the matrix norm.
HERMITIAN_RTOL = 1e-10
# Eigenvalues below this fraction of the largest are clamped to zero in
# psd_root; eigenvalues more negative than NEGATIVE_EIG_RTOL are an error.
EIG_CLIP_RTOL = 1e-12
NEGATIVE_EIG_RTOL = 1e-10


def check_int(value, what: str, least: int) -> int:
    """``value`` as a plain int if it is an integer (numpy's included), not a bool, of at
    least ``least``; otherwise a ValueError naming ``what`` and the value."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        floor = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {floor}, got {int(value)}")
    return int(value)


def check_dimensions(dims: dict) -> None:
    """Refuse ``dims``, each name (an object, spec or flag) mapped to the dimension of what it gives,
    unless they share one d; the message names each."""
    if len(set(dims.values())) > 1:
        raise ValueError("dimension mismatch: " + "; ".join(f"{name}: d={d}" for name, d in dims.items()))


def numeric_array(x, what: str, rule: str = "an array of numbers", dtype=None, ranks=None, square=False) -> np.ndarray:
    """``x`` as an array of numbers, of ``dtype`` if given (an array that already is one is not copied), and with
    ``ranks`` one of those ranks, non-empty, with ``square`` square, and finite; else a ValueError naming ``what`` and
    ``rule``, for ragged or non-numeric input too: the one coercion of both matrix rules below and of squared_error."""
    try:
        x = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError):  # a ragged list, or entries that are not numbers
        x = None
    if x is None or x.dtype.kind not in "iufc":
        raise ValueError(f"{what} must be {rule}, got a ragged or non-numeric array")
    if ranks is None:
        return x
    if x.ndim not in ranks or not x.size or square and x.shape[-1] != x.shape[-2]:
        raise ValueError(f"{what} must be {rule}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite, got non-finite entries")
    return x


def real_matrix(x, what: str) -> np.ndarray:
    """``x`` as a float array if it is a real, non-empty, finite 2-D matrix, else a ValueError naming ``what``."""
    try:  # np.iscomplexobj reads a list through np.asarray, which refuses a ragged one; numeric_array names it
        complex_input = np.iscomplexobj(x)
    except ValueError:
        complex_input = False
    if complex_input:
        raise ValueError(f"{what} must be real")
    return numeric_array(x, what, "2-D (states x operators)", float, (2,))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2 of one matrix or each in a stack (times 0.5: numpy's complex / 2 is slower)."""
    return (a + a.conj().swapaxes(-1, -2)) * 0.5


def frob(a: np.ndarray) -> float:
    """Frobenius norm, summed as ``np.linalg.norm`` sums it, bit for bit, without its argument handling:
    one ``dot`` of the raveled entries, or of their real and of their imaginary parts."""
    x = np.asarray(a).ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag) if np.iscomplexobj(x) else x.dot(x))


def is_hermitian(x: np.ndarray, xt: np.ndarray | None = None) -> bool:
    """Whether ``x``, one matrix or a stack, is Hermitian within tolerance: each matrix
    has ||x - x^dag||_F <= HERMITIAN_RTOL * max(||x||_F, 1).  This is the package's one
    Hermiticity rule; ``xt`` is x^dag, if the caller has it.  A NaN norm fails no comparison,
    so callers that need finite input check it themselves."""
    xt = x.conj().swapaxes(-1, -2) if xt is None else xt
    if x.ndim == 2:  # frob, not norm(axis=...), keeps the per-estimate calls cheap
        return not frob(x - xt) > HERMITIAN_RTOL * max(frob(x), 1.0)
    skew = np.linalg.norm(x - xt, axis=(-2, -1))
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
    # In place on the taken arrays: at d = 16 a fresh temporary costs more than its arithmetic.
    y = z.take(back, axis=1)
    y *= back_sign
    y = y.view(complex)
    # Entry e of B c is c[back[2e]] + i back_sign[2e + 1] c[back[2e + 1]].
    out, im = y.take(back[::2], axis=0), y.take(back[1::2], axis=0)
    im *= 1j * back_sign[1::2, None]
    out += im
    return out


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
    """Kronecker product along every axis of arrays of one rank, first array slowest:
    ``(n_i, r_i, c_i)`` stacks give the ``(n_1 ... n_k, r_1 ... r_k, c_1 ... c_k)`` stack
    of the Kronecker products of one matrix from each, and 1-D arrays their np.kron.

    Folds left with one broadcast multiply per array, its axes interleaved with the
    accumulator's by reshape, in np.kron's operand order, so every entry is
    bit-identical to ``np.kron(np.kron(a, b), c)``.
    """
    acc = stacks[0]
    for s in stacks[1:]:
        a = acc.reshape([n for k in acc.shape for n in (k, 1)])  # acc's axes at even positions
        b = s.reshape([n for k in s.shape for n in (1, k)])  # and s's at odd ones
        acc = np.multiply(a, b).reshape([m * n for m, n in zip(acc.shape, s.shape)])
    return acc


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
    """``herm_coords`` of the Kronecker products x (x) y, y fastest, from ``a`` and ``b`` of one
    rank whose first axes hold the d_1^2 and d_2^2 coordinates of the x and the y.  Their other
    axes interleave as in :func:`kron_stack`: d^2 x N arrays give all N_1 N_2 products, and
    (d^2, sets, elements) arrays give them set-major.  Row g of the result is a sum of two
    signed Kronecker products of a row of ``a`` and one of ``b``.  It maps the pseudo-inverses
    of :func:`herm_pinv` of two designs to that of their product, since the map is orthogonal
    in the orthonormal coordinates."""
    i, j, sign = _herm_kron_index(math.isqrt(len(a)), math.isqrt(len(b)))
    # One batch of rank-2 outer products, (N_1 x 2) @ (2 x N_2) per row, N the other axes' sizes.
    x = a[i].reshape(*i.shape, -1) * sign[:, :, None]
    rows = np.matmul(x.transpose(1, 2, 0), b[j].reshape(*j.shape, -1).transpose(1, 0, 2))
    k = a.ndim - 1  # rows holds a's other axes, then b's: interleave them, a's first
    order = np.arange(1, 2 * k + 1).reshape(2, k).T.flat
    rows = rows.reshape(len(rows), *a.shape[1:], *b.shape[1:]).transpose(0, *order)
    return rows.reshape(len(rows), *np.multiply(a.shape[1:], b.shape[1:]))


def partial_trace_first(x: np.ndarray, d: int) -> np.ndarray:
    """Trace out the first tensor factor of a d^2 x d^2 matrix.

    For X = vec(S) vec(T)^dag this returns S @ T^dag.
    """
    x = np.asarray(x)
    if x.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d}x{d * d} matrix, got {x.shape}")
    return x.reshape(d, d, d, d).trace(axis1=0, axis2=2)


def square_matrix(x, what: str = "matrix", stack: bool | None = False) -> np.ndarray:
    """``x`` as a complex array if it is one finite, non-empty square matrix or, with ``stack``, a
    non-empty 3-D stack of them (with ``stack=None``, either), else a ValueError naming ``what``,
    for ragged or non-numeric input too."""
    ranks = {False: (2,), True: (3,), None: (2, 3)}[stack]
    rule = " or ".join(("a square matrix", "a stack of square matrices of one size")[r - 2] for r in ranks)
    return numeric_array(x, what, rule, complex, ranks, square=True)


def _hermitian(x: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Hermitian part of what :func:`square_matrix` passed, each matrix passing :func:`is_hermitian`,
    else a ValueError naming ``what``: with it, the package's one Hermitian gate."""
    xt = x.conj().swapaxes(-1, -2)  # one conjugate transpose for the test and the part
    if not is_hermitian(x, xt):
        raise ValueError(f"{what} is not Hermitian")
    return (x + xt) * 0.5  # hermitian_part(x), bit for bit


def hermitian_eig(x: np.ndarray, check: bool = True):
    """Eigendecomposition of one Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` sorted descending and unitary
    ``u`` such that ``x = u @ diag(w) @ u^dag``.  The input is symmetrized
    first; with ``check`` it must pass :func:`_hermitian`, and either way :func:`square_matrix`.
    """
    w, u = np.linalg.eigh(_hermitian(square_matrix(x)) if check else hermitian_part(square_matrix(x)))
    return w[::-1], u[:, ::-1]


def check_psd(x, what: str, atol: float, unit_trace: bool = False) -> np.ndarray:
    """The Hermitian part of ``x`` (one matrix or a stack), after checking that each
    matrix passes :func:`_hermitian`, is PSD within ``atol``, and, with ``unit_trace``, has
    trace within ``atol`` of 1 and a positive part of trace at most 1 + atol, which bounds
    its probabilities' sums for any d.  Constructors of states, POVM elements and process
    matrices validate through it, and so does ``metrics.fidelity``, so nothing downstream
    decides Hermiticity again.  One batched Cholesky of the Hermitian parts, their diagonals
    shifted by atol (by 0 with ``unit_trace``: a positive definite matrix is its own positive
    part), certifies them, as it succeeds exactly when no eigenvalue is below -atol (0).  If
    any matrix fails it, ``eigvalsh`` rules and names the least eigenvalue or the matrix's
    index, so the verdict can differ from eigvalsh's alone only by rounding at exactly -atol (0)."""
    xh = _hermitian(square_matrix(x, what, stack=None), what)
    diag = np.einsum("...ii->...i", xh)  # a writable view: shifted and restored in place, no eye or copy
    saved = diag.copy()
    diag += 0.0 if unit_trace else atol
    try:
        np.linalg.cholesky(xh)
        failed = False
    except np.linalg.LinAlgError:
        failed = True
    diag[...] = saved
    if failed and (w := np.linalg.eigvalsh(xh))[..., 0].min() < -atol:
        raise ValueError(f"{what} has negative eigenvalue {w[..., 0].min():.3e}")
    if unit_trace and np.any(np.abs(np.trace(xh, axis1=-2, axis2=-1).real - 1.0) > atol):
        raise ValueError(f"{what} does not have unit trace")
    positive = np.maximum(w, 0.0).sum(axis=-1).reshape(-1) if unit_trace and failed else [0.0]
    if max(positive) > 1.0 + atol:
        i = int(np.argmax(positive))
        raise ValueError(f"{what} {i} has a positive part of trace {positive[i]:.15g}, above 1 + {atol:g}")
    return xh


def psd_root(x: np.ndarray):
    """``(u, r)``: the eigenvectors of a Hermitian PSD matrix and the square roots of its
    eigenvalues, descending.  Tiny negative eigenvalues (rounding noise) and those below
    EIG_CLIP_RTOL of the largest become zero; a significantly negative one raises ValueError."""
    w, u = hermitian_eig(x)
    top = max(w[0], 0.0)
    if w[-1] < -NEGATIVE_EIG_RTOL * max(top, 1.0):
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    return u, np.sqrt(np.where(w > EIG_CLIP_RTOL * top, w, 0.0))


def _pivoted_rows(xh: np.ndarray) -> np.ndarray:
    """The rows of K^dag, K the diagonal-pivoted Cholesky factor of the Hermitian ``xh``, in
    O(n^2 r) for rank r, in one n x n buffer of which np.empty maps only the rows written.

    Each step pivots on the largest remaining diagonal entry.  The loop stops
    once that entry is at most max(EIG_CLIP_RTOL / n, n eps) times the largest
    diagonal entry of x, so the rule is scale invariant.  The remainder is then
    PSD with norm at most n times its largest diagonal entry: at most
    EIG_CLIP_RTOL * lambda_max, the level below which psd_root clips, for n <= 67;
    above that, n eps (LAPACK xPSTRF's default) keeps the loop from pivoting on
    the rounding the Schur updates leave.
    """
    n = len(xh)
    diag = xh.diagonal().real.copy()
    stop = max(EIG_CLIP_RTOL / n, n * np.finfo(float).eps) * max(diag.max(), 0.0)
    rows = np.empty((n, n), dtype=complex)
    for r in range(n):
        p = diag.argmax()
        top = diag[p]
        if not top > stop:
            return rows[:r]
        # Row r of K^dag is conj of the residual's column p over sqrt(top).
        rows[r] = (xh[p] - rows[:r, p].conj() @ rows[:r]) / math.sqrt(top)
        diag -= np.square(np.abs(rows[r]))
    return rows


def psd_tolerance(x: np.ndarray) -> float:
    """tau = NEGATIVE_EIG_RTOL * max(largest diagonal entry, 1), the PSD tolerance of :func:`psd_factor`
    and ``metrics.fidelity``: as lambda_max >= that entry, lambda_min >= -tau passes :func:`psd_root`."""
    return NEGATIVE_EIG_RTOL * max(x.diagonal().real.max(), 1.0)


def psd_factor(x: np.ndarray) -> np.ndarray:
    """An n x r factor K of a Hermitian PSD matrix, K K^dag = x up to what :func:`psd_root`
    clips, from the pivoted Cholesky of its Hermitian part xh, checked as in :func:`hermitian_eig`.
    The residual ||xh - K K^dag||_F <= tau, tau of :func:`psd_tolerance`, certifies x PSD, else
    ValueError: it gives lambda_min >= -tau, so nothing psd_root refuses is accepted."""
    xh = _hermitian(square_matrix(x))
    k = dagger(_pivoted_rows(xh))
    tau = psd_tolerance(xh)
    if not (residual := frob(xh - k @ dagger(k))) <= tau:  # also refuses NaN
        raise ValueError(f"matrix is not PSD: residual {residual:.3e} of its pivoted Cholesky factor "
                         f"exceeds {tau:.3e}")
    return k


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phase-fixed)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases
