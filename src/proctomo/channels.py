"""Ground-truth quantum channels.

A channel is held either as a Kraus family {A_i} with sum A_i^dag A_i <= I, or
as its d^2 x d^2 process matrix X in the natural (elementary-matrix) operator
basis.  The two representations are interchangeable: the coordinate vector of
a Kraus operator in the natural basis is its row-major flattening, and
X = sum_i c_i c_i^dag.  Trace-preserving channels have Tr_1(X) = I exactly;
general channels satisfy Tr_1(X) <= I, and F = Tr_1(X) acts as the success
operator of the process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    dagger,
    frob,
    haar_unitary,
    hermitian_eig,
    hermitian_part,
    partial_trace_first,
    psd_sqrt,
)

CHANNEL_ATOL = 1e-9

# Diagonal weights of the two seed Kraus operators used by random_channel;
# small enough that any completion spectrum >= 0.3 stays PSD.
_SEED_DIAGS = ((0.5, 0.4), (0.1, 0.2))


def _as_operator_stack(ops) -> np.ndarray:
    arr = np.asarray([np.asarray(a, dtype=complex) for a in ops])
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("Kraus operators must be a list of square matrices of equal size")
    if not np.all(np.isfinite(arr)):
        raise ValueError("Kraus operators contain non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive map given by Kraus operators."""

    kraus: tuple
    label: str = ""

    def __post_init__(self):
        arr = _as_operator_stack(self.kraus)
        object.__setattr__(self, "kraus", tuple(arr))
        total = self.contraction()
        w, _ = hermitian_eig(total)
        if w[0] > 1.0 + CHANNEL_ATOL:
            raise ValueError(f"sum of A^dag A exceeds identity (max eigenvalue {w[0]:.6g})")

    @property
    def d(self) -> int:
        return self.kraus[0].shape[0]

    def contraction(self) -> np.ndarray:
        """sum_i A_i^dag A_i (equals the identity iff trace preserving)."""
        return sum(dagger(a) @ a for a in self.kraus)

    @property
    def is_trace_preserving(self) -> bool:
        return frob(self.contraction() - np.eye(self.d)) <= CHANNEL_ATOL * self.d

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_i A_i rho A_i^dag, without input validation."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for a in self.kraus:
            out += a @ rho @ dagger(a)
        return out


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """d^2 x d^2 Hermitian PSD process matrix in the natural basis."""

    mat: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        d = int(round(np.sqrt(m.shape[0])))
        if m.ndim != 2 or m.shape != (d * d, d * d):
            raise ValueError(f"process matrix must be d^2 x d^2, got {m.shape}")
        scale = max(frob(m), 1.0)
        if frob(m - dagger(m)) > CHANNEL_ATOL * scale:
            raise ValueError("process matrix is not Hermitian")
        w, _ = hermitian_eig(m)
        if w[-1] < -CHANNEL_ATOL * scale:
            raise ValueError(f"process matrix has negative eigenvalue {w[-1]:.3e}")
        f, _ = hermitian_eig(self.success_operator())
        if f[0] > 1.0 + CHANNEL_ATOL:
            raise ValueError(f"partial trace exceeds identity (max eigenvalue {f[0]:.6g})")

    @property
    def d(self) -> int:
        return int(round(np.sqrt(self.mat.shape[0])))

    def success_operator(self) -> np.ndarray:
        return hermitian_part(partial_trace_first(self.mat, self.d))

    @property
    def is_trace_preserving(self) -> bool:
        return frob(self.success_operator() - np.eye(self.d)) <= CHANNEL_ATOL * self.d

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel: sum_{jk} X_jk E_j rho E_k^dag in the natural basis."""
        d = self.d
        rho = np.asarray(rho, dtype=complex)
        xr = self.mat.reshape(d, d, d, d)
        # E_j rho E_k^dag picks entry rho[col_j, col_k] into slot (row_j, row_k).
        return np.einsum("abcd,bd->ac", xr, rho)


def process_matrix(ch: KrausChannel, label: str | None = None) -> ProcessMatrix:
    """Process matrix of a Kraus channel in the natural basis."""
    coeffs = np.asarray([a.reshape(-1) for a in ch.kraus])  # row-major = vec(A^T)
    x = coeffs.T @ coeffs.conj()
    return ProcessMatrix(x, label=label if label is not None else ch.label)


def as_process_matrix(ch) -> ProcessMatrix:
    """``ch`` itself if it is a ProcessMatrix, else the process matrix of its Kraus family."""
    return ch if isinstance(ch, ProcessMatrix) else process_matrix(ch)


def _validate_state(rho: np.ndarray, d: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"state has shape {rho.shape}, expected ({d}, {d})")
    if frob(rho - dagger(rho)) > CHANNEL_ATOL:
        raise ValueError("state is not Hermitian")
    w = np.linalg.eigvalsh(hermitian_part(rho))
    if w[0] < -CHANNEL_ATOL:
        raise ValueError(f"state has negative eigenvalue {w[0]:.3e}")
    if abs(np.trace(rho).real - 1.0) > CHANNEL_ATOL:
        raise ValueError(f"state trace {np.trace(rho).real:.6g} != 1")
    return rho


def apply_channel(op, rho: np.ndarray) -> np.ndarray:
    """Output operator of the channel on a validated density matrix.

    ``op`` may be a KrausChannel or a ProcessMatrix; both routes agree.
    """
    if not isinstance(op, (KrausChannel, ProcessMatrix)):
        raise TypeError(f"cannot apply object of type {type(op).__name__}")
    rho = _validate_state(rho, op.d)
    return op.apply(rho)


def success_operator(x: ProcessMatrix) -> np.ndarray:
    """F = Tr_1(X): Hermitian with spectrum in [0, 1], the identity iff TP."""
    return x.success_operator()


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d, dtype=complex),), label=f"identity-{d}")


def unitary_channel(u: np.ndarray, label: str = "") -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if frob(u @ dagger(u) - np.eye(u.shape[0])) > CHANNEL_ATOL:
        raise ValueError("matrix is not unitary")
    return KrausChannel((u,), label=label)


def cnot_matrix() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )


def cnot_channel() -> KrausChannel:
    return unitary_channel(cnot_matrix(), label="cnot")


def random_channel(
    d: int,
    tp: bool = True,
    seed=None,
    f_spectrum=None,
    label: str | None = None,
) -> KrausChannel:
    """Reproducible random channel with three Kraus operators.

    Two operators are random rotations of small fixed diagonals; the third
    completes sum A^dag A to the identity (``tp=True``) or to a random
    rotation of ``f_spectrum`` (defaults to uniform draws in [0.4, 1]).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    partial = []
    for diag in _SEED_DIAGS:
        g = np.zeros(d)
        g[: len(diag)] = diag
        partial.append(haar_unitary(d, rng) @ np.diag(g.astype(complex)))
    u3 = haar_unitary(d, rng)
    if tp:
        target = np.eye(d, dtype=complex)
    else:
        u4 = haar_unitary(d, rng)
        if f_spectrum is None:
            spec = np.sort(rng.uniform(0.4, 1.0, size=d))[::-1]
        else:
            spec = np.asarray(f_spectrum, dtype=float)
            if spec.size != d:
                raise ValueError(f"f_spectrum must have {d} entries")
        target = (u4 * spec) @ dagger(u4)
    residual = target - sum(dagger(a) @ a for a in partial)
    closing = u3 @ psd_sqrt(residual)
    if label is None:
        label = f"random-{d}-{'tp' if tp else 'nontp'}"
    return KrausChannel((*partial, closing), label=label)
