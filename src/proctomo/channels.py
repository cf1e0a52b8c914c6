"""Ground-truth quantum channels.

A channel is held either as a Kraus family {A_i} with sum A_i^dag A_i <= I, or
as its d^2 x d^2 process matrix X in the natural (elementary-matrix) operator
basis.  The two representations are interchangeable: the coordinate vector of
a Kraus operator in the natural basis is its row-major flattening, and
X = sum_i c_i c_i^dag.  Both hold X as ``mat`` (a Kraus family builds it on
first use and keeps it) and act through its real ``linalg.transfer_matrix``,
built on first use and kept as ``transfer``.
Trace-preserving channels have Tr_1(X) = I exactly; general channels satisfy
Tr_1(X) <= I, and F = Tr_1(X) acts as the success operator of the process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    check_int,
    check_psd,
    dagger,
    frob,
    haar_unitary,
    hermitian_part,
    partial_trace_first,
    psd_root,
    square_matrix,
    transfer_matrix,
)

CHANNEL_ATOL = 1e-9

# Diagonal weights of the two seed Kraus operators used by random_channel;
# small enough that any completion spectrum >= 0.3 stays PSD.
_SEED_DIAGS = ((0.5, 0.4), (0.1, 0.2))


class _Channel:
    """``transfer``, the real ``linalg.transfer_matrix`` of ``mat``, built on first read and kept."""

    @functools.cached_property
    def transfer(self) -> np.ndarray:
        return transfer_matrix(self.mat)


@dataclass(frozen=True, eq=False)
class KrausChannel(_Channel):
    """A completely positive map given by Kraus operators, held as one complex
    (K, d, d) stack."""

    kraus: np.ndarray
    label: str = ""

    def __post_init__(self):
        kraus = square_matrix(self.kraus, "Kraus operators", stack=True)
        object.__setattr__(self, "kraus", kraus)
        check_psd(np.eye(self.d) - self.contraction(), "identity minus the Kraus sum of A^dag A", CHANNEL_ATOL)

    @property
    def d(self) -> int:
        return self.kraus.shape[1]

    def contraction(self) -> np.ndarray:
        """sum_i A_i^dag A_i (equals the identity iff trace preserving)."""
        return sum(dagger(a) @ a for a in self.kraus)

    @functools.cached_property
    def mat(self) -> np.ndarray:
        """Process matrix sum_i c_i c_i^dag, c_i = vec(A_i^T), built on first read and kept; PSD by
        construction, so not re-validated."""
        coeffs = self.kraus.reshape(len(self.kraus), -1)
        return coeffs.T @ coeffs.conj()


@dataclass(frozen=True, eq=False)
class ProcessMatrix(_Channel):
    """d^2 x d^2 Hermitian PSD process matrix in the natural basis."""

    mat: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = square_matrix(self.mat, "process matrix")
        object.__setattr__(self, "mat", m)
        if math.isqrt(len(m)) ** 2 != len(m):
            raise ValueError(f"process matrix must be d^2 x d^2, got {m.shape}")
        check_psd(m, "process matrix", CHANNEL_ATOL * max(frob(m), 1.0))
        check_psd(np.eye(self.d) - self.success_operator(), "identity minus the partial trace Tr_1 X", CHANNEL_ATOL)

    @property
    def d(self) -> int:
        return math.isqrt(self.mat.shape[0])

    def success_operator(self) -> np.ndarray:
        """F = Tr_1(X): Hermitian with spectrum in [0, 1], the identity iff TP."""
        return hermitian_part(partial_trace_first(self.mat, self.d))


def process_matrix(ch: KrausChannel) -> ProcessMatrix:
    """Process matrix of a Kraus channel in the natural basis, under the channel's label."""
    return ProcessMatrix(ch.mat, label=ch.label)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(check_int(d, "dimension", 1), dtype=complex),), label=f"identity-{d}")


def unitary_channel(u: np.ndarray, label: str = "") -> KrausChannel:
    u = square_matrix(u, "unitary")
    if frob(u @ dagger(u) - np.eye(len(u))) > CHANNEL_ATOL:
        raise ValueError("matrix is not unitary")
    return KrausChannel((u,), label=label)


def cnot_matrix() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )


def cnot_channel() -> KrausChannel:
    return unitary_channel(cnot_matrix(), label="cnot")


def random_channel(d: int, tp: bool = True, seed=None) -> KrausChannel:
    """Reproducible random channel with three Kraus operators.

    Two operators are random rotations of small fixed diagonals; the third
    completes sum A^dag A to the identity (``tp=True``) or to a random
    rotation of d uniform draws in [0.4, 1].  ``seed`` is None or a non-negative integer.
    """
    d = check_int(d, "dimension", 2)
    rng = np.random.default_rng(seed if seed is None else check_int(seed, "seed", 0))
    diags = [np.pad(diag, (0, d - len(diag))).astype(complex) for diag in _SEED_DIAGS]
    partial = [haar_unitary(d, rng) @ np.diag(g) for g in diags]
    u3 = haar_unitary(d, rng)
    if tp:
        target = np.eye(d, dtype=complex)
    else:
        u4 = haar_unitary(d, rng)
        spec = np.sort(rng.uniform(0.4, 1.0, size=d))[::-1]
        target = (u4 * spec) @ dagger(u4)
    residual = target - sum(dagger(a) @ a for a in partial)
    u, r = psd_root(residual)
    closing = u3 @ ((u * r) @ dagger(u))
    return KrausChannel((*partial, closing), label=f"random-{d}-{'tp' if tp else 'nontp'}")
