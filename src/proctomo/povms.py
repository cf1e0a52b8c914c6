"""POVM collections and their design metrics.

A measurement plan is J POVM sets; set j has n_j PSD elements summing to the
identity.  All L = sum n_j elements are stacked into the L x d^2
parameterization C, row l = vec(P_l^T), so that C @ vec(rho) is the vector of
outcome probabilities Tr(P_l rho).  The design cost J * Tr((C^dag C)^-1) and
cond(C) are bounded below in terms of s = sum_j d/n_j, with equality exactly
when the spectrum of C^dag C is (s, (Jd-s)/(d^2-1), ...); MUB measurements
attain both bounds.

Validation runs the thin SVD of C once: its singular values decide
informational completeness, and the collection keeps the resulting
pseudo-inverse pinv(C) for reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import RANK_RTOL, _pauli_vector, _projector, _gram_design, mub_vectors, _sic_vectors_d4
from .linalg import check_psd, dagger, frob, kron_stack, pinv_with_spectrum

POVM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class PovmCollection:
    """J complete POVM sets over one Hilbert space.

    ``pinv`` is pinv(C), the d^2 x L pseudo-inverse kept from validation.
    """

    sets: tuple
    label: str = ""
    pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        flat = [np.asarray(p, dtype=complex) for group in self.sets for p in group]
        check_psd(flat, "POVM element", POVM_ATOL)
        sets = tuple(tuple(flat[sl]) for sl in self.set_slices())
        object.__setattr__(self, "sets", sets)
        d = flat[0].shape[0]
        for j, group in enumerate(sets):
            if frob(sum(group) - np.eye(d)) > POVM_ATOL * d:
                raise ValueError(f"POVM set {j} does not sum to the identity")
        c = self.parameterization()
        pinv, sv = pinv_with_spectrum(c)
        if c.shape[0] < d * d or sv[-1] <= RANK_RTOL * sv[0]:
            raise ValueError("measurement is not informationally complete (rank deficient C)")
        object.__setattr__(self, "pinv", pinv)

    @property
    def d(self) -> int:
        return self.sets[0][0].shape[0]

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def set_sizes(self) -> tuple:
        return tuple(len(group) for group in self.sets)

    @property
    def num_elements(self) -> int:
        return sum(self.set_sizes)

    @property
    def elements(self) -> tuple:
        return tuple(p for group in self.sets for p in group)

    def set_slices(self) -> list:
        out, start = [], 0
        for n in self.set_sizes:
            out.append(slice(start, start + n))
            start += n
        return out

    def parameterization(self) -> np.ndarray:
        """C: L x d^2 matrix such that C @ vec(rho) = [Tr(P_l rho)]_l."""
        # vec(P^T) in column-major order equals the row-major flattening of P.
        return np.asarray([p.reshape(-1) for p in self.elements])


@dataclass(frozen=True)
class PovmDesignReport:
    cost: float
    cond: float
    eigvals: np.ndarray
    top_eig_lower: float  # s = sum_j d / n_j, the floor for the top eigenvalue
    lower_cost: float
    lower_cond: float
    achieves: bool


def cube_povm(m: int, axes: tuple = ("x", "y", "z")) -> PovmCollection:
    """Pauli-axis projective measurements on m qubits: 3^m sets of 2^m elements."""
    if m < 1:
        raise ValueError("need at least one qubit")
    paulis = dict(zip("xyz", _pauli_vector()))
    eye = np.eye(2, dtype=complex)
    single = np.asarray([((eye + paulis[a]) / 2, (eye - paulis[a]) / 2) for a in axes])
    # Products are indexed (axis_1, sign_1, ..., axis_m, sign_m); regroup them
    # as (axis_1 ... axis_m) sets of (sign_1 ... sign_m) elements.
    ops = kron_stack([single.reshape(-1, 2, 2)] * m).reshape((len(axes), 2) * m + (2**m, 2**m))
    order = [*range(0, 2 * m, 2), *range(1, 2 * m, 2), 2 * m, 2 * m + 1]
    sets = ops.transpose(order).reshape(len(axes) ** m, 2**m, 2**m, 2**m)
    return PovmCollection(tuple(tuple(group) for group in sets), label=f"cube-{m}")


def mub_povm(d: int) -> PovmCollection:
    """Rank-1 projective measurements onto the d+1 mutually unbiased bases."""
    sets = tuple(tuple(_projector(v) for v in basis) for basis in mub_vectors(d))
    return PovmCollection(sets, label=f"mub-povm-{d}")


def sic_povm(d: int = 4) -> PovmCollection:
    """Single-set SIC measurement: d^2 subnormalized projectors summing to I."""
    if d != 4:
        raise ValueError("the SIC measurement is built in for d=4 only")
    cols = _sic_vectors_d4()
    group = tuple(_projector(cols[:, n]) / d for n in range(d * d))
    return PovmCollection((group,), label="sic-povm-4")


def projective_povm(bases, label: str = "projective") -> PovmCollection:
    """POVM collection from a list of unitary matrices (columns = basis kets)."""
    sets = []
    for u in bases:
        u = np.asarray(u, dtype=complex)
        sets.append(tuple(_projector(u[:, k]) for k in range(u.shape[1])))
    return PovmCollection(tuple(sets), label=label)


def design_metrics_C(povm: PovmCollection) -> PovmDesignReport:
    """Design cost, condition number and the spectrum of C^dag C."""
    d, j = povm.d, povm.num_sets
    c = povm.parameterization()
    s = float(sum(d / n for n in povm.set_sizes))
    rest = (j * d - s) / (d * d - 1.0)
    target = np.full(d * d, rest)
    target[0] = s
    eigs, cost, cond, achieves = _gram_design(dagger(c) @ c, j, target, "C^dag C")
    return PovmDesignReport(
        cost=cost,
        cond=cond,
        eigvals=eigs,
        top_eig_lower=s,
        lower_cost=float(j * (1.0 / s + (d * d - 1.0) ** 2 / (j * d - s))),
        lower_cond=float(np.sqrt((d * d - 1.0) * s / (j * d - s))),
        achieves=achieves,
    )
