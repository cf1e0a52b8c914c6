"""POVM collections and their design metrics.

A measurement plan is J POVM sets; set j has n_j PSD elements summing to the
identity.  All L = sum n_j elements are stacked into the L x d^2
parameterization C, row l = vec(P_l^T), so that C @ vec(rho) is the vector of
outcome probabilities Tr(P_l rho).  The design cost J * Tr((C^dag C)^-1) and
cond(C) are bounded below in terms of s = sum_j d/n_j, with equality exactly
when the spectrum of C^dag C is (s, (Jd-s)/(d^2-1), ...); MUB measurements
attain both bounds.

Validation finds the singular values of C, which decide informational
completeness, and pinv(C), which the collection keeps for reconstruction in
real Hermitian coordinates, from one real SVD of the ``herm_coords`` of the
conjugated elements.  A product collection (``cube_povm``) is given by its
parts alone: its elements are built once from theirs, its pseudo-inverse is
``linalg.herm_kron`` of theirs, and the singular values are the products of
theirs, so no SVD of the product runs.  The design metrics read the spectrum
of C^dag C as the squares of the kept singular values.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .ensembles import (
    DesignReport, _check_parts, _design_report, _keep_pinv, _pauli_vector, _projector, _sic_vectors_d4, mub_vectors
)
from .linalg import check_psd, frob, herm_coords, kron_stack, square_stack

POVM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class PovmCollection:
    """J complete POVM sets over one Hilbert space.

    ``elements`` is the complex (L, d, d) stack of all elements, set by set,
    ``set_sizes`` the number of elements of each set, and ``sets`` the
    constructor's sets held as per-set views of ``elements``.  ``pinv_coords``
    is the real d^2 x L pinv(C) kept from validation, each column in
    ``herm_coords``, and ``singular_values`` the descending singular values of
    C.  A product collection is given by ``parts`` (init only) alone, validated
    collections with sets of one size each: its sets are the tensor products of
    one set from each part, first part slowest.  They need no check of their
    own, since tensor products of complete POVM sets are complete POVM sets.
    """

    sets: tuple = None
    label: str = ""
    parts: InitVar[tuple | None] = None
    elements: np.ndarray = field(init=False, repr=False)
    set_sizes: tuple = field(init=False)
    pinv_coords: np.ndarray = field(init=False, repr=False)
    singular_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, parts):
        if parts is not None:
            _check_parts(parts, self.sets, PovmCollection, "POVM")
            if any(len(set(p.set_sizes)) != 1 for p in parts):
                raise ValueError("POVM parts need sets of one size")
            # Folded as (sets, elements, d, d) arrays, the products come out set-major.
            grid = kron_stack([p.elements.reshape(p.num_sets, p.set_sizes[0], p.d, p.d) for p in parts])
            elements = grid.reshape(-1, *grid.shape[2:])
            sizes = (grid.shape[1],) * grid.shape[0]
        else:
            groups = () if self.sets is None else self.sets
            sizes = tuple(len(group) for group in groups)
            elements = square_stack([p for group in groups for p in group], "POVM element must be a square matrix")
        sets = np.split(elements, np.cumsum(sizes)[:-1])
        d = elements.shape[-1]
        if parts is None:
            check_psd(elements, "POVM element", POVM_ATOL)
            for j, group in enumerate(sets):
                # In operator norm; the Frobenius norm bounds it and is cheaper, so it screens first.
                gap = group.sum(axis=0) - np.eye(d)
                if frob(gap) > POVM_ATOL and np.linalg.norm(gap, 2) > POVM_ATOL:
                    raise ValueError(f"POVM set {j} does not sum to the identity")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "set_sizes", sizes)
        object.__setattr__(self, "sets", tuple(sets))
        error = f"measurement of {len(elements)} elements is not informationally complete (rank deficient C, d^2={d**2})"
        # C @ vec(X) is [Tr(P_l^T X)]_l, and P_l^T is the conjugate of the Hermitian P_l.
        # A part's pseudo-inverse folds as (d^2, sets, elements), set-major like its elements.
        fold = lambda p: p.pinv_coords.reshape(-1, p.num_sets, p.set_sizes[0])
        _keep_pinv(self, parts, lambda: herm_coords(elements.conj()), fold, error)

    @property
    def d(self) -> int:
        return self.elements.shape[-1]

    @property
    def num_sets(self) -> int:
        return len(self.set_sizes)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def parameterization(self) -> np.ndarray:
        """C: L x d^2 matrix such that C @ vec(rho) = [Tr(P_l rho)]_l."""
        # vec(P^T) in column-major order equals the row-major flattening of P.
        return self.elements.reshape(self.num_elements, -1)

    @cached_property
    def born_table(self) -> np.ndarray:
        """The elements' ``herm_coords`` with the off-diagonal ones doubled, so that
        ``herm_coords(sigma) @ born_table.T`` is [Tr(P_l sigma)]_l for Hermitian sigma."""
        d = self.d
        return herm_coords(self.elements) * np.where(np.arange(d * d) < d, 1.0, 2.0)


def cube_povm(m: int) -> PovmCollection:
    """Pauli-axis projective measurements on m qubits: 3^m sets of 2^m elements,
    the m-fold product of the one-qubit collection."""
    if m < 1:
        raise ValueError("need at least one qubit")
    eye = np.eye(2, dtype=complex)
    single = PovmCollection(tuple(((eye + p) / 2, (eye - p) / 2) for p in _pauli_vector()))
    return PovmCollection(label=f"cube-{m}", parts=[single] * m)


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
    sets = tuple(tuple(_projector(ket) for ket in np.asarray(u, dtype=complex).T) for u in bases)
    return PovmCollection(sets, label=label)


def design_metrics_C(povm: PovmCollection) -> DesignReport:
    """Design cost, condition number and the spectrum of C^dag C, whose top eigenvalue is at
    least s = sum_j d / n_j."""
    d, j = povm.d, povm.num_sets
    s = float(sum(d / n for n in povm.set_sizes))
    return _design_report(povm.singular_values, j, top=s, rest=(j * d - s) / (d * d - 1.0),
                          lower_cost=float(j * (1.0 / s + (d * d - 1.0) ** 2 / (j * d - s))),
                          lower_cond=float(np.sqrt((d * d - 1.0) * s / (j * d - s))))
