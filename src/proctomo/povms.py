"""POVM collections and their design metrics.

A measurement plan is J POVM sets; set j has n_j PSD elements summing to the
identity.  All L = sum n_j elements are stacked into the L x d^2
parameterization C, row l = vec(P_l^T), so that C @ vec(rho) is the vector of
outcome probabilities Tr(P_l rho).  The design cost J * Tr((C^dag C)^-1) and
cond(C) are bounded below in terms of s = sum_j d/n_j, with equality exactly
when the spectrum of C^dag C is (s, (Jd-s)/(d^2-1), ...); MUB measurements
attain both bounds.

Validation finds the singular values of C, which decide informational
completeness, and the pseudo-inverse pinv(C), which the collection keeps for
reconstruction.  Most collections get both from one thin SVD.  Product
collections (``cube_povm``) take them from their parts instead: pinv(C) is the
permuted Kronecker product of the parts' pseudo-inverses, and the singular
values are the products of theirs, so no SVD of the product runs.  Every
collection keeps its singular values, and the design metrics read the
spectrum of C^dag C as their squares.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .ensembles import RANK_RTOL, _pauli_vector, _projector, _gram_design, mub_vectors, _sic_vectors_d4
from .linalg import check_psd, frob, herm_coords, kron_regroup, kron_stack, pinv_with_spectrum, square_stack

POVM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class PovmCollection:
    """J complete POVM sets over one Hilbert space.

    ``elements`` is the complex (L, d, d) stack of all elements, set by set,
    ``set_sizes`` the number of elements of each set, and ``sets`` the
    constructor's sets held as per-set views of ``elements``.  ``pinv`` is
    pinv(C), the d^2 x L pseudo-inverse kept from validation, and
    ``singular_values`` the descending singular values of C.  ``parts`` (init
    only) are validated collections whose tensor products, grouped as
    ``_kron_sets`` groups them, must equal ``sets`` exactly; both are then taken
    from the parts, and the sets need no check of their own, since tensor
    products of complete POVM sets are complete POVM sets.
    """

    sets: tuple
    label: str = ""
    parts: InitVar[tuple | None] = None
    elements: np.ndarray = field(init=False, repr=False)
    set_sizes: tuple = field(init=False)
    pinv: np.ndarray = field(init=False, repr=False)
    singular_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, parts):
        sizes = tuple(len(group) for group in self.sets)
        elements = square_stack([p for group in self.sets for p in group], "POVM element must be a square matrix")
        sets = np.split(elements, np.cumsum(sizes)[:-1])
        d = elements.shape[-1]
        if parts is None:
            check_psd(elements, "POVM element", POVM_ATOL)
            for j, group in enumerate(sets):
                if frob(group.sum(axis=0) - np.eye(d)) > POVM_ATOL * d:
                    raise ValueError(f"POVM set {j} does not sum to the identity")
        else:
            if not parts or not all(isinstance(p, PovmCollection) for p in parts):
                raise ValueError("POVM parts must be POVM collections")
            grouped = _kron_sets(parts)
            if sizes != (grouped.shape[1],) * len(grouped) or not np.array_equal(
                elements, grouped.reshape(-1, *grouped.shape[2:])
            ):
                raise ValueError("POVM sets are not the tensor products of its parts")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "set_sizes", sizes)
        object.__setattr__(self, "sets", tuple(sets))
        if len(elements) < d * d:
            raise ValueError("measurement is not informationally complete (rank deficient C)")
        if parts is None:
            pinv, sv = pinv_with_spectrum(self.parameterization())
        else:
            # C is the Kronecker product of the parts' C with its rows regrouped
            # set-major and its columns moved to the flattening of the products.
            pinv, sv = pinv_with_spectrum(
                [(p.pinv, p.singular_values) for p in parts],
                rows=kron_regroup([(p.num_sets, p.set_sizes[0]) for p in parts]),
                cols=kron_regroup([(p.d, p.d) for p in parts]),
            )
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise ValueError("measurement is not informationally complete (rank deficient C)")
        object.__setattr__(self, "pinv", pinv)
        object.__setattr__(self, "singular_values", sv)

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
    def born_table(self) -> tuple:
        """``(B, norm, skew)``: B holds the elements' ``herm_coords`` with the off-diagonal
        ones doubled, so that ``herm_coords(sigma) @ B.T`` is [Tr(P_l sigma)]_l for
        Hermitian sigma; norm and skew are the largest Frobenius norms of the elements
        and of their anti-Hermitian parts."""
        ops, d = self.elements, self.d
        skew = np.linalg.norm(ops - ops.conj().swapaxes(-1, -2), axis=(-2, -1)).max() / 2
        weights = np.where(np.arange(d * d) < d, 1.0, 2.0)
        return herm_coords(ops) * weights, np.linalg.norm(ops, axis=(-2, -1)).max(), skew

    @cached_property
    def pinv_coords(self) -> np.ndarray:
        """``herm_coords`` of the rows of pinv(C)^T as row-major d x d matrices."""
        return herm_coords(self.pinv.T.reshape(self.num_elements, self.d, self.d))


@dataclass(frozen=True)
class PovmDesignReport:
    cost: float
    cond: float
    eigvals: np.ndarray
    top_eig_lower: float  # s = sum_j d / n_j, the floor for the top eigenvalue
    lower_cost: float
    lower_cond: float
    achieves: bool


def _kron_sets(parts) -> np.ndarray:
    """All tensor products of one element from each part as a (sets, elements, D, D)
    stack.  Products are indexed (set_1, element_1, ..., set_k, element_k), first
    part slowest; they are regrouped as (set_1 ... set_k) sets of
    (element_1 ... element_k) elements.  Each part needs sets of one size."""
    if any(len(set(p.set_sizes)) != 1 for p in parts):
        raise ValueError("POVM parts need sets of one size")
    ops = kron_stack([p.elements for p in parts])
    ops = ops[kron_regroup([(p.num_sets, p.set_sizes[0]) for p in parts])]
    return ops.reshape(int(np.prod([p.num_sets for p in parts])), -1, *ops.shape[1:])


def cube_povm(m: int, axes: tuple = ("x", "y", "z")) -> PovmCollection:
    """Pauli-axis projective measurements on m qubits: 3^m sets of 2^m elements,
    the m-fold product of the one-qubit collection."""
    if m < 1:
        raise ValueError("need at least one qubit")
    paulis = dict(zip("xyz", _pauli_vector()))
    eye = np.eye(2, dtype=complex)
    single = PovmCollection(tuple(((eye + paulis[a]) / 2, (eye - paulis[a]) / 2) for a in axes))
    parts = [single] * m
    return PovmCollection(_kron_sets(parts), label=f"cube-{m}", parts=parts)


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
    s = float(sum(d / n for n in povm.set_sizes))
    rest = (j * d - s) / (d * d - 1.0)
    target = np.full(d * d, rest)
    target[0] = s
    # The eigenvalues of C^dag C are the squared singular values of C.
    eigs, cost, cond, achieves = _gram_design(povm.singular_values, j, target, "C^dag C")
    return PovmDesignReport(
        cost=cost,
        cond=cond,
        eigvals=eigs,
        top_eig_lower=s,
        lower_cost=float(j * (1.0 / s + (d * d - 1.0) ** 2 / (j * d - s))),
        lower_cond=float(np.sqrt((d * d - 1.0) * s / (j * d - s))),
        achieves=achieves,
    )
