"""Input-state ensembles, POVM collections and their design metrics.

Both designs are sets of PSD matrices that must span the Hermitian matrices,
and both are handled alike here.  An ensemble of M density matrices is
summarized by the d^2 x M stacked parameterization V whose columns are
vec(rho_m).  Its design cost M * Tr((V* V^T)^-1) is bounded below by
d^4 + d^3 - d^2 and cond(V) by sqrt(d+1), with equality exactly when the
eigenvalues are (M/d, M/(d(d+1)), ..., M/(d(d+1))).  A measurement plan is J
POVM sets; set j has n_j PSD elements summing to the identity.  All
L = sum n_j elements are stacked into the L x d^2 parameterization C, row
l = vec(P_l^T), so that C @ vec(rho) is the vector of outcome probabilities
Tr(P_l rho).  Its design cost J * Tr((C^dag C)^-1) and cond(C) are bounded
below in terms of s = sum_j d/n_j, with equality exactly when the spectrum of
C^dag C is (s, (Jd-s)/(d^2-1), ...).  SIC and MUB ensembles and MUB
measurements attain both bounds; tensor products of optimal qubit families
attain the multiplicative m-qubit bounds (costs 20^m for states and 10^m for
measurements, condition number sqrt(3^m)).

Validation of either design finds the singular values of its matrix A (V^T
or C), which decide informational completeness, and pinv(A), which the design
keeps for reconstruction in real Hermitian coordinates, from one real SVD of
the ``herm_coords`` of its matrices (conjugated, for POVM elements).  A
product design is given by its parts and keeps them, not its d x d matrices:
its pseudo-inverse is ``linalg.herm_kron`` of theirs, its singular values are
the products of theirs, so no SVD of the product runs, and the real
coordinates that the Born probabilities read (``InputEnsemble.herm_coords``,
``PovmCollection.born_table``) are ``herm_kron`` of theirs too.  Its complex
stack is built from the parts only when something reads it (documents, the
tests' dense oracle), and not kept.  The design metrics read the spectrum of
A^dag A as the squares of the kept singular values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import check_int, check_psd, frob, herm_coords, herm_kron, herm_pinv, kron_stack, square_matrix

RANK_RTOL = 1e-10
STATE_ATOL = 1e-9
POVM_ATOL = 1e-9
ACHIEVE_RTOL = 1e-6


def _projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


class _Stack:
    """A design's matrix field (``states``, ``sets``) as its dataclass default, None on the class:
    a plain design reads what its constructor stored, a product ``build(design)`` from its parts,
    built on each read and not kept."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, design, owner=None):
        if design is None:
            return None
        return self.build(design) if design.parts else vars(design)[self.name]

    def __set__(self, design, value):
        vars(design)[self.name] = value


def _check_parts(parts, stack, cls, what: str) -> tuple:
    """``parts`` as a tuple, refusing parts that do not alone give a product ``cls`` design."""
    if stack is not None:
        raise ValueError(f"a product {what} is given by its parts alone, not beside a stack")
    if not isinstance(parts, (list, tuple)) or not parts or not all(isinstance(p, cls) for p in parts):
        raise ValueError(f"{what} parts must be one or more {cls.__name__} designs")
    return tuple(parts)


def _kron_parts(design, rows) -> np.ndarray:
    """``linalg.herm_kron`` over the parts of a product design, first slowest, of ``rows(part)``, a
    part's d^2 x N rows, folded for a POVM part as (d^2, sets, elements), set-major like its elements."""
    fold = lambda p, r: r.reshape(len(r), p.num_sets, -1) if isinstance(p, PovmCollection) else r
    return functools.reduce(herm_kron, [fold(p, rows(p)) for p in design.parts])


def _keep_pinv(design, coords, error: str) -> None:
    """Keep on ``design`` the descending singular values of its N x d^2 matrix A and, as
    ``pinv_coords``, pinv(A) as a C-contiguous real d^2 x N matrix, column n in ``herm_coords``,
    from one real SVD of the coordinates ``coords()`` gives or, for a product design, by
    ``_kron_parts`` of its parts' pseudo-inverses.  An A with fewer than d^2 singular values, or
    whose smallest is at most RANK_RTOL times its largest, is not informationally complete and
    raises ValueError(error) before anything divides by them; this is the one place the rank
    rule is written.
    """
    if not design.parts:
        sv, pinv = herm_pinv(coords())
    else:
        sv = np.sort(kron_stack([p.singular_values for p in design.parts]))[::-1]
        pinv = lambda: _kron_parts(design, lambda p: p.pinv_coords)
    if len(sv) < design.d**2 or sv[-1] <= RANK_RTOL * sv[0]:
        raise ValueError(error)
    object.__setattr__(design, "pinv_coords", pinv().reshape(len(sv), -1))
    object.__setattr__(design, "singular_values", sv)


def _herm_rows(design, stack) -> np.ndarray:
    """The real d^2 x N matrix whose column n is the ``herm_coords`` of matrix n of ``design``, by
    one rule: ``_kron_parts`` of its parts' for a product, which forms no d x d stack, and those of
    ``stack(design)`` for a plain design, the one-part case.  Where the parts are exactly
    Hermitian, a product's equal herm_coords of its stack bit for bit."""
    if not design.parts:
        return herm_coords(stack(design)).T
    rows = _kron_parts(design, lambda p: _herm_rows(p, stack))
    return rows.reshape(len(rows), -1)


@dataclass(frozen=True, eq=False)
class InputEnsemble:
    """An informationally complete set of input density matrices.

    ``states`` is one complex (M, d, d) stack; ``pinv_coords`` and
    ``singular_values`` hold pinv(V^T) and the singular values of V^T, kept by
    ``_keep_pinv``.  A product ensemble is given by ``parts``, validated
    ensembles, and keeps them as ``parts`` (None for a plain ensemble) instead
    of a stack: its states are their tensor products, first part slowest,
    built on each read of ``states``, and need no check of their own, since a
    tensor product of states is a state.
    """

    states: np.ndarray = _Stack(lambda e: kron_stack([p.states for p in e.parts]))
    label: str = ""
    parts: InitVar[tuple | None] = None
    pinv_coords: np.ndarray = field(init=False, repr=False)
    singular_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, parts):
        if parts is not None:
            parts = _check_parts(parts, self.states, InputEnsemble, "ensemble")
        elif self.states is None or not len(self.states):
            raise ValueError("an ensemble needs at least one state")
        else:
            states = square_matrix(self.states, "ensemble states", stack=True)
            check_psd(states, "ensemble state", atol=STATE_ATOL, unit_trace=True)
            object.__setattr__(self, "states", states)
        object.__setattr__(self, "parts", parts)
        error = f"ensemble of {self.num_states} states is not informationally complete (rank deficient V, d^2={self.d**2})"
        _keep_pinv(self, self.herm_coords, error)

    @property
    def d(self) -> int:
        return math.prod(p.d for p in self.parts) if self.parts else self.states.shape[1]

    @property
    def num_states(self) -> int:
        return math.prod(p.num_states for p in self.parts) if self.parts else len(self.states)

    def parameterization(self) -> np.ndarray:
        """V: d^2 x M matrix with columns vec(rho_m)."""
        # Entry (j d + i, m) of V is rho_m[i, j].
        return self.states.transpose(2, 1, 0).reshape(self.d**2, -1)

    def herm_coords(self) -> np.ndarray:
        """The states' ``linalg.herm_coords``, C-contiguous real M x d^2, by ``_herm_rows``; not kept."""
        return np.ascontiguousarray(_herm_rows(self, lambda e: e.states).T)


@dataclass(frozen=True, eq=False)
class PovmCollection:
    """J complete POVM sets over one Hilbert space.

    ``elements`` is the complex (L, d, d) stack of all elements, set by set,
    ``set_sizes`` the number of elements of each set, and ``sets`` the
    constructor's sets held as per-set views of ``elements``; ``pinv_coords``
    and ``singular_values`` hold pinv(C) and the singular values of C, kept by
    ``_keep_pinv``.  A product collection is given by ``parts``, validated
    collections with sets of one size each, and keeps them as ``parts`` (None
    for a plain collection) instead of a stack: its sets are the tensor
    products of one set from each part, first part slowest, built on each read
    of ``elements`` or ``sets``, and need no check of their own, since tensor
    products of complete POVM sets are complete POVM sets.
    """

    sets: tuple = _Stack(lambda c: tuple(np.split(c.elements, np.cumsum(c.set_sizes)[:-1])))
    label: str = ""
    parts: InitVar[tuple | None] = None
    set_sizes: tuple = field(init=False)
    pinv_coords: np.ndarray = field(init=False, repr=False)
    singular_values: np.ndarray = field(init=False, repr=False)
    # Not a field: the constructor takes the sets.  Folded as (sets, elements, d, d) arrays, a
    # product's parts give its elements set-major.
    elements = _Stack(lambda c: kron_stack([p.elements.reshape(p.num_sets, -1, p.d, p.d) for p in c.parts])
                      .reshape(-1, c.d, c.d))

    def __post_init__(self, parts):
        if parts is not None:
            parts = _check_parts(parts, self.sets, PovmCollection, "POVM")
            if any(len(set(p.set_sizes)) != 1 for p in parts):
                raise ValueError("POVM parts need sets of one size")
            sizes = (math.prod(p.set_sizes[0] for p in parts),) * math.prod(p.num_sets for p in parts)
        else:
            groups = () if self.sets is None else self.sets
            sizes = tuple(len(group) for group in groups)
            elements = square_matrix([p for group in groups for p in group], "POVM elements", stack=True)
            check_psd(elements, "POVM element", POVM_ATOL)
            d = elements.shape[-1]
            sets = np.split(elements, np.cumsum(sizes)[:-1])
            for j, group in enumerate(sets):
                # In operator norm; the Frobenius norm bounds it and is cheaper, so it screens first.
                gap = group.sum(axis=0) - np.eye(d)
                if frob(gap) > POVM_ATOL and np.linalg.norm(gap, 2) > POVM_ATOL:
                    raise ValueError(f"POVM set {j} does not sum to the identity")
            object.__setattr__(self, "elements", elements)
            object.__setattr__(self, "sets", tuple(sets))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "set_sizes", sizes)
        error = f"measurement of {self.num_elements} elements is not informationally complete (rank deficient C, d^2={self.d**2})"
        # C @ vec(X) is [Tr(P_l^T X)]_l, and P_l^T is the conjugate of the Hermitian P_l.
        _keep_pinv(self, lambda: herm_coords(self.elements.conj()), error)

    @property
    def d(self) -> int:
        return math.prod(p.d for p in self.parts) if self.parts else self.elements.shape[-1]

    @property
    def num_sets(self) -> int:
        return len(self.set_sizes)

    @property
    def num_elements(self) -> int:
        return sum(self.set_sizes)

    def parameterization(self) -> np.ndarray:
        """C: L x d^2 matrix such that C @ vec(rho) = [Tr(P_l rho)]_l."""
        # vec(P^T) in column-major order equals the row-major flattening of P.
        return self.elements.reshape(self.num_elements, -1)

    @functools.cached_property
    def born_table(self) -> np.ndarray:
        """The C-contiguous elements' ``herm_coords``, by ``_herm_rows``, with the off-diagonal
        ones doubled, so that ``herm_coords(sigma) @ born_table.T`` is [Tr(P_l sigma)]_l for
        Hermitian sigma."""
        d = self.d
        rows = _herm_rows(self, lambda c: c.elements)
        return np.multiply(rows.T, np.where(np.arange(d * d) < d, 1.0, 2.0), order="C")


@dataclass(frozen=True)
class DesignReport:
    cost: float
    cond: float
    eigvals: np.ndarray
    top_eig_lower: float  # the floor for the top eigenvalue: M/d, or s = sum_j d / n_j for a POVM
    lower_cost: float
    lower_cond: float
    achieves: bool


def qubit_states() -> dict:
    """Named single-qubit pure states used by the built-in families."""
    s2 = np.sqrt(2.0)
    return {
        "0": np.array([1, 0], dtype=complex),
        "1": np.array([0, 1], dtype=complex),
        "+": np.array([1, 1], dtype=complex) / s2,
        "-": np.array([1, -1], dtype=complex) / s2,
        "R": np.array([1, -1j], dtype=complex) / s2,
        "L": np.array([1, 1j], dtype=complex) / s2,
    }


def _sic_vectors_d4() -> np.ndarray:
    """The 16 fiducial columns for d=4, pairwise overlap 1/5 after normalization."""
    x = np.sqrt(2.0 + np.sqrt(5.0))
    i = 1j
    table = np.array(
        [
            [x, x, x, x, i, i, -i, -i, i, i, -i, -i, i, i, -i, -i],
            [1, 1, -1, -1, x, x, x, x, i, -i, i, -i, 1, -1, 1, -1],
            [1, -1, 1, -1, 1, -1, 1, -1, x, x, x, x, -i, i, i, -i],
            [1, -1, -1, 1, -i, i, i, -i, -1, 1, 1, -1, x, x, x, x],
        ],
        dtype=complex,
    )
    return table / np.linalg.norm(table, axis=0)


def sic_states(d: int) -> InputEnsemble:
    """Symmetric informationally complete family: d^2 pure states with
    pairwise overlap 1/(d+1).  Supported for d in {2, 4}."""
    d = check_int(d, "dimension", 2)
    if d == 2:
        # Regular tetrahedron on the Bloch sphere, apex fixed at +z.
        ct, st = -1.0 / 3.0, np.sqrt(8.0) / 3.0
        bloch = [np.array([0.0, 0.0, 1.0])]
        for k in range(3):
            phi = 2.0 * np.pi * k / 3.0
            bloch.append(np.array([st * np.cos(phi), st * np.sin(phi), ct]))
        paulis = _pauli_vector()
        states = tuple((np.eye(2) + np.einsum("i,ijk->jk", b, paulis)) / 2 for b in bloch)
        return InputEnsemble(states, label="sic-2")
    if d == 4:
        cols = _sic_vectors_d4()
        return InputEnsemble(tuple(_projector(cols[:, n]) for n in range(16)), label="sic-4")
    raise ValueError(f"SIC states are built in for d in {{2, 4}}, not d={d}")


def _pauli_vector() -> np.ndarray:
    return np.array(
        [
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=complex,
    )


def mub_vectors(d: int) -> list:
    """d+1 mutually unbiased orthonormal bases as lists of column vectors."""
    d = check_int(d, "dimension", 2)
    q = qubit_states()
    if d == 2:
        return [
            [q["0"], q["1"]],
            [q["+"], q["-"]],
            [q["R"], q["L"]],
        ]
    if d == 4:
        def kron(a, b):
            return np.kron(q[a], q[b])

        def mix(a1, b1, a2, b2, sign):
            return (np.kron(q[a1], q[b1]) + sign * 1j * np.kron(q[a2], q[b2])) / np.sqrt(2)

        return [
            [kron("0", "0"), kron("0", "1"), kron("1", "0"), kron("1", "1")],
            [kron("R", "+"), kron("R", "-"), kron("L", "+"), kron("L", "-")],
            [kron("+", "R"), kron("-", "R"), kron("+", "L"), kron("-", "L")],
            [
                mix("R", "0", "L", "1", +1),
                mix("R", "0", "L", "1", -1),
                mix("R", "1", "L", "0", +1),
                mix("R", "1", "L", "0", -1),
            ],
            [
                mix("R", "R", "L", "L", +1),
                mix("R", "R", "L", "L", -1),
                mix("R", "L", "L", "R", +1),
                mix("R", "L", "L", "R", -1),
            ],
        ]
    raise ValueError(f"MUB families are built in for d in {{2, 4}}, not d={d}")


def mub_states(d: int) -> InputEnsemble:
    """All d(d+1) states of the d+1 mutually unbiased bases."""
    states = tuple(
        _projector(v) for basis in mub_vectors(d) for v in basis
    )
    return InputEnsemble(states, label=f"mub-{d}")


def natural_basis_states(d: int) -> InputEnsemble:
    """Physical states spanning the elementary-matrix basis.

    The d computational projectors plus, for each pair j < k, the projectors
    onto (|j> + |k>)/sqrt(2) and (|j> + i|k>)/sqrt(2).  Any |j><k| is the
    combination plus + i*imag - (1+i)/2 (|j><j| + |k><k|).
    """
    eye = np.eye(check_int(d, "dimension", 2), dtype=complex)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    states = [_projector(eye[:, j]) for j in range(d)]
    states += [_projector(eye[:, j] + phase * eye[:, k]) for j, k in pairs for phase in (1, 1j)]
    return InputEnsemble(states, label=f"natural-{d}")


def random_states(d: int, m: int, seed=None) -> InputEnsemble:
    """M random full-rank density matrices (normalized Wishart draws); ``seed`` is None or a non-negative integer."""
    d, m = check_int(d, "dimension", 1), check_int(m, "number of states M", 1)
    rng = np.random.default_rng(seed if seed is None else check_int(seed, "seed", 0))
    # The same normals, in the same order, as a real then an imaginary
    # (d, d) draw per state.
    z = rng.standard_normal((m, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    w = g @ g.conj().swapaxes(-1, -2)
    states = w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]
    return InputEnsemble(states, label=f"random-{d}-{m}")


def cube_states(m: int) -> InputEnsemble:
    """m-fold tensor products of the qubit MUB family (6^m states)."""
    return InputEnsemble(label=f"cube-states-{m}", parts=[mub_states(2)] * check_int(m, "number of qubits", 1))


def cube_povm(m: int) -> PovmCollection:
    """Pauli-axis projective measurements on m qubits: 3^m sets of 2^m elements,
    the m-fold product of the one-qubit collection."""
    eye = np.eye(2, dtype=complex)
    single = PovmCollection(tuple(((eye + p) / 2, (eye - p) / 2) for p in _pauli_vector()))
    return PovmCollection(label=f"cube-{m}", parts=[single] * check_int(m, "number of qubits", 1))


def mub_povm(d: int) -> PovmCollection:
    """Rank-1 projective measurements onto the d+1 mutually unbiased bases."""
    sets = tuple(tuple(_projector(v) for v in basis) for basis in mub_vectors(d))
    return PovmCollection(sets, label=f"mub-povm-{d}")


def sic_povm(d: int = 4) -> PovmCollection:
    """Single-set SIC measurement: d^2 subnormalized projectors summing to I."""
    if check_int(d, "dimension", 2) != 4:
        raise ValueError("the SIC measurement is built in for d=4 only")
    cols = _sic_vectors_d4()
    group = tuple(_projector(cols[:, n]) / d for n in range(d * d))
    return PovmCollection((group,), label="sic-povm-4")


def projective_povm(bases, label: str = "projective") -> PovmCollection:
    """POVM collection from a list of unitary matrices (columns = basis kets)."""
    sets = tuple(tuple(_projector(ket) for ket in np.asarray(u, dtype=complex).T) for u in bases)
    return PovmCollection(sets, label=label)


def _design_report(sv, weight: float, top: float, rest: float, lower_cost: float, lower_cond: float) -> DesignReport:
    """The :class:`DesignReport` of a design whose matrix A has the singular values ``sv``: the
    spectrum of A^dag A is their squares, its cost ``weight * Tr((A^dag A)^-1)`` and its
    condition number sqrt(max/min).  The constructors refuse rank-deficient designs, and
    designs are frozen, so A has full rank."""
    eigs = sv**2
    target = np.full(len(eigs), rest)
    target[0] = top
    achieves = bool(np.all(np.abs(eigs - target) <= ACHIEVE_RTOL * target))
    cost, cond = weight * float(np.sum(1.0 / eigs)), float(np.sqrt(eigs[0] / eigs[-1]))
    return DesignReport(cost, cond, eigs, top, lower_cost, lower_cond, achieves)


def design_metrics_V(ensemble: InputEnsemble) -> DesignReport:
    """Design cost, condition number and the spectrum of V* V^T = (V^T)^dag V^T, whose top
    eigenvalue is at least M/d."""
    d, m = ensemble.d, ensemble.num_states
    return _design_report(ensemble.singular_values, m, top=m / d, rest=m / (d * (d + 1.0)),
                          lower_cost=float(d**4 + d**3 - d**2), lower_cond=float(np.sqrt(d + 1.0)))


def design_metrics_C(povm: PovmCollection) -> DesignReport:
    """Design cost, condition number and the spectrum of C^dag C, whose top eigenvalue is at
    least s = sum_j d / n_j."""
    d, j = povm.d, povm.num_sets
    s = float(sum(d / n for n in povm.set_sizes))
    return _design_report(povm.singular_values, j, top=s, rest=(j * d - s) / (d * d - 1.0),
                          lower_cost=float(j * (1.0 / s + (d * d - 1.0) ** 2 / (j * d - s))),
                          lower_cond=float(np.sqrt((d * d - 1.0) * s / (j * d - s))))
