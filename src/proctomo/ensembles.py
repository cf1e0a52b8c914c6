"""Input-state families and their design metrics.

An ensemble of M density matrices is summarized by the d^2 x M stacked
parameterization V whose columns are vec(rho_m).  Reconstruction quality is
governed by the spectrum of V* V^T: the design cost M * Tr((V* V^T)^-1) is
bounded below by d^4 + d^3 - d^2 and cond(V) by sqrt(d+1), with equality
exactly when the eigenvalues are (M/d, M/(d(d+1)), ..., M/(d(d+1))).  SIC and
MUB families attain both bounds; tensor products of optimal qubit families
attain the multiplicative m-qubit bounds (20^m and sqrt(3^m)).

Validation finds the singular values of V^T, which decide informational
completeness, and pinv(V^T), which the ensemble keeps for reconstruction in
real Hermitian coordinates, from one real SVD of the states' ``herm_coords``.
A product ensemble is given by its parts alone: its states are built once from
theirs, its pseudo-inverse is ``linalg.herm_kron`` of theirs, and the singular
values are the products of theirs, so no SVD of the product runs.  The design
metrics read the spectrum of V* V^T as the squares of the kept singular
values.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import check_int, check_psd, herm_coords, herm_kron, herm_pinv, kron_stack, square_stack

RANK_RTOL = 1e-10
STATE_ATOL = 1e-9
ACHIEVE_RTOL = 1e-6


def _projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _check_parts(parts, stack, cls, what: str) -> None:
    """Refuse ``parts`` that do not alone give a product ``cls`` design."""
    if stack is not None:
        raise ValueError(f"a product {what} is given by its parts alone, not beside a stack")
    if not isinstance(parts, (list, tuple)) or not parts or not all(isinstance(p, cls) for p in parts):
        raise ValueError(f"{what} parts must be one or more {cls.__name__} designs")


def _keep_pinv(design, parts, coords, fold, error: str) -> None:
    """Keep on ``design`` the descending singular values of its N x d^2 matrix A and, as
    ``pinv_coords``, pinv(A) as a C-contiguous real d^2 x N matrix, column n in ``herm_coords``,
    from one real SVD of the coordinates ``coords()`` gives or, for a product design, from its
    ``parts`` by ``linalg.herm_kron`` of ``fold(part)``, a part's pseudo-inverse shaped
    (d^2, sets, elements) for a POVM or (d^2, M) for an ensemble.  An A with fewer than d^2
    singular values, or whose smallest is at most RANK_RTOL times its largest, is not
    informationally complete and raises ValueError(error) before anything divides by them;
    this is the one place the rank rule is written.
    """
    if parts is None:
        sv, pinv = herm_pinv(coords())
    else:
        sv = np.sort(kron_stack([p.singular_values for p in parts]))[::-1]
        pinv = lambda: functools.reduce(herm_kron, map(fold, parts))
    if len(sv) < design.d**2 or sv[-1] <= RANK_RTOL * sv[0]:
        raise ValueError(error)
    object.__setattr__(design, "pinv_coords", pinv().reshape(len(sv), -1))
    object.__setattr__(design, "singular_values", sv)


@dataclass(frozen=True, eq=False)
class InputEnsemble:
    """An informationally complete set of input density matrices.

    ``states`` is held as one complex (M, d, d) stack.  ``pinv_coords`` is the
    real d^2 x M pinv(V^T) kept from validation, each column in ``herm_coords``,
    and ``singular_values`` the descending singular values of V^T.  A product
    ensemble is given by ``parts`` (init only) alone, validated ensembles: its
    states are built once as their tensor products, first part slowest, and need
    no check of their own, since a tensor product of states is a state.
    """

    states: np.ndarray = None
    label: str = ""
    parts: InitVar[tuple | None] = None
    pinv_coords: np.ndarray = field(init=False, repr=False)
    singular_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, parts):
        if parts is not None:
            _check_parts(parts, self.states, InputEnsemble, "ensemble")
            states = kron_stack([p.states for p in parts])
        elif self.states is None or not len(self.states):
            raise ValueError("an ensemble needs at least one state")
        else:
            states = square_stack(self.states, "ensemble states must be square matrices sharing one dimension")
            check_psd(states, "ensemble state", atol=STATE_ATOL, unit_trace=True)
        object.__setattr__(self, "states", states)
        error = f"ensemble of {len(states)} states is not informationally complete (rank deficient V, d^2={self.d**2})"
        _keep_pinv(self, parts, lambda: herm_coords(states), lambda p: p.pinv_coords, error)

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def num_states(self) -> int:
        return len(self.states)

    def parameterization(self) -> np.ndarray:
        """V: d^2 x M matrix with columns vec(rho_m)."""
        # Entry (j d + i, m) of V is rho_m[i, j].
        return self.states.transpose(2, 1, 0).reshape(self.d**2, -1)


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
    """M random full-rank density matrices (normalized Wishart draws)."""
    d, m = check_int(d, "dimension", 1), check_int(m, "number of states M", 1)
    rng = np.random.default_rng(seed)
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
