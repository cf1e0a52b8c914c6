"""Input-state families and their design metrics.

An ensemble of M density matrices is summarized by the d^2 x M stacked
parameterization V whose columns are vec(rho_m).  Reconstruction quality is
governed by the spectrum of V* V^T: the design cost M * Tr((V* V^T)^-1) is
bounded below by d^4 + d^3 - d^2 and cond(V) by sqrt(d+1), with equality
exactly when the eigenvalues are (M/d, M/(d(d+1)), ..., M/(d(d+1))).  SIC and
MUB families attain both bounds; tensor products of optimal qubit families
attain the multiplicative m-qubit bounds (20^m and sqrt(3^m)).

Validation runs the thin SVD of V^T once: its singular values decide
informational completeness, and the ensemble keeps the resulting
pseudo-inverse pinv(V^T) for reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_psd, hermitian_part, kron_stack, pinv_with_spectrum, vec

RANK_RTOL = 1e-10
ACHIEVE_RTOL = 1e-6


def _projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True, eq=False)
class InputEnsemble:
    """An informationally complete set of input density matrices.

    ``pinv`` is pinv(V^T), the d^2 x M pseudo-inverse kept from validation.
    """

    states: tuple
    label: str = ""
    pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = tuple(np.asarray(s, dtype=complex) for s in self.states)
        if not states:
            raise ValueError("an ensemble needs at least one state")
        d = states[0].shape[0] if states[0].ndim == 2 else 0
        if not d or any(s.shape != (d, d) for s in states):
            raise ValueError("ensemble states must be square matrices sharing one dimension")
        check_psd(states, "ensemble state", atol=1e-9, unit_trace=True)
        object.__setattr__(self, "states", states)
        if len(states) < d * d:
            raise ValueError(
                f"need at least d^2={d * d} states for informational completeness, got {len(states)}"
            )
        pinv, sv = pinv_with_spectrum(self.parameterization().T)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise ValueError("ensemble is not informationally complete (rank deficient V)")
        object.__setattr__(self, "pinv", pinv)

    @property
    def d(self) -> int:
        return self.states[0].shape[0]

    @property
    def num_states(self) -> int:
        return len(self.states)

    def parameterization(self) -> np.ndarray:
        """V: d^2 x M matrix with columns vec(rho_m)."""
        return np.column_stack([vec(s) for s in self.states])


@dataclass(frozen=True)
class EnsembleDesignReport:
    cost: float
    cond: float
    eigvals: np.ndarray
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
    if d < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(d, dtype=complex)
    states = [_projector(eye[:, j]) for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            states.append(_projector(eye[:, j] + eye[:, k]))
            states.append(_projector(eye[:, j] + 1j * eye[:, k]))
    return InputEnsemble(tuple(states), label=f"natural-{d}")


def random_states(d: int, m: int, seed=None) -> InputEnsemble:
    """M random full-rank density matrices (normalized Wishart draws)."""
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    if m < d * d:
        raise ValueError(f"need M >= d^2 = {d * d} states, got {m}")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        # The same normals, in the same order, as a real then an imaginary
        # (d, d) draw per state.
        z = rng.standard_normal((m, 2, d, d))
        g = z[:, 0] + 1j * z[:, 1]
        w = g @ g.conj().swapaxes(-1, -2)
        states = w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]
        try:
            return InputEnsemble(tuple(states), label=f"random-{d}-{m}")
        except ValueError:
            continue
    raise ValueError("could not draw an informationally complete ensemble in 10 attempts")


def product_ensemble(parts) -> InputEnsemble:
    """Tensor products of qubit ensembles; V and the design metrics multiply."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    if any(p.d != 2 for p in parts):
        raise ValueError("product ensembles are built from qubit parts only")
    label = "x".join(p.label or "qubit" for p in parts)
    return InputEnsemble(_kron_states(parts), label=label)


def _kron_states(parts) -> tuple:
    """All tensor products of one state from each part, first part slowest."""
    return tuple(kron_stack([np.asarray(p.states) for p in parts]))


def cube_states(m: int) -> InputEnsemble:
    """m-fold tensor products of the qubit MUB family (6^m states)."""
    if m < 1:
        raise ValueError("need at least one qubit")
    return InputEnsemble(_kron_states([mub_states(2)] * m), label=f"cube-states-{m}")


def _gram_design(gram: np.ndarray, weight: float, target: np.ndarray, what: str):
    """Descending spectrum of a design Gram matrix, its cost ``weight * Tr(gram^-1)``,
    its condition number sqrt(max/min), and whether the spectrum attains ``target``."""
    eigs = np.linalg.eigvalsh(hermitian_part(gram))[::-1]
    if eigs[-1] <= RANK_RTOL * eigs[0]:
        raise ValueError(f"{what} is singular")
    achieves = bool(np.all(np.abs(eigs - target) <= ACHIEVE_RTOL * target))
    return eigs, weight * float(np.sum(1.0 / eigs)), float(np.sqrt(eigs[0] / eigs[-1])), achieves


def design_metrics_V(ensemble: InputEnsemble) -> EnsembleDesignReport:
    """Design cost, condition number and the spectrum of V* V^T."""
    d, m = ensemble.d, ensemble.num_states
    v = ensemble.parameterization()
    target = np.full(d * d, m / (d * (d + 1.0)))
    target[0] = m / d
    eigs, cost, cond, achieves = _gram_design(v.conj() @ v.T, m, target, "V* V^T")
    return EnsembleDesignReport(
        cost=cost,
        cond=cond,
        eigvals=eigs,
        lower_cost=float(d**4 + d**3 - d**2),
        lower_cond=float(np.sqrt(d + 1.0)),
        achieves=achieves,
    )
