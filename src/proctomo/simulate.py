"""Ideal outcome probabilities and finite-shot measurement records.

Copies assigned to one input state are split evenly across the J POVM sets
(N/J shots per set), and every (state, set) cell is one multinomial draw.
For non-trace-preserving processes the missing trace is modeled as an
explicit no-click outcome per cell: its counts are retained in the record but
excluded from the frequency matrix, so frequencies stay unbiased estimates of
Tr(E(rho_m) P_l).  Those probabilities are computed in real coordinates: states,
outputs and POVM elements each have d^2 real ``linalg.herm_coords``, the channel
maps a state's to its output's by its ``linalg.transfer_matrix``, and the trace
is a real dot product.  Hermiticity was decided once, when the states, elements
and channel were constructed, so no imaginary part is computed or checked here.

A record is drawn from one Philox generator seeded by SeedSequence(seed):
for each block of 64 states and each group of equally sized sets, one
broadcast ``multinomial`` call draws every cell of the block.  A record is
reproducible from (seed, probabilities), but a cell's counts depend on the
cells drawn before it, so cells cannot be drawn separately.  Records carry
``sampler=2``; records of the earlier per-cell sampler (version 1) are
reproduced only by releases before it was replaced.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import CHANNEL_ATOL, KrausChannel, ProcessMatrix
from .ensembles import STATE_ATOL, InputEnsemble
from .linalg import herm_coords, transfer_matrix
from .povms import POVM_ATOL, PovmCollection

# What the constructors let through, to first order: a set's probabilities sum to at most the
# trace of the state's positive part (at most 1 + STATE_ATOL for any d) scaled by the channel's
# and the set's tolerances, and a probability is at least -(2 STATE_ATOL + POVM_ATOL).
PROB_ATOL = STATE_ATOL + POVM_ATOL + CHANNEL_ATOL
# States per block of multinomial draws; bounds their memory.
_STATE_BLOCK = 64
# Version of the sampling algorithm stamped on the records sample_record draws.
SAMPLER = 2


def _whole(n, least: int) -> bool:
    """``n`` is an integer (not a bool) of at least ``least``."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least


def check_seed(seed) -> int:
    """``seed`` as an int, or a ValueError naming it unless it is a non-negative integer, not a bool.
    This is the one seed rule."""
    if not _whole(seed, -math.inf):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(seed)


@dataclass(eq=False)
class MeasurementRecord:
    """Empirical frequency matrix P-hat with its sampling metadata."""

    freq: np.ndarray
    set_sizes: tuple
    shots_per_set: int | None = None
    seed: int | None = None
    counts: np.ndarray | None = None
    lost_counts: np.ndarray | None = None
    ideal: np.ndarray | None = None
    # Version of the sampler that drew ``counts``; None when nothing was drawn.
    sampler: int | None = None

    def __post_init__(self):
        if not isinstance(self.set_sizes, (tuple, list)) or not all(_whole(n, 1) for n in self.set_sizes):
            raise ValueError(f"set sizes must be positive integers, got {self.set_sizes!r}")
        self.set_sizes = tuple(self.set_sizes)
        if not (self.shots_per_set is None or _whole(self.shots_per_set, 1)):
            raise ValueError(f"shots per set must be a positive integer or None, got {self.shots_per_set!r}")
        if self.seed is not None:
            self.seed = check_seed(self.seed)
        if not (self.sampler is None or (_whole(self.sampler, 1) and self.sampler <= SAMPLER)):
            raise ValueError(f"sampler must be a sampler version 1..{SAMPLER} or None, got {self.sampler!r}")
        if np.iscomplexobj(self.freq):
            raise ValueError("frequency matrix must be real")
        self.freq = np.asarray(self.freq, dtype=float)
        if self.freq.ndim != 2:
            raise ValueError("frequency matrix must be 2-D (states x operators)")
        if not np.all(np.isfinite(self.freq)):
            raise ValueError("frequency matrix contains non-finite entries")
        if self.freq.min() < -PROB_ATOL or self.freq.max() > 1.0 + PROB_ATOL:
            raise ValueError("frequencies must lie in [0, 1]")
        if sum(self.set_sizes) != self.freq.shape[1]:
            raise ValueError("set sizes do not match the number of frequency columns")

    @property
    def num_states(self) -> int:
        return self.freq.shape[0]

    @property
    def num_operators(self) -> int:
        return self.freq.shape[1]

    @property
    def num_sets(self) -> int:
        return len(self.set_sizes)

    @property
    def copies_per_state(self) -> int | None:
        return None if self.shots_per_set is None else self.shots_per_set * self.num_sets


def ideal_probabilities(process, ensemble: InputEnsemble, povm: PovmCollection) -> np.ndarray:
    """M x L matrix of Born probabilities Tr(E(rho_m) P_l).

    The states' ``herm_coords`` go through the channel's ``transfer_matrix`` and
    the POVM's ``born_table``, all real.  Each factor takes Hermitian parts: the
    constructors refuse states, elements and channels that are not Hermitian
    within ``linalg.is_hermitian``'s tolerance, so nothing is re-checked here.
    """
    if not isinstance(process, (KrausChannel, ProcessMatrix)):
        raise TypeError(f"cannot compute probabilities for {type(process).__name__}")
    if process.d != ensemble.d or process.d != povm.d:
        raise ValueError(
            f"dimension mismatch: process d={process.d}, ensemble d={ensemble.d}, povm d={povm.d}"
        )
    return herm_coords(ensemble.states) @ transfer_matrix(process.mat).T @ povm.born_table.T


def sample_record(
    probs: np.ndarray,
    copies: int,
    povm: PovmCollection,
    seed: int = 0,
    keep_ideal: bool = True,
) -> MeasurementRecord:
    """Draw a finite-shot record from ideal probabilities.

    ``copies`` is the number of copies per input state; each of the J sets
    receives floor(copies/J) shots.  ``seed`` is a non-negative integer.  The
    probabilities must be finite, >= -PROB_ATOL, and sum to <= 1 + PROB_ATOL per set.
    """
    probs = np.asarray(probs, dtype=float)
    m, ell = probs.shape
    if ell != povm.num_elements:
        raise ValueError("probability columns do not match the POVM elements")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities contain non-finite entries")
    if probs.min() < -PROB_ATOL:
        raise ValueError(f"negative probability {probs.min():.3e}")
    j = povm.num_sets
    shots = int(copies) // j
    if shots < 1:
        raise ValueError(f"{copies} copies leave no shots for {j} POVM sets")
    seed = check_seed(seed)

    # Sets of equal size share one (sets, size) slab of columns, drawn by one
    # broadcast multinomial call per block of states.
    sizes = povm.set_sizes
    starts = np.cumsum(sizes) - sizes
    groups = []
    # Plain Python: the first np.unique/np.flatnonzero call adds ~0.9 MB of RSS.
    for n in sorted(set(sizes)):
        sets = np.array([ij for ij, size in enumerate(sizes) if size == n])
        groups.append((sets, starts[sets, None] + np.arange(n)))

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    counts = np.empty((m, ell), dtype=np.int64)
    lost = np.empty((m, j), dtype=np.int64)
    for start in range(0, m, _STATE_BLOCK):
        rows = slice(start, start + _STATE_BLOCK)
        for sets, cols in groups:
            p = np.clip(probs[rows, cols], 0.0, None)
            total = p.sum(axis=-1, keepdims=True)
            if total.max() > 1.0 + PROB_ATOL:
                i, k, _ = np.argwhere(total > 1.0 + PROB_ATOL)[0]
                raise ValueError(f"probabilities of state {start + i}, POVM set {sets[k]} sum to {total[i, k, 0]:.15g}")
            # each set's elements, then its no-click outcome, normalized per set
            pfull = np.concatenate([p, np.maximum(1.0 - total, 0.0)], axis=-1)
            pfull /= pfull.sum(axis=-1, keepdims=True)
            draws = gen.multinomial(shots, pfull)
            counts[rows, cols] = draws[..., :-1]
            lost[rows, sets] = draws[..., -1]
    return MeasurementRecord(
        freq=counts / shots,
        set_sizes=povm.set_sizes,
        shots_per_set=shots,
        seed=seed,
        counts=counts,
        lost_counts=lost,
        ideal=probs.copy() if keep_ideal else None,
        sampler=SAMPLER,
    )


def exact_record(probs: np.ndarray, povm: PovmCollection) -> MeasurementRecord:
    """Infinite-shot record: frequencies equal the ideal probabilities."""
    probs = np.asarray(probs, dtype=float)
    return MeasurementRecord(freq=probs.copy(), set_sizes=povm.set_sizes, ideal=probs.copy())
