"""Ideal outcome probabilities and finite-shot measurement records.

Copies assigned to one input state are split evenly across the J POVM sets
(N/J shots per set), and every (state, set) cell is one multinomial draw.
For non-trace-preserving processes the missing trace is modeled as an
explicit no-click outcome per cell: its counts are retained in the record but
excluded from the frequency matrix, so frequencies stay unbiased estimates of
Tr(E(rho_m) P_l).

Every cell draws from a Philox generator keyed by
SeedSequence(entropy=seed, spawn_key=(state, set)), so a cell's counts depend
only on (seed, state, set): the record is independent of evaluation order,
safe to produce in parallel, and bit-identical to the records of earlier
versions.  The keys are derived with uint32 array arithmetic for blocks of
states (mirroring numpy's SeedSequence algorithm, checked against it on every
call), and one generator per call is re-keyed for each cell by resetting its
state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, ProcessMatrix
from .ensembles import InputEnsemble
from .povms import PovmCollection

PROB_ATOL = 1e-12
# States per block of channel outputs and of derived cell keys; bounds the
# memory of both.
_STATE_BLOCK = 64


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

    def __post_init__(self):
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
        if self.shots_per_set is None:
            return None
        return self.shots_per_set * self.num_sets

    def survival_fractions(self) -> np.ndarray:
        """Per-(state, set) sums of recorded frequencies (1 for TP sampling)."""
        out = np.empty((self.num_states, self.num_sets))
        start = 0
        for j, n in enumerate(self.set_sizes):
            out[:, j] = self.freq[:, start : start + n].sum(axis=1)
            start += n
        return out


def ideal_probabilities(process, ensemble: InputEnsemble, povm: PovmCollection) -> np.ndarray:
    """M x L matrix of Born probabilities Tr(E(rho_m) P_l)."""
    if not isinstance(process, (KrausChannel, ProcessMatrix)):
        raise TypeError(f"cannot compute probabilities for {type(process).__name__}")
    if process.d != ensemble.d or process.d != povm.d:
        raise ValueError(
            f"dimension mismatch: process d={process.d}, ensemble d={ensemble.d}, povm d={povm.d}"
        )
    c = povm.parameterization()
    d, m = process.d, ensemble.num_states
    probs = np.empty((m, c.shape[0]))
    for start in range(0, m, _STATE_BLOCK):
        rhos = np.asarray(ensemble.states[start : start + _STATE_BLOCK])
        if isinstance(process, KrausChannel):
            outputs = process.apply(rhos)
        else:
            # A stacked einsum would change the summation order; apply per state.
            outputs = np.asarray([process.apply(rho) for rho in rhos])
        # Column k is vec(E(rho_k)), so C @ it holds Tr(P_l E(rho_k)).
        block = c @ outputs.transpose(0, 2, 1).reshape(len(rhos), d * d).T
        if np.abs(block.imag).max() > 1e-10:
            raise ValueError("probabilities acquired a non-negligible imaginary part")
        probs[start : start + len(rhos)] = block.real.T
    return probs


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _entropy_words(seed) -> list:
    """uint32 words of a non-negative integer seed, least significant first."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's word hash; every call advances its multiplier."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _cell_keys(seed_words: list, states: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Philox keys of the broadcast (state, set) cells, with a trailing axis of 2.

    Element-wise equal to
    ``SeedSequence(entropy=seed, spawn_key=(state, set)).generate_state(2, np.uint64)``,
    computed with uint32 array arithmetic instead of one object per cell.
    """
    # With a spawn key, short entropy is zero-padded to the pool size.
    run = seed_words + [0] * (_POOL_SIZE - len(seed_words))
    entropy = [np.full(1, w, dtype=np.uint32) for w in run]
    entropy += [np.asarray(states, dtype=np.uint32), np.asarray(sets, dtype=np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    # mix_entropy: fill the pool, cross-mix it, then fold in the rest.
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four words, paired little-endian.
    hash_out = _hasher(_INIT_B, _MULT_B)
    words = [hash_out(value).astype(np.uint64) for value in pool]
    keys = np.empty(words[0].shape + (2,), dtype=np.uint64)
    keys[..., 0] = words[0] | (words[1] << np.uint64(32))
    keys[..., 1] = words[2] | (words[3] << np.uint64(32))
    return keys


def sample_record(
    probs: np.ndarray,
    copies: int,
    povm: PovmCollection,
    seed: int = 0,
    keep_ideal: bool = True,
) -> MeasurementRecord:
    """Draw a finite-shot record from ideal probabilities.

    ``copies`` is the number of copies per input state; each of the J sets
    receives floor(copies/J) shots.  ``seed`` is a non-negative integer.
    """
    probs = np.asarray(probs, dtype=float)
    m, ell = probs.shape
    if ell != povm.num_elements:
        raise ValueError("probability columns do not match the POVM elements")
    if probs.min() < -PROB_ATOL:
        raise ValueError(f"negative probability {probs.min():.3e}")
    j = povm.num_sets
    shots = int(copies) // j
    if shots < 1:
        raise ValueError(f"{copies} copies leave no shots for {j} POVM sets")
    seed_words = _entropy_words(seed)
    expected = np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)).generate_state(2, np.uint64)
    if not np.array_equal(_cell_keys(seed_words, np.zeros(1), np.zeros(1))[0], expected):
        raise RuntimeError(f"derived cell keys do not match numpy {np.__version__}'s SeedSequence")

    # Sets of equal size share one (sets, size) slab, so every row sum below
    # reduces exactly the elements the per-cell sum over one set would.
    slices = povm.set_slices()
    by_size = {}
    for ij, sl in enumerate(slices):
        by_size.setdefault(sl.stop - sl.start, []).append(ij)
    groups = [
        (np.array(sets), np.array([np.arange(slices[i].start, slices[i].stop) for i in sets]))
        for sets in by_size.values()
    ]

    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # A fresh generator's state (zero counter, empty buffer), held in lists,
    # which the state setter reads faster than arrays.
    fresh = bitgen.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    counts = np.zeros((m, ell), dtype=np.int64)
    lost = np.zeros((m, j), dtype=np.int64)
    grid_sets = np.arange(j)
    for start in range(0, m, _STATE_BLOCK):
        block = np.arange(start, min(start + _STATE_BLOCK, m))
        keys = _cell_keys(seed_words, block[:, None], grid_sets[None, :])
        for im, row_keys in zip(block, keys):
            row_keys = row_keys.tolist()
            for sets, cols in groups:
                p = np.clip(probs[im, cols], 0.0, None)
                pfull = np.empty((p.shape[0], p.shape[1] + 1))
                pfull[:, :-1] = p
                pfull[:, -1] = np.maximum(1.0 - p.sum(axis=1), 0.0)
                pfull /= pfull.sum(axis=1, keepdims=True)
                draws = np.empty(pfull.shape, dtype=np.int64)
                for k, ij in enumerate(sets):
                    fresh["state"]["key"] = row_keys[ij]
                    bitgen.state = fresh
                    draws[k] = gen.multinomial(shots, pfull[k])
                counts[im, cols] = draws[:, :-1]
                lost[im, sets] = draws[:, -1]
    return MeasurementRecord(
        freq=counts / shots,
        set_sizes=povm.set_sizes,
        shots_per_set=shots,
        seed=seed,
        counts=counts,
        lost_counts=lost,
        ideal=probs.copy() if keep_ideal else None,
    )


def exact_record(probs: np.ndarray, povm: PovmCollection) -> MeasurementRecord:
    """Infinite-shot record: frequencies equal the ideal probabilities."""
    probs = np.asarray(probs, dtype=float)
    return MeasurementRecord(freq=probs.copy(), set_sizes=povm.set_sizes, ideal=probs.copy())
