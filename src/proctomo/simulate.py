"""Ideal outcome probabilities and finite-shot measurement records.

Copies assigned to one input state are split evenly across the J POVM sets
(N/J shots per set), and every (state, set) cell is one multinomial draw.
For non-trace-preserving processes the missing trace is modeled as an
explicit no-click outcome per cell, drawn but left out of the frequency matrix,
the one array a record stores, so frequencies stay unbiased estimates of
Tr(E(rho_m) P_l).  Those probabilities are computed in real coordinates: states,
outputs and POVM elements each have d^2 real ``linalg.herm_coords``, the channel
maps a state's to its output's by its ``linalg.transfer_matrix``, and the trace
is a real dot product.  Hermiticity was decided once, when the states, elements
and channel were constructed, so no imaginary part is computed or checked here.
So p_ml is row m of the output coordinates Y (``ideal_outputs``, M x d^2) times
row l of the POVM's ``born_table``: ``ideal_probabilities`` is the one product
``Y @ born_table.T``, and ``sample_outputs`` forms it as the record's frequency
matrix and draws it in place, so a study holds no second M x L array.
Probabilities and frequencies pass one rule, ``_outcome_matrix``: a ``linalg.real_matrix``
with a column per set element, entries >= -PROB_ATOL, and each set's clipped sum <= 1 + PROB_ATOL.
Each matrix is checked once: a record built here from a checked matrix, or drawn
from one, is not checked again.

A record is drawn from one Philox generator seeded by SeedSequence(seed):
for each block of 64 states and each group of equally sized sets, one
broadcast ``multinomial`` call draws every cell, and the counts overwrite the
cells' probabilities.  A record is reproducible from (seed, probabilities), but
a cell's counts depend on the cells drawn before it, so cells cannot be drawn
separately.  Records carry ``sampler=2``; records of the earlier per-cell
sampler (version 1) are reproduced only by releases before it was replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import CHANNEL_ATOL, KrausChannel, ProcessMatrix
from .ensembles import POVM_ATOL, STATE_ATOL, InputEnsemble, PovmCollection
from .linalg import check_dimensions, check_int, real_matrix

# What the constructors let through, to first order: a set's probabilities sum to at most the
# trace of the state's positive part (at most 1 + STATE_ATOL for any d) scaled by the channel's
# and the set's tolerances, and a probability is at least -(2 STATE_ATOL + POVM_ATOL).
PROB_ATOL = STATE_ATOL + POVM_ATOL + CHANNEL_ATOL
# The most shots per set: the most one multinomial draw takes.
MAX_SHOTS = np.iinfo(np.int64).max
# A record's freq * shots_per_set s must be whole counts within COUNT_ATOL + s 2^-50: the two roundings
# of fl(fl(c / s) * s) leave a drawn count c <= s within c (2u + u^2) <= s 2^-51 of c, u = 2^-53.
COUNT_ATOL = 1e-6
# States per block of multinomial draws; bounds their memory.
_STATE_BLOCK = 64
# Version of the sampling algorithm stamped on the records sample_record draws.
SAMPLER = 2


def check_seed(seed) -> int:
    """``seed`` as an int, or a ValueError naming it unless it is a non-negative integer, not a bool."""
    return check_int(seed, "seed", 0)


def check_shots(copies: int, povm: PovmCollection, povm_spec: str, given: str, states: int = 1) -> int:
    """The shots per set of ``copies`` copies per state, from the value ``given`` for ``states`` states, or a
    ValueError if they leave a set of the POVM ``povm_spec`` without a shot or give one more than MAX_SHOTS."""
    if copies < povm.num_sets:
        raise ValueError(f"{given} leave no shot for some of the {povm.num_sets} sets of POVM {povm_spec!r}; "
                         f"choose at least {povm.num_sets * states}")
    if (shots := copies // povm.num_sets) > MAX_SHOTS:
        raise ValueError(f"{given} give {shots} shots to each of the {povm.num_sets} sets of POVM "
                         f"{povm_spec!r}, above {MAX_SHOTS}")
    return shots


def _outcome_matrix(x, what: str, set_sizes: tuple, first: int = 0) -> np.ndarray:
    """``x`` as a float matrix if it passes the module's rule for ``set_sizes``, else a ValueError naming
    ``what``, and a state by its row plus ``first``, the index of ``x``'s first state."""
    x = real_matrix(x, what)
    if x.shape[1] != sum(set_sizes):
        raise ValueError(f"{what} has {x.shape[1]} columns, not {sum(set_sizes)}, one per set element")
    if (low := x.min()) < -PROB_ATOL:
        raise ValueError(f"{what} has a negative entry {low:.3e}")
    # One M x J array of set sums; an M x L clipped copy only when an entry is negative.
    sums = np.add.reduceat(np.clip(x, 0.0, None) if low < 0 else x, np.cumsum(set_sizes) - set_sizes, axis=1)
    if sums.max() > 1.0 + PROB_ATOL:
        i, j = np.argwhere(sums > 1.0 + PROB_ATOL)[0]
        raise ValueError(f"{what} sums to {sums[i, j]:.15g} over state {first + i}, POVM set {j}")
    return x


@dataclass(eq=False)
class MeasurementRecord:
    """Empirical frequency matrix P-hat and its sampling metadata; ``freq`` and ``ideal`` pass ``_outcome_matrix``
    and share one shape, ``freq`` times ``shots_per_set`` is whole counts within COUNT_ATOL + shots_per_set 2^-50,
    and an exact record, whose frequencies are its ideal probabilities, keeps no ``ideal``."""

    freq: np.ndarray
    set_sizes: tuple
    shots_per_set: int | None = None
    seed: int | None = None
    ideal: np.ndarray | None = None
    # Version of the sampler that drew the frequencies; None when nothing was drawn.
    sampler: int | None = None

    def __post_init__(self):
        if not isinstance(self.set_sizes, (tuple, list)):
            raise ValueError(f"set sizes must be a list of integers, got {self.set_sizes!r}")
        # From a list: tuple(generator) resizes, and the freed resized tuples pile up on a free list.
        self.set_sizes = tuple([check_int(n, "a set size", 1) for n in self.set_sizes])
        if self.shots_per_set is not None:
            self.shots_per_set = check_int(self.shots_per_set, "shots per set", 1)
        if self.seed is not None:
            self.seed = check_seed(self.seed)
        try:  # every refusal of the sampler names the known versions
            if self.sampler is not None:
                self.sampler = check_int(self.sampler, "sampler", 1)
                if self.sampler > SAMPLER:
                    raise ValueError
        except ValueError:
            raise ValueError(f"sampler must be a sampler version 1..{SAMPLER} or None, got {self.sampler!r}") from None
        self.freq = _outcome_matrix(self.freq, "frequency matrix", self.set_sizes)
        if (shots := self.shots_per_set) is not None:
            # Block by block, so that no second M x L array is made.
            for start in range(0, self.num_states, _STATE_BLOCK):
                counts = self.freq[start:start + _STATE_BLOCK] * shots
                off = np.abs(counts - np.rint(counts))
                if off.max() > COUNT_ATOL + shots * 2.0**-50:
                    i, l = np.unravel_index(off.argmax(), off.shape)
                    raise ValueError(f"frequency matrix times {shots} shots per set is {counts[i, l]:.15g} "
                                     f"at state {start + i}, element {l}, not a whole count")
        if self.ideal is not None:
            self.ideal = _outcome_matrix(self.ideal, "ideal probability matrix", self.set_sizes)
            if self.ideal.shape != self.freq.shape:
                raise ValueError(f"ideal probability matrix has shape {self.ideal.shape}, not {self.freq.shape}")

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


def _check_dimensions(process, ensemble: InputEnsemble, *povm: PovmCollection) -> None:
    """A TypeError unless ``process`` is a channel, then ``linalg.check_dimensions`` on every d given."""
    if not isinstance(process, (KrausChannel, ProcessMatrix)):
        raise TypeError(f"cannot compute probabilities for {type(process).__name__}")
    check_dimensions({"process": process.d, "ensemble": ensemble.d} | {"POVM": p.d for p in povm})


def ideal_outputs(process, ensemble: InputEnsemble) -> np.ndarray:
    """Y, the real M x d^2 ``linalg.herm_coords`` of the outputs E(rho_m): the ensemble's ``herm_coords()``
    through the channel's ``transfer`` matrix.  Row m of Y times row l of a POVM's ``born_table`` is
    Tr(E(rho_m) P_l); ``sample_outputs`` draws a record from Y."""
    _check_dimensions(process, ensemble)
    return ensemble.herm_coords() @ process.transfer.T


def ideal_probabilities(process, ensemble: InputEnsemble, povm: PovmCollection) -> np.ndarray:
    """M x L matrix of Born probabilities Tr(E(rho_m) P_l).

    ``ideal_outputs``'s product times the POVM's ``born_table``, all real, after one dimension check:
    the one product that ``sample_outputs`` forms too, so both give the same probabilities bit for bit.
    Each factor takes Hermitian parts: the constructors refuse states, elements and channels that are
    not Hermitian within ``linalg.is_hermitian``'s tolerance, so nothing is re-checked here.
    """
    _check_dimensions(process, ensemble, povm)
    return ensemble.herm_coords() @ process.transfer.T @ povm.born_table.T


def _record(freq, set_sizes, shots_per_set=None, seed=None, ideal=None, sampler=None) -> MeasurementRecord:
    """A record of matrices that passed ``_outcome_matrix`` for ``set_sizes`` here, or were drawn from one
    that did, and of metadata already in normal form, built without a second pass over the matrices."""
    record = object.__new__(MeasurementRecord)
    vars(record).update(freq=freq, set_sizes=set_sizes, shots_per_set=shots_per_set, seed=seed,
                        ideal=ideal, sampler=sampler)
    return record


def _draw(freq: np.ndarray, copies, povm: PovmCollection, seed, check: bool, ideal=None) -> MeasurementRecord:
    """The record drawn, as ``sample_record`` describes, from the probabilities in ``freq``, which it
    overwrites with the frequencies; with ``check``, each block passes ``_outcome_matrix`` first.  The
    copies become shots per set through ``check_shots``, whose refusal names the POVM by its label."""
    shots = check_shots(check_int(copies, "copies", 1), povm, povm.label, f"{copies} copies per state")
    seed = check_seed(seed)

    # Sets of equal size share one (sets, size) slab of columns, drawn by one
    # broadcast multinomial call per block of states.
    sizes = povm.set_sizes
    starts = np.cumsum(sizes) - sizes
    groups = []
    # Plain Python: the first np.unique/np.flatnonzero call adds ~0.9 MB of RSS.
    for n in sorted(set(sizes)):
        groups.append(starts[[ij for ij, size in enumerate(sizes) if size == n], None] + np.arange(n))

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # One (states, sets, size + 1) buffer per group: each set's elements, then its no-click
    # outcome.  Column-major, so every sum over a cell's outcomes is taken left to right.
    bufs = [np.empty((min(len(freq), _STATE_BLOCK), len(cols), cols.shape[1] + 1), order="F") for cols in groups]
    for start in range(0, len(freq), _STATE_BLOCK):
        block = freq[start:start + _STATE_BLOCK]
        if check:
            _outcome_matrix(block, "probability matrix", sizes, start)
        np.clip(block, 0.0, None, out=block)
        for cols, pfull in zip(groups, bufs):
            pfull = pfull[:len(block)]
            pfull[..., :-1] = block[:, cols]
            np.maximum(1.0 - pfull[..., :-1].sum(axis=-1), 0.0, out=pfull[..., -1])
            pfull /= pfull.sum(axis=-1, keepdims=True)
            # Counts go straight into the float matrix, cast as counts / shots would cast them.
            block[:, cols] = gen.multinomial(shots, pfull)[..., :-1]
    freq /= shots
    return _record(freq, sizes, shots, seed, ideal, SAMPLER)


def sample_record(
    probs: np.ndarray,
    copies: int,
    povm: PovmCollection,
    seed: int = 0,
    keep_ideal: bool = True,
) -> MeasurementRecord:
    """Draw a finite-shot record from ideal probabilities.

    ``copies`` is the number of copies per input state; each of the J sets receives
    floor(copies/J) shots, 1 to MAX_SHOTS = 2^63 - 1, by ``check_shots``.  ``seed`` is a non-negative
    integer.  The probabilities pass ``_outcome_matrix`` for the POVM's sets.
    """
    probs = _outcome_matrix(probs, "probability matrix", povm.set_sizes)
    return _draw(probs.copy(), copies, povm, seed, check=False, ideal=probs.copy() if keep_ideal else None)


def sample_outputs(outputs: np.ndarray, copies: int, povm: PovmCollection, seed: int = 0) -> MeasurementRecord:
    """Draw a finite-shot record from output coordinates Y (``ideal_outputs``), bit for bit the record
    ``sample_record`` draws from the ``ideal_probabilities`` of the same design, with no second M x L matrix.

    Y is a real M x d^2 matrix for the POVM's d.  The one product ``Y @ born_table.T`` becomes the
    record's frequency matrix, and each block of states' probabilities passes ``_outcome_matrix``
    before it is drawn in place; a refusal names the state.  ``copies`` and ``seed`` are as for
    ``sample_record``, and the record keeps no ``ideal``.
    """
    outputs = real_matrix(outputs, "output coordinates")
    if outputs.shape[1] != povm.d**2:
        raise ValueError(f"output coordinates have {outputs.shape[1]} columns, not d^2 = {povm.d**2} for the POVM")
    return _draw(outputs @ povm.born_table.T, copies, povm, seed, check=True)


def exact_record(probs: np.ndarray, povm: PovmCollection) -> MeasurementRecord:
    """Infinite-shot record: its frequencies are a copy of the ideal probabilities, kept once."""
    probs = _outcome_matrix(probs, "probability matrix", povm.set_sizes)
    return _record(probs.copy(), povm.set_sizes)
