import numpy as np
import pytest

from proctomo.channels import cnot_channel, identity_channel, process_matrix, random_channel
from proctomo.ensembles import mub_states, natural_basis_states, sic_states
from proctomo.linalg import transpose_permutation, vec
from proctomo.povms import PovmCollection, cube_povm, sic_povm
from proctomo.reconstruct import dense_expansion_matrix
from proctomo.simulate import (
    MeasurementRecord,
    _cell_keys,
    _entropy_words,
    exact_record,
    ideal_probabilities,
    sample_record,
)


def test_born_rule_row_for_computational_state():
    # first state of the natural-basis family is |0><0|; cube order is x, y, z
    e = natural_basis_states(2)
    probs = ideal_probabilities(identity_channel(2), e, cube_povm(1))
    np.testing.assert_allclose(probs[0], [0.5, 0.5, 0.5, 0.5, 1.0, 0.0], atol=1e-12)


def test_probabilities_match_dense_linear_model():
    # (I kron C) K B vec(X) assembled densely reproduces the Born matrix.
    d = 2
    ch = random_channel(d, tp=True, seed=21)
    e, p = mub_states(d), cube_povm(1)
    x = process_matrix(ch).mat
    c = p.parameterization()
    b = dense_expansion_matrix(e)
    k = transpose_permutation(e.num_states, d * d).matrix()
    stacked = np.kron(np.eye(e.num_states), c) @ k @ b @ vec(x)
    probs = ideal_probabilities(ch, e, p)
    assert np.abs(stacked.reshape(e.num_states, -1) - probs).max() <= 1e-10


def test_non_tp_row_sums_equal_across_sets():
    ch = random_channel(4, tp=False, seed=3)
    e, p = mub_states(4), cube_povm(2)
    rec = exact_record(ideal_probabilities(ch, e, p), p)
    surv = rec.survival_fractions()
    assert np.abs(surv - surv[:, :1]).max() <= 1e-12
    assert surv.max() < 1.0


def test_law_of_large_numbers():
    ch = random_channel(2, tp=True, seed=4)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    rec = sample_record(probs, 100_000_000, p, seed=1, keep_ideal=False)
    assert np.abs(rec.freq - probs).max() <= 5e-4


def test_sampling_variance_matches_formula():
    # empirical cell variance vs (p - p^2) / (N/J) over 1000 repetitions
    ch = random_channel(2, tp=True, seed=3)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    copies, reps = 600, 1000
    freqs = np.array(
        [sample_record(probs, copies, p, seed=50_000 + i, keep_ideal=False).freq for i in range(reps)]
    )
    predicted = probs * (1 - probs) / (copies // p.num_sets)
    mask = predicted > 1e-5
    rel = np.abs(freqs.var(axis=0) - predicted)[mask] / predicted[mask]
    assert rel.max() <= 0.15


def test_sampling_unbiased():
    ch = random_channel(2, tp=False, seed=6)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    copies, reps = 900, 600
    freqs = np.array(
        [sample_record(probs, copies, p, seed=80_000 + i, keep_ideal=False).freq for i in range(reps)]
    )
    se = np.sqrt(probs * (1 - probs) / (copies // p.num_sets) / reps)
    dev = np.abs(freqs.mean(axis=0) - probs)
    assert np.all(dev <= 3 * np.maximum(se, 1e-4))


def test_sampling_deterministic_by_seed():
    ch = random_channel(2, tp=True, seed=7)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    a = sample_record(probs, 3000, p, seed=5)
    b = sample_record(probs, 3000, p, seed=5)
    assert np.array_equal(a.counts, b.counts)
    c = sample_record(probs, 3000, p, seed=6)
    assert not np.array_equal(a.counts, c.counts)


def test_record_counts_are_consistent():
    ch = random_channel(2, tp=False, seed=8)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    rec = sample_record(probs, 3000, p, seed=9)
    shots = rec.shots_per_set
    # counts plus lost no-click events account for every shot
    for j, sl in enumerate(p.set_slices()):
        total = rec.counts[:, sl].sum(axis=1) + rec.lost_counts[:, j]
        assert np.all(total == shots)
    np.testing.assert_allclose(rec.freq, rec.counts / shots)
    assert rec.copies_per_state == shots * p.num_sets


def test_sample_record_input_validation():
    p = cube_povm(1)
    probs = np.full((4, 6), 1.0 / 2)
    with pytest.raises(ValueError):
        sample_record(probs, 2, p)  # fewer copies than sets
    bad = probs.copy()
    bad[0, 0] = -1e-6
    with pytest.raises(ValueError):
        sample_record(bad, 600, p)


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(freq=np.array([[0.5, 1.5]]), set_sizes=(2,))
    with pytest.raises(ValueError):
        MeasurementRecord(freq=np.array([[0.5, 0.5]]), set_sizes=(3,))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ideal_probabilities(identity_channel(2), mub_states(4), cube_povm(1))


def reference_record(probs, copies, povm, seed):
    """Per-cell reference sampler: one SeedSequence-keyed Philox per (state, set)."""
    m, ell = probs.shape
    shots = copies // povm.num_sets
    counts = np.zeros((m, ell), dtype=np.int64)
    lost = np.zeros((m, povm.num_sets), dtype=np.int64)
    for im in range(m):
        for ij, sl in enumerate(povm.set_slices()):
            p = np.clip(probs[im, sl], 0.0, None)
            pfull = np.append(p, max(1.0 - p.sum(), 0.0))
            pfull /= pfull.sum()
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(im, ij))
            draw = np.random.Generator(np.random.Philox(ss)).multinomial(shots, pfull)
            counts[im, sl] = draw[:-1]
            lost[im, ij] = draw[-1]
    return counts, lost, counts / shots


def real_line_povm(n):
    """n qubit elements (2/n)|psi_k><psi_k| with psi_k at angles pi k / n."""
    out = []
    for k in range(n):
        v = np.array([np.cos(np.pi * k / n), np.sin(np.pi * k / n)], dtype=complex)
        out.append(2.0 / n * np.outer(v, v.conj()))
    return tuple(out)


def unequal_sets_povm():
    x, y, z = cube_povm(1).sets
    return PovmCollection((x, real_line_povm(3), z, real_line_povm(9), y), label="unequal")


SAMPLER_CASES = {
    "tp": lambda: (random_channel(2, tp=True, seed=3), mub_states(2), cube_povm(1)),
    "nontp-cube2": lambda: (random_channel(4, tp=False, seed=5), mub_states(4), cube_povm(2)),
    "sic-povm": lambda: (cnot_channel(), sic_states(4), sic_povm(4)),
    "unequal-sets": lambda: (random_channel(2, tp=False, seed=11), mub_states(2), unequal_sets_povm()),
}


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_matches_per_cell_reference(case, seed):
    ch, e, p = SAMPLER_CASES[case]()
    probs = ideal_probabilities(ch, e, p)
    copies = 90 * p.num_sets
    rec = sample_record(probs, copies, p, seed=seed)
    counts, lost, freq = reference_record(probs, copies, p, seed)
    assert np.array_equal(rec.counts, counts)
    assert np.array_equal(rec.lost_counts, lost)
    assert np.array_equal(rec.freq, freq)


def test_cell_keys_match_seed_sequence():
    rng = np.random.default_rng(17)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**160 + 3]
    seeds += [int(v) for v in rng.integers(0, 2**63, size=20)]
    for seed in seeds:
        states = rng.integers(0, 100_000, size=6)
        sets = rng.integers(0, 1_000, size=6)
        keys = _cell_keys(_entropy_words(seed), states, sets)
        for key, im, ij in zip(keys, states, sets):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(im), int(ij)))
            assert np.array_equal(key, ss.generate_state(2, np.uint64))


def test_sampler_rejects_non_integer_seeds():
    probs, p = np.full((4, 6), 0.5), cube_povm(1)
    with pytest.raises(ValueError):
        sample_record(probs, 600, p, seed=-1)
    with pytest.raises(TypeError):
        sample_record(probs, 600, p, seed=None)
