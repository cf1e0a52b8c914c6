import re
import warnings

import numpy as np
import pytest

from proctomo.channels import KrausChannel, cnot_channel, identity_channel, process_matrix, random_channel
from proctomo.ensembles import InputEnsemble, mub_states, natural_basis_states, random_states, sic_states
from proctomo.linalg import dagger
from proctomo.oracle import dense_expansion_matrix, transpose_index
from proctomo.povms import PovmCollection, cube_povm, sic_povm
from proctomo.simulate import SAMPLER, MeasurementRecord, check_seed, exact_record, ideal_probabilities, sample_record
from proctomo.studies import run_m_scaling_study


def set_slices(povm):
    """The frequency columns of each POVM set, as slices, from its set sizes."""
    ends = np.cumsum(povm.set_sizes)
    return [slice(e - n, e) for n, e in zip(povm.set_sizes, ends)]


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
    k = np.eye(e.num_states * d * d)[transpose_index(e.num_states, d * d)]
    stacked = np.kron(np.eye(e.num_states), c) @ k @ b @ x.reshape(-1, order="F")
    probs = ideal_probabilities(ch, e, p)
    assert np.abs(stacked.reshape(e.num_states, -1) - probs).max() <= 1e-10


def test_non_tp_row_sums_equal_across_sets():
    ch = random_channel(4, tp=False, seed=3)
    e, p = mub_states(4), cube_povm(2)
    rec = exact_record(ideal_probabilities(ch, e, p), p)
    surv = np.stack([rec.freq[:, sl].sum(axis=1) for sl in set_slices(p)], axis=1)
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
    copies, reps = 900, 1200
    freqs = np.array(
        [sample_record(probs, copies, p, seed=80_000 + i, keep_ideal=False).freq for i in range(reps)]
    )
    se = np.sqrt(probs * (1 - probs) / (copies // p.num_sets) / reps)
    dev = np.abs(freqs.mean(axis=0) - probs)
    # 4 standard errors on each of the 36 cells: a family-wise false-alarm rate
    # of about 0.2 %, and a smaller absolute bias bound than 3 errors at 600 reps
    assert np.all(dev <= 4 * np.maximum(se, 1e-4))


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
    for j, sl in enumerate(set_slices(p)):
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


@pytest.mark.parametrize("value", [0.9, 2.0])
def test_sample_record_refuses_sets_summing_above_one(value):
    p = cube_povm(1)  # three sets of two elements
    with pytest.raises(ValueError, match=re.escape(f"probabilities of state 0, POVM set 0 sum to {2 * value:.15g}")):
        sample_record(np.full((4, 6), value), 600, p)


def test_sample_record_names_the_state_and_set_above_one():
    p = cube_povm(1)
    probs = np.full((70, 6), 0.5)
    probs[66, 5] += 3.5e-9  # state 66 is in the second block of 64, column 5 in set 2
    with pytest.raises(ValueError, match=re.escape("probabilities of state 66, POVM set 2 sum to 1.0000000035")):
        sample_record(probs, 600, p)
    probs[66, 5] = 0.5 + 2.5e-9  # within PROB_ATOL = 3e-9 of 1
    sample_record(probs, 600, p)


@pytest.mark.parametrize("first", [(1 + 5e-10, -5e-10), (1 + 5e-10, 0.0)], ids=["negative-eigenvalue", "trace-above-one"])
def test_states_the_constructors_accept_are_sampled_and_recorded(first):
    # Construction accepts these states within 1e-9; their probabilities leave [0, 1] by
    # 5e-10, within PROB_ATOL, so they are clipped and the set renormalized.
    states = mub_states(2).states.copy()
    states[0] = np.diag(first)
    e, p = InputEnsemble(states=states), cube_povm(1)
    probs = ideal_probabilities(identity_channel(2), e, p)
    assert probs[0, 4:].sum() > 1 or probs.min() < 0
    record = sample_record(probs, 600, p, seed=3)
    assert record.counts[0, 4:].tolist() == [200, 0]  # set z of |0><0|
    assert np.array_equal(exact_record(probs, p).freq, probs)


def test_a_state_whose_positive_part_exceeds_the_tolerance_is_refused_at_construction():
    # Trace 1 + 9.3e-10 and eigenvalues down to -9.9e-10, each within 1e-9, but its positive
    # part has trace 1 + 3.9e-9: through diag(1, 0, 0, 0) every set would sum past PROB_ATOL.
    states = mub_states(4).states.copy()
    states[0] = np.diag([1 + 3.9e-9, -0.99e-9, -0.99e-9, -0.99e-9])
    with pytest.raises(ValueError, match=r"^ensemble state 0 has a positive part of trace 1\.0000000039, above 1 \+ 1e-09$"):
        InputEnsemble(states=states)
    # The same state with its positive part's trace within 1e-9 is sampled and recorded.
    states[0] = np.diag([1 + 0.9e-9, -0.3e-9, -0.3e-9, -0.3e-9])
    p = cube_povm(2)
    probs = ideal_probabilities(KrausChannel((np.diag([1.0, 0.0, 0.0, 0.0]),)), InputEnsemble(states=states), p)
    assert probs[0, -4:].sum() > 1  # set z x z, the last
    assert sample_record(probs, 900, p, seed=3).counts[0, -4:].tolist() == [100, 0, 0, 0]
    assert np.array_equal(exact_record(probs, p).freq, probs)


def test_a_povm_set_beyond_the_tolerance_in_operator_norm_is_refused_at_construction():
    # A state and a channel each within 1e-9 of their limits construct.  A z set of diag(1 + 1.9e-9, 0)
    # and diag(0, 1) is within POVM_ATOL * d of I in Frobenius norm, but not in operator norm; with
    # it, state 0's set would sum to 1 + 3.7e-9, past PROB_ATOL, so it is refused when it is built.
    states = mub_states(2).states.copy()
    states[0] = np.diag([1 + 0.9e-9, 0.0])
    e, channel = InputEnsemble(states=states), KrausChannel((np.sqrt(1 + 0.9e-9) * np.eye(2),))
    xy = cube_povm(1).sets[:2]
    with pytest.raises(ValueError, match="^POVM set 2 does not sum to the identity$"):
        PovmCollection((*xy, (np.diag([1 + 1.9e-9, 0.0]), np.diag([0.0, 1.0]))))
    # The same z set within 1e-9 in operator norm is accepted, sampled and recorded.
    p = PovmCollection((*xy, (np.diag([1 + 0.9e-9, 0.0]), np.diag([0.0, 1.0]))))
    probs = ideal_probabilities(channel, e, p)
    assert probs[0, 4:].sum() > 1 + 2.6e-9
    assert sample_record(probs, 600, p, seed=3).counts[0, 4:].tolist() == [200, 0]
    assert np.array_equal(exact_record(probs, p).freq, probs)


def test_probabilities_beyond_the_tolerance_are_refused():
    p = cube_povm(1)
    probs = np.full((4, 6), 0.5)
    probs[1, 2] = -3.5e-9
    with pytest.raises(ValueError, match="^negative probability -3.500e-09$"):
        sample_record(probs, 600, p)
    with pytest.raises(ValueError, match=re.escape("frequencies must lie in [0, 1]")):
        exact_record(probs, p)
    probs[1, 2] = 1 + 3.5e-9
    with pytest.raises(ValueError, match=re.escape("frequencies must lie in [0, 1]")):
        exact_record(probs, p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sample_record_refuses_non_finite_probabilities(value):
    probs = np.full((4, 6), 0.5)
    probs[2, 3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(ValueError, match="^probabilities contain non-finite entries$"):
            sample_record(probs, 600, cube_povm(1))


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(freq=np.array([[0.5, 1.5]]), set_sizes=(2,))
    with pytest.raises(ValueError):
        MeasurementRecord(freq=np.array([[0.5, 0.5]]), set_sizes=(3,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not cast to real with a ComplexWarning
        with pytest.raises(ValueError, match="^frequency matrix must be real$"):
            MeasurementRecord(freq=np.array([[0.5 + 1e-3j, 0.5]]), set_sizes=(2,))


@pytest.mark.parametrize(
    "meta",
    [
        {"set_sizes": (0.5,) * 72},
        {"set_sizes": (True, True)},
        {"set_sizes": (3, -1)},
        {"set_sizes": "ab"},
        {"set_sizes": 2},
        {"shots_per_set": 0},
        {"shots_per_set": "x"},
        {"shots_per_set": 1.5},
        {"seed": -1},
        {"seed": False},
    ],
)
def test_record_validates_its_metadata(meta):
    cols = 36 if meta.get("set_sizes") == (0.5,) * 72 else 2
    kwargs = {"freq": np.full((1, cols), 0.5), "set_sizes": (2,), **meta}
    with pytest.raises(ValueError):
        MeasurementRecord(**kwargs)


@pytest.mark.parametrize("sampler", ["abc", "2", 0, -1, SAMPLER + 1, 1.0, True])
def test_record_refuses_an_unknown_sampler_by_name(sampler):
    with pytest.raises(ValueError, match="^sampler must be a sampler version"):
        MeasurementRecord(freq=np.full((1, 2), 0.5), set_sizes=(2,), sampler=sampler)


@pytest.mark.parametrize("sampler", [None, 1, SAMPLER, np.int64(SAMPLER)])
def test_record_accepts_known_samplers(sampler):
    assert MeasurementRecord(freq=np.full((1, 2), 0.5), set_sizes=(2,), sampler=sampler).sampler == sampler


def test_record_accepts_numpy_integer_metadata():
    rec = MeasurementRecord(
        freq=np.full((1, 2), 0.5), set_sizes=[np.int64(2)], shots_per_set=np.int64(4), seed=np.uint32(0)
    )
    assert rec.set_sizes == (2,) and isinstance(rec.set_sizes, tuple)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ideal_probabilities(identity_channel(2), mub_states(4), cube_povm(1))


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


def reference_record(probs, copies, povm, seed):
    """Per-cell reference sampler: one multinomial call per (state, set) cell.

    Cells are drawn from one SeedSequence-seeded Philox in the order the
    vectorized sampler visits them: blocks of 64 states, then groups of equally
    sized sets by ascending size, then states, then the group's sets.  A cell's
    probabilities are summed left to right (``cumsum``), as the sampler sums its
    slabs, which are not C-contiguous (``probs[rows, cols]`` and its
    concatenation with the no-click column); numpy's pairwise 1-D ``sum()`` can
    differ from that by an ulp once a cell has 8 or more outcomes.
    """
    m, ell = probs.shape
    shots = copies // povm.num_sets
    slices = set_slices(povm)
    counts = np.zeros((m, ell), dtype=np.int64)
    lost = np.zeros((m, povm.num_sets), dtype=np.int64)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for start in range(0, m, 64):
        for n in sorted(set(povm.set_sizes)):
            for im in range(start, min(start + 64, m)):
                for ij in [ij for ij, size in enumerate(povm.set_sizes) if size == n]:
                    p = np.clip(probs[im, slices[ij]], 0.0, None)
                    pfull = np.append(p, max(1.0 - np.cumsum(p)[-1], 0.0))
                    pfull /= np.cumsum(pfull)[-1]
                    draw = gen.multinomial(shots, pfull)
                    counts[im, slices[ij]] = draw[:-1]
                    lost[im, ij] = draw[-1]
    return counts, lost, counts / shots


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


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_accounts_for_every_shot(case, seed):
    ch, e, p = SAMPLER_CASES[case]()
    probs = ideal_probabilities(ch, e, p)
    copies = 90 * p.num_sets
    rec = sample_record(probs, copies, p, seed=seed)
    assert rec.shots_per_set == 90 and rec.sampler == SAMPLER
    for j, sl in enumerate(set_slices(p)):
        # the no-click column holds exactly the shots the set's elements missed
        assert np.array_equal(rec.lost_counts[:, j], 90 - rec.counts[:, sl].sum(axis=1))
    assert rec.counts.min() >= 0 and rec.lost_counts.min() >= 0
    if np.linalg.norm(ch.contraction() - np.eye(ch.d)) <= 1e-9 * ch.d:  # trace preserving
        assert not rec.lost_counts.any()
    np.testing.assert_array_equal(rec.freq, rec.counts / 90)
    again = sample_record(probs, copies, p, seed=seed)
    assert np.array_equal(again.counts, rec.counts)
    assert np.array_equal(again.lost_counts, rec.lost_counts)


def test_counts_have_multinomial_moments():
    # Every state repeated R times: rows of one state are R independent draws of
    # one multinomial per set, so their sample moments estimate n q and
    # n (diag q - q q^T) per set, with no covariance across sets.  q is a set's
    # probabilities followed by its no-click probability.
    ch = random_channel(2, tp=False, seed=6)
    e, p = mub_states(2), unequal_sets_povm()
    probs = ideal_probabilities(ch, e, p)
    reps, shots = 3000, 40
    rec = sample_record(np.repeat(probs, reps, axis=0), shots * p.num_sets, p, seed=12)
    order = np.concatenate(
        [np.r_[np.arange(sl.start, sl.stop), p.num_elements + j] for j, sl in enumerate(set_slices(p))]
    )
    full = np.concatenate([rec.counts, rec.lost_counts], axis=1)[:, order]
    for k in range(e.num_states):
        x = full[k * reps : (k + 1) * reps]
        qs = [np.append(probs[k, sl], 1.0 - probs[k, sl].sum()) for sl in set_slices(p)]
        mean = shots * np.concatenate(qs)
        cov = np.zeros((len(mean), len(mean)))
        at = 0
        for q in qs:
            cov[at : at + len(q), at : at + len(q)] = shots * (np.diag(q) - np.outer(q, q))
            at += len(q)
        assert np.all(np.abs(x.mean(axis=0) - mean) <= 5 * np.sqrt(np.diag(cov) / reps) + 1e-12)
        # a sample covariance is the mean of the products of deviations; its
        # standard error is their spread over sqrt(R)
        dev = x - x.mean(axis=0)
        products = dev[:, :, None] * dev[:, None, :]
        se = products.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(products.mean(axis=0) - cov) <= 5 * se + 1e-12)


@pytest.mark.parametrize("m", [63, 64, 65, 130])
def test_records_cross_the_state_block_boundary(m):
    # identical rows, so a generator restarted for each block of 64 states
    # would repeat the first block's counts
    ch, p = random_channel(2, tp=False, seed=9), cube_povm(1)
    probs = np.repeat(ideal_probabilities(ch, mub_states(2), p)[:1], m, axis=0)
    rec = sample_record(probs, 300, p, seed=2**40 + m)
    for j, sl in enumerate(set_slices(p)):
        assert np.array_equal(rec.counts[:, sl].sum(axis=1) + rec.lost_counts[:, j], np.full(m, 100))
    again = sample_record(probs, 300, p, seed=2**40 + m)
    assert np.array_equal(again.counts, rec.counts)
    assert np.array_equal(again.lost_counts, rec.lost_counts)
    assert not np.array_equal(sample_record(probs, 300, p, seed=m).counts, rec.counts)
    if m > 64:
        tail = m - 64
        assert not np.array_equal(rec.counts[64:], rec.counts[:tail])


def test_sampler_rejects_non_integer_seeds():
    probs, p = np.full((4, 6), 0.5), cube_povm(1)
    with pytest.raises(ValueError):
        sample_record(probs, 600, p, seed=-1)
    with pytest.raises(ValueError, match="got None"):
        sample_record(probs, 600, p, seed=None)


def seed_entries():
    """The four entry points that take a seed, each called with a seed alone."""
    probs, p = np.full((4, 6), 0.5), cube_povm(1)
    study = dict(povm_spec="cube-povm:1", channel_spec="identity:2", trials=1)
    return {
        "check_seed": check_seed,
        "sample_record": lambda seed: sample_record(probs, 600, p, seed=seed),
        "run_m_scaling_study": lambda seed: run_m_scaling_study(2, (4,), 30, seed=seed, **study),
        "MeasurementRecord": lambda seed: MeasurementRecord(probs, (2, 2, 2), seed=seed),
    }


@pytest.mark.parametrize("entry", ["check_seed", "sample_record", "run_m_scaling_study", "MeasurementRecord"])
def test_one_seed_rule_refuses_what_is_not_a_non_negative_integer_naming_it(entry):
    for seed in (1.5, True, "3", -1):
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
            seed_entries()[entry](seed)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        seed_entries()[entry](-1)


def test_one_seed_rule_accepts_numpy_integers_as_plain_ints():
    entries = seed_entries()
    assert entries["check_seed"](np.int64(3)) == 3 and type(entries["check_seed"](np.int64(3))) is int
    assert np.array_equal(entries["sample_record"](np.int64(3)).counts, entries["sample_record"](3).counts)
    study = entries["run_m_scaling_study"](np.int64(3))
    assert study.rows[0][1:3] == entries["run_m_scaling_study"](3).rows[0][1:3]
    assert type(study.meta["seed"]) is int and study.meta["seed"] == 3
    record = entries["MeasurementRecord"](np.int64(3))
    assert type(record.seed) is int and record.seed == 3


def ideal_probabilities_loop(process, ensemble, povm):
    """Oracle: one channel output per state, column-stacked, then one C @ outputs."""
    outputs = []
    for rho in ensemble.states:
        if isinstance(process, KrausChannel):
            out = np.zeros_like(rho)
            for a in process.kraus:
                out += a @ rho @ dagger(a)
        else:  # E_j rho E_k^dag picks entry rho[col_j, col_k] into slot (row_j, row_k)
            out = np.einsum("abcd,bd->ac", process.mat.reshape((process.d,) * 4), rho)
        outputs.append(out.reshape(-1, order="F"))
    probs = (povm.parameterization() @ np.column_stack(outputs)).T
    return probs.real


@pytest.mark.parametrize("tp", [True, False])
@pytest.mark.parametrize("d, m, qubits", [(4, 150, 2), (16, 300, 4)])
def test_ideal_probabilities_match_the_per_state_loop(d, m, qubits, tp):
    ch, e, p = random_channel(d, tp=tp, seed=d), random_states(d, m, seed=1), cube_povm(qubits)
    probs = ideal_probabilities(ch, e, p)
    # Real Hermitian coordinates sum in another order than the complex product.
    assert np.abs(probs - ideal_probabilities_loop(ch, e, p)).max() <= 1e-14


def test_ideal_probabilities_of_a_process_matrix_match_the_per_state_loop():
    x = process_matrix(random_channel(4, tp=False, seed=2))
    e, p = random_states(4, 130, seed=8), cube_povm(2)
    assert np.abs(ideal_probabilities(x, e, p) - ideal_probabilities_loop(x, e, p)).max() <= 1e-14
