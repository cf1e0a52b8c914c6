import json
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from proctomo.channels import KrausChannel, cnot_channel, identity_channel, process_matrix, random_channel
from proctomo.ensembles import (
    InputEnsemble, PovmCollection, cube_povm, mub_povm, mub_states, natural_basis_states, random_states, sic_povm,
    sic_states,
)
from proctomo.io import load_json
from proctomo.linalg import dagger
from proctomo.reconstruct import TwoStageReconstructor
import proctomo.simulate as simulate
from proctomo.simulate import (
    SAMPLER, MeasurementRecord, check_seed, exact_record, ideal_outputs, ideal_probabilities,
    sample_outputs, sample_record,
)
from proctomo.studies import make_channel, make_ensemble, make_povm, run_m_scaling_study
from dense_oracle import dense_expansion_matrix, transpose_index


def set_slices(povm):
    """The frequency columns of each POVM set, as slices, from its set sizes."""
    ends = np.cumsum(povm.set_sizes)
    return [slice(e - n, e) for n, e in zip(povm.set_sizes, ends)]


# The most shots per set s whose counts c <= s rint(fl(c / s) * s) recovers: two roundings
# leave |fl(fl(c / s) * s) - c| <= c (2u + u^2), u = 2^-53, below 1/2 for c < 2^51.
EXACT_SHOTS = 2**51 - 1


def drawn_counts(rec):
    """A sampled record's int64 M x L counts rint(freq * shots_per_set), exact up to EXACT_SHOTS shots
    per set, and its M x J no-click counts: shots per set minus each set's counts."""
    counts = np.rint(rec.freq * rec.shots_per_set).astype(np.int64)
    return counts, rec.shots_per_set - np.add.reduceat(counts, np.cumsum(rec.set_sizes) - rec.set_sizes, axis=1)


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
    assert np.array_equal(drawn_counts(a)[0], drawn_counts(b)[0])
    c = sample_record(probs, 3000, p, seed=6)
    assert not np.array_equal(drawn_counts(a)[0], drawn_counts(c)[0])


def test_record_counts_are_consistent():
    ch = random_channel(2, tp=False, seed=8)
    e, p = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(ch, e, p)
    rec = sample_record(probs, 3000, p, seed=9)
    shots, (counts, lost) = rec.shots_per_set, drawn_counts(rec)
    # counts plus lost no-click events account for every shot
    for j, sl in enumerate(set_slices(p)):
        total = counts[:, sl].sum(axis=1) + lost[:, j]
        assert np.all(total == shots)
    np.testing.assert_allclose(rec.freq, counts / shots)
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
    with pytest.raises(ValueError, match=re.escape(f"probability matrix sums to {2 * value:.15g} over state 0, POVM set 0")):
        sample_record(np.full((4, 6), value), 600, p)


def test_sample_record_names_the_state_and_set_above_one():
    p = cube_povm(1)
    probs = np.full((70, 6), 0.5)
    probs[66, 5] += 3.5e-9  # state 66 is in the second block of 64, column 5 in set 2
    with pytest.raises(ValueError, match=re.escape("probability matrix sums to 1.0000000035 over state 66, POVM set 2")):
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
    assert drawn_counts(record)[0][0, 4:].tolist() == [200, 0]  # set z of |0><0|
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
    assert drawn_counts(sample_record(probs, 900, p, seed=3))[0][0, -4:].tolist() == [100, 0, 0, 0]
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
    assert drawn_counts(sample_record(probs, 600, p, seed=3))[0][0, 4:].tolist() == [200, 0]
    assert np.array_equal(exact_record(probs, p).freq, probs)


def test_probabilities_beyond_the_tolerance_are_refused():
    p = cube_povm(1)
    probs = np.full((4, 6), 0.5)
    probs[1, 2] = -3.5e-9
    for draw in (lambda: sample_record(probs, 600, p), lambda: exact_record(probs, p)):
        with pytest.raises(ValueError, match="^probability matrix has a negative entry -3.500e-09$"):
            draw()
    probs[1, 2:4] = 1 + 3.5e-9, 0.0  # an entry above one bounds its set's sum
    for draw in (lambda: sample_record(probs, 600, p), lambda: exact_record(probs, p)):
        with pytest.raises(ValueError, match=f"^{re.escape('probability matrix sums to 1.0000000035 over state 1, POVM set 1')}$"):
            draw()


def with_entry(value):
    probs = np.full((4, 6), 0.5)
    probs[2, 3] = value
    return probs


@pytest.mark.parametrize(
    "probs, message",
    [
        *(pytest.param(with_entry(v), "must be finite, got non-finite entries", id=str(v))
          for v in (np.nan, np.inf, -np.inf)),
        pytest.param(np.full((4, 6), 0.5 + 1e-3j), "must be real", id="complex"),
        pytest.param(np.full(6, 0.5), "must be 2-D (states x operators), got shape (6,)", id="1-D"),
        pytest.param(np.zeros((0, 6)), "must be 2-D (states x operators), got shape (0, 6)", id="empty"),
    ],
)
def test_sample_record_refuses_non_finite_probabilities(probs, message):
    for draw in (lambda p: sample_record(probs, 600, p), lambda p: exact_record(probs, p)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy warns or casts to real
            with pytest.raises(ValueError, match=f"^probability matrix {re.escape(message)}$"):
                draw(cube_povm(1))


def test_sample_record_takes_shots_up_to_the_int64_maximum_and_refuses_more():
    p, most = cube_povm(1), np.iinfo(np.int64).max  # three sets of two elements
    probs = np.full((4, 6), 0.5)
    rec = sample_record(probs, 3 * most, p)
    assert rec.shots_per_set == most
    message = f"{3 * most + 3} copies per state give {most + 1} shots to each of the 3 sets of POVM 'cube-1', above {most}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_record(probs, 3 * most + 3, p)


def test_counts_are_exact_at_the_largest_shot_count_the_bound_serves():
    p, most = cube_povm(1), EXACT_SHOTS  # three sets of two elements
    assert most == 2**51 - 1
    # Counts within a few of the bound, and small ones beside them, in every set.
    counts = np.array([[most - 3, 1, most, 0, 2, most - 7], [most // 2, most // 2 + 1, 0, 0, most - 1, 1]])
    got, lost = drawn_counts(MeasurementRecord(counts / most, p.set_sizes, shots_per_set=most))
    assert np.array_equal(got, counts)
    assert got.dtype == np.int64 and np.array_equal(lost, [[2, 0, 5], [0, most, 0]])
    assert np.all(got.reshape(2, 3, 2).sum(axis=-1) + lost == most)
    # Sampled there, counts and no-click counts account for every shot.
    sampled = sample_record(np.full((4, 6), 0.3), 3 * most, p, seed=4)
    assert sampled.shots_per_set == most
    got, lost = drawn_counts(sampled)
    assert np.all(got.reshape(4, 3, 2).sum(axis=-1) + lost == most)
    assert lost.min() > 0


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(freq=np.array([[0.5, 1.5]]), set_sizes=(2,))
    with pytest.raises(ValueError):
        MeasurementRecord(freq=np.array([[0.5, 0.5]]), set_sizes=(3,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not cast to real with a ComplexWarning
        with pytest.raises(ValueError, match="^frequency matrix must be real$"):
            MeasurementRecord(freq=np.array([[0.5 + 1e-3j, 0.5]]), set_sizes=(2,))
    message = "frequency matrix must be 2-D (states x operators), got shape (0, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MeasurementRecord(freq=np.zeros((0, 2)), set_sizes=(2,))


def test_record_refuses_sets_summing_above_one_naming_the_state_and_set(tmp_path):
    freq = [[0.9, 0.9, 0.5, 0.5], [0.3, 0.3, 0.6, 0.4 + 4e-9]]
    with pytest.raises(ValueError, match="^frequency matrix sums to 1.8 over state 0, POVM set 0$"):
        MeasurementRecord(freq=freq, set_sizes=(2, 2), shots_per_set=2)
    message = "frequency matrix sums to 1.000000004 over state 1, POVM set 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MeasurementRecord(freq=[[0.5] * 4, freq[1]], set_sizes=(2, 2))
    # within PROB_ATOL, as sample_record allows, is accepted
    MeasurementRecord(freq=[[0.5, 0.5 + 2e-9]], set_sizes=(2,))
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"kind": "record", "set_sizes": [2, 2], "shots_per_set": 2, "freq": freq}))
    with pytest.raises(ValueError, match=f"^record document {re.escape(str(path))}: frequency matrix sums to 1.8 over state 0"):
        load_json(path)


def cube1_with(index, values):
    """cube-povm:1 probabilities (4 states, three sets of two) of 0.5, but ``values`` at ``index``."""
    probs = np.full((4, 6), 0.5)
    probs[index] = values
    return probs


def mub4_with_first_set(values):
    """One state's mub-povm:4 probabilities (five sets of four) of 0.25, but ``values`` in set 0."""
    return np.array([[*values, *[0.25] * 16]])


def one_set_of_two():
    """No informationally complete POVM has two elements; the sampler reads only the set sizes."""
    return SimpleNamespace(set_sizes=(2,), num_sets=1, num_elements=2)


def write_record(path, doc):
    """A record document, complex entries written as the package writes complex matrices."""
    encode = lambda m: m.tolist() if not np.iscomplexobj(m) else {"re": m.real.tolist(), "im": m.imag.tolist()}
    path.write_text(json.dumps({key: encode(value) if isinstance(value, np.ndarray) else value
                                for key, value in doc.items()}))
    return path


@pytest.mark.parametrize(
    "povm, probs, accepted",
    [
        pytest.param(lambda: mub_povm(4), mub4_with_first_set([0.5 + 2e-9, 0.5 + 2e-9, -2e-9, 0.0]), False,
                     id="mub-povm-4-set-above-one"),
        pytest.param(lambda: cube_povm(1), cube1_with((1, 2), -3.5e-9), False, id="negative-entry"),
        pytest.param(lambda: cube_povm(1), cube1_with((1, slice(2, 4)), (1 + 3.5e-9, 0.0)), False,
                     id="entry-above-one"),
        pytest.param(lambda: cube_povm(1), cube1_with((1, slice(2, 4)), (0.5, 0.5 + 2.5e-9)), True,
                     id="set-sum-within-tolerance"),
        pytest.param(lambda: cube_povm(1), np.full((4, 5), 0.2), False, id="column-count"),
        pytest.param(lambda: cube_povm(1), cube1_with((2, 3), np.nan), False, id="nan"),
        pytest.param(lambda: cube_povm(1), np.full((4, 6), 0.5 + 1e-3j), False, id="complex"),
        pytest.param(one_set_of_two, np.array([[-5.0, 7.0]]), False, id="ideal-document"),
    ],
)
def test_one_verdict_for_one_matrix_at_every_entry_point(povm, probs, accepted, tmp_path):
    povm = povm()
    sizes, valid = povm.set_sizes, np.zeros((len(probs), povm.num_elements))
    freq_doc = write_record(tmp_path / "freq.json", {"kind": "record", "set_sizes": sizes, "freq": probs})
    ideal_doc = write_record(tmp_path / "ideal.json", {"kind": "record", "set_sizes": sizes, "freq": valid,
                                                       "ideal": probs})
    # entry point -> (call, the start of its refusal, the names of the matrix one of which it holds)
    entries = {
        "sample_record": (lambda: sample_record(probs, 100 * povm.num_sets, povm), "", ["probability matrix "]),
        "exact_record": (lambda: exact_record(probs, povm), "", ["probability matrix "]),
        "freq": (lambda: MeasurementRecord(freq=probs, set_sizes=sizes), "", ["frequency matrix "]),
        "ideal": (lambda: MeasurementRecord(freq=valid, set_sizes=sizes, ideal=probs), "",
                  ["ideal probability matrix "]),
        # JSON holds no complex number: the complex case fails decoding, naming the field.
        "freq document": (lambda: load_json(freq_doc), f"record document {freq_doc}",
                          ["frequency matrix ", "field 'freq'"]),
        "ideal document": (lambda: load_json(ideal_doc), f"record document {ideal_doc}",
                           ["ideal probability matrix ", "field 'ideal'"]),
    }
    verdicts = {}
    for entry, (call, start, names) in entries.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a complex matrix is refused, never cast
                call()
            verdicts[entry] = True
        except ValueError as exc:
            verdicts[entry] = False
            message = str(exc)
            assert message.startswith(start) and any(name in message for name in names), (entry, message)
    assert verdicts == dict.fromkeys(entries, accepted)


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


@pytest.mark.parametrize(
    "refuse, named",
    [
        (lambda: ideal_outputs(identity_channel(2), mub_states(4)), "process: d=2; ensemble: d=4"),
        (lambda: ideal_probabilities(identity_channel(2), mub_states(4), cube_povm(1)),
         "process: d=2; ensemble: d=4; POVM: d=2"),
        (lambda: TwoStageReconstructor(mub_states(4), cube_povm(1)), "ensemble: d=4; POVM: d=2"),
    ],
    ids=["ideal_outputs", "ideal_probabilities", "TwoStageReconstructor"],
)
def test_dimension_mismatch_rejected(refuse, named):
    # One rule, linalg.check_dimensions, names each object's d.
    with pytest.raises(ValueError, match=f"^dimension mismatch: {re.escape(named)}$"):
        refuse()


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
    # Three blocks of 64 states, and two blocks of three size groups.
    "m-130-three-blocks": lambda: (random_channel(4, tp=True, seed=4), random_states(4, 130, seed=5), cube_povm(2)),
    "unequal-sets-70": lambda: (random_channel(2, tp=False, seed=11), random_states(2, 70, seed=6), unequal_sets_povm()),
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
    drawn, drawn_lost = drawn_counts(rec)
    assert np.array_equal(drawn, counts)
    assert np.array_equal(drawn_lost, lost)
    assert np.array_equal(rec.freq, freq)
    # Drawn in place over the probabilities it forms from Y, one size group after another in each block.
    assert np.array_equal(sample_outputs(ideal_outputs(ch, e), copies, p, seed=seed).freq, freq)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_accounts_for_every_shot(case, seed):
    ch, e, p = SAMPLER_CASES[case]()
    probs = ideal_probabilities(ch, e, p)
    copies = 90 * p.num_sets
    rec = sample_record(probs, copies, p, seed=seed)
    assert rec.shots_per_set == 90 and rec.sampler == SAMPLER
    counts, lost = drawn_counts(rec)
    for j, sl in enumerate(set_slices(p)):
        # the no-click column holds exactly the shots the set's elements missed
        assert np.array_equal(lost[:, j], 90 - counts[:, sl].sum(axis=1))
    assert counts.min() >= 0 and lost.min() >= 0
    if np.linalg.norm(ch.contraction() - np.eye(ch.d)) <= 1e-9 * ch.d:  # trace preserving
        assert not lost.any()
    np.testing.assert_array_equal(rec.freq, counts / 90)
    again = drawn_counts(sample_record(probs, copies, p, seed=seed))
    assert np.array_equal(again[0], counts)
    assert np.array_equal(again[1], lost)


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
    full = np.concatenate(drawn_counts(rec), axis=1)[:, order]
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
    counts, lost = drawn_counts(sample_record(probs, 300, p, seed=2**40 + m))
    for j, sl in enumerate(set_slices(p)):
        assert np.array_equal(counts[:, sl].sum(axis=1) + lost[:, j], np.full(m, 100))
    again = drawn_counts(sample_record(probs, 300, p, seed=2**40 + m))
    assert np.array_equal(again[0], counts)
    assert np.array_equal(again[1], lost)
    assert not np.array_equal(drawn_counts(sample_record(probs, 300, p, seed=m))[0], counts)
    if m > 64:
        tail = m - 64
        assert not np.array_equal(counts[64:], counts[:tail])


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
    assert np.array_equal(drawn_counts(entries["sample_record"](np.int64(3)))[0],
                          drawn_counts(entries["sample_record"](3))[0])
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


# (channel, ensemble, POVM) specs of the benchmark workloads' designs; the state-count sweep's at each M.
WORKLOAD_DESIGNS = [
    ("random:16:nontp:5", "cube-states:4", "cube-povm:4"),
    ("random:8:tp:3", "cube-states:3", "cube-povm:3"),
    *[("random:4:tp:7", f"random:4:{m}:{m}", "cube-povm:2") for m in (16, 32, 64, 128)],
]


@pytest.mark.parametrize("specs", WORKLOAD_DESIGNS, ids=lambda specs: specs[1])
def test_ideal_probabilities_are_the_one_real_product_bit_for_bit(specs):
    ch, e, p = make_channel(specs[0]), make_ensemble(specs[1]), make_povm(specs[2])
    probs = ideal_probabilities(ch, e, p)
    assert np.array_equal(ideal_outputs(ch, e), e.herm_coords() @ ch.transfer.T)
    assert np.array_equal(probs, e.herm_coords() @ ch.transfer.T @ p.born_table.T)


OUTPUT_CASES = {
    "m-below-64": lambda: (random_channel(2, tp=False, seed=3), mub_states(2), cube_povm(1)),
    "m-130-three-blocks": lambda: (random_channel(4, tp=True, seed=4), random_states(4, 130, seed=5), cube_povm(2)),
    "d8-products": lambda: (random_channel(8, tp=True, seed=3), make_ensemble("cube-states:3"), cube_povm(3)),
    "sic-sic-povm": lambda: (cnot_channel(), sic_states(4), sic_povm(4)),
    "unequal-sets": lambda: (random_channel(2, tp=False, seed=11), random_states(2, 70, seed=6), unequal_sets_povm()),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_records_drawn_from_outputs_equal_records_drawn_from_probabilities(case):
    ch, e, p = OUTPUT_CASES[case]()
    copies = 90 * p.num_sets
    for seed in (0, 7):
        drawn = sample_outputs(ideal_outputs(ch, e), copies, p, seed=seed)
        want = sample_record(ideal_probabilities(ch, e, p), copies, p, seed=seed, keep_ideal=False)
        assert np.array_equal(drawn.freq, want.freq)
        assert (drawn.set_sizes, drawn.shots_per_set, drawn.seed, drawn.ideal, drawn.sampler) == (
            want.set_sizes, want.shots_per_set, want.seed, None, SAMPLER)


def qubit_outputs(m):
    """The output coordinates of m random qubit states through the identity channel, and a POVM for them."""
    return ideal_outputs(identity_channel(2), random_states(2, m, seed=9)), cube_povm(1)


def test_sample_outputs_names_the_state_of_a_set_above_one():
    outputs, p = qubit_outputs(70)
    outputs[66] *= 2  # every set of state 66, in the second block of 64, sums to 2
    with pytest.raises(ValueError, match=re.escape("probability matrix sums to 2 over state 66, POVM set 0")):
        sample_outputs(outputs, 600, p)
    outputs[66] /= 2
    outputs[66, 0] = -1.0  # the negative entry of the second block
    with pytest.raises(ValueError, match="^probability matrix has a negative entry"):
        sample_outputs(outputs, 600, p)


@pytest.mark.parametrize(
    "outputs, message",
    [
        (lambda y: y + 1e-3j, "output coordinates must be real"),
        (lambda y: np.where(np.arange(4) == 2, np.nan, y), "output coordinates must be finite, got non-finite entries"),
        (lambda y: np.where(np.arange(4) == 1, np.inf, y), "output coordinates must be finite, got non-finite entries"),
        (lambda y: y[0], "output coordinates must be 2-D"),
        (lambda y: y[None], "output coordinates must be 2-D"),
        (lambda y: y[:0], "output coordinates must be 2-D"),
        (lambda y: y[:, :3], "output coordinates have 3 columns, not d^2 = 4 for the POVM"),
        (lambda y: ideal_outputs(identity_channel(4), mub_states(4)),
         "output coordinates have 16 columns, not d^2 = 4 for the POVM"),
    ],
)
def test_sample_outputs_refuses_outputs_that_are_not_a_real_matrix_for_the_povm(outputs, message):
    y, p = qubit_outputs(5)
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_outputs(outputs(y), 600, p)


def test_sample_outputs_takes_the_copies_and_seed_rules_of_sample_record():
    y, p = qubit_outputs(5)
    probs = ideal_probabilities(identity_channel(2), random_states(2, 5, seed=9), p)
    for bad in ({"copies": 2}, {"copies": 0}, {"copies": 600.0}, {"copies": True}, {"copies": 2**64 * 3},
                {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": None}):
        kwargs = {"copies": 600, "seed": 0, **bad}
        with pytest.raises(ValueError) as want:
            sample_record(probs, povm=p, **kwargs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            sample_outputs(y, povm=p, **kwargs)
    drawn = sample_outputs(y, 600, p, seed=np.int64(3))
    assert type(drawn.seed) is int and drawn.seed == 3 and drawn.shots_per_set == 200


def counting_outcome_checks(monkeypatch):
    """The calls of ``simulate._outcome_matrix`` made after this one, one name per call."""
    calls, check = [], simulate._outcome_matrix
    monkeypatch.setattr(simulate, "_outcome_matrix", lambda x, what, *args: calls.append(what) or check(x, what, *args))
    return calls


def test_each_matrix_is_checked_once(monkeypatch):
    ch, e, p = OUTPUT_CASES["m-130-three-blocks"]()
    probs = ideal_probabilities(ch, e, p)
    calls = counting_outcome_checks(monkeypatch)
    exact = exact_record(probs, p)
    assert calls == ["probability matrix"] and np.array_equal(exact.freq, probs) and exact.freq is not probs
    calls.clear()
    kept = sample_record(probs, 900, p, seed=1)
    assert calls == ["probability matrix"] and np.array_equal(kept.ideal, probs) and kept.ideal is not probs
    calls.clear()
    sample_outputs(ideal_outputs(ch, e), 900, p, seed=1)
    assert calls == ["probability matrix"] * 3  # one per block of 64 states
    calls.clear()
    MeasurementRecord(freq=kept.freq, set_sizes=p.set_sizes, shots_per_set=kept.shots_per_set, ideal=kept.ideal)
    assert calls == ["frequency matrix", "ideal probability matrix"]


def test_a_record_whose_frequencies_are_not_whole_counts_is_refused(tmp_path):
    with pytest.raises(ValueError, match=re.escape(
            "frequency matrix times 2 shots per set is 0.6 at state 0, element 0, not a whole count")):
        MeasurementRecord(freq=[[0.3, 0.3]], set_sizes=(2,), shots_per_set=2)
    freq = np.full((130, 2), 0.5)
    freq[100, 1] = 0.25 + 1e-4  # in the second block of 64
    with pytest.raises(ValueError, match="is 200.08 at state 100, element 1, not a whole count"):
        MeasurementRecord(freq=freq, set_sizes=(2,), shots_per_set=800)
    path = write_record(tmp_path / "r.json", {"kind": "record", "set_sizes": [2], "shots_per_set": 800, "freq": freq})
    with pytest.raises(ValueError, match=f"^record document {re.escape(str(path))}: frequency matrix times 800"):
        load_json(path)
    freq[100, 1] = 0.25 + 1e-9 / 800  # within COUNT_ATOL = 1e-6 of a count
    MeasurementRecord(freq=freq, set_sizes=(2,), shots_per_set=800)
    MeasurementRecord(freq=freq, set_sizes=(2,))  # an exact record has no counts to check


def test_records_of_drawn_counts_are_whole_at_every_shot_count():
    gen = np.random.default_rng(4)
    for shots in (1, 3, 100, 10**9 + 7, EXACT_SHOTS, 2**62 + 1):
        counts = gen.integers(0, shots, size=(70, 2), endpoint=True)
        counts[:, 1] = shots - counts[:, 0]
        MeasurementRecord(freq=counts / shots, set_sizes=(2,), shots_per_set=shots)
