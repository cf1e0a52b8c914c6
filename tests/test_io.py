import json
import re

import numpy as np
import pytest

import proctomo.io as pio
from proctomo.channels import process_matrix, random_channel
from proctomo.ensembles import cube_povm, mub_states, random_states, sic_povm
from proctomo.linalg import from_herm_coords
from proctomo.reconstruct import TwoStageReconstructor
from proctomo.simulate import MeasurementRecord, exact_record, ideal_probabilities, sample_record
from test_simulate import drawn_counts


def test_channel_round_trip_bit_exact(tmp_path):
    ch = random_channel(4, tp=False, seed=60)
    path = tmp_path / "channel.json"
    pio.save_json(ch, path)
    loaded = pio.load_json(path)
    assert loaded.label == ch.label
    assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, loaded.kraus))


def test_process_round_trip_bit_exact(tmp_path):
    x = process_matrix(random_channel(3, tp=True, seed=61))
    path = tmp_path / "process.json"
    pio.save_json(x, path)
    assert np.array_equal(pio.load_json(path).mat, x.mat)


def test_ensemble_round_trip_bit_exact(tmp_path):
    e = random_states(2, 7, seed=62)
    path = tmp_path / "ensemble.json"
    pio.save_json(e, path)
    loaded = pio.load_json(path)
    assert loaded.label == e.label
    assert all(np.array_equal(a, b) for a, b in zip(e.states, loaded.states))


def test_povm_round_trip_bit_exact(tmp_path):
    p = sic_povm(4)
    path = tmp_path / "povm.json"
    pio.save_json(p, path)
    loaded = pio.load_json(path)
    assert loaded.set_sizes == p.set_sizes
    for g1, g2 in zip(p.sets, loaded.sets):
        assert all(np.array_equal(a, b) for a, b in zip(g1, g2))


def make_record(seed=63):
    ch = random_channel(2, tp=False, seed=seed)
    e, p = mub_states(2), cube_povm(1)
    return sample_record(ideal_probabilities(ch, e, p), 900, p, seed=seed), e, p


def test_record_json_round_trip(tmp_path):
    rec, _, _ = make_record()
    path = tmp_path / "record.json"
    pio.save_json(rec, path)
    loaded = pio.load_json(path)
    assert np.array_equal(loaded.freq, rec.freq)
    assert all(np.array_equal(a, b) for a, b in zip(drawn_counts(loaded), drawn_counts(rec)))
    assert np.array_equal(loaded.ideal, rec.ideal)
    assert loaded.shots_per_set == rec.shots_per_set
    assert loaded.seed == rec.seed
    assert loaded.set_sizes == rec.set_sizes
    assert not {"counts", "lost_counts"} & set(json.loads(path.read_text()))


# The counts and no-click counts that records of make_record() stored before a record
# became its frequency matrix.
LEGACY_COUNTS = [
    [110, 114, 131, 104, 179, 65], [125, 121, 96, 131, 35, 195], [172, 61, 192, 55, 150, 90],
    [55, 170, 71, 147, 63, 166], [139, 85, 73, 154, 81, 156], [107, 129, 186, 44, 142, 97],
]
LEGACY_LOST = [[76, 65, 56], [54, 73, 70], [67, 53, 60], [75, 82, 71], [76, 73, 63], [64, 70, 61]]


@pytest.mark.parametrize("sampler", [True, False], ids=["with-sampler", "without-sampler"])
def test_a_legacy_record_document_loads_its_counts_from_freq(tmp_path, sampler):
    rec, _, _ = make_record()
    doc = {**pio.to_dict(rec), "counts": LEGACY_COUNTS, "lost_counts": LEGACY_LOST}
    if not sampler:
        del doc["sampler"]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(doc))
    loaded = pio.load_json(path)
    assert loaded.freq.tobytes() == rec.freq.tobytes()
    counts, lost = drawn_counts(loaded)
    assert counts.tolist() == LEGACY_COUNTS and lost.tolist() == LEGACY_LOST
    assert loaded.sampler == (2 if sampler else 1)


def test_a_legacy_count_beyond_int64_is_ignored(tmp_path):
    # The key is no longer read, so nothing refuses the count; counts come from freq.
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"kind": "record", "freq": [[0.5, 0.5]], "set_sizes": [2], "shots_per_set": 2,
                                "counts": [[2**70, 0]]}))
    assert drawn_counts(pio.load_json(path))[0].tolist() == [[1, 1]]


def test_a_record_document_with_malformed_ideal_probabilities_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"kind": "record", "freq": [[0.5, 0.5]], "set_sizes": [2],
                                "ideal": [[float("nan"), 2.0, 3.0]]}))
    with pytest.raises(ValueError, match=f"^record document {re.escape(str(path))}: ideal probability matrix") as info:
        pio.load_json(path)
    assert "non-finite" in str(info.value)
    for ideal, message in [
        ([[0.5, 0.5, 0.0]], "ideal probability matrix has 3 columns, not 2, one per set element"),
        ([[0.5, 0.5], [0.5, 0.5]], "ideal probability matrix has shape (2, 2), not (1, 2)"),
    ]:
        path.write_text(json.dumps({"kind": "record", "freq": [[0.5, 0.5]], "set_sizes": [2], "ideal": ideal}))
        with pytest.raises(ValueError, match=f"^record document {re.escape(str(path))}: {re.escape(message)}$"):
            pio.load_json(path)


def test_record_sampler_stamp_round_trips(tmp_path):
    rec, _, p = make_record()
    exact = exact_record(rec.ideal, p)
    assert (rec.sampler, exact.sampler) == (2, None)
    assert (exact.shots_per_set, exact.copies_per_state) == (None, None)
    for r in (rec, exact):
        path = tmp_path / "record.json"
        pio.save_json(r, path)
        assert json.loads(path.read_text())["sampler"] == r.sampler
        loaded = pio.load_json(path)
        assert loaded.sampler == r.sampler and np.array_equal(loaded.freq, r.freq)
        assert (loaded.shots_per_set, loaded.copies_per_state) == (r.shots_per_set, r.copies_per_state)


def test_record_without_sampler_field_loads_as_version_1(tmp_path):
    rec, _, _ = make_record()
    obj = pio.to_dict(rec)
    del obj["sampler"]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(obj))
    loaded = pio.load_json(path)
    assert loaded.sampler == 1
    assert np.array_equal(drawn_counts(loaded)[0], drawn_counts(rec)[0])


@pytest.mark.parametrize("sampler", ["abc", 0, 99, 2.5])
def test_record_document_with_an_unknown_sampler_is_refused_naming_the_file(tmp_path, sampler):
    rec, _, _ = make_record()
    obj = pio.to_dict(rec)
    obj["sampler"] = sampler
    path = tmp_path / "record.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="sampler") as info:
        pio.load_json(path)
    assert str(path) in str(info.value)


def test_estimate_round_trip(tmp_path):
    rec, e, p = make_record(65)
    est = TwoStageReconstructor(e, p).estimate(rec, tp_prior=True)
    path = tmp_path / "estimate.json"
    pio.save_json(est, path, include_intermediates=True)
    loaded = pio.load_json(path)
    assert np.array_equal(loaded.x_hat, est.x_hat)
    assert np.array_equal(loaded.least_squares, est.least_squares)
    assert loaded.trace_rank == est.trace_rank
    assert loaded.tp_prior == est.tp_prior
    # without intermediates the estimate still loads
    pio.save_json(est, path)
    slim = pio.load_json(path)
    assert np.array_equal(slim.x_hat, est.x_hat)
    assert slim.least_squares is None


def test_estimate_documents_omit_the_retired_spectra_and_older_ones_still_load(tmp_path):
    rec, e, p = make_record(70)
    est = TwoStageReconstructor(e, p).estimate(rec)
    path = tmp_path / "estimate.json"
    pio.save_json(est, path)
    doc = json.loads(path.read_text())
    assert set(doc["diagnostics"]) == {
        "trace_rank", "clipped_count", "tp_prior", "tp_fallback", "copies_per_state", "trace_spectrum",
    }
    # Documents written before the two derived spectra were dropped carry them as well.
    spectrum = doc["diagnostics"]["trace_spectrum"]
    doc["diagnostics"]["adjusted_spectrum"] = spectrum
    doc["diagnostics"]["capped_spectrum"] = [min(f, 1.0) for f in spectrum]
    path.write_text(json.dumps(doc))
    loaded = pio.load_json(path)
    assert np.array_equal(loaded.x_hat, est.x_hat)
    assert np.array_equal(loaded.trace_spectrum, est.trace_spectrum)
    assert loaded.trace_rank == est.trace_rank and loaded.copies_per_state == est.copies_per_state == 900
    assert not hasattr(loaded, "adjusted_spectrum") and not hasattr(loaded, "capped_spectrum")


def test_estimate_output_coeffs_are_written_real(tmp_path):
    rec, e, p = make_record(68)
    est = TwoStageReconstructor(e, p).estimate(rec)
    path = tmp_path / "estimate.json"
    pio.save_json(est, path, include_intermediates=True)
    doc = json.loads(path.read_text())
    assert np.array_equal(np.asarray(doc["intermediates"]["output_coeffs"]), est.output_coeffs)
    loaded = pio.load_json(path)
    assert loaded.output_coeffs.dtype == float and np.array_equal(loaded.output_coeffs, est.output_coeffs)
    # A file written while step 1's output was complex holds {"re", "im"} there; it is refused,
    # naming the field and the file.
    doc["intermediates"]["output_coeffs"] = pio.MATRIX[0](from_herm_coords(est.output_coeffs).reshape(6, 4))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"estimate document {path} has a malformed field 'output_coeffs'")):
        pio.load_json(path)


def test_write_table_appends_with_provenance(tmp_path):
    path = tmp_path / "table.tsv"
    pio.write_table(path, {"seed": 1}, ["a", "b"], [[1, 2.5]])
    pio.write_table(path, {"seed": 2}, ["a", "b"], [[3, 4.5]])
    text = path.read_text()
    assert text.count("# seed") == 2
    assert "2.5" in text and "4.5" in text


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "mystery"}')
    with pytest.raises(ValueError):
        pio.load_json(path)


def test_save_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        pio.save_json(object(), tmp_path / "x.json")


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "ensemble"}, "states"),
        ({"kind": "povm", "label": "x"}, "sets"),
        ({"kind": "channel"}, "kraus"),
        ({"kind": "process", "mat": {"re": [[1.0]]}}, "im"),
        ({"kind": "record", "set_sizes": [2]}, "freq"),
    ],
)
def test_missing_fields_raise_value_error_naming_kind_and_field(tmp_path, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{doc['kind']} document .* field '{field}'"):
        pio.load_json(path)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "ensemble", "states": 3}, "states"),
        ({"kind": "povm", "sets": [{"re": [[1.0]], "im": [[0.0]]}]}, "sets"),
        ({"kind": "channel", "kraus": [{"re": "ab", "im": 0}]}, "kraus"),
        ({"kind": "process", "mat": [1.0]}, "mat"),
        ({"kind": "record", "freq": [[0.5], [0.5, 0.5]], "set_sizes": [2]}, "freq"),
        ({"kind": "record", "freq": [[0.5, 0.5]], "set_sizes": [2], "ideal": [[0.5], [0.5, 0.5]]}, "ideal"),
        ({"kind": "estimate", "x_hat": {"re": [[1.0]], "im": [[0.0]]}, "diagnostics": 3}, "trace_rank"),
    ],
)
def test_malformed_fields_raise_value_error_naming_path_kind_and_field(tmp_path, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{doc['kind']} document .*doc.json has a malformed field '{field}'"):
        pio.load_json(path)


def test_load_refuses_a_document_of_another_kind(tmp_path):
    rec, e, p = make_record(69)
    path = tmp_path / "estimate.json"
    pio.save_json(TwoStageReconstructor(e, p).estimate(rec), path)
    with pytest.raises(ValueError, match="does not contain a MeasurementRecord"):
        pio.load_json(path, (MeasurementRecord,))


@pytest.mark.parametrize("text", ["[]", "3", '"ensemble"', '{"kind": ["record"]}'])
def test_non_object_documents_raise_value_error(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="unknown document kind"):
        pio.load_json(path)


def test_ensemble_document_without_states_is_a_value_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": "ensemble", "states": []}))
    with pytest.raises(ValueError, match="at least one state"):
        pio.load_json(path)
