"""Property tests for the JSON documents of ``proctomo.io``.

Round trips: every object kind, saved and loaded again, equals the original
field by field and bit for bit, and saving the loaded object writes the same
bytes.  Document fuzz: a valid document with one field, at any depth,
replaced by a value of another shape makes the CLI command that loads it
exit 0 or 2, never with a traceback.
"""

import contextlib
import copy
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import proctomo.io as pio  # noqa: E402
from proctomo.channels import process_matrix, random_channel  # noqa: E402
from proctomo.cli import main  # noqa: E402
from proctomo.ensembles import cube_povm, mub_povm, mub_states, projective_povm, random_states  # noqa: E402
from proctomo.linalg import haar_unitary  # noqa: E402
from proctomo.reconstruct import TwoStageReconstructor  # noqa: E402
from proctomo.simulate import exact_record, ideal_probabilities, sample_record  # noqa: E402

ROUND_TRIP = settings(max_examples=25, deadline=None, derandomize=True, database=None)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
INTERMEDIATES = ("output_coeffs", "least_squares", "psd_projection", "trace_rotation")


def assert_bit_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_bit_equal(x, y)
    else:
        assert a == b


def assert_round_trip(obj, expected=None, **kwargs):
    """Save and load ``obj``; the loaded object equals ``expected`` (default
    ``obj``) in every constructor field and saves to the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        pio.save_json(obj, path, **kwargs)
        first = path.read_bytes()
        loaded = pio.load_json(path)
        pio.save_json(loaded, path, **kwargs)
        assert path.read_bytes() == first
    expected = obj if expected is None else expected
    assert type(loaded) is type(expected)
    for f in dataclasses.fields(expected):
        if f.init:
            assert_bit_equal(getattr(loaded, f.name), getattr(expected, f.name))


def haar_povm(d, seed):
    rng = np.random.default_rng(seed)
    return projective_povm([haar_unitary(d, rng) for _ in range(d + 1)], label=f"haar-{d}")


CHANNELS = st.builds(random_channel, st.integers(2, 4), tp=st.booleans(), seed=SEEDS)


@ROUND_TRIP
@given(channel=CHANNELS)
def test_channel_and_process_matrix_round_trip_bit_exact(channel):
    assert_round_trip(channel)
    assert_round_trip(process_matrix(channel))


@ROUND_TRIP
@given(d=st.integers(2, 4), extra=st.integers(0, 3), seed=SEEDS)
def test_ensemble_round_trip_bit_exact(d, extra, seed):
    assert_round_trip(random_states(d, d * d + extra, seed=seed))


@ROUND_TRIP
@given(
    povm=st.one_of(
        st.integers(1, 2).map(cube_povm),
        st.sampled_from([2, 4]).map(mub_povm),
        st.builds(haar_povm, st.integers(2, 4), SEEDS),
    )
)
def test_povm_round_trip_bit_exact(povm):
    assert_round_trip(povm)


@ROUND_TRIP
@given(
    channel=CHANNELS,
    seed=SEEDS,
    shots=st.integers(1, 40),
    exact=st.booleans(),
    tp_prior=st.booleans(),
    intermediates=st.booleans(),
)
def test_record_and_estimate_round_trip_bit_exact(channel, seed, shots, exact, tp_prior, intermediates):
    d = channel.d
    ensemble, povm = random_states(d, d * d, seed=seed), haar_povm(d, seed)
    probs = ideal_probabilities(channel, ensemble, povm)
    record = exact_record(probs, povm) if exact else sample_record(probs, shots * povm.num_sets, povm, seed=seed)
    assert_round_trip(record)
    est = TwoStageReconstructor(ensemble, povm).estimate(record, tp_prior=tp_prior)
    slim = dataclasses.replace(est, **dict.fromkeys(INTERMEDIATES))
    assert_round_trip(est, None if intermediates else slim, include_intermediates=intermediates)


def _base_documents():
    ch = random_channel(2, tp=False, seed=5)
    e, p = mub_states(2), cube_povm(1)
    rec = sample_record(ideal_probabilities(ch, e, p), 6, p, seed=5)
    objects = {
        "channel": ch,
        "process": process_matrix(ch),
        "ensemble": e,
        "povm": p,
        "record": rec,
        "exact-record": exact_record(rec.ideal, p),
        "estimate": TwoStageReconstructor(e, p).estimate(rec),
    }
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for name, obj in objects.items():
            pio.save_json(obj, path)
            docs[name] = json.loads(path.read_text())
    return docs


BASE = _base_documents()
DESIGN = ["--ensemble", "mub:2", "--povm", "cube-povm:1"]


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.text(alphabet="ab1.-", max_size=3))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["re", "im", "kind"]), inner, max_size=2),
    max_leaves=5,
)


@st.composite
def mutations(draw):
    """(document name, path, value); the path may be cut short, and the empty
    path leaves the document as it is."""
    name = draw(st.sampled_from(sorted(BASE)))
    path = draw(st.sampled_from(list(_paths(BASE[name]))))
    return name, path[: draw(st.integers(0, len(path)))], draw(VALUES)


def _command(name, path, out):
    if name in ("ensemble", "povm"):
        return ["design-audit", f"file:{path}"]
    if name in ("channel", "process"):
        return ["simulate", "--channel", f"file:{path}", *DESIGN, "--copies", "60", "--output", out]
    return ["reconstruct", "--record", str(path), *DESIGN, "--output", out]


FLAT_SETS = [m for group in BASE["povm"]["sets"] for m in group]


@FUZZ
@example(mutation=("ensemble", ("states",), 3))
@example(mutation=("ensemble", ("states",), [5]))
@example(mutation=("povm", ("sets",), FLAT_SETS))
@example(mutation=("record", ("set_sizes",), "ab"))
@example(mutation=("record", ("shots_per_set",), "x"))
@example(mutation=("process", ("mat",), {"re": 1, "im": 0}))
@example(mutation=("estimate", (), None))
@given(mutation=mutations())
def test_cli_loads_a_mutated_document_exiting_0_or_2_without_traceback(mutation):
    name, path, value = mutation
    doc = copy.deepcopy(BASE[name])
    if path:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "doc.json"
        target.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_command(name, target, str(Path(tmp) / "out.json")))
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
