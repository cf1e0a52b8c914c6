"""Property tests: any spec string either builds an object or raises ValueError.

Spec names and flag words come from ``studies.SPECS``, so a new spec is
fuzzed without a test edit.  Field values are kept small (integers -2..3, no
digits in free text), so no example asks for a huge design; ``file`` specs
are left out, since a missing path is an OSError by design.
"""

import contextlib
import io
from functools import partial

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from proctomo.cli import main  # noqa: E402
from proctomo.studies import (  # noqa: E402
    PATH, SPECS, design_audit, make_channel, make_ensemble, make_povm, run_m_scaling_study
)

NAMES = sorted({v for e in SPECS if PATH not in e.fields for n in e.names for v in (n, n.upper())})
WORDS = sorted({w for e in SPECS for f in e.fields for w in f.words})
# Free text without digits, so int() never turns it into a large size.
TEXT = st.text(alphabet="abnoptxyz-_.+é :", max_size=5).filter(lambda t: "file" not in t.lower())
FIELD = st.one_of(st.integers(-2, 3).map(str), st.sampled_from([*WORDS, ""]), TEXT)
SPEC_STRINGS = st.builds(
    lambda name, fields, sep: sep.join([name, *fields]),
    st.one_of(st.sampled_from(NAMES), TEXT),
    st.lists(FIELD, max_size=4),
    st.sampled_from([":", " "]),
)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Inputs that once escaped as another exception type, plus the field-count edges.
EDGES = ["identity:0", "identity 0", "random", "random:4", "sic", "sic:4:99", "random:2:tp:nontp", ""]
# Specs of each kind that fit simulate's d = 2 design, so its success path runs
# too, and a d = 3 ensemble that does not.
SIMULATE_SPECS = [
    "identity:2", "random:2:nontp:3", "sic:2", "MUB 2", "natural:2", "random:2:5:1", "cube_povm:1", "mub-povm:2",
    "natural:3",
]


def with_edges(test, specs=EDGES):
    for spec in specs:
        test = example(spec=spec)(test)
    return test


def run_cli(argv):
    """Exit code and stderr of one CLI run; argparse's own refusals exit too."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # e.g. a spec that starts with "-" reads as an option
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("factory", [make_channel, make_ensemble, make_povm])
@FUZZ
@with_edges
@given(spec=SPEC_STRINGS)
def test_spec_parses_or_raises_value_error(factory, spec):
    try:
        factory(spec)
    except ValueError:
        pass


# Every entry point that takes a spec, called with one argument; the studies build their
# channel and POVM before any trial, so a refused spec runs none.
SPEC_ENTRY_POINTS = {
    "make_channel": make_channel,
    "make_ensemble": make_ensemble,
    "make_povm": make_povm,
    "design_audit": design_audit,
    "run_m_scaling_study(povm_spec)": lambda spec: run_m_scaling_study(povm_spec=spec, trials=1),
    "run_m_scaling_study(channel_spec)": lambda spec: run_m_scaling_study(channel_spec=spec, trials=1),
}
NON_STRINGS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=True), st.binary(max_size=5),
    st.lists(SPEC_STRINGS, max_size=2), st.tuples(st.sampled_from(NAMES), st.integers(-2, 3)),
)


@pytest.mark.parametrize("entry", SPEC_ENTRY_POINTS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(spec=3)
@example(spec=None)
@example(spec=["x"])
@example(spec=b"sic:2")
@given(spec=NON_STRINGS)
def test_a_spec_that_is_not_a_string_is_refused_naming_it(entry, spec):
    with pytest.raises(ValueError, match=r"spec must be a non-empty string, got ") as info:
        SPEC_ENTRY_POINTS[entry](spec)
    assert str(info.value).endswith(f"got {spec!r}")


@FUZZ
@with_edges
@given(spec=SPEC_STRINGS)
def test_design_audit_exits_0_or_2_without_traceback(spec):
    code, err = run_cli(["design-audit", spec])
    assert code in (0, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--channel", "--ensemble", "--povm"])
@FUZZ
@with_edges
@partial(with_edges, specs=SIMULATE_SPECS)
@given(spec=SPEC_STRINGS)
def test_simulate_spec_flags_exit_0_or_2_without_traceback(flag, spec, tmp_path_factory):
    design = {"--channel": "random:2", "--ensemble": "mub:2", "--povm": "cube-povm:1", flag: spec}
    output = tmp_path_factory.getbasetemp() / "fuzz-record.json"
    code, err = run_cli(["simulate", *(a for kv in design.items() for a in kv), "--exact", "--output", str(output)])
    assert code in (0, 2)
    assert "Traceback" not in err


@pytest.fixture(scope="session")
def d2_record(tmp_path_factory):
    """One exact record of the d = 2 design mub:2 x cube-povm:1, written once for
    every run of reconstruct's flag fuzz."""
    path = tmp_path_factory.mktemp("reconstruct-fuzz") / "record.json"
    design = ["--channel", "random:2", "--ensemble", "mub:2", "--povm", "cube-povm:1"]
    assert run_cli(["simulate", *design, "--exact", "--output", str(path)])[0] == 0
    return path


@pytest.mark.parametrize("flag", ["--ensemble", "--povm", "--truth"])
@FUZZ
@with_edges
@partial(with_edges, specs=SIMULATE_SPECS)
@given(spec=SPEC_STRINGS)
def test_reconstruct_spec_flags_exit_0_or_2_without_traceback(flag, spec, d2_record):
    design = {"--ensemble": "mub:2", "--povm": "cube-povm:1", "--truth": "identity:2", flag: spec}
    code, err = run_cli(["reconstruct", "--record", str(d2_record), *(a for kv in design.items() for a in kv)])
    assert code in (0, 2)
    assert "Traceback" not in err


# Both studies' numeric flags over tiny ranges, on d = 2 designs, so every run is
# quick; copy counts also come from above 2^63.  The examples are valid runs, so
# the success path is covered too, plus one count each whose shots outgrow an int64.
STUDY_FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)
TINY = st.integers(-2, 3).map(str)
D2 = ["--povm", "cube-povm:1", "--channel", "random:2:tp:5"]


def counts(least, most):
    """A copy count least..most, or one above 2^63, which outgrows an int64, as text."""
    return st.one_of(st.integers(least, most), st.integers(2**63, 2**70)).map(str)


@STUDY_FUZZ
@example(dim="2", num_states=["4", "6"], per_state="3", trials="1", seed="0")
@example(dim="4", num_states=["4"], per_state="3", trials="1", seed="0")
@example(dim="2", num_states=["4"], per_state="30000000000000000000000", trials="1", seed="0")
@given(
    dim=st.integers(-1, 4).map(str),
    num_states=st.lists(st.integers(-2, 8).map(str), min_size=1, max_size=2),
    per_state=counts(-3, 6),
    trials=TINY,
    seed=TINY,
)
def test_m_scaling_study_numeric_flags_exit_0_or_2_without_traceback(dim, num_states, per_state, trials, seed):
    code, err = run_cli([
        "m-scaling-study", "--dim", dim, "--num-states", *num_states, "--copies-per-state", per_state,
        "--trials", trials, "--seed", seed, *D2,
    ])
    assert code in (0, 2)
    assert "Traceback" not in err


@STUDY_FUZZ
@example(copies=["18", "36"], trials="1", seed="0")
@example(copies=["6"], trials="1", seed="0")
@example(copies=["600000000000000000000"], trials="1", seed="0")
@given(
    copies=st.lists(counts(-6, 40), min_size=1, max_size=2),
    trials=TINY,
    seed=TINY,
)
def test_scaling_study_numeric_flags_exit_0_or_2_without_traceback(copies, trials, seed):
    code, err = run_cli([
        "scaling-study", "--ensemble", "mub:2", "--copies", *copies, "--trials", trials, "--seed", seed, *D2,
    ])
    assert code in (0, 2)
    assert "Traceback" not in err


# Both studies' spec flags, one at a time, on an otherwise valid d = 2 design with
# one trial and a few copies (360 in all: a whole number per state of each d = 2
# ensemble), so each run that builds its design is quick.
@pytest.mark.parametrize("flag", ["--channel", "--ensemble", "--povm"])
@FUZZ
@with_edges
@partial(with_edges, specs=SIMULATE_SPECS)
@given(spec=SPEC_STRINGS)
def test_scaling_study_spec_flags_exit_0_or_2_without_traceback(flag, spec):
    design = {"--channel": "random:2:tp:5", "--ensemble": "mub:2", "--povm": "cube-povm:1", flag: spec}
    argv = ["scaling-study", *(a for kv in design.items() for a in kv), "--copies", "360", "--trials", "1"]
    code, err = run_cli(argv)
    assert code in (0, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--channel", "--povm"])
@FUZZ
@with_edges
@partial(with_edges, specs=SIMULATE_SPECS)
@given(spec=SPEC_STRINGS)
def test_m_scaling_study_spec_flags_exit_0_or_2_without_traceback(flag, spec):
    design = {"--channel": "random:2:tp:5", "--povm": "cube-povm:1", flag: spec}
    argv = ["m-scaling-study", "--dim", "2", "--num-states", "4", "--copies-per-state", "3", "--trials", "1"]
    code, err = run_cli([*argv, *(a for kv in design.items() for a in kv)])
    assert code in (0, 2)
    assert "Traceback" not in err
