"""Property tests: any spec string either builds an object or raises ValueError.

Field values are kept small (integers -2..3, no digits in free text), so no
example asks for a huge design; ``file`` specs are left out, since a missing
path is an OSError by design.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from proctomo.cli import main  # noqa: E402
from proctomo.studies import make_channel, make_ensemble, make_povm  # noqa: E402

NAMES = [
    "cnot", "identity", "random", "sic", "mub", "natural", "cube-states", "cube_states",
    "cube", "cube-povm", "cube_povm", "mub-povm", "sic-povm", "CNOT", "Random",
]
# Free text without digits, so int() never turns it into a large size.
TEXT = st.text(alphabet="abnoptxyz-_.+é :", max_size=5).filter(lambda t: "file" not in t.lower())
FIELD = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["tp", "nontp", ""]), TEXT)
SPECS = st.builds(
    lambda name, fields, sep: sep.join([name, *fields]),
    st.one_of(st.sampled_from(NAMES), TEXT),
    st.lists(FIELD, max_size=4),
    st.sampled_from([":", " "]),
)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Inputs that once escaped as another exception type, plus the field-count edges.
EDGES = ["identity:0", "identity 0", "random", "random:4", "sic", "sic:4:99", "random:2:tp:nontp", ""]


def with_edges(test):
    for spec in EDGES:
        test = example(spec=spec)(test)
    return test


@pytest.mark.parametrize("factory", [make_channel, make_ensemble, make_povm])
@FUZZ
@with_edges
@given(spec=SPECS)
def test_spec_parses_or_raises_value_error(factory, spec):
    try:
        factory(spec)
    except ValueError:
        pass


@FUZZ
@with_edges
@given(spec=SPECS)
def test_design_audit_exits_0_or_2_without_traceback(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["design-audit", spec])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
