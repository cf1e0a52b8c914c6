"""Property test for the estimator on arbitrary data.

Any finite frequency matrix with entries in [0, 1] gives a Hermitian PSD
estimate X-hat with Tr_1 X-hat <= I, with and without the trace-preserving
prior.  Rows are drawn uniform, all zero, all one or 0/1, on optimal designs
for d = 2 and 4, a Haar-random d = 3 design and a near-singular d = 2 design
(V's singular-value ratio 4e-8).  Designs a further 10x closer to singular are
not covered: there X-hat keeps enough of G-hat's rounding, where step 4's T is
one, to have eigenvalues below -1e-9 (see ROADMAP item 2).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from proctomo.channels import CHANNEL_ATOL, ProcessMatrix  # noqa: E402
from proctomo.ensembles import (  # noqa: E402
    InputEnsemble, cube_povm, design_metrics_V, mub_states, projective_povm, random_states
)
from proctomo.linalg import HERMITIAN_RTOL, dagger, haar_unitary, hermitian_part, partial_trace_first  # noqa: E402
from proctomo.reconstruct import TwoStageReconstructor  # noqa: E402

PROPS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
ROWS = ("uniform", "zero", "one", "binary")


def near_singular_states():
    """Three MUB states and a nearly maximally mixed one: V^T has a singular
    value about 1e-7 times its largest."""
    y = np.array([[0, -1j], [1j, 0]])
    return InputEnsemble((*mub_states(2).states[:3], (np.eye(2) + 1e-7 * y) / 2), label="near-singular")


def haar_design(d, seed):
    rng = np.random.default_rng(seed)
    povm = projective_povm([haar_unitary(d, rng) for _ in range(d + 1)])
    return random_states(d, d * d + 2, seed=seed), povm


DESIGNS = {
    "mub-2": lambda: (mub_states(2), cube_povm(1)),
    "mub-4": lambda: (mub_states(4), cube_povm(2)),
    "haar-3": lambda: haar_design(3, 5),
    "near-singular-2": lambda: (near_singular_states(), cube_povm(1)),
}
RECONSTRUCTORS = {name: TwoStageReconstructor(*build()) for name, build in DESIGNS.items()}


def test_near_singular_design_is_near_singular():
    report = design_metrics_V(RECONSTRUCTORS["near-singular-2"].ensemble)
    assert report.cond > 1e6


def frequencies(rec, kinds, seed):
    """One row per input state, each drawn as ``kinds[m]`` says."""
    rng = np.random.default_rng(seed)
    shape = (rec.ensemble.num_states, rec.povm.num_elements)
    uniform, binary = rng.uniform(0.0, 1.0, shape), rng.integers(0, 2, shape).astype(float)
    rows = {"uniform": uniform, "zero": np.zeros(shape), "one": np.ones(shape), "binary": binary}
    return np.stack([rows[kind][m] for m, kind in enumerate(kinds)])


@PROPS
@given(
    name=st.sampled_from(sorted(DESIGNS)),
    kinds=st.lists(st.sampled_from(ROWS), min_size=20, max_size=20),
    seed=st.integers(0, 2**32 - 1),
    tp_prior=st.booleans(),
)
# Zero counts for the nearly mixed state left X-hat outside the Hermitian tolerance
# before step 4 took its Hermitian part, with and without the prior.
@example(name="near-singular-2", kinds=["uniform"] * 3 + ["zero"] * 17, seed=0, tp_prior=False)
@example(name="near-singular-2", kinds=["uniform"] * 3 + ["zero"] * 17, seed=0, tp_prior=True)
@example(name="near-singular-2", kinds=["zero"] * 20, seed=0, tp_prior=True)
@example(name="near-singular-2", kinds=["one"] * 20, seed=0, tp_prior=False)
@example(name="mub-4", kinds=["one"] * 20, seed=0, tp_prior=True)
@example(name="haar-3", kinds=["zero", "one"] * 10, seed=1, tp_prior=True)
def test_any_frequency_matrix_gives_a_physical_estimate(name, kinds, seed, tp_prior):
    rec = RECONSTRUCTORS[name]
    d = rec.d
    freq = frequencies(rec, kinds[: rec.ensemble.num_states], seed)
    est = rec.estimate(freq, tp_prior=tp_prior)
    x = est.x_hat
    scale = max(np.linalg.norm(x), 1.0)
    # The tolerances of ProcessMatrix, whose constructor then accepts the estimate.
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(x - dagger(x)) <= HERMITIAN_RTOL * scale
    assert np.linalg.eigvalsh(hermitian_part(x)).min() >= -CHANNEL_ATOL * scale
    assert np.linalg.eigvalsh(hermitian_part(partial_trace_first(x, d))).max() <= 1.0 + CHANNEL_ATOL
    ProcessMatrix(x)
