import itertools
import json
import re

import numpy as np
import pytest

from proctomo.channels import random_channel
from proctomo.ensembles import (
    DesignReport,
    InputEnsemble,
    PovmCollection,
    cube_povm,
    cube_states,
    design_metrics_C,
    design_metrics_V,
    mub_povm,
    mub_states,
    mub_vectors,
    natural_basis_states,
    random_states,
    sic_states,
)
from proctomo.io import to_dict
from proctomo.linalg import dagger, herm_coords
from proctomo.reconstruct import TwoStageReconstructor
from proctomo.simulate import ideal_probabilities, sample_record
from proctomo.studies import make_ensemble


def assert_matches_numpys_pinv(design):
    """``pinv_coords`` and ``singular_values`` of an ensemble or a POVM collection against
    numpy's complex route: ``np.linalg.pinv`` of V^T or C, its columns read as row-major
    d x d matrices in ``herm_coords``, within 1e-13 relative, and ``np.linalg.svd``'s
    values within 1e-13 s_0.  Both kinds keep one layout: a C-contiguous d^2 x N matrix,
    N the number of states or elements."""
    a = design.parameterization().T if isinstance(design, InputEnsemble) else design.parameterization()
    want = herm_coords(np.linalg.pinv(a).T.reshape(len(a), design.d, design.d)).T
    got = design.pinv_coords
    assert got.dtype == float and got.flags.c_contiguous and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    sv = np.linalg.svd(a, compute_uv=False)
    assert np.abs(design.singular_values - sv).max() <= 1e-13 * sv[0]

def pairwise_overlaps(states):
    return np.array([[np.trace(a @ b).real for b in states] for a in states])


@pytest.mark.parametrize("d", [2, 4])
def test_sic_overlaps(d):
    e = sic_states(d)
    assert e.num_states == d * d
    g = pairwise_overlaps(e.states)
    off = g[~np.eye(d * d, dtype=bool)]
    assert np.abs(off - 1.0 / (d + 1)).max() <= 1e-10


def test_sic4_design_values():
    r = design_metrics_V(sic_states(4))
    # equality spectrum: (M/d, M/(d(d+1)) x 15) = (4, 0.8 x 15)
    expected = np.concatenate([[4.0], np.full(15, 0.8)])
    np.testing.assert_allclose(r.eigvals, expected, atol=1e-9)
    assert r.cost == pytest.approx(304.0, abs=1e-6)  # d^4 + d^3 - d^2
    assert r.cond == pytest.approx(np.sqrt(5.0), abs=1e-9)
    assert r.achieves


def test_sic2_design_values():
    r = design_metrics_V(sic_states(2))
    assert r.cost == pytest.approx(20.0, abs=1e-9)
    assert r.cond == pytest.approx(np.sqrt(3.0), abs=1e-9)
    assert r.achieves


def test_sic_unsupported_dimension():
    with pytest.raises(ValueError):
        sic_states(3)


@pytest.mark.parametrize("d", [2, 4])
def test_mub_overlap_law(d):
    bases = mub_vectors(d)
    assert len(bases) == d + 1
    for (m, bm), (n, bn) in itertools.product(enumerate(bases), repeat=2):
        for i, u in enumerate(bm):
            for j, v in enumerate(bn):
                ov = abs(np.vdot(u, v)) ** 2
                expected = (1.0 if i == j else 0.0) if m == n else 1.0 / d
                assert abs(ov - expected) <= 1e-10


def test_mub_design_values():
    r2 = design_metrics_V(mub_states(2))
    assert mub_states(2).num_states == 6
    assert r2.cost == pytest.approx(20.0, abs=1e-9)
    assert r2.cond == pytest.approx(np.sqrt(3.0), abs=1e-9)
    r4 = design_metrics_V(mub_states(4))
    assert mub_states(4).num_states == 20
    assert r4.cost == pytest.approx(304.0, abs=1e-6)
    assert r4.cond == pytest.approx(np.sqrt(5.0), abs=1e-9)
    assert r2.achieves and r4.achieves


@pytest.mark.parametrize("d", [2, 3, 4])
def test_natural_basis_counts_and_rank(d):
    e = natural_basis_states(d)
    assert e.num_states == d * d
    assert np.linalg.matrix_rank(e.parameterization()) == d * d


@pytest.mark.parametrize("d", [2, 3])
def test_natural_basis_recombination(d):
    # |j><k| = P_+ + i P_i - (1+i)/2 (|j><j| + |k><k|) with the +i phase state
    e = natural_basis_states(d)
    states = e.states
    eye = np.eye(d, dtype=complex)
    idx = d  # first pair state position
    for j in range(d):
        for k in range(j + 1, d):
            plus, imag = states[idx], states[idx + 1]
            idx += 2
            target = np.outer(eye[:, j], eye[:, k])
            combo = plus + 1j * imag - (1 + 1j) / 2 * (states[j] + states[k])
            assert np.linalg.norm(combo - target) <= 1e-12
    # and every elementary matrix is in the span
    v = e.parameterization()
    for j in range(d):
        for k in range(d):
            target = np.outer(eye[:, j], eye[:, k]).reshape(-1, order="F")
            coeffs, res, *_ = np.linalg.lstsq(v, target, rcond=None)
            assert np.linalg.norm(v @ coeffs - target) <= 1e-12


def test_random_states_reproducible_and_valid():
    a = random_states(3, 12, seed=5)
    b = random_states(3, 12, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
    for rho in a.states:
        w = np.linalg.eigvalsh(rho)
        assert w.min() >= -1e-12
        assert abs(np.trace(rho).real - 1) <= 1e-12


def test_random_states_cost_above_bound():
    r = design_metrics_V(random_states(4, 20, seed=8))
    assert r.cost > 304.0
    assert not r.achieves


def test_random_states_rejects_small_m():
    # Fewer than d^2 states fail the one rank rule, in its words.
    with pytest.raises(ValueError, match=r"^ensemble of 10 states is not informationally complete \(rank deficient V, d\^2=16\)$"):
        random_states(4, 10)


def test_cube_states_product_values():
    e = cube_states(2)
    assert e.num_states == 36
    r = design_metrics_V(e)
    assert r.cost == pytest.approx(400.0, abs=1e-6)  # 20^2
    assert r.cond == pytest.approx(3.0, abs=1e-9)  # sqrt(3^2)


def test_cube_states_equal_the_labelled_product():
    prod = InputEnsemble(parts=[mub_states(2)] * 2)
    cube = cube_states(2)
    assert cube.label == "cube-states-2"
    assert all(np.array_equal(a, b) for a, b in zip(cube.states, prod.states, strict=True))


def test_product_metrics_multiply():
    a = random_states(2, 5, seed=1)
    b = random_states(2, 6, seed=2)
    prod = InputEnsemble(parts=[a, b])
    ra, rb, rp = design_metrics_V(a), design_metrics_V(b), design_metrics_V(prod)
    assert rp.cond == pytest.approx(ra.cond * rb.cond, rel=1e-9)
    assert rp.cost == pytest.approx(ra.cost * rb.cost, rel=1e-9)
    # two-qubit product bounds: cost >= 20^2, cond >= sqrt(3^2)
    assert rp.cost >= 400.0 - 1e-6
    assert rp.cond >= 3.0 - 1e-9


def test_design_proof_constraints_hold():
    # sum of eigenvalues <= M and top eigenvalue >= M/d for every family
    for e in (sic_states(2), sic_states(4), mub_states(2), mub_states(4),
              natural_basis_states(4), random_states(4, 24, seed=3), cube_states(2)):
        r = design_metrics_V(e)
        m, d = e.num_states, e.d
        assert np.sum(r.eigvals) <= m + 1e-9
        assert r.eigvals[0] >= m / d - 1e-9
        assert r.cost >= r.lower_cost - 1e-6
        assert r.cond >= r.lower_cond - 1e-9


@pytest.mark.parametrize("spec", ["mub:4", "sic:4", "random:4:40"])
def test_ensembles_and_povms_report_through_one_type(spec):
    # An ensemble's floor for the top eigenvalue of V* V^T is M/d, as s is a POVM's.
    e = make_ensemble(spec)
    r = design_metrics_V(e)
    assert type(r) is DesignReport and type(design_metrics_C(mub_povm(4))) is DesignReport
    assert r.top_eig_lower == e.num_states / e.d
    assert r.eigvals[0] >= r.top_eig_lower - 1e-9


def test_design_metrics_permutation_invariant():
    e = mub_states(4)
    rng = np.random.default_rng(4)
    shuffled = InputEnsemble(tuple(e.states[i] for i in rng.permutation(e.num_states)))
    r1, r2 = design_metrics_V(e), design_metrics_V(shuffled)
    assert r1.cost == pytest.approx(r2.cost, rel=1e-12)
    assert r1.cond == pytest.approx(r2.cond, rel=1e-12)


def test_natural_basis_not_optimal_for_d4():
    r = design_metrics_V(natural_basis_states(4))
    assert r.cost > 304.0
    assert not r.achieves


@pytest.mark.filterwarnings("error")
def test_ensemble_rejects_rank_deficiency():
    # The rank rule is applied before anything divides by the singular values.
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        InputEnsemble((rho, rho, rho, rho))
    with pytest.raises(ValueError, match="rank deficient"):
        InputEnsemble((np.eye(2) / 2,) * 4)


def test_ensemble_rejects_invalid_states():
    with pytest.raises(ValueError):
        InputEnsemble((np.eye(2),) * 4)  # trace 2


def kron_states_loop(parts):
    """Oracle: one np.kron fold per combination, first part slowest."""
    out = []
    for combo in itertools.product(*[p.states for p in parts]):
        acc = combo[0]
        for s in combo[1:]:
            acc = np.kron(acc, s)
        out.append(acc)
    return np.asarray(out)


def random_states_loop(d, m, seed):
    """Oracle: one Wishart draw and one normalization per state (first attempt)."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(m):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w = g @ dagger(g)
        states.append(w / np.trace(w).real)
    return np.asarray(states)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cube_states_match_the_kron_loop(m):
    assert np.array_equal(np.asarray(cube_states(m).states), kron_states_loop([mub_states(2)] * m))


def test_product_ensemble_matches_the_kron_loop():
    parts = [sic_states(2), mub_states(2), sic_states(2)]
    assert np.array_equal(np.asarray(InputEnsemble(parts=parts).states), kron_states_loop(parts))


@pytest.mark.parametrize(
    "d, m, seed", [(2, 4, 0), (2, 9, 2**40), (3, 20, 1), (4, 128, 7), (8, 70, 2), (9, 90, 6), (16, 260, 3)]
)
def test_random_states_match_the_per_state_loop(d, m, seed):
    assert np.array_equal(np.asarray(random_states(d, m, seed=seed).states), random_states_loop(d, m, seed))


@pytest.mark.parametrize(
    "make",
    [lambda: sic_states(4), lambda: random_states(3, 30, seed=4), lambda: random_states(4, 16, seed=5),
     lambda: sic_states(2), lambda: mub_states(2), lambda: mub_states(4),
     lambda: natural_basis_states(3), lambda: natural_basis_states(4)],
)
def test_ensemble_keeps_numpys_pinv(make):
    assert_matches_numpys_pinv(make())


PRODUCT_ENSEMBLES = {
    **{f"cube_states({m})": (lambda m=m: cube_states(m)) for m in (1, 2, 3, 4)},
    "mub2xsic2": lambda: InputEnsemble(parts=[mub_states(2), sic_states(2)]),
    # parts of unequal d, both ways round
    "mub2xmub4": lambda: InputEnsemble(parts=[mub_states(2), mub_states(4)]),
    "mub4xsic2": lambda: InputEnsemble(parts=[mub_states(4), sic_states(2)]),
}


@pytest.mark.parametrize("name", PRODUCT_ENSEMBLES)
def test_product_ensembles_match_numpys_pinv_and_svd(name):
    assert_matches_numpys_pinv(PRODUCT_ENSEMBLES[name]())


def test_one_part_product_keeps_numpys_pinv():
    e = cube_states(1)
    assert_matches_numpys_pinv(e)
    assert np.array_equal(e.pinv_coords, mub_states(2).pinv_coords)
    assert np.array_equal(e.singular_values, mub_states(2).singular_values)


@pytest.mark.parametrize(
    "states, parts",
    [
        # parts beside a stack, even the stack they give
        (lambda: cube_states(2).states, lambda: [mub_states(2)] * 2),
        (lambda: cube_states(1).states, lambda: [mub_states(2)]),
        # empty parts
        (lambda: None, lambda: []),
        # parts that are not ensembles
        (lambda: None, lambda: [mub_states(2).states]),
        (lambda: None, lambda: [mub_states(2), mub_povm(2)]),
        (lambda: None, lambda: mub_states(2)),
    ],
)
def test_mismatched_parts_raise(states, parts):
    with pytest.raises(ValueError, match="given by its parts alone|parts must be one or more InputEnsemble"):
        InputEnsemble(states(), parts=parts())


# Product designs keep their parts, not their d x d stacks.  What the study path reads from
# them (the states' coordinates, the Born table, probabilities, records and estimates) is
# bit-identical to what a plain twin built from the product's stack gives.
PRODUCT_DESIGNS = {
    **{f"cube:{m}": (lambda m=m: (cube_states(m), cube_povm(m))) for m in (1, 2, 3, 4)},
    "mub2xsic2, mub2xcube1": lambda: (InputEnsemble(parts=[mub_states(2), sic_states(2)]),
                                      PovmCollection(parts=[mub_povm(2), cube_povm(1)])),
    "mub2xmub4, mub4xcube1": lambda: (InputEnsemble(parts=[mub_states(2), mub_states(4)]),
                                      PovmCollection(parts=[mub_povm(4), cube_povm(1)])),
    "sic2xcube2, mub2xmub4": lambda: (InputEnsemble(parts=[sic_states(2), cube_states(2)]),
                                      PovmCollection(parts=[mub_povm(2), mub_povm(4)])),
}


def plain_twin(design):
    """The plain design of a product's stack, under the product's label."""
    if isinstance(design, InputEnsemble):
        return InputEnsemble(design.states, label=design.label)
    return PovmCollection(design.sets, label=design.label)


def stacks_held(design):
    """The complex arrays of M d^2 or L d^2 entries that the attributes of ``design`` hold,
    directly or in tuples."""
    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        return [a for v in value for a in arrays(v)] if isinstance(value, tuple) else []

    n = design.pinv_coords.size  # d^2 x N
    return [a for v in vars(design).values() for a in arrays(v) if np.iscomplexobj(a) and a.size >= n]


@pytest.mark.parametrize("name", PRODUCT_DESIGNS)
def test_products_keep_their_parts_and_no_stack(name):
    for design in PRODUCT_DESIGNS[name]():
        assert isinstance(vars(design)["parts"], tuple) and design.parts
        assert all(type(p) is type(design) for p in design.parts)
        assert stacks_held(design) == []
        # a read builds the stack from the parts and keeps none of it
        assert design.parameterization().size == design.pinv_coords.size
        assert stacks_held(design) == []
    assert vars(mub_states(2))["parts"] is None and vars(mub_povm(2))["parts"] is None
    assert len(stacks_held(mub_states(2))) == len(stacks_held(mub_povm(2))) == 1


@pytest.mark.parametrize("name", PRODUCT_DESIGNS)
def test_products_read_as_their_plain_twins(name):
    e, p = PRODUCT_DESIGNS[name]()
    te, tp = plain_twin(e), plain_twin(p)
    assert np.array_equal(e.herm_coords(), te.herm_coords()) and e.herm_coords().flags.c_contiguous
    assert np.array_equal(p.born_table, tp.born_table) and p.born_table.flags.c_contiguous
    channel = random_channel(e.d, tp=False, seed=3)
    probs, twin_probs = ideal_probabilities(channel, e, p), ideal_probabilities(channel, te, tp)
    assert np.array_equal(probs, twin_probs)
    record = sample_record(probs, 100 * p.num_sets, p, seed=4)
    twin_record = sample_record(twin_probs, 100 * p.num_sets, tp, seed=4)
    assert np.array_equal(record.freq, twin_record.freq)
    # A twin's own pseudo-inverse comes from an SVD of the product stack and differs from the
    # product's herm_kron one by rounding (up to 2e-15 measured); given the product's, it
    # estimates bit for bit alike.
    for twin, design in ((te, e), (tp, p)):
        object.__setattr__(twin, "pinv_coords", design.pinv_coords)
    x_hat = TwoStageReconstructor(e, p).estimate(record).x_hat
    assert np.array_equal(x_hat, TwoStageReconstructor(te, tp).estimate(twin_record).x_hat)


@pytest.mark.parametrize("name", PRODUCT_DESIGNS)
def test_products_save_the_documents_of_their_plain_twins(name):
    for design in PRODUCT_DESIGNS[name]():
        assert json.dumps(to_dict(design)) == json.dumps(to_dict(plain_twin(design)))


def test_a_part_hermitian_only_within_tolerance_differs_from_its_twin_by_rounding():
    # random_states' Wishart draws are Hermitian to rounding, and herm_coords averages a
    # matrix with its conjugate transpose: 5.6e-17 measured, in the coordinates and the
    # probabilities alike.
    e = InputEnsemble(parts=[random_states(2, 5, seed=1), sic_states(2)])
    assert np.abs(e.herm_coords() - plain_twin(e).herm_coords()).max() <= 1e-16


@pytest.mark.parametrize(
    "make",
    [lambda: sic_states(4), lambda: natural_basis_states(3), lambda: random_states(3, 30, seed=4),
     lambda: cube_states(3), lambda: InputEnsemble(parts=[random_states(2, 5, seed=1), sic_states(2)])],
)
def test_design_metrics_eigenvalues_match_the_gram_matrix(make):
    e = make()
    v = e.parameterization()
    eigs = np.linalg.eigvalsh(v.conj() @ v.T)[::-1]
    r = design_metrics_V(e)
    assert np.abs(r.eigvals - eigs).max() <= 1e-12 * eigs[0]


def test_cube_states_design_costs_are_exact_powers():
    for m in (1, 2, 3, 4):
        r = design_metrics_V(cube_states(m))
        assert r.cost == pytest.approx(20.0**m, rel=1e-14)
        assert r.cond == pytest.approx(np.sqrt(3.0**m), rel=1e-14)


@pytest.mark.parametrize("make", [lambda: cube_states(2), lambda: random_states(3, 30, seed=4)])
def test_parameterization_equals_the_column_loop(make):
    e = make()
    loop = np.column_stack([s.reshape(-1, order="F") for s in e.states])
    v = e.parameterization()
    assert v.shape == loop.shape and v.flags.c_contiguous
    assert np.array_equal(v, loop)


@pytest.mark.filterwarnings("error")
def test_rank_deficient_ensembles_still_raise():
    zx = tuple(mub_states(2).states[:4])  # |0>, |1>, |+>, |->: no Y component
    with pytest.raises(ValueError, match="rank deficient"):
        InputEnsemble(zx)


def test_an_ensemble_that_constructs_also_audits():
    # Smallest singular value 5.8e-8: above RANK_RTOL relative to the largest,
    # but its square is not, so the audit must apply the rule to the singular values.
    eye, y = np.eye(2), np.array([[0, -1j], [1j, 0]])
    states = (*mub_states(2).states[:3], (eye + 1e-7 * y) / 2)
    e = InputEnsemble(states)
    sv = e.singular_values
    assert sv[-1] / sv[0] < 1e-5
    report = design_metrics_V(e)
    assert report.cost > 0 and report.cond == pytest.approx(sv[0] / sv[-1], rel=1e-12)


@pytest.mark.parametrize("states", [(), (1.0,), (np.ones(3),)])
def test_empty_or_non_matrix_ensembles_raise_value_error(states):
    with pytest.raises(ValueError):
        InputEnsemble(states)


def test_states_are_one_complex_stack():
    e = InputEnsemble([list(map(list, rho)) for rho in mub_states(2).states])
    assert isinstance(e.states, np.ndarray) and e.states.dtype == complex
    assert e.states.shape == (6, 2, 2)
    assert np.array_equal(e.states, mub_states(2).states)


@pytest.mark.parametrize(
    "states, text",
    [
        ((), "an ensemble needs at least one state"),
        ((np.eye(2) / 2, np.eye(3) / 3), "ensemble states must be a stack of square matrices of one size, "
                                         "got a ragged or non-numeric array"),
        (np.eye(2) / 2, "ensemble states must be a stack of square matrices of one size, got shape (2, 2)"),
    ],
    ids=["empty", "ragged", "one-matrix"],
)
def test_malformed_states_are_refused_by_name(states, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        InputEnsemble(states)
