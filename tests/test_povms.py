import itertools
import re

import numpy as np
import pytest

from proctomo.ensembles import (
    InputEnsemble,
    PovmCollection,
    cube_povm,
    cube_states,
    design_metrics_C,
    mub_povm,
    mub_states,
    projective_povm,
    sic_povm,
    sic_states,
)
from proctomo.linalg import dagger, haar_unitary
from test_ensembles import assert_matches_numpys_pinv


def test_cube1_design_values():
    r = design_metrics_C(cube_povm(1))
    np.testing.assert_allclose(r.eigvals, [3.0, 1.0, 1.0, 1.0], atol=1e-9)
    assert r.cost == pytest.approx(10.0, abs=1e-9)
    assert r.cond == pytest.approx(np.sqrt(3.0), abs=1e-9)
    assert r.achieves  # top eigenvalue equals s=3, rest (Jd-s)/(d^2-1)=1


def test_cube2_structure():
    p = cube_povm(2)
    assert p.num_sets == 9
    assert p.num_elements == 36
    for group in p.sets:
        assert np.linalg.norm(sum(group) - np.eye(4)) <= 1e-12


def test_mub_povm4_design_values():
    r = design_metrics_C(mub_povm(4))
    assert r.cost == pytest.approx(76.0, abs=1e-6)  # d^3 + d^2 - d
    assert r.cond == pytest.approx(np.sqrt(5.0), abs=1e-9)
    expected = np.concatenate([[5.0], np.ones(15)])
    np.testing.assert_allclose(r.eigvals, expected, atol=1e-9)
    assert r.achieves


def test_mub_povm2_matches_cube1_up_to_relabeling():
    mub_ops = list(mub_povm(2).elements)
    cube_ops = list(cube_povm(1).elements)
    for op in mub_ops:
        dists = [np.linalg.norm(op - c) for c in cube_ops]
        i = int(np.argmin(dists))
        assert dists[i] <= 1e-12
        cube_ops.pop(i)
    assert design_metrics_C(mub_povm(2)).cost == pytest.approx(10.0, abs=1e-9)


def test_sic_povm_completeness_and_metrics():
    p = sic_povm(4)
    assert p.num_sets == 1 and p.num_elements == 16
    assert np.linalg.norm(sum(p.elements) - np.eye(4)) <= 1e-10
    r = design_metrics_C(p)
    assert r.cond == pytest.approx(np.sqrt(5.0), abs=1e-9)
    # subnormalized non-orthogonal elements: gram spectrum (1/d, M/(d(d+1))/d^2),
    # giving cost d^2 (d^2 + d - 1) = 304, above the set-structure lower bound
    assert r.cost == pytest.approx(304.0, abs=1e-6)
    assert not r.achieves
    assert r.cost >= r.lower_cost - 1e-6


def test_sic_povm_only_d4():
    with pytest.raises(ValueError):
        sic_povm(2)


def perturbed_collections():
    base = cube_povm(1)
    # mixing with the flat POVM keeps completeness and PSD
    eps = 0.3
    mixed = tuple(
        tuple((1 - eps) * p + eps * np.eye(2) / len(group) for p in group) for group in base.sets
    )
    # per-set unitary conjugation also keeps completeness and PSD
    rng = np.random.default_rng(14)
    rotated = []
    for group in base.sets:
        u = haar_unitary(2, rng)
        rotated.append(tuple(u @ p @ dagger(u) for p in group))
    return [
        PovmCollection(mixed, label="mixed"),
        PovmCollection(tuple(rotated), label="rotated"),
    ]


def test_design_proof_constraints_hold():
    # sum eig <= J d and top eigenvalue >= s for built-ins and perturbations
    collections = [cube_povm(1), cube_povm(2), mub_povm(2), mub_povm(4), sic_povm(4)]
    collections += perturbed_collections()
    for p in collections:
        r = design_metrics_C(p)
        j, d = p.num_sets, p.d
        assert np.sum(r.eigvals) <= j * d + 1e-9
        assert r.eigvals[0] >= r.top_eig_lower - 1e-9
        assert r.cost >= r.lower_cost - 1e-6
        assert r.cond >= r.lower_cond - 1e-9


def test_projective_povm_from_bases():
    rng = np.random.default_rng(15)
    bases = [haar_unitary(3, rng) for _ in range(4)]
    p = projective_povm(bases, label="random-projective-3")
    assert p.d == 3 and p.num_sets == 4 and p.num_elements == 12
    for group in p.sets:
        assert np.linalg.norm(sum(group) - np.eye(3)) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_povm_validation_errors():
    z = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        PovmCollection(((z, z),))  # does not sum to identity
    with pytest.raises(ValueError):
        PovmCollection(((np.diag([1.5, -0.5]).astype(complex), np.diag([-0.5, 1.5]).astype(complex)),))
    with pytest.raises(ValueError):
        # single projective set is informationally incomplete
        PovmCollection(((z, np.diag([0.0, 1.0]).astype(complex)),))


def cube_povm_loop(m):
    """Oracle: one np.kron fold per element, axes and then signs first-slowest."""
    paulis = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    eye = np.eye(2, dtype=complex)
    single = {a: ((eye + paulis[a]) / 2, (eye - paulis[a]) / 2) for a in "xyz"}
    sets = []
    for combo in itertools.product("xyz", repeat=m):
        group = []
        for signs in itertools.product((0, 1), repeat=m):
            op = single[combo[0]][signs[0]]
            for a, s in zip(combo[1:], signs[1:]):
                op = np.kron(op, single[a][s])
            group.append(op)
        sets.append(group)
    return np.asarray(sets)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cube_povm_matches_the_kron_loop(m):
    assert np.array_equal(np.asarray(cube_povm(m).sets), cube_povm_loop(m))


@pytest.mark.parametrize(
    "make",
    [lambda: mub_povm(4), lambda: sic_povm(4), lambda: mub_povm(2),
     lambda: projective_povm([haar_unitary(3, np.random.default_rng(k)) for k in range(4)])],
)
def test_povm_keeps_numpys_pinv(make):
    assert_matches_numpys_pinv(make())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cube_povm_matches_numpys_pinv_and_svd(m):
    assert_matches_numpys_pinv(cube_povm(m))


def test_one_part_cube_povm_keeps_numpys_pinv():
    p = cube_povm(1)
    assert_matches_numpys_pinv(p)
    # its one part is the same collection built from the stack
    dense = PovmCollection(p.sets)
    assert np.array_equal(p.pinv_coords, dense.pinv_coords)
    assert np.array_equal(p.singular_values, dense.singular_values)


@pytest.mark.parametrize(
    "sets, parts",
    [
        # parts beside a stack, even the stack they give
        (lambda: cube_povm(2).sets, lambda: [cube_povm(1)] * 2),
        (lambda: cube_povm(1).sets, lambda: [cube_povm(1)]),
        # empty parts
        (lambda: None, lambda: []),
        # parts that are not POVM collections
        (lambda: None, lambda: [cube_povm(1).sets]),
        (lambda: None, lambda: [cube_povm(1), mub_states(2)]),
        (lambda: None, lambda: cube_povm(1)),
    ],
)
def test_mismatched_parts_raise(sets, parts):
    with pytest.raises(ValueError, match="given by its parts alone|parts must be one or more PovmCollection"):
        PovmCollection(sets(), parts=parts())


def test_parts_need_sets_of_one_size():
    ragged = PovmCollection(((np.eye(2),), *cube_povm(1).sets))
    with pytest.raises(ValueError, match="POVM parts need sets of one size"):
        PovmCollection(parts=[cube_povm(1), ragged])


@pytest.mark.parametrize("make_parts", [lambda: [mub_povm(2), mub_povm(4)], lambda: [mub_povm(4), cube_povm(1)]])
def test_products_of_unlike_parts_are_set_major(make_parts):
    # Parts with different set counts and sizes: set (g, h) holds the products of the
    # elements of set g of the first part with those of set h of the second, second fastest.
    first, second = make_parts()
    product = PovmCollection(parts=[first, second])
    sets = [tuple(np.kron(a, b) for a in g for b in h) for g in first.sets for h in second.sets]
    dense = PovmCollection(sets)
    assert product.set_sizes == dense.set_sizes
    assert np.array_equal(product.elements, np.concatenate(sets))
    assert_matches_numpys_pinv(product)
    # Column l of the d^2 x L pseudo-inverse pairs with element l, set by set.
    stops = np.cumsum(product.set_sizes)
    for start, stop in zip(stops - product.set_sizes, stops):
        want = dense.pinv_coords[:, start:stop]
        assert np.abs(product.pinv_coords[:, start:stop] - want).max() <= 1e-13 * np.abs(dense.pinv_coords).max()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_designs_match_their_stacks_through_the_svd_path(m):
    ensemble, povm = cube_states(m), cube_povm(m)
    dense_povm = PovmCollection(povm.sets)
    assert dense_povm.set_sizes == povm.set_sizes
    for product, dense, stack in [
        (ensemble, InputEnsemble(ensemble.states), "states"),
        (povm, dense_povm, "elements"),
    ]:
        assert np.array_equal(getattr(dense, stack), getattr(product, stack))
        assert np.abs(product.pinv_coords - dense.pinv_coords).max() <= 1e-13 * np.abs(dense.pinv_coords).max()
        sv = dense.singular_values
        assert np.abs(product.singular_values - sv).max() <= 1e-13 * sv[0]


@pytest.mark.parametrize(
    "make",
    [lambda: cube_povm(1), lambda: cube_povm(3), lambda: mub_povm(4), lambda: sic_povm(4),
     lambda: projective_povm([haar_unitary(3, np.random.default_rng(k)) for k in range(4)])],
)
def test_design_metrics_eigenvalues_match_the_gram_matrix(make):
    p = make()
    c = p.parameterization()
    eigs = np.linalg.eigvalsh(dagger(c) @ c)[::-1]
    r = design_metrics_C(p)
    assert np.abs(r.eigvals - eigs).max() <= 1e-12 * eigs[0]


def test_cube_povm_design_costs_are_exact_powers():
    for m in (1, 2, 3, 4):
        r = design_metrics_C(cube_povm(m))
        assert r.cost == pytest.approx(10.0**m, rel=1e-14)
        assert r.cond == pytest.approx(np.sqrt(3.0**m), rel=1e-14)


def test_parameterization_equals_the_row_loop():
    p = cube_povm(2)
    loop = np.asarray([op.reshape(-1) for op in p.elements])
    c = p.parameterization()
    assert c.shape == loop.shape and c.flags.c_contiguous
    assert np.array_equal(c, loop)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1, 2, 3])
def test_rank_deficient_povms_still_raise(m):
    # The x and z measurements alone, on each of m qubits: 2^m sets of 2^m
    # elements, 4^m elements in all, which span only a 3^m-dimensional space.
    eye, x, z = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    single = [((eye + a) / 2, (eye - a) / 2) for a in (x, z)]
    sets = single
    for _ in range(m - 1):
        sets = [tuple(np.kron(p, q) for p in g for q in h) for g in sets for h in single]
    with pytest.raises(ValueError, match="rank deficient"):
        PovmCollection(sets)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "make, what",
    [(lambda: InputEnsemble(mub_states(4).states[:15]), "ensemble of 15 states"),
     (lambda: PovmCollection(mub_povm(4).sets[:2]), "measurement of 8 elements"),
     # Linearly independent, so every one of their singular values is well above RANK_RTOL.
     (lambda: InputEnsemble(sic_states(4).states[:15]), "ensemble of 15 states"),
     (lambda: PovmCollection(mub_povm(4).sets[:1]), "measurement of 4 elements")],
)
def test_one_rank_rule_refuses_fewer_than_d2_states_or_elements(make, what):
    # Fewer than d^2 = 16 columns cannot span the d^2-dimensional operator space,
    # whatever their singular values.
    with pytest.raises(ValueError, match=rf"^{what} is not informationally complete \(rank deficient [VC], d\^2=16\)$"):
        make()


def test_nested_sets_and_stacked_sets_build_the_same_collection():
    ref = mub_povm(2)
    nested = tuple(tuple(np.array(p) for p in group) for group in ref.sets)
    per_set = tuple(np.array(group) for group in ref.sets)  # one (n, d, d) array per set
    four_d = np.array(ref.sets)  # (J, n, d, d)
    for sets in (nested, per_set, four_d):
        p = PovmCollection(sets)
        assert p.elements.dtype == complex and p.elements.shape == (6, 2, 2)
        assert np.array_equal(p.elements, ref.elements)
        assert p.set_sizes == (2, 2, 2)
        assert np.array_equal(p.pinv_coords, ref.pinv_coords)
        # the sets are views of the one stack, not copies
        assert all(np.shares_memory(group, p.elements) for group in p.sets)
        assert np.array_equal(np.concatenate(p.sets), p.elements)


@pytest.mark.parametrize(
    "sets, text",
    [
        ((), "POVM elements must be a stack of square matrices of one size, got shape (0,)"),
        (((np.eye(2), np.eye(3)),), "POVM elements must be a stack of square matrices of one size, "
                                    "got a ragged or non-numeric array"),
        (((), (np.eye(2),)), "POVM set 0 does not sum to the identity"),
    ],
    ids=["no-elements", "ragged", "empty-set"],
)
def test_malformed_sets_are_refused_by_name(sets, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        PovmCollection(sets)
