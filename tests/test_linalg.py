import functools
import re

import numpy as np
import pytest

from proctomo.channels import (
    CHANNEL_ATOL,
    KrausChannel,
    ProcessMatrix,
    identity_channel,
    process_matrix,
    random_channel,
    unitary_channel,
)
from proctomo.ensembles import (
    POVM_ATOL, InputEnsemble, PovmCollection, cube_povm, cube_states, mub_povm, mub_states, natural_basis_states,
    projective_povm, random_states, sic_povm, sic_states,
)
from proctomo.linalg import (
    HERMITIAN_RTOL,
    NEGATIVE_EIG_RTOL,
    _herm_index,
    check_int,
    check_psd,
    dagger,
    frob,
    from_herm_bilinear,
    from_herm_coords,
    haar_unitary,
    herm_coords,
    herm_kron,
    herm_pinv,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
    kron_stack,
    partial_trace_first,
    psd_factor,
    psd_root,
    real_matrix,
    square_matrix,
    transfer_matrix,
)
from proctomo.metrics import fidelity
from proctomo.oracle import reshuffle_index, transpose_index
from proctomo.reconstruct import TwoStageReconstructor, nearest_psd
from proctomo.simulate import MeasurementRecord, check_seed, exact_record, sample_outputs, sample_record
from proctomo.studies import ExperimentConfig, copies_per_state, run_m_scaling_study


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_vec_column_stacking():
    assert np.array_equal(np.array([[1, 2], [3, 4]]).reshape(-1, order="F"), [1, 3, 2, 4])
    assert np.array_equal(np.eye(2).reshape(-1, order="F"), [1, 0, 0, 1])


def test_vec_kron_identity():
    # vec(XYZ) = (Z^T kron X) vec(Y), vec column stacking
    rng = np.random.default_rng(0)
    x, y, z = (random_complex(rng, (2, 2)) for _ in range(3))
    np.testing.assert_allclose(
        (x @ y @ z).reshape(-1, order="F"), np.kron(z.T, x) @ y.reshape(-1, order="F"), atol=1e-12
    )


def test_kron_stack_folds_arrays_of_any_equal_rank_as_np_kron():
    # np.kron takes the Kronecker product along every axis of equal-rank arrays, bit for bit.
    rng = np.random.default_rng(13)
    for shapes in [[(3,), (2,), (4,)], [(2, 3, 3), (3, 2, 2)], [(3, 2, 2, 2), (2, 3, 2, 2), (1, 2, 3, 3)]]:
        arrays = [random_complex(rng, shape) for shape in shapes]
        assert np.array_equal(kron_stack(arrays), functools.reduce(np.kron, arrays))


def random_hermitian(rng, n, d):
    return hermitian_part(random_complex(rng, (n, d, d)))


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 4), (4, 2), (3, 3), (2, 3)])
def test_herm_kron_is_the_kronecker_product_in_hermitian_coordinates(d1, d2):
    # herm_coords(a x b) = G (herm_coords(a) x herm_coords(b)), G a signed gather, on
    # random Hermitian pairs, b fastest.
    rng = np.random.default_rng(10 * d1 + d2)
    a, b = random_hermitian(rng, 3, d1), random_hermitian(rng, 4, d2)
    want = herm_coords(kron_stack([a, b])).T
    got = herm_kron(herm_coords(a).T, herm_coords(b).T)
    assert got.shape == want.shape and np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_herm_pinv_is_numpys_pinv_in_hermitian_coordinates(d):
    # Rows of coords are the herm_coords of Hermitian x_n, not necessarily PSD; the map is
    # X -> [Tr(x_n X)]_n, whose matrix on row-major flattenings is that of the x_n^T.
    x = random_hermitian(np.random.default_rng(d), d * d + 3, d)
    a = x.transpose(0, 2, 1).reshape(len(x), -1)
    want = herm_coords(np.linalg.pinv(a).T.reshape(len(x), d, d)).T
    s, pinv = herm_pinv(herm_coords(x))
    assert np.abs(pinv() - want).max() <= 1e-13 * np.abs(want).max()
    sv = np.linalg.svd(a, compute_uv=False)
    assert np.abs(s - sv).max() <= 1e-13 * sv[0]


@pytest.mark.parametrize("first, second", [((2, 3, 2), (4, 5, 4)), ((4, 5, 4), (2, 3, 2))])
def test_herm_kron_of_set_grids_is_the_flat_fold_regrouped_set_major(first, second):
    # (d^2, sets, elements) arrays interleave their axes as kron_stack does: the result is
    # the fold of the flattened arrays, its (set_1, element_1, set_2, element_2) columns
    # regrouped as (set_1, set_2, element_1, element_2), bit for bit.
    rng = np.random.default_rng(14)
    (d1, s1, e1), (d2, s2, e2) = first, second
    a, b = rng.standard_normal((d1 * d1, s1, e1)), rng.standard_normal((d2 * d2, s2, e2))
    flat = herm_kron(a.reshape(d1 * d1, -1), b.reshape(d2 * d2, -1))
    want = flat.reshape(-1, s1, e1, s2, e2).transpose(0, 1, 3, 2, 4).reshape(-1, s1 * s2, e1 * e2)
    got = herm_kron(a, b)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_factored_pinv_matches_the_dense_one():
    # herm_kron of the parts' pseudo-inverses is the product's, and the product's
    # singular values are the products of theirs.
    rng = np.random.default_rng(12)
    parts = [random_hermitian(rng, 6, 2), random_hermitian(rng, 10, 3)]
    (s1, p1), (s2, p2) = (herm_pinv(herm_coords(x)) for x in parts)
    s, pinv = herm_pinv(herm_coords(kron_stack(parts)))
    want = pinv()
    assert np.abs(herm_kron(p1(), p2()) - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(np.sort(np.outer(s1, s2).reshape(-1))[::-1] - s).max() <= 1e-13 * s[0]


def count_entries():
    """Every entry point that takes a count, dimension or seed from its caller: a call with
    that value alone, the value's floor, the name its refusal gives it, and a valid value."""
    probs, p = np.full((4, 6), 0.5), cube_povm(1)
    freq = np.full((1, 2), 0.5)
    study = dict(d=2, num_states=(4,), copies_per_state=30, povm_spec="cube-povm:1", channel_spec="identity:2",
                 trials=1)

    def m_study(**value):
        return run_m_scaling_study(**{**study, **value})

    return {
        "check_int": (lambda n: check_int(n, "a count", 3), 3, "a count", 3),
        "check_seed": (check_seed, 0, "seed", 3),
        "MeasurementRecord set size": (lambda n: MeasurementRecord(freq, (n,)), 1, "set size", 2),
        "MeasurementRecord shots": (lambda n: MeasurementRecord(freq, (2,), shots_per_set=n), 1, "shots per set", 4),
        "MeasurementRecord sampler": (lambda n: MeasurementRecord(freq, (2,), sampler=n), 1, "sampler", 2),
        "sample_record copies": (lambda n: sample_record(probs, n, p), 1, "copies", 600),
        # The total's sign is refused with its divisibility, so the integer rule sets no floor.
        "copies_per_state total": (lambda n: copies_per_state(n, mub_states(2), "mub:2", p, "cube-povm:1"), -np.inf,
                                   "total copies", 18),
        "ExperimentConfig trials": (lambda n: ExperimentConfig(trials=n), 1, "trials", 2),
        "ExperimentConfig copies": (lambda n: ExperimentConfig(copies=(n,)), 1, "'copies'", 36),
        "ExperimentConfig seed": (lambda n: ExperimentConfig(seed=n), 0, "seed", 3),
        "run_m_scaling_study d": (lambda n: m_study(d=n), 2, "d (--dim)", 2),
        "run_m_scaling_study num_states": (lambda n: m_study(num_states=(n,)), 1, "num_states (--num-states)", 4),
        "run_m_scaling_study copies_per_state": (lambda n: m_study(copies_per_state=n), 1, "copies_per_state", 30),
        "run_m_scaling_study trials": (lambda n: m_study(trials=n), 1, "trials", 1),
        "run_m_scaling_study seed": (lambda n: m_study(seed=n), 0, "seed", 3),
        "natural_basis_states": (natural_basis_states, 2, "dimension", 2),
        "sic_states": (sic_states, 2, "dimension", 2),
        "mub_states": (mub_states, 2, "dimension", 2),
        "mub_povm": (mub_povm, 2, "dimension", 2),
        "sic_povm": (sic_povm, 2, "dimension", 4),
        "random_states d": (lambda n: random_states(n, 4, seed=0), 1, "dimension", 2),
        "random_states M": (lambda n: random_states(2, n, seed=0), 1, "number of states M", 4),
        "random_states seed": (lambda n: random_states(2, 4, seed=n), 0, "seed", 3),
        "cube_states": (cube_states, 1, "number of qubits", 1),
        "cube_povm": (cube_povm, 1, "number of qubits", 1),
        "random_channel": (random_channel, 2, "dimension", 2),
        "random_channel seed": (lambda n: random_channel(2, seed=n), 0, "seed", 3),
        "identity_channel": (identity_channel, 1, "dimension", 2),
        "transpose_index rows": (lambda n: transpose_index(n, 3), 1, "rows", 2),
        "transpose_index columns": (lambda n: transpose_index(2, n), 1, "columns", 3),
        "reshuffle_index": (reshuffle_index, 2, "dimension", 2),
    }


@pytest.mark.parametrize("entry", list(count_entries()))
def test_one_integer_rule_refuses_what_is_not_a_count_naming_it(entry):
    call, least, what, _ = count_entries()[entry]
    for value in (2.5, True, "3", least - 1):
        with pytest.raises(ValueError) as info:
            call(value)
        assert what in str(info.value) and f"got {value!r}" in str(info.value), str(info.value)


@pytest.mark.parametrize("entry", list(count_entries()))
def test_one_integer_rule_accepts_numpy_integers(entry):
    call, _, _, valid = count_entries()[entry]
    call(np.int64(valid))
    if entry.startswith("check"):
        assert type(call(np.int64(valid))) is int and call(np.int64(valid)) == valid


@pytest.mark.parametrize("build", [lambda seed: random_states(2, 4, seed=seed).states,
                                   lambda seed: random_channel(3, tp=False, seed=seed).kraus],
                         ids=["random_states", "random_channel"])
def test_random_designs_take_their_seed_through_the_integer_rule(build):
    for bad in (True, "3", [3]):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(bad))}$"):
            build(bad)
    assert np.array_equal(build(np.int64(5)), build(5))
    assert build(None).shape == build(0).shape  # None, the default, still draws a design


def test_transpose_permutation_trivial():
    k = transpose_index(1, 1)
    assert np.array_equal(k, [0])


def test_transpose_permutation_2x2():
    a = np.array([[1, 2], [3, 4]])
    k = transpose_index(2, 2)
    assert np.array_equal(a.reshape(-1, order="F")[k], a.T.reshape(-1, order="F"))
    assert np.array_equal(np.array([1, 3, 2, 4])[k], [1, 2, 3, 4])


def test_transpose_permutation_rectangular():
    rng = np.random.default_rng(2)
    a = random_complex(rng, (3, 2))
    k = transpose_index(3, 2)
    np.testing.assert_array_equal(a.reshape(-1, order="F")[k], a.T.reshape(-1, order="F"))


def test_transpose_permutation_square_self_inverse():
    k = transpose_index(4, 4)
    assert np.array_equal(k[k], np.arange(16))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reshuffle_is_involution_and_bijection(d):
    r = reshuffle_index(d)
    assert np.array_equal(np.sort(r), np.arange(d**4))
    assert np.array_equal(r[r], np.arange(d**4))
    # Step 2's gathers and reshape are the oracle's gather unvec(vec(z)[R]) of
    # z = B^T Z B, B the basis of from_herm_coords, bit for bit.  With the real
    # pinv(V^T) replaced by I and integer coordinates Z, both are exact.
    rng = np.random.default_rng(d)
    ensemble = mub_states(d) if d != 3 else random_states(3, 10, seed=3)
    povm = projective_povm([haar_unitary(d, rng) for _ in range(d + 1)])
    rec = TwoStageReconstructor(ensemble, povm)
    object.__setattr__(ensemble, "pinv_coords", np.eye(d * d))
    coords = rng.integers(-8, 9, size=(d * d, d * d)).astype(float)
    basis = from_herm_coords(np.eye(d * d)).reshape(d * d, d * d)
    z = basis.T @ coords @ basis
    expected = z.reshape(-1, order="F")[r].reshape(d * d, d * d, order="F")
    assert np.array_equal(rec.process_least_squares(coords), expected)


@pytest.mark.parametrize("d", [2, 3])
def test_reshuffle_factorizes_coefficient_matrix(d):
    # Oracle: build the stacked coefficient matrix entry by entry from its
    # definition and compare against (I kron V^T) R.
    from proctomo.ensembles import random_states, sic_states
    from proctomo.oracle import dense_expansion_matrix

    ensemble = sic_states(2) if d == 2 else random_states(3, 9, seed=7)
    v = ensemble.parameterization()
    dense = dense_expansion_matrix(ensemble)
    structured = np.kron(np.eye(d * d), v.T) @ np.eye(d**4)[reshuffle_index(d)]
    assert np.abs(dense - structured).max() <= 1e-12


def test_partial_trace_outer_product():
    rng = np.random.default_rng(4)
    s, t = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
    x = np.outer(s.reshape(-1, order="F"), t.reshape(-1, order="F").conj())
    np.testing.assert_allclose(partial_trace_first(x, 2), s @ dagger(t), atol=1e-12)


def test_partial_trace_identity():
    np.testing.assert_allclose(partial_trace_first(np.eye(4), 2), 2 * np.eye(2), atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    x = hermitian_part(random_complex(rng, (9, 9)))
    assert abs(np.trace(partial_trace_first(x, 3)) - np.trace(x)) < 1e-12


def test_partial_trace_norm_bound():
    # ||Tr_1(X)|| <= sqrt(d) ||X|| in Frobenius norm
    rng = np.random.default_rng(6)
    for d in (2, 3):
        x = random_complex(rng, (d * d, d * d))
        assert np.linalg.norm(partial_trace_first(x, d)) <= np.sqrt(d) * np.linalg.norm(x) + 1e-12


def test_partial_trace_shape_check():
    with pytest.raises(ValueError):
        partial_trace_first(np.eye(6), 2)


def test_hermitian_eig_simple():
    w, u = hermitian_eig(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(w, [1.0, -1.0])
    np.testing.assert_allclose(u @ np.diag(w) @ dagger(u), np.diag([1.0, -1.0]), atol=1e-14)


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(7)
    x = hermitian_part(random_complex(rng, (16, 16)))
    w, u = hermitian_eig(x)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.linalg.norm(u @ np.diag(w) @ dagger(u) - x) <= 1e-10
    # one matrix only: a stack is refused, naming its shape
    with pytest.raises(ValueError, match=re.escape("matrix must be a square matrix, got shape (2, 16, 16)")):
        hermitian_eig(np.stack([x, -x]))


def test_hermitian_eig_weyl_inequalities():
    # Eigenvalue perturbations obey max_j |dw_j| <= ||dX|| and
    # sum_j dw_j^2 <= ||dX||^2.
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = hermitian_part(random_complex(rng, (5, 5)))
        y = hermitian_part(random_complex(rng, (5, 5)))
        wx, _ = hermitian_eig(x)
        wy, _ = hermitian_eig(y)
        gap = np.linalg.norm(x - y)
        assert np.abs(wx - wy).max() <= gap + 1e-12
        assert np.sum((wx - wy) ** 2) <= gap**2 + 1e-12


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_process_matrix_and_check_psd_report_hermitian_eigs_least_value():
    rng = np.random.default_rng(7)
    x = hermitian_part(random_complex(rng, (16, 16)))
    message = re.escape(f"process matrix has negative eigenvalue {hermitian_eig(x)[0][-1]:.3e}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProcessMatrix(x)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_psd(x, "process matrix", 1e-9)


CHECK_PSD = functools.partial(check_psd, what="matrix", atol=1e-9)


@pytest.mark.parametrize(
    "method", [hermitian_eig, psd_factor, psd_root, nearest_psd, pytest.param(CHECK_PSD, id="check_psd")]
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones((2, 3)), "must be a square matrix"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "not Hermitian"),
        (np.ones((3, 2, 2)), "matrix must be a square matrix, got shape (3, 2, 2)"),
        (np.ones((3, 1, 1)), "matrix must be a square matrix, got shape (3, 1, 1)"),
    ],
)
def test_hermitian_checks_are_shared(method, bad, message):
    # Only check_psd takes a stack, and nearest_psd symmetrizes its argument unchecked.
    if method is CHECK_PSD and bad.ndim == 3 or method is nearest_psd and message == "not Hermitian":
        method(bad)
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        method(bad)


def skewed(x, skew, sign=1.0):
    """``x`` plus sign times an anti-Hermitian part at entries (0, 1) and (1, 0), with
    ||x' - x'^dag||_F = skew."""
    k = np.zeros(np.shape(x), dtype=complex)
    k[0, 1], k[1, 0] = sign * skew / 8**0.5, -sign * skew / 8**0.5
    return x + k


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_one_hermitian_rule_for_matrices_stacks_and_process_matrices(ratio):
    x = process_matrix(random_channel(2, tp=True, seed=3)).mat
    bad = skewed(x, ratio * HERMITIAN_RTOL * np.linalg.norm(x))
    assert np.linalg.norm(x) > 1.0  # so the rule is relative here
    accepted = ratio < 1
    assert is_hermitian(bad) is accepted
    assert is_hermitian(np.stack([x, bad, x])) is accepted
    checks = [
        lambda: hermitian_eig(bad),
        lambda: psd_factor(bad),
        lambda: check_psd(np.stack([x, bad]), "process matrix", 1e-9),
        lambda: ProcessMatrix(bad),
    ]
    for check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                check()


def test_psd_sqrt_basics():
    # The principal square root from psd_root, formed as random_channel forms it.
    for x, root in ((np.eye(3), np.eye(3)), (np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))):
        u, r = psd_root(x)
        np.testing.assert_allclose((u * r) @ dagger(u), root, atol=1e-14)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(9)
    b = random_complex(rng, (6, 6))
    a = b @ dagger(b)
    u, r = psd_root(a)
    root = (u * r) @ dagger(u)
    assert np.linalg.norm(root @ root - a) <= 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        psd_root(np.diag([1.0, -0.5]))


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(4, np.random.default_rng(10))
    u2 = haar_unitary(4, np.random.default_rng(10))
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1 @ dagger(u1) - np.eye(4)) <= 1e-12


def test_check_psd_single_and_stack():
    rho = np.diag([0.75, 0.25]).astype(complex)
    out = check_psd(rho, "state", 1e-9, unit_trace=True)
    assert out.dtype == complex and np.array_equal(out, rho)
    stack = check_psd([rho, np.eye(2) / 2, rho.T], "state", 1e-9, unit_trace=True)
    assert stack.shape == (3, 2, 2)
    # unit trace is only checked when asked for
    check_psd(2 * rho, "element", 1e-9)


# Every entry point that takes a caller's matrix, the name its refusals give it, and the call.
MATRIX_ENTRIES = {
    "real_matrix": ("frequency matrix", lambda x: real_matrix(x, "frequency matrix")),
    "square_matrix": ("matrix", square_matrix),
    "sample_record": ("probability matrix", lambda x: sample_record(x, 600, cube_povm(1))),
    "sample_outputs": ("output coordinates", lambda x: sample_outputs(x, 600, cube_povm(1))),
    "exact_record": ("probability matrix", lambda x: exact_record(x, cube_povm(1))),
    "MeasurementRecord": ("frequency matrix", lambda x: MeasurementRecord(freq=x, set_sizes=(2,))),
    "estimate": ("frequency matrix", lambda x: TwoStageReconstructor(mub_states(2), cube_povm(1)).estimate(x)),
    "ProcessMatrix": ("process matrix", ProcessMatrix),
    "fidelity estimate": ("estimate", lambda x: fidelity(x, np.eye(2))),
    "fidelity truth": ("truth", lambda x: fidelity(np.eye(2), x)),
    "unitary_channel": ("unitary", unitary_channel),
    "KrausChannel": ("Kraus operators", KrausChannel),  # refused by name before the rules shared a coercion
}


@pytest.mark.parametrize("x", [{}, object(), [[1, 2], [3]], "abc"], ids=["dict", "object", "ragged", "string"])
@pytest.mark.parametrize("entry", list(MATRIX_ENTRIES))
def test_ragged_or_non_numeric_matrices_are_refused_by_name(entry, x):
    what, call = MATRIX_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{what} must be .*, got a ragged or non-numeric array$"):
        call(x)


def test_check_psd_refuses_a_ragged_list_by_name():
    message = "state must be a square matrix or a stack of square matrices of one size, got a ragged or non-numeric array"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_psd([np.eye(2) / 2, np.eye(3) / 3], "state", 1e-9)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("special", [None, np.inf, -np.inf, np.nan, 1e200, 1e-200])
def test_frob_is_numpys_norm_bit_for_bit(dtype, special):
    rng = np.random.default_rng(12)
    for shape in [(1, 1), (7, 7), (16, 16), (3, 5, 5)]:
        x = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal(shape)
        if special is not None:
            x.flat[len(x.flat) // 2] = special
        for a in (x, x.swapaxes(-1, -2), x[..., ::2, :]):  # strided views too
            with np.errstate(over="ignore"):  # 1e200 squared overflows to inf on both sides
                got, want = frob(a), np.linalg.norm(a)
            assert np.array_equal(got, want, equal_nan=True) and type(got) is float


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (np.eye(2), "unit trace"),
        (np.ones((2, 3)) / 3, "square"),
        (np.diag([np.inf, 0.0]), "non-finite"),
        (np.zeros((0, 2, 2)), "square"),
        (np.zeros((0, 0)), "square"),
    ],
)
def test_check_psd_names_the_failure(bad, message):
    with pytest.raises(ValueError, match=f"^state .*{message}"):
        check_psd(bad, "state", 1e-9, unit_trace=True)
    if np.shape(bad) == (2, 2):  # one bad matrix inside a stack
        with pytest.raises(ValueError, match=f"^state .*{message}"):
            check_psd([np.eye(2) / 2, bad, np.eye(2) / 2], "state", 1e-9, unit_trace=True)


# The PSD certificate against the rule it replaced, at the atols the constructors
# pass: 1e-9 for states, POVM_ATOL for POVM elements, and CHANNEL_ATOL * ||X||_F
# for process matrices, built here with ||X||_F = 4 so the relative rule applies.
PSD_KINDS = {
    "state": ("ensemble state", 1e-9),
    "povm": ("POVM element", POVM_ATOL),
    "process": ("process matrix", CHANNEL_ATOL * 4),
}
# The least eigenvalue, in units of atol: just below -atol, just above, zero; or positive.
LEAST = {"below": -(1 + 1e-3), "above": -(1 - 1e-3), "zero": 0.0, "positive": None}


def spectral_matrix(rng, n, kind, least):
    """U diag(lam) U^dag with Haar U, least eigenvalue LEAST[least] atols, and the
    rest positive: of trace 1 for a state, of Frobenius norm 4 for a process matrix."""
    rest = rng.uniform(0.1, 1.0, n - 1)
    if kind == "process":
        rest *= 4 / np.linalg.norm(rest)
    low = 0.1 * rest.min() if least == "positive" else LEAST[least] * PSD_KINDS[kind][1]
    if kind == "state":
        rest *= (1 - low) / rest.sum()
    u = haar_unitary(n, rng)
    return (u * np.r_[low, rest]) @ dagger(u)


def eigvalsh_refusal(x, what, atol):
    """check_psd's PSD refusal as eigvalsh alone gave it, or None if it accepts."""
    w = np.linalg.eigvalsh(hermitian_part(x))[..., 0].min()
    return f"{what} has negative eigenvalue {w:.3e}" if w < -atol else None


def check_psd_refusal(x, kind, atol):
    what = PSD_KINDS[kind][0]
    try:
        check_psd(x, what, atol, unit_trace=kind == "state")
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("least", sorted(LEAST))
@pytest.mark.parametrize("kind", sorted(PSD_KINDS))
@pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
def test_psd_certificate_agrees_with_eigvalsh(n, kind, least):
    rng = np.random.default_rng([n, sorted(PSD_KINDS).index(kind), sorted(LEAST).index(least)])
    x = spectral_matrix(rng, n, kind, least)
    what, atol = PSD_KINDS[kind]
    if kind == "process":
        atol = CHANNEL_ATOL * max(np.linalg.norm(x), 1.0)  # as ProcessMatrix computes it
    expected = eigvalsh_refusal(x, what, atol)
    # rounding leaves the spectrum on its side of -atol, so both verdicts occur
    assert (expected is not None) == (least == "below")
    assert check_psd_refusal(x, kind, atol) == expected
    # check_psd at fidelity's tolerance tau, on x moved to a least eigenvalue of LEAST[least] taus;
    # the move changes tau by a few parts in 1e9 at most
    tau = NEGATIVE_EIG_RTOL * max(x.diagonal().real.max(), 1.0)
    if least != "positive":
        x = x + (LEAST[least] * tau - np.linalg.eigvalsh(hermitian_part(x))[0]) * np.eye(n)
    assert ((least_eig := np.linalg.eigvalsh(hermitian_part(x))[0]) < -tau) == (least == "below")
    if least == "below":
        with pytest.raises(ValueError, match=f"^matrix has negative eigenvalue {least_eig:.3e}$"):
            check_psd(x, "matrix", tau)
    else:  # the diagonal is restored
        assert np.array_equal(check_psd(x, "matrix", tau), hermitian_part(x))


@pytest.mark.parametrize("size", [1, 16, 128])
@pytest.mark.parametrize("kind", sorted(PSD_KINDS))
@pytest.mark.parametrize("n", [2, 4, 16])
def test_psd_certificate_refuses_the_one_failing_member_of_a_stack(n, kind, size):
    rng = np.random.default_rng([n, sorted(PSD_KINDS).index(kind), size])
    what, atol = PSD_KINDS[kind]
    stack = np.stack([spectral_matrix(rng, n, kind, rng.choice(["above", "zero", "positive"])) for _ in range(size)])
    assert check_psd_refusal(stack, kind, atol) is None
    stack[rng.integers(size)] = spectral_matrix(rng, n, kind, "below")
    expected = eigvalsh_refusal(stack, what, atol)
    assert expected is not None
    assert check_psd_refusal(stack, kind, atol) == expected


def test_check_psd_tolerance_is_absolute():
    tiny = np.diag([1.0 + 5e-10, -5e-10])
    check_psd(tiny, "state", 1e-9, unit_trace=True)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_psd(np.diag([1.0 + 2e-9, -2e-9]), "state", 1e-9)


NAN2 = np.full((2, 2), np.nan)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: InputEnsemble((NAN2, *mub_states(2).states)), id="ensemble-state"),
        pytest.param(lambda: PovmCollection(((NAN2, np.eye(2)),) + cube_povm(1).sets), id="povm-element"),
        pytest.param(lambda: ProcessMatrix(np.full((4, 4), np.nan)), id="process-matrix"),
        pytest.param(lambda: hermitian_eig(NAN2), id="hermitian-eig"),
        pytest.param(lambda: psd_root(NAN2), id="psd-root"),
        pytest.param(lambda: psd_root(np.diag([np.inf, 1.0])), id="psd-root-inf"),
        pytest.param(lambda: psd_factor(NAN2), id="psd-factor"),
        pytest.param(lambda: nearest_psd(NAN2), id="nearest-psd"),
        pytest.param(lambda: KrausChannel((np.eye(2), NAN2)), id="kraus-operator"),
    ],
)
def test_non_finite_matrices_rejected_by_name(build):
    with pytest.raises(ValueError, match="non-finite"):
        build()


def test_the_square_matrix_rule_refuses_non_finite_entries_by_name():
    for x, what, stack in ((NAN2, "matrix", False), ((np.eye(2), NAN2), "Kraus operators", True)):
        with pytest.raises(ValueError, match=f"^{what} must be finite, got non-finite entries$"):
            square_matrix(x, what, stack=stack)


# An anti-Hermitian part above HERMITIAN_RTOL * max(||x||_F, 1) but below 1e-9:
# constructors refuse it, so nothing downstream meets it.
SKEW = 5e-10
X_AXIS = cube_povm(1).sets[0]


@pytest.mark.parametrize(
    "build, what",
    [
        pytest.param(lambda: InputEnsemble((skewed(mub_states(2).states[0], SKEW), *mub_states(2).states[1:])),
                     "ensemble state", id="ensemble-state"),
        pytest.param(lambda: PovmCollection(((skewed(X_AXIS[0], SKEW), skewed(X_AXIS[1], SKEW, -1.0)),)
                                            + cube_povm(1).sets[1:]), "POVM element", id="povm-element"),
        pytest.param(lambda: ProcessMatrix(skewed(process_matrix(identity_channel(2)).mat, SKEW)),
                     "process matrix", id="process-matrix"),
    ],
)
def test_small_anti_hermitian_parts_are_refused_at_construction(build, what):
    with pytest.raises(ValueError, match=f"^{what} is not Hermitian$"):
        build()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_transfer_matrix_of_the_identity_channel_is_the_identity(d):
    assert np.array_equal(transfer_matrix(identity_channel(d).mat), np.eye(d * d))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_transfer_matrix_maps_coordinates_like_the_kraus_sum(d):
    # Non-TP channels on Hermitian matrices that are not PSD: T is linear on all of them.
    rng = np.random.default_rng(80 + d)
    ch = random_channel(d, tp=False, seed=d)
    t = transfer_matrix(ch.mat)
    for _ in range(5):
        g = random_complex(rng, (d, d))
        h = g + dagger(g)
        assert np.linalg.eigvalsh(h)[0] < 0
        expected = sum(a @ h @ dagger(a) for a in ch.kraus)
        assert np.abs(from_herm_coords(t @ herm_coords(h)) - expected).max() <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_herm_coords_round_trip(d):
    rng = np.random.default_rng(60 + d)
    x = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    h = hermitian_part(x[0])
    coords = herm_coords(x)
    assert coords.shape == (3, d * d) and coords.dtype == float
    # exact on Hermitian input, and the Hermitian part of anything else
    assert np.array_equal(from_herm_coords(herm_coords(h)), h)
    back = from_herm_coords(coords)
    assert back.shape == (3, d, d)
    for k in range(3):
        assert np.array_equal(back[k], hermitian_part(x[k]))
    # the diagonal, then Re and Im of the strict upper triangle
    i, j = np.triu_indices(d, 1)
    np.testing.assert_array_equal(coords[0], np.concatenate([h.diagonal().real, h[i, j].real, h[i, j].imag]))
    # Tr(A B) of Hermitian A, B with the off-diagonal coordinates doubled
    g = hermitian_part(x[1])
    weights = np.where(np.arange(d * d) < d, 1.0, 2.0)
    assert abs(herm_coords(h) * weights @ herm_coords(g) - np.trace(h @ g).real) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_from_herm_bilinear_is_the_basis_on_both_sides(d):
    # B z B^T, B^T the stack of basis matrices of from_herm_coords; exact for integer z.
    basis = from_herm_coords(np.eye(d * d)).reshape(d * d, d * d)
    z = np.random.default_rng(d).integers(-8, 9, size=(d * d, d * d)).astype(float)
    assert np.array_equal(from_herm_bilinear(z), basis.T @ z @ basis)
    # Each row of z is the coordinates of a Hermitian matrix, and so is each column of z B^T.
    rows = from_herm_coords(z).reshape(d * d, d * d)
    assert np.array_equal(from_herm_bilinear(z), basis.T @ rows)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_from_herm_bilinear_in_place_equals_its_expression(d):
    # The two gathers and B z B^T's arithmetic as one expression of fresh temporaries.
    z = np.random.default_rng(d).standard_normal((d * d, d * d))
    _, _, _, back, back_sign = _herm_index(d)
    y = (z.take(back, axis=1) * back_sign).view(complex)
    want = y.take(back[::2], axis=0) + 1j * back_sign[1::2, None] * y.take(back[1::2], axis=0)
    assert np.array_equal(from_herm_bilinear(z), want)


def test_from_herm_coords_rejects_a_non_square_count():
    with pytest.raises(ValueError, match="square"):
        from_herm_coords(np.zeros(5))


def test_psd_root_factors_the_matrix():
    rng = np.random.default_rng(66)
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    x = g @ dagger(g)
    u, r = psd_root(x)
    assert np.count_nonzero(r) == 2 and np.all(np.diff(r) <= 0)
    k = (u * r)[:, r > 0]
    assert np.abs(k @ dagger(k) - x).max() <= 1e-12
    with pytest.raises(ValueError, match="not PSD"):
        psd_root(np.diag([1.0, -0.5]))
