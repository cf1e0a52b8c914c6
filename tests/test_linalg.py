import re

import numpy as np
import pytest

from proctomo.channels import (
    CHANNEL_ATOL,
    ProcessMatrix,
    identity_channel,
    process_matrix,
    random_channel,
)
from proctomo.ensembles import InputEnsemble, mub_states, random_states
from proctomo.linalg import (
    HERMITIAN_RTOL,
    check_psd,
    dagger,
    from_herm_bilinear,
    from_herm_coords,
    haar_unitary,
    herm_coords,
    herm_kron,
    herm_pinv,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
    kron_regroup,
    kron_stack,
    partial_trace_first,
    psd_factor,
    psd_root,
    transfer_matrix,
)
from proctomo.oracle import reshuffle_index, transpose_index
from proctomo.povms import POVM_ATOL, PovmCollection, cube_povm, projective_povm
from proctomo.reconstruct import TwoStageReconstructor


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


@pytest.mark.parametrize("shapes", [[(2, 3)], [(2, 2), (3, 3)], [(2, 3), (4, 1), (1, 2)]])
def test_kron_regroup_maps_vecs_and_flattenings_of_kron_products(shapes):
    rng = np.random.default_rng(11)
    mats = [random_complex(rng, shape) for shape in shapes]
    prod = kron_stack([m[None] for m in mats])[0]
    vecs = kron_stack([m.reshape(-1, order="F")[None, :, None] for m in mats])[0, :, 0]
    flats = kron_stack([m.reshape(1, -1, 1) for m in mats])[0, :, 0]
    assert np.array_equal(prod.reshape(-1, order="F"), vecs[kron_regroup([(c, r) for r, c in shapes])])
    assert np.array_equal(prod.reshape(-1), flats[kron_regroup(shapes)])


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


@pytest.mark.parametrize("method", [hermitian_eig, psd_factor])
@pytest.mark.parametrize(
    "bad, message",
    [(np.ones((2, 3)), "expected a square matrix"), (np.array([[1.0, 1.0], [0.0, 1.0]]), "not Hermitian")],
)
def test_hermitian_checks_are_shared(method, bad, message):
    with pytest.raises(ValueError, match=message):
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
    ],
)
def test_non_finite_matrices_rejected_by_name(build):
    with pytest.raises(ValueError, match="non-finite"):
        build()


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
