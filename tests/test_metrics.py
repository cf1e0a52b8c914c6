import re

import numpy as np
import pytest

from proctomo.channels import process_matrix, random_channel, unitary_channel
from proctomo.ensembles import design_metrics_C, design_metrics_V, mub_povm, sic_states
from proctomo.linalg import dagger, haar_unitary, numeric_array, psd_root
from proctomo.metrics import (
    error_scaling_functional,
    fidelity,
    infidelity,
    loglog_slope,
    squared_error,
)


def test_fidelity_of_matrix_with_itself():
    x = process_matrix(random_channel(2, tp=True, seed=50)).mat
    assert fidelity(x, x) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_orthogonal_rank_one():
    a = np.diag([1.0, 0.0, 0.0, 0.0])
    b = np.diag([0.0, 1.0, 0.0, 0.0])
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_scale_invariant():
    x = process_matrix(random_channel(2, tp=True, seed=51)).mat
    assert fidelity(2.0 * x, x) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_symmetric():
    x = process_matrix(random_channel(2, tp=True, seed=52)).mat
    y = process_matrix(random_channel(2, tp=False, seed=53)).mat
    assert abs(fidelity(x, y) - fidelity(y, x)) <= 1e-9


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(54)
    x = process_matrix(random_channel(2, tp=True, seed=55)).mat
    y = process_matrix(random_channel(2, tp=False, seed=56)).mat
    w = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    assert fidelity(w @ x @ dagger(w), w @ y @ dagger(w)) == pytest.approx(
        fidelity(x, y), abs=1e-9
    )


def fidelity_from_roots(a, b):
    """Oracle: the squared nuclear norm of sqrt(A) sqrt(B) from full square roots."""
    (ua, ra), (ub, rb) = psd_root(a), psd_root(b)
    sv = np.linalg.svd((ua * ra) @ dagger(ua) @ (ub * rb) @ dagger(ub), compute_uv=False)
    return float(np.sum(sv) ** 2 / (np.trace(a).real * np.trace(b).real))


def _random_psd(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ dagger(g)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_fidelity_from_factors_matches_the_square_root_formula(d):
    rng = np.random.default_rng(57 + d)
    u = haar_unitary(d, rng)
    half = d // 2
    pairs = [(_random_psd(rng, d, d), _random_psd(rng, d, d))]
    pairs.append((_random_psd(rng, d, 1), _random_psd(rng, d, half)))  # rank deficient
    x = _random_psd(rng, d, half)
    pairs.append((x, 3.5 * x))  # proportional
    # orthogonal supports: fidelity 0
    left = u[:, :half] @ np.diag(rng.uniform(0.1, 1.0, half)) @ dagger(u[:, :half])
    right = u[:, half:] @ np.diag(rng.uniform(0.1, 1.0, d - half)) @ dagger(u[:, half:])
    pairs.append((left, right))
    for a, b in pairs:
        assert abs(fidelity(a, b) - fidelity_from_roots(a, b)) <= 1e-12
    assert fidelity(x, 3.5 * x) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(left, right) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_keeps_the_negative_eigenvalue_refusal():
    with pytest.raises(ValueError, match="not PSD"):
        fidelity(np.diag([1.0, -0.5]), np.eye(2))


@pytest.mark.parametrize("d", [1, 2])
def test_fidelity_refuses_stacks_before_factoring_either(d):
    # psd_factor and hermitian_eig take one matrix; check_psd would take a stack.
    stack = np.stack([np.eye(d)] * 3)
    with pytest.raises(ValueError, match=rf"^estimate must be a square matrix, got shape \(3, {d}, {d}\)$"):
        fidelity(stack, stack)


def test_fidelity_rejects_zero_trace():
    with pytest.raises(ValueError):
        fidelity(np.zeros((4, 4)), np.eye(4))


def test_scaling_functional_halves_with_root_two():
    base = error_scaling_functional(4, 4.0, 5, 15.2, 16, 19.0, 1000)
    doubled = error_scaling_functional(4, 4.0, 5, 15.2, 16, 19.0, 2000)
    assert doubled == pytest.approx(base / np.sqrt(2.0), rel=1e-12)


def test_scaling_functional_tp_form():
    # Tr(F) = d gives the d^(3/2) prefactor.
    d, j, c, m, v, n = 3, 4, 2.5, 11, 3.5, 500
    value = error_scaling_functional(d, float(d), j, c, m, v, n)
    assert value == pytest.approx(d**1.5 * np.sqrt(j * c) * np.sqrt(m * v) / np.sqrt(n), rel=1e-12)


def test_scaling_functional_for_optimal_design():
    # SIC inputs with the mutually unbiased measurement at d=4.
    rv = design_metrics_V(sic_states(4))
    rc = design_metrics_C(mub_povm(4))
    n = 1e4
    value = error_scaling_functional(4, 4.0, 5, rc.cost / 5, 16, rv.cost / 16, n)
    assert value == pytest.approx(8.0 * np.sqrt(76.0 * 304.0) / np.sqrt(n), rel=1e-9)


def test_scaling_functional_rejects_nonpositive():
    with pytest.raises(ValueError):
        error_scaling_functional(4, 0.0, 5, 15.2, 16, 19.0, 100)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("position, name", enumerate(
    ["d", "trace_f", "num_sets", "povm_cost", "num_states", "ensemble_cost", "copies"]
))
def test_scaling_functional_refuses_non_finite_arguments_by_name(position, name, value):
    args = [4, 4.0, 9, 1.0, 16, 1.0, 1000]
    args[position] = value
    with pytest.raises(ValueError, match=rf"^scaling-functional argument {name} must be finite, got {value!r}$"):
        error_scaling_functional(*args)


@pytest.mark.parametrize("value", [0.0, -1.0, -np.inf])
def test_scaling_functional_keeps_the_positive_text_for_values_up_to_zero(value):
    with pytest.raises(ValueError, match="^all scaling-functional arguments must be positive$"):
        error_scaling_functional(4, value, 9, 1.0, 16, np.nan, 1000)


def test_loglog_slope_recovers_power_law():
    x = np.array([10.0, 100.0, 1000.0])
    assert loglog_slope(x, 5.0 * x**-1.5) == pytest.approx(-1.5, abs=1e-12)


@pytest.mark.parametrize("metric", [squared_error, fidelity])
@pytest.mark.parametrize("other", [np.eye(16) / 16, np.eye(4)[:1] / 4, np.full(4, 0.25)], ids=["16x16", "1x4", "4"])
def test_metrics_refuse_arguments_of_different_shapes(metric, other):
    # (1, 4) and (4,) broadcast against (4, 4): squared_error must not.  fidelity reads each
    # argument through linalg.square_matrix first, which names a shape that is not square.
    a, shape = np.eye(4) / 4, re.escape(str(other.shape))
    square = metric is fidelity and other.ndim == 2 and other.shape[0] == other.shape[1]
    if metric is squared_error or square:
        with pytest.raises(ValueError, match=rf"\(4, 4\).*{shape}"):
            metric(a, other)
        with pytest.raises(ValueError, match=rf"{shape}.*\(4, 4\)"):
            metric(other, a)
    else:
        with pytest.raises(ValueError, match=rf"^truth must be a square matrix, got shape {shape}$"):
            metric(a, other)
        with pytest.raises(ValueError, match=rf"^estimate must be a square matrix, got shape {shape}$"):
            metric(other, a)


@pytest.mark.parametrize("position", [0, 1], ids=["estimate", "truth"])
@pytest.mark.parametrize("x", [{}, object(), [[1, 2], [3]], "abc"], ids=["dict", "object", "ragged", "string"])
def test_squared_error_refuses_ragged_or_non_numeric_arguments_by_name(x, position):
    args = [np.eye(2) / 2, np.eye(2) / 2]
    args[position] = x
    what = ("estimate", "truth")[position]
    with pytest.raises(ValueError, match=f"^{what} must be an array of numbers, got a ragged or non-numeric array$"):
        squared_error(*args)


def test_squared_error_takes_any_shape_and_copies_no_array():
    assert squared_error([1.0, 2.0], [1.0, 4.0]) == 4.0
    assert squared_error(np.ones((2, 2, 4)), np.zeros((2, 2, 4))) == 16.0
    x = np.eye(4, dtype=complex)
    assert numeric_array(x, "estimate") is x
