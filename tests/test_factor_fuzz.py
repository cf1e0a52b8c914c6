"""Property tests for ``linalg.psd_factor`` and the fidelity computed from it.

The factor reproduces a PSD matrix of any rank and scale with as many columns
as the matrix has rank, and accepts one whose eigenvalues reach down to
rounding; it refuses every Hermitian matrix that ``psd_root`` refuses, on both
sides of the negative-eigenvalue tolerance; it keeps every eigenvalue above
``psd_root``'s clip level, relative to the matrix's own scale, and nothing of
the rounding its Schur updates leave; and ``fidelity`` matches the
full-square-root oracle of ``test_metrics`` on arbitrary, proportional,
orthogonal and spread-spectrum pairs, and does not move when an argument is
scaled.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from proctomo.linalg import (  # noqa: E402
    EIG_CLIP_RTOL,
    NEGATIVE_EIG_RTOL,
    dagger,
    frob,
    haar_unitary,
    psd_factor,
    psd_root,
)
from proctomo.metrics import fidelity  # noqa: E402
from test_metrics import fidelity_from_roots  # noqa: E402

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
LOG_SCALES = st.floats(-6.0, 6.0)


def spectral(u, eigs):
    """u[:, :k] diag(eigs) u[:, :k]^dag for k = len(eigs)."""
    k = len(eigs)
    return (u[:, :k] * eigs) @ dagger(u[:, :k])


def random_psd(rng, n, rank, scale):
    """A PSD n x n matrix of the given rank, eigenvalues in [0.1, 1] * scale."""
    return spectral(haar_unitary(n, rng), scale * rng.uniform(0.1, 1.0, rank))


def spread_psd(rng, n, scale):
    """A full-rank PSD n x n matrix with largest eigenvalue ``scale`` and the others
    log-uniform over 10^-12..1 times it, none below twice psd_root's clip level."""
    eigs = np.maximum(10.0 ** rng.uniform(-12.0, 0.0, n), 2 * EIG_CLIP_RTOL)
    eigs[0] = 1.0
    return spectral(haar_unitary(n, rng), scale * eigs)


@PROPS
@given(st.integers(1, 64), st.floats(0.0, 1.0), LOG_SCALES, SEEDS)
@example(64, 1.0, 6.0, 0)
@example(64, 0.0, -6.0, 1)
def test_psd_factor_reproduces_the_matrix_with_its_rank_in_columns(n, rank_fraction, log_scale, seed):
    rank = 1 + round(rank_fraction * (n - 1))
    x = random_psd(np.random.default_rng(seed), n, rank, 10.0**log_scale)
    k = psd_factor(x)
    assert k.shape == (n, rank)
    assert frob(k @ dagger(k) - x) <= 1e-12 * max(frob(x), 1.0)


@PROPS
@given(st.integers(1, 64), LOG_SCALES, SEEDS)
@example(64, 6.0, 0)
@example(64, -6.0, 1)
def test_psd_factor_accepts_psd_matrices_with_eigenvalues_down_to_rounding(n, log_scale, seed):
    """Eigenvalues spread over sixteen decades: the factor stops early, yet its
    residual stays inside the tolerance tau = NEGATIVE_EIG_RTOL * max(max diagonal, 1)."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    x = spectral(haar_unitary(n, rng), scale * 10.0 ** rng.uniform(-16.0, 0.0, n))
    k = psd_factor(x)
    tau = NEGATIVE_EIG_RTOL * max(x.diagonal().real.max(), 1.0)
    assert frob(k @ dagger(k) - x) <= tau


@PROPS
@given(
    st.integers(2, 32),
    st.integers(0, 31),
    LOG_SCALES,
    st.one_of(st.sampled_from([0.5, 0.9, 1.1, 2.0]), st.floats(0.01, 100.0)),
    SEEDS,
)
@example(8, 3, 0.0, 1.1, 0)
@example(8, 3, -6.0, 1.1, 1)
@example(32, 31, 6.0, 0.9, 2)
def test_psd_factor_accepts_nothing_psd_root_refuses(n, positives, log_scale, depth, seed):
    """A Hermitian matrix with lambda_max = scale and lambda_min = -depth times
    psd_root's threshold NEGATIVE_EIG_RTOL * max(lambda_max, 1)."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    positives = min(positives, n - 2)
    eigs = np.concatenate([[scale], scale * rng.uniform(0.1, 1.0, positives), [0.0] * (n - 2 - positives)])
    eigs = np.append(eigs, -depth * NEGATIVE_EIG_RTOL * max(scale, 1.0))
    x = spectral(haar_unitary(n, rng), eigs)
    outcomes = []
    for method in (psd_root, psd_factor):
        try:
            method(x)
            outcomes.append(True)
        except ValueError as exc:
            assert "not PSD" in str(exc)
            outcomes.append(False)
    root_accepts, factor_accepts = outcomes
    assert root_accepts or not factor_accepts
    if depth >= 1.01:
        assert not root_accepts


@PROPS
@given(st.integers(1, 32), st.floats(0.0, 1.0), st.floats(0.0, 1.0), LOG_SCALES, LOG_SCALES, SEEDS)
@example(16, 1.0, 1.0, 0.0, 0.0, 0)
@example(32, 0.0, 0.5, -6.0, 6.0, 1)
def test_fidelity_matches_the_square_root_oracle(n, frac_a, frac_b, log_a, log_b, seed):
    rng = np.random.default_rng(seed)
    rank_a, rank_b = (1 + round(f * (n - 1)) for f in (frac_a, frac_b))
    a = random_psd(rng, n, rank_a, 10.0**log_a)
    b = random_psd(rng, n, rank_b, 10.0**log_b)
    assert abs(fidelity(a, b) - fidelity_from_roots(a, b)) <= 1e-12
    # proportional: fidelity one
    assert abs(fidelity(a, 10.0**log_b * a) - 1.0) <= 1e-12
    assert abs(fidelity_from_roots(a, 10.0**log_b * a) - 1.0) <= 1e-12


@PROPS
@given(st.integers(2, 32), st.floats(0.0, 1.0), LOG_SCALES, LOG_SCALES, SEEDS)
def test_fidelity_of_orthogonal_supports_is_zero(n, split_fraction, log_a, log_b, seed):
    rng = np.random.default_rng(seed)
    split = 1 + round(split_fraction * (n - 2))
    u = haar_unitary(n, rng)
    a = spectral(u, 10.0**log_a * rng.uniform(0.1, 1.0, split))
    b = spectral(u[:, split:], 10.0**log_b * rng.uniform(0.1, 1.0, n - split))
    assert abs(fidelity(a, b) - fidelity_from_roots(a, b)) <= 1e-12
    assert abs(fidelity(a, b)) <= 1e-12


# Rounding in the fidelity of a spread spectrum grows as 1/sqrt(lambda_min): the
# worst difference from the oracle seen on 400 such pairs was 1.3e-11.  Dropping
# one eigenvalue of 1e-11 times the scale moves F by about 1e-6.
SPREAD_ATOL = 1e-10


@PROPS
@given(st.integers(1, 64), st.integers(1, 64), LOG_SCALES, LOG_SCALES, SEEDS)
@example(64, 64, -6.0, 0.0, 0)
@example(64, 1, 6.0, -6.0, 1)
@example(2, 2, -6.0, 0.0, 2)
def test_fidelity_keeps_every_eigenvalue_above_the_clip_level(n, rank_b, log_a, log_b, seed):
    rng = np.random.default_rng(seed)
    a = spread_psd(rng, n, 10.0**log_a)
    b = random_psd(rng, n, min(rank_b, n), 10.0**log_b)
    assert psd_factor(a).shape == (n, n)
    assert abs(fidelity(a, b) - fidelity_from_roots(a, b)) <= SPREAD_ATOL


@PROPS
@given(st.integers(1, 64), st.integers(1, 64), st.floats(-12.0, 0.0), LOG_SCALES, SEEDS)
@example(64, 64, -12.0, 0.0, 0)
@example(2, 2, -6.0, 0.0, 1)
def test_fidelity_is_scale_invariant(n, rank_b, log_c, log_scale, seed):
    rng = np.random.default_rng(seed)
    a = spread_psd(rng, n, 10.0**log_scale)
    b = random_psd(rng, n, min(rank_b, n), 1.0)
    c = 10.0**log_c
    assert abs(fidelity(c * a, b) - fidelity(a, b)) <= SPREAD_ATOL
    assert abs(fidelity(b, c * a) - fidelity(b, a)) <= SPREAD_ATOL


def test_fidelity_counts_a_small_eigenvalue_at_any_scale():
    """diag(1, 1e-11) keeps its second eigenvalue (psd_root clips below 1e-12 of
    the largest), and diag(1e-6, 4e-11) scores as 1e6 times it does."""
    two = np.eye(2)
    for a in (np.diag([1.0, 1e-11]), np.diag([1e-6, 4e-11]), np.diag([1.0, 4e-5])):
        assert abs(fidelity(a, two) - fidelity_from_roots(a, two)) <= 1e-12
    assert fidelity(np.diag([1.0, 1e-11]), two) == pytest.approx(0.5 + np.sqrt(1e-11), abs=1e-12)
    assert fidelity(np.diag([1e-6, 4e-11]), two) == pytest.approx(fidelity(np.diag([1.0, 4e-5]), two), abs=1e-12)


def test_psd_factor_keeps_a_remainder_spread_over_every_diagonal_entry():
    """x = e1 e1^dag + 2e-10 v v^dag with v flat over n = 256 entries.  After the
    first pivot every remaining diagonal entry is 7.8e-13, yet the remainder has
    eigenvalue 2e-10, above both psd_root's clip level and the PSD tolerance."""
    n = 256
    e1 = np.eye(n)[0]
    flat = np.full(n, n**-0.5)
    x = np.outer(e1, e1) + 2e-10 * np.outer(flat, flat)
    assert psd_factor(x).shape == (n, 2)
    assert abs(fidelity(x, np.eye(n)) - fidelity_from_roots(x, np.eye(n))) <= 1e-12


@pytest.mark.parametrize("seed", [39, 66, 91])
def test_psd_factor_stops_above_the_rounding_of_its_schur_updates(seed):
    """At n = 256 a stopping level of EIG_CLIP_RTOL / n alone lets the loop pivot on
    the rounding its Schur updates leave in these matrices; each such column
    moved the fidelity against the identity by about 1e-10."""
    rng = np.random.default_rng(seed)
    n = 256
    rank = int(rng.integers(1, n))
    x = random_psd(rng, n, rank, 1.0)
    assert psd_factor(x).shape == (n, rank)
    assert abs(fidelity(x, np.eye(n)) - fidelity_from_roots(x, np.eye(n))) <= 1e-12


@PROPS
@given(
    st.integers(2, 40),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    LOG_SCALES,
    LOG_SCALES,
    SEEDS,
)
@example(40, 0.5, 0.5, 0.5, 0.0, 0.0, 0)
@example(8, 0.0, 1.0, 0.0, -6.0, 6.0, 1)
@example(40, 1.0, 0.0, 1.0, 6.0, -6.0, 2)
def test_fidelity_of_a_support_split_between_range_and_kernel(n, frac_a, frac_range, frac_kernel, log_a, log_b, seed):
    """A has a random rank and support; B has some of its support in A's range and
    the rest, at least one direction, in A's kernel.  The Gram matrix of one factor
    then has eigenvalues that are zero but for rounding, whose square roots would
    move F by about 1e-8; the fidelity must still match the oracle in either order."""
    rng = np.random.default_rng(seed)
    rank_a = 1 + round(frac_a * (n - 2))
    in_range = round(frac_range * rank_a)
    in_kernel = 1 + round(frac_kernel * (n - rank_a - 1))
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    a = spectral(u, 10.0**log_a * rng.uniform(0.1, 1.0, rank_a))
    # B's support: in_range directions of A's range and in_kernel of its kernel.
    support = np.hstack([u[:, :rank_a] @ v[:rank_a, :in_range], u[:, rank_a:] @ v[rank_a:, :in_kernel]])
    b = spectral(support, 10.0**log_b * rng.uniform(0.1, 1.0, in_range + in_kernel))
    assert abs(fidelity(a, b) - fidelity_from_roots(a, b)) <= 1e-12
    assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-12


@PROPS
@given(
    st.integers(3, 32),
    st.integers(1, 30),
    LOG_SCALES,
    LOG_SCALES,
    st.one_of(st.sampled_from([0.5, 0.9, 1.1, 2.0]), st.floats(0.01, 100.0)),
    st.booleans(),
    SEEDS,
)
@example(8, 3, 0.0, 0.0, 1.1, False, 0)
@example(8, 3, -6.0, 6.0, 1.1, True, 1)
@example(32, 30, 6.0, -6.0, 0.9, False, 2)
def test_fidelity_refuses_what_psd_root_refuses_in_either_position(n, positives, log_scale, log_partner, depth, first, seed):
    """The Hermitian matrix of test_psd_factor_accepts_nothing_psd_root_refuses, with
    at least two positive eigenvalues, against a rank-one PSD partner: the partner has
    the lower effective rank, so the Cholesky certificate of the matrix is what refuses it."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    positives = min(positives, n - 2)
    eigs = np.concatenate([[scale], scale * rng.uniform(0.1, 1.0, positives), [0.0] * (n - 2 - positives)])
    eigs = np.append(eigs, -depth * NEGATIVE_EIG_RTOL * max(scale, 1.0))
    x = spectral(haar_unitary(n, rng), eigs)
    partner = random_psd(rng, n, 1, 10.0**log_partner)
    pair = (x, partner) if first else (partner, x)
    try:
        psd_root(x)
    except ValueError:
        with pytest.raises(ValueError, match="^matrix has negative eigenvalue"):  # the certificate, not a factor, refuses x
            fidelity(*pair)
