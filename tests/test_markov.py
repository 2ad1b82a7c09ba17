"""Absorbing-chain analysis: exact values, decomposition, and error paths."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convlab.errors import SingularMatrixError
from convlab.markov import (
    CanonicalDecomposition,
    PipelineSpec,
    analyze,
    build_pipeline_chain,
    decompose,
    failure_counting_expected_steps,
    pipeline_expected_steps,
)
from convlab.stats import negbin_survival

FINE_DELTAS = [0.01] + [round(0.05 * i, 2) for i in range(1, 20)] + [1.0]


def pipeline_analysis(delta, stages=4):
    return analyze(decompose(build_pipeline_chain(PipelineSpec(delta, stages))))


# ---------------------------------------------------------------------------
# exact expected steps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stages", range(1, 9))
@pytest.mark.parametrize("delta", FINE_DELTAS)
def test_expected_total_matches_closed_form(delta, stages):
    analysis = pipeline_analysis(delta, stages)
    closed = pipeline_expected_steps(PipelineSpec(delta, stages))[0]
    assert closed == stages / delta
    assert analysis.expected_steps[0] == pytest.approx(closed, rel=1e-10)


def assert_within_half_ulp(value, exact):
    assert abs(Fraction(value) - exact) <= Fraction(math.ulp(value)) / 2


@settings(max_examples=300, deadline=None)
@given(
    stages=st.integers(min_value=1, max_value=8),
    exponent=st.floats(min_value=-307, max_value=0),
)
def test_expected_steps_hold_down_to_the_smallest_deltas(stages, exponent):
    """The closed forms are correctly rounded. The dense inverse is within 8 ulps
    of them, since the exit-mass diagonal of I - Q is delta itself, not
    1 - fl(1 - delta); its eigensolver reads the stored fl(1 - delta)."""
    delta = 10.0**exponent
    steps = pipeline_expected_steps(PipelineSpec(delta, stages))
    analysis = pipeline_analysis(delta, stages)
    assert len(steps) == stages
    for i, (value, dense) in enumerate(zip(steps, analysis.expected_steps)):
        assert_within_half_ulp(value, Fraction(stages - i) / Fraction(delta))
        assert abs(value - dense) <= 8 * math.ulp(value)
    assert 1.0 - delta == analysis.spectral_radius


@settings(max_examples=300, deadline=None)
@given(
    stages=st.integers(min_value=1, max_value=8),
    exponent=st.floats(min_value=-300, max_value=0),
)
def test_failure_counting_is_correctly_rounded(stages, exponent):
    delta = 10.0**exponent
    value = failure_counting_expected_steps(PipelineSpec(delta, stages))
    assert_within_half_ulp(value, Fraction(stages) / Fraction(delta) - (stages - 1))


@pytest.mark.parametrize("delta", [1e-308, 5e-324])
def test_closed_forms_past_the_float_range(delta):
    with pytest.raises(SingularMatrixError, match="condition number inf is not below 1e"):
        pipeline_expected_steps(PipelineSpec(delta))
    assert failure_counting_expected_steps(PipelineSpec(delta)) == math.inf


def test_expected_steps_vector_half():
    # starting deeper in the pipeline shortens the remaining work linearly
    analysis = pipeline_analysis(0.5)
    assert analysis.expected_steps == pytest.approx([8.0, 6.0, 4.0, 2.0])


def test_expected_total_strictly_decreasing_in_delta():
    totals = [pipeline_analysis(d).expected_steps[0] for d in FINE_DELTAS]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_failure_counting_convention():
    assert failure_counting_expected_steps(PipelineSpec(0.5)) == pytest.approx(5.0)
    assert failure_counting_expected_steps(PipelineSpec(1.0)) == pytest.approx(1.0)
    # conventions agree in the always-advance limit only on attempt count 4
    assert pipeline_expected_steps(PipelineSpec(1.0))[0] == 4.0


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", FINE_DELTAS)
def test_pipeline_spectral_radius_exact(delta):
    assert pipeline_analysis(delta).spectral_radius == 1.0 - delta


@pytest.mark.parametrize("stages", [1, 2, 3, 5, 6, 7, 8])
@pytest.mark.parametrize("delta", FINE_DELTAS)
def test_pipeline_spectral_radius_exact_at_every_other_length(delta, stages):
    """The test above at the lengths that exact --stages also takes: every
    stage stays with fl(1 - delta), so the radius is that for any length."""
    assert pipeline_analysis(delta, stages).spectral_radius == 1.0 - delta


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=8),
    lower=st.booleans(),
    data=st.data(),
)
def test_triangular_spectral_radius_is_the_largest_diagonal_entry(size, lower, data):
    """analyze takes the radius from the eigensolver, which returns a triangular
    block's diagonal exactly, as long as the largest entry lies in
    [6.7e-139, 1.5e138]; outside it LAPACK's dgeev rescales the matrix, which
    can move an eigenvalue by an ulp. Each row of the block stays with its
    diagonal entry and leaves with the rest, at most half of it across the
    triangle and the remainder into the absorbing state."""
    stay = np.array(
        data.draw(st.lists(st.floats(min_value=0.0, max_value=0.95), min_size=size, max_size=size))
    )
    weights = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=size * size,
                max_size=size * size,
            )
        )
    ).reshape(size, size)
    triangle = np.tril(weights, -1) if lower else np.triu(weights, 1)
    scale = (1.0 - stay) / 2 / np.maximum(triangle.sum(axis=1), 1.0)
    transient = np.diag(stay) + triangle * scale[:, None]
    assume(np.abs(transient).max() >= 6.7e-139)
    absorbing = 1.0 - transient.sum(axis=1, keepdims=True)
    analysis = analyze(CanonicalDecomposition(transient, absorbing))
    assert analysis.spectral_radius == np.max(np.diag(transient))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def power_norm(decomposition, k):
    """||Q^k||_inf: the worst-start P(not yet absorbed after k steps)."""
    return np.linalg.norm(np.linalg.matrix_power(decomposition.transient_block, k), np.inf)


def truncation_depth(decomposition, analysis):
    """Smallest K with ||Q^(K+1)||_inf * ||N||_inf < 1e-9.

    The series truncated after Q^K misses exactly Q^(K+1) N 1, whose infinity
    norm that product bounds; tail_constant is ||N||_inf.
    """
    depth = 0
    while power_norm(decomposition, depth + 1) * analysis.tail_constant >= 1e-9:
        depth += 1
    return depth


def truncated_series(decomposition, analysis):
    """Sum of Q^k 1 for k = 0..K, with K from truncation_depth."""
    block = decomposition.transient_block
    total = np.zeros(block.shape[0])
    term = np.ones(block.shape[0])
    for _ in range(truncation_depth(decomposition, analysis) + 1):
        total += term
        term = block @ term
    return total


def truncated_series_residual(delta):
    """Worst deviation of the truncated visit-count series from the
    solve-based expected steps."""
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    analysis = analyze(decomposition)
    total = truncated_series(decomposition, analysis)
    return float(np.max(np.abs(total - analysis.expected_steps)))


@pytest.mark.parametrize("delta, depth", [(0.25, 113), (0.6, 35), (0.9, 15)])
def test_truncation_depth_bounds_the_residual(delta, depth):
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    assert truncation_depth(decomposition, analyze(decomposition)) == depth
    assert truncated_series_residual(delta) < 1e-9


@pytest.mark.parametrize("delta", [0.25, 0.6])
def test_truncated_series_matches_fundamental_matrix(delta):
    """Sum of Q^k column totals reproduces the solve-based expected steps."""
    assert truncated_series_residual(delta) < 1e-6


def test_truncated_series_at_high_delta():
    assert truncated_series_residual(0.9) < 1e-6


def test_decompose_orders_states():
    chain = build_pipeline_chain(PipelineSpec(0.5))
    decomposition = decompose(chain)
    assert decomposition.transient_block.shape == (4, 4)
    assert decomposition.absorbing_block.shape == (4, 1)


def dense_chain_with_two_absorbers():
    """Three transient states whose rows leak into both absorbing states 3 and 4."""
    rows = np.random.default_rng(0).random((3, 5)) + 0.05
    return np.vstack([rows / rows.sum(axis=1, keepdims=True), np.eye(5)[3:]])


def tampered_pipeline(stay, advance):
    """The delta = 0.5 pipeline with stage 1's row set to (stay, advance)."""
    entries = build_pipeline_chain(PipelineSpec(0.5))
    entries[1, 1:3] = stay, advance
    return entries


NOT_PIPELINE_CHAINS = {
    "row-sums-to-0.9": [[0.5, 0.4], [0.0, 1.0]],
    "negative-entry": [[1.2, -0.2], [0.0, 1.0]],
    "no-identity-row": [[0.5, 0.5], [0.1, 0.9]],
    "no-absorbing-state": [[0.5, 0.5], [0.5, 0.5]],
    "stranded-transients": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    "all-absorbing": np.eye(3),
    "two-absorbers": dense_chain_with_two_absorbers(),
    "second-delta": tampered_pipeline(0.75, 0.25),
    "row-sums-to-0.9-inside-a-pipeline": tampered_pipeline(0.4, 0.5),
    "one-state": [[1.0]],
    "not-square": [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]],
    "not-a-matrix": [0.5, 0.5],
}


@pytest.mark.parametrize(
    "entries", NOT_PIPELINE_CHAINS.values(), ids=list(NOT_PIPELINE_CHAINS)
)
def test_decompose_refuses_any_matrix_but_the_pipeline_chain(entries):
    with pytest.raises(ValueError):
        decompose(entries)


# ---------------------------------------------------------------------------
# worst-start tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.5, 0.9])
def test_power_norm_is_the_stage_sum_survival(delta):
    """||Q^k||_inf of the pipeline block is P(T > k) from the first stage."""
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    for k in range(401):
        survival = negbin_survival(k, 4, delta)
        if survival >= 1e-290:
            assert math.isclose(power_norm(decomposition, k), survival, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# validation and error paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0001, math.nan])
def test_pipeline_spec_rejects_bad_delta(delta):
    with pytest.raises(ValueError):
        PipelineSpec(delta)


def test_pipeline_spec_rejects_bad_stages():
    with pytest.raises(ValueError, match="stages must be >= 1, got 0"):
        PipelineSpec(0.5, stages=0)


@pytest.mark.parametrize("stages", [4.0, 2.5, True, np.float64(3.0)])
def test_pipeline_spec_stages_must_be_an_integer(stages):
    with pytest.raises(ValueError, match="stages must be an integer"):
        PipelineSpec(0.5, stages=stages)


def test_pipeline_spec_takes_numpy_integer_stages():
    spec = PipelineSpec(0.5, stages=np.int64(3))
    assert type(spec.stages) is int
    assert pipeline_expected_steps(spec)[0] == 6.0


def test_analyze_rejects_numerically_closed_loop():
    # states 0 and 1 swap with a leak of 1e-14 out of state 0: I - Q is hopeless
    leak = 1e-14
    decomposition = CanonicalDecomposition(
        np.array([[0.0, 1.0 - leak], [1.0, 0.0]]), np.array([[leak], [0.0]])
    )
    with pytest.raises(SingularMatrixError):
        analyze(decomposition)


def test_analyze_rejects_exactly_singular_system():
    # a transient state that keeps all its mass has no exit: I - Q is singular
    decomposition = CanonicalDecomposition(np.array([[1.0]]), np.array([[0.0]]))
    with pytest.raises(SingularMatrixError):
        analyze(decomposition)


@pytest.mark.parametrize("delta", [1e-308, 5e-324])
def test_analyze_rejects_step_counts_past_the_float_range(delta):
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    with pytest.raises(SingularMatrixError, match="condition number inf is not below 1e"):
        analyze(decomposition)


def test_analysis_records_norm_choice():
    analysis = pipeline_analysis(0.5)
    assert analysis.tail_constant == pytest.approx(8.0)  # max row sum at start state


def test_blocks_are_immutable():
    analysis = pipeline_analysis(0.5)
    with pytest.raises(ValueError):
        analysis.fundamental[0, 0] = 0.0
    decomposition = decompose(build_pipeline_chain(PipelineSpec(0.5)))
    assert isinstance(decomposition, CanonicalDecomposition)
    with pytest.raises(ValueError):
        decomposition.transient_block[0, 0] = 0.0
