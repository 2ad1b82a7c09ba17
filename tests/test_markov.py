"""Absorbing-chain analysis: exact values, decomposition, and error paths."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convlab.errors import NotAbsorbingError, SingularMatrixError
from convlab.markov import (
    CanonicalDecomposition,
    PipelineSpec,
    StochasticMatrix,
    analyze,
    build_pipeline_chain,
    decompose,
    failure_counting_expected_steps,
    pipeline_expected_steps,
    spectral_radius,
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
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    assert spectral_radius(decomposition.transient_block) == 1.0 - delta


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=8),
    lower=st.booleans(),
    data=st.data(),
)
def test_triangular_spectral_radius_is_the_largest_diagonal_entry(size, lower, data):
    """The eigensolver returns a triangular block's diagonal exactly, as long as
    the largest entry lies in [6.7e-139, 1.5e138]; outside it LAPACK's dgeev
    rescales the matrix, which can move an eigenvalue by an ulp."""
    values = data.draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=size * size,
            max_size=size * size,
        )
    )
    matrix = np.triu(np.array(values).reshape(size, size))
    if lower:
        matrix = matrix.T
    assume(np.abs(matrix).max() >= 6.7e-139)
    assert spectral_radius(matrix) == np.max(np.abs(np.diag(matrix)))


# ---------------------------------------------------------------------------
# decomposition and absorption
# ---------------------------------------------------------------------------


def random_absorbing_chain(rng, transients, absorbings):
    """Dense random chain where every transient row leaks somewhere."""
    n = transients + absorbings
    entries = np.zeros((n, n))
    for i in range(transients):
        row = rng.random(n) + 0.05
        entries[i] = row / row.sum()
    for j in range(transients, n):
        entries[j, j] = 1.0
    return StochasticMatrix(entries, frozenset(range(transients, n)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_absorption_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    matrix = random_absorbing_chain(rng, transients=3, absorbings=2)
    analysis = analyze(decompose(matrix))
    assert analysis.absorption_probs.sum(axis=1) == pytest.approx(
        np.ones(3), abs=1e-10
    )


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


@pytest.mark.parametrize("seed", [7, 8])
def test_truncated_series_on_random_chain(seed):
    rng = np.random.default_rng(seed)
    matrix = random_absorbing_chain(rng, transients=3, absorbings=2)
    decomposition = decompose(matrix)
    analysis = analyze(decomposition)
    total = truncated_series(decomposition, analysis)
    assert total == pytest.approx(analysis.expected_steps, abs=1e-6)


def test_decompose_orders_states():
    chain = build_pipeline_chain(PipelineSpec(0.5))
    decomposition = decompose(chain)
    assert decomposition.transient_order == (0, 1, 2, 3)
    assert decomposition.absorbing_order == (4,)
    assert decomposition.transient_block.shape == (4, 4)
    assert decomposition.absorbing_block.shape == (4, 1)


def test_decompose_all_absorbing_yields_empty_blocks():
    matrix = StochasticMatrix(np.eye(3), frozenset({0, 1, 2}))
    decomposition = decompose(matrix)
    assert decomposition.transient_order == ()
    assert decomposition.transient_block.shape == (0, 0)
    with pytest.raises(ValueError):
        analyze(decomposition)


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


def test_stochastic_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[0.5, 0.4], [0.0, 1.0]]), frozenset({1}))
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[1.2, -0.2], [0.0, 1.0]]), frozenset({1}))
    with pytest.raises(ValueError):
        # declared absorbing row must be an exact identity row
        StochasticMatrix(np.array([[0.5, 0.5], [0.1, 0.9]]), frozenset({1}))


def test_decompose_rejects_chain_without_absorbing_state():
    entries = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(NotAbsorbingError):
        decompose(StochasticMatrix(entries, frozenset()))


def test_decompose_rejects_stranded_transients():
    # states 0 and 1 swap forever and never reach the absorbing state 2
    entries = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotAbsorbingError):
        decompose(StochasticMatrix(entries, frozenset({2})))


def test_analyze_rejects_numerically_closed_loop():
    # leak of 1e-14 keeps reachability intact but I - Q is hopeless
    leak = 1e-14
    entries = np.array(
        [
            [0.0, 1.0 - leak, leak],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    decomposition = decompose(StochasticMatrix(entries, frozenset({2})))
    with pytest.raises(SingularMatrixError):
        analyze(decomposition)


def test_analyze_rejects_exactly_singular_system():
    # a transient state that keeps all its mass has no exit: I - Q is singular
    decomposition = CanonicalDecomposition(np.array([[1.0]]), np.array([[0.0]]), (0,), (1,))
    with pytest.raises(SingularMatrixError):
        analyze(decomposition)


@pytest.mark.parametrize("delta", [1e-308, 5e-324])
def test_analyze_rejects_step_counts_past_the_float_range(delta):
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    with pytest.raises(SingularMatrixError, match="condition number"):
        analyze(decomposition)


def test_decompose_counts_every_positive_entry_as_an_edge():
    delta = 5e-324  # the smallest subnormal still reaches the absorbing state
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta, stages=2)))
    assert decomposition.transient_order == (0, 1)


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
