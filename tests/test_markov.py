"""Absorbing-chain analysis: exact values, decomposition, and error paths."""

import math

import numpy as np
import pytest

from convlab.errors import NotAbsorbingError, SingularMatrixError
from convlab.markov import (
    CanonicalDecomposition,
    PipelineSpec,
    StochasticMatrix,
    analyze,
    build_pipeline_chain,
    decompose,
    exact_expected_steps_closed_form,
    failure_counting_expected_steps,
    spectral_radius,
    tail_bound,
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
    closed = exact_expected_steps_closed_form(PipelineSpec(delta, stages))
    assert closed == stages / delta
    assert analysis.expected_steps[0] == pytest.approx(closed, rel=1e-10)


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
    assert exact_expected_steps_closed_form(PipelineSpec(1.0)) == 4.0


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", FINE_DELTAS)
def test_pipeline_spectral_radius_exact(delta):
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    assert spectral_radius(decomposition.transient_block) == 1.0 - delta


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


def truncated_series_residual(delta):
    """Truncate the visit-count series at the point where the geometric
    envelope alpha*radius^K drops below 1e-9; return the worst deviation
    from the solve-based expected steps."""
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    analysis = analyze(decomposition)
    block = decomposition.transient_block
    radius = analysis.spectral_radius
    cutoff = math.ceil(math.log(1e-9 / analysis.tail_constant) / math.log(radius))
    total = np.zeros(block.shape[0])
    term = np.ones(block.shape[0])
    for _ in range(cutoff + 1):
        total += term
        term = block @ term
    return float(np.max(np.abs(total - analysis.expected_steps)))


@pytest.mark.parametrize("delta", [0.25, 0.6])
def test_truncated_series_matches_fundamental_matrix(delta):
    """Sum of Q^k column totals reproduces the solve-based expected steps."""
    assert truncated_series_residual(delta) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the geometric envelope alpha*radius^K understates the transient "
    "tail (the four-stage survival carries a cubic prefactor), so at "
    "delta=0.9 the envelope-derived truncation depth K=10 leaves a "
    "residual of ~1.4e-6, above the 1e-6 target.",
)
def test_truncated_series_at_high_delta():
    assert truncated_series_residual(0.9) < 1e-6


@pytest.mark.parametrize("seed", [7, 8])
def test_truncated_series_on_random_chain(seed):
    rng = np.random.default_rng(seed)
    matrix = random_absorbing_chain(rng, transients=3, absorbings=2)
    decomposition = decompose(matrix)
    analysis = analyze(decomposition)
    block = decomposition.transient_block
    radius = spectral_radius(block)
    cutoff = math.ceil(math.log(1e-9 / analysis.tail_constant) / math.log(radius))
    total = np.zeros(block.shape[0])
    term = np.ones(block.shape[0])
    for _ in range(cutoff + 1):
        total += term
        term = block @ term
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


def test_from_entries_detects_absorbing_states():
    entries = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
    matrix = StochasticMatrix.from_entries(entries)
    assert matrix.absorbing_states == frozenset({1})


# ---------------------------------------------------------------------------
# tail bound
# ---------------------------------------------------------------------------


def test_tail_bound_values(campaign_batches):
    decomposition = decompose(build_pipeline_chain(PipelineSpec(0.5)))
    assert tail_bound(decomposition, 0) == 1.0  # certainty before any step
    # P(T > 40) = P(Bin(40, 1/2) < 4) = (1 + 40 + 780 + 9880) / 2**40
    assert tail_bound(decomposition, 40) == pytest.approx(10701 / 2**40, rel=1e-12)
    bounds = [tail_bound(decomposition, k) for k in range(4, 60)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    # no observed trial at delta=0.5 outlives the k=40 bound's regime
    batch = next(b for b in campaign_batches if b.config.delta == 0.5)
    assert int((batch.totals > 40).sum()) == 0


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.5, 0.9])
def test_tail_bound_is_the_stage_sum_survival(delta):
    """||Q^k||_inf of the pipeline block is P(T > k) from the first stage."""
    decomposition = decompose(build_pipeline_chain(PipelineSpec(delta)))
    for k in range(401):
        survival = negbin_survival(k, 4, delta)
        if survival >= 1e-290:
            assert math.isclose(tail_bound(decomposition, k), survival, rel_tol=1e-12)


def test_tail_bound_rejects_negative_horizon():
    decomposition = decompose(build_pipeline_chain(PipelineSpec(0.5)))
    with pytest.raises(ValueError):
        tail_bound(decomposition, -1)


# ---------------------------------------------------------------------------
# validation and error paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0001, math.nan])
def test_pipeline_spec_rejects_bad_delta(delta):
    with pytest.raises(ValueError):
        PipelineSpec(delta)


def test_pipeline_spec_rejects_bad_stages():
    with pytest.raises(ValueError):
        PipelineSpec(0.5, stages=0)


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


def test_analysis_records_norm_choice():
    analysis = pipeline_analysis(0.5)
    assert analysis.tail_constant_norm == "inf"
    assert analysis.tail_constant == pytest.approx(8.0)  # max row sum at start state


def test_blocks_are_immutable():
    analysis = pipeline_analysis(0.5)
    with pytest.raises(ValueError):
        analysis.fundamental[0, 0] = 0.0
    decomposition = decompose(build_pipeline_chain(PipelineSpec(0.5)))
    assert isinstance(decomposition, CanonicalDecomposition)
    with pytest.raises(ValueError):
        decomposition.transient_block[0, 0] = 0.0
