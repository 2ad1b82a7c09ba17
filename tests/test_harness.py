"""Stepwise walker and its agreement with the vectorized engine."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import geometric_chi_square
from convlab import harness
from convlab.harness import CrossValidationReport, _walk, cross_validate
from convlab.rng import SEED_MODULUS, child_seed, generator
from convlab.simulate import SimConfig, run_histogram
from convlab.stats import prefactor_corrected_slope

# chi-square critical value at 0.999 for 15 degrees of freedom
CHI_CRIT_999_DOF15 = 37.69729822451265


# ---------------------------------------------------------------------------
# whole walks
# ---------------------------------------------------------------------------


def test_delta_one_gives_minimal_walk():
    assert _walk(1.0, generator(0), 1000) == ([1, 1, 1, 1], True)


def test_delta_zero_hits_step_limit():
    assert _walk(0.0, generator(0), 50) == ([50, 0, 0, 0], False)


class ScriptedDraws:
    """A stand-in generator whose uniforms come from a fixed script, in order."""

    def __init__(self, draws):
        self.draws, self.used = list(draws), 0

    def random(self, size):
        block = self.draws[self.used:self.used + size]
        assert len(block) == size, "the walk asked for more draws than max_steps"
        self.used += size
        return np.array(block)


@pytest.mark.parametrize(
    ("draws", "attempts", "converged"),
    [
        # every draw below delta passes a stage
        ([0.1, 0.1, 0.1, 0.1], [1, 1, 1, 1], True),
        # a draw equal to delta fails: success is strictly below delta
        ([0.5, 0.1, 0.1, 0.1, 0.1], [2, 1, 1, 1], True),
        # a failure stays in its stage, a success moves on to the next
        ([0.9, 0.9, 0.1, 0.1, 0.7, 0.1, 0.1], [3, 1, 2, 1], True),
        # cut off right after a success, one stage short
        ([0.1, 0.1, 0.1], [1, 1, 1, 0], False),
        # cut off in the middle of a stage
        ([0.1, 0.9, 0.9, 0.9, 0.9], [1, 4, 0, 0], False),
    ],
)
def test_a_draw_below_delta_passes_the_stage(draws, attempts, converged):
    script = ScriptedDraws(draws)
    assert _walk(0.5, script, len(draws)) == (attempts, converged)
    assert script.used == len(draws)


@pytest.mark.parametrize("seed", range(8))
def test_converged_walks_attempt_every_stage(seed):
    attempts, converged = _walk(0.4, generator(seed), 1000)
    assert converged
    assert all(count >= 1 for count in attempts)


def test_runs_are_reproducible():
    first = _walk(0.5, generator(123), 1000)
    second = _walk(0.5, generator(123), 1000)
    assert first == second


def test_stage_attempts_are_geometric():
    """Marginal distribution check shared with the vectorized engine's
    goodness-of-fit machinery; one pinned seed batch per stage column."""
    trials = 4000
    delta = 0.3
    attempts = [
        _walk(delta, generator(2_000_000 + i), 1000)[0] for i in range(trials)
    ]
    for stage_index in (0, 3):
        column = [row[stage_index] for row in attempts]
        assert geometric_chi_square(column, delta, bins=15) < CHI_CRIT_999_DOF15


# ---------------------------------------------------------------------------
# cross validation against the vectorized engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.3, 0.7])
def test_cross_validate_consistency(delta):
    report = cross_validate(delta, trials=2000, seed=1)
    assert report.all_converged
    assert abs(report.mean_difference) < 3.0 * report.combined_se
    assert 0.9 <= report.variance_ratio <= 1.1
    assert report.stepwise_mean == pytest.approx(4.0 / delta, rel=0.1)


def test_cross_validate_degenerate_delta():
    report = cross_validate(1.0, trials=1000, seed=5)
    assert report.mean_difference == 0.0
    assert report.variance_ratio == 1.0  # both samples are constant
    assert report.z_score == 0.0
    assert report.all_converged


def test_cross_validate_requires_enough_trials():
    with pytest.raises(ValueError):
        cross_validate(0.5, trials=999, seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 1000.0}, "trials must be an integer, got float"),
        ({"trials": np.float64(2000.0)}, "trials must be an integer, got float64"),
    ],
)
def test_cross_validate_counts_are_checked_before_any_work(kwargs, message, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("cross_validate started work on an invalid count")

    monkeypatch.setattr(harness, "_stepwise_totals", no_work)
    monkeypatch.setattr(harness, "run_histogram", no_work)
    with pytest.raises(ValueError, match=message):
        cross_validate(0.5, **{"trials": 1000, "seed": 1, **kwargs})


def test_the_pipeline_has_the_papers_four_stages_in_one_place():
    attempts, _ = _walk(1.0, generator(0), 1000)
    assert len(attempts) == SimConfig.stages == 4


def test_cross_validate_walks_at_most_max_steps(monkeypatch):
    caps = []

    def stepwise(delta, trials, seed, max_steps):
        caps.append(max_steps)
        return np.full(trials, 4, dtype=np.int64), True

    monkeypatch.setattr(harness, "_stepwise_totals", stepwise)
    cross_validate(1.0, 1000, 1)
    assert caps == [harness.MAX_STEPS] == [1000]


@pytest.mark.parametrize(
    "call",
    [
        lambda: SimConfig(delta=0.5, stages=4),
        lambda: cross_validate(0.5, 1000, 1, max_steps=1000),
        lambda: prefactor_corrected_slope(-0.7, [10, 20], 0.5, stages=4),
    ],
    ids=[
        "SimConfig.stages",
        "cross_validate.max_steps",
        "prefactor_corrected_slope.stages",
    ],
)
def test_the_fixed_stage_count_and_step_cap_are_not_arguments(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    trials=st.integers(1, 50),
    seed=st.integers(0, SEED_MODULUS - 1),
    max_steps=st.integers(1, 120),
)
# 4 / delta is inf here, which the first pass's width must not round up
@example(delta=5e-324, trials=1, seed=0, max_steps=1)
# the first-pass width, 4 * ceil(4 / delta), is max_steps itself
@example(delta=0.5, trials=50, seed=1, max_steps=32)
# trial 0's first draw equals delta and fails: success is strictly below delta
@example(delta=generator(child_seed(0, 0)).random(), trials=1, seed=0, max_steps=120)
def test_every_stepwise_total_replays_alone(delta, trials, seed, max_steps):
    totals, all_converged = harness._stepwise_totals(delta, trials, seed, max_steps)
    walks = [
        _walk(delta, generator(child_seed(seed, index)), max_steps) for index in range(trials)
    ]
    assert totals.tolist() == [sum(attempts) for attempts, _ in walks]
    assert all_converged == all(converged for _, converged in walks)


@pytest.mark.parametrize("cells", [12, harness.BLOCK_CELLS])
@pytest.mark.parametrize(("delta", "seed"), [(0.9, 0), (0.5, 7), (0.3, 11), (0.05, 3)])
def test_short_first_pass_rows_are_replayed_by_the_walker(delta, seed, cells, monkeypatch):
    # four draws per row: every trial that takes more than four attempts is
    # replayed, and at 0.05 many reach max_steps unconverged
    trials, max_steps = 50, 40
    walks = [
        _walk(delta, generator(child_seed(seed, index)), max_steps) for index in range(trials)
    ]
    replays = []

    def walk(*args):
        replays.append(args)
        return _walk(*args)

    monkeypatch.setattr(harness, "_first_pass_width", lambda delta, max_steps: 4)
    monkeypatch.setattr(harness, "BLOCK_CELLS", cells)  # 12 cells: blocks of 3 rows
    monkeypatch.setattr(harness, "_walk", walk)
    totals, all_converged = harness._stepwise_totals(delta, trials, seed, max_steps)
    assert totals.tolist() == [sum(attempts) for attempts, _ in walks]
    assert all_converged == all(converged for _, converged in walks)
    assert len(replays) == sum(sum(attempts) > 4 for attempts, _ in walks) > 0


# width: 4 * ceil(4 / delta) draws, or MAX_STEPS when that is not fewer
@pytest.mark.parametrize(
    ("delta", "width"),
    [(5e-324, 1000), (1e-3, 1000), (0.02, 800), (0.1, 160), (0.5, 32), (0.9, 20), (1.0, 16)],
)
def test_the_first_pass_block_holds_at_most_2_14_draws(delta, width, monkeypatch):
    # the block was sized so that crossval-stepwise's peak RSS did not move
    # (BENCH_30.json); a larger block costs memory, so re-benchmark it
    blocks = set()

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def random(self, out):
            blocks.add((out.base.shape, out.base.nbytes))
            return self.rng.random(out=out)

    streams = harness.trial_generators
    monkeypatch.setattr(
        harness, "trial_generators", lambda seed, count: map(Recording, streams(seed, count))
    )
    harness._stepwise_totals(delta, 3000, 5, harness.MAX_STEPS)
    ((shape, nbytes),) = blocks
    assert shape == (2**14 // width, width)
    assert nbytes <= 2**17


# cross_validate(delta, 10_000, child_seed(42, i)) for the i-th of 0.1/0.5/0.9,
# as computed by the one-stream-per-trial loop before trial_generators existed.
# The vectorized moments are the correctly rounded exact ones, 1 ulp off
# numpy's float64 variance at 0.9.
PINNED_REPORTS = [
    CrossValidationReport(
        0.1, 10000, 39.7459, 355.3202652165216, 40.0177, 348.90167687768775,
        -0.27179999999999893, 0.2653718037196509, -1.0242233582854154,
        1.0183965534252333, True,
    ),
    CrossValidationReport(
        0.5, 10000, 7.9829, 7.922799869986998, 8.0188, 7.9648430443044305,
        -0.03590000000000071, 0.03985930620857747, -0.9006679597517745,
        0.994721405797507, True,
    ),
    CrossValidationReport(
        0.9, 10000, 4.4414, 0.492615301530153, 4.4394, 0.4951771577157716,
        0.0019999999999997797, 0.009938774870404926, 0.20123204580830753,
        0.99482638456621, True,
    ),
]


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_cross_validate_reports_are_pinned(index):
    pinned = PINNED_REPORTS[index]
    assert cross_validate(pinned.delta, 10_000, child_seed(42, index)) == pinned


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_vectorized_moments_are_the_engines_exact_moments(index):
    """The vectorized side is run_histogram, the engine behind the CLI, on
    child seed 1; its mean and variance are the exact rationals, rounded once."""
    delta, seed = PINNED_REPORTS[index].delta, child_seed(42, index)
    report = cross_validate(delta, 10_000, seed)
    histogram = run_histogram(SimConfig(delta=delta, trials=10_000, seed=child_seed(seed, 1)))
    values, counts = histogram.values.tolist(), histogram.counts.tolist()
    n = sum(counts)
    s1 = sum(v * c for v, c in zip(values, counts))
    s2 = sum(v * v * c for v, c in zip(values, counts))
    assert report.vectorized_mean == float(Fraction(s1, n))
    assert report.vectorized_variance == float(Fraction(n * s2 - s1 * s1, n * (n - 1)))


# ---------------------------------------------------------------------------
# reference: one scalar draw per attempt
# ---------------------------------------------------------------------------


def reference_walk(delta, max_steps, seed):
    """_walk as a loop that draws one uniform per attempt and advances a stage
    when it is below delta, until all four stages pass or max_steps."""
    rng = generator(seed)
    stage = 0
    attempts = [0] * 4
    steps = 0
    while stage < 4 and steps < max_steps:
        attempts[stage] += 1
        if rng.random() < delta:
            stage += 1
        steps += 1
    return attempts, stage == 4


@settings(max_examples=300, deadline=None)
@given(
    delta=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.sampled_from([0.0, 1.0]),
    ),
    seed=st.integers(0, SEED_MODULUS - 1),
    # inside the first block, at its edges and past the second
    max_steps=st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65, 128, 129])),
)
# cut off right after a success, in the middle of a stage, and at a block edge
@example(delta=1.0, seed=0, max_steps=2)
@example(delta=0.05, seed=3, max_steps=30)
@example(delta=0.0, seed=0, max_steps=64)
@example(delta=0.02, seed=5, max_steps=129)
# a first draw equal to delta fails: success is strictly below delta
@example(delta=generator(0).random(), seed=0, max_steps=2)
def test_walks_match_the_per_step_reference(delta, seed, max_steps):
    walked = _walk(delta, generator(seed), max_steps)
    # repr also tells a bool from an int
    assert repr(walked) == repr(reference_walk(delta, max_steps, seed))
