"""Oracle accounting, budgets, probe batches, and cost formulas."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonewton import (
    BudgetExhaustedError,
    Objective,
    Oracle,
    ProbeResult,
    RngStream,
    deterministic_fd_costs,
    gaussian_sphere_sample,
    stiefel_sample,
)


def half_sq(x):
    return 0.5 * float(x @ x)


def test_evaluate_quadratic():
    oracle = Oracle(half_sq, 2)
    assert oracle.evaluate([3.0, 4.0]) == 12.5
    assert oracle.eval_count == 1


def test_evaluate_constant_counts():
    oracle = Oracle(lambda x: 7.0, 3)
    assert oracle.evaluate(np.zeros(3)) == 7.0
    assert oracle.evaluate(np.ones(3)) == 7.0
    assert oracle.eval_count == 2


def test_budget_blocks_second_call():
    oracle = Oracle(lambda x: 1.0, 1, budget=1)
    oracle.evaluate([0.0])
    with pytest.raises(BudgetExhaustedError):
        oracle.evaluate([0.0])
    assert oracle.eval_count == 1  # refused query is not counted


def test_dimension_mismatch():
    oracle = Oracle(half_sq, 3)
    with pytest.raises(ValueError):
        oracle.evaluate([1.0, 2.0])


def test_probe_batch_costs_2r_plus_1():
    oracle = Oracle(half_sq, 4)
    directions = gaussian_sphere_sample(4, 10, RngStream(0))
    probe = oracle.probe_batch(np.zeros(4), directions, mu=0.1)
    assert oracle.eval_count == 21
    assert probe.r == 10


def test_probe_batch_zero_function():
    oracle = Oracle(lambda x: 0.0, 3)
    directions = gaussian_sphere_sample(3, 1, RngStream(1))
    probe = oracle.probe_batch(np.zeros(3), directions, mu=0.5)
    assert probe.center_value == 0.0
    assert probe.plus_values[0] == 0.0
    assert probe.minus_values[0] == 0.0


def test_center_reuse_costs_2r():
    oracle = Oracle(half_sq, 4)
    directions = gaussian_sphere_sample(4, 6, RngStream(2))
    probe = oracle.probe_batch(np.zeros(4), directions, mu=0.1)
    before = oracle.eval_count
    probe2 = oracle.probe_batch(np.zeros(4), directions, mu=0.1,
                                center=probe.center_value)
    assert oracle.eval_count - before == 12
    assert probe2.center_value == probe.center_value


def test_incremental_beats_deterministic_costs_at_d4():
    forward, symmetric = deterministic_fd_costs(4)
    assert (forward, symmetric) == (15, 33)
    oracle = Oracle(half_sq, 4)
    directions = gaussian_sphere_sample(4, 4, RngStream(3))
    oracle.probe_batch(np.zeros(4), directions, mu=0.1)
    assert oracle.eval_count == 9  # 2r+1 with r=d


@pytest.mark.parametrize("d,expected", [
    (1, (3, 3)),
    (4, (15, 33)),
    (10, (66, 201)),
])
def test_deterministic_fd_costs(d, expected):
    assert deterministic_fd_costs(d) == expected


def test_deterministic_fd_costs_rejects_nonpositive():
    with pytest.raises(ValueError):
        deterministic_fd_costs(0)


def test_eval_count_conservation_over_batches():
    oracle = Oracle(half_sq, 5)
    rng = RngStream(4)
    r_counts = [3, 1, 7, 2]
    for r in r_counts:
        oracle.probe_batch(np.zeros(5), gaussian_sphere_sample(5, r, rng), 0.1)
    assert oracle.eval_count == sum(2 * r + 1 for r in r_counts)


def test_determinism_same_function():
    o1 = Oracle(half_sq, 3)
    o2 = Oracle(half_sq, 3)
    x = np.array([0.3, -1.2, 2.5])
    assert o1.evaluate(x) == o2.evaluate(x)


def test_budget_exhaustion_mid_batch_reports_consumed():
    oracle = Oracle(half_sq, 3, budget=5)
    directions = gaussian_sphere_sample(3, 3, RngStream(5))  # needs 7
    with pytest.raises(BudgetExhaustedError) as excinfo:
        oracle.probe_batch(np.zeros(3), directions, mu=0.1)
    assert excinfo.value.consumed == 5
    assert oracle.eval_count == 5  # charged evaluations stay counted


def test_counter_is_thread_safe():
    oracle = Oracle(lambda x: 0.0, 1)

    def worker():
        for _ in range(500):
            oracle.evaluate([0.0])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.eval_count == 4000


def test_budget_never_overrun_under_threads():
    oracle = Oracle(lambda x: 0.0, 1, budget=100)
    refused = []

    def worker():
        for _ in range(50):
            try:
                oracle.evaluate([0.0])
            except BudgetExhaustedError:
                refused.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.eval_count == 100
    assert len(refused) == 300


def test_probe_rejects_bad_mu():
    oracle = Oracle(half_sq, 2)
    directions = stiefel_sample(2, 2, RngStream(6))
    with pytest.raises(ValueError):
        oracle.probe_batch(np.zeros(2), directions, mu=0.0)


def test_probe_rejects_mismatched_directions():
    oracle = Oracle(half_sq, 3)
    directions = stiefel_sample(2, 2, RngStream(7))
    with pytest.raises(ValueError, match="dimension"):
        oracle.probe_batch(np.zeros(3), directions, mu=0.1)


class Counting:
    """f(x) = x . x, counting every point it evaluates; with ``batch_form``
    it also offers the batch form."""

    def __init__(self, batch_form):
        self.seen = 0
        if batch_form:
            self.batch = self._batch

    def __call__(self, x):
        self.seen += 1
        return float(x @ x)

    def _batch(self, points):
        self.seen += len(points)
        return np.einsum("ij,ij->i", points, points)


def _spend(objective, d, budget, batches):
    """Probe the batches (r, reuse_center) in order until the budget stops
    one; returns the oracle, the probe values and the error's consumed."""
    oracle = Oracle(objective, d, budget=budget)
    rng = RngStream(d)
    values = []
    center = None
    for r, reuse in batches:
        directions = stiefel_sample(d, r, rng)
        try:
            probe = oracle.probe_batch(np.ones(d), directions, 0.1,
                                       center=center if reuse else None)
        except BudgetExhaustedError as exc:
            return oracle, values, exc.consumed
        center = probe.center_value
        values.append((probe.center_value, probe.plus_values,
                       probe.minus_values))
    return oracle, values, None


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 4),
       budget=st.integers(1, 80),
       batches=st.lists(st.tuples(st.integers(1, 9), st.booleans()),
                        min_size=1, max_size=6))
def test_budget_accounting_on_batch_and_pointwise_paths(d, budget, batches):
    batches = [(r, reuse and k > 0) for k, (r, reuse) in enumerate(batches)]
    costs = [2 * r + (0 if reuse else 1) for r, reuse in batches]
    results = []
    for batch_form in (True, False):
        objective = Counting(batch_form)
        oracle, values, consumed = _spend(objective, d, budget, batches)
        assert oracle.eval_count == min(budget, sum(costs))
        assert objective.seen == oracle.eval_count
        done = len(values)
        if consumed is None:
            assert done == len(batches) and sum(costs) <= budget
        else:
            # the partial batch: what the budget left after the whole ones
            assert consumed == budget - sum(costs[:done]) < costs[done]
        results.append((consumed, values))
    (consumed_b, values_b), (consumed_p, values_p) = results
    assert consumed_b == consumed_p
    for got, want in zip(values_b, values_p):
        assert got[0] == pytest.approx(want[0], rel=1e-13)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-13)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-13)


def test_batch_form_gets_the_points_in_probe_order():
    seen = []

    def batch(points):
        seen.append(points.copy())
        return np.zeros(len(points))

    oracle = Oracle(Objective(batch), 2)
    directions = stiefel_sample(2, 2, RngStream(9))
    x = np.array([0.5, -1.5])
    oracle.probe_batch(x, directions, mu=0.25)
    (points,) = seen
    steps = 0.25 * directions.vectors
    expected = [x, x + steps[0], x - steps[0], x + steps[1], x - steps[1]]
    np.testing.assert_array_equal(points, expected)


@pytest.mark.parametrize("center", [None, 2.5])
def test_probe_batch_result_equals_the_public_constructor(center):
    oracle = Oracle(Objective(lambda p: np.sum(p * p, axis=1) - p[:, 0]), 3)
    directions = stiefel_sample(3, 5, RngStream(4))
    probe = oracle.probe_batch(np.array([0.2, -1.0, 0.7]), directions,
                               np.float64(0.125), center=center)
    public = ProbeResult(center_value=probe.center_value,
                         plus_values=probe.plus_values,
                         minus_values=probe.minus_values, mu=probe.mu,
                         directions=probe.directions)
    for field in ("center_value", "mu"):
        assert type(getattr(probe, field)) is float
        assert getattr(probe, field) == getattr(public, field)
    for field in ("plus_values", "minus_values"):
        got, want = getattr(probe, field), getattr(public, field)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == (5,)
        assert np.array_equal(got, want)
    assert probe.directions is public.directions
    assert probe.r == public.r == 5


def test_probe_batch_reads_integer_values_as_floats():
    oracle = Oracle(Objective(
        lambda p: np.rint(10 * np.sum(p, axis=1)).astype(np.int64)), 2)
    probe = oracle.probe_batch(np.array([1.0, 2.0]),
                               stiefel_sample(2, 2, RngStream(1)), 0.5)
    assert type(probe.center_value) is float and probe.center_value == 30.0
    for values in (probe.plus_values, probe.minus_values):
        assert values.dtype == np.float64
        assert np.array_equal(values, np.rint(values))


@pytest.mark.parametrize("bad, shape", [
    (lambda p: np.zeros(len(p) - 1), r"\(6,\)"),
    (lambda p: np.zeros((len(p), 1)), r"\(7, 1\)"),
], ids=["one-value-too-few", "2-D"])
def test_probe_batch_rejects_values_of_the_wrong_shape(bad, shape):
    oracle = Oracle(Objective(bad), 4)
    directions = stiefel_sample(4, 3, RngStream(2))
    with pytest.raises(ValueError, match=rf"shape {shape} for points of "
                       r"shape \(7, 4\); expected \(7,\)"):
        oracle.probe_batch(np.zeros(4), directions, 0.1)
    assert oracle.eval_count == 7
