"""Federated simulation: partitioning, value aggregation, equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonewton import (
    BudgetExhaustedError,
    ClientNode,
    FederatedObjective,
    FederationConfig,
    FixedDirections,
    Objective,
    Oracle,
    RngStream,
    SolverConfig,
    estimate_hessian,
    federated_run,
    make_logistic,
    make_quadratic,
    make_synthetic_dataset,
    partition_dataset,
    quadratic_objective,
    random_spd,
    run,
    stiefel_sample,
)
from zonewton.fedsim import _split_sizes
from zonewton.solver import STOPPED_BUDGET, RunTrace


def quadratic_clients(n, d, seed):
    """Random per-client quadratics f_i = 1/2 x^T A_i x - b_i^T x whose mean
    equals a centralized quadratic.

    Returns (clients, mean problem, mean_fn): ``mean problem`` carries the
    analytic ground truth of the averaged quadratic, while ``mean_fn``
    evaluates (1/n) sum_i f_i with the same ascending-id fold the federated
    server uses, so a centralized oracle over it is the federated run's
    exact arithmetic twin.
    """
    gen = np.random.default_rng(seed)
    mats = []
    vecs = []
    base = random_spd(d, 5.0, RngStream(seed))
    for _ in range(n):
        e = 0.05 * gen.standard_normal((d, d))
        mats.append(base + e + e.T)
        vecs.append(gen.standard_normal(d))
    mean_a = sum(mats) / n
    mean_a = 0.5 * (mean_a + mean_a.T)
    mean_b = sum(vecs) / n
    fns = [
        (lambda x, a=mats[i], b=vecs[i]:
         0.5 * float(x @ a @ x) - float(b @ x))
        for i in range(n)
    ]
    clients = [ClientNode(i, Oracle(fns[i], d)) for i in range(n)]

    def mean_fn(x):
        acc = 0.0
        for fn in fns:
            acc = acc + fn(x)
        return acc / n

    return clients, make_quadratic(mean_a, mean_b), mean_fn


class TestPartition:
    def test_split_sizes(self):
        assert _split_sizes(10, 2) == [5, 5]
        assert _split_sizes(10, 3) == [4, 3, 3]

    def test_client_mean_equals_full_objective(self):
        # 11 samples over 3 clients: shards of 4, 4 and 3
        ds = make_synthetic_dataset(11, 2, RngStream(0))
        clients = partition_dataset(ds, FederationConfig(3), RngStream(1),
                                    ridge=0.1)
        assert [c.client_id for c in clients] == [0, 1, 2]
        x = np.ones(2)
        values = [c.oracle.evaluate(x) for c in clients]
        p = make_logistic(ds, 0.1)
        assert sum(values) / 3 == pytest.approx(p.fn(x), rel=1e-12)

    def test_shuffle_is_seeded(self):
        ds = make_synthetic_dataset(11, 2, RngStream(2))
        a = partition_dataset(ds, FederationConfig(3), RngStream(7), ridge=0.1)
        b = partition_dataset(ds, FederationConfig(3), RngStream(7), ridge=0.1)
        x = np.array([0.3, -0.4])
        for ca, cb in zip(a, b):
            assert ca.oracle.evaluate(x) == cb.oracle.evaluate(x)

    def test_too_many_clients(self):
        ds = make_synthetic_dataset(3, 2, RngStream(3))
        with pytest.raises(ValueError):
            partition_dataset(ds, FederationConfig(4), RngStream(4), ridge=0.1)

    @pytest.mark.parametrize("ridge", [np.nan, -1.0])
    def test_a_rejected_ridge_leaves_the_stream_untouched(self, ridge):
        ds = make_synthetic_dataset(5, 2, RngStream(0))
        rng = RngStream(1)
        with pytest.raises(ValueError, match="^ridge must be finite"):
            partition_dataset(ds, FederationConfig(2), rng, ridge=ridge)
        np.testing.assert_array_equal(
            rng.generator.permutation(5),
            RngStream(1).generator.permutation(5))



class TestFederatedProbe:
    def test_single_client_matches_centralized(self):
        d = 3
        fn = lambda x: float(np.sum(x**2) + x[0])
        central = Oracle(fn, d)
        client = ClientNode(0, Oracle(fn, d))
        directions = stiefel_sample(d, d, RngStream(5))
        x = np.array([0.1, 0.2, 0.3])
        want = central.probe_batch(x, directions, mu=0.05)
        got = FederatedObjective([client]).probe_batch(x, directions, mu=0.05)
        assert got.center_value == want.center_value
        np.testing.assert_array_equal(got.plus_values, want.plus_values)
        np.testing.assert_array_equal(got.minus_values, want.minus_values)

    def test_identical_clients_average_to_one(self):
        d = 2
        fn = lambda x: float(x @ x)
        clients = [ClientNode(i, Oracle(fn, d)) for i in range(4)]
        directions = stiefel_sample(d, d, RngStream(6))
        x = np.array([0.5, -0.5])
        got = FederatedObjective(clients).probe_batch(x, directions, mu=0.1)
        want = Oracle(fn, d).probe_batch(x, directions, mu=0.1)
        np.testing.assert_allclose(got.plus_values, want.plus_values,
                                   rtol=1e-15)

    def test_partitioned_quadratic_matches_centralized_estimate(self):
        d, n = 4, 5
        clients, problem, _ = quadratic_clients(n, d, seed=7)
        directions = stiefel_sample(d, 2 * d, RngStream(8))
        x = np.zeros(d)
        fed_probe = FederatedObjective(clients).probe_batch(x, directions,
                                                            mu=1e-3)
        central_oracle = problem.make_oracle()
        central_est, central_probe = estimate_hessian(
            central_oracle, x, directions, mu=1e-3)
        from zonewton import HessianEstimate, directional_curvature
        fed_est = HessianEstimate.zero(d)
        for j in range(directions.r):
            fed_est.update(directions.vectors[j],
                           directional_curvature(fed_probe)[j])
        assert np.max(np.abs(fed_est.matrix - central_est.matrix)) <= 1e-12
        # every client contributed 2r+1 scalars
        assert all(c.oracle.eval_count == 2 * directions.r + 1
                   for c in clients)

    def test_duplicate_ids_rejected(self):
        fn = lambda x: 0.0
        clients = [ClientNode(1, Oracle(fn, 2)), ClientNode(1, Oracle(fn, 2))]
        with pytest.raises(ValueError, match="duplicate"):
            FederatedObjective(clients).probe_batch(
                np.zeros(2), stiefel_sample(2, 2, RngStream(9)), 0.1)


class TestFederatedObjective:
    def test_center_reuse_uses_cached_per_client_values(self):
        d = 3
        clients = [ClientNode(i, Oracle(lambda x, s=i: float(x @ x) + s, d))
                   for i in range(3)]
        objective = FederatedObjective(clients)
        directions = stiefel_sample(d, d, RngStream(10))
        x = np.full(d, 0.2)
        probe = objective.probe_batch(x, directions, mu=0.1)
        before = [c.oracle.eval_count for c in clients]
        extra = stiefel_sample(d, 2, RngStream(11))
        probe2 = objective.probe_batch(x, extra, mu=0.1,
                                       center=probe.center_value)
        after = [c.oracle.eval_count for c in clients]
        assert all(b - a == 4 for a, b in zip(before, after))  # 2r, r=2
        assert objective.eval_count == 7 + 4
        assert probe2.center_value == probe.center_value


class TestFederatedRun:
    def test_single_client_reduces_to_centralized(self):
        d = 4
        problem = make_quadratic(random_spd(d, 6.0, RngStream(13)), np.ones(d))
        config = SolverConfig(mu=1e-5, r_policy=FixedDirections(d),
                              lambda_min=problem.known.m,
                              lambda_max=problem.known.L1,
                              max_iterations=15, L1=problem.known.L1,
                              L2=0.0, m=problem.known.m)
        x0 = np.zeros(d)
        central = run(x0, problem.make_oracle(), config, RngStream(14))
        clients = [ClientNode(0, problem.make_oracle())]
        fed = federated_run(x0, clients, config, RngStream(14))
        np.testing.assert_allclose(fed.x_final, central.x_final, atol=1e-12)
        for rc, rf in zip(central.records, fed.records):
            assert rf.evals == rc.evals

    def test_upload_download_accounting(self):
        d, n, r = 3, 4, 5
        clients, problem, _ = quadratic_clients(n, d, seed=15)
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(r),
                              max_iterations=6, lambda_min=0.5,
                              lambda_max=20.0)
        trace = federated_run(np.ones(d), clients, config, RngStream(16))
        for rec in trace.records:
            assert rec.up_scalars == n * (2 * r + 1)
            assert rec.down_scalars == (2 * r + 1) * d
        assert trace.extra["client_eval_counts"] == [6 * (2 * r + 1)] * n

    def test_partitioned_logistic_converges_to_global_minimizer(self):
        data_set = make_synthetic_dataset(200, 10, RngStream(17))
        problem = make_logistic(data_set, 0.1)
        clients = partition_dataset(data_set, FederationConfig(5),
                                    RngStream(18), ridge=0.1)
        known = problem.known
        config = SolverConfig(mu=1e-7, r_policy=FixedDirections(30),
                              alpha=1.0, lambda_min=0.02, lambda_max=1e4,
                              max_iterations=30, L1=known.L1, m=known.m)
        trace = federated_run(np.zeros(10), clients, config, RngStream(19))
        assert np.linalg.norm(trace.x_final - known.x_star) <= 1e-5

    def test_server_sees_only_scalars(self):
        """Privacy surface: the aggregation consumes nothing but the scalar
        values each client's oracle returns; clients expose no derivative
        interface for the server to call."""
        d = 3
        seen = []

        def spying(x):
            value = float(np.sum(x**2))
            seen.append(value)
            return value

        clients = [ClientNode(0, Oracle(spying, d))]
        assert not hasattr(clients[0].oracle, "gradient")
        assert not hasattr(clients[0].oracle, "hessian")
        directions = stiefel_sample(d, d, RngStream(30))
        probe = FederatedObjective(clients).probe_batch(np.ones(d), directions,
                                                        mu=0.1)
        boundary_values = ([probe.center_value] + list(probe.plus_values)
                           + list(probe.minus_values))
        assert sorted(boundary_values) == sorted(seen)
        assert all(isinstance(v, float) for v in boundary_values)

    def test_client_budget_failure_aborts(self):
        d = 3
        clients, _, _ = quadratic_clients(3, d, seed=20)
        clients[1] = ClientNode(1, Oracle(clients[1].oracle.fn, d, budget=10))
        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=10, lambda_min=0.5,
                              lambda_max=20.0)
        trace = federated_run(np.ones(d), clients, config, RngStream(21))
        assert trace.status == STOPPED_BUDGET
        assert len(trace.records) == 1  # first round fits, second aborts

    def test_aborted_round_accounting(self):
        """Client 1 (budget 10) aborts the second 7-point round after 3
        points; client 0 has evaluated the round and client 2 never sees
        it. The server charges the whole round, as any oracle does."""
        d = 3

        def budgeted_clients():
            clients, _, _ = quadratic_clients(3, d, seed=20)
            clients[1] = ClientNode(1, Oracle(clients[1].oracle.fn, d,
                                              budget=10))
            return clients

        server = FederatedObjective(budgeted_clients())
        x = np.ones(d)
        server.probe_batch(x, stiefel_sample(d, d, RngStream(22)), mu=1e-4)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            server.probe_batch(x, stiefel_sample(d, d, RngStream(23)),
                               mu=1e-4)
        assert excinfo.value.consumed == 3
        counts = RunTrace(records=[], status=STOPPED_BUDGET, x_final=x)
        server.account(counts)
        assert counts.extra["client_eval_counts"] == [14, 10, 7]
        assert server.eval_count == 14

        config = SolverConfig(mu=1e-4, r_policy=FixedDirections(d),
                              max_iterations=10, lambda_min=0.5,
                              lambda_max=20.0)
        clients, _, _ = quadratic_clients(3, d, seed=20)
        full = federated_run(x, clients, config, RngStream(21))
        cut = federated_run(x, budgeted_clients(), config, RngStream(21))
        assert cut.status == STOPPED_BUDGET
        assert cut.extra["client_eval_counts"] == [14, 10, 7]
        assert len(cut.records) == 1
        kept, want = cut.records[0], full.records[0]
        assert kept.evals == want.evals == 7
        np.testing.assert_array_equal(kept.x, want.x)
        assert kept.f_value == want.f_value
        assert kept.step_norm == want.step_norm
        assert kept.up_scalars == want.up_scalars == 3 * 7


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(1, 6), extra=st.integers(0, 12),
       batch_form=st.booleans(), seed=st.integers(0, 2**16))
def test_federated_matches_centralized_at_every_iteration(
        n, d, extra, batch_form, seed):
    """Criterion 9 as a property: any client count, dimension and direction
    count, with client objectives on the batch path or the per-point one."""
    gen = np.random.default_rng(seed)
    base = random_spd(d, 5.0, RngStream(seed))
    fns = []
    for _ in range(n):
        e = 0.05 * gen.standard_normal((d, d))
        fn = quadratic_objective(base + e + e.T, gen.standard_normal(d))
        fns.append(fn if batch_form else (lambda x, fn=fn: fn(x)))

    def mean_batch(points):
        # the server's fold: ascending client id, then divide
        acc = 0.0
        for fn in fns:
            acc = acc + (fn.batch(points) if batch_form
                         else np.array([fn(p) for p in points]))
        return acc / n

    r = d + extra
    config = SolverConfig(mu=1e-5, r_policy=FixedDirections(r),
                          max_iterations=6, lambda_min=0.5, lambda_max=20.0)
    x0 = np.ones(d)
    central_oracle = Oracle(Objective(mean_batch), d)
    central = run(x0, central_oracle, config, RngStream(seed + 1))
    clients = [ClientNode(i, Oracle(fns[i], d)) for i in range(n)]
    fed = federated_run(x0, clients, config, RngStream(seed + 1))
    assert len(central.records) == len(fed.records) == 6
    for rc, rf in zip(central.records, fed.records):
        np.testing.assert_array_equal(rf.x, rc.x)
        assert rf.f_value == rc.f_value
        assert rf.evals == rc.evals
    np.testing.assert_array_equal(fed.x_final, central.x_final)
    assert fed.extra["client_eval_counts"] == [central_oracle.eval_count] * n
