"""Simulated federated execution.

A server orchestrates n clients, each holding a local objective f_i; the
global objective is their average. Because finite differences are linear in
the objective, the server can broadcast the probe points, collect each
client's raw scalar values, and average them value-wise: the aggregated
probe is exactly the centralized probe of the mean objective. So the server
is itself an :class:`~zonewton.oracle.Oracle` whose objective is that mean,
and probe points, center reuse and evaluation accounting are the oracle's.
Nothing but scalar function values ever leaves a client.

Aggregation folds client values in ascending client-id order (no pairwise or
tree reduction), so federated runs are bit-stable and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import Objective, Oracle, ProbeResult
from .problems import Dataset, logistic_objective
from .sampling import DirectionSet, RngStream, _check_count
from .solver import RunTrace, SolverConfig, run as solver_run

__all__ = [
    "ClientNode",
    "FederatedObjective",
    "FederationConfig",
    "federated_run",
    "partition_dataset",
]


@dataclass
class ClientNode:
    """One simulated client: an id and a local black-box oracle."""

    client_id: int
    oracle: Oracle


@dataclass
class FederationConfig:
    """How many clients to split a dataset across.

    The split is a seeded permutation, then an even split with the remainder
    going to the lowest ids. Aggregation order is always ascending client id.
    """

    n_clients: int

    def __post_init__(self):
        _check_count("n_clients", self.n_clients)


def _split_sizes(n_samples: int, n_clients: int) -> list:
    base, remainder = divmod(n_samples, n_clients)
    return [base + 1 if i < remainder else base for i in range(n_clients)]


def partition_dataset(dataset: Dataset, config: FederationConfig,
                      rng: RngStream, ridge: float) -> list:
    """Split a dataset into disjoint client shards with local logistic
    objectives.

    Each client i holds f_i(x) = (n_clients / N) * sum over its shard of the
    logistic losses, plus the ridge term, so the client average
    (1/n) sum_i f_i equals the full-dataset objective of
    :func:`zonewton.problems.make_logistic` regardless of shard sizes.
    """
    n = dataset.n_samples
    if config.n_clients > n:
        raise ValueError(
            f"cannot split {n} samples across {config.n_clients} clients")
    order = rng.generator.permutation(n)
    sizes = _split_sizes(n, config.n_clients)
    clients = []
    offset = 0
    weight = config.n_clients / n
    for cid, size in enumerate(sizes):
        shard = dataset.subset(order[offset:offset + size])
        offset += size
        clients.append(ClientNode(cid, Oracle(
            logistic_objective(shard, ridge, weight), dataset.dimension)))
    return clients


def _check_clients(clients) -> list:
    if not clients:
        raise ValueError("need at least one client")
    ordered = sorted(clients, key=lambda c: c.client_id)
    ids = [c.client_id for c in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids: {ids}")
    dims = {c.oracle.dimension for c in ordered}
    if len(dims) != 1:
        raise ValueError(f"clients disagree on the dimension: {sorted(dims)}")
    return ordered


def _aggregate(values_per_client) -> np.ndarray:
    """Sequential mean in client order, folded into one accumulator in
    place; summation order is part of the protocol, so no pairwise
    reduction."""
    acc = np.zeros_like(values_per_client[0], dtype=float)
    for value in values_per_client:
        acc += value
    acc /= len(values_per_client)
    return acc


class FederatedObjective(Oracle):
    """The server: an :class:`Oracle` over the mean of the client objectives.

    Its objective's ``batch`` broadcasts one point matrix to every client,
    each client charges and evaluates it through its own oracle, and the
    returned values are folded in ascending client-id order. Probe points,
    center reuse and the server's ``eval_count`` (evaluations of the mean
    objective, which lines federated traces up with their centralized twins)
    are the oracle's own; each client's counter tracks its local cost. When
    a client's budget aborts a round, the server has already charged the
    whole round.
    """

    def __init__(self, clients):
        self._clients = _check_clients(clients)
        super().__init__(Objective(self.batch),
                         self._clients[0].oracle.dimension)

    def account(self, trace: RunTrace) -> None:
        """Add the communication of a run over this server to its trace:
        each record uploads n * (2 r_k + 1) scalars (one per client per
        probe value) and downloads (2 r_k + 1) * d scalars (the probe
        points, broadcast once), and ``trace.extra["client_eval_counts"]``
        holds each client's evaluation count, in client-id order."""
        n, d = len(self._clients), self.dimension
        for record in trace.records:
            scalars = 2 * record.r_used + 1
            record.up_scalars = n * scalars
            record.down_scalars = scalars * d
        trace.extra["client_eval_counts"] = [
            c.oracle.eval_count for c in self._clients]

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Mean client value at each row of ``points``; a client failure
        propagates, so a round is never partially aggregated."""
        return _aggregate([c.oracle.evaluate_points(points)
                           for c in self._clients])

    def probe_batch(self, x, directions: DirectionSet, mu: float,
                    center: Optional[float] = None) -> ProbeResult:
        """One probe round: broadcast (x, directions, mu), collect each
        client's scalars, average them value-wise in ascending client-id
        order. The result is exactly the centralized probe of the mean
        objective. Any client failure aborts the round; there is no partial
        aggregation."""
        return super().probe_batch(x, directions, mu, center)


def federated_run(x0, clients, config: SolverConfig,
                  rng: RngStream) -> RunTrace:
    """Run the solver against the aggregated client objective.

    Identical to the centralized run on the mean objective (same seed gives
    the same direction draws), with the communication of
    :meth:`FederatedObjective.account` added to the trace.
    """
    objective = FederatedObjective(clients)
    trace = solver_run(x0, objective, config, rng)
    objective.account(trace)
    return trace
