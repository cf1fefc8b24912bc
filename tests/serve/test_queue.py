"""The bounded tenant-fair queue: admission control and round-robin
dequeue."""

import itertools

import pytest

from repro.errors import ReproError, ServiceOverloadError
from repro.serve import FairQueue, Job

_ids = itertools.count(1)  # the service numbers its jobs; these are told apart here


def _job(tenant: str) -> Job:
    return Job(id=next(_ids), matrix=None, b=None, config="cg", tenant=tenant)


class TestBoundedAdmission:
    def test_full_queue_sheds_with_a_typed_error(self):
        q = FairQueue(capacity=2)
        q.push(_job("a"))
        q.push(_job("b"))
        with pytest.raises(ServiceOverloadError) as exc_info:
            q.push(_job("c"))
        exc = exc_info.value
        assert exc.reason == "queue_full"
        assert exc.depth == 2 and exc.capacity == 2
        assert exc.exit_code == 16
        assert len(q) == 2

    def test_force_push_bypasses_the_bound(self):
        """Retries of already-admitted jobs are never dropped by their own
        re-entry."""
        q = FairQueue(capacity=1)
        q.push(_job("a"))
        q.push(_job("a"), force=True)
        assert len(q) == 2

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            FairQueue(capacity=0)


class TestFairness:
    def test_per_tenant_fifo_order(self):
        q = FairQueue(capacity=8)
        jobs = [_job("a") for _ in range(3)]
        for j in jobs:
            q.push(j)
        assert [q.pop() for _ in range(3)] == jobs

    def test_round_robin_across_tenants(self):
        """A flooding tenant cannot starve the others: dequeue rotates."""
        q = FairQueue(capacity=16)
        for _ in range(6):
            q.push(_job("flood"))
        q.push(_job("small"))
        order = [q.pop().tenant for _ in range(7)]
        assert order[:3] == ["flood", "small", "flood"]
        assert order.count("flood") == 6

    def test_rotation_follows_first_queued(self):
        q = FairQueue(capacity=8)
        for t in ("a", "b", "c", "a", "b", "c"):
            q.push(_job(t))
        assert [q.pop().tenant for _ in range(6)] == ["a", "b", "c", "a", "b", "c"]

    def test_tenants_lists_rotation(self):
        q = FairQueue(capacity=8)
        q.push(_job("x"))
        q.push(_job("y"))
        assert q.tenants() == ["x", "y"]


class TestDrainAndEmpty:
    def test_pop_on_empty_returns_none(self):
        assert FairQueue(capacity=1).pop() is None

    def test_drain_returns_everything_and_empties(self):
        q = FairQueue(capacity=8)
        jobs = [_job(t) for t in ("a", "b", "a")]
        for j in jobs:
            q.push(j)
        drained = q.drain()
        assert sorted(j.id for j in drained) == sorted(j.id for j in jobs)
        assert len(q) == 0
        assert q.pop() is None
        assert q.tenants() == []
