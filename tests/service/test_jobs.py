"""Unit tests for the service job queue and the typed job vocabulary.

Everything here drives :class:`~repro.service.jobs.JobQueue` directly —
no sockets, no event loop — because the queue owns every scheduling
policy decision (priorities, fair share, requeue, drain) and those must
be assertable deterministically.
"""

import pytest

from repro.api import JobSpec, JobState, JobStatus
from repro.harness import PointResult, SweepPoint
from repro.service.jobs import JobQueue, ServiceError


def square_point(value):
    return PointResult(rows=[{"value": value, "square": value * value}])


def _points(values, spec="test"):
    return [SweepPoint(spec=spec, point_id=f"value={v}", func=square_point,
                       kwargs={"value": v}) for v in values]


def _spec(n, *, name="job", submitter="alice", priority=0):
    return JobSpec.from_points(_points(range(n)), name=name,
                               submitter=submitter, priority=priority)


def _ok(index=0):
    return {"ok": True, "result": f"blob-{index}"}


# --------------------------------------------------------------------------- #
# JobSpec / JobStatus / JobState round trips
# --------------------------------------------------------------------------- #
class TestJobTypes:
    def test_job_state_round_trip(self):
        for state in JobState:
            assert JobState.from_json(state.value) is state
        with pytest.raises(ValueError, match="known states"):
            JobState.from_json("exploded")

    def test_terminal_states(self):
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal

    def test_job_spec_round_trip(self):
        spec = _spec(3, name="fig", submitter="bob", priority=7)
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        # from_points forced the function to its reference string: the
        # encoded payloads must be derivable without pickling a callable.
        entry = again.points[0]
        assert set(entry) == {"spec", "point_id", "group", "point"}

    def test_job_spec_from_json_validates(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_json("nope")
        with pytest.raises(ValueError, match="'points' list"):
            JobSpec.from_json({"name": "x"})
        with pytest.raises(ValueError, match="string 'spec'"):
            JobSpec.from_json({"points": [{"spec": 1}]})
        with pytest.raises(ValueError, match="priority"):
            JobSpec.from_json({"points": [], "priority": "high"})

    def test_job_status_round_trip(self):
        status = JobStatus(job_id="job-1", name="fig", submitter="alice",
                           priority=2, state=JobState.RUNNING, total=5,
                           completed=2, failed=1, error="boom")
        again = JobStatus.from_json(status.to_json())
        assert again == status
        assert again.settled == 3


# --------------------------------------------------------------------------- #
# Scheduling policy
# --------------------------------------------------------------------------- #
class TestScheduling:
    def test_fair_share_interleaves_two_submitters(self):
        queue = JobQueue()
        queue.submit(_spec(4, submitter="alice"))
        queue.submit(_spec(4, submitter="bob"))
        order = []
        for _ in range(8):
            job, index = queue.next_assignment("w1")
            order.append((job.spec.submitter, index))
        # Cumulative fair share: strict alternation, not job order.
        assert [submitter for submitter, _ in order] == \
            ["alice", "bob"] * 4
        # ... and each job's points still dispatch in declaration order.
        assert [i for s, i in order if s == "alice"] == [0, 1, 2, 3]

    def test_priority_preempts_queue(self):
        queue = JobQueue()
        low = queue.submit(_spec(2, submitter="alice", priority=0))
        queue.next_assignment("w1")  # one low-priority point is in flight
        high = queue.submit(_spec(2, submitter="bob", priority=5))
        # The high-priority job's points all dispatch before the low
        # job's remaining point ...
        assert queue.next_assignment("w1")[0] is high
        assert queue.next_assignment("w1")[0] is high
        # ... but the already-dispatched low point was not recalled.
        assert low.inflight
        assert queue.next_assignment("w1")[0] is low

    def test_fifo_within_submitter_and_priority(self):
        queue = JobQueue()
        first = queue.submit(_spec(1, submitter="alice"))
        second = queue.submit(_spec(1, submitter="alice"))
        assert queue.next_assignment("w")[0] is first
        assert queue.next_assignment("w")[0] is second
        assert queue.next_assignment("w") is None

    def test_lifecycle_and_completion(self):
        queue = JobQueue()
        job = queue.submit(_spec(2))
        assert job.state is JobState.QUEUED
        _, index = queue.next_assignment("w")
        assert job.state is JobState.RUNNING
        assert queue.complete(job, index, _ok(index))
        assert job.state is JobState.RUNNING
        _, index2 = queue.next_assignment("w")
        assert queue.complete(job, index2, _ok(index2))
        assert job.state is JobState.DONE
        assert job.status().settled == 2
        # late duplicate replies are dropped, not double-counted
        assert not queue.complete(job, index, _ok(index))

    def test_point_failure_fails_job_with_named_point(self):
        queue = JobQueue()
        job = queue.submit(_spec(1, name="fig"))
        _, index = queue.next_assignment("w")
        assert queue.complete(job, index, {"ok": False, "error": "boom"})
        assert job.state is JobState.FAILED
        assert "test:value=0" in job.error and "boom" in job.error

    def test_empty_job_is_immediately_done(self):
        queue = JobQueue()
        job = queue.submit(JobSpec(name="empty", submitter="alice"))
        assert job.state is JobState.DONE


# --------------------------------------------------------------------------- #
# Worker loss, cancel, drain
# --------------------------------------------------------------------------- #
class TestRecovery:
    def test_requeue_puts_lost_points_first_in_order(self):
        queue = JobQueue()
        job = queue.submit(_spec(4))
        assert queue.next_assignment("dying")[1] == 0
        assert queue.next_assignment("dying")[1] == 1
        assert queue.requeue_worker("dying") == []  # retried, not settled
        assert list(job.pending) == [0, 1, 2, 3]
        assert not job.inflight

    def test_requeue_only_touches_that_workers_points(self):
        queue = JobQueue()
        job = queue.submit(_spec(3))
        queue.next_assignment("dying")
        queue.next_assignment("healthy")
        queue.requeue_worker("dying")
        assert job.inflight == {1: "healthy"}
        assert list(job.pending) == [0, 2]

    def test_point_exhausts_retries(self):
        queue = JobQueue(max_retries=2)
        job = queue.submit(_spec(1))
        for round_ in range(2):
            queue.next_assignment("dying")
            assert queue.requeue_worker("dying") == [], round_
        queue.next_assignment("dying")
        settled = queue.requeue_worker("dying")
        assert [(j.job_id, i) for j, i, _ in settled] == [(job.job_id, 0)]
        assert job.state is JobState.FAILED
        assert "lost 3 times" in job.error

    def test_cancel_drops_pending_and_late_results(self):
        queue = JobQueue()
        job = queue.submit(_spec(3))
        _, index = queue.next_assignment("w")
        assert queue.cancel(job.job_id) is job
        assert job.state is JobState.CANCELLED
        assert not job.pending
        # a result for the in-flight point arriving after cancel is dropped
        assert not queue.complete(job, index, _ok(index))
        assert queue.cancel(job.job_id) is None  # idempotent
        assert queue.cancel("job-99") is None    # unknown

    def test_fail_unfinished_settles_only_unsettled_points(self):
        queue = JobQueue()
        done = queue.submit(_spec(1))
        queue.complete(done, queue.next_assignment("w")[1], _ok())
        job = queue.submit(_spec(3))
        queue.complete(job, queue.next_assignment("w")[1], _ok())
        settled = queue.fail_unfinished("fleet gone")
        assert [(j.job_id, i) for j, i, _ in settled] == \
            [(job.job_id, 1), (job.job_id, 2)]
        assert job.state is JobState.FAILED and "fleet gone" in job.error
        assert done.state is JobState.DONE
        assert queue.next_assignment("w") is None

    def test_forget_finished_drops_only_terminal_jobs(self):
        queue = JobQueue()
        done = queue.submit(_spec(0))   # empty: done at submission
        live = queue.submit(_spec(1))
        assert queue.forget_finished() == [done.job_id]
        assert queue.get(done.job_id) is None
        assert queue.get(live.job_id) is live

    def test_drain_refuses_new_submissions_but_finishes_accepted(self):
        queue = JobQueue()
        job = queue.submit(_spec(1))
        queue.draining = True
        with pytest.raises(ServiceError, match="draining"):
            queue.submit(_spec(1))
        assert queue.unfinished() == 1
        _, index = queue.next_assignment("w")  # accepted work still runs
        queue.complete(job, index, _ok(index))
        assert queue.unfinished() == 0

    def test_statuses_in_submission_order(self):
        queue = JobQueue()
        queue.submit(_spec(1, name="a"))
        queue.submit(_spec(1, name="b"))
        assert [status.name for status in queue.statuses()] == ["a", "b"]
        assert queue.statuses("job-2")[0].name == "b"
        with pytest.raises(ServiceError, match="unknown job"):
            queue.statuses("job-9")
