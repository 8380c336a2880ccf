"""The exact oracle: event-free recursive replay over path segments.

The second, independent reference implementation of the Section-2 model.
Where the event engine interleaves all nodes through one global event
heap (with versioned completion events, lazy staleness, settle algebra
and a fused completion fast path), this oracle exploits a structural
property of store-and-forward tree scheduling instead:

    a node's schedule depends on upstream nodes only through the times
    jobs become available on it, and availability flows strictly
    root-to-leaf.

So the replay resolves nodes *recursively in topological order*: for
each node (shallowest first) it gathers the jobs whose processing path
crosses it — each with an availability time already resolved on the
previous hop — and solves the node's preemptive-priority single-machine
schedule analytically, sweeping availability boundaries with exact
arithmetic.  No global event heap, no versioning, no fixed time step:
completions are exact up to float rounding, which makes disagreement
with the engine beyond ~1e-9 relative a genuine bug in one of the two.

Dynamic events (:class:`~repro.workload.events.EventSchedule`) slot into
the same sweep: an outage is one more boundary kind (the node performs
no work inside its down intervals; queued jobs keep queueing), and a
cancellation removes a job from the node it currently occupies — a job
participates on a node at all only if it became available there strictly
before its cancel time, which is exactly the engine's
completions-then-events-then-arrivals tie order expressed availability-
wise.  Cancelled jobs return no completion.

By construction the two implementations disagree about *how* to compute
the schedule; they may only agree about the schedule itself.
"""

from __future__ import annotations

import heapq
import math

from repro.sim.engine import PriorityFn, sjf_priority
from repro.sim.speed import SpeedProfile
from repro.sim.tolerances import finished_tol
from repro.workload.events import EventSchedule
from repro.workload.instance import Instance

__all__ = ["exact_replay"]


def _node_priority_schedule(
    entries: list[tuple[float, tuple, int, float]],
    speed: float,
    down: tuple[tuple[float, float], ...] = (),
    cancels: dict[int, float] | None = None,
) -> dict[int, float]:
    """Exact preemptive-priority schedule of one node.

    ``entries`` holds ``(available_at, priority_key, job_id, work)``;
    smaller keys run first, a newly available job preempts the running
    one only if it outranks it (keys are unique, so ties cannot arise).
    ``down`` lists the node's outage intervals (half-open, time-ordered)
    and ``cancels`` the cancel times of participating jobs; both default
    to the event-free case.  Returns ``job id -> completion time on this
    node`` — cancelled jobs are absent.

    Ordering rules at event collisions (the model-level counterparts of
    the engine's completions-then-events-then-arrivals tie order):

    * a job whose work has hit zero at time ``t`` is *complete* at
      ``t``, even when a higher-priority job becomes available — or the
      node fails, or the job's own cancel fires — at the same instant.
      The drain loop below enforces it; without it a finished job would
      be re-queued behind the newcomer (or stalled through the outage)
      and its completion plus everything downstream would come out late.
      Exact collisions are common under power-of-two sizes on shared
      release instants, not a pathological corner.
    * cancels due at ``t`` apply after that drain and before new
      admissions; removal from the ready heap is lazy (stale tops are
      purged when surfaced), mirroring the engine's swap-remove.
    * an outage spanning ``t`` freezes the node: nothing runs, while
      arrivals keep queueing and cancels keep applying in time order
      until the repair instant.
    """
    pending = sorted(entries)
    completions: dict[int, float] = {}
    ready: list[tuple[tuple, int]] = []  # (key, job id)
    remaining: dict[int, float] = {}
    ftol: dict[int, float] = {}
    cancels = cancels or {}
    cancel_q = sorted(
        (cancels[jid], jid) for (_a, _k, jid, _w) in pending if jid in cancels
    )
    ci, cn = 0, len(cancel_q)
    di, dn = 0, len(down)
    i, n = 0, len(pending)
    t = 0.0
    while i < n or ready or ci < cn:
        while di < dn and down[di][1] <= t:
            di += 1
        # 1. complete leaders finished exactly at t before same-instant
        #    cancels, outages, or arrivals can act on them.
        while ready:
            _, jid = ready[0]
            if jid not in remaining:  # cancelled; lazily deleted
                heapq.heappop(ready)
                continue
            if remaining[jid] > ftol[jid]:
                break
            heapq.heappop(ready)
            completions[jid] = t + remaining[jid] / speed
            del remaining[jid]
        # 2. apply cancels due by t (dynamic events precede arrivals).
        while ci < cn and cancel_q[ci][0] <= t:
            remaining.pop(cancel_q[ci][1], None)
            ci += 1
        while ready and ready[0][1] not in remaining:
            heapq.heappop(ready)
        # 3. admit everything available by t.
        while i < n and pending[i][0] <= t:
            avail, key, jid, work = pending[i]
            heapq.heappush(ready, (key, jid))
            remaining[jid] = work
            ftol[jid] = finished_tol(work)
            i += 1
        # 4. a node inside an outage performs no work: step to the next
        #    repair, arrival or cancel, whichever comes first, so the
        #    outage's arrivals queue (step 3) and its cancels (step 2)
        #    apply in time order.
        if di < dn and down[di][0] <= t < down[di][1]:
            t = min(
                down[di][1],
                pending[i][0] if i < n else math.inf,
                cancel_q[ci][0] if ci < cn else math.inf,
            )
            continue
        if not ready:
            nxt = min(
                pending[i][0] if i < n else math.inf,
                cancel_q[ci][0] if ci < cn else math.inf,
            )
            if not math.isfinite(nxt):
                break
            t = nxt
            continue
        _, jid = ready[0]
        finish = t + remaining[jid] / speed
        boundary = min(
            pending[i][0] if i < n else math.inf,
            down[di][0] if di < dn else math.inf,
            cancel_q[ci][0] if ci < cn else math.inf,
        )
        if finish <= boundary:
            completions[jid] = finish
            heapq.heappop(ready)
            del remaining[jid]
            t = finish
        else:
            # Run the leader up to the boundary, then re-evaluate; the
            # mid-flight residual uses the same ``rem - speed * elapsed``
            # form as the engine's settle, so matching schedules yield
            # (near) bitwise-equal floats.
            remaining[jid] -= speed * (boundary - t)
            t = boundary
    return completions


def exact_replay(
    instance: Instance,
    assignment: dict[int, int],
    *,
    speeds: SpeedProfile | None = None,
    priority: PriorityFn = sjf_priority,
    events: EventSchedule | None = None,
) -> dict[int, float]:
    """Exact completion times under a fixed assignment.

    Parameters mirror the engine's: ``assignment`` maps every job id to
    its leaf, ``speeds`` defaults to unit speed, ``priority`` to SJF,
    ``events`` to the event-free schedule.  Returns ``job id ->
    completion time`` (on the assigned leaf); jobs withdrawn by a cancel
    are absent from the result.
    """
    tree = instance.tree
    profile = speeds or SpeedProfile.uniform(1.0)

    paths = {
        job.id: instance.processing_path_for(job, assignment[job.id])
        for job in instance.jobs
    }
    by_job = {job.id: job for job in instance.jobs}
    if events is not None and events:
        down_by_node = events.down_intervals()
        # Cancels at or before release are defined no-ops, as are
        # cancels of unknown jobs.
        cancels = {
            jid: c
            for jid, c in events.cancel_times().items()
            if jid in by_job and c > by_job[jid].release
        }
    else:
        down_by_node = {}
        cancels = {}

    # available[jid] is the job's availability on its *next* unresolved
    # hop; hop[jid] indexes that hop.
    available = {job.id: job.release for job in instance.jobs}
    hop = {job.id: 0 for job in instance.jobs}

    # Nodes resolve in topological (depth) order: every predecessor of a
    # hop lies strictly closer to the root, so by the time a node is
    # visited all of its availability inputs are final.
    used_nodes = sorted(
        {v for path in paths.values() for v in path}, key=tree.d
    )
    completions: dict[int, float] = {}
    for node in used_nodes:
        speed = profile.speed_of(tree, node)
        entries = []
        for jid, path in paths.items():
            if hop[jid] < len(path) and path[hop[jid]] == node:
                # A job participates on a node only if it got there
                # strictly before its cancel: arriving exactly at the
                # cancel instant means the completion that delivered it
                # and the cancel coincide, and events run right after
                # completions — the job is withdrawn before processing.
                if cancels.get(jid, math.inf) <= available[jid]:
                    continue
                job = by_job[jid]
                entries.append(
                    (
                        available[jid],
                        priority(instance, job, node),
                        jid,
                        instance.processing_time(job, node),
                    )
                )
        if not entries:
            continue
        node_completions = _node_priority_schedule(
            entries,
            speed,
            down_by_node.get(node, ()),
            cancels,
        )
        for jid, done in node_completions.items():
            hop[jid] += 1
            available[jid] = done
            if hop[jid] == len(paths[jid]):
                completions[jid] = done
    return completions
