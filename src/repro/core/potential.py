"""Executable forms of the analysis tools of Section 3.2.

* :func:`phi_potential` — the potential ``Φ_j(t)`` of Lemma 3: an upper
  bound on the time until job ``j`` clears its remaining *identical*
  nodes, assuming no further arrivals.
* :func:`higher_priority_volume` — the quantity of Lemma 2: the
  remaining volume of higher-priority work *available* at an interior
  node, which the lemma bounds by ``(2/ε)·p_j``.

Both are pure functions of a live :class:`~repro.sim.engine.SchedulerView`
(read by an :class:`~repro.sim.engine.EngineSink` through
:attr:`~repro.sim.engine.Engine.view`), so experiments can audit the
bounds at every event of a run.
"""

from __future__ import annotations

from repro.exceptions import AnalysisError
from repro.sim.engine import SchedulerView
from repro.workload.instance import Setting
from repro.workload.job import Job

__all__ = ["phi_potential", "higher_priority_volume"]


def _outranks(p_i: float, job_i: Job, p_j: float, job_j: Job) -> bool:
    return (p_i, job_i.release, job_i.id) < (p_j, job_j.release, job_j.id)


def _remaining_identical_nodes(view: SchedulerView, job_id: int) -> list[int]:
    """``P_j(t)``: identical nodes the job still needs, in path order.

    In the unrelated-endpoint setting the leaf is excluded (it is an
    unrelated node); in the identical setting the leaf is included.
    """
    eng = view._engine
    st = eng._states[job_id]
    if st.done:
        return []
    path = list(st.path[st.idx :])
    if view.instance.setting is Setting.UNRELATED and path and path[-1] == st.record.leaf:
        path.pop()
    return path


def phi_potential(view: SchedulerView, job_id: int, eps: float) -> float:
    """``Φ_j(t)`` of Lemma 3 for an alive job.

    ``Φ_j(t) = (1/s) · max_{v ∈ P_j(t)} [ Σ_{J_i ∈ S_{v,j}(t)} p^A_{i,v}(t)
    + (2/ε)·(d_j(t) − d_{v,j}(t))·p_j ]``

    where ``d_j(t) − d_{v,j}(t)`` counts the identical nodes strictly
    after ``v`` on the remaining path, and ``s`` is the minimum speed
    over the job's remaining identical nodes (the lemma assumes a
    uniform ``s ≥ 1+ε`` there; taking the minimum is conservative).

    Returns ``0.0`` when the job has no identical node left.
    """
    if eps <= 0:
        raise AnalysisError(f"eps must be > 0, got {eps}")
    nodes = _remaining_identical_nodes(view, job_id)
    if not nodes:
        return 0.0
    instance = view.instance
    job = view.job(job_id)
    p_j = job.size
    s = min(view.speed_of(v) for v in nodes)

    best = 0.0
    remaining_after = len(nodes)
    for v in nodes:
        remaining_after -= 1  # identical nodes strictly after v
        volume = 0.0
        for jid in view.jobs_through(v):
            other = view.job(jid)
            p_iv = instance.processing_time(other, v)
            if jid == job_id or _outranks(p_iv, other, instance.processing_time(job, v), job):
                volume += view.remaining_on(jid, v)
        term = volume + (2.0 / eps) * remaining_after * p_j
        best = max(best, term)
    return best / s


def higher_priority_volume(view: SchedulerView, job_id: int, node: int) -> float:
    """Lemma 2's quantity at ``node`` for job ``job_id``.

    ``Σ_{J_i ∈ S_{node,j}(t) \\ Q_{ρ(node)}(t)} p^A_{i,node}(t)`` — the
    remaining volume of jobs with priority at least ``j``'s that are
    already *available* on ``node`` (i.e. have cleared its parent).
    Lemma 2 bounds this by ``(2/ε)·p_j`` whenever ``node`` is an
    identical node not adjacent to the root, the job still needs
    ``node``, and the speed configuration matches the lemma.

    Raises
    ------
    AnalysisError
        If ``node`` is root-adjacent (the lemma excludes that tier) or
        the job does not route through ``node``.
    """
    tree = view.tree
    if tree.node(node).parent == tree.root:
        raise AnalysisError("Lemma 2 concerns nodes not adjacent to the root")
    eng = view._engine
    st = eng._states[job_id]
    pos = st.pos_of.get(node)
    if pos is None or st.idx > pos:
        raise AnalysisError(
            f"job {job_id} does not still need node {node}"
        )
    # The set splits Q by priority relative to job ``j``, which the
    # engine's scalar congestion aggregates cannot answer, so an
    # O(queue) pass over the node's heap is inherent; everything per
    # job is read straight off the engine state (no tree walks).
    job = view.job(job_id)
    ns = eng._nodes[node]
    states = eng._states
    is_leaf = ns.is_leaf
    active_id = ns.active_id
    now = eng.now
    p_jv = st.leaf_time if is_leaf else job.size
    r_j, id_j = job.release, job.id
    total = 0.0
    for _, jid in ns.heap:
        other_st = states[jid]
        other = other_st.job
        if jid != job_id:
            p_iv = other_st.leaf_time if is_leaf else other.size
            if not ((p_iv, other.release, other.id) < (p_jv, r_j, id_j)):
                continue
        # queued jobs are physically at ``node``: live remaining
        if jid == active_id:
            rem = ns.active_rem_start - ns.speed * (now - ns.active_started)
            total += rem if rem > 0.0 else 0.0
        else:
            total += other_st.remaining
    return total
