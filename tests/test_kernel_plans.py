"""The kernel plans for unrelated-endpoint greedy and per-leaf-size
least-loaded, and the scan-free static-policy paths.

The compiled kernel must replay the python engine's records with exact
``==`` (no tolerance) on every setting it plans: affinity, uniform-speed
and restricted-assignment (``p_{j,v} = inf``) endpoints, SJF and FIFO
node order, trees whose root-adjacent node is itself a leaf, tie-heavy
sizes, and outages that block every feasible leaf of a job.  The policy
fast paths (``_feasible_leaves`` without a per-leaf scan, closest over a
per-origin ``(leaf, d_v - 1)`` layout) must equal the definitions they
replace, and each static policy's bulk rule (``assign_all``) must equal
one ``assign`` per job, policy state included.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
    _feasible_leaves,
)
from repro.core.assignment import (
    MISSING,
    FixedAssignment,
    GreedyIdenticalAssignment,
    GreedyUnrelatedAssignment,
)
from repro.exceptions import AssignmentError
from repro.network.builders import (
    caterpillar_tree,
    datacenter_tree,
    kary_tree,
    random_tree,
    tree_from_parent_map,
)
from repro.network.tree import TreeNetwork
from repro.sim import backends, engine
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine
from repro.sim.engine import fifo_priority, sjf_priority
from repro.sim.speed import SpeedProfile
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet
from repro.workload.unrelated import (
    affinity_matrix,
    restricted_assignment_matrix,
    uniform_speed_matrix,
)

_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(
    not _C_OK, reason=f"c backend unavailable: {_C_REASON}"
)

PLANNED = {
    "greedy": lambda: GreedyUnrelatedAssignment(0.25),
    "least-loaded": LeastLoadedAssignment,
}

#: Fast routers, slow leaves: leaf queues build up, so F' and the leaf
#: heaps' per-leaf ranks carry the decisions.
SLOW_LEAVES = SpeedProfile(root_children=3.0, interior=3.0, leaves=0.4)


def _instance(tree, n, *, matrix="affinity", sizes="uniform", seed=0):
    """An unrelated-endpoint instance on ``tree``: Poisson releases at
    load ~0.9, or integer-grid releases shared by several jobs for the
    tie-heavy size families."""
    rng = np.random.default_rng(seed)
    if sizes == "uniform":
        p = rng.uniform(1.0, 4.0, n)
    elif sizes == "equal":
        p = np.ones(n)
    else:  # powers
        p = rng.choice([0.5, 1.0, 2.0, 4.0], n)
    if sizes == "uniform":
        rate = Instance.poisson_rate_for_load(tree, float(p.mean()), 0.9)
        releases = np.cumsum(rng.exponential(1.0 / rate, n))
    else:
        releases = np.sort(rng.integers(0, max(2, n // 3), n).astype(float))
    if matrix == "affinity":
        rows = affinity_matrix(tree.leaves, p, rng=rng)
    elif matrix == "uniform-speed":
        rows = uniform_speed_matrix(tree.leaves, p, rng=rng)
    else:
        rows = restricted_assignment_matrix(tree.leaves, p, 0.4, rng=rng)
    return Instance(tree, JobSet.build(releases, p, rows), Setting.UNRELATED)


def _both(instance, policy, *, priority=sjf_priority, events=None, speeds=None):
    """``(python, c)`` results of ``policy`` (a PLANNED key)."""
    return tuple(
        backends.simulate(
            instance,
            PLANNED[policy](),
            backend=backend,
            speeds=speeds or SpeedProfile.uniform(1.5),
            priority=priority,
            events=events,
        )
        for backend in ("python", "c")
    )


def _assert_same(a, b):
    assert a.records == b.records  # leaf, path, every hop: exact
    assert a.total_flow_time() == b.total_flow_time()


@needs_c
class TestParity:
    @pytest.mark.parametrize("speeds", [None, SLOW_LEAVES], ids=["uniform", "slow-leaves"])
    @pytest.mark.parametrize("policy", sorted(PLANNED))
    @pytest.mark.parametrize(
        "matrix", ["affinity", "uniform-speed", "restricted"]
    )
    def test_endpoint_models(self, policy, matrix, speeds):
        inst = _instance(datacenter_tree(2, 2, 3), 400, matrix=matrix, seed=3)
        _assert_same(*_both(inst, policy, speeds=speeds))

    @pytest.mark.parametrize("policy", sorted(PLANNED))
    @pytest.mark.parametrize("priority", [sjf_priority, fifo_priority])
    def test_sjf_and_fifo(self, policy, priority):
        inst = _instance(caterpillar_tree(3, 2), 300, matrix="restricted", seed=4)
        _assert_same(*_both(inst, policy, priority=priority))

    @pytest.mark.parametrize("policy", sorted(PLANNED))
    def test_root_adjacent_leaf(self, policy):
        # Node 1 is both a root child and a leaf (outside the paper's
        # model, but a valid engine input): greedy's F there sums the
        # queued jobs' leaf sizes, not their router sizes.
        tree = TreeNetwork(
            {0: None, 1: 0, 2: 0, 3: 2, 4: 2}, allow_leaf_under_root=True
        )
        inst = _instance(tree, 200, seed=5)
        a, b = _both(inst, policy)
        _assert_same(a, b)
        assert any(r.leaf == 1 for r in b.records.values())

    @pytest.mark.parametrize("policy", sorted(PLANNED))
    @pytest.mark.parametrize("sizes", ["equal", "powers"])
    @pytest.mark.parametrize("matrix", ["affinity", "restricted"])
    def test_tie_heavy_sizes(self, policy, sizes, matrix):
        # Shared releases and repeated p_{j,v} values: the per-leaf
        # heap ranks must break ties by release, then id.
        inst = _instance(
            datacenter_tree(1, 2, 3), 120, matrix=matrix, sizes=sizes, seed=6
        )
        _assert_same(*_both(inst, policy))

    @pytest.mark.parametrize("policy", sorted(PLANNED))
    def test_ids_out_of_release_order(self, policy):
        # F' sums a leaf's jobs in ascending id, which here is not the
        # order they were assigned in.
        base = _instance(datacenter_tree(2, 2, 3), 300, seed=9)
        n = len(base.jobs)
        jobs = JobSet([
            Job((7 * i) % n, j.release, j.size, leaf_sizes=j.leaf_sizes)
            for i, j in enumerate(base.jobs)
        ])
        inst = Instance(base.tree, jobs, Setting.UNRELATED)
        _assert_same(*_both(inst, policy, speeds=SLOW_LEAVES))

    @pytest.mark.parametrize("policy", sorted(PLANNED))
    def test_outage_blocking_every_feasible_leaf(self, policy):
        # Odd jobs may run only in rack 0; its router goes down for a
        # while, so their feasible leaves are all blocked while other
        # (forbidden) leaves stay up, and a leaf of rack 1 goes down
        # too.  Cancels land in queues and in service.
        tree = datacenter_tree(1, 2, 3)
        racks = sorted({tree.parent(v) for v in tree.leaves})
        rack0 = tree.leaves_under(racks[0])
        rng = np.random.default_rng(7)
        n = 150
        p = rng.choice([0.5, 1.0, 2.0], n)
        releases = np.sort(rng.uniform(0.0, 60.0, n))
        rows = [
            {v: (float(p[i]) if v in rack0 else math.inf) for v in tree.leaves}
            if i % 2
            else {v: float(p[i]) * (1.0 + (v % 3)) for v in tree.leaves}
            for i in range(n)
        ]
        inst = Instance(tree, JobSet.build(releases, p, rows), Setting.UNRELATED)
        other = tree.leaves_under(racks[1])[0]
        events = EventSchedule([
            NodeDown(10.0, racks[0]), NodeUp(30.0, racks[0]),
            NodeDown(20.0, other), NodeUp(40.0, other),
            *(Cancel(float(releases[i]) + 1.0, i) for i in range(3, n, 11)),
        ])
        a, b = _both(inst, policy, events=events)
        _assert_same(a, b)
        assert b.cancelled_records()
        blocked = [
            r for j, r in b.records.items()
            if j % 2 and 10.0 < r.release < 30.0
        ]
        assert blocked and all(r.leaf in rack0 for r in blocked)


@needs_c
class TestPlanned:
    @pytest.mark.parametrize("policy", sorted(PLANNED))
    @pytest.mark.parametrize("priority", [sjf_priority, fifo_priority])
    def test_kernel_plans_both_policies(self, policy, priority):
        inst = _instance(datacenter_tree(2, 2, 3), 50, matrix="restricted")
        CEngine(inst, PLANNED[policy](), priority=priority)

    def test_greedy_identical_under_fifo(self):
        # F prices the SJF tuple whatever the node order; under FIFO the
        # heaps it sums in array order hold (release, id) keys.
        inst = api.make_instance(tree=datacenter_tree(2, 2, 3), n_jobs=300, seed=3)
        a, b = (
            api.simulate(
                instance=inst, policy="greedy", eps=0.25, priority="fifo",
                backend=backend,
            )
            for backend in ("python", "c")
        )
        _assert_same(a, b)
        CEngine(inst, GreedyIdenticalAssignment(0.25), priority=fifo_priority)

    def test_greedy_unrelated_on_identical_endpoints(self):
        # p_{j,v} == p_j: the plan runs without a per-leaf column.
        inst = api.make_instance(tree=datacenter_tree(2, 2, 3), n_jobs=120, seed=2)
        a, b = (
            backends.simulate(inst, GreedyUnrelatedAssignment(0.5), backend=backend)
            for backend in ("python", "c")
        )
        _assert_same(a, b)

    def test_no_fallback_to_the_python_engine(self, monkeypatch):
        inst = _instance(datacenter_tree(2, 2, 3), 200, matrix="restricted")
        refs = {
            name: api.simulate(instance=inst, policy=name, eps=0.25, seed=1)
            for name in api.POLICY_NAMES
        }

        def python_engine(*args, **kwargs):
            raise AssertionError("fell back to the python engine")

        monkeypatch.setattr(engine, "simulate", python_engine)
        for name in api.POLICY_NAMES:
            got = api.simulate(
                instance=inst, policy=name, eps=0.25, seed=1, backend="c"
            )
            assert got.records == refs[name].records, name


def _outage_bug_instance():
    """Two jobs that may run only on leaf 3; leaf 5 is forbidden."""
    tree = datacenter_tree(1, 2, 1)
    jobs = JobSet(
        [Job(i, float(i), 1.0, leaf_sizes={3: 1.0, 5: math.inf}) for i in range(2)]
    )
    events = EventSchedule([NodeDown(0.5, 3), NodeUp(3.0, 3)])
    return Instance(tree, jobs, Setting.UNRELATED), events


class TestLeastLoadedForbiddenLeafOutage:
    """An outage that blocks every feasible leaf while a forbidden leaf
    stays up: least-loaded falls back to all feasible leaves, as greedy
    does, instead of raising 'no feasible leaf'."""

    @pytest.mark.parametrize(
        "policy", [LeastLoadedAssignment, lambda: GreedyUnrelatedAssignment(0.5)]
    )
    def test_assigns_to_the_blocked_feasible_leaf(self, policy):
        inst, events = _outage_bug_instance()
        result = engine.simulate(inst, policy(), events=events)
        assert {j: r.leaf for j, r in result.records.items()} == {0: 3, 1: 3}
        assert result.records[1].completion == 5.0

    @needs_c
    def test_kernel_implements_the_same_rule(self):
        inst, events = _outage_bug_instance()
        a, b = (
            backends.simulate(
                inst, LeastLoadedAssignment(), backend=backend, events=events
            )
            for backend in ("python", "c")
        )
        _assert_same(a, b)


# ---------------------------------------------------------------------------
# properties of the scan-free static paths
# ---------------------------------------------------------------------------
_P_GRID = (0.5, 1.0, 2.0, math.inf)


@st.composite
def _job_on_tree(draw):
    tree = random_tree(draw(st.integers(4, 14)), rng=draw(st.integers(0, 999)))
    routers = [v for v in tree.routers]
    origin = draw(st.sampled_from([None, tree.root, *routers]))
    size = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    leaf_sizes = None
    if draw(st.booleans()):
        under = tree.leaves if origin in (None, tree.root) else tree.leaves_under(origin)
        leaf_sizes = {
            v: draw(st.sampled_from(_P_GRID)) for v in tree.leaves
        }
        leaf_sizes[draw(st.sampled_from(under))] = size  # one feasible leaf
    job = Job(0, 0.0, size, leaf_sizes=leaf_sizes, origin=origin)
    setting = Setting.IDENTICAL if leaf_sizes is None else Setting.UNRELATED
    instance = Instance(tree, JobSet([job]), setting)
    return SimpleNamespace(tree=tree, instance=instance), job


@st.composite
def _instance_on_tree(draw):
    """A few jobs on a drawn tree — ``random_tree`` (leaf ids out of
    preorder) or a fixed family — with mixed origins (``None``, the
    root, routers), and either identical sizes (some with estimates) or
    per-leaf sizes with forbidden leaves."""
    if draw(st.booleans()):
        tree = random_tree(draw(st.integers(4, 16)), rng=draw(st.integers(0, 999)))
    else:
        tree = draw(st.sampled_from([
            datacenter_tree(2, 2, 3), caterpillar_tree(3, 2), kary_tree(2, 3),
        ]))
    origins = [None, tree.root, *tree.routers]
    unrelated = draw(st.booleans())
    jobs = []
    for i in range(draw(st.integers(1, 12))):
        origin = draw(st.sampled_from(origins))
        size = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        leaf_sizes = estimate = None
        if unrelated:
            under = tree.leaves if origin in (None, tree.root) else tree.leaves_under(origin)
            leaf_sizes = {v: draw(st.sampled_from(_P_GRID)) for v in tree.leaves}
            leaf_sizes[draw(st.sampled_from(under))] = size  # one feasible leaf
        elif draw(st.booleans()):
            estimate = draw(st.sampled_from([0.25, 1.5, 5.0]))
        release = float(draw(st.integers(0, 4)))
        jobs.append(Job(i, release, size, leaf_sizes, origin, estimate))
    setting = Setting.UNRELATED if unrelated else Setting.IDENTICAL
    return Instance(tree, JobSet(jobs), setting)


def _policy_state(policy):
    return (
        policy.rng.bit_generator.state if hasattr(policy, "rng") else None,
        getattr(policy, "_next", None),
    )


class TestStaticFastPaths:
    @settings(max_examples=150, deadline=None)
    @given(_job_on_tree())
    def test_feasible_leaves_equal_the_instance_definition(self, drawn):
        view, job = drawn
        assert _feasible_leaves(view, job) == view.instance.feasible_leaves(job)

    @settings(max_examples=150, deadline=None)
    @given(_job_on_tree())
    def test_closest_equals_the_path_volume_scan(self, drawn):
        view, job = drawn
        instance = view.instance
        expected = min(
            instance.feasible_leaves(job),
            key=lambda v: (instance.path_volume(job, v), v),
        )
        policy = ClosestLeafAssignment()
        assert policy.assign(view, job, 0.0) == expected
        assert policy.assign(view, job, 0.0) == expected  # cached layout

    def test_closest_breaks_path_volume_ties_by_leaf_id(self):
        # Leaf 3 (d=3) ties leaves 5 and 6 (d=2) at 2 + 1 == 1 + 2, and
        # leaf 4 is forbidden: the smallest id wins, deeper or not.
        tree = tree_from_parent_map({0: None, 1: 0, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1})
        job = Job(0, 0.0, 1.0, leaf_sizes={3: 1.0, 4: math.inf, 5: 2.0, 6: 2.0})
        view = SimpleNamespace(tree=tree)
        assert ClosestLeafAssignment().assign(view, job, 0.0) == 3

    def test_closest_raises_without_a_feasible_leaf(self):
        tree = tree_from_parent_map({0: None, 1: 0, 2: 1, 3: 1})
        job = Job(0, 0.0, 1.0, leaf_sizes={2: math.inf, 3: math.inf, 9: 1.0})
        with pytest.raises(AssignmentError, match="no feasible leaf"):
            ClosestLeafAssignment().assign(SimpleNamespace(tree=tree), job, 0.0)

    @staticmethod
    def _policies(instance, seed, start):
        def round_robin():
            policy = RoundRobinAssignment()
            policy._next = start
            return policy

        rng = np.random.default_rng(seed)
        fixed = {
            job.id: int(rng.choice(instance.feasible_leaves(job)))
            for job in instance.jobs
        }
        return {
            "closest": ClosestLeafAssignment,
            "random": lambda: RandomAssignment(seed),
            "round-robin": round_robin,
            "fixed": lambda: FixedAssignment(fixed),
        }

    # -- bulk rules: assign_all(instance) == one assign per masked job in
    # release order, and the policy ends in the same state.
    @settings(max_examples=200, deadline=None)
    @given(_instance_on_tree(), st.integers(0, 2**31), st.integers(0, 50))
    def test_bulk_rule_equals_the_assign_loop(self, instance, seed, start):
        view = SimpleNamespace(tree=instance.tree, instance=instance)
        for name, make in self._policies(instance, seed, start).items():
            looped, bulk = make(), make()
            expected = [
                looped.assign(view, job.masked(), job.release)
                for job in instance.jobs
            ]
            got = bulk.assign_all(instance)
            assert got.tolist() == expected, name
            assert _policy_state(bulk) == _policy_state(looped), name

    def test_fixed_bulk_rule_names_the_first_missing_job(self):
        # The bulk rule marks every job the map lacks; the call then
        # raises for the first one, on either backend.
        tree = datacenter_tree(1, 2, 2)
        jobs = JobSet([Job(i, float(i), 1.0) for i in range(4)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        leaf = tree.leaves[0]
        policy = FixedAssignment({0: leaf, 3: leaf})
        assert policy.assign_all(instance).tolist() == [leaf, MISSING, MISSING, leaf]
        for backend in backends.available_backends():
            with pytest.raises(AssignmentError, match="recorded for job 1$"):
                backends.simulate(instance, policy, backend=backend)


@needs_c
class TestPolicyReuse:
    @pytest.mark.parametrize(
        "make", [lambda: RandomAssignment(5), RoundRobinAssignment],
        ids=["random", "round-robin"],
    )
    def test_one_policy_object_across_two_calls(self, make):
        # The second call continues from the state the first left, on
        # either backend.
        inst = _instance(datacenter_tree(2, 2, 3), 150, matrix="restricted")
        runs = {}
        for backend in ("python", "c"):
            policy = make()
            runs[backend] = [
                backends.simulate(inst, policy, backend=backend).records
                for _ in range(2)
            ]
        assert runs["python"] == runs["c"]
        assert runs["c"][0] != runs["c"][1]


def _error_cases():
    """``(instance, mapping)`` per assignment fault the engine rejects."""
    tree = kary_tree(2, 3)  # routers 1-6, leaves 7-14
    pod, other = tree.root_children
    identical = Instance(
        tree, JobSet([Job(i, float(i), 1.0) for i in range(3)]), Setting.IDENTICAL
    )
    leaf = tree.leaves[0]
    forbidden = {v: (math.inf if v == leaf else 1.0) for v in tree.leaves}
    unrelated = Instance(
        tree,
        JobSet([Job(i, float(i), 1.0, leaf_sizes=forbidden) for i in range(3)]),
        Setting.UNRELATED,
    )
    origins = Instance(
        tree,
        JobSet([Job(0, 0.0, 1.0), Job(1, 1.0, 1.0, origin=pod), Job(2, 2.0, 1.0)]),
        Setting.IDENTICAL,
    )
    outside = tree.leaves_under(other)[0]
    ok = tree.leaves[-1]
    return {
        "router": (identical, {0: ok, 1: pod, 2: ok}),
        "unknown-node": (identical, {0: ok, 1: 999, 2: ok}),
        "missing-job": (identical, {0: ok, 2: ok}),
        "forbidden-leaf": (unrelated, {0: ok, 1: leaf, 2: ok}),
        "outside-origin": (origins, {0: ok, 1: outside, 2: ok}),
    }


def _error_messages(instance, mapping):
    """The ``AssignmentError`` message of a fixed-map run, python then c."""
    messages = []
    for backend in ("python", "c"):
        with pytest.raises(AssignmentError) as info:
            backends.simulate(instance, FixedAssignment(mapping), backend=backend)
        messages.append(str(info.value))
    return messages


@needs_c
class TestAssignmentErrors:
    @pytest.mark.parametrize("case", sorted(_error_cases()))
    def test_same_error_on_both_backends(self, case):
        instance, mapping = _error_cases()[case]
        CEngine(instance, FixedAssignment(mapping))  # planned, not declined
        python, c = _error_messages(instance, mapping)
        assert python == c
        assert "job 1" in python

    def test_earliest_fault_wins_over_a_later_missing_job(self):
        # Job 0 goes to a router and job 1 has no entry: both backends
        # report job 0, the first offending job in release order.
        tree = kary_tree(2, 3)
        instance = Instance(
            tree, JobSet([Job(i, float(i), 1.0) for i in range(3)]), Setting.IDENTICAL
        )
        mapping = {0: tree.root_children[0], 2: tree.leaves[0]}
        python, c = _error_messages(instance, mapping)
        assert python == c == "policy assigned job 0 to non-leaf node 1"

    @pytest.mark.parametrize("odd", [None, "7", 7.5, 1 << 40])
    def test_odd_fixed_ids_fail_alike(self, odd):
        instance, mapping = _error_cases()["router"]
        python, c = _error_messages(instance, {**mapping, 1: odd})
        assert python == c

    def test_sparse_node_ids(self):
        # Leaf ids past the kernel plan's dense lookup table.
        scale = 1 << 20
        parents = datacenter_tree(1, 2, 2).parent_map()
        tree = tree_from_parent_map({
            v * scale: None if p is None else p * scale for v, p in parents.items()
        })
        jobs = JobSet([Job(i, i / 2, 1.0 + i % 3) for i in range(30)])
        inst = Instance(tree, jobs, Setting.IDENTICAL)
        for make in (ClosestLeafAssignment, lambda: RandomAssignment(3)):
            a, b = (backends.simulate(inst, make(), backend=bk) for bk in ("python", "c"))
            assert a.records == b.records
        leaf = tree.leaves[0]
        mapping = {i: leaf for i in range(30)} | {4: leaf + 1}
        with pytest.raises(AssignmentError, match=f"job 4 to non-leaf node {leaf + 1}$"):
            backends.simulate(inst, FixedAssignment(mapping), backend="c")
