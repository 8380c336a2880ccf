"""Inputs a process builds once and shares.

The standard trees are built once; each experiment instance once per
distinct call; and what is derived from a tree alone — the
broomstick reduction, the kernel's topology plans and their prebuilt
argument tables — is kept on the tree.  Sharing must change no result:
a c call on a shared plan equals python, a memo hit equals a cold
build, and a sharded registry run equals a serial one that rebuilds
every input for every trial.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.analysis.experiments import grid as grid_mod
from repro.analysis.experiments import run_experiment, workloads
from repro.analysis.experiments.workloads import (
    burst_instance,
    identical_instance,
    standard_trees,
    unrelated_instance,
)
from repro.analysis.runner import run_experiments
from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
)
from repro.core.assignment import GreedyIdenticalAssignment, GreedyUnrelatedAssignment
from repro.core.general_tree import GeneralTreeScheduler
from repro.exceptions import AnalysisError
from repro.network.broomstick import reduce_to_broomstick
from repro.network.builders import datacenter_tree, kary_tree
from repro.sim import backends
from repro.sim.backends import c_build
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Setting

_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(not _C_OK, reason=f"c backend unavailable: {_C_REASON}")

_INSTANCE_FUNCTIONS = [
    (identical_instance, dict(n=30, load=0.9, size_kind="pareto", seed=3, name="t")),
    (unrelated_instance, dict(n=25, matrix="partition", seed=4)),
    (burst_instance, dict(num_bursts=2, jobs_per_burst=5, seed=2)),
]


def _clear_input_memos() -> None:
    workloads._standard_trees.cache_clear()
    for make, _ in _INSTANCE_FUNCTIONS:
        make.cache_clear()


class TestStandardTrees:
    def test_same_trees_in_a_new_dict(self):
        first, second = standard_trees(), standard_trees()
        assert first is not second
        assert list(first) == list(second)
        assert all(first[name] is second[name] for name in first)
        first.clear()
        assert len(standard_trees()) == 5


class TestInstanceMemos:
    @pytest.mark.parametrize(("make", "kwargs"), _INSTANCE_FUNCTIONS)
    def test_hit_is_shared_and_equals_a_cold_build(self, make, kwargs):
        tree = standard_trees()["kary(2,3)"]
        warm = make(tree, **kwargs)
        assert make(tree, **kwargs) is warm
        cold = make.__wrapped__(tree, **kwargs)
        assert cold is not warm
        # JobSet compares by identity, so compare what the instance holds.
        assert cold.tree is warm.tree
        assert (cold.setting, cold.name) == (warm.setting, warm.name)
        assert tuple(cold.jobs) == tuple(warm.jobs)
        assert repr(cold) == repr(warm)

    def test_invalid_arguments_raise_on_every_call(self):
        tree = kary_tree(2, 3)
        for _ in range(2):
            with pytest.raises(AnalysisError, match="size kind"):
                identical_instance(tree, 10, size_kind="zipf")
            with pytest.raises(AnalysisError, match="matrix kind"):
                unrelated_instance(tree, 10, matrix="dense")

    def test_trees_are_keyed_by_identity(self):
        # Two equal-shaped trees are two keys: a memo never hands out an
        # instance on another tree object.
        a, b = kary_tree(2, 3), kary_tree(2, 3)
        inst_a = identical_instance(a, 10, seed=1)
        inst_b = identical_instance(b, 10, seed=1)
        assert inst_a is not inst_b
        assert inst_a.tree is a and inst_b.tree is b


class TestBroomstickOncePerTree:
    def test_one_reduction_and_one_translation(self):
        tree = standard_trees()["datacenter(2,2,3)"]
        reduction = reduce_to_broomstick(tree)
        assert reduce_to_broomstick(tree) is reduction
        shadowed = GeneralTreeScheduler(identical_instance(tree, 12, seed=1), 0.25)
        assert shadowed.reduction is reduction
        inst = unrelated_instance(tree, 12, seed=1)
        moved = inst.on_broomstick(reduction)
        assert inst.on_broomstick(reduction) is moved
        assert moved.tree is reduction.broomstick


@needs_c
class TestPlanPerTree:
    def test_instances_on_one_tree_share_a_plan(self):
        from repro.sim.backends.c_backend import CEngine

        tree = kary_tree(2, 3)
        policy = GreedyIdenticalAssignment(0.25)
        a = CEngine(identical_instance(tree, 20, seed=1), policy, SpeedProfile.uniform(1.5))
        b = CEngine(identical_instance(tree, 30, seed=2), policy, SpeedProfile.uniform(1.5))
        assert a._plan is b._plan
        # The endpoint setting is part of the key: unrelated leaves rank
        # by their own sizes.
        u = CEngine(
            unrelated_instance(tree, 20, seed=1), GreedyUnrelatedAssignment(0.25),
            SpeedProfile.uniform(1.5),
        )
        assert u._plan is not a._plan
        assert u._plan.enc.tolist() != a._plan.enc.tolist()
        # So is the speed profile.
        c = CEngine(identical_instance(tree, 20, seed=1), policy, SpeedProfile.uniform(2.0))
        assert c._plan is not a._plan
        # The plan lives on the tree only.
        assert not any(
            isinstance(key, tuple) and key[0] == "c_plan"
            for key in vars(a.instance).get("_kept", {})
        )

    @pytest.mark.parametrize(
        "setting", [Setting.IDENTICAL, Setting.UNRELATED], ids=["identical", "unrelated"]
    )
    def test_calls_sharing_a_plan_do_not_touch_its_tables(self, setting):
        tree = datacenter_tree(2, 2, 3)
        speeds = SpeedProfile.uniform(1.5)
        if setting is Setting.IDENTICAL:
            instances = [identical_instance(tree, 40, seed=s) for s in (5, 6)]
            greedy = GreedyIdenticalAssignment
        else:
            instances = [unrelated_instance(tree, 40, seed=s) for s in (5, 6)]
            greedy = GreedyUnrelatedAssignment
        policies = (
            lambda: greedy(0.25),
            LeastLoadedAssignment,
            lambda: RandomAssignment(3),
            ClosestLeafAssignment,
        )
        from repro.sim.backends.c_backend import topology_plan

        plan = topology_plan(instances[0], speeds, 1)
        assert topology_plan(instances[1], speeds, 1) is plan
        for _ in range(2):
            for inst in instances:
                for make in policies:
                    c = backends.simulate(inst, make(), backend="c", speeds=speeds)
                    p = backends.simulate(inst, make(), backend="python", speeds=speeds)
                    assert c.records == p.records
                    assert c.fractional_flow == p.fractional_flow
                    assert c.alive_integral == p.alive_integral
        kinds = (0, 2, 1 if setting is Setting.IDENTICAL else 3)
        before = {kind: bytes(plan.template(kind)) for kind in kinds}
        for inst in instances:
            for make in policies:
                backends.simulate(inst, make(), backend="c", speeds=speeds)
        assert {kind: bytes(plan.template(kind)) for kind in kinds} == before


class TestArgumentTables:
    """The argument tables carry raw addresses, so the Python mirror
    declares each array field's element type, and every address set
    into a table is checked against it."""

    _C_TYPES = {"int64_t": "i8", "int32_t": "i4", "uint8_t": "u1", "double": "f8"}

    def _c_struct(self, name: str) -> list[tuple[str, str, bool]]:
        source = c_build.source_path().read_text()
        end = source.index("} " + name + ";")
        body = source[source.rindex("typedef struct {", 0, end):end]
        return [
            (field, self._C_TYPES[ctype], bool(star))
            for ctype, star, field in re.findall(
                r"^\s*(?:const )?(int64_t|int32_t|uint8_t|double)\s*(\*?)\s*(\w+);",
                body, re.M,
            )
        ]

    @pytest.mark.parametrize("name", ["KernelArgs", "StepArgs"])
    def test_mirrors_the_c_struct(self, name):
        from repro.sim.backends import c_backend

        table = getattr(c_backend, "_" + name)
        mirror = []
        for field, ctype in table._fields_:
            if field in table._arrays:
                mirror.append((field, table._arrays[field].str[1:], True))
            else:
                mirror.append((field, np.dtype(ctype).str[1:], False))
        assert mirror == self._c_struct(name)

    def test_refuses_a_wrong_or_strided_column(self):
        from repro.sim.backends.c_backend import _KernelArgs

        args = _KernelArgs()
        with pytest.raises(TypeError, match="job_id"):
            args.put("job_id", np.zeros(3, dtype=np.int32))
        with pytest.raises(TypeError, match="rel"):
            args.put("rel", np.zeros(3, dtype=np.float32))
        with pytest.raises(TypeError, match="C-contiguous"):
            args.put("rel", np.zeros(6)[::2])
        column = np.zeros(3)
        args.put("rel", column)
        assert args.rel == column.ctypes.data
        args.put("rel", None)
        assert args.rel is None


@pytest.mark.parametrize("backend", ["python", "c"])
def test_sharded_registry_equals_cold_serial(backend, monkeypatch):
    """Per-worker memos change no byte: a sharded run of the registry
    subset renders what a serial run renders when every input memo is
    cleared before each trial."""
    if backend == "c":
        if not _C_OK:
            pytest.skip(f"c backend unavailable: {_C_REASON}")
        monkeypatch.setenv(backends.ENV_VAR, "c")
    else:
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
    params = {
        "T1": {"n": 25, "speeds": (1.0, 1.5)},
        "T2": {"n": 20, "speeds": (1.0, 3.0)},
        "X4": {"n": 25},
        "X5": {"n": 35},
    }
    ids = list(params)
    sharded = run_experiments(ids, params_by_id=params, use_cache=False, parallel=2)
    execute = grid_mod.execute_trial

    def cold_trial(grid, spec):
        _clear_input_memos()
        return execute(grid, spec)

    monkeypatch.setattr(grid_mod, "execute_trial", cold_trial)
    try:
        for exp_id, outcome in zip(ids, sharded):
            assert run_experiment(exp_id, **params[exp_id]).render() == (
                outcome.result.render()
            ), exp_id
    finally:
        _clear_input_memos()
