"""Unit tests for Instance: validation, notation, transformations."""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from repro.baselines.policies import ClosestLeafAssignment
from repro.exceptions import WorkloadError
from repro.network.broomstick import reduce_to_broomstick
from repro.network.builders import kary_tree, star_of_paths
from repro.sim import backends
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


class TestValidation:
    def test_identical_rejects_unrelated_jobs(self, two_path_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 1.0, 4: 1.0})])
        with pytest.raises(WorkloadError, match="IDENTICAL"):
            Instance(two_path_tree, jobs, Setting.IDENTICAL)

    def test_unrelated_rejects_identical_jobs(self, two_path_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0)])
        with pytest.raises(WorkloadError, match="lacks leaf_sizes"):
            Instance(two_path_tree, jobs, Setting.UNRELATED)

    def test_unrelated_requires_full_leaf_coverage(self, two_path_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 1.0})])
        with pytest.raises(WorkloadError, match="missing leaves"):
            Instance(two_path_tree, jobs, Setting.UNRELATED)

    def test_unrelated_requires_a_feasible_leaf(self, two_path_tree):
        # leaf_sizes may carry inf for tree leaves plus a finite entry for
        # a node that is NOT a leaf of this tree -> no feasible leaf here.
        jobs = JobSet(
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: math.inf, 4: math.inf, 9: 1.0})]
        )
        with pytest.raises(WorkloadError, match="no feasible leaf"):
            Instance(two_path_tree, jobs, Setting.UNRELATED)


class TestNotation:
    def test_processing_time_identical(self, identical_instance_small):
        inst = identical_instance_small
        job = inst.jobs.by_id(0)
        for v in (1, 2, 3, 4):
            assert inst.processing_time(job, v) == job.size

    def test_processing_time_unrelated(self, unrelated_instance_small):
        inst = unrelated_instance_small
        job = inst.jobs.by_id(0)
        assert inst.processing_time(job, 1) == 1.0  # router: p_j
        assert inst.processing_time(job, 2) == 1.0
        assert inst.processing_time(job, 4) == 3.0

    def test_path_volume(self, unrelated_instance_small):
        inst = unrelated_instance_small
        job = inst.jobs.by_id(1)  # size 2, leaves {2:4, 4:2}
        assert inst.path_volume(job, 2) == 2.0 + 4.0
        assert inst.path_volume(job, 4) == 2.0 + 2.0

    def test_eta_router_vs_leaf(self, identical_instance_small):
        inst = identical_instance_small
        job = inst.jobs.by_id(0)
        assert inst.eta(job, 1) == 1.0  # d=1 router
        assert inst.eta(job, 2) == 2.0  # router + leaf

    def test_min_path_volume(self, unrelated_instance_small):
        inst = unrelated_instance_small
        assert inst.min_path_volume(inst.jobs.by_id(1)) == 4.0

    def test_feasible_leaves_skips_inf(self, two_path_tree):
        jobs = JobSet(
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: math.inf, 4: 1.0})]
        )
        inst = Instance(two_path_tree, jobs, Setting.UNRELATED)
        assert inst.feasible_leaves(jobs.by_id(0)) == (4,)


class TestKeptMatrices:
    def _instance(self, two_path_tree):
        jobs = JobSet([
            Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 3.0, 4: math.inf}),
            Job(id=1, release=1.0, size=2.0, leaf_sizes={2: 1.0, 4: 3.0}),
        ])
        return Instance(two_path_tree, jobs, Setting.UNRELATED)

    def test_leaf_size_matrix_and_ranks(self, two_path_tree):
        inst = self._instance(two_path_tree)
        assert inst.tree.leaves == (2, 4)
        assert inst.leaf_size_matrix().tolist() == [[3.0, math.inf], [1.0, 3.0]]
        assert inst.leaf_size_ranks().tolist() == [[1, 2], [0, 1]]
        assert inst.feasible_mask().tolist() == [[True, False], [True, True]]
        assert inst.leaf_size_matrix() is inst.leaf_size_matrix()
        with pytest.raises(ValueError, match="read-only"):
            inst.leaf_size_ranks()[0, 0] = 5

    def test_feasible_mask_matches_feasible_leaves(self):
        tree = kary_tree(2, 2)  # routers 1-2, leaves 3-6
        jobs = JobSet([
            Job(id=0, release=0.0, size=1.0),
            Job(id=1, release=0.0, size=1.0, origin=2),
            Job(id=2, release=0.0, size=1.0, origin=0),
        ])
        inst = Instance(tree, jobs, Setting.IDENTICAL)
        mask = inst.feasible_mask()
        for job, row in zip(inst.jobs, mask):
            kept = tuple(v for v, ok in zip(tree.leaves, row) if ok)
            assert kept == inst.feasible_leaves(job)
        root_only = Instance(tree, JobSet([Job(id=0, release=0.0, size=1.0)]), Setting.IDENTICAL)
        assert root_only.feasible_mask() is None

    def test_kept_matrices_are_outside_eq_repr_and_pickle(self, two_path_tree):
        inst = self._instance(two_path_tree)
        blank = pickle.dumps(inst)
        tree_blank = (pickle.dumps(inst.tree), repr(inst.tree))
        twin = dataclasses.replace(inst)
        inst.leaf_size_ranks()
        # What the tree keeps: the broomstick reduction and, after a c
        # call, the kernel's plan with its ctypes argument tables.
        inst.on_broomstick(reduce_to_broomstick(inst.tree))
        if backends.backend_available("c")[0]:
            backends.simulate(inst, ClosestLeafAssignment(), backend="c")
        assert (pickle.dumps(inst.tree), repr(inst.tree)) == tree_blank
        assert inst == twin and repr(inst) == repr(twin)
        assert pickle.dumps(inst) == blank
        clone = pickle.loads(blank)
        assert not clone.leaf_size_matrix().flags.writeable


class TestLoadAccounting:
    def test_empty_utilisation(self, two_path_tree):
        inst = Instance(two_path_tree, JobSet([]), Setting.IDENTICAL)
        u = inst.tier_utilisations()
        assert u == {"root_children": 0.0, "leaves": 0.0}

    def test_utilisation_positive(self, identical_instance_small):
        u = identical_instance_small.tier_utilisations()
        assert u["root_children"] > 0
        assert u["leaves"] > 0

    def test_poisson_rate_scales_with_width(self):
        narrow = star_of_paths(2, 1)
        wide = star_of_paths(8, 1)
        r_narrow = Instance.poisson_rate_for_load(narrow, 1.0, 0.9)
        r_wide = Instance.poisson_rate_for_load(wide, 1.0, 0.9)
        assert r_wide == pytest.approx(4 * r_narrow)

    def test_poisson_rate_validation(self, two_path_tree):
        with pytest.raises(WorkloadError):
            Instance.poisson_rate_for_load(two_path_tree, 0.0, 0.9)
        with pytest.raises(WorkloadError):
            Instance.poisson_rate_for_load(two_path_tree, 1.0, 0.0)


class TestTransformations:
    def test_on_broomstick_identical(self, binary_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0)])
        inst = Instance(binary_tree, jobs, Setting.IDENTICAL)
        red = reduce_to_broomstick(binary_tree)
        moved = inst.on_broomstick(red)
        assert moved.tree is red.broomstick
        assert moved.jobs is inst.jobs  # identical jobs carry over unchanged

    def test_on_broomstick_remaps_unrelated(self, two_path_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 5.0, 4: 7.0})])
        inst = Instance(two_path_tree, jobs, Setting.UNRELATED)
        red = reduce_to_broomstick(two_path_tree)
        moved = inst.on_broomstick(red)
        job = moved.jobs.by_id(0)
        assert job.leaf_sizes == {
            red.leaf_map[2]: 5.0,
            red.leaf_map[4]: 7.0,
        }

    def test_on_broomstick_rejects_foreign_reduction(self, two_path_tree, binary_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0)])
        inst = Instance(two_path_tree, jobs, Setting.IDENTICAL)
        red = reduce_to_broomstick(binary_tree)
        with pytest.raises(WorkloadError, match="different tree"):
            inst.on_broomstick(red)

    def test_rounded_identical(self, two_path_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.3)])
        inst = Instance(two_path_tree, jobs, Setting.IDENTICAL)
        r = inst.rounded(1.0)
        assert r.jobs.by_id(0).size == 2.0

    def test_rounded_preserves_inf(self, two_path_tree):
        jobs = JobSet(
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: math.inf, 4: 1.3})]
        )
        inst = Instance(two_path_tree, jobs, Setting.UNRELATED)
        r = inst.rounded(1.0)
        assert r.jobs.by_id(0).leaf_sizes[2] == math.inf
        assert r.jobs.by_id(0).leaf_sizes[4] == 2.0

    def test_repr(self, identical_instance_small):
        assert "identical" in repr(identical_instance_small)
