"""Unit tests for Job and JobSet."""

from __future__ import annotations

import pickle

import math

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workload.job import Job, JobSet


class TestJobValidation:
    def test_valid_identical_job(self):
        j = Job(id=0, release=1.5, size=2.0)
        assert not j.is_unrelated
        assert j.processing_on_leaf(99) == 2.0

    def test_negative_id_rejected(self):
        with pytest.raises(WorkloadError, match="id"):
            Job(id=-1, release=0.0, size=1.0)

    def test_negative_release_rejected(self):
        with pytest.raises(WorkloadError, match="release"):
            Job(id=0, release=-0.1, size=1.0)

    def test_nan_release_rejected(self):
        with pytest.raises(WorkloadError, match="release"):
            Job(id=0, release=float("nan"), size=1.0)

    def test_zero_size_rejected(self):
        with pytest.raises(WorkloadError, match="size"):
            Job(id=0, release=0.0, size=0.0)

    def test_infinite_size_rejected(self):
        with pytest.raises(WorkloadError, match="size"):
            Job(id=0, release=0.0, size=math.inf)

    def test_empty_leaf_sizes_rejected(self):
        with pytest.raises(WorkloadError, match="empty"):
            Job(id=0, release=0.0, size=1.0, leaf_sizes={})

    def test_all_infinite_leaves_rejected(self):
        with pytest.raises(WorkloadError, match="no leaf"):
            Job(id=0, release=0.0, size=1.0, leaf_sizes={3: math.inf})

    def test_inf_allowed_for_some_leaves(self):
        j = Job(id=0, release=0.0, size=1.0, leaf_sizes={3: math.inf, 4: 2.0})
        assert j.is_unrelated
        assert j.processing_on_leaf(3) == math.inf
        assert j.processing_on_leaf(4) == 2.0

    def test_nonpositive_leaf_size_rejected(self):
        with pytest.raises(WorkloadError, match="leaf"):
            Job(id=0, release=0.0, size=1.0, leaf_sizes={3: 0.0})

    def test_missing_leaf_lookup_rejected(self):
        j = Job(id=0, release=0.0, size=1.0, leaf_sizes={3: 1.0})
        with pytest.raises(WorkloadError, match="missing"):
            j.processing_on_leaf(7)

    def test_with_leaf_sizes_copies(self):
        j = Job(id=0, release=0.0, size=1.0)
        j2 = j.with_leaf_sizes({5: 2.0})
        assert j2.is_unrelated and not j.is_unrelated
        assert j2.id == j.id and j2.release == j.release


class TestJobSet:
    def test_sorted_by_release_then_id(self):
        jobs = JobSet(
            [
                Job(id=2, release=1.0, size=1.0),
                Job(id=0, release=2.0, size=1.0),
                Job(id=1, release=1.0, size=1.0),
            ]
        )
        assert [j.id for j in jobs] == [1, 2, 0]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            JobSet([Job(id=0, release=0.0, size=1.0), Job(id=0, release=1.0, size=1.0)])

    def test_by_id(self):
        js = JobSet([Job(id=5, release=0.0, size=3.0)])
        assert js.by_id(5).size == 3.0
        with pytest.raises(WorkloadError, match="unknown"):
            js.by_id(0)
        assert 5 in js and 0 not in js

    def test_array_views(self):
        js = JobSet([Job(id=i, release=float(i), size=2.0) for i in range(4)])
        assert np.allclose(js.releases(), [0, 1, 2, 3])
        assert np.allclose(js.sizes(), [2, 2, 2, 2])
        assert js.total_volume() == 8.0
        assert js.time_horizon() == 3.0

    def test_columns_are_kept_read_only_and_not_pickled(self):
        js = JobSet([
            Job(id=7, release=1.0, size=2.0, origin=3, size_estimate=0.5),
            Job(id=2, release=0.0, size=4.0),
        ])
        blank = pickle.dumps(js)
        assert js.job_ids().tolist() == [2, 7]
        assert js.releases().tolist() == [0.0, 1.0]
        assert js.sizes().tolist() == [4.0, 2.0]
        assert js.policy_sizes().tolist() == [4.0, 0.5]
        assert js.origins().tolist() == [-1, 3]
        assert js.sizes() is js.sizes()  # built once
        with pytest.raises(ValueError, match="read-only"):
            js.releases()[0] = 9.0
        # The kept columns stay out of the pickle: an unpickled set
        # builds its own, read-only again.
        assert pickle.dumps(js) == blank
        clone = pickle.loads(blank)
        assert clone.sizes().tolist() == [4.0, 2.0]
        assert not clone.sizes().flags.writeable

    def test_empty_set(self):
        js = JobSet([])
        assert len(js) == 0
        assert js.time_horizon() == 0.0
        assert js.releases().shape == (0,)

    def test_indexing_and_ids(self):
        js = JobSet([Job(id=i, release=float(i), size=1.0) for i in range(3)])
        assert js[1].id == 1
        assert js.ids == (0, 1, 2)

    def test_is_unrelated_flag(self):
        a = JobSet([Job(id=0, release=0.0, size=1.0)])
        b = JobSet([Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 1.0})])
        assert not a.is_unrelated
        assert b.is_unrelated


class TestJobSetBuild:
    def test_build_identical(self):
        js = JobSet.build([0.0, 1.0], [2.0, 3.0])
        assert len(js) == 2
        assert js.by_id(1).size == 3.0

    def test_build_unrelated(self):
        js = JobSet.build([0.0], [2.0], [{4: 1.0}])
        assert js.by_id(0).leaf_sizes == {4: 1.0}

    def test_build_length_mismatch(self):
        with pytest.raises(WorkloadError, match="differ in length"):
            JobSet.build([0.0, 1.0], [2.0])
        with pytest.raises(WorkloadError, match="differ in length"):
            JobSet.build([0.0], [2.0], [])
