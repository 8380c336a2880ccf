"""Shared fixtures: small canonical trees, job sets, and instances."""

from __future__ import annotations

import sys

import pytest


def both_backends_fixture(module_name: str):
    """An autouse fixture running every test in a module on both engine
    backends.

    The engine-level suites (hand-computed schedules, invariants,
    metamorphic relations) call a module-global ``simulate``; binding
    ``_engine_backend = both_backends_fixture(__name__)`` in such a
    module parametrizes it over ``python`` / ``c`` by swapping that
    global for the compiled kernel's wrapper, so every schedule
    assertion doubles as a cross-backend equivalence check.  The ``c``
    parameter skips on machines without a working compiler (or with
    ``REPRO_NO_CKERNEL=1``).
    """

    @pytest.fixture(autouse=True, params=["python", "c"])
    def _engine_backend(request, monkeypatch):
        if request.param == "c":
            from repro.sim.backends import c_build
            from repro.sim.backends.c_backend import simulate_c

            ok, reason = c_build.availability()
            if not ok:
                pytest.skip(f"c backend unavailable: {reason}")
            monkeypatch.setattr(
                sys.modules[module_name], "simulate", simulate_c
            )
        return request.param

    return _engine_backend

from repro.network.builders import (
    broomstick_tree,
    figure1_tree,
    kary_tree,
    star_of_paths,
)
from repro.sim.engine import EngineSink
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


class StateProbe(EngineSink):
    """A sink calling ``check(view)`` on every post-event state of a
    run: before each event (the state after the previous one) and once
    more at the end."""

    def __init__(self, check) -> None:
        self.check = check

    def attach(self, engine) -> None:
        self.view = engine.view

    def before_advance(self, t: float) -> None:
        self.check(self.view)

    def finalize(self, now: float) -> None:
        self.check(self.view)


@pytest.fixture
def two_path_tree():
    """Two disjoint router->leaf paths below the root (5 nodes).

    ids: 0=root, 1=router, 2=leaf, 3=router, 4=leaf.
    """
    return star_of_paths(2, 1)


@pytest.fixture
def deep_tree():
    """Three paths of 3 routers + leaf each."""
    return star_of_paths(3, 3)


@pytest.fixture
def binary_tree():
    return kary_tree(2, 3)


@pytest.fixture
def fig1():
    return figure1_tree()


@pytest.fixture
def small_broomstick():
    return broomstick_tree(2, 3, 1)


@pytest.fixture
def unit_jobs():
    """Five unit jobs with spaced releases."""
    return JobSet([Job(id=i, release=2.0 * i, size=1.0) for i in range(5)])


@pytest.fixture
def identical_instance_small(two_path_tree, unit_jobs):
    return Instance(two_path_tree, unit_jobs, Setting.IDENTICAL)


@pytest.fixture
def unrelated_instance_small(two_path_tree):
    jobs = JobSet(
        [
            Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 1.0, 4: 3.0}),
            Job(id=1, release=0.5, size=2.0, leaf_sizes={2: 4.0, 4: 2.0}),
            Job(id=2, release=1.0, size=1.0, leaf_sizes={2: 1.0, 4: 1.0}),
        ]
    )
    return Instance(two_path_tree, jobs, Setting.UNRELATED)
