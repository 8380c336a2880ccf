"""Experiment registry.

One module per experiment id of ``DESIGN.md`` §4; each registers its
trial grid (:func:`~repro.analysis.experiments.grid.register_grid`)
under its id.  The benchmarks in ``benchmarks/`` and the tables in
``EXPERIMENTS.md`` are generated from these.

>>> from repro.analysis.experiments import run_experiment
>>> res = run_experiment("F2")
>>> res.exp_id
'F2'
"""

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import (
    all_experiment_ids,
    get_experiment,
    run_experiment,
)

# Importing the modules registers them.
from repro.analysis.experiments import (  # noqa: F401  (registration side effects)
    b1,
    b2,
    d1,
    f1,
    f2,
    l1,
    l2,
    l3,
    l4,
    l8,
    m1,
    s1,
    t1,
    t2,
    t3,
    t4,
    t5,
    x1,
    x2,
    x3,
    x4,
    x5,
)

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "get_experiment",
    "all_experiment_ids",
]
