"""Single source of truth for the simulator's float tolerances.

Before this module existed the engine, the event log, and the Gantt
renderer each hard-coded their own epsilons (``-1e-9``, ``1e-12``,
``1e-7``...) with no shared rationale.  The audit that consolidated them
classified every comparison by the *scale* of the quantity involved:

* **Clock comparisons** (is time monotone?) are absolute in simulated
  time.  Event times are sums/quotients of job sizes, so an absolute
  ``1e-9`` slack is many orders of magnitude above double rounding for
  any realistic horizon; :data:`CLOCK_EPS` keeps the historical value.
* **"Is this job finished?"** compares remaining work against zero.
  Remaining work is computed as ``rem_start - speed * elapsed``; its
  rounding error scales with the job's processing time on the node, so
  a purely absolute ``1e-12`` threshold (the old value) silently missed
  finished jobs whose sizes were large.  :func:`finished_tol` blends an
  absolute floor with a relative term in the processing time.
* **Invariant bands** (is remaining within ``[0, p]``?) must be at
  least as permissive as :func:`finished_tol`, otherwise a job the
  engine has already declared finished (``remaining <= finished_tol``)
  could still fail the lower band — the mixed-tolerance bug this module
  fixes.  The relative upper band keeps the historical ``1e-9``.
* **Completion-event guards** check that a predicted completion left no
  work behind.  The prediction ``now + remaining / speed`` loses about
  one ulp of the *clock*, which corresponds to ``speed * now * 2^-52``
  of *work*; :func:`completion_guard_tol` scales with both the job and
  the clock.
"""

from __future__ import annotations

__all__ = [
    "CLOCK_EPS",
    "REL_EPS",
    "REMAINING_ATOL",
    "REMAINING_RTOL",
    "DRIFT_RTOL",
    "SCHEDULE_TOL",
    "ULP",
    "finished_tol",
    "completion_guard_tol",
]

#: One double-precision ulp at unit scale (``2**-52``).
ULP = 2.220446049250313e-16

#: Absolute slack for simulated-clock monotonicity checks.
CLOCK_EPS = 1e-9

#: Relative slack for quantities compared at the scale of a processing
#: time (the invariant upper band ``rem <= p * (1 + REL_EPS)``).
REL_EPS = 1e-9

#: Absolute floor below which remaining work counts as zero.
REMAINING_ATOL = 1e-12

#: Relative component of the finished test: residuals from
#: ``rem_start - speed * elapsed`` grow with the job's size on the node.
REMAINING_RTOL = 1e-12

#: Relative slack for the congestion-aggregate cross-check
#: (the volume oracle behind ``check_invariants``).
DRIFT_RTOL = 1e-6

#: Default tolerance for post-hoc schedule validation
#: (:func:`repro.sim.invariants.validate_schedule`).  Segment endpoints
#: are recorded event times, so their error is clock-scale, but work
#: conservation sums many ``duration * speed`` products; ``1e-6`` (the
#: historical value, now sourced here instead of a hard-coded literal)
#: leaves headroom for that accumulation while staying far below any
#: real scheduling discrepancy.
SCHEDULE_TOL = 1e-6


def finished_tol(processing_time: float) -> float:
    """Remaining-work threshold under which a job counts as finished.

    ``processing_time`` is the job's (original) processing requirement
    on the node in question — the natural scale of the residual left by
    settle arithmetic.
    """
    return max(REMAINING_ATOL, REMAINING_RTOL * processing_time)


def completion_guard_tol(rem_start: float, speed: float, now: float) -> float:
    """Largest residual a legitimate completion event may leave behind.

    Blends a relative term in the work the event was scheduled for with
    a clock-resolution term: one ulp of event-time error at time ``now``
    leaves ``speed * now * 2**-52`` work unprocessed.
    """
    return max(
        1e-7 * max(1.0, rem_start),
        256.0 * speed * max(abs(now), 1.0) * ULP,
    )
