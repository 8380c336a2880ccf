"""Engine backend registry and dispatch.

The selectable engine backends:

* ``"python"`` — the reference :class:`~repro.sim.engine.Engine`: one
  global event heap, the per-event ``sink=`` hooks and counters, bounded
  horizons, streaming with per-event traces, invariant audits or
  dynamic events.  Always available; always correct.
* ``"c"`` — the compiled kernel (:mod:`repro.sim.backends.c_backend`):
  the same Section-2 semantics, dynamic events included, replayed with
  lazily-synced per-node sweeps, built on demand from shipped source by
  :mod:`repro.sim.backends.c_build` and driven via ctypes; its records
  are bit-identical to the python engine's.  Optional: with no working
  compiler (or ``REPRO_NO_CKERNEL=1``) the backend is *unavailable* —
  requesting it explicitly raises, selecting it through the
  environment falls back to ``"python"`` with a warning.  Every
  built-in policy runs on the kernel, on identical and unrelated
  endpoints alike.  A call the kernel cannot plan (generic priorities,
  custom policies, greedy or least-loaded with non-root job origins,
  segment recording) or one asking for an option defined by the
  global event order (a ``sink``, ``until``, engine counters) runs on
  the python engine — the schedule is the same either way, only the
  execution strategy differs.  Open-system sessions
  (:func:`repro.api.open_system`) run on a kernel session that keeps
  its state across window steps whenever the kernel plans the policy,
  priority and setting; one asking for per-event traces, invariant
  checks, dynamic events or ``evict=False`` warns and runs python.

Selection: one resolver, :func:`select_backend`, shared by
:func:`simulate`, :func:`repro.api.simulate`,
:func:`repro.api.open_system` and the CLI — the ``backend=`` keyword
wins, else the :data:`ENV_VAR` environment variable ``REPRO_BACKEND``,
else ``"python"``; unavailable backends raise when named explicitly and
warn-and-fall-back when selected through the environment.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.sim import engine as _engine
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine, CKernelInapplicable
from repro.sim.counters import global_counters
from repro.sim.engine import (
    AssignmentPolicy,
    EngineSink,
    PriorityFn,
    sjf_priority,
)
from repro.sim.result import SimulationResult
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "BackendChoice",
    "available_backends",
    "backend_available",
    "select_backend",
    "simulate",
    "CEngine",
]

#: The selectable engine backends.
BACKENDS = ("python", "c")

#: Environment variable holding the default backend name.
ENV_VAR = "REPRO_BACKEND"


@dataclass(frozen=True, slots=True)
class BackendChoice:
    """The outcome of one backend selection (see :func:`select_backend`).

    Attributes
    ----------
    requested:
        The ``backend=`` keyword as passed (``None`` when the caller
        left selection to the environment/default).
    source:
        Where the name came from: ``"kwarg"``, ``"env"`` or
        ``"default"`` — the documented precedence order.
    effective:
        The backend that will actually run.
    fallback_reason:
        Why ``effective`` differs from the selected name (``None`` when
        the selection was honoured).
    """

    requested: str | None
    source: str
    effective: str
    fallback_reason: str | None = None


def select_backend(backend: str | None = None) -> BackendChoice:
    """THE backend resolver — one precedence rule for every entry point.

    ``simulate()``, ``open_system()`` and the CLI all resolve through
    here: the explicit ``backend=`` keyword wins, else the
    ``REPRO_BACKEND`` environment variable, else ``"python"``.

    Availability policy: a backend named *explicitly* (kwarg) that is
    unavailable raises :class:`~repro.exceptions.SimulationError`; one
    selected through the environment falls back to ``"python"`` with a
    :class:`RuntimeWarning` naming the reason — an exported variable
    must not break every simulation on a compiler-less machine.  The
    returned :class:`BackendChoice` records what happened.
    """
    if backend is not None:
        source, name = "kwarg", backend
    else:
        env = os.environ.get(ENV_VAR)
        if env:
            source, name = "env", env
        else:
            source, name = "default", "python"
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    ok, reason = backend_available(name)
    if ok:
        return BackendChoice(backend, source, name)
    if source == "kwarg":
        raise SimulationError(
            f"backend {name!r} is unavailable on this machine: {reason}"
        )
    warnings.warn(
        f"{ENV_VAR}={name} but that backend is unavailable ({reason}); "
        "falling back to the python engine",
        RuntimeWarning,
        stacklevel=3,
    )
    return BackendChoice(backend, source, "python", reason)


def backend_available(backend: str) -> tuple[bool, str | None]:
    """``(available, reason-if-not)`` for a backend name.

    ``python`` is always available; ``c`` requires a working C
    compiler (probed — and the kernel built — on first ask).
    """
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "c":
        return c_build.availability()
    return True, None


def available_backends() -> tuple[str, ...]:
    """The subset of :data:`BACKENDS` usable on this machine."""
    return tuple(b for b in BACKENDS if backend_available(b)[0])


def _needs_event_order(
    sink: EngineSink | None,
    until: float | None,
    collect_counters: bool | None,
) -> bool:
    """Whether the call asks for an option defined by the python
    engine's global event order (see module doc)."""
    if sink is not None or until is not None:
        return True
    return bool(
        collect_counters
        or (collect_counters is None and global_counters() is not None)
    )


def simulate(
    instance: Instance,
    policy: AssignmentPolicy,
    *,
    backend: str | None = None,
    speeds: SpeedProfile | None = None,
    priority: PriorityFn = sjf_priority,
    record_segments: bool = False,
    check_invariants: bool = False,
    sink: EngineSink | None = None,
    until: float | None = None,
    collect_counters: bool | None = None,
    events=None,
) -> SimulationResult:
    """Simulate on the selected backend.

    Accepts the full engine option surface; when ``backend="c"`` is
    combined with an option the kernel cannot honour (a ``sink``,
    ``until``, counters) or with a call it cannot plan, the call runs on
    the python engine instead — the schedule is the same either way.
    Both backends honour a dynamic-event schedule (``events=``)
    natively.

    Selection and the unavailable-backend policy (explicit request
    raises, environment selection warns and falls back) live in
    :func:`select_backend` — the single resolver shared with
    :func:`repro.api.open_system` and the CLI.
    """
    backend = select_backend(backend).effective
    if backend == "c" and not _needs_event_order(sink, until, collect_counters):
        try:
            engine = CEngine(
                instance,
                policy,
                speeds,
                priority=priority,
                record_segments=record_segments,
                check_invariants=check_invariants,
                events=events,
            )
        except CKernelInapplicable:
            pass
        else:
            return engine.run()
    return _engine.simulate(
        instance,
        policy,
        speeds=speeds,
        priority=priority,
        record_segments=record_segments,
        check_invariants=check_invariants,
        sink=sink,
        until=until,
        collect_counters=collect_counters,
        events=events,
    )
