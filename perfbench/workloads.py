"""The four workloads, run untraced (end-to-end metrics) or traced (per-layer).

Each workload repeats one *cycle* of work, in a closed loop, until the
run's seconds are used up; a cycle is only started when the mean cycle
so far still fits, and always runs whole, so every run measures the same
mix of calls.

* ``batch``    one sweep: the five policies on one identical and one
               unrelated instance, each through ``api.simulate`` with
               ``backend="python"`` and then ``backend="c"``.
* ``events``   the same on the identical instance of the events workload,
               with its dynamic-event deck and size estimates.
* ``stream``   one served session per backend: ``api.open_system`` under a
               ``MetricsServer``, stepped one window per event-loop turn
               and drained, while an open-loop scraper gets ``/metrics``.
* ``registry`` one pass of the registry subset per backend, each in a
               fresh process; the c pass sets ``REPRO_BACKEND=c``.

The traced run makes the same calls with spans around them, engine
counters on the python engine only, and a timing wrapper on each python
call's policy; while the program has a numpy backend it also times that,
which is where ``c`` lands when its planner declines a call.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import subprocess
import sys
import warnings
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from perfbench import inputs
from perfbench.inputs import EPS, POLICIES, SPEED
from perfbench.spans import span

BACKENDS = ("python", "c")
SETTINGS = ("identical", "unrelated", "events")
ENGINE_COUNTERS = {
    "engine.runs": "runs",
    "engine.events": "events_processed",
    "engine.arrival_s": "arrival_seconds",
    "engine.completion_s": "completion_seconds",
    "engine.heap_pushes": "heap_pushes",
    "engine.stale_skipped": "stale_events_skipped",
    "engine.aggregate_reads": "aggregate_reads",
    "engine.aggregate_updates": "aggregate_updates",
    "engine.dyn_events": "dyn_events",
    "engine.trace_records": "trace_records",
}
SCRAPE_METRICS = tuple(
    f"http.{b}_scrape_{q}_ms" for b in BACKENDS for q in ("p50", "p90")
)

#: Every per-layer metric, in glossary order, with its unit.
PER_LAYER: dict[str, str] = {
    "import.repro_s": "s",
    "workload.instance_s": "s",
    "workload.events_s": "s",
    "workload.arrivals_s": "s",
    "backends.select_ms": "ms",
    "c_build.load_kernel_ms": "ms",
    "c_build.cold_build_s": "s",
    **{name: ("s" if name.endswith("_s") else "count") for name in ENGINE_COUNTERS},
    "policy.assign_calls": "count",
    **{f"policy.assign_s.{p}": "s" for p in POLICIES},
    **{
        f"{b}.wall_s.{setting}.{p}": "s"
        for b in ("python", "numpy", "c")
        for setting in SETTINGS
        for p in POLICIES
    },
    "c.plan_s": "s",
    "c.run_s": "s",
    "c.fallback_share": "ratio",
    "result.verify_s": "s",
    "obs.trace_overhead": "ratio",
    "session.engine_s": "s",
    "session.fold_s": "s",
    "session.windows": "count",
    "http.render_ms": "ms",
    "http.fetch_idle_ms": "ms",
    "http.scrapes": "count",
    "loadgen.late_p90_ms": "ms",
    **{name: "ms" for name in SCRAPE_METRICS},
    "runner.trials": "count",
    "runner.trial_s": "s",
    "lp.memo_hits": "count",
    "lp.memo_misses": "count",
    "bench.trace_overhead": "ratio",
}


#: Iterations of the calibration loop, and its time at the reference host
#: speed the end-to-end timings are scaled to.
CAL_ITERATIONS = 25000
CAL_NOMINAL_S = 0.030


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds taken by a fixed pure-Python loop shaped like an event loop:
    heap pushes and pops of float tuples, dict updates and float sums.

    On a shared host the CPU's speed drifts, by a quarter or more over tens
    of seconds on a 2-vCPU virtual machine.  Timing this loop right before
    and right after a call, a registry experiment or a stretch of a
    session's steps measures the host's speed around it, and its time is
    scaled by that (see ``Run.scale``).  A shorter calibration is
    stretched to the full loop's length.
    """
    heap, tally, x = [], {}, 0.0
    t = perf_counter()
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 1009 + 0.5, i))
        tally[i & 63] = tally.get(i & 63, 0.0) + x
        x += 0.25
        if len(heap) > 64:
            heapq.heappop(heap)
    return (perf_counter() - t) * CAL_ITERATIONS / iterations


class Run:
    """What one run of one workload measured."""

    def __init__(self, workload: str, seed: int, seconds: float, spans, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spans = spans
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # (backend, unit) -> one (seconds, jobs, trials, scale) sample per
        # cycle, where a unit is one kind of call, a session or a registry
        # pass, and scale converts its host seconds to reference seconds.
        self.units = defaultdict(list)
        self._calibration = None
        self.wall = defaultdict(float)  # backend -> host seconds of its units
        # backend -> per cycle, the step latencies (s) for the median and
        # for the tail: the calls of a sweep, the windows of a session, the
        # trials of a registry pass.  The two lists differ only on stream.
        self.steps = defaultdict(list)
        self.scrapes = defaultdict(list)  # backend -> (due, sent, done) host times
        self.fallbacks: dict[str, str | None] = {}
        self.cycles = 0
        self.cycle_walls: list[float] = []
        self.rss_mb = 0.0
        self.layer = defaultdict(float)
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)  # per-layer samples reported as medians
        # The traced run's untraced base cycle, per backend: host seconds
        # and reference seconds.
        self.untraced_wall: dict[str, float] = {}
        self.untraced_reference: dict[str, float] = {}

    def calibration(self) -> float:
        """The host-speed calibration taken right before the next unit."""
        if self._calibration is None:
            self._calibration = calibrate()
        return self._calibration

    def scale(self, before: float, iterations: int = CAL_ITERATIONS) -> float:
        """Calibrate again after a unit; the factor from its host seconds to
        seconds at the reference speed, from the mean of both calibrations."""
        self._calibration = calibrate(iterations)
        return CAL_NOMINAL_S / ((before + self._calibration) / 2)

    def reference_seconds(self, backend: str | None = None) -> float:
        """The units' time so far (of one backend, or all), in reference seconds."""
        return sum(
            x[0] * x[3]
            for (b, _), samples in self.units.items()
            if backend in (None, b)
            for x in samples
        )

    def absorb(self, other: "Run", base: bool = False) -> None:
        """Add the operation counts of a side run (warm-up or untraced base);
        for the ``base`` cycle of a traced run, keep its times too."""
        if base:
            self.untraced_wall = dict(other.wall)
            self.untraced_reference = {b: other.reference_seconds(b) for b in BACKENDS}
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 20 - len(self.failures)]

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed one keeps its description."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def loop(self, cycle) -> None:
        """Run whole cycles in a closed loop until the seconds are used."""
        started = perf_counter()
        while True:
            t = perf_counter()
            cycle()
            self.cycle_walls.append(perf_counter() - t)
            self.cycles += 1
            mean = sum(self.cycle_walls) / len(self.cycle_walls)
            if perf_counter() - started + mean > self.seconds:
                return


# ---------------------------------------------------------------------------
# batch and events: closed-loop api.simulate sweeps
# ---------------------------------------------------------------------------
def make_policy(name: str, instance, seed: int):
    """The object ``api.simulate`` resolves the policy ``name`` to.

    Built from the public policy classes rather than through the facade's
    private resolver, so that the benchmark depends on public names only.
    """
    from repro.baselines.policies import (
        ClosestLeafAssignment,
        LeastLoadedAssignment,
        RandomAssignment,
        RoundRobinAssignment,
    )
    from repro.core.assignment import GreedyIdenticalAssignment, GreedyUnrelatedAssignment
    from repro.workload.instance import Setting

    if name == "greedy":
        if instance.setting is Setting.UNRELATED:
            return GreedyUnrelatedAssignment(EPS)
        return GreedyIdenticalAssignment(EPS)
    return {
        "closest": ClosestLeafAssignment,
        "random": lambda: RandomAssignment(inputs.random_policy_seed(seed)),
        "least-loaded": LeastLoadedAssignment,
        "round-robin": RoundRobinAssignment,
    }[name]()


def _timed_assign(policy, layer, name: str):
    """Wrap ``policy.assign`` on this object only; its type is unchanged."""
    inner = policy.assign

    def assign(view, job, now):
        t = perf_counter()
        try:
            return inner(view, job, now)
        finally:
            layer[f"policy.assign_s.{name}"] += perf_counter() - t
            layer["policy.assign_calls"] += 1

    policy.assign = assign
    return policy


def _same_schedule(a, b) -> bool:
    """The repo's ``==`` parity contract between the python engine and
    another backend: every job record (leaf, path, availability and
    completion times) and the total flow time are exactly equal."""
    return a.records == b.records and a.total_flow_time() == b.total_flow_time()


def _api_simulate(run: Run, instance, policy, backend: str, events, **extra):
    from repro import api

    return api.simulate(
        instance=instance, policy=policy, eps=EPS,
        seed=inputs.random_policy_seed(run.seed), speed=SPEED,
        backend=backend, events=events, **extra,
    )


def _simulate(run: Run, backend: str, setting: str, name: str, instance, events):
    """One timed ``api.simulate`` call; returns the result or ``None``."""
    before = run.calibration()
    t = perf_counter()
    try:
        res = _api_simulate(run, instance, name, backend, events)
    except Exception as exc:  # a failed call is a counted failure, not a crash
        run.op(False, f"{backend} {setting} {name}: {exc!r}")
        return None
    dt = perf_counter() - t
    scale = run.scale(before)
    run.wall[backend] += dt
    run.steps[backend][-1][0].append(dt * scale)
    run.units[(backend, f"{setting}/{name}")].append((dt, len(instance.jobs), 1, scale))
    return res


@contextmanager
def _timed(run: Run, metric: str, name: str, **attrs):
    """A span around a call into a layer, its time added to ``metric``."""
    t = perf_counter()
    try:
        with run.spans.span(name, **attrs):
            yield
    finally:
        run.layer[metric] += perf_counter() - t


def _simulate_traced(run: Run, backend: str, setting: str, name: str, instance, events):
    """The traced form of one call, split at the layers' public functions."""
    from repro.sim.backends.c_backend import CEngine, CKernelInapplicable
    from repro.sim.speed import SpeedProfile

    before = run.calibration()
    kernel = False
    t = perf_counter()
    try:
        with _timed(run, f"{backend}.wall_s.{setting}.{name}", "api.simulate",
                    backend=backend, setting=setting, policy=name):
            if backend == "python":
                policy = _timed_assign(make_policy(name, instance, run.seed), run.layer, name)
                res = _api_simulate(run, instance, policy, "python", events, counters=True)
                for metric, field in ENGINE_COUNTERS.items():
                    run.counters[metric] += getattr(res.counters, field)
            elif backend == "numpy":
                res = _api_simulate(run, instance, name, "numpy", events)
            else:
                try:
                    with _timed(run, "c.plan_s", "c.plan"):
                        engine = CEngine(
                            instance, make_policy(name, instance, run.seed),
                            SpeedProfile.uniform(SPEED), events=events,
                        )
                except CKernelInapplicable:
                    with span(run.spans, "c.fallback"):
                        res = _api_simulate(run, instance, name, "c", events)
                else:
                    kernel = True
                    with _timed(run, "c.run_s", "c.run"):
                        res = engine.run()
    except Exception as exc:
        run.op(False, f"{backend} {setting} {name}: {exc!r}")
        return None
    dt = perf_counter() - t
    if backend != "numpy":
        scale = run.scale(before)
        run.wall[backend] += dt
        run.units[(backend, f"{setting}/{name}")].append((dt, len(instance.jobs), 1, scale))
    if kernel:
        # ``CEngine.run()`` already verified the result inside ``c.run_s``;
        # this repeat, outside every ``*.wall_s``, times that share of it.
        with _timed(run, "result.verify_s", "result.verify"):
            res.verify_complete()
    return res


def traced_backends() -> tuple[str, ...]:
    """The backends a traced sweep calls: python and c, and numpy while
    the program still has it."""
    from repro.sim import backends

    return BACKENDS + (("numpy",) if "numpy" in backends.BACKENDS else ())


def c_plan_outcomes(run: Run, cases) -> None:
    """Record, outside any timing, whether the kernel plans each c call."""
    from repro.sim.backends.c_backend import CEngine, CKernelInapplicable
    from repro.sim.speed import SpeedProfile

    for setting, instance, events in cases:
        for name in POLICIES:
            try:
                CEngine(instance, make_policy(name, instance, run.seed),
                        SpeedProfile.uniform(SPEED), events=events)
            except CKernelInapplicable as exc:
                run.fallbacks[f"{setting}/{name}"] = str(exc)
            else:
                run.fallbacks[f"{setting}/{name}"] = None


def sweep(run: Run, cases, traced: bool) -> None:
    """One cycle of batch or events: every policy on every case, python
    first, then c (and numpy when traced), with the output checks."""
    for backend in BACKENDS:
        calls = []
        run.steps[backend].append((calls, calls))
    backends = traced_backends() if traced else BACKENDS
    for setting, instance, events in cases:
        n = len(instance.jobs)
        for name in POLICIES:
            results = {}
            for backend in backends:
                call = _simulate_traced if traced else _simulate
                results[backend] = call(run, backend, setting, name, instance, events)
            py = results["python"]
            for backend, res in results.items():
                if res is None:
                    continue
                ok = len(res.completed_records()) + len(res.cancelled_records()) == n
                if backend != "python":
                    ok = ok and py is not None and _same_schedule(py, res)
                run.op(ok, f"{backend} {setting} {name}: accounting or parity check failed")


def batch_cases(seed: int, n_jobs: int = inputs.BATCH_JOBS):
    return [
        (setting, inst, None)
        for setting, inst in inputs.batch_instances(seed, n_jobs).items()
    ]


def events_cases(seed: int, n_jobs: int = inputs.EVENTS_JOBS):
    instance = inputs.events_instance(seed, n_jobs)
    return [("events", instance, inputs.event_deck(instance, seed))]


#: Jobs per instance of the untimed warm-up sweep.
WARM_JOBS = 300


def run_sweeps(run: Run, cases, warm_cases) -> None:
    c_plan_outcomes(run, cases)
    warm = Run(run.workload, run.seed, 0.0, None, run.workdir)
    sweep(warm, warm_cases, traced=False)
    run.absorb(warm)
    if run.spans is None:
        run.loop(lambda: sweep(run, cases, traced=False))
        return
    # The traced run first times one untraced sweep, the base of the
    # tracing overhead; its samples are kept apart from the traced ones.
    base = Run(run.workload, run.seed, 0.0, None, run.workdir)
    sweep(base, cases, traced=False)
    run.absorb(base, base=True)
    run.loop(lambda: sweep(run, cases, traced=True))
    if run.workload == "batch":
        _trace_overhead(run, cases[0][1])


def _trace_overhead(run: Run, instance) -> None:
    """``api.trace_run`` over ``api.simulate`` on the python greedy call."""
    from repro import api

    with _timed(run, "obs.simulate_s", "obs.simulate"):
        api.simulate(instance=instance, policy="greedy", eps=EPS, speed=SPEED, backend="python")
    with _timed(run, "obs.trace_run_s", "obs.trace_run"):
        api.trace_run(instance=instance, policy="greedy", eps=EPS, speed=SPEED)
    run.layer["obs.trace_overhead"] = (
        run.layer.pop("obs.trace_run_s") / run.layer.pop("obs.simulate_s")
    )


# ---------------------------------------------------------------------------
# stream: a served open-system session with an open-loop scraper
# ---------------------------------------------------------------------------
def _timed_source(source, layer):
    """Yield from ``source``, adding the time spent inside it to the layer."""
    while True:
        t = perf_counter()
        try:
            job = next(source)
        except StopIteration:
            layer["workload.arrivals_s"] += perf_counter() - t
            return
        layer["workload.arrivals_s"] += perf_counter() - t
        yield job


async def _scraper(run: Run, backend: str, port: int, stop: asyncio.Event) -> None:
    """Open loop: ``GET /metrics`` due every 25 ms from a seeded phase, one
    connection at a time; a late request is sent as soon as it can be."""
    from repro.service.http import fetch

    period = inputs.SCRAPE_PERIOD_S
    first = perf_counter() + inputs.scrape_phase(run.seed)
    k = 0
    while True:
        due = first + k * period
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if stop.is_set():
            return
        sent = perf_counter()
        try:
            status, body = await fetch("127.0.0.1", port, "/metrics")
            ok = status == 200 and "repro_stream_arrivals_total" in body
        except (OSError, EOFError, ValueError, IndexError) as exc:
            ok, status = False, repr(exc)
        run.scrapes[backend].append((due, sent, perf_counter()))
        run.op(ok, f"scrape {backend}: status {status}")
        k += 1


#: A session is calibrated every this many steps (about 0.35 s) with a
#: short calibration (about 6 ms): two calibrations around a whole 3 s
#: session did not tell the host's speed over it.
SEGMENT_STEPS = 500
SEGMENT_CAL_ITERATIONS = 5000


async def _serve(run: Run, tree, backend: str, traced: bool,
                 limit: int = inputs.STREAM_JOBS, record: bool = True):
    """Serve one session to idle and return its final snapshot."""
    from repro import api
    from repro.service.http import MetricsServer, fetch, render_metrics
    from repro.sim import counters as engine_counters

    layer = run.layer
    source = inputs.arrival_source(tree, run.seed, limit)
    if traced:
        source = _timed_source(source, layer)
        engine_counters.enable_global_counters()
    before = run.calibration()
    started = perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        session = api.open_system(
            tree=tree, arrivals=source, policy="greedy", eps=EPS, speed=SPEED,
            backend=backend, window=inputs.WINDOW,
        )
    if backend == "c":
        notes = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        run.fallbacks["stream/greedy"] = notes[0] if notes else None
    server = MetricsServer(session)
    await server.start()
    stop = asyncio.Event()
    scraper = asyncio.create_task(_scraper(run, backend, server.port, stop)) if record else None
    steps, scaled, segment = [], [], started
    wall = reference = 0.0
    try:
        with span(run.spans if traced else None, "session", backend=backend):
            while not session.idle():
                t = perf_counter()
                session.step()
                steps.append(perf_counter() - t)
                if len(steps) % SEGMENT_STEPS == 0:
                    # A short calibration between two stretches of steps;
                    # scrapes due meanwhile wait for it as for a step.
                    host = perf_counter() - segment
                    scale = run.scale(before, SEGMENT_CAL_ITERATIONS)
                    before = run.calibration()
                    wall += host
                    reference += host * scale
                    scaled += [x * scale for x in steps[-SEGMENT_STEPS:]]
                    segment = perf_counter()
                await asyncio.sleep(0)
        snap = session.snapshot()
        session.close()
        host = perf_counter() - segment
        scale = run.scale(before, SEGMENT_CAL_ITERATIONS)
        wall += host
        reference += host * scale
        scaled += [x * scale for x in steps[len(scaled):]]
        # Stopped only now: the scraper sees ``stop`` when it wakes for its
        # next due time, and that wait is not the session's.
        stop.set()
        if scraper is not None:
            await scraper
        if traced:
            renders, fetches = [], []
            for _ in range(20):
                t = perf_counter()
                render_metrics(session)
                renders.append(perf_counter() - t)
                t = perf_counter()
                await fetch("127.0.0.1", server.port, "/metrics")
                fetches.append(perf_counter() - t)
            run.samples["http.render_ms"] += [x * 1e3 for x in renders]
            run.samples["http.fetch_idle_ms"] += [x * 1e3 for x in fetches]
    finally:
        stop.set()
        if scraper is not None and not scraper.done():
            scraper.cancel()
        await server.stop()
        if traced:
            tallies = engine_counters.global_counters()
            engine_counters.disable_global_counters()
    if traced and tallies is not None:
        for metric, field in ENGINE_COUNTERS.items():
            run.counters[metric] += getattr(tallies, field)
        layer["session.engine_s"] += tallies.run_seconds
        layer["session.fold_s"] += sum(steps) - tallies.run_seconds
        layer["session.windows"] += len(steps)
    if record:
        # The tail stays in host time: a tail step lasts about a millisecond
        # and is set by a short stall of the host, which the stretch's mean
        # speed does not describe; scaled, its spread over ten runs was
        # 0.19 to 0.36 against 0.06 to 0.14 unscaled.
        run.steps[backend].append((scaled, steps))
        run.wall[backend] += wall
        run.units[(backend, "session")].append(
            (wall, snap.completions_total, 1, reference / wall)
        )
    return snap


def _check_session(run: Run, backend: str, snap, reference) -> None:
    from repro.service.metrics import validate_snapshot

    doc = snap.to_dict()
    ok = (
        snap.completions_total == inputs.STREAM_JOBS
        and snap.jobs_in_flight == 0
        and not validate_snapshot(doc)
        and (reference is None or doc == reference)
    )
    run.op(ok, f"session {backend}: drained snapshot check failed")


async def _stream_cycle(run: Run, tree, traced: bool, order) -> None:
    """One session per backend; the second must end in the first's snapshot."""
    reference = None
    for backend in order:
        try:
            snap = await _serve(run, tree, backend, traced)
        except Exception as exc:
            run.op(False, f"session {backend}: {exc!r}")
            continue
        _check_session(run, backend, snap, reference)
        reference = snap.to_dict()


async def _warm_stream(run: Run, tree) -> None:
    """Warm the session, server and scraper code paths on a short stream."""
    for backend in BACKENDS:
        await _serve(run, tree, backend, traced=False, limit=2000, record=False)


def run_stream(run: Run) -> None:
    tree = inputs.build_tree()
    asyncio.run(_warm_stream(run, tree))
    if run.spans is not None:
        base = Run(run.workload, run.seed, 0.0, None, run.workdir)
        asyncio.run(_stream_cycle(base, tree, False, BACKENDS))
        run.absorb(base, base=True)
    run.loop(lambda: asyncio.run(_stream_cycle(
        run, tree, run.spans is not None,
        BACKENDS if run.cycles % 2 == 0 else BACKENDS[::-1],
    )))


# ---------------------------------------------------------------------------
# registry: serial passes of the experiment subset, each in a fresh process
# ---------------------------------------------------------------------------
def _registry_pass(run: Run, backend: str, traced: bool, env: dict) -> list[dict]:
    """One pass in a fresh process; returns its per-experiment records."""
    env = dict(env)
    env.pop("REPRO_BACKEND", None)
    if backend == "c":
        env["REPRO_BACKEND"] = "c"
    manifests = run.workdir / f"manifests-{os.getpid()}-{run.attempted}-{backend}"
    manifests.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "registry",
           "--manifest-dir", str(manifests)]
    if traced:
        cmd.append("--counters")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        run.op(False, f"registry {backend}: {exc!r}")
        return []
    finally:
        for path in manifests.glob("*"):
            path.unlink()
        manifests.rmdir()
    for exp in out["experiments"]:
        run.op(exp["passed"], f"registry {backend}: {exp['id']} did not pass")
    run.rss_mb = max(run.rss_mb, out["rss_mb"])
    return out["experiments"]


def _registry_cycle(run: Run, env: dict, runs: dict) -> None:
    """One pass per backend, alternating which goes first."""
    traced = run.spans is not None
    order = BACKENDS if run.cycles % 2 == 0 else BACKENDS[::-1]
    for backend in order:
        with span(run.spans, "registry.pass", backend=backend):
            experiments = _registry_pass(run, backend, traced, env)
        steps = []
        for exp in experiments:
            run.wall[backend] += exp["wall_s"]
            steps += [x * exp["scale"] for x in exp["trial_walls"]]
            run.units[(backend, exp["id"])].append(
                (exp["wall_s"], exp["jobs"], exp["trials"], exp["scale"])
            )
            if traced:
                c = exp["counters"]
                runs[backend] += c.get("runs", 0)
                for metric, field in ENGINE_COUNTERS.items():
                    run.counters[metric] += c.get(field, 0)
                run.layer["lp.memo_hits"] += c.get("lp_memo_hits", 0)
                run.layer["lp.memo_misses"] += c.get("lp_memo_misses", 0)
                run.layer["runner.trials"] += exp["trials"]
                run.layer["runner.trial_s"] += sum(exp["trial_walls"])
        if steps:
            run.steps[backend].append((steps, steps))


def run_registry(run: Run, env: dict) -> None:
    if run.spans is not None:
        base = Run(run.workload, run.seed, 0.0, None, run.workdir)
        _registry_cycle(base, env, {})
        run.absorb(base, base=True)
    runs = {"python": 0.0, "c": 0.0}
    run.loop(lambda: _registry_cycle(run, env, runs))
    if run.spans is not None and runs["python"]:
        # Experiments call the python engine directly; every engine run of
        # the c pass that the counters see is a run that did not use c.
        share = runs["c"] / runs["python"]
        run.fallbacks["registry/c-pass"] = (
            f"{share:.3f} of the python pass's engine runs ran on the python engine"
        )
        run.layer["c.fallback_share"] = share
