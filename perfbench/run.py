"""One run of one benchmark workload.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; nothing needs installing.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every file the
run writes (kernel cache, run record, spans, temporary files) goes under
``.bench_build/perfbench`` in the checkout.  See README.md and GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("batch", "events", "stream", "registry")

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.spans import Spans, median, percentile, span  # noqa: E402

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "python_jobs_per_s": "jobs/s",
    "c_jobs_per_s": "jobs/s",
    "trials_per_s": "trials/s",
    "python_step_p50_ms": "ms",
    "python_step_p99_ms": "ms",
    "c_step_p50_ms": "ms",
    "c_step_p99_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _environment() -> dict:
    """Where the run happened, recorded with every run."""
    import numpy

    from repro.sim.backends.c_build import toolchain_info

    return {
        "toolchain": toolchain_info(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def _setup_probes(workload: str, seed: int, spans) -> list[dict]:
    """Time ``SETUP_PROBES`` set-ups, each in a fresh interpreter.

    Set-ups are timed in host seconds: calibrations in this process around
    a child process did not track its speed, and scaling by them widened
    the spread of ``setup_s`` between runs.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup",
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        with span(spans, "setup.probe") as rec:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if rec is not None:
            rec.update(probe)
        probes.append(probe)
    return probes


def _kernel_layers(layer: dict) -> None:
    """``c_build.load_kernel_ms`` (warm) and ``c_build.cold_build_s``."""
    from repro.sim.backends import c_build

    warm = []
    for _ in range(5):
        t = perf_counter()
        c_build.load_kernel()
        warm.append((perf_counter() - t) * 1e3)
    layer["c_build.load_kernel_ms"] = median(warm)
    cold = WORKDIR / "tmp" / f"cold-build-{os.getpid()}"
    cold.mkdir(parents=True)
    saved = os.environ["REPRO_CKERNEL_CACHE"]
    os.environ["REPRO_CKERNEL_CACHE"] = str(cold)
    try:
        t = perf_counter()
        c_build.build_library()
        layer["c_build.cold_build_s"] = perf_counter() - t
    finally:
        os.environ["REPRO_CKERNEL_CACHE"] = saved
        shutil.rmtree(cold)


def _end_to_end(run, probes: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample count behind each."""
    # Each unit is timed in reference seconds (host seconds scaled by the
    # host speed around it) at its median over the run's cycles, so that a
    # cycle caught in a slow spell of the host does not move the rate.
    med = {
        key: [median(s[0] * s[3] for s in samples), samples[0][1], samples[0][2]]
        for key, samples in run.units.items()
    }
    values = {
        "setup_s": median([p["setup_s"] for p in probes]),
        "peak_rss_mb": run.rss_mb,
        "trials_per_s": _ratio(sum(m[2] for m in med.values()), sum(m[0] for m in med.values())),
    }
    counts = {"setup_s": len(probes), "peak_rss_mb": 1,
              "trials_per_s": sum(len(s) for s in run.units.values())}
    for b in ("python", "c"):
        mine = [m for (backend, _), m in med.items() if backend == b]
        values[f"{b}_jobs_per_s"] = _ratio(sum(m[1] for m in mine), sum(m[0] for m in mine))
        counts[f"{b}_jobs_per_s"] = sum(len(s) for (backend, _), s in run.units.items() if backend == b)
        # A step percentile is taken per cycle, then its median over cycles.
        cycles = [c for c in run.steps[b] if c[0]]
        for q, which in ((50, 0), (99, 1)):
            per_cycle = [percentile(c[which], q) * 1e3 for c in cycles]
            values[f"{b}_step_p{q}_ms"] = median(per_cycle) if per_cycle else 0.0
            counts[f"{b}_step_p{q}_ms"] = f"{len(cycles)}x{min((len(c[0]) for c in cycles), default=0)}"
    return values, counts


def _scrape_stats(run) -> tuple[dict, dict]:
    """Scrape latency from the due time, per backend, and generator lateness."""
    values, counts, late = {}, {}, []
    for b in ("python", "c"):
        lat = [(done - due) * 1e3 for due, _, done in run.scrapes[b]]
        late += [(sent - due) * 1e3 for due, sent, _ in run.scrapes[b]]
        for q in (50, 90):
            values[f"http.{b}_scrape_p{q}_ms"] = percentile(lat, q) if lat else 0.0
            counts[f"http.{b}_scrape_p{q}_ms"] = len(lat)
    values["loadgen.late_p90_ms"] = percentile(late, 90) if late else 0.0
    counts["loadgen.late_p90_ms"] = len(late)
    return values, counts


#: Per-layer accumulators that are totals over the traced cycles.
_PER_CYCLE_PREFIXES = (
    "engine.", "policy.", "python.wall_s.", "numpy.wall_s.", "c.wall_s.", "c.plan_s",
    "c.run_s", "result.verify_s", "workload.arrivals_s", "session.", "runner.", "lp.",
)


def _per_layer(run, probes: list[dict]) -> tuple[dict, dict]:
    """The per-layer metrics (per traced cycle) and the samples behind each."""
    values = dict.fromkeys(workloads.PER_LAYER, 0.0)
    counts = dict.fromkeys(workloads.PER_LAYER, run.cycles)
    for name, key in (
        ("import.repro_s", "import_s"),
        ("workload.instance_s", "instance_s"),
        ("workload.events_s", "events_s"),
        ("backends.select_ms", "select_ms"),
    ):
        values[name] = median([p[key] for p in probes])
        counts[name] = len(probes)
    for name, total in list(run.layer.items()) + list(run.counters.items()):
        if name.startswith(_PER_CYCLE_PREFIXES):
            values[name] = total / run.cycles
        else:
            values[name] = total
    for name, xs in run.samples.items():
        values[name] = median(xs)
        counts[name] = len(xs)
    counts.update({"c_build.load_kernel_ms": 5, "c_build.cold_build_s": 1,
                   "obs.trace_overhead": 1, "bench.trace_overhead": 1})
    if run.workload == "stream":
        scrape, scrape_counts = _scrape_stats(run)
        values.update(scrape)
        counts.update(scrape_counts)
        values["http.scrapes"] = sum(len(v) for v in run.scrapes.values()) / run.cycles
    if "c.fallback_share" not in run.layer and run.fallbacks:
        values["c.fallback_share"] = _ratio(
            sum(reason is not None for reason in run.fallbacks.values()), len(run.fallbacks)
        )
        counts["c.fallback_share"] = len(run.fallbacks)
    if run.untraced_reference:
        traced = run.reference_seconds() / run.cycles
        values["bench.trace_overhead"] = traced / sum(run.untraced_reference.values()) - 1.0
    return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    (WORKDIR / "runs").mkdir(parents=True, exist_ok=True)
    # Children inherit these: the package from this checkout, the kernel
    # cache the benchmark owns, and temporary files inside the checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    os.environ["REPRO_CKERNEL_CACHE"] = str(WORKDIR / "ckernel")
    os.environ["TMPDIR"] = str(WORKDIR / "tmp")
    os.environ.pop("REPRO_BACKEND", None)

    from repro.sim.backends import c_build

    # Warm the kernel cache before anything is timed, so that the parent
    # and the child commit are both timed warm even when one of them
    # edits the kernel source.
    c_build.load_kernel()
    env_before = _environment()
    traced = bool(args.trace)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    spans = Spans(args.workload, run_id) if traced else None
    run = workloads.Run(args.workload, args.seed, args.seconds, spans, WORKDIR / "tmp")

    probes = _setup_probes(args.workload, args.seed, spans)
    if traced:
        _kernel_layers(run.layer)

    if args.workload == "batch":
        workloads.run_sweeps(
            run, workloads.batch_cases(args.seed),
            workloads.batch_cases(args.seed, workloads.WARM_JOBS),
        )
    elif args.workload == "events":
        workloads.run_sweeps(
            run, workloads.events_cases(args.seed),
            workloads.events_cases(args.seed, workloads.WARM_JOBS),
        )
    elif args.workload == "stream":
        workloads.run_stream(run)
    else:
        workloads.run_registry(run, dict(os.environ))

    if args.workload != "registry":
        run.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        metrics, counts = _per_layer(run, probes)
        units = workloads.PER_LAYER
    else:
        metrics, counts = _end_to_end(run, probes)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": run.cycles,
        "cycle_walls": run.cycle_walls,
        "wall_per_cycle": {b: run.wall[b] / run.cycles for b in sorted(run.wall)},
        "units": {f"{b}|{key}": samples for (b, key), samples in sorted(run.units.items())},
        "step_cycles": {
            b: [[len(mid), percentile(mid, 50), percentile(tail, 99)] for mid, tail in cycles if mid]
            for b, cycles in run.steps.items()
        },
        "untraced_wall": run.untraced_wall,
        "untraced_reference": run.untraced_reference,
        "reference_per_cycle": {
            b: run.reference_seconds(b) / run.cycles for b in workloads.BACKENDS
        },
        "metrics": metrics,
        "samples": counts,
        "fallbacks": run.fallbacks,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "setup_probes": probes,
        "environment": {"before": env_before, "loadavg_after": os.getloadavg()},
    }
    if not traced and args.workload == "stream":
        record["scrapes"], record["scrape_samples"] = _scrape_stats(run)
    base = WORKDIR / "runs" / run_id
    base.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if traced:
        spans.write(base.with_suffix(".spans.jsonl"))

    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]:9s} n={counts[name]}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
