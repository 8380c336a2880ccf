"""Command-line interface.

``python -m repro <command>``:

* ``run`` — build a synthetic instance (or load a JSON trace), schedule
  it with a chosen policy, and print metrics, optionally the per-job
  table and an ASCII Gantt chart;
* ``trace`` — the same simulation with structured tracing
  (:mod:`repro.obs`) enabled: export span/gauge records as
  schema-validated JSONL or Chrome trace JSON (Perfetto-loadable), print
  a per-node summary, or validate an existing JSONL trace;
* ``experiment`` — run one or all registered experiments serially and
  print their reports (the same tables the benchmarks regenerate);
* ``experiments`` — run many experiments through the trial-sharding
  parallel runner with content-addressed trial caching
  (``--parallel N``, ``--no-cache``, ``--counters``);
* ``list-experiments`` — show the registry;
* ``generate`` — write a synthetic instance to a JSON trace for later
  ``run --trace`` calls;
* ``bound`` — compute lower bounds (LP and combinatorial) for a trace;
* ``bench`` — engine scaling sweep, policy microbenchmarks and registry
  serial-vs-sharded timing, written to ``BENCH_engine.json`` so the
  perf trajectory is tracked across PRs; ``--compare`` gates a fresh
  run against the checked-in document instead;
* ``fuzz`` — differential fuzzing (:mod:`repro.testing`): run the
  engine against independent reference oracles over seeded instance
  grids, shrink any disagreement and persist it to the crash corpus;
  ``--replay DIGEST`` re-runs a saved repro, ``--list`` shows the
  corpus;
* ``serve`` — open-system streaming mode (:mod:`repro.service`): feed
  a (possibly infinite) Poisson arrival stream through the engine,
  aggregate windowed steady-state metrics and expose ``/metrics`` +
  ``/snapshot`` over HTTP; ``--smoke`` is the self-checking CI mode.

Every command is deterministic given ``--seed``; ``run --profile``
wraps the simulation in ``cProfile`` for hot-path hunts, and ``run
--backend`` / ``REPRO_BACKEND`` select the engine backend through the
same resolver as the API.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.tables import Table
from repro.api import POLICY_NAMES, SIZE_DISTS, _resolve_policy

__all__ = ["main", "build_parser"]

_TREES = ("kary", "paths", "caterpillar", "datacenter", "random", "figure1")
DEFAULT_BENCH_SIZES = (200, 800, 2400)


def _build_tree(args):
    from repro import api

    kind = args.tree
    a, b, c = args.tree_args
    params_by_kind = {
        "kary": {"branching": a, "depth": b},
        "paths": {"num_paths": a, "path_length": b},
        "caterpillar": {"spine_length": a, "leaves_per_node": b},
        "datacenter": {"num_pods": a, "racks_per_pod": b, "machines_per_rack": c},
        "random": {"num_nodes": a, "rng": args.seed},
        "figure1": {},
    }
    return api.build_tree(kind, **params_by_kind[kind])


def _build_instance(args):
    from repro import api

    if args.trace:
        from repro.workload.trace_io import load_instance

        return load_instance(args.trace)
    # The tree is built here (not inside make_instance) so --tree-args
    # keep their positional CLI form.
    return api.make_instance(
        tree=_build_tree(args),
        n_jobs=args.jobs,
        load=args.load,
        size_dist=args.size_dist,
        unrelated=args.unrelated,
        seed=args.seed,
        name="cli",
    )


def _cmd_run(args) -> int:
    from repro.sim import backends
    from repro.sim.engine import fifo_priority, sjf_priority
    from repro.sim.speed import SpeedProfile

    instance = _build_instance(args)
    policy = _resolve_policy(args.policy, instance, args.eps, args.seed)

    def _simulate():
        # backends.simulate resolves --backend through select_backend —
        # the same kwarg > REPRO_BACKEND > "python" rule as the API.
        return backends.simulate(
            instance,
            policy,
            backend=args.backend,
            speeds=SpeedProfile.uniform(args.speed),
            priority=fifo_priority if args.fifo else sjf_priority,
            record_segments=args.gantt,
            until=args.until,
            collect_counters=args.counters or None,
        )

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = _simulate()
        finally:
            # Disable and dump even when the simulation raises: the
            # partial profile is exactly what a hot-path hunt for the
            # failure needs, and the profiler must never stay enabled
            # for the rest of the process.
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(20)
    else:
        result = _simulate()
    print(f"instance : {instance!r}")
    print(f"policy   : {args.policy} ({'fifo' if args.fifo else 'sjf'} nodes)")
    print(f"speed    : {args.speed}")
    if args.until is not None:
        done = result.completed_records()
        print(
            f"horizon  : {args.until} "
            f"({len(done)} finished, {len(result.unfinished_job_ids())} in flight)"
        )
        if done:
            mean = sum(r.flow_time for r in done.values()) / len(done)
            print(f"mean flow time (completed) : {mean:.4f}")
        print(f"fractional flow (window)     : {result.fractional_flow:.4f}")
        if args.counters and result.counters is not None:
            from repro.analysis.report import counters_table

            print()
            print(counters_table(result.counters).render())
        return 0
    print(f"total flow time      : {result.total_flow_time():.4f}")
    print(f"mean flow time       : {result.mean_flow_time():.4f}")
    print(f"max flow time        : {result.max_flow_time():.4f}")
    print(f"fractional flow time : {result.fractional_flow:.4f}")
    if args.per_job:
        table = Table("per-job", ["job", "release", "leaf", "completion", "flow"])
        for jid in sorted(result.records):
            rec = result.records[jid]
            table.add_row(jid, rec.release, rec.leaf, rec.completion, rec.flow_time)
        print()
        print(table.render())
    if args.gantt:
        from repro.sim.gantt import render_gantt

        print()
        print(render_gantt(result, width=args.gantt_width))
    if args.counters and result.counters is not None:
        from repro.analysis.report import counters_table

        print()
        print(counters_table(result.counters).render())
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import (
        trace_summary_table,
        validate_jsonl,
        write_chrome,
        write_jsonl,
    )

    if args.validate is not None:
        counts, errors = validate_jsonl(args.validate)
        for error in errors[:20]:
            print(error, file=sys.stderr)
        if errors:
            print(
                f"INVALID: {args.validate}: {len(errors)} error(s)", file=sys.stderr
            )
            return 1
        total = sum(counts.values())
        detail = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
        print(f"valid trace: {total} records ({detail})")
        return 0

    from repro import api

    instance = _build_instance(args)
    result = api.trace_run(
        instance=instance,
        policy=args.policy,
        eps=args.eps,
        seed=args.seed,
        speed=args.speed,
        priority="fifo" if args.fifo else "sjf",
        gauge_interval=args.gauge_interval,
        gauge_nodes=tuple(args.gauge_nodes) if args.gauge_nodes else None,
        record_points=not args.no_points,
        record_spans=not args.no_spans,
    )
    trace = result.trace
    if args.format == "summary":
        print(trace_summary_table(trace).render())
        print(
            f"\n{len(trace.points)} points, {len(trace.spans)} spans, "
            f"{len(trace.gauges)} gauge samples "
            f"(final_time={trace.meta['final_time']:.4f})"
        )
        return 0
    writer = write_jsonl if args.format == "jsonl" else write_chrome
    if args.output == "-":
        writer(trace, sys.stdout)
        return 0
    count = writer(trace, args.output)
    unit = "lines" if args.format == "jsonl" else "events"
    print(f"wrote {count} {unit} to {args.output}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    from repro.analysis.experiments import all_experiment_ids, run_experiment

    ids = all_experiment_ids() if args.id == "all" else [args.id.upper()]
    failed = []
    for eid in ids:
        result = run_experiment(eid)
        print(result.render())
        print()
        if not result.passed:
            failed.append(eid)
    if failed:
        print(f"FAILED experiments: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiments(args) -> int:
    from repro.analysis.experiments import all_experiment_ids
    from repro.analysis.report import counters_table
    from repro.analysis.runner import (
        DEFAULT_CACHE_DIR,
        aggregate_counters,
        run_experiments,
        summary_table,
    )

    ids = [i.upper() for i in args.ids]
    if not ids or ids == ["ALL"]:
        ids = all_experiment_ids()
    outcomes = run_experiments(
        ids,
        parallel=args.parallel,
        cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
        use_cache=not args.no_cache,
        collect_counters=args.counters,
        manifest_dir=args.manifest,
    )
    if args.manifest:
        print(f"wrote {len(outcomes)} trial manifest(s) to {args.manifest}/")
    if not args.summary_only:
        for out in outcomes:
            print(out.result.render())
            print()
    print(summary_table(outcomes).render())
    if args.counters:
        merged = aggregate_counters(outcomes)
        if merged is not None:
            print()
            print(counters_table(merged, "engine counters (all experiments)").render())
    failed = [out.exp_id for out in outcomes if not out.result.passed]
    if failed:
        print(f"FAILED experiments: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_list_experiments(args) -> int:
    from repro.analysis.experiments import all_experiment_ids, get_experiment

    table = Table("registered experiments", ["id", "summary"])
    for eid in all_experiment_ids():
        # The summary is the first line of the experiment's own module.
        doc = (sys.modules[get_experiment(eid).trials.__module__].__doc__ or "").strip()
        table.add_row(eid, doc.splitlines()[0] if doc else "")
    print(table.render())
    return 0


def _cmd_generate(args) -> int:
    from repro.workload.trace_io import save_instance

    instance = _build_instance(args)
    save_instance(instance, args.output)
    print(f"wrote {len(instance.jobs)} jobs on {instance.tree!r} to {args.output}")
    return 0


def _cmd_bound(args) -> int:
    from repro.analysis.ratios import lower_bound_for
    from repro.lp.bounds import best_lower_bound
    from repro.workload.trace_io import load_instance

    instance = load_instance(args.trace)
    combo, combo_name = best_lower_bound(instance)
    print(f"combinatorial bound : {combo:.4f} ({combo_name})")
    lb, name = lower_bound_for(instance, prefer_lp=not args.no_lp)
    print(f"best bound          : {lb:.4f} ({name})")
    return 0


def _cmd_plan(args) -> int:
    from repro.analysis.planning import min_speed_for_flow

    instance = _build_instance(args)
    policy_name = args.policy

    def factory():
        return _resolve_policy(policy_name, instance, args.eps, args.seed)

    plan = min_speed_for_flow(
        instance, factory, args.target, metric=args.metric, tol=args.tol
    )
    print(f"instance : {instance!r}")
    print(f"policy   : {policy_name}")
    print(f"target   : {args.metric} <= {args.target}")
    for point in plan.frontier:
        mark = "ok " if point.meets_target else "miss"
        print(f"  probe speed {point.speed:7.3f} -> {point.value:10.4f}  [{mark}]")
    if plan.feasible:
        print(f"minimum uniform speed: {plan.speed:.3f}")
        return 0
    print("infeasible within the searched speed range", file=sys.stderr)
    return 1


def _cmd_bench(args) -> int:
    import json

    from repro.analysis.bench import (
        MAX_DEGRADATION,
        compare_bench,
        render_bench,
        run_bench,
    )

    doc = run_bench(
        sizes=tuple(args.sizes),
        repeats=args.repeats,
        include_policies=not args.no_policies,
        # A compare run is a gate, not a new baseline: skip the registry
        # timing (it is excluded from the comparison anyway).
        include_registry=not args.no_registry and not args.compare,
        registry_parallel=args.registry_parallel,
    )
    print(render_bench(doc))
    if args.compare:
        try:
            with open(args.output) as fh:
                baseline = json.load(fh)
        except OSError as exc:
            print(f"cannot read baseline {args.output}: {exc}", file=sys.stderr)
            return 1
        regressions = compare_bench(baseline, doc)
        if regressions:
            table = Table(
                f"throughput regressions vs {args.output} "
                f"(> {MAX_DEGRADATION}x slower)",
                ["section", "name", "baseline_ev_s", "fresh_ev_s", "slowdown"],
            )
            for reg in regressions:
                table.add_row(
                    reg["section"], reg["name"], reg["baseline_events_per_s"],
                    reg["fresh_events_per_s"], reg["slowdown"],
                )
            print()
            print(table.render())
            failing = sorted({f"{reg['section']}:{reg['name']}" for reg in regressions})
            print(
                f"FAILED: {len(regressions)} regression(s) in "
                f"{', '.join(failing)}",
                file=sys.stderr,
            )
            return 1
        print(f"\nno regressions vs {args.output} (band: {MAX_DEGRADATION}x)")
        return 0
    if args.output != "-":
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_fuzz(args) -> int:
    import json

    from repro.testing import (
        DEFAULT_CORPUS_DIR,
        list_corpus,
        replay,
        run_fuzz,
    )

    corpus_dir = args.corpus or DEFAULT_CORPUS_DIR

    if args.list:
        entries = list_corpus(corpus_dir)
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
            return 0
        if not entries:
            print(f"corpus {corpus_dir} is empty")
            return 0
        table = Table(
            f"crash corpus ({corpus_dir})", ["digest", "checks", "jobs", "label"]
        )
        for entry in entries:
            table.add_row(
                entry["digest"],
                ",".join(entry["checks"]),
                entry["n_jobs"],
                entry["label"] or "",
            )
        print(table.render())
        return 0

    if args.replay is not None:
        report = replay(args.replay, corpus_dir)
        if args.json:
            print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
        else:
            print(f"digest   : {report.digest}")
            print(f"case     : {report.label}")
            print(f"recorded : {', '.join(report.recorded_checks) or '(none)'}")
            print(f"failing  : {', '.join(report.failing_checks) or '(none)'}")
            for failure in report.failures:
                print(f"  [{failure.check}] {failure.message}")
            print(f"reproduced: {report.reproduced}")
        # A repro that still reproduces is a live bug: fail the process
        # so CI replay jobs stay red until the engine is fixed.
        return 1 if report.reproduced else 0

    def ticker(cases_run: int, failures: int) -> None:
        if cases_run % 100 == 0:
            print(
                f"  {cases_run} cases, {failures} failure(s)", file=sys.stderr
            )

    summary = run_fuzz(
        seed=args.seed,
        max_cases=args.max_cases,
        budget_seconds=args.budget_seconds,
        corpus_dir=corpus_dir,
        backends=args.backends,
        events=args.events,
        stream=args.stream,
        shrink=not args.no_shrink,
        progress=ticker if not args.json else None,
    )
    if args.json:
        print(json.dumps(summary.to_doc(), indent=2, sort_keys=True))
        return 0 if summary.ok else 1
    print(
        f"fuzz: seed={summary.seed} cases={summary.cases_run} "
        f"elapsed={summary.elapsed_seconds:.1f}s "
        f"(stopped by {summary.stopped_by})"
    )
    if summary.kernel_plans is not None:
        print(
            f"c kernel: {summary.kernel_count('planned')} planned "
            f"({summary.kernel_count('bounded')} bounded), "
            f"{summary.kernel_count('declined')} declined, "
            f"{summary.kernel_count('unavailable')} without a compiler"
        )
    if summary.raising_sources is not None:
        raised = summary.raising_sources
        print(f"raising sources: {raised['python']} python, {raised['c']} c")
    if summary.ok:
        print("no disagreements found")
        return 0
    for rec in summary.failures:
        shrunk = (
            f"shrunk {rec.n_jobs_original} -> {rec.n_jobs_shrunk} jobs "
            f"in {rec.shrink_steps} step(s)"
            if rec.shrink_steps
            else f"{rec.n_jobs_shrunk} jobs (not shrunk)"
        )
        print(f"\nFAIL {rec.digest}  [{', '.join(rec.failing_checks)}]")
        print(f"  case   : {rec.original_label}")
        print(f"  size   : {shrunk}")
        if rec.path:
            print(f"  saved  : {rec.path}")
            print(f"  replay : repro fuzz --replay {rec.digest}")
        for failure in rec.failures[:4]:
            print(f"  [{failure.check}] {failure.message}")
    print(
        f"\n{len(summary.failures)} failing case(s) written to {corpus_dir}",
        file=sys.stderr,
    )
    return 1


def _cmd_serve(args) -> int:
    import asyncio

    import numpy as np

    from repro import api
    from repro.service.http import serve_session
    from repro.workload.arrivals import (
        job_stream,
        poisson_process,
        uniform_size_stream,
    )
    from repro.workload.instance import Instance

    tree = _build_tree(args)
    if args.rate is not None:
        rate = args.rate
    else:
        # Uniform [1, 4] sizes have mean 2.5; pick the rate whose
        # bottleneck offered load is --load, the same rule the batch
        # generator uses, so serve and run are comparable.
        rate = Instance.poisson_rate_for_load(tree, 2.5, args.load)
    releases = poisson_process(rate, np.random.default_rng(args.seed + 1))
    sizes = uniform_size_stream(rng=np.random.default_rng(args.seed))
    limit = args.jobs if args.jobs > 0 else None
    if args.smoke and limit is None:
        limit = 2000
    session = api.open_system(
        tree=tree,
        arrivals=job_stream(releases, sizes, limit=limit),
        policy=args.policy,
        eps=args.eps,
        seed=args.seed,
        speed=args.speed,
        backend=args.backend,
        window=args.window,
        keep_windows=args.keep_windows,
        name="serve",
    )
    max_windows = args.max_windows
    if args.smoke and max_windows is None:
        max_windows = 5
    failures = asyncio.run(
        serve_session(
            session,
            host=args.host,
            port=args.port,
            max_windows=max_windows,
            step_delay=args.step_delay,
            smoke=args.smoke,
        )
    )
    return 1 if failures else 0


def _cmd_report(args) -> int:
    from repro.analysis.report import render_experiments_markdown

    text = render_experiments_markdown(
        [i.upper() for i in args.ids] if args.ids else None
    )
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", help="load an instance JSON instead of generating")
    p.add_argument("--tree", choices=_TREES, default="kary", help="topology family")
    p.add_argument(
        "--tree-args",
        type=int,
        nargs=3,
        default=(2, 3, 0),
        metavar=("A", "B", "C"),
        help="family parameters (unused slots ignored), e.g. kary A B",
    )
    p.add_argument("--jobs", type=int, default=50, help="number of jobs")
    p.add_argument("--load", type=float, default=0.9, help="offered bottleneck load")
    p.add_argument("--size-dist", choices=SIZE_DISTS, default="uniform")
    p.add_argument("--unrelated", action="store_true", help="unrelated endpoints")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    from repro.sim.backends import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="treesched: scheduling in bandwidth-constrained tree networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one instance")
    _add_instance_flags(p_run)
    p_run.add_argument("--policy", choices=POLICY_NAMES, default="greedy")
    p_run.add_argument("--eps", type=float, default=0.25)
    p_run.add_argument("--speed", type=float, default=1.0, help="uniform speed factor")
    p_run.add_argument("--fifo", action="store_true", help="FIFO nodes instead of SJF")
    p_run.add_argument(
        "--until", type=float, default=None, help="stop the simulation at this time"
    )
    p_run.add_argument(
        "--counters",
        action="store_true",
        help="collect and print engine performance counters",
    )
    p_run.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="engine backend (default: REPRO_BACKEND env var, else python)",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation with cProfile and print the top-20 "
        "cumulative entries to stderr",
    )
    p_run.add_argument("--per-job", action="store_true", help="print per-job table")
    p_run.add_argument("--gantt", action="store_true", help="print ASCII Gantt chart")
    p_run.add_argument("--gantt-width", type=int, default=100)
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="simulate with structured tracing and export the trace "
        "(JSONL, Chrome trace format, or a summary table)",
    )
    _add_instance_flags(p_trace)
    p_trace.add_argument("--policy", choices=POLICY_NAMES, default="greedy")
    p_trace.add_argument("--eps", type=float, default=0.25)
    p_trace.add_argument("--speed", type=float, default=1.0, help="uniform speed factor")
    p_trace.add_argument("--fifo", action="store_true", help="FIFO nodes instead of SJF")
    p_trace.add_argument(
        "--format",
        choices=("summary", "jsonl", "chrome"),
        default="summary",
        help="summary table, schema-validated JSONL, or Chrome trace "
        "JSON loadable in Perfetto / about://tracing",
    )
    p_trace.add_argument(
        "-o", "--output", default="-", help="output path ('-' = stdout)"
    )
    p_trace.add_argument(
        "--gauge-interval",
        type=float,
        default=None,
        help="gauge sampling cadence in simulation seconds "
        "(default: 1/50th of the release span)",
    )
    p_trace.add_argument(
        "--gauge-nodes",
        type=int,
        nargs="+",
        default=None,
        metavar="NODE",
        help="sample gauges only at these node ids",
    )
    p_trace.add_argument(
        "--no-points", action="store_true", help="skip job-lifecycle points"
    )
    p_trace.add_argument(
        "--no-spans", action="store_true", help="skip service/wait spans"
    )
    p_trace.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help="validate an existing JSONL trace against the schema and exit",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_exp = sub.add_parser("experiment", help="run a registered experiment")
    p_exp.add_argument("id", help="experiment id (e.g. T1) or 'all'")
    p_exp.set_defaults(func=_cmd_experiment)

    p_exps = sub.add_parser(
        "experiments",
        help="run many experiments via the parallel runner with result caching",
    )
    p_exps.add_argument(
        "ids",
        nargs="*",
        default=[],
        help="experiment ids (empty or 'all' = whole registry)",
    )
    p_exps.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cache misses (1 = serial)",
    )
    p_exps.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    p_exps.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: .cache/experiments)",
    )
    p_exps.add_argument(
        "--counters",
        action="store_true",
        help="collect and print aggregate engine performance counters",
    )
    p_exps.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the summary table, not each experiment report",
    )
    p_exps.add_argument(
        "--manifest",
        metavar="DIR",
        default=None,
        help="write one JSON trial manifest per experiment (per-trial "
        "parameters, cache digests, hit/miss, wall-clock) to DIR",
    )
    p_exps.set_defaults(func=_cmd_experiments)

    p_list = sub.add_parser("list-experiments", help="show the experiment registry")
    p_list.set_defaults(func=_cmd_list_experiments)

    p_gen = sub.add_parser("generate", help="write a synthetic instance to JSON")
    _add_instance_flags(p_gen)
    p_gen.add_argument("output", help="path for the JSON trace")
    p_gen.set_defaults(func=_cmd_generate)

    p_bound = sub.add_parser("bound", help="lower bounds for a saved trace")
    p_bound.add_argument("trace", help="instance JSON path")
    p_bound.add_argument("--no-lp", action="store_true", help="skip the LP solve")
    p_bound.set_defaults(func=_cmd_bound)

    p_plan = sub.add_parser(
        "plan", help="find the minimum uniform speed meeting a flow-time target"
    )
    _add_instance_flags(p_plan)
    p_plan.add_argument("--policy", choices=POLICY_NAMES, default="greedy")
    p_plan.add_argument("--eps", type=float, default=0.25)
    p_plan.add_argument("--target", type=float, required=True)
    p_plan.add_argument(
        "--metric", choices=("mean_flow", "max_flow", "total_flow"), default="mean_flow"
    )
    p_plan.add_argument("--tol", type=float, default=0.05)
    p_plan.set_defaults(func=_cmd_plan)

    p_bench = sub.add_parser(
        "bench", help="engine scaling sweep + policy microbenchmarks"
    )
    p_bench.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_BENCH_SIZES),
        help="job counts for the scaling sweep",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=3, help="runs per configuration (best kept)"
    )
    p_bench.add_argument(
        "--no-policies", action="store_true", help="skip the policy microbenchmarks"
    )
    p_bench.add_argument(
        "--no-registry",
        action="store_true",
        help="skip the registry serial-vs-sharded timing",
    )
    p_bench.add_argument(
        "--registry-parallel",
        type=int,
        default=None,
        metavar="N",
        help="workers for the sharded registry run (default: core count)",
    )
    p_bench.add_argument(
        "--compare",
        action="store_true",
        help="compare a fresh run against the checked-in JSON at --output "
        "instead of overwriting it; exit non-zero on a throughput regression",
    )
    p_bench.add_argument(
        "-o",
        "--output",
        default="BENCH_engine.json",
        help="JSON output path ('-' = print tables only)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: engine vs reference oracles, with "
        "shrinking and an on-disk crash corpus",
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="case-stream seed")
    p_fuzz.add_argument(
        "--max-cases",
        type=int,
        default=None,
        metavar="N",
        help="stop after N cases (default 500 when no budget is given)",
    )
    p_fuzz.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="stop after S seconds of wall clock",
    )
    p_fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="crash corpus directory (default: .fuzz-corpus)",
    )
    p_fuzz.add_argument(
        "--replay",
        default=None,
        metavar="DIGEST",
        help="re-run one saved repro (digest, unique prefix, or path) "
        "instead of fuzzing; exits 1 if it still reproduces",
    )
    p_fuzz.add_argument(
        "--list", action="store_true", help="list corpus entries and exit"
    )
    p_fuzz.add_argument(
        "--backends",
        action="store_true",
        help="also replay every case the compiled c kernel can plan "
        "(where a C compiler is available) and require agreement with "
        "the reference engine",
    )
    p_fuzz.add_argument(
        "--events",
        action="store_true",
        help="extend the case stream with dynamic-event plans (node "
        "outages, cancellations); the default stream is unchanged "
        "when omitted",
    )
    p_fuzz.add_argument(
        "--stream",
        action="store_true",
        help="also stream every case through an open-system session "
        "sliced at random (eviction and window retirement on) and require "
        "the completions of an unsliced run; with --backends, the c "
        "session must equal the python session step by step",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="persist failing cases without minimising them first",
    )
    p_fuzz.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable summary document",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="run an open-system arrival stream and expose live /metrics "
        "+ /snapshot over HTTP",
    )
    p_serve.add_argument("--tree", choices=_TREES, default="kary")
    p_serve.add_argument(
        "--tree-args",
        type=int,
        nargs=3,
        default=(2, 3, 0),
        metavar=("A", "B", "C"),
        help="family parameters (unused slots ignored), e.g. kary A B",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--policy", choices=POLICY_NAMES, default="greedy")
    p_serve.add_argument("--eps", type=float, default=0.25)
    p_serve.add_argument("--speed", type=float, default=1.0)
    p_serve.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="resolved like run --backend; on c the session keeps its "
        "state in the compiled kernel (every built-in policy), and warns "
        "and runs python when the kernel has no plan",
    )
    p_serve.add_argument(
        "--load",
        type=float,
        default=0.9,
        help="offered bottleneck load used to derive the arrival rate",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="explicit Poisson arrival rate (overrides --load)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="stop the arrival stream after N jobs (0 = infinite)",
    )
    p_serve.add_argument(
        "--window", type=float, default=10.0, help="aggregation window (sim seconds)"
    )
    p_serve.add_argument(
        "--keep-windows", type=int, default=16, help="closed windows to retain"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="listen port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--max-windows",
        type=int,
        default=None,
        metavar="N",
        help="stop after N windows have closed (default: run until the "
        "stream drains; smoke mode defaults to 5)",
    )
    p_serve.add_argument(
        "--step-delay",
        type=float,
        default=0.0,
        help="wall-clock sleep between windows (demo pacing)",
    )
    p_serve.add_argument(
        "--smoke",
        action="store_true",
        help="bounded run that scrapes its own endpoints, validates the "
        "snapshot/v1 schema and exits non-zero on any failure (CI)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md from live experiment runs"
    )
    p_report.add_argument("-o", "--output", default="-", help="path or '-' for stdout")
    p_report.add_argument(
        "--ids", nargs="*", default=None, help="subset of experiment ids"
    )
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
