"""The single command-line entry point: ``python -m repro <command>``.

Commands
--------
``run``
    Execute the full pipeline (data → kg → embed → cggnn → train → eval →
    serve-check) for a profile or a JSON :class:`~repro.pipeline.RunConfig`,
    persisting every stage into ``--out``.  Re-running with the same
    configuration skips completed stages via their fingerprints.
``train``
    Like ``run`` but stops after the ``train`` stage (no eval/serve-check).
``eval``
    Evaluate a persisted (or freshly trained) stack under the paper's
    ranking protocol and print the metrics.
``serve-demo``
    Boot a :class:`repro.serving.RecommendationService` — from ``--artifacts``
    when given, training otherwise — and push warm-up + burst traffic through
    it, printing the telemetry snapshot.
``simulate``
    Replay a seeded synthetic workload (``repro.simulate``) against the
    serving stack and verify the answers with the oracle battery.  The flags
    resolve into one :class:`repro.simulate.StackSpec` (rejected
    combinations exit with ``error: …``); :func:`repro.simulate.build_stack`
    wires the planes and :func:`repro.simulate.audit` picks the oracles.
    ``--shards N --replicas R`` serves through a :mod:`repro.cluster`
    topology, ``--fail-shard K`` marks shard K DOWN at boot (under a fault
    plan, a ledgered ``shard_down`` event from t=0 instead), and the replay
    runs in virtual time by default, so the same ``--seed`` reproduces the
    identical result signature bit for bit.  ``--live-ingest N`` adds
    scheduled ingest bursts and generation swaps (``repro.live``), each
    answer checked against the generation that computed it;
    ``--expect-no-shed`` fails the run if any request was shed.
    ``--autoscale --min-shards A --max-shards B`` resizes the cluster at
    virtual-time ticks (``repro.cluster.Autoscaler``), checked by the
    scaling oracle.  ``--faults PLAN.json`` (or ``--chaos-seed N``) replays
    a fault-free twin first, then the faulted stack with circuit breakers,
    bounded retries and the fault ledger, audited by the fault-tolerance
    oracle.  ``--scenario NAME|SPEC.json`` reshapes the trace through a
    :mod:`repro.scenarios` pipeline, and ``--save-trace``/``--trace``
    round-trip the final trace for bit-identical replay elsewhere.
``explore``
    Sweep scenarios × cluster configs (``repro.scenarios.Explorer``): k
    seeded episodes per cell, each a fresh stack from the same builder,
    audited by the same battery and aggregated into a deterministic
    comparison matrix (same seed ⇒ bit-identical matrix signature; exit 1
    on any oracle mismatch).
``experiments``
    Run the paper's tables/figures (replaces the old ad-hoc
    ``repro.experiments.runner`` argparse).
``lint``
    Run the AST-based invariant linter (``repro.analysis``) over the given
    paths: seeded-RNG injection (DET001), no wall-clock reads outside the
    timing allowlist (CLK001), NaN-not-0.0 undefined measurements (NAN001),
    mutable defaults (MUT001), overbroad excepts (EXC001) and set-iteration
    hazards in signature code (SIG001).  Exit 0 clean, 1 findings, 2 usage.
``bench``
    Run the seeded performance benchmarks (``repro.perf``): TransE epochs/s,
    DARL training episodes/s, CGGNN training steps/s, beam-search serving
    QPS (cold & warm) and incremental CSR patching, each measured against
    the frozen reference in the same run, on one BLAS thread, plus the
    ungated fault-path overhead.  Writes ``BENCH_<timestamp>.json`` and
    fails on regressions vs the committed baseline.

Examples
--------
::

    python -m repro run --profile smoke --out artifacts/smoke
    python -m repro eval --artifacts artifacts/smoke
    python -m repro serve-demo --artifacts artifacts/smoke
    python -m repro simulate --artifacts artifacts/smoke --requests 500
    python -m repro simulate --shards 4 --replicas 2 --fail-shard 1 --seed 7
    python -m repro simulate --shards 4 --live-ingest 25 --expect-no-shed
    python -m repro simulate --autoscale --min-shards 2 --max-shards 6 --max-queue 8
    python -m repro simulate --shards 4 --faults examples/fault_plans/latency_storm.json
    python -m repro simulate --shards 4 --chaos-seed 11 --live-ingest 25
    python -m repro simulate --scenario cache-buster --save-trace /tmp/trace.json
    python -m repro simulate --trace /tmp/trace.json --shards 4
    python -m repro explore --scenario flash-crowd --scenario hot-shard --shards 1 --shards 4
    python -m repro experiments --profile smoke --only table1 fig5
    python -m repro bench --profile smoke --out benchmarks
    python -m repro lint src/ tests/ --format json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .analysis.cli import add_lint_arguments, run_lint_command
from .pipeline import Pipeline, PipelineError, PipelineResult, RunConfig, load_pipeline


# --------------------------------------------------------------------------- #
# shared plumbing
# --------------------------------------------------------------------------- #
def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="smoke", choices=("smoke", "paper"),
                        help="canonical configuration preset (default: smoke)")
    parser.add_argument("--dataset", default="beauty",
                        help="dataset preset name (default: beauty)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for model and split (default: 0)")
    parser.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="JSON RunConfig file; overrides --profile/--dataset/--seed")


def _resolve_config(arguments: argparse.Namespace) -> RunConfig:
    if arguments.config is not None:
        return RunConfig.load(arguments.config)
    return RunConfig.from_profile(arguments.profile, dataset=arguments.dataset,
                                  seed=arguments.seed)


def _run_pipeline(arguments: argparse.Namespace,
                  until: Optional[Sequence[str]] = None) -> PipelineResult:
    config = _resolve_config(arguments)
    out = getattr(arguments, "out", None)
    force = getattr(arguments, "force", False)
    pipeline = Pipeline(config, store=out, force=force)
    start = time.perf_counter()
    result = pipeline.run(until=until)
    elapsed = time.perf_counter() - start
    print(f"pipeline finished in {elapsed:.1f}s"
          + (f" (artifacts: {result.artifacts_dir})" if result.artifacts_dir else ""))
    print(result.summary())
    return result


def _result_for_serving(arguments: argparse.Namespace) -> PipelineResult:
    """A trained stack: loaded from ``--artifacts`` if given, else trained."""
    artifacts = getattr(arguments, "artifacts", None)
    if artifacts is not None:
        result = load_pipeline(artifacts, until=("train",))
        print(f"loaded trained stack from {artifacts}")
        return result
    return _run_pipeline(arguments, until=("train",))


def _print_metrics(metrics: dict) -> None:
    print(json.dumps(metrics, indent=2, sort_keys=True, default=str))


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def _command_run(arguments: argparse.Namespace) -> int:
    until = tuple(arguments.stages) if arguments.stages else None
    result = _run_pipeline(arguments, until=until)
    if result.eval_metrics is not None:
        print("\neval metrics (%):")
        _print_metrics(result.eval_metrics["metrics"])
    if result.serve_report is not None:
        status = "ok" if result.serve_report["ok"] else "FAILED"
        print(f"serve-check: {status} "
              f"({result.serve_report['checked_users']} users)")
    return 0


def _command_train(arguments: argparse.Namespace) -> int:
    _run_pipeline(arguments, until=("train",))
    return 0


def _command_eval(arguments: argparse.Namespace) -> int:
    if arguments.artifacts is not None:
        # Restore the stack from disk and compute eval only if its artifact is
        # missing.  The train stage must already be complete — an eval command
        # must never silently retrain — and the single Pipeline.run below
        # loads each cached stage exactly once.
        from .pipeline import ArtifactStore

        store = ArtifactStore(arguments.artifacts)
        if not store.config_path.exists():
            raise PipelineError(f"{store.root} has no config.json; "
                                "not a pipeline artifact directory")
        config = RunConfig.load(store.config_path)
        if not store.is_complete("train", config.stage_fingerprints()["train"]):
            raise PipelineError(f"{store.root} does not hold a complete trained "
                                "stack for its config.json; run "
                                "`python -m repro train` first")
        result = Pipeline(config, store=store).run(until=("eval",))
    else:
        result = _run_pipeline(arguments, until=("eval",))
    print("\neval metrics (%):")
    _print_metrics(result.eval_metrics["metrics"])
    print(f"evaluated users: {result.eval_metrics['num_users']}")
    return 0


def _command_serve_demo(arguments: argparse.Namespace) -> int:
    result = _result_for_serving(arguments)
    service = result.service()
    builder = result.context.builder
    audience = [builder.user_to_entity(user)
                for user in range(min(arguments.users, result.dataset.num_users))]

    start = time.perf_counter()
    service.warm_up(audience, top_k=arguments.top_k)
    print(f"warm-up of {len(audience)} users: {time.perf_counter() - start:.2f}s")

    burst = service.build_requests(audience * 3, top_k=arguments.top_k)
    start = time.perf_counter()
    responses = service.serve_many(burst)
    elapsed = time.perf_counter() - start
    hits = sum(response.cache_hit for response in responses)
    print(f"burst of {len(burst)} requests: {elapsed * 1000:.1f}ms "
          f"({hits} cache hits, {len(burst) / max(elapsed, 1e-9):.0f} QPS)")

    print("\ntelemetry snapshot:")
    _print_metrics(service.telemetry_snapshot())
    return 0


# --------------------------------------------------------------------------- #
# simulate & explore: flags → StackSpec (the stack is built in repro.simulate)
# --------------------------------------------------------------------------- #
def _cluster_config(arguments: argparse.Namespace, config: RunConfig,
                    shards: int, replicas: int,
                    failed_shards: Tuple[int, ...] = ()):
    """The ``ClusterConfig`` the topology flags ask for over the run's spec.

    Shared by ``simulate`` and ``explore``: the replication factor is capped
    at the shard count, ``--max-queue`` overrides the admission bound, and
    the ring geometry (virtual nodes, seed) is always the run's own.
    """
    from .cluster import ClusterConfig

    return ClusterConfig(
        num_shards=shards,
        replication_factor=min(replicas, shards),
        virtual_nodes=config.cluster.virtual_nodes,
        max_queue_per_shard=(arguments.max_queue
                             if arguments.max_queue is not None
                             else config.cluster.max_queue_per_shard),
        seed=config.cluster.seed,
        failed_shards=failed_shards)


def _checked(spec):
    """``spec``, or exit with its rejection in the ``error: …`` style."""
    try:
        spec.validate()
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    return spec


def _stack_spec(arguments: argparse.Namespace, config: RunConfig):
    """Every ``simulate`` flag as one validated :class:`StackSpec`."""
    from .simulate import StackSpec

    if arguments.faults is not None and arguments.chaos_seed is not None:
        raise SystemExit("error: pass --faults PLAN.json or --chaos-seed N, "
                         "not both")
    faulted = arguments.faults is not None or arguments.chaos_seed is not None
    autoscale = arguments.autoscale
    failed_shards = tuple(arguments.fail_shard or ())
    min_shards = arguments.min_shards if arguments.min_shards is not None else 2
    max_shards = arguments.max_shards if arguments.max_shards is not None else 6
    # CLI flags override the run's persisted cluster spec; an autoscaled
    # cluster boots at its floor (or an explicit --shards within the range)
    # and earns its capacity from the trace.
    if arguments.shards is not None:
        shards = arguments.shards
    else:
        shards = min_shards if autoscale else config.cluster.num_shards
    if arguments.replicas is not None:
        replicas = arguments.replicas
    elif arguments.shards is None:
        replicas = config.cluster.replication_factor
    else:
        replicas = min(2, shards)
    # Failover, breakers, generation swaps and resharding all live in the
    # cluster facade, so only a plain one-shard replay may use the single
    # service; a shard count below one reaches validate() and is rejected.
    clustered = (shards != 1 or bool(failed_shards) or arguments.live_ingest != 0
                 or faulted or autoscale)
    if arguments.max_queue is not None and not clustered:
        raise SystemExit(f"error: --max-queue {arguments.max_queue} bounds a "
                         "cluster shard's admission queue, and a one-shard "
                         "replay has none; pass --shards N with N > 1")
    if arguments.replicas is not None and not clustered:
        raise SystemExit(f"error: --replicas {arguments.replicas} sets a "
                         "cluster key's replica chain, and a one-shard "
                         "replay has none; pass --shards N with N > 1")
    return _checked(StackSpec(
        cluster_config=(_cluster_config(
            arguments, config, shards, replicas,
            () if faulted else failed_shards) if clustered else None),
        # An explicit --workload-seed wins; otherwise the master --seed
        # drives workload generation too, so one flag reproduces the run.
        workload_seed=(arguments.workload_seed
                       if arguments.workload_seed is not None
                       else arguments.seed),
        virtual=not arguments.wall_clock, faulted=faulted,
        failed_shards=failed_shards,
        autoscale=(min_shards, max_shards) if autoscale else None,
        scale_tick=arguments.scale_tick,
        cache_capacity=arguments.cache_capacity,
        live_ingest=arguments.live_ingest,
        ingest_at=tuple(arguments.ingest_at or StackSpec.ingest_at),
        swap_at=tuple(arguments.swap_at or StackSpec.swap_at),
        refresh_epochs=arguments.refresh_epochs))


def _prepare_workload(arguments: argparse.Namespace, service,
                      workload_seed: int):
    """The simulate trace, from whichever source the flags name.

    ``--trace PATH`` loads a previously saved trace (schema-checked);
    otherwise the trace is generated from the seeded config.  Either way an
    optional ``--scenario NAME|SPEC.json`` then reshapes it against the
    serving topology (the context carries the cluster's own hash ring), and
    ``--save-trace PATH`` persists the final trace for bit-identical replay
    elsewhere.
    """
    from .simulate import (UserPopulation, Workload, WorkloadConfig,
                           WorkloadSchemaError, generate_workload)

    population = UserPopulation.from_graph(service.graph)
    if arguments.trace is not None:
        try:
            workload = Workload.load(arguments.trace)
        except WorkloadSchemaError as error:
            raise SystemExit(f"error: --trace {arguments.trace}: {error}")
        print(f"trace: loaded {len(workload)} requests from {arguments.trace} "
              f"(signature {workload.signature()[:16]}…)")
    else:
        workload = generate_workload(
            population,
            WorkloadConfig(num_requests=arguments.requests,
                           seed=workload_seed,
                           arrival=arguments.arrival),
            service.graph)
    if arguments.scenario is not None:
        from .scenarios import ScenarioContext, ScenarioError, load_scenario

        try:
            scenario = load_scenario(arguments.scenario)
            workload = scenario.apply(workload, ScenarioContext(
                graph=service.graph, population=population,
                ring=getattr(service, "ring", None)))
        except ScenarioError as error:
            raise SystemExit(f"error: --scenario {arguments.scenario}: {error}")
        print(f"scenario: {scenario.name} "
              f"({len(scenario.transforms)} transforms, "
              f"signature {scenario.signature()[:16]}…)")
    if arguments.save_trace is not None:
        arguments.save_trace.parent.mkdir(parents=True, exist_ok=True)
        workload.save(arguments.save_trace)
        print(f"trace: saved {len(workload)} requests to "
              f"{arguments.save_trace} "
              f"(signature {workload.signature()[:16]}…)")
    print(f"workload: {len(workload)} requests over {workload.duration_s:.2f}s "
          f"of trace time, seed {workload_seed} "
          f"(signature {workload.signature()[:16]}…)")
    return workload


def _fault_plan(arguments: argparse.Namespace, spec, duration_s: float):
    """The ``--faults``/``--chaos-seed`` plan over the trace span, plus one
    permanent ``shard_down`` event at t=0 per ``--fail-shard``."""
    from .faults import FaultPlan, ShardDownFault, chaos_plan

    if arguments.faults is not None:
        plan = FaultPlan.load(arguments.faults).resolve(duration_s)
        origin = str(arguments.faults)
    else:
        plan = chaos_plan(arguments.chaos_seed,
                          num_shards=spec.cluster_config.num_shards,
                          duration_s=duration_s, include_live=spec.live)
        origin = f"chaos seed {arguments.chaos_seed}"
    if spec.failed_shards:
        plan = FaultPlan(events=plan.events + tuple(
            ShardDownFault(at_s=0.0, shard_id=shard)
            for shard in spec.failed_shards))
    print(f"fault plan: {len(plan.events)} events from {origin} "
          f"(signature {plan.signature()[:16]}…)")
    return plan


def _command_simulate(arguments: argparse.Namespace) -> int:
    """Replay one workload; under a fault plan, a clean twin first.

    A fault replay builds two identical stacks: the clean twin, which the
    standard oracle battery verifies, and the faulted one with the injector
    installed, which the fault-tolerance oracle audits against the twin and
    the fault ledger.  One summary and one exit code cover every mode.
    """
    import contextlib
    import tempfile

    from .simulate import audit, build_stack, render_report, summarize

    result = _result_for_serving(arguments)
    spec = _stack_spec(arguments, result.config)
    cluster = spec.cluster_config
    if cluster is not None:
        print(f"cluster: {cluster.num_shards} shards × "
              f"{cluster.replication_factor} replicas"
              + (f", failed at boot: {sorted(cluster.failed_shards)}"
                 if cluster.failed_shards else "")
              + (f", circuit breakers on, {cluster.max_retries} retries "
                 f"per request" if spec.faulted else ""))
    # Live fault replays persist generations and a write-ahead log for the
    # plan to corrupt; both live in a directory scoped to this run.
    scratch = (tempfile.TemporaryDirectory(prefix="repro-faults-")
               if spec.faulted and spec.live else contextlib.nullcontext())
    with scratch as workdir:
        workdir = None if workdir is None else Path(workdir)
        stack = build_stack(
            result, spec, workdir=workdir,
            workload=lambda service: _prepare_workload(
                arguments, service, spec.workload_seed))
        plan = (_fault_plan(arguments, spec, stack.workload.duration_s)
                if spec.faulted else None)
        replay = stack.replay()
        baseline = None
        if plan is None:
            reports = audit(stack.front, replay.records,
                            full_search_sample=arguments.oracle_sample, seed=0)
        else:
            print(f"baseline replay     {len(replay.records)} answered, "
                  f"signature {replay.signature()[:32]}…")
            clean, baseline = stack, replay
            stack = build_stack(result, spec, workload=stack.workload,
                                plan=plan, workdir=workdir)
            replay = stack.replay()
            reports = audit(clean.front, baseline.records,
                            full_search_sample=arguments.oracle_sample, seed=0,
                            twin=replay.records, ledger=stack.injector.ledger)

        summary = summarize(replay, reports)
        summary["workload_seed"] = spec.workload_seed
        summary["replay_signature"] = replay.signature()
        cache = stack.service.telemetry_snapshot()["cache"]
        summary["cache"] = {key: cache[key] for key in ("searches", "derived")}
        if baseline is not None:
            summary["baseline_signature"] = baseline.signature()
        if cluster is not None:
            snapshot = stack.service.telemetry_snapshot()
            for key in ("routing", "admission", "health", "topology",
                        "breaker"):
                if key in snapshot:
                    summary[key] = snapshot[key]
        if stack.session is not None:
            generations = Counter(record.generation for record in replay.records)
            summary["live"] = stack.session.telemetry_snapshot()["live"]
            summary["live"]["records_by_generation"] = {
                str(generation): generations[generation]
                for generation in sorted(generations)}
        if stack.autoscaler is not None:
            summary["autoscale"] = stack.autoscaler.autoscale_snapshot()
        if stack.injector is not None:
            ledger = stack.injector.ledger
            summary["faults"] = {
                "plan_signature": plan.signature(),
                "plan_events": len(plan.events),
                "ledger_entries": len(ledger),
                "ledger_signature": ledger.signature(),
                "ledger_kinds": {kind: ledger.count(kind)
                                 for kind in ledger.kinds()},
                "answered": len(replay.records),
                "faulted_answers": sum(1 for record in replay.records
                                       if record.fault is not None),
            }

    print()
    print(render_report(summary))
    if arguments.summary_json is not None:
        arguments.summary_json.parent.mkdir(parents=True, exist_ok=True)
        arguments.summary_json.write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote summary to {arguments.summary_json}")
    code = 0
    if arguments.expect_no_shed:
        shed = sum(record.shed for record in replay.records)
        if shed:
            print(f"SHED CHECK FAILED: {shed} of {len(replay.records)} "
                  f"requests were shed", file=sys.stderr)
            code = 1
        else:
            print(f"shed check ok       0 of {len(replay.records)} "
                  f"requests shed")
    for report in reports:
        if not report.ok:
            print(f"ORACLE FAILED: {report.summary()}")
            for finding in report.findings[:10]:
                print(f"  {finding}")
            code = 1
    return code


def _command_explore(arguments: argparse.Namespace) -> int:
    """Sweep scenarios × cluster configs: k seeded episodes per cell.

    Every episode builds a fresh virtual-time cluster from the trained
    stack, generates a seeded trace, reshapes it through the scenario,
    replays it and runs the oracle battery; the cells aggregate into a
    deterministic comparison matrix (same seeds ⇒ bit-identical
    ``signature``).  Exit 1 if any oracle found a mismatch or any request
    went unanswered.
    """
    from .scenarios import (Explorer, ExplorerConfig, ScenarioError,
                            load_scenario, render_matrix, scenario_names)
    from .simulate import StackSpec, WorkloadConfig

    result = _result_for_serving(arguments)
    try:
        scenarios = [load_scenario(name)
                     for name in (arguments.scenario
                                  or ["baseline", "flash-crowd", "hot-shard"])]
    except ScenarioError as error:
        raise SystemExit(f"error: {error}")
    shard_counts = arguments.shards or [1, 4]
    if min(shard_counts) <= 0 or len(set(shard_counts)) != len(shard_counts):
        raise SystemExit(f"error: --shards {shard_counts} must be positive "
                         f"and distinct (one matrix column each)")
    spec = StackSpec(cache_capacity=arguments.cache_capacity)
    configs = [_cluster_config(arguments, result.config, shards,
                               arguments.replicas) for shards in shard_counts]
    for config in configs:
        _checked(dataclasses.replace(spec, cluster_config=config))

    explorer = Explorer(
        result, spec=spec,
        config=ExplorerConfig(
            episodes=arguments.episodes,
            seed=arguments.seed,
            workload=WorkloadConfig(num_requests=arguments.requests,
                                    seed=0,
                                    arrival=arguments.arrival),
            full_search_sample=arguments.oracle_sample))
    print(f"explore: {len(scenarios)} scenarios × {len(configs)} cluster "
          f"configs × {arguments.episodes} episodes "
          f"({arguments.requests} requests each, seed {arguments.seed}; "
          f"registry: {', '.join(scenario_names())})")
    matrix = explorer.run(scenarios, configs,
                          progress=lambda line: print(f"  {line}"))
    print()
    print(render_matrix(matrix))
    if arguments.matrix_json is not None:
        arguments.matrix_json.parent.mkdir(parents=True, exist_ok=True)
        payload = matrix.to_dict()
        payload["signature"] = matrix.signature()
        arguments.matrix_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote matrix to {arguments.matrix_json}")
    mismatches = matrix.total_oracle_mismatches()
    if mismatches:
        print(f"ORACLE FAILED: {mismatches} mismatches across the matrix",
              file=sys.stderr)
        return 1
    if not matrix.all_answered():
        print("ANSWER CHECK FAILED: some requests went unanswered",
              file=sys.stderr)
        return 1
    return 0


def _threshold(text: str) -> float:
    """``bench --threshold``: a fraction strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"{text} does not lie strictly between 0 and 1")
    return value


def _command_bench(arguments: argparse.Namespace) -> int:
    from .perf import (
        compare_with_baseline,
        default_baseline_path,
        load_baseline,
        render_report,
        run_bench,
        set_blas_threads,
        write_bench_json,
    )

    # One BLAS thread: with two, OpenBLAS made the gated serving ratios
    # bimodal between runs of the same commit.
    set_blas_threads(1)
    document = run_bench(arguments.profile, artifacts=arguments.artifacts)
    path = write_bench_json(document, arguments.out)
    print(render_report(document))
    print(f"\nwrote {path}")

    baseline_path = arguments.baseline or default_baseline_path(arguments.profile)
    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; regression gate skipped")
        return 0
    regressions = compare_with_baseline(document, load_baseline(baseline_path),
                                        threshold=arguments.threshold)
    if regressions:
        print(f"\nREGRESSIONS vs {baseline_path} "
              f"(threshold {arguments.threshold:.0%}):", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression.describe()}", file=sys.stderr)
        return 3
    print(f"regression gate ok vs {baseline_path} "
          f"(threshold {arguments.threshold:.0%})")
    return 0


def _command_experiments(arguments: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS

    selected = arguments.only or list(EXPERIMENTS)
    for key in selected:
        if key not in EXPERIMENTS:
            raise SystemExit(f"unknown experiment {key!r}; "
                             f"choose from {sorted(EXPERIMENTS)}")
    for key in selected:
        module = EXPERIMENTS[key]
        print(f"\n===== {key} =====")
        start = time.perf_counter()
        result = module.run(profile=arguments.profile)
        print(module.report(result))
        print(f"[{key} finished in {time.perf_counter() - start:.1f}s]")
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified CLI over the CADRL reproduction: pipeline runs, "
                    "artifact persistence, serving and simulation.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the full pipeline (train + eval + serve-check)")
    _add_config_arguments(run)
    run.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="artifact directory (enables fingerprint caching)")
    run.add_argument("--force", action="store_true",
                     help="recompute every stage even when cached")
    run.add_argument("--stages", nargs="*", default=None,
                     help="target stages (dependencies are pulled in automatically)")
    run.set_defaults(handler=_command_run)

    train = commands.add_parser("train", help="run the pipeline up to the train stage")
    _add_config_arguments(train)
    train.add_argument("--out", type=Path, default=None, metavar="DIR")
    train.add_argument("--force", action="store_true")
    train.set_defaults(handler=_command_train)

    evaluate = commands.add_parser("eval", help="ranking metrics of a trained stack")
    _add_config_arguments(evaluate)
    evaluate.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                          help="persisted pipeline directory to evaluate")
    evaluate.set_defaults(handler=_command_eval)

    serve = commands.add_parser("serve-demo",
                                help="boot the serving facade and push demo traffic")
    _add_config_arguments(serve)
    serve.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                       help="boot from a persisted pipeline instead of training")
    serve.add_argument("--users", type=int, default=20,
                       help="audience size for warm-up/burst traffic (default: 20)")
    serve.add_argument("--top-k", type=int, default=5, dest="top_k")
    serve.set_defaults(handler=_command_serve_demo)

    simulate = commands.add_parser("simulate",
                                   help="replay a seeded workload with correctness oracles")
    _add_config_arguments(simulate)
    simulate.add_argument("--artifacts", type=Path, default=None, metavar="DIR")
    simulate.add_argument("--requests", type=int, default=500)
    simulate.add_argument("--workload-seed", type=int, default=None,
                          dest="workload_seed",
                          help="workload generation seed (default: --seed, so "
                               "one flag reproduces the whole replay)")
    simulate.add_argument("--arrival", default="bursty",
                          choices=("uniform", "poisson", "bursty"))
    simulate.add_argument("--oracle-sample", type=int, default=50, dest="oracle_sample")
    simulate.add_argument("--shards", type=int, default=None, metavar="N",
                          help="serve through an N-shard cluster "
                               "(default: the run config's cluster spec)")
    simulate.add_argument("--replicas", type=int, default=None, metavar="R",
                          help="replication factor (default: min(2, N) when "
                               "--shards is given)")
    simulate.add_argument("--faults", type=Path, default=None,
                          metavar="PLAN.json",
                          help="fault-injection plan (repro.faults schema); "
                               "replays a fault-free baseline first and "
                               "audits the faulted replay against it")
    simulate.add_argument("--chaos-seed", type=int, default=None,
                          dest="chaos_seed", metavar="N",
                          help="derive a seeded random fault plan instead of "
                               "loading one (repro.faults.chaos_plan)")
    simulate.add_argument("--fail-shard", type=int, action="append",
                          default=None, dest="fail_shard", metavar="K",
                          help="mark shard K DOWN at boot (repeatable) — "
                               "deterministic failover injection; with "
                               "--faults/--chaos-seed it is a ledgered "
                               "shard_down event from t=0 instead")
    simulate.add_argument("--autoscale", action="store_true",
                          help="resize the cluster at virtual-time ticks from "
                               "shed/queue signals (deterministic, seeded); "
                               "boots at --min-shards")
    simulate.add_argument("--min-shards", type=int, default=None,
                          dest="min_shards", metavar="N",
                          help="autoscale floor (default 2)")
    simulate.add_argument("--max-shards", type=int, default=None,
                          dest="max_shards", metavar="N",
                          help="autoscale ceiling (default 6)")
    simulate.add_argument("--scale-tick", type=float, default=None,
                          dest="scale_tick", metavar="SECONDS",
                          help="autoscale decision interval in trace seconds "
                               "(default: duration / 40)")
    simulate.add_argument("--max-queue", type=int, default=None,
                          dest="max_queue", metavar="N",
                          help="override the per-shard admission queue bound "
                               "(smaller = earlier shedding); cluster replays "
                               "only")
    simulate.add_argument("--wall-clock", action="store_true",
                          help="measure real latencies instead of the "
                               "deterministic virtual-time replay")
    simulate.add_argument("--cache-capacity", type=int, default=None,
                          dest="cache_capacity", metavar="N",
                          help="override the per-service result-cache "
                               "capacity (cache-pressure experiments: each "
                               "shard owns its own cache of this size)")
    simulate.add_argument("--live-ingest", type=int, default=0,
                          dest="live_ingest", metavar="N",
                          help="enable live mode: synthesize N graph deltas "
                               "per scheduled ingest burst (0 = off)")
    simulate.add_argument("--ingest-at", type=float, action="append",
                          dest="ingest_at", metavar="FRAC",
                          help="fire an ingest burst at FRAC of the trace "
                               "duration (repeatable; default 0.35)")
    simulate.add_argument("--swap-at", type=float, action="append",
                          dest="swap_at", metavar="FRAC",
                          help="refresh and swap to the next artifact "
                               "generation at FRAC of the trace duration "
                               "(repeatable; default 0.6)")
    simulate.add_argument("--refresh-epochs", type=int, default=2,
                          dest="refresh_epochs", metavar="N",
                          help="warm-start TransE refresh epochs per "
                               "generation swap (default 2)")
    simulate.add_argument("--expect-no-shed", action="store_true",
                          dest="expect_no_shed",
                          help="exit non-zero if any request was shed "
                               "(the zero-downtime gate for live replays)")
    simulate.add_argument("--summary-json", type=Path, default=None,
                          dest="summary_json", metavar="FILE",
                          help="dump the machine-readable replay summary")
    simulate.add_argument("--scenario", default=None, metavar="NAME|SPEC.json",
                          help="reshape the workload through a scenario: a "
                               "registered name (repro.scenarios) or a JSON "
                               "spec file (see examples/scenarios/)")
    simulate.add_argument("--trace", type=Path, default=None, metavar="FILE",
                          help="replay a saved workload trace instead of "
                               "generating one (schema-checked)")
    simulate.add_argument("--save-trace", type=Path, default=None,
                          dest="save_trace", metavar="FILE",
                          help="save the final (possibly scenario-reshaped) "
                               "trace for bit-identical replay elsewhere")
    simulate.set_defaults(handler=_command_simulate)

    explore = commands.add_parser(
        "explore",
        help="sweep scenarios × cluster configs, k seeded episodes per cell")
    _add_config_arguments(explore)
    explore.add_argument("--artifacts", type=Path, default=None, metavar="DIR")
    explore.add_argument("--scenario", action="append", default=None,
                         metavar="NAME|SPEC.json",
                         help="scenario row of the matrix (repeatable; "
                              "default: baseline, flash-crowd, hot-shard)")
    explore.add_argument("--shards", type=int, action="append", default=None,
                         metavar="N",
                         help="cluster-config column with N shards "
                              "(repeatable; default: 1 and 4)")
    explore.add_argument("--replicas", type=int, default=2, metavar="R",
                         help="replication factor per column, capped at the "
                              "shard count (default: 2)")
    explore.add_argument("--episodes", type=int, default=3, metavar="K",
                         help="seeded episodes per cell (default: 3)")
    explore.add_argument("--requests", type=int, default=300,
                         help="requests per episode trace (default: 300)")
    explore.add_argument("--arrival", default="bursty",
                         choices=("uniform", "poisson", "bursty"))
    explore.add_argument("--max-queue", type=int, default=None,
                         dest="max_queue", metavar="N",
                         help="override the per-shard admission queue bound")
    explore.add_argument("--cache-capacity", type=int, default=None,
                         dest="cache_capacity", metavar="N",
                         help="override the per-service result-cache capacity")
    explore.add_argument("--oracle-sample", type=int, default=25,
                         dest="oracle_sample",
                         help="exact-replay oracle sample per episode "
                              "(default: 25)")
    explore.add_argument("--matrix-json", type=Path, default=None,
                         dest="matrix_json", metavar="FILE",
                         help="dump the comparison matrix (with its "
                              "signature) as JSON")
    explore.set_defaults(handler=_command_explore)

    bench = commands.add_parser("bench",
                                help="seeded performance benchmarks with a "
                                     "regression gate")
    bench.add_argument("--profile", default="medium", choices=("smoke", "medium"),
                       help="benchmark preset (default: medium)")
    bench.add_argument("--out", type=Path, default=Path("benchmarks"),
                       metavar="DIR", help="directory for BENCH_<timestamp>.json "
                                           "(default: benchmarks)")
    bench.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                       help="reuse a persisted pipeline instead of training "
                            "the bench stack")
    bench.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                       help="baseline JSON to gate against (default: "
                            "benchmarks/bench_baseline_<profile>.json)")
    bench.add_argument("--threshold", type=_threshold, default=0.30,
                       help="allowed fractional drop of gated metrics "
                            "(default: 0.30)")
    bench.set_defaults(handler=_command_bench)

    experiments = commands.add_parser("experiments",
                                      help="run the paper's tables and figures")
    experiments.add_argument("--profile", default="smoke", choices=("smoke", "paper"))
    experiments.add_argument("--only", nargs="*", default=None,
                             help="subset of experiment keys (e.g. table1 fig5)")
    experiments.set_defaults(handler=_command_experiments)

    lint = commands.add_parser("lint",
                               help="AST invariant linter over the repo's "
                                    "determinism/clock/NaN conventions")
    add_lint_arguments(lint)
    lint.set_defaults(handler=run_lint_command)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except PipelineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
