"""The ``borges`` command-line interface.

Subcommands:

* ``generate`` — build a synthetic universe and export its datasets
  (PeeringDB snapshot JSON, CAIDA-format as2org file, APNIC CSV).
* ``run`` — run the Borges pipeline and print headline results; can save
  the resulting mapping as JSON.
* ``experiment`` — regenerate a paper table/figure (``table3``..``fig9``
  or ``all``).
* ``compare`` — θ for AS2Org, as2org+ and Borges side by side.
* ``release`` — publish a run as a CAIDA-format as2org file.
* ``serve`` — boot the HTTP query API over a mapping snapshot, with
  request tracing, SLO burn-rate alerting and an optional access log.
* ``top`` — live terminal dashboard polling a running serve process.
* ``query`` — one-shot in-process lookups against a snapshot, or (with
  ``--host``/``--port``) against an already-running server.
* ``watch`` — the continuous-operation daemon: re-derive the mapping on
  a schedule, gate it against the active generation, archive it
  immutably and hot-swap it into a co-hosted query server.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .config import (
    ALL_FEATURES,
    ALL_STAGES,
    EXPERIMENT_IDS,
    BorgesConfig,
    UniverseConfig,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borges",
        description="Borges: AS-to-Organization mappings (IMC 2025 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print every event on stderr (default: warnings and errors)",
    )
    parser.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSON run manifest (spans, metrics, LLM usage) here",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="universe seed (default 42)"
    )
    parser.add_argument(
        "--fault-profile",
        choices=_fault_profile_names(),
        default=None,
        metavar="PROFILE",
        help=(
            "inject seeded faults from a named chaos profile "
            f"({', '.join(_fault_profile_names())}); overrides "
            "$BORGES_FAULT_PROFILE"
        ),
    )
    parser.add_argument(
        "--orgs",
        type=int,
        default=None,
        help="number of synthetic organizations (default: config default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and export a universe")
    gen.add_argument(
        "--out", type=Path, default=Path("datasets"), help="output directory"
    )
    gen.add_argument(
        "--stream",
        action="store_true",
        help=(
            "export chunk by chunk with bounded memory (output files are "
            "byte-identical to the default collect-all export)"
        ),
    )

    run = sub.add_parser("run", help="run the Borges pipeline")
    run.add_argument(
        "--features",
        nargs="*",
        choices=sorted(ALL_FEATURES),
        default=None,
        help="feature subset (default: all four)",
    )
    run.add_argument(
        "--save-mapping", type=Path, default=None, help="write mapping JSON here"
    )
    run.add_argument(
        "--save-as2org",
        type=Path,
        default=None,
        help="publish the mapping in CAIDA's as2org JSON-lines format",
    )
    run.add_argument(
        "--from-datasets",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "load peeringdb_snapshot.json + as2org.jsonl from DIR (as "
            "written by `borges generate`) instead of generating a "
            "universe; without a web driver the web features are skipped"
        ),
    )
    run.add_argument(
        "--stages",
        nargs="*",
        choices=sorted(ALL_STAGES),
        metavar="STAGE",
        default=None,
        help=(
            "restrict the run to these stages (plus their dependencies "
            "and the backbone); see --explain-plan for stage names"
        ),
    )
    run.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the stage plan (order, deps, cache status) and exit",
    )
    run.add_argument(
        "--artifact-cache",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "persist stage artifacts to DIR; a re-run with the same "
            "inputs is served from cache instead of recomputing"
        ),
    )
    run.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "partition the dataset into N org-closed shards and run one "
            "stage DAG per shard; the final mapping is byte-identical "
            "to an unsharded run"
        ),
    )
    run.add_argument(
        "--shard-workers",
        choices=("thread", "process"),
        default="thread",
        help=(
            "concurrency substrate for sharded runs: threads (share one "
            "GIL) or forked processes (CPU parallelism; results are "
            "byte-identical either way)"
        ),
    )
    _add_shard_fault_options(run)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument(
        "id",
        choices=sorted(EXPERIMENT_IDS) + ["all"],
        help="experiment id (table3..table9, fig7..fig9, all)",
    )
    exp.add_argument(
        "--max-rows", type=int, default=25, help="row limit when rendering"
    )
    exp.add_argument(
        "--svg-dir",
        type=Path,
        default=None,
        help="also write figure experiments as SVG charts into this directory",
    )

    sub.add_parser("compare", help="theta for all methods side by side")

    telemetry = sub.add_parser(
        "telemetry",
        help="run the pipeline and print a per-stage telemetry summary",
    )
    telemetry.add_argument(
        "--prometheus",
        action="store_true",
        help="also print metrics in Prometheus text format",
    )
    telemetry.add_argument(
        "--artifact-cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="use a persistent stage-artifact cache at DIR",
    )
    telemetry.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run sharded (one stage DAG per org-closed shard)",
    )
    telemetry.add_argument(
        "--shard-workers",
        choices=("thread", "process"),
        default="thread",
        help="thread (default) or forked-process shard workers",
    )
    _add_shard_fault_options(telemetry)

    sub.add_parser(
        "evolution", help="longitudinal study: theta/orgs per historical year"
    )

    explain = sub.add_parser(
        "explain", help="show the evidence linking two ASNs (or one ASN's org)"
    )
    explain.add_argument("asn_a", type=int)
    explain.add_argument("asn_b", type=int, nargs="?", default=None)

    release = sub.add_parser(
        "release",
        help="run the pipeline and publish a CAIDA-format as2org file",
    )
    release.add_argument(
        "--out",
        type=Path,
        default=Path("borges_as2org.jsonl"),
        help="release file path (.gz for gzip; default borges_as2org.jsonl)",
    )
    release.add_argument(
        "--features",
        nargs="*",
        choices=sorted(ALL_FEATURES),
        default=None,
        help="feature subset (default: all four)",
    )

    serve = sub.add_parser(
        "serve", help="serve ASN->org queries over HTTP (the read path)"
    )
    _add_snapshot_option(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "serve with N forked worker processes sharing one read-only "
            "compiled snapshot behind SO_REUSEPORT (default 1: the "
            "classic single-process tier)"
        ),
    )
    serve.add_argument(
        "--pool-state",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "state directory for --workers mode (the shared snapshot "
            "segment and per-worker state; default: under /dev/shm)"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="concurrent requests admitted before queueing (0 disables "
        "admission control; default 64)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=128,
        help="requests allowed to wait for a slot before shedding with "
        "429 (default 128)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=1000.0,
        help="per-request deadline while queued, in milliseconds; doubles "
        "as the Retry-After hint on shed requests (default 1000)",
    )
    serve.add_argument(
        "--history",
        type=int,
        default=None,
        help="last-known-good generations retained for rollback (default "
        "3); single-process tier only: a --workers pool serves one "
        "generation",
    )
    serve.add_argument(
        "--rollback",
        action="store_true",
        help="instead of serving, ask the server already running at "
        "--host/--port to roll back to its last-known-good snapshot "
        "(single-process tier only)",
    )
    serve.add_argument(
        "--access-log",
        type=Path,
        default=None,
        metavar="PATH",
        help="append structured JSONL events (access log, admission "
        "rejections, snapshot swaps) to this file",
    )
    serve.add_argument(
        "--access-log-sample",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="fraction of http.access events kept (default 1.0; "
        "warning+ events are never sampled away)",
    )
    serve.add_argument(
        "--no-slo",
        action="store_true",
        help="disable the SLO tracker, exemplar store and runtime sampler",
    )
    serve.add_argument(
        "--slo-availability",
        type=float,
        default=0.999,
        help="availability objective (default 0.999)",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=100.0,
        help="latency SLO threshold in milliseconds (default 100)",
    )
    serve.add_argument(
        "--slo-fast-window",
        type=float,
        default=300.0,
        help="fast burn-rate window in seconds (default 300)",
    )
    serve.add_argument(
        "--slo-slow-window",
        type=float,
        default=3600.0,
        help="slow burn-rate window in seconds (default 3600)",
    )
    serve.add_argument(
        "--burn-threshold",
        type=float,
        default=14.4,
        help="burn rate at which the SLO alert fires (default 14.4)",
    )
    serve.add_argument(
        "--exemplar-threshold-ms",
        type=float,
        default=50.0,
        help="requests slower than this are kept as exemplars with "
        "their span tree (default 50)",
    )
    serve.add_argument(
        "--sampler-interval",
        type=float,
        default=5.0,
        help="seconds between runtime gauge samples (default 5)",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard for a running serve process",
    )
    top.add_argument("--host", default="127.0.0.1", help="server address")
    top.add_argument(
        "--port", type=int, default=8642, help="server port (default 8642)"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="refresh this many times then exit (default: until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="print refreshes sequentially instead of clearing the screen",
    )
    top.add_argument(
        "--pool",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "watch a multi-worker pool instead: per-worker rows (pid, "
            "rps, in-flight, generation) from DIR's worker state files "
            "plus a machine-total line"
        ),
    )

    query = sub.add_parser(
        "query", help="one-shot lookups against a snapshot (no server)"
    )
    _add_snapshot_option(query)
    query.add_argument(
        "asns", type=int, nargs="*", help="ASNs to look up"
    )
    query.add_argument(
        "--org", default=None, metavar="ORG_ID", help="look up one organization"
    )
    query.add_argument(
        "--search", default=None, metavar="QUERY", help="search org names"
    )
    query.add_argument(
        "--siblings",
        type=int,
        nargs=2,
        default=None,
        metavar=("A", "B"),
        help="are these two ASNs mapped to the same organization?",
    )
    query.add_argument(
        "--host",
        default=None,
        help="query a running server at this address instead of loading "
        "a snapshot in-process",
    )
    query.add_argument(
        "--port", type=int, default=8642, help="server port (default 8642)"
    )
    query.add_argument(
        "--gen",
        type=int,
        default=None,
        metavar="N",
        help="time-travel: answer ASN lookups from archived generation N "
        "(requires --host; the server must run `borges watch`)",
    )

    watch = sub.add_parser(
        "watch",
        help="continuously re-derive, gate, archive and serve the mapping",
    )
    watch.add_argument(
        "--archive",
        type=Path,
        default=Path("watch-archive"),
        metavar="DIR",
        help="versioned snapshot archive directory (default watch-archive)",
    )
    watch.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="PATH",
        help="run journal path (default: <archive>/journal.jsonl)",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=60.0,
        help="seconds between refresh cycles (default 60)",
    )
    watch.add_argument(
        "--cycles",
        type=int,
        default=0,
        help="stop after this many cycles (default 0 = run until Ctrl-C)",
    )
    watch.add_argument(
        "--evolve",
        action="store_true",
        help="advance the universe seed every cycle so the dataset digest "
        "changes (demo mode; without it an unchanged dataset is skipped)",
    )
    watch.add_argument(
        "--run-on-unchanged",
        action="store_true",
        help="re-publish even when the dataset digest already published",
    )
    watch.add_argument("--host", default="127.0.0.1", help="bind address")
    watch.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    watch.add_argument(
        "--no-http",
        action="store_true",
        help="run the refresh loop without the co-hosted query server",
    )
    watch.add_argument(
        "--max-org-shrink", type=float, default=0.20,
        help="gate: max fractional org-count shrink (default 0.20)",
    )
    watch.add_argument(
        "--max-org-growth", type=float, default=0.50,
        help="gate: max fractional org-count growth (default 0.50)",
    )
    watch.add_argument(
        "--max-coverage-drop", type=float, default=0.05,
        help="gate: max fractional ASN-coverage drop (default 0.05)",
    )
    watch.add_argument(
        "--max-churn", type=float, default=0.35,
        help="gate: max fraction of common ASNs changing org (default 0.35)",
    )
    watch.add_argument(
        "--min-precision", type=float, default=0.0,
        help="gate: ground-truth pairwise-precision floor (default 0: off)",
    )
    watch.add_argument(
        "--archive-max-entries", type=int, default=64,
        help="archive retention: generations kept (default 64)",
    )
    watch.add_argument(
        "--archive-max-bytes", type=int, default=0,
        help="archive retention: total bytes kept (default 0 = unbounded)",
    )
    watch.add_argument(
        "--free-bytes-floor", type=int, default=0,
        help="refuse publishes when free disk falls below this (default 0)",
    )
    watch.add_argument(
        "--max-restarts", type=int, default=5,
        help="halt the loop after this many failures in the restart "
        "window (default 5); serving continues",
    )
    watch.add_argument(
        "--restart-window", type=float, default=600.0,
        help="restart-budget window in seconds (default 600)",
    )
    watch.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run each refresh sharded; completed shards are journaled "
        "to <archive>/shard-checkpoint.jsonl so a mid-refresh crash "
        "resumes from the finished shards (default 1 = unsharded)",
    )
    watch.add_argument(
        "--shard-retries", type=int, default=1, metavar="N",
        help="per-shard retry budget during sharded refreshes (default 1)",
    )
    watch.add_argument(
        "--shard-deadline", type=float, default=0.0, metavar="SECONDS",
        help="kill and retry a shard attempt running past SECONDS "
        "(default 0 = no deadline)",
    )
    return parser


def _add_snapshot_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "mapping snapshot to serve: a CAIDA-format as2org file (as "
            "written by `borges release`) or an OrgMapping JSON (as "
            "written by `borges run --save-mapping`); default: run the "
            "pipeline on a fresh synthetic universe"
        ),
    )


def _add_shard_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "retry a failed/crashed/hung shard up to N more times before "
            "quarantining it (default 1)"
        ),
    )
    parser.add_argument(
        "--shard-deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "kill a shard attempt that runs past SECONDS and retry it "
            "(0 = no deadline; a hang fault profile implies one)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "journal each completed shard to PATH so a crashed or "
            "degraded sharded run can be resumed with --resume"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the checkpoint: shards already journaled for "
            "this run identity are not re-run (default checkpoint path "
            "borges-checkpoint.jsonl when --checkpoint is omitted)"
        ),
    )


def _shard_fault_kwargs(args: argparse.Namespace) -> dict:
    checkpoint = args.checkpoint
    if checkpoint is None and args.resume:
        checkpoint = Path("borges-checkpoint.jsonl")
    return {
        "shard_retries": max(0, args.shard_retries),
        "shard_deadline": args.shard_deadline or None,
        "checkpoint_path": checkpoint,
        "resume": args.resume,
    }


def _fault_profile_names() -> Sequence[str]:
    from .resilience.faults import PROFILES

    return sorted(PROFILES)


def _borges_config(args: argparse.Namespace) -> BorgesConfig:
    config = BorgesConfig()
    if getattr(args, "fault_profile", None):
        config = config.with_fault_profile(args.fault_profile)
    return config


def _universe_config(args: argparse.Namespace) -> UniverseConfig:
    config = UniverseConfig(seed=args.seed)
    if args.orgs is not None:
        import dataclasses

        config = dataclasses.replace(config, n_organizations=args.orgs)
    return config.validate()


def _cmd_generate(args: argparse.Namespace) -> int:
    from .obs import record_peak_rss
    from .peeringdb import save_snapshot
    from .universe import generate_universe
    from .whois import save_as2org_file

    out: Path = args.out
    if args.stream:
        from .universe import export_universe_streaming

        def progress(index: int, total: int, asns: int) -> None:
            if args.verbose:
                print(f"  chunk {index + 1}/{total}: {asns:,} ASNs exported")

        summary = export_universe_streaming(
            _universe_config(args), out, progress=progress
        )
        print(f"exported universe (seed {args.seed}) to {out}/ [streamed]")
        for key, value in sorted(summary.items()):
            print(f"  {key}: {value:,}")
    else:
        universe = generate_universe(_universe_config(args))
        out.mkdir(parents=True, exist_ok=True)
        save_snapshot(universe.pdb, out / "peeringdb_snapshot.json")
        save_as2org_file(universe.whois, out / "as2org.jsonl")
        universe.apnic.save_csv(out / "apnic_population.csv")
        print(f"exported universe (seed {args.seed}) to {out}/")
        for key, value in sorted(universe.summary().items()):
            print(f"  {key}: {value:,.0f}")
    print(f"  peak_rss_mib: {record_peak_rss() / (1 << 20):,.0f}")
    return 0


def _artifact_store(args: argparse.Namespace):
    if getattr(args, "artifact_cache", None) is None:
        return None
    from .core import ArtifactStore

    return ArtifactStore(root=args.artifact_cache)


def _stage_summary_lines(result) -> Sequence[str]:
    records = result.stage_records
    cached = sum(1 for r in records if r["status"] == "cached")
    lines = [
        f"stages: {len(records)} planned, {cached} served from cache, "
        f"{sum(1 for r in records if r['status'] == 'ok')} computed"
    ]
    for record in records:
        duration_ms = 1000.0 * float(record.get("duration_seconds", 0.0))
        stage = str(record["stage"])
        if record.get("shard") is not None:
            stage = f"{stage}#{record['shard']}"
        lines.append(
            f"  {stage:<12} {record['status']:<8} "
            f"{(record['source'] or '-'):<9} {duration_ms:>8.1f} ms  "
            f"[{record['fingerprint'][:12]}]"
        )
    return lines


def _shard_summary_lines(result) -> Sequence[str]:
    """Partition + per-shard accounting of a `run_sharded` result."""
    partition = result.diagnostics.get("partition", {})
    lines = [
        f"shards: {partition.get('shards')} "
        f"(requested {partition.get('requested_shards')}), "
        f"{partition.get('components'):,} components over "
        f"{partition.get('asns'):,} ASNs "
        f"(largest component {partition.get('largest_component'):,})"
    ]
    for shard in result.diagnostics.get("shards", []):
        status = str(shard.get("status", "ok"))
        suffix = ""
        if status == "quarantined":
            suffix = (
                f"  QUARANTINED after {shard.get('attempts', 0)} attempts"
                f" ({shard.get('error', '')})"
            )
        elif status == "resumed":
            suffix = "  resumed from checkpoint"
        elif shard.get("degraded"):
            suffix = "  DEGRADED"
        lines.append(
            f"  shard {shard['shard']}: {shard['asns']:>7,} ASNs "
            f"{shard['components']:>6,} components "
            f"{1000.0 * float(shard['duration_seconds']):>8.1f} ms  "
            f"{shard['llm_requests']:>5} llm requests"
            + suffix
        )
    fault = result.diagnostics.get("fault_tolerance")
    if isinstance(fault, dict):
        posture = result.shard_posture() if hasattr(result, "shard_posture") else {}
        lines.append(
            f"shard posture: {posture.get('ok', 0)}/{posture.get('shards', 0)} ok, "
            f"{len(fault.get('failed_shards', []))} quarantined, "
            f"{len(fault.get('resumed_shards', []))} resumed, "
            f"{fault.get('retry_total', 0)} retries"
            + (" — SALVAGED (degraded mapping)" if fault.get("failed_shards") else "")
        )
        checkpoint = fault.get("checkpoint")
        if isinstance(checkpoint, dict):
            lines.append(
                f"checkpoint: {checkpoint.get('path')} "
                f"({len(checkpoint.get('completed_shards', []))} shards journaled)"
            )
    return lines


def _peak_rss_line(result) -> Optional[str]:
    peak = result.diagnostics.get("peak_rss_bytes")
    if not peak:
        return None
    return f"peak rss: {float(peak) / (1 << 20):,.0f} MiB"


def _cmd_run(args: argparse.Namespace) -> int:
    from .core import BorgesPipeline
    from .metrics import org_factor_from_mapping
    from .universe import generate_universe
    from .web.simweb import SimulatedWeb

    config = _borges_config(args)
    if args.features is not None:
        config = config.with_features(*args.features)
    store = _artifact_store(args)
    if args.from_datasets is not None:
        from .peeringdb import load_snapshot
        from .whois import load_as2org_file

        directory: Path = args.from_datasets
        pdb = load_snapshot(directory / "peeringdb_snapshot.json")
        whois = load_as2org_file(directory / "as2org.jsonl")
        # Real deployments point the scraper at the live web; from bare
        # dataset files the web features have nothing to crawl.
        web = SimulatedWeb()
        if args.features is None:
            config = config.with_features("oid_p", "notes_aka")
            print(
                "note: no web driver for dataset files — running with "
                "features oid_p + notes_aka"
            )
    else:
        universe = generate_universe(_universe_config(args))
        whois, pdb, web = universe.whois, universe.pdb, universe.web
    if args.explain_plan or args.shards <= 1:
        # A sharded run digests each shard, never the whole universe.
        pipeline = BorgesPipeline(whois, pdb, web, config, artifact_store=store)
    if args.explain_plan:
        print(pipeline.explain_plan(args.stages))
        return 0
    if args.shards > 1:
        from .core import run_sharded

        result = run_sharded(
            whois,
            pdb,
            web,
            config,
            n_shards=args.shards,
            stages=args.stages,
            artifact_store=store,
            shard_workers=args.shard_workers,
            **_shard_fault_kwargs(args),
        )
        _RUN_ARTIFACTS.update(config=config, result=result)
    else:
        result = pipeline.run(stages=args.stages)
        _RUN_ARTIFACTS.update(
            config=pipeline.config, result=result, client=pipeline.client
        )
    if result.degraded:
        print("WARNING: run completed DEGRADED — features lost to failures:")
        for name, error in sorted(result.feature_errors.items()):
            print(f"  {name}: {error}")
    print(f"method: {result.mapping.method}")
    for row in result.feature_table():
        print(f"  {row['source']:>10}: {row['asns']:>7,} ASes, {row['orgs']:>7,} orgs")
    theta = org_factor_from_mapping(result.mapping)
    print(f"organizations: {len(result.mapping):,}")
    print(f"organization factor (theta): {theta:.4f}")
    if args.shards > 1:
        for line in _shard_summary_lines(result):
            print(line)
        print(f"llm usage: {result.diagnostics.get('llm_requests', 0)} requests")
        rss_line = _peak_rss_line(result)
        if rss_line:
            print(rss_line)
    else:
        usage = pipeline.client.total_usage
        print(
            f"llm usage: {pipeline.client.request_count} requests, "
            f"{usage.total_tokens:,} tokens (~${usage.cost_usd():.4f})"
        )
        print(_cache_summary_line(result.diagnostics.get("llm_cache", {})))
    if store is not None:
        for line in _stage_summary_lines(result):
            print(line)
    if args.save_mapping:
        result.mapping.save(args.save_mapping)
        print(f"mapping saved to {args.save_mapping}")
    if args.save_as2org:
        from .core.release import save_mapping_as2org

        save_mapping_as2org(result.mapping, whois, args.save_as2org)
        print(f"CAIDA-format mapping saved to {args.save_as2org}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS, ExperimentContext, run_experiment

    context = ExperimentContext.build(_universe_config(args))
    ids = sorted(EXPERIMENTS) if args.id == "all" else [args.id]
    for experiment_id in ids:
        report = run_experiment(experiment_id, context=context)
        print(report.render(max_rows=args.max_rows))
        if args.svg_dir is not None:
            from .experiments.svg import save_report_svg

            path = save_report_svg(report, args.svg_dir)
            if path is not None:
                print(f"svg written to {path}")
        print()
    return 0


#: Artifacts the last command produced, for the --telemetry-out manifest.
_RUN_ARTIFACTS: dict = {}


def _cache_summary_line(stats: dict) -> str:
    hits = int(stats.get("hits", 0))
    misses = int(stats.get("misses", 0))
    lookups = hits + misses
    rate = 100.0 * hits / lookups if lookups else 0.0
    return (
        f"llm cache: {hits:,} hits, {misses:,} misses "
        f"({rate:.1f}% hit rate, {int(stats.get('entries', 0)):,} entries)"
    )


def _print_span_tree(spans, indent: int = 0) -> None:
    for span in spans:
        print(f"  {'  ' * indent}{span.name:<{30 - 2 * indent}} "
              f"{span.duration * 1000:>9.1f} ms  [{span.status}]")
        _print_span_tree(span.children, indent + 1)


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .core import BorgesPipeline
    from .obs import get_registry, get_tracer
    from .universe import generate_universe

    universe = generate_universe(_universe_config(args))
    config = _borges_config(args)
    if args.shards > 1:
        from .core import run_sharded

        result = run_sharded(
            universe.whois,
            universe.pdb,
            universe.web,
            config,
            n_shards=args.shards,
            artifact_store=_artifact_store(args),
            shard_workers=args.shard_workers,
            **_shard_fault_kwargs(args),
        )
        _RUN_ARTIFACTS.update(config=config, result=result)
    else:
        pipeline = BorgesPipeline(
            universe.whois, universe.pdb, universe.web, config,
            artifact_store=_artifact_store(args),
        )
        result = pipeline.run()
        _RUN_ARTIFACTS.update(
            config=pipeline.config, result=result, client=pipeline.client
        )
    print("stage execution:")
    for line in _stage_summary_lines(result):
        print(line)
    print("stage timings:")
    _print_span_tree(get_tracer().spans())
    if args.shards > 1:
        for line in _shard_summary_lines(result):
            print(line)
        print(f"llm usage: {result.diagnostics.get('llm_requests', 0)} requests")
    else:
        usage = pipeline.client.total_usage
        print(
            f"llm usage: {pipeline.client.request_count} requests, "
            f"{usage.prompt_tokens:,} prompt + {usage.completion_tokens:,} "
            f"completion tokens (~${usage.cost_usd():.4f})"
        )
        print(_cache_summary_line(pipeline.client.cache_stats()))
    rss_line = _peak_rss_line(result)
    if rss_line:
        print(rss_line)
    print(f"organizations: {len(result.mapping):,}")
    resilience = result.diagnostics.get("resilience", {})
    if isinstance(resilience, dict) and resilience.get("fault_profile") != "none":
        print(f"fault profile: {resilience.get('fault_profile')}")
        for label, count in sorted(
            dict(resilience.get("faults_injected", {})).items()
        ):
            print(f"  injected {label}: {count}")
    if result.degraded:
        print(f"DEGRADED run; failed features: {sorted(result.feature_errors)}")
    registry = get_registry()
    print(f"metric families: {len(registry.families())}")
    if args.prometheus:
        from .obs import render_prometheus

        print()
        print(render_prometheus(registry), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .baselines import (
        build_as2org_mapping,
        build_as2orgplus_mapping,
        build_chen_mapping,
    )
    from .core import BorgesPipeline
    from .metrics import org_factor_from_mapping
    from .universe import generate_universe

    universe = generate_universe(_universe_config(args))
    borges = BorgesPipeline(universe.whois, universe.pdb, universe.web).run().mapping
    as2org = build_as2org_mapping(universe.whois)
    as2orgplus = build_as2orgplus_mapping(universe.whois, universe.pdb)
    chen = build_chen_mapping(universe.whois, universe.pdb)
    baseline = org_factor_from_mapping(as2org)
    print(f"{'method':<14} {'theta':>8} {'vs AS2Org':>10} {'orgs':>8}")
    for name, mapping in (
        ("AS2Org", as2org),
        ("as2org+", as2orgplus),
        ("chen-mismatch", chen),
        ("Borges", borges),
    ):
        theta = org_factor_from_mapping(mapping)
        delta = 100.0 * (theta / baseline - 1.0)
        print(f"{name:<14} {theta:>8.4f} {delta:>+9.2f}% {len(mapping):>8,}")
    return 0


def _cmd_evolution(args: argparse.Namespace) -> int:
    from .longitudinal import build_snapshot_series, run_longitudinal_study
    from .universe import generate_universe

    universe = generate_universe(_universe_config(args))
    series = build_snapshot_series(universe)
    report = run_longitudinal_study(series)
    print(f"{'year':>6} {'theta':>8} {'orgs':>8} {'pending M&A':>12}")
    for snapshot, result in zip(series.snapshots, report.results):
        print(
            f"{result.year:>6} {result.theta:>8.4f} {result.org_count:>8,} "
            f"{len(snapshot.pending_brand_ids):>12}"
        )
    print(f"merge events detected between snapshots: {len(report.merges)}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core import BorgesPipeline
    from .core.evidence import MappingExplainer, collect_evidence
    from .universe import generate_universe

    universe = generate_universe(_universe_config(args))
    pipeline = BorgesPipeline(universe.whois, universe.pdb, universe.web)
    result = pipeline.run()
    explainer = MappingExplainer(
        collect_evidence(result, universe.whois, universe.pdb)
    )
    mapping = result.mapping
    a = args.asn_a
    if a not in mapping:
        print(f"AS{a} is not a delegated ASN in this universe")
        return 1
    if args.asn_b is None:
        cluster = sorted(mapping.cluster_of(a))
        print(
            f"AS{a} belongs to {mapping.org_name_of(a)!r} "
            f"({len(cluster)} networks): {cluster}"
        )
        for item in explainer.evidence_for(a):
            print(f"  {item.describe()}")
        return 0
    b = args.asn_b
    if not mapping.are_siblings(a, b):
        print(f"AS{a} and AS{b} are NOT mapped to the same organization")
        return 0
    confidence = explainer.confidence(a, b)
    print(
        f"AS{a} and AS{b} are siblings ({mapping.org_name_of(a)!r}); "
        f"confidence: {confidence}; evidence:"
    )
    chain = explainer.why_siblings(a, b) or []
    for step, item in enumerate(chain, start=1):
        print(f"  {step}. {item.describe()}")
    for item in explainer.direct_support(a, b)[1:4]:
        if item not in chain:
            print(f"  also: {item.describe()}")
    return 0


def _cmd_release(args: argparse.Namespace) -> int:
    from .core import BorgesPipeline
    from .core.release import save_mapping_as2org
    from .universe import generate_universe

    config = _borges_config(args)
    if args.features is not None:
        config = config.with_features(*args.features)
    universe = generate_universe(_universe_config(args))
    pipeline = BorgesPipeline(universe.whois, universe.pdb, universe.web, config)
    result = pipeline.run()
    _RUN_ARTIFACTS.update(
        config=pipeline.config, result=result, client=pipeline.client
    )
    save_mapping_as2org(result.mapping, universe.whois, args.out)
    print(
        f"released {len(result.mapping):,} organizations "
        f"({result.mapping.universe_size:,} ASNs) to {args.out}"
    )
    print(f"serve it with: borges serve --snapshot {args.out}")
    return 0


def _sniff_snapshot_kind(path: Path) -> str:
    """``release`` (as2org JSON-lines), ``mapping`` (OrgMapping JSON) or
    ``blob`` (compiled snapshot)."""
    from .serve.shm import BLOB_MAGIC, BLOB_SUFFIX

    if path.suffix == BLOB_SUFFIX:
        return "blob"
    with open(path, "rb") as fh:
        if fh.read(len(BLOB_MAGIC)) == BLOB_MAGIC:
            return "blob"
    if path.suffix == ".gz" or path.suffix == ".jsonl":
        return "release"
    import json as _json

    from .whois.as2org_file import RELEASE_HEADER_PREFIX

    first = ""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(RELEASE_HEADER_PREFIX.rstrip()):
                return "release"
            if stripped.startswith("#"):
                continue  # other comments say nothing about the format
            first = stripped
            break
    try:
        record = _json.loads(first)
    except ValueError:
        return "mapping"
    if isinstance(record, dict) and record.get("type") in ("Organization", "ASN"):
        return "release"
    return "mapping"


def _serve_injector(args: argparse.Namespace):
    """A seeded FaultInjector when a chaos profile is in force, else None."""
    from .obs import get_registry
    from .resilience.faults import FaultInjector, resolve_fault_profile

    profile = resolve_fault_profile(getattr(args, "fault_profile", None))
    if not profile.active:
        return None
    return FaultInjector(profile, seed=args.seed, registry=get_registry())


def _build_service(args: argparse.Namespace):
    """A QueryService with one generation loaded per the CLI options."""
    from .obs import get_registry
    from .obs.log import EventLog, set_event_log
    from .obs.slo import ExemplarStore, SLOConfig, SLOTracker
    from .serve import AdmissionController, AdmissionLimits, QueryService
    from .serve.store import SnapshotStore

    registry = get_registry()
    injector = _serve_injector(args)
    admission = None
    max_inflight = getattr(args, "max_inflight", 0)
    if max_inflight:
        limits = AdmissionLimits(
            max_inflight=max_inflight,
            max_queue=getattr(args, "max_queue", 128),
            default_deadline=getattr(args, "deadline_ms", 1000.0) / 1000.0,
        ).validate()
        admission = AdmissionController(limits, registry=registry)
    history = getattr(args, "history", None)
    store = SnapshotStore(
        registry=registry,
        history_limit=3 if history is None else history,
        injector=injector,
    )
    slo = None
    exemplars = None
    if not getattr(args, "no_slo", True):
        slo = SLOTracker(
            SLOConfig(
                availability_objective=getattr(args, "slo_availability", 0.999),
                latency_threshold=getattr(args, "slo_latency_ms", 100.0) / 1e3,
                fast_window_seconds=getattr(args, "slo_fast_window", 300.0),
                slow_window_seconds=getattr(args, "slo_slow_window", 3600.0),
                burn_rate_threshold=getattr(args, "burn_threshold", 14.4),
            ),
            registry=registry,
        )
        exemplars = ExemplarStore(
            threshold=getattr(args, "exemplar_threshold_ms", 50.0) / 1e3
        )
    access_log = getattr(args, "access_log", None)
    if access_log is not None:
        # File-sinked log, installed globally so admission/store/executor
        # events land in the same JSONL stream as http.access.
        set_event_log(EventLog(path=access_log))
    service = QueryService(
        store=store,
        registry=registry,
        admission=admission,
        injector=injector,
        slo=slo,
        exemplars=exemplars,
        access_log_sample=getattr(args, "access_log_sample", 1.0),
    )
    if args.snapshot is not None:
        path: Path = args.snapshot
        kind = _sniff_snapshot_kind(path)
        if kind == "release":
            snapshot = service.store.load_from_release_file(path)
        elif kind == "blob":
            snapshot = service.store.load_from_blob_file(path)
        else:
            snapshot = service.store.load_from_mapping_file(path)
    else:
        from .core import BorgesPipeline
        from .universe import generate_universe

        universe = generate_universe(_universe_config(args))
        pipeline = BorgesPipeline(
            universe.whois, universe.pdb, universe.web, _borges_config(args)
        )
        result = pipeline.run()
        _RUN_ARTIFACTS.update(
            config=pipeline.config, result=result, client=pipeline.client
        )
        snapshot = service.store.load_from_mapping(
            result.mapping,
            whois=universe.whois,
            pdb=universe.pdb,
            label=f"pipeline seed={args.seed}",
        )
    described = snapshot.describe()
    print(
        f"snapshot generation {described['generation']}: "
        f"{described['orgs']:,} orgs / {described['asns']:,} ASNs "
        f"from {described['source']} ({described['label']})"
    )
    _RUN_ARTIFACTS["service"] = service
    return service


def _cmd_rollback_client(args: argparse.Namespace) -> int:
    """POST /v1/admin/rollback against an already-running server."""
    import json as _json
    import urllib.error
    import urllib.request

    url = f"http://{args.host}:{args.port}/v1/admin/rollback"
    request = urllib.request.Request(url, data=b"{}", method="POST")
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            body = _json.loads(response.read())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        print(f"rollback refused ({exc.code}): {detail}")
        return 1
    except OSError as exc:
        print(f"rollback failed: cannot reach {url}: {exc}")
        return 1
    print(
        f"rolled back to generation {body['generation']} "
        f"({body['restored']}; {body['orgs']:,} orgs / {body['asns']:,} ASNs)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import get_event_log
    from .obs.slo import RuntimeSampler
    from .serve import QueryServer

    if args.rollback:
        return _cmd_rollback_client(args)
    if args.workers > 1:
        if args.history is not None:
            print(
                "error: --history applies to the single-process tier; a "
                "--workers pool serves one generation and keeps no history",
                file=sys.stderr,
            )
            return 2
        return _cmd_serve_pool(args)
    service = _build_service(args)
    server = QueryServer(service, host=args.host, port=args.port)
    sampler = None
    if service.slo is not None:
        sampler = RuntimeSampler(
            registry=service.registry,
            interval=args.sampler_interval,
            admission=service.admission,
        ).start()
    print(f"serving on {server.url}  (Ctrl-C to stop)")
    if service.admission is not None:
        limits = service.admission.limits
        print(
            f"admission: {limits.max_inflight} in-flight / "
            f"{limits.max_queue} queued, "
            f"{limits.default_deadline * 1e3:.0f} ms deadline"
        )
    if service.slo is not None:
        config = service.slo.config
        print(
            f"slo: availability {config.availability_objective}, "
            f"latency {config.latency_threshold * 1e3:.0f} ms @ "
            f"{config.latency_objective}; alerts at burn "
            f"{config.burn_rate_threshold} "
            f"({config.fast_window_seconds:.0f}s/"
            f"{config.slow_window_seconds:.0f}s windows)"
        )
    if args.access_log is not None:
        print(f"access log: {args.access_log}")
    print(f"  watch: borges top --host {args.host} --port {server.port}")
    print(f"  try: curl {server.url}/v1/asn/{service.store.current().index.first_asn()}")
    try:
        server.serve_until_interrupt()
    finally:
        if sampler is not None:
            sampler.stop()
        log = get_event_log()
        if log.path is not None:
            log.close()
    stats = service.stats()
    print("server stopped; request totals:")
    for key, value in sorted(dict(stats["requests"]).items()):
        print(f"  {key}: {value:,.0f}")
    return 0


def _cmd_serve_pool(args: argparse.Namespace) -> int:
    """``borges serve --workers N``: the multi-process tier.

    The snapshot is loaded once (any kind ``--snapshot`` accepts, or a
    fresh pipeline run) and its index blob is written once as-is: N
    forked workers map it read-only behind ``SO_REUSEPORT`` and serve it
    until the pool stops.
    """
    from .serve.shm.pool import WorkerConfig, WorkerPool

    service = _build_service(args)
    blob = bytes(service.store.current().index.blob)
    config = WorkerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        deadline=args.deadline_ms / 1000.0,
    )
    pool = WorkerPool(config, state_dir=args.pool_state)
    pool.start(blob)
    print(
        f"serving on {pool.url} with {args.workers} worker processes "
        f"over one {len(blob):,}-byte shared snapshot  (Ctrl-C to stop)"
    )
    print(f"  pool state: {pool.state_dir}")
    print(f"  watch: borges top --pool {pool.state_dir}")
    asn = service.store.current().index.first_asn()
    if asn is not None:
        print(f"  try: curl {pool.url}/v1/asn/{asn}")
    pool.serve_until_interrupt()
    print(f"pool stopped after {pool.respawns} worker respawns")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .serve.top import run_top

    return run_top(
        host=args.host,
        port=args.port,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
        pool=args.pool,
    )


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """``borges query --host``: the same lookups over a running server."""
    import json as _json
    import urllib.error
    import urllib.parse
    import urllib.request

    base = f"http://{args.host}:{args.port}"
    requests: list = []
    gen_suffix = f"?gen={args.gen}" if args.gen is not None else ""
    for asn in args.asns:
        requests.append(f"/v1/asn/{asn}{gen_suffix}")
    if args.org:
        requests.append(f"/v1/org/{urllib.parse.quote(args.org)}")
    if args.search:
        requests.append(f"/v1/search?q={urllib.parse.quote(args.search)}")
    if args.siblings:
        a, b = args.siblings
        requests.append(f"/v1/siblings?a={a}&b={b}")
    status = 0
    for path in requests:
        try:
            with urllib.request.urlopen(base + path, timeout=10.0) as response:
                body = _json.loads(response.read())
        except urllib.error.HTTPError as exc:
            # The server answered: print its error body, flag the exit
            # code, keep going — other lookups may still succeed.
            try:
                body = _json.loads(exc.read())
            except ValueError:
                body = {"error": f"HTTP {exc.code}"}
            body["status"] = exc.code
            status = 1
        except (OSError, ValueError):
            print(f"server unreachable at {args.host}:{args.port}")
            return 1
        print(_json.dumps(body, indent=2, sort_keys=True))
    return status


def _cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from .errors import DataError

    if not (args.asns or args.org or args.search or args.siblings):
        print("error: nothing to query (pass ASNs, --org, --search or --siblings)")
        return 2
    if args.host is not None:
        return _cmd_query_remote(args)
    if args.gen is not None:
        print("error: --gen needs --host (the archive lives with the server)")
        return 2
    service = _build_service(args)
    status = 0
    responses = []
    try:
        if args.asns:
            responses.extend(service.batch_lookup(args.asns))
        if args.org:
            responses.append(service.lookup_org(args.org))
        if args.search:
            responses.append(service.search(args.search))
        if args.siblings:
            responses.append(service.siblings(*args.siblings))
    except DataError as exc:
        print(f"error: {exc}")
        return 1
    for response in responses:
        if "error" in response:
            status = 1
        print(_json.dumps(response, indent=2, sort_keys=True))
    return status


def _cmd_watch(args: argparse.Namespace) -> int:
    import dataclasses as _dataclasses

    from .core import BorgesPipeline
    from .digest import dataset_digest, stable_digest
    from .metrics.partition import score_partition
    from .obs import get_registry
    from .serve import QueryServer, QueryService
    from .serve.store import SnapshotStore
    from .universe import generate_universe
    from .watch import (
        GateThresholds,
        RunJournal,
        SnapshotArchive,
        WatchConfig,
        WatchDaemon,
        WatchRunResult,
    )

    registry = get_registry()
    injector = _serve_injector(args)
    config = _borges_config(args)
    store = SnapshotStore(registry=registry, injector=injector)
    archive = SnapshotArchive(
        args.archive,
        max_entries=args.archive_max_entries,
        max_bytes=args.archive_max_bytes,
        free_bytes_floor=args.free_bytes_floor,
        registry=registry,
        injector=injector,
    )
    journal_path = args.journal or args.archive / "journal.jsonl"
    journal = RunJournal(journal_path)
    store.attach_archive(archive)
    service = QueryService(store=store, registry=registry, injector=injector)

    cycle_seed = {"n": 0}

    def runner() -> WatchRunResult:
        seed = args.seed + (cycle_seed["n"] if args.evolve else 0)
        cycle_seed["n"] += 1
        universe_config = _universe_config(args)
        if seed != universe_config.seed:
            universe_config = _dataclasses.replace(universe_config, seed=seed)
        universe = generate_universe(universe_config)
        shard_posture = None
        if args.shards > 1:
            from .core import run_sharded

            # Every refresh journals completed shards and resumes from
            # them: a mid-refresh crash re-runs only what's missing.
            result = run_sharded(
                universe.whois,
                universe.pdb,
                universe.web,
                config,
                n_shards=args.shards,
                shard_retries=max(0, args.shard_retries),
                shard_deadline=args.shard_deadline or None,
                checkpoint_path=args.archive / "shard-checkpoint.jsonl",
                resume=True,
            )
            shard_posture = result.shard_posture()
            digests = [
                dataset_digest(universe.whois), dataset_digest(universe.pdb)
            ]
        else:
            pipeline = BorgesPipeline(
                universe.whois, universe.pdb, universe.web, config
            )
            result = pipeline.run()
            digests = [pipeline.dataset_digests[n] for n in ("whois", "pdb")]
        precision = score_partition(
            result.mapping.clusters(), universe.ground_truth.true_clusters()
        ).pair_precision
        digest = stable_digest(digests)
        return WatchRunResult(
            mapping=result.mapping,
            dataset_digest=digest,
            label=f"seed={seed}",
            whois=universe.whois,
            pdb=universe.pdb,
            precision=precision,
            shard_posture=shard_posture,
        )

    thresholds = GateThresholds(
        max_org_shrink=args.max_org_shrink,
        max_org_growth=args.max_org_growth,
        max_coverage_drop=args.max_coverage_drop,
        max_churn=args.max_churn,
        min_precision=args.min_precision,
    )
    daemon = WatchDaemon(
        store,
        archive,
        journal,
        runner,
        WatchConfig(
            interval=args.interval,
            max_cycles=args.cycles,
            thresholds=thresholds,
            max_restarts=args.max_restarts,
            restart_window=args.restart_window,
            run_on_unchanged=args.run_on_unchanged,
        ),
        registry=registry,
        injector=injector,
    )
    service.attach_watch(daemon)
    server = None
    if not args.no_http:
        server = QueryServer(service, host=args.host, port=args.port).start()
        print(f"serving on {server.url}  (Ctrl-C to stop)")
        print(f"  admin: curl {server.url}/v1/admin/watch")
    print(
        f"watch: every {args.interval:g}s"
        + (f", {args.cycles} cycles" if args.cycles else "")
        + f"; archive {args.archive} (keep {args.archive_max_entries}); "
        f"journal {journal_path}"
    )
    try:
        cycles = daemon.run()
    except KeyboardInterrupt:
        cycles = daemon.cycles
    finally:
        if server is not None:
            server.stop()
    print(
        f"watch stopped after {cycles} cycles "
        f"(last outcome: {daemon.last_outcome or 'none'})"
    )
    archive_stats = archive.stats()
    print(
        f"archive: {archive_stats['entries']} generations "
        f"({archive_stats['oldest_generation']}.."
        f"{archive_stats['newest_generation']}), "
        f"{archive_stats['total_bytes']:,} bytes"
    )
    if daemon.halted:
        print(
            f"HALTED: {args.max_restarts} failures within "
            f"{args.restart_window:g}s — last error: {daemon.last_error}"
        )
        return 1
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "compare": _cmd_compare,
    "evolution": _cmd_evolution,
    "explain": _cmd_explain,
    "telemetry": _cmd_telemetry,
    "release": _cmd_release,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "query": _cmd_query,
    "watch": _cmd_watch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .obs import setup_logging

    args = build_parser().parse_args(argv)
    setup_logging("debug" if args.verbose else "warning")
    _RUN_ARTIFACTS.clear()
    status = _COMMANDS[args.command](args)
    if args.telemetry_out is not None:
        from .obs import build_manifest, write_manifest

        manifest = build_manifest(
            config=_RUN_ARTIFACTS.get("config"),
            result=_RUN_ARTIFACTS.get("result"),
            client=_RUN_ARTIFACTS.get("client"),
            service=_RUN_ARTIFACTS.get("service"),
            slo=getattr(_RUN_ARTIFACTS.get("service"), "slo", None),
        )
        try:
            path = write_manifest(args.telemetry_out, manifest)
        except OSError as exc:
            print(
                f"error: cannot write telemetry manifest to "
                f"{args.telemetry_out}: {exc}",
                file=sys.stderr,
            )
            return status or 1
        print(f"telemetry manifest written to {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
