"""Command-line interface: run the paper's experiments from a shell.

    python -m repro figures [--only fig5,fig6-single,fig6-multi,memory,table1] [--events N]
    python -m repro trace [--out DIR]
    python -m repro bench [--suite NAME ...] [--json BENCH_perf.json] [--golden-only]
    python -m repro profile [SUITE] [--top N] [--json]
    python -m repro lint [all | q5 | examples | path/to/file.py ...] [--strict]
    python -m repro verify-static [--json] [--bench BENCH_static.json] [DIR ...]
    python -m repro sanitize [all | quickstart | q3 ...]
    python -m repro gates [--only GATES] [--case LABELS] [--seeds 0:16] [--json PATH]
    python -m repro audit [--inject K] [--seed N]

``figures`` runs each selected figure of Section 7 at the parameters
``repro.harness.figures`` declares for it and prints its tables and series;
``--events`` shrinks the input of the figures with a finite input.  See
EXPERIMENTS.md for the mapping to the paper.
``lint`` runs the NDLint static pass, ``verify-static`` the interprocedural
causal-coverage analyzer (ND201–ND210), and ``sanitize`` the double-run
determinism sanitizer (see README, "Verifying your pipeline is causally
loggable").  ``audit`` sweeps every stored artifact and verifies its content
fingerprint; ``--inject K`` self-tests the sweep against seeded corruption
(see README, "Artifact integrity").

``trace`` records the Figure 6 single-failure runs (both arms) on the causal
event bus, exports JSONL + Chrome-trace/Perfetto JSON, prints each recovery
incident's per-phase breakdown and checks the phase invariants (see README,
"Observability").  ``bench`` times the named perf suites and checks the
golden determinism digests (see ``repro.bench``); ``profile`` runs one suite
under the sim-aware profiler and prints its wall-clock hot spots.

``gates`` runs the fault gates ``repro.harness.gates.GATES`` declares
(``chaos``, ``integrity``, ``transparency``, ``scenarios``): four
fault-schedule sources over one fault-experiment engine
(``repro.chaos.experiment``).  ``--case`` keeps the cases whose label is an
entry or starts with ``entry/`` (a seed, a topology, a scenario name).  Each
run is graded on one vocabulary — ``transparent``, ``announced-degradation``,
``violation:<why>``, ``skipped:<why>`` — and reported by one table/tally
helper (see README, "Fault experiments").

Exit codes, for every verb: 0 clean, 1 findings (any ``violation:*``,
failed scenario or trace check, lint finding, golden drift), 2 usage or
internal error (including a selection that runs nothing — a gate that ran
nothing is never green).  :func:`main` owns the 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import traceback
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.harness import gates
from repro.harness.figures import FIGURES, fig6_single_failure
from repro.harness.reporters import render_table


class _UsageError(Exception):
    """A malformed command line: one line on stderr, exit 2."""


def _names(raw: str, flag: str) -> List[str]:
    """A comma list; empty after stripping is a usage error, not "all"."""
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise _UsageError(f"{flag} {raw!r} names nothing")
    return names


def _cmd_figures(args) -> int:
    names = _names(args.only, "--only") if args.only is not None else list(FIGURES)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        raise _UsageError(
            f"unknown figures: {', '.join(unknown)} (known: {', '.join(FIGURES)})"
        )
    for name in names:
        for block in FIGURES[name](args.events):
            print(block + "\n", flush=True)
    return 0


def _cmd_trace(args) -> int:
    """Record fig6-single's Q3 runs with tracing, export, summarize, check."""
    from repro.metrics.collectors import recovery_time
    from repro.trace import (
        timeline_of,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.trace.export import chrome_trace

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    for label, run in fig6_single_failure().items():
        timeline = timeline_of(run.result)
        trace = run.result.jm.trace
        stem = f"fig6-{run.query}-{label}"
        document = chrome_trace(
            trace,
            timeline,
            job_name=stem,
            extra_metadata={
                "query": run.query,
                "mode": label,
                "victim": run.result.failures[0][1],
                "kill_at": run.failure_time,
            },
        )
        jsonl_path = write_jsonl(out_dir / f"{stem}.jsonl", trace)
        chrome_path = write_chrome_trace(out_dir / f"{stem}.chrome.json", document)
        problems = validate_chrome_trace(document)
        if problems:
            failures.append(f"{label}: invalid Chrome trace: {problems[:3]}")

        measured = recovery_time(run.result.latencies, run.failure_time)
        print(f"\n=== {label} ===")
        print(f"events: {len(trace)}  exported: {jsonl_path}, {chrome_path}")
        print(
            "metrics.collectors recovery time:",
            f"{measured:.3f}s" if measured is not None else "n/a",
        )
        for incident in timeline.incidents:
            totals = incident.phase_totals()
            print(
                f"incident {incident.index}: victim={incident.victim} "
                f"failed at {incident.failure_time:.2f}s, end-to-end "
                f"{incident.end_to_end:.3f}s ({incident.end_source}), "
                f"{incident.named_phase_count()} named phases, "
                f"retries={incident.retries}"
            )
            print(
                render_table(
                    ["phase", "seconds", "share"],
                    [
                        (
                            name,
                            f"{dur:.4f}",
                            f"{dur / incident.end_to_end * 100.0:.1f}%"
                            if incident.end_to_end > 0
                            else "-",
                        )
                        for name, dur in totals.items()
                    ],
                )
            )
            if incident.named_phase_count() < 5:
                failures.append(
                    f"{label}: incident {incident.index} has only "
                    f"{incident.named_phase_count()} named phases"
                )
            if (
                incident.end_source == "latency-envelope"
                and measured is not None
                and measured > 0
                and abs(incident.phase_sum() - measured) > 0.01 * measured
            ):
                failures.append(
                    f"{label}: incident {incident.index} phase sum "
                    f"{incident.phase_sum():.4f}s deviates >1% from "
                    f"measured recovery {measured:.4f}s"
                )
        if not timeline.incidents:
            failures.append(f"{label}: no recovery incidents reconstructed")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("\ntrace check: OK")
    return 0


# -- determinism tooling ------------------------------------------------------

#: Examples shipped at the repository root; linted as whole files and
#: double-run (entry point per name) by ``sanitize``.
_EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
_EXAMPLE_NAMES = ("quickstart", "fraud_detection", "exactly_once_output",
                  "nexmark_hot_items")


class _LintProbeService:
    """Stand-in for Q13's external side-input service during graph lint."""

    def get_now(self, key):
        return key


def _load_example(name: str):
    path = _EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _query_graph(name: str):
    """Build query ``name``'s graph against a fresh log (for linting)."""
    from repro.external.kafka import DurableLog
    from repro.nexmark.queries import QUERIES

    log = DurableLog()
    external = _LintProbeService() if name == "Q13" else None
    return QUERIES[name](log, external=external)


def _cmd_bench(args) -> int:
    """Time the perf suites and check the golden determinism digests.

    Exit codes: 0 all suites ran and goldens match; 1 golden drift (a
    determinism regression — the hard failure CI gates on).
    """
    import json as json_module

    from repro.bench import SUITES, check_goldens, perf_payload, run_suite

    print("golden determinism check...", flush=True)
    golden_failures = check_goldens()
    for failure in golden_failures:
        print(f"GOLDEN DRIFT: {failure}", file=sys.stderr)
    if not golden_failures:
        print(
            "golden digests: OK "
            "(schedule, sink, trace, recovery, chrome byte-identical)"
        )
    if args.golden_only:
        return 1 if golden_failures else 0

    names = args.suites or list(SUITES)
    results = []
    for name in names:
        print(f"suite {name}: running...", flush=True)
        result = run_suite(name)
        print(
            f"suite {name}: {result.wall_clock_s:.2f}s wall, "
            f"{result.records_per_wall_second:,.0f} simulated records/s"
        )
        results.append(result)
    payload = perf_payload(results, golden_failures)
    total = payload["total_wall_clock_s"]
    speedup = payload.get("speedup_vs_baseline")
    line = f"total: {total}s"
    if speedup is not None:
        line += f" ({speedup}x vs pre-optimisation baseline)"
    print(line)
    if args.json:
        Path(args.json).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"bench written: {args.json}", file=sys.stderr)
    return 1 if golden_failures else 0


def _cmd_profile(args) -> int:
    """Run one perf suite under the sim-aware profiler; print hot spots."""
    import json as json_module
    import time as time_module

    from repro.bench import SUITES
    from repro.trace import merge_profiles, profiling

    spec = SUITES[args.suite]
    started = time_module.perf_counter()
    with profiling() as profilers:
        spec.runner()
    wall = time_module.perf_counter() - started
    merged = merge_profiles(profilers)
    if args.json:
        payload = {
            "bench": "profile",
            "suite": spec.name,
            "wall_clock_s": round(wall, 3),
            "kernel_steps": merged.steps,
            "attributed_ms": round(merged.total_ms(), 1),
            "rows": [
                {
                    "where": row.name,
                    "calls": row.calls,
                    "total_ms": round(row.total_ms, 2),
                    "mean_us": round(row.mean_us, 1),
                }
                for row in merged.rows(args.top)
            ],
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"suite {spec.name}: {wall:.2f}s wall ({spec.description})")
        print(merged.report(top=args.top))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import dedupe_reports, lint_file, lint_graph
    from repro.nexmark.queries import QUERIES

    reports = []
    for raw in args.targets or ["all"]:
        target = raw.strip()
        upper = target.upper()
        if target == "all":
            reports.extend(
                lint_file(_EXAMPLES_DIR / f"{name}.py") for name in _EXAMPLE_NAMES
            )
            reports.extend(lint_graph(_query_graph(q)) for q in sorted(QUERIES))
        elif target == "examples":
            reports.extend(
                lint_file(_EXAMPLES_DIR / f"{name}.py") for name in _EXAMPLE_NAMES
            )
        elif upper in QUERIES:
            reports.append(lint_graph(_query_graph(upper)))
        elif target.endswith(".py"):
            reports.append(lint_file(target))
        else:
            raise _UsageError(f"unknown lint target {target!r} "
                              f"(all | examples | Q1..Q14 | path/to/file.py)")
    dedupe_reports(reports)
    failed = False
    for report in reports:
        print(report.summary())
        if report.findings:
            print(report.render())
        for target in report.unresolved:
            print(f"ndlint: cannot read source for {target!r}", file=sys.stderr)
        failed = failed or not report.ok(strict=args.strict) or bool(report.unresolved)
    n_err = sum(len(r.errors) for r in reports)
    n_warn = sum(len(r.warnings) for r in reports)
    print(f"\nndlint: {len(reports)} targets, {n_err} errors, {n_warn} warnings")
    return 1 if failed else 0


def _cmd_verify_static(args) -> int:
    """Interprocedural causal-coverage analysis (ND201–ND210) over a tree.

    Exit codes: 0 clean, 1 findings (or parse errors in the scanned tree).
    """
    import json as json_module

    from repro.analysis.causal import analyze_tree

    reports = []
    for raw in args.roots or [None]:
        root = Path(raw) if raw is not None else None
        if root is not None and not root.is_dir():
            raise _UsageError(f"not a directory: {root}")
        package = root.name if root is not None else "repro"
        reports.append(analyze_tree(root, package=package))
    for report in reports:
        print(report.to_json() if args.json else report.render())
    if args.bench:
        totals = {"findings": 0, "exempted": 0, "wall_clock_s": 0.0,
                  "modules": 0, "functions": 0}
        counts: dict = {}
        for report in reports:
            totals["findings"] += len(report.findings)
            totals["exempted"] += len(report.exempted)
            totals["wall_clock_s"] += report.stats.get("wall_clock_s", 0.0)
            totals["modules"] += int(report.stats.get("modules", 0))
            totals["functions"] += int(report.stats.get("functions", 0))
            for rule_id, n in report.counts().items():
                counts[rule_id] = counts.get(rule_id, 0) + n
        payload = {
            "bench": "verify-static",
            "roots": [r.root for r in reports],
            "ok": all(r.ok for r in reports),
            "counts_by_rule": dict(sorted(counts.items())),
            **totals,
            "wall_clock_s": round(totals["wall_clock_s"], 4),
        }
        Path(args.bench).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"bench written: {args.bench}", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


def _sanitize_thunk(target: str):
    """Resolve a sanitize target to ``(label, zero-arg runnable)``."""
    if target == "quickstart":
        module = _load_example("quickstart")
        return "quickstart (with failure)", lambda: module.run(kill_the_counter=True)
    if target == "fraud_detection":
        from repro.config import FaultToleranceMode

        module = _load_example("fraud_detection")
        return "fraud_detection (CLONOS)", lambda: module.run(FaultToleranceMode.CLONOS)
    if target == "exactly_once_output":
        from repro.core.output import ExactlyOnceKafkaSink

        module = _load_example("exactly_once_output")
        return (
            "exactly_once_output (§5.5 sink)",
            lambda: module.run(lambda log: ExactlyOnceKafkaSink(log, "alerts")),
        )
    if target == "nexmark_hot_items":
        return _sanitize_thunk("Q5")
    upper = target.upper()
    from repro.nexmark.queries import QUERIES

    if upper in QUERIES:
        from repro.config import FaultToleranceMode
        from repro.harness.experiment import run_experiment
        from repro.harness.figures import experiment_config, nexmark_graph_fn

        config = experiment_config(FaultToleranceMode.CLONOS, None)
        graph_fn = nexmark_graph_fn(upper, 2, 2000, 2000.0)
        return (
            f"nexmark {upper} (CLONOS)",
            lambda: run_experiment(graph_fn, config, limit=3600),
        )
    return None


def _cmd_sanitize(args) -> int:
    from repro.analysis import double_run

    targets = list(args.targets or ["all"])
    if "all" in targets:
        targets = list(_EXAMPLE_NAMES[:-1]) + ["Q1", "Q3", "Q5", "Q8"]
    ok = True
    for target in targets:
        resolved = _sanitize_thunk(target)
        if resolved is None:
            raise _UsageError(f"unknown sanitize target {target!r} "
                              f"(all | {' | '.join(_EXAMPLE_NAMES)} | Q1..Q14)")
        label, thunk = resolved
        report = double_run(thunk, label=label, keep_trace=args.trace)
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 1


# -- fault experiments --------------------------------------------------------


def _seeds(raw: str) -> List[int]:
    """``--seeds lo:hi`` or a comma list.  An empty selection is a usage
    error: a gate that ran nothing must not be green."""
    try:
        if ":" in raw:
            lo, hi = raw.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(
            f"malformed --seeds {raw!r} (want lo:hi or a comma list)"
        ) from None
    if not seeds:
        raise _UsageError(f"--seeds {raw!r} selects no seeds")
    return seeds


def _cmd_gates(args) -> int:
    selected = gates.select(
        _names(args.only, "--only") if args.only is not None else None,
        _names(args.case, "--case") if args.case is not None else None,
        _seeds(args.seeds) if args.seeds is not None else None,
    )
    if args.json is not None and (
        len(selected) != 1 or gates.GATES[next(iter(selected))].payload is None
    ):
        raise _UsageError("--json needs exactly one of transparency, scenarios")
    if args.list:
        for name, cases in selected.items():
            for label, _run in cases:
                print(f"{name:12s} {label}")
        return 0
    code = 0
    for index, (name, cases) in enumerate(selected.items()):
        if index:
            print()
        results = [run() for _label, run in cases]
        code = max(code, gates.report(name, results, args.verbose, args.json))
    return code


def _cmd_audit(args) -> int:
    import random as random_module

    from repro.integrity.audit import audit_job, audit_matches, audit_run
    from repro.integrity.corruption import random_corruptions
    from repro.sim.rng import derive_seed

    jm = audit_run(args.seed)
    injected = []
    if args.inject:
        rng = random_module.Random(derive_seed(args.seed, "audit-inject"))
        injected = random_corruptions(jm, args.inject, rng)
        for kind, detail in injected:
            print(f"injected: {kind} {detail}")
    report = audit_job(jm)
    print(report.render())
    if args.inject:
        missed = [
            (kind, detail)
            for kind, detail in injected
            if not audit_matches(kind, detail, report.violations)
        ]
        for kind, detail in missed:
            print(f"MISSED: {kind} {detail}", file=sys.stderr)
        print(
            f"audit self-test: injected={len(injected)} "
            f"detected={len(injected) - len(missed)}"
        )
        return 0 if injected and not missed else 1
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clonos reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pfig = sub.add_parser(
        "figures", help="the paper's figures and tables at their declared parameters"
    )
    pfig.add_argument("--only", default=None, metavar="NAMES",
                      help="comma list of " + ", ".join(FIGURES) + " (default: all)")
    pfig.add_argument("--events", type=int, default=None, metavar="N",
                      help="events per source partition for the figures with a "
                           "finite input (default: each figure's own)")
    pfig.set_defaults(fn=_cmd_figures)

    ptr = sub.add_parser(
        "trace",
        help="record fig6-single's Q3 runs with causal tracing, export "
             "JSONL + Chrome-trace JSON and check the recovery phases",
    )
    ptr.add_argument("--out", default="trace_out",
                     help="output directory for exported traces")
    ptr.set_defaults(fn=_cmd_trace)

    pb = sub.add_parser(
        "bench", help="perf suites + golden determinism digests"
    )
    pb.add_argument(
        "--suite",
        dest="suites",
        action="append",
        choices=["fig5", "fig6-single", "fig6-multi"],
        help="suite to run (repeatable; default: all)",
    )
    pb.add_argument(
        "--json", metavar="PATH", help="write results as JSON (e.g. BENCH_perf.json)"
    )
    pb.add_argument(
        "--golden-only",
        action="store_true",
        help="only check the golden digests (the fast CI determinism gate)",
    )
    pb.set_defaults(fn=_cmd_bench)

    pp = sub.add_parser(
        "profile", help="run one perf suite under the sim-aware profiler"
    )
    pp.add_argument(
        "suite",
        nargs="?",
        default="fig5",
        choices=["fig5", "fig6-single", "fig6-multi"],
        help="suite to profile (default: fig5)",
    )
    pp.add_argument("--top", type=int, default=15, help="rows to show")
    pp.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    pp.set_defaults(fn=_cmd_profile)

    pl = sub.add_parser("lint", help="NDLint: static nondeterminism check")
    pl.add_argument("targets", nargs="*",
                    help="all | examples | Q1..Q14 | path/to/file.py (default: all)")
    pl.add_argument("--strict", action="store_true",
                    help="treat warnings as failures too")
    pl.set_defaults(fn=_cmd_lint)

    pv = sub.add_parser(
        "verify-static",
        help="interprocedural causal-coverage analysis: ND201 (ND->state), "
             "ND202 (ND->output), ND203 (dead determinant), ND210 (phase "
             "protocol)",
    )
    pv.add_argument("roots", nargs="*", metavar="DIR",
                    help="source tree(s) to scan (default: the installed "
                         "src/repro tree)")
    pv.add_argument("--json", action="store_true",
                    help="emit the machine-readable JSON report")
    pv.add_argument("--bench", metavar="PATH", default=None,
                    help="also write analyzer wall-clock + finding counts "
                         "as JSON (e.g. BENCH_static.json)")
    pv.set_defaults(fn=_cmd_verify_static)

    ps = sub.add_parser(
        "sanitize", help="double-run determinism sanitizer + protocol invariants"
    )
    ps.add_argument("targets", nargs="*",
                    help="all | quickstart | fraud_detection | exactly_once_output "
                         "| nexmark_hot_items | Q1..Q14 (default: all)")
    ps.add_argument("--no-trace", dest="trace", action="store_false",
                    help="skip the per-event trace (hash comparison only)")
    ps.set_defaults(fn=_cmd_sanitize)

    pg = sub.add_parser("gates", help="the fault gates, on one verdict vocabulary")
    pg.add_argument("--only", default=None, metavar="GATES",
                    help="comma list of " + ", ".join(gates.GATES) + " (default: all)")
    pg.add_argument("--case", default=None, metavar="LABELS",
                    help="comma list of case labels, or their prefixes before a '/'")
    pg.add_argument("--seeds", default=None, metavar="SEEDS",
                    help="lo:hi or a comma list replacing every gate's seeds")
    pg.add_argument("--json", default=None, metavar="PATH",
                    help="write the one selected gate's payload")
    pg.add_argument("--verbose", action="store_true",
                    help="print every run's recovery events")
    pg.add_argument("--list", action="store_true",
                    help="list the selected case labels and exit")
    pg.set_defaults(fn=_cmd_gates)

    pa = sub.add_parser(
        "audit",
        help="sweep every stored artifact (checkpoints, logs, standby "
             "images) and verify its fingerprint",
    )
    pa.add_argument("--seed", type=int, default=0,
                    help="workload/injection seed (default 0)")
    pa.add_argument("--inject", type=int, default=0, metavar="K",
                    help="self-test: corrupt K artifacts mid-flight and "
                         "require the sweep to flag every one")
    pa.set_defaults(fn=_cmd_audit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one verb.  Every error exits 2: a usage or library error prints
    one line, anything else its traceback (never 1, which means findings)."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_UsageError, ReproError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
