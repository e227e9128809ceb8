"""Command-line interface: list and run reproduction experiments.

Usage::

    greedwork list
    greedwork run t3_envy
    greedwork run all --fast --jobs 4
    greedwork run table1 --no-sim-cache
    greedwork simulate --rates 0.1 0.2 0.3 --policy fair-share
    greedwork nash --gammas 0.2 0.5 --discipline fair-share

(equivalently ``python -m repro ...``)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import repro.obs as obs


def _sharded_policy(name: str) -> str:
    """``tandem --policies`` type: a policy the sharded simulator runs.

    Imports the simulator only when ``tandem`` arguments are parsed.
    """
    from repro.network.sharded import SHARDED_POLICIES

    if name not in SHARDED_POLICIES:
        choices = ", ".join(map(repr, SHARDED_POLICIES))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {choices})")
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedwork",
        description=("Reproduction of Shenker (SIGCOMM 1994), 'Making "
                     "Greed Work in Networks'"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument("experiment",
                            help="experiment id, or 'all'")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--fast", action="store_true",
                            help="reduced sample sizes / horizons")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (output is "
                                 "identical to a serial run)")
    run_parser.add_argument("--no-sim-cache", action="store_true",
                            help="do not reuse or store cached "
                                 "simulation results")

    sim_parser = sub.add_parser("simulate",
                                help="one packet-level simulation")
    sim_parser.add_argument("--rates", type=float, nargs="+",
                            required=True)
    sim_parser.add_argument("--policy", default="fifo")
    sim_parser.add_argument("--horizon", type=float, default=50000.0,
                            help="fixed horizon, or the initial "
                                 "horizon under --target-halfwidth")
    sim_parser.add_argument("--seed", type=int, default=0)
    sim_parser.add_argument("--target-halfwidth", type=float,
                            default=None, metavar="W",
                            help="stop when every user's CI "
                                 "half-width is at most W (grows the "
                                 "horizon as needed instead of "
                                 "running the fixed one)")
    sim_parser.add_argument("--replications", type=int, default=None,
                            metavar="N",
                            help="pool N independent replications "
                                 "(Student-t CI across seeds; N=1 "
                                 "reports its CI as n/a)")
    sim_parser.add_argument("--antithetic", action="store_true",
                            help="run replications as mirrored "
                                 "antithetic pairs (N must be even)")

    nash_parser = sub.add_parser(
        "nash", help="solve a Nash equilibrium for linear users")
    nash_parser.add_argument("--gammas", type=float, nargs="+",
                             required=True,
                             help="congestion sensitivities")
    nash_parser.add_argument("--discipline", default="fair-share")
    nash_parser.add_argument("--counts", type=int, nargs="+",
                             default=None,
                             help="users per gamma (one count per "
                                  "--gammas entry); solves the K-class "
                                  "reduced game, so N can be huge")
    nash_parser.add_argument("--mode",
                             choices=("exact", "class", "mean-field"),
                             default="exact",
                             help="solver: per-user ('exact'), "
                                  "symmetry-class reduction ('class') "
                                  "or the N->inf limit ('mean-field'); "
                                  "--counts implies 'class' unless "
                                  "overridden")

    protect_parser = sub.add_parser(
        "protect",
        help="adversarial protection check for one user")
    protect_parser.add_argument("--rate", type=float, required=True,
                                help="the protected user's rate")
    protect_parser.add_argument("--users", type=int, default=3,
                                help="total number of users")
    protect_parser.add_argument("--discipline", default="fair-share")
    protect_parser.add_argument("--samples", type=int, default=150)
    protect_parser.add_argument("--seed", type=int, default=0)

    tandem_parser = sub.add_parser(
        "tandem", help="two-switch tandem simulation")
    tandem_parser.add_argument("--rates", type=float, nargs="+",
                               required=True)
    tandem_parser.add_argument("--policies", nargs=2,
                               type=_sharded_policy,
                               default=("fifo", "fifo"),
                               metavar=("HOP0", "HOP1"))
    tandem_parser.add_argument("--horizon", type=float, default=30000.0)
    tandem_parser.add_argument("--seed", type=int, default=0)

    report_parser = sub.add_parser(
        "report", help="run experiments and write a markdown report")
    report_parser.add_argument("-o", "--output", default="REPORT.md")
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument("--full", action="store_true",
                               help="full fidelity (slow)")
    report_parser.add_argument("--only", nargs="+", default=None,
                               help="subset of experiment ids")
    report_parser.add_argument("--jobs", type=int, default=1,
                               help="worker processes (the report is "
                                    "identical to a serial run)")
    report_parser.add_argument("--no-sim-cache", action="store_true",
                               help="do not reuse or store cached "
                                    "simulation results")

    check_parser = sub.add_parser(
        "check",
        help="run the repo-native static-analysis suite")
    check_parser.add_argument("paths", nargs="*", default=None,
                              help="files/directories (default: src)")
    check_parser.add_argument("--format",
                              choices=("text", "json", "sarif"),
                              default="text", dest="output_format")
    check_parser.add_argument("-o", "--output", default=None,
                              help="write the report to a file "
                                   "instead of stdout")
    check_parser.add_argument("--select", default=None,
                              help="comma-separated rule ids or "
                                   "family prefixes to run (e.g. "
                                   "GW001,GW2)")
    check_parser.add_argument("--ignore", default=None,
                              help="comma-separated rule ids or "
                                   "family prefixes to skip")
    check_parser.add_argument("--no-cache", action="store_true",
                              help="disable the incremental result "
                                   "cache")
    check_parser.add_argument("--cache-dir", default=None,
                              help="cache location (default: "
                                   "<cwd>/.greedwork_cache)")
    check_parser.add_argument("--stats", action="store_true",
                              help="print run statistics (files, "
                                   "cache hits, duration) to stderr")
    check_parser.add_argument("--verbose", action="store_true",
                              help="also show suppressed findings")

    sweep_parser = sub.add_parser(
        "sweep",
        help="scenario-sweep orchestrator: catalog -> cells -> "
             "Pareto report")
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command",
                                            required=True)
    for sweep_name, sweep_help in (
            ("run", "run a catalog from scratch (truncates any "
                    "existing journal for it)"),
            ("resume", "replay the journal, run only missing cells")):
        runlike = sweep_sub.add_parser(sweep_name, help=sweep_help)
        runlike.add_argument("--catalog", default=None, metavar="FILE",
                             help="JSON catalog spec (see "
                                  "EXPERIMENTS.md); default: the "
                                  "built-in 'smoke' catalog")
        runlike.add_argument("--builtin", default=None,
                             metavar="NAME",
                             help="built-in catalog name "
                                  "(smoke, paper)")
        runlike.add_argument("--jobs", type=int, default=1,
                             help="worker processes for cold cells")
        runlike.add_argument("--no-sim-cache", action="store_true",
                             help="do not reuse or store cached "
                                  "simulation results")
        runlike.add_argument("--no-journal", action="store_true",
                             help="do not write a sweep journal")
        runlike.add_argument("-o", "--output", default=None,
                             metavar="FILE",
                             help="also write the JSON report "
                                  "artifact here")
        runlike.add_argument("--max-groups", type=int, default=12,
                             help="per-group tables shown in the "
                                  "ASCII report (-1 = all)")
        runlike.add_argument("--quiet", action="store_true",
                             help="suppress the progress stream on "
                                  "stderr")
    sweep_report = sweep_sub.add_parser(
        "report",
        help="regenerate the Pareto report from the journal "
             "(no simulation)")
    sweep_report.add_argument("--catalog", default=None, metavar="FILE")
    sweep_report.add_argument("--builtin", default=None, metavar="NAME")
    sweep_report.add_argument("-o", "--output", default=None,
                              metavar="FILE")
    sweep_report.add_argument("--max-groups", type=int, default=12)

    explain_parser = sub.add_parser(
        "explain",
        help="explain a static-analysis rule: rationale, minimal "
             "triggering example, approved fix/suppression")
    explain_parser.add_argument("rules", nargs="*", metavar="RULE",
                                help="rule ids or family prefixes "
                                     "(e.g. GW401, GW5xx); with no "
                                     "argument, list every rule")
    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import all_experiments, claim_of

    for experiment_id in all_experiments():
        print(f"{experiment_id:20s} {claim_of(experiment_id)}")
    return 0


def _print_counts(counted: obs.Scope, solver: bool = True) -> None:
    """A command's ``[sim-cache]`` and ``[solver]`` lines, on stderr so
    stdout stays byte-identical across job counts (CI greps them)."""
    from repro.numerics import instrumentation, iterate
    from repro.sim import cache as sim_cache
    from repro.sim import store

    cache_counts = obs.group("sim.cache", sim_cache.COUNTERS,
                             counted.delta)
    cache_counts.update(obs.group("sim.store", store.EVENTS,
                                  counted.delta))
    print(obs.line("sim-cache", cache_counts), file=sys.stderr)
    if solver:
        from repro.game.classes import SERIAL_COUNTERS

        solver_counts = obs.group("solver", instrumentation.COUNTERS,
                                  counted.delta)
        solver_counts.update(obs.group("fixed_point", iterate.COUNTERS,
                                       counted.delta))
        solver_counts.update(obs.group("solver", SERIAL_COUNTERS,
                                       counted.delta))
        print(obs.line("solver", solver_counts), file=sys.stderr)


def _cmd_run(experiment: str, seed: int, fast: bool, jobs: int,
             no_sim_cache: bool) -> int:
    from repro.exceptions import ReproError
    from repro.experiments.registry import all_experiments, run_experiments
    from repro.sim import cache as sim_cache

    if no_sim_cache:
        sim_cache.set_enabled(False)
    try:
        ids = all_experiments() if experiment == "all" else [experiment]
        with obs.Scope() as counted:
            reports = run_experiments(ids, seed=seed, fast=fast,
                                      jobs=jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if no_sim_cache:
            sim_cache.set_enabled(None)
    failures = 0
    for report in reports:
        print(report.render())
        print()
        if not report.passed:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) FAILED")
    _print_counts(counted)
    return 1 if failures else 0


def _cmd_simulate(rates: List[float], policy: str, horizon: float,
                  seed: int, target_halfwidth: Optional[float],
                  replications: Optional[int], antithetic: bool) -> int:
    from repro.experiments.base import Table
    from repro.sim.runner import (SimulationConfig, replicate, simulate,
                                  simulate_to_precision)

    config = SimulationConfig(rates=rates, policy=policy,
                              horizon=horizon, warmup=horizon * 0.05,
                              seed=seed)
    if replications is not None:
        summary = replicate(config, n_replications=replications,
                            antithetic=antithetic)
        labels = summary.half_width_labels()
        table = Table(
            title=(f"policy={policy} horizon={horizon:g} "
                   f"replications={replications}"
                   + (" (antithetic pairs)" if antithetic else "")),
            headers=["user", "rate", "mean queue", "CI half"])
        for i, rate in enumerate(rates):
            table.add_row(i, float(rate),
                          float(summary.mean_queues[i]), labels[i])
        print(table.render())
        return 0
    if target_halfwidth is not None:
        precision = simulate_to_precision(
            config, target_halfwidth=target_halfwidth)
        result = precision.result
        table = Table(
            title=(f"policy={result.policy_name} "
                   f"target-halfwidth={target_halfwidth:g} "
                   f"horizon={precision.horizons[-1]:g}"),
            headers=["user", "rate", "mean queue", "CI half",
                     "throughput"])
        for i, rate in enumerate(rates):
            table.add_row(i, float(rate),
                          float(precision.summary.means[i]),
                          float(precision.summary.half_widths[i]),
                          float(result.throughputs[i]))
        print(table.render())
        chunks = ", ".join(f"{h:g}" for h in precision.horizons)
        print(f"schedule: {chunks}  achieved: {precision.achieved}  "
              f"controls: "
              f"{', '.join(precision.summary.control_names) or 'none'}")
        return 0 if precision.achieved else 1
    result = simulate(config)
    table = Table(title=f"policy={result.policy_name} horizon={horizon:g}",
                  headers=["user", "rate", "mean queue", "CI half",
                           "throughput"])
    for i, rate in enumerate(rates):
        table.add_row(i, float(rate), float(result.mean_queues[i]),
                      float(result.batch.half_widths[i]),
                      float(result.throughputs[i]))
    print(table.render())
    return 0


def _cmd_nash(gammas: List[float], discipline: str,
              counts: Optional[List[int]] = None,
              mode: str = "exact") -> int:
    from repro.disciplines.registry import make_discipline
    from repro.experiments.base import Table
    from repro.game.classes import solve_nash_classes
    from repro.game.meanfield import solve_nash_meanfield
    from repro.game.nash import solve_nash
    from repro.users.families import LinearUtility

    allocation = make_discipline(discipline)
    if counts is not None and len(counts) != len(gammas):
        print(f"error: {len(counts)} counts for {len(gammas)} gammas",
              file=sys.stderr)
        return 2
    if counts is not None and mode == "exact":
        mode = "class"              # counts say 'solve in class space'
    profile = [LinearUtility(gamma=g) for g in gammas]

    if mode == "exact":
        result = solve_nash(allocation, profile)
        table = Table(title=f"Nash equilibrium under {allocation.name}",
                      headers=["user", "gamma", "rate", "congestion",
                               "utility"])
        for i, gamma in enumerate(gammas):
            table.add_row(i, float(gamma), float(result.rates[i]),
                          float(result.congestion[i]),
                          float(result.utilities[i]))
        print(table.render())
        print(f"converged: {result.converged}  "
              f"max unilateral gain: {result.max_gain:.2e}  "
              f"method: {result.method}")
        return 0

    class_counts = counts if counts is not None else [1] * len(gammas)
    solver = (solve_nash_meanfield if mode == "mean-field"
              else solve_nash_classes)
    outcome = solver(allocation, profile, counts=class_counts)
    table = Table(
        title=f"{mode} equilibrium under {allocation.name} "
              f"(N={outcome.n_users}, K={len(gammas)})",
        headers=["class", "gamma", "users", "rate", "congestion",
                 "utility"])
    for k, gamma in enumerate(gammas):
        table.add_row(k, float(gamma), int(outcome.counts[k]),
                      float(outcome.class_rates[k]),
                      float(outcome.class_congestion[k]),
                      float(outcome.class_utilities[k]))
    print(table.render())
    print(f"converged: {outcome.converged}  "
          f"max class gain: {outcome.max_gain:.2e}  "
          f"per-user spot gain: {outcome.spot_gain:.2e}  "
          f"method: {outcome.method}")
    return 0


def _cmd_protect(rate: float, users: int, discipline: str, samples: int,
                 seed: int) -> int:
    import numpy as np

    from repro.disciplines.registry import make_discipline
    from repro.experiments.base import Table
    from repro.game.protection import worst_case_congestion
    from repro.numerics.rng import default_rng

    allocation = make_discipline(discipline)
    report = worst_case_congestion(
        allocation, 0, rate, users,
        rng=default_rng(seed), n_samples=samples)
    table = Table(
        title=f"Protection of a rate-{rate:g} user among {users} "
              f"({allocation.name})",
        headers=["bound g(Nr)/N", "worst congestion found",
                 "protective"])
    table.add_row(report.bound, report.worst_congestion,
                  report.protective)
    print(table.render())
    print(f"worst opponents: {np.round(report.worst_opponents, 4)}")
    return 0


def _cmd_tandem(rates: List[float], policies: List[str], horizon: float,
                seed: int) -> int:
    from repro.experiments.base import Table
    from repro.network.sharded import simulate_sharded, tandem_config

    result = simulate_sharded(tandem_config(rates, policies, horizon,
                                            seed=seed))
    table = Table(
        title=f"tandem {policies[0]} -> {policies[1]}, "
              f"horizon {horizon:g}",
        headers=["user", "rate", "hop-0 mean queue",
                 "hop-1 mean queue", "total"])
    for i, rate in enumerate(rates):
        table.add_row(i, float(rate), float(result.mean_queues[0][i]),
                      float(result.mean_queues[1][i]),
                      float(result.total_mean_queues[i]))
    print(table.render())
    return 0


def _split_selectors(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [token for token in
            (t.strip() for t in raw.split(",")) if token]


def _default_check_paths(paths: Optional[List[str]]) -> List[str]:
    if paths:
        return paths
    return ["src"] if os.path.isdir("src") else ["."]


def _report_missing(paths: List[str]) -> bool:
    missing = [p for p in paths if not os.path.exists(p)]
    for p in missing:
        print(f"error: no such file or directory: {p}",
              file=sys.stderr)
    return bool(missing)


def _cmd_check(args: "argparse.Namespace") -> int:
    from repro.staticcheck import (
        CheckUsageError,
        all_rules,
        render_json,
        render_sarif,
        render_stats,
        render_text,
        run_checks,
        select_rules,
    )

    try:
        rules = select_rules(all_rules(),
                             select=_split_selectors(args.select),
                             ignore=_split_selectors(args.ignore))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    paths = _default_check_paths(args.paths)
    if _report_missing(paths):
        return 2

    try:
        result = run_checks(
            paths, rules=rules,
            cache=not args.no_cache,
            cache_dir=args.cache_dir)
    except CheckUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output_format == "json":
        report = render_json(result)
    elif args.output_format == "sarif":
        report = render_sarif(result, rules=rules)
    else:
        report = render_text(result, verbose=args.verbose)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    if args.stats:
        print(render_stats(result), file=sys.stderr)
    return 0 if result.ok else 1


#: Rule-family display names, keyed by id prefix (GW1xx = "GW1").
_RULE_FAMILIES = {
    "GW0": "contracts",
    "GW1": "perf",
    "GW2": "numerics",
    "GW3": "whole-program",
    "GW4": "state-contract",
    "GW5": "determinism",
    "GW6": "parallel-safety",
}


def _cmd_explain(selectors: List[str]) -> int:
    """Print rationale/example/fix for rules, from their docstrings.

    The ``explain`` output *is* the class docstring (dedented), so the
    documentation cannot drift from the rule implementation: editing
    the rule's Rationale/Example/Fix sections updates both.  With no
    selector, print the one-line catalog instead: id, family, summary.
    """
    import inspect

    from repro.staticcheck import all_rules, select_rules

    if not selectors:
        for rule in all_rules():
            family = _RULE_FAMILIES.get(rule.rule_id[:3], "misc")
            summary = " ".join(rule.description.split())
            print(f"{rule.rule_id}  {family:<15} {rule.name}: {summary}")
        return 0

    try:
        chosen = select_rules(all_rules(), select=selectors)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    blocks = []
    for rule in chosen:
        scope = "project" if rule.scope == "project" else "file"
        lines = [f"{rule.rule_id} ({rule.name}, {scope}-scope)",
                 f"  {rule.description}"]
        doc = inspect.getdoc(type(rule))
        if doc:
            lines.append("")
            lines.extend(f"  {line}" if line else ""
                         for line in doc.splitlines())
        blocks.append("\n".join(lines))
    try:
        print("\n\n".join(blocks))
    except BrokenPipeError:  # reader (head, a pager) closed early
        return 0
    return 0


def _sweep_catalog(args: "argparse.Namespace"):
    """Resolve the catalog a ``sweep`` subcommand addresses."""
    from repro.exceptions import SweepError
    from repro.sweep import builtin_catalog, load_catalog

    if args.catalog and args.builtin:
        raise SweepError(
            "--catalog and --builtin are mutually exclusive")
    if args.catalog:
        return load_catalog(args.catalog)
    return builtin_catalog(args.builtin or "smoke")


def _cmd_sweep(args: "argparse.Namespace") -> int:
    import json

    from repro.exceptions import ReproError
    from repro.sim import cache as sim_cache
    from repro.sweep import (CellOutcome, SweepProgress, SweepResult,
                             read_journal, render_report,
                             report_document, run_sweep)
    from repro.sweep.journal import journal_path

    try:
        catalog = _sweep_catalog(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    max_groups = None if args.max_groups < 0 else args.max_groups

    if args.sweep_command == "report":
        # Rebuild the report from the journal alone: no simulation,
        # no cache traffic — the artifact is a pure function of what
        # the last run/resume recorded.
        path = journal_path(catalog.digest())
        recorded = read_journal(path)
        outcomes = []
        missing = 0
        seen = set()
        for cell in catalog.cells:
            payload = recorded.get(cell.key())
            if payload is None:
                missing += 1
                continue
            outcome = CellOutcome.from_dict(payload)
            outcome.source = ("dedup" if cell.key() in seen
                              else "journal")
            seen.add(cell.key())
            outcomes.append(outcome)
        if not outcomes:
            print(f"error: no journal for catalog {catalog.name!r} "
                  f"(digest {catalog.digest()}); run "
                  f"`repro sweep run` first", file=sys.stderr)
            return 2
        result = SweepResult(
            catalog_name=catalog.name, digest=catalog.digest(),
            outcomes=outcomes, wall_s=0.0, busy_s=0.0, jobs=0,
            fresh_events=0, journal_path=path)
        if missing:
            print(f"[sweep] {missing} cell(s) not in the journal yet; "
                  f"`repro sweep resume` completes them",
                  file=sys.stderr)
        print(render_report(result, max_groups=max_groups), end="")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(report_document(result), handle, indent=2)
            print(f"[sweep] JSON artifact: {args.output}",
                  file=sys.stderr)
        return 1 if result.failures else 0

    no_cache = args.no_sim_cache
    if no_cache:
        sim_cache.set_enabled(False)

    def _progress(progress: "SweepProgress") -> None:
        print(progress.line(), file=sys.stderr)

    try:
        with obs.Scope() as counted:
            result = run_sweep(
                catalog, jobs=args.jobs, journal=not args.no_journal,
                resume=(args.sweep_command == "resume"),
                progress=None if args.quiet else _progress,
                cache_enabled=False if no_cache else None)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if no_cache:
            sim_cache.set_enabled(None)
    print(render_report(result, max_groups=max_groups), end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report_document(result), handle, indent=2)
        print(f"[sweep] JSON artifact: {args.output}", file=sys.stderr)
    _print_counts(counted, solver=False)
    return 1 if result.failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command not in ("check", "explain"):   # they print no arrays
        import numpy as np

        np.set_printoptions(precision=5, suppress=True)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.seed, args.fast,
                        args.jobs, args.no_sim_cache)
    if args.command == "simulate":
        return _cmd_simulate(args.rates, args.policy, args.horizon,
                             args.seed, args.target_halfwidth,
                             args.replications, args.antithetic)
    if args.command == "nash":
        return _cmd_nash(args.gammas, args.discipline,
                         counts=args.counts, mode=args.mode)
    if args.command == "protect":
        return _cmd_protect(args.rate, args.users, args.discipline,
                            args.samples, args.seed)
    if args.command == "tandem":
        return _cmd_tandem(args.rates, args.policies, args.horizon,
                           args.seed)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "explain":
        return _cmd_explain(args.rules)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        from repro.experiments.report import generate_report
        from repro.sim import cache as sim_cache

        if args.no_sim_cache:
            sim_cache.set_enabled(False)
        try:
            with obs.Scope() as counted:
                failures = generate_report(
                    args.output, fast=not args.full, seed=args.seed,
                    experiment_ids=args.only, jobs=args.jobs)
        finally:
            if args.no_sim_cache:
                sim_cache.set_enabled(None)
        _print_counts(counted)
        return 1 if failures else 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
