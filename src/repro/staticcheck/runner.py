"""Orchestrate a check run: collect, cache, analyze, aggregate.

The pipeline per invocation:

1. expand the argument paths into ``.py`` files (loudly rejecting
   missing paths and non-Python files — see :class:`CheckUsageError`);
2. read and content-hash every file; serve per-file results from the
   incremental cache where the hash matches;
3. run per-file rules over the remainder, one file at a time in this
   process (a file rule sees one file, so its cached findings depend
   on that file's hash alone);
4. run project rules over a :class:`ProjectContext` built from the
   analyzed files plus the reference roots, unless the whole-program
   digest is unchanged in the cache;
5. sort the findings and return a :class:`CheckResult`.
"""

from __future__ import annotations

import functools
import gc
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.staticcheck.cache import (
    CACHE_DIR_NAME,
    CheckCache,
    engine_signature,
    file_digest,
    project_digest,
)
from repro.staticcheck.core import (
    CheckResult,
    FileContext,
    Finding,
    Location,
    ProjectRule,
    Rule,
    all_rules,
    locate,
)
from repro.staticcheck.project import REFERENCE_ROOTS, ProjectContext

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache",
                        "build", "dist", ".venv", "venv",
                        CACHE_DIR_NAME})


class CheckUsageError(ValueError):
    """The *invocation* is wrong (bad path, bad suffix), not the code."""


def collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directory arguments are recursed, skipping build/VCS internals
    below the argument (the directories above it do not matter).  A
    file argument must exist and end in ``.py``; anything else raises
    :class:`CheckUsageError`, matching the CLI's error-on-missing-path
    behavior so programmatic and command-line runs cannot silently
    diverge.
    """
    return list(_python_files(paths))


def _python_files(paths: Iterable[Union[str, Path]]) -> Dict[Path, Path]:
    """:func:`collect_files`, each file mapped to its resolved path.

    A file reached twice (through two arguments, or a symlink) is kept
    once, as first reached.
    """
    out: Dict[Path, Path] = {}
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            below = len(path.parts)
            candidates: Iterable[Path] = [
                candidate for candidate in sorted(path.rglob("*.py"))
                if _SKIP_DIRS.isdisjoint(candidate.parts[below:])]
        elif path.is_file():
            if path.suffix != ".py":
                raise CheckUsageError(
                    f"unsupported file type (expected .py): {path}")
            candidates = [path]
        else:
            raise CheckUsageError(
                f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out[candidate] = resolved
    return out


def _read_error_finding(display_path: str, exc: Exception) -> Finding:
    return Finding(rule_id="GW000", path=display_path,
                   line=1, col=1, message=f"cannot read file: {exc}")


def reference_files(root: Path, arguments: Sequence[Union[str, Path]],
                    analyzed: Set[Path]) -> Dict[Path, Path]:
    """Reference-only files for whole-program rules, each mapped to its
    resolved path.

    Collects the ``.py`` files of each :data:`REFERENCE_ROOTS`
    subdirectory of ``root`` whose resolved path is not in
    ``analyzed``.  A reference root that is itself a directory argument
    of the run is not collected again: the run analyzes its files.
    """
    argument_dirs = {Path(raw).resolve() for raw in arguments
                     if Path(raw).is_dir()}
    roots = [root / name for name in REFERENCE_ROOTS
             if (root / name).is_dir()
             and (root / name).resolve() not in argument_dirs]
    return {path: resolved
            for path, resolved in _python_files(roots).items()
            if resolved not in analyzed}


def _parse_error_finding(ctx: FileContext) -> Finding:
    exc = ctx.parse_error
    assert exc is not None
    return Finding(rule_id="GW000", path=ctx.display_path,
                   line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                   message=f"syntax error: {exc.msg}")


def _run_file_rules(ctx: FileContext, rules: Sequence[Rule]
                    ) -> Tuple[List[Finding], List[Finding]]:
    """(findings, suppressed) of the per-file rules on one context.

    The context's node index lives only while its rules run.
    """
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    if ctx.parse_error is not None:
        findings.append(_parse_error_finding(ctx))
        return findings, suppressed
    try:
        for rule in rules:
            for finding in rule.check(ctx):
                if ctx.is_suppressed(finding):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
    finally:
        ctx.drop_nodes()
    return findings, suppressed


def _collector_paused(func: Callable[..., CheckResult]
                      ) -> Callable[..., CheckResult]:
    """Run ``func`` with the cyclic garbage collector off.

    The parsed trees hold no reference cycles, yet every full
    collection would rescan all of them.  The caller's setting is
    restored afterwards, also when ``func`` raises.
    """
    @functools.wraps(func)
    def paused(*args: Any, **kwargs: Any) -> CheckResult:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused


@_collector_paused
def run_checks(paths: Sequence[Union[str, Path]],
               rules: Optional[Sequence[Rule]] = None,
               project_root: Optional[Union[str, Path]] = None,
               *,
               jobs: int = 1,
               cache: bool = False,
               cache_dir: Optional[Union[str, Path]] = None,
               ) -> CheckResult:
    """Run the suite over ``paths`` and return a :class:`CheckResult`.

    Parameters
    ----------
    paths:
        Files and/or directories (recursed) to analyse.
    rules:
        Rule instances to apply; defaults to every registered rule.
    project_root:
        Base for report-relative paths; defaults to the current
        working directory.
    jobs:
        Must be 1: every rule runs in this process.  Any other value
        raises :class:`CheckUsageError`.
    cache:
        Enable the content-hash incremental cache (off by default for
        programmatic use; the CLI turns it on).
    cache_dir:
        Cache location; defaults to ``<project_root>/.greedwork_cache``.

    Whole-program rules also see the :data:`REFERENCE_ROOTS`
    subdirectories of ``project_root`` as reference-only context.

    The cyclic garbage collector is paused for the run (see
    :func:`_collector_paused`).
    """
    started = time.perf_counter()
    if jobs != 1:
        raise CheckUsageError(
            f"jobs={jobs}: checks run in one process; only jobs=1 is "
            f"accepted")
    active = list(rules) if rules is not None else all_rules()
    file_rules = [r for r in active if not isinstance(r, ProjectRule)]
    project_rules = [r for r in active if isinstance(r, ProjectRule)]
    root = Path(project_root) if project_root is not None else Path.cwd()
    result = CheckResult()

    # -- 1. collect and read ------------------------------------------------
    # The root is resolved once and each file once; locations (report
    # path, module name) and the reference exclusions derive from those.
    resolved_root = root.resolve()
    files = _python_files(paths)
    located: Dict[Path, Location] = {}
    sources: Dict[Path, str] = {}
    hashes: Dict[str, str] = {}          # display path -> content hash
    for path, resolved in files.items():
        result.files_checked += 1
        location = located[path] = locate(path, resolved, resolved_root)
        try:
            sources[path] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.findings.append(
                _read_error_finding(location.display_path, exc))
            continue
        hashes[location.display_path] = file_digest(sources[path])

    # -- 2. cache setup -----------------------------------------------------
    check_cache: Optional[CheckCache] = None
    if cache:
        signature = engine_signature([r.rule_id for r in file_rules])
        directory = Path(cache_dir) if cache_dir is not None \
            else root / CACHE_DIR_NAME
        check_cache = CheckCache(directory, signature)

    contexts: Dict[Path, FileContext] = {}

    def context_for(path: Path) -> FileContext:
        if path not in contexts:
            contexts[path] = FileContext(path, sources[path],
                                         project_root=root,
                                         location=located[path])
        return contexts[path]

    # -- 3. per-file rules (cache, then analysis) ---------------------------
    to_analyze: List[Path] = []
    for path in sources:
        display_path = located[path].display_path
        if check_cache is not None:
            hit = check_cache.get_file(display_path,
                                       hashes[display_path])
            if hit is not None:
                result.findings.extend(hit[0])
                result.suppressed.extend(hit[1])
                result.files_from_cache += 1
                continue
        to_analyze.append(path)

    result.files_analyzed = len(to_analyze)
    for path in to_analyze:
        ctx = context_for(path)
        findings, suppressed = _run_file_rules(ctx, file_rules)
        result.findings.extend(findings)
        result.suppressed.extend(suppressed)
        if check_cache is not None:
            check_cache.put_file(ctx.display_path,
                                 hashes[ctx.display_path],
                                 findings, suppressed)

    # -- 4. project rules ---------------------------------------------------
    if project_rules:
        analyzed = {files[path] for path in sources}
        reference: Dict[Path, str] = {}
        scope_hashes = dict(hashes)
        for path, resolved in reference_files(root, paths,
                                              analyzed).items():
            try:
                reference[path] = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue        # reference context is best-effort
            located[path] = locate(path, resolved, resolved_root)
            scope_hashes[located[path].display_path] = \
                file_digest(reference[path])
        digest = project_digest(scope_hashes,
                                [r.rule_id for r in project_rules])
        hit = check_cache.get_project(digest) \
            if check_cache is not None else None
        if hit is not None:
            result.findings.extend(hit[0])
            result.suppressed.extend(hit[1])
        else:
            result.project_analyzed = True
            analyzed_ctxs = [context_for(path) for path in sources]
            reference_ctxs = [
                FileContext(path, source, project_root=root,
                            location=located[path])
                for path, source in reference.items()]
            project = ProjectContext(analyzed_ctxs, reference_ctxs,
                                     project_root=root)
            by_path = {ctx.display_path: ctx for ctx in analyzed_ctxs}
            project_findings: List[Finding] = []
            project_suppressed: List[Finding] = []
            for rule in project_rules:
                for finding in rule.check_project(project):
                    ctx = by_path.get(finding.path)
                    if ctx is None:
                        continue        # reference-only file
                    if ctx.is_suppressed(finding):
                        project_suppressed.append(finding)
                    else:
                        project_findings.append(finding)
            result.findings.extend(project_findings)
            result.suppressed.extend(project_suppressed)
            if check_cache is not None:
                check_cache.put_project(digest, project_findings,
                                        project_suppressed)

    # -- 5. ordering, bookkeeping -------------------------------------------
    if check_cache is not None:
        check_cache.save()
    result.findings.sort(key=lambda f: f.sort_key())
    result.suppressed.sort(key=lambda f: f.sort_key())
    result.duration_s = time.perf_counter() - started
    return result
