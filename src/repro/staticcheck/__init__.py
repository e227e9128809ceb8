"""`greedwork check`: the repo-native static-analysis suite.

The paper's guarantees (efficiency, uniqueness, protection) hold only
when the allocation function obeys structural contracts; analogously,
the reproduction's guarantees (reproducible experiments, a layered
architecture, a uniform discipline interface, numerical safety near
the ``g(x) = x/(1-x)`` pole) hold only when the *code* obeys contracts
that ordinary linters do not know about.  This package enforces them
mechanically, with per-file rules plus whole-program rules that see
the full :class:`~repro.staticcheck.project.ProjectContext` (symbol
table, import graph, approximate call graph, state-flow layer):

``GW001``  layer-DAG enforcement — imports must flow down the
           architecture (`numerics/queueing` → `costsharing/
           disciplines/users` → `game/sim/network` →
           `analysis/experiments` → `cli`).
``GW002``  discipline-contract conformance — everything registered in
           ``repro.disciplines.registry`` must statically implement
           the :class:`~repro.disciplines.base.AllocationFunction`
           surface and be constructible by its registered factory.
``GW003``  RNG discipline — no stdlib ``random``, no legacy
           ``np.random.*`` global state, no raw
           ``np.random.default_rng``; randomness enters through
           ``Generator`` parameters or :func:`repro.numerics.default_rng`.
``GW105``  no scalar ``congestion_i`` scans over candidate rates in
           the game layer; one batched ``congestion_grid`` call.
``GW106``  no fixed-horizon ``simulate()`` in experiments where a
           precision target exists.
``GW107``  no per-user loops in the O(K) class-space and mean-field
           modules.
``GW201``  division by ``1 - x`` requires a dominating feasibility
           guard on every path (the M/M/1 pole at ``x -> 1``).
``GW202``  ``log``/``sqrt`` of possibly-negative subtractions require
           a guard or an explicit ``abs``/``clip`` wrapper.
``GW302``  registered disciplines must keep their allocation methods
           pure — no writes to module-level state (whole-program).
``GW303``  a from-import of a project module must name something the
           module binds, or a submodule (whole-program).
``GW4xx``  snapshot, engine-state and cache-key completeness.
``GW5xx``  CRN draw order, ordered aggregation and the chunked hot
           path.
``GW6xx``  parallel safety: worker-shared state, unpicklable worker
           callables, blocking calls in the event loop.

``greedwork explain [RULE]`` prints each rule's rationale, a minimal
triggering example and the approved fix.  Findings are suppressible
per line with ``# greedwork: ignore[GW00x]`` (comma-separate several
ids; a bare ``ignore`` or ``ignore[*]`` silences every rule for that
line; a comment-only pragma covers the next statement line).  Runs
are incremental (content-hash cache under ``.greedwork_cache/``),
parallelizable (``--jobs``) and exportable as SARIF 2.1.0 for GitHub
code scanning (``--format sarif``).  Run it as ``greedwork check`` or
programmatically via :func:`run_checks`.
"""

from repro.staticcheck.cache import (
    CACHE_DIR_NAME,
    CheckCache,
    engine_signature,
    file_digest,
)
from repro.staticcheck.core import (
    CheckResult,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register_rule,
    select_rules,
)
from repro.staticcheck.project import ModuleInfo, ProjectContext, Symbol
from repro.staticcheck.reporters import (
    render_json,
    render_sarif,
    render_stats,
    render_text,
)
from repro.staticcheck.runner import (
    CheckUsageError,
    collect_files,
    run_checks,
)

__all__ = [
    "CACHE_DIR_NAME",
    "CheckCache",
    "CheckResult",
    "CheckUsageError",
    "FileContext",
    "Finding",
    "ModuleInfo",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Symbol",
    "all_rules",
    "collect_files",
    "engine_signature",
    "file_digest",
    "get_rule",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_stats",
    "render_text",
    "run_checks",
    "select_rules",
]
