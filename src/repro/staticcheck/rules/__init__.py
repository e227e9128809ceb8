"""Built-in rules; importing this module registers all of them."""

from repro.staticcheck.rules.layers import LayerDAGRule
from repro.staticcheck.rules.contracts import DisciplineContractRule
from repro.staticcheck.rules.rng import RNGDisciplineRule
from repro.staticcheck.rules.perf import (
    FixedHorizonSimulateRule,
    PerUserLoopInClassSpaceRule,
    ScalarCandidateScanRule,
)
from repro.staticcheck.rules.numerical import (
    UnguardedDomainCallRule,
    UnguardedPoleDivisionRule,
)
from repro.staticcheck.rules.wholeprogram import StatefulDisciplineRule
from repro.staticcheck.rules.state import (
    CacheKeyCompletenessRule,
    EngineStatePicklingRule,
    SnapshotCoverageRule,
)
from repro.staticcheck.rules.determinism import (
    OrderedAggregationRule,
    VariateContractRule,
)
from repro.staticcheck.rules.parallel import (
    BlockingEventLoopRule,
    UnpicklableWorkerRule,
    WorkerSharedStateRule,
)

__all__ = [
    "LayerDAGRule",
    "DisciplineContractRule",
    "RNGDisciplineRule",
    "ScalarCandidateScanRule",
    "FixedHorizonSimulateRule",
    "PerUserLoopInClassSpaceRule",
    "UnguardedPoleDivisionRule",
    "UnguardedDomainCallRule",
    "StatefulDisciplineRule",
    "SnapshotCoverageRule",
    "EngineStatePicklingRule",
    "CacheKeyCompletenessRule",
    "VariateContractRule",
    "OrderedAggregationRule",
    "WorkerSharedStateRule",
    "UnpicklableWorkerRule",
    "BlockingEventLoopRule",
]
