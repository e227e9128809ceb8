"""Packet-level discrete-event simulation of the shared switch.

The game-theoretic layers work on *allocation functions* — closed-form
maps from rates to mean queues.  This package realizes the same
disciplines at packet granularity: Poisson sources feed a unit-rate
exponential server governed by a queueing policy (FIFO, preemptive
LIFO, processor sharing, priority, the Table-1 Fair Share ladder with
oracle or estimated rates, HOL priority, round robin), and time-
weighted per-user queue measurements recover the allocation functions
— validating that e.g. the priority ladder really realizes ``C^FS``.

Because service is exponential (memoryless), the engine uses a
jump-chain scheme: whenever the system state changes, the next
completion is re-drawn ``Exp(mu)`` for whichever packet the policy
currently serves.  This is distributionally exact for every policy
here, including preemptive-resume ones.

:mod:`repro.sim.agents` closes the loop of the paper's story: selfish
hill-climbing agents adjust their Poisson rates from noisy *measured*
utilities, with no knowledge of the allocation function — converging
near the analytic Nash equilibrium under Fair Share.
"""

from repro.sim.packet import Packet
from repro.sim.queues import (
    AdaptiveFairShareQueue,
    FIFOQueue,
    FairShareLadderQueue,
    HOLPriorityQueue,
    LIFOPreemptiveQueue,
    ProcessorSharingQueue,
    QueuePolicy,
    RoundRobinQueue,
    make_policy,
)
from repro.sim.measurements import BatchMeans, QueueTracker
from repro.sim.runner import (
    PrecisionResult,
    ReplicationSummary,
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
    control_variate_summary,
    paired_configs,
    replicate,
    simulate,
    simulate_to_precision,
)
from repro.sim.stats import (
    ControlVariateSummary,
    control_variate_adjust,
    t_quantile,
)
from repro.sim.agents import AgentConfig, HillClimbingAgent, run_selfish_loop

__all__ = [
    "PrecisionResult",
    "ReplicationSummary",
    "SimulationEngine",
    "ControlVariateSummary",
    "control_variate_adjust",
    "control_variate_summary",
    "paired_configs",
    "replicate",
    "simulate_to_precision",
    "t_quantile",
    "Packet",
    "QueuePolicy",
    "FIFOQueue",
    "LIFOPreemptiveQueue",
    "ProcessorSharingQueue",
    "FairShareLadderQueue",
    "AdaptiveFairShareQueue",
    "HOLPriorityQueue",
    "RoundRobinQueue",
    "make_policy",
    "QueueTracker",
    "BatchMeans",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    "AgentConfig",
    "HillClimbingAgent",
    "run_selfish_loop",
]
