"""Networks of switches (the Section-5.4 generalization).

The paper's closing discussion sketches the multi-switch game: users
route through several switches, care only about their *total*
congestion ``c_i = sum_alpha c_i^alpha``, and — modulo the Poisson
output approximation — most single-switch results generalize.  This
package builds that model:

* :class:`NetworkAllocation` composes per-switch allocation functions
  over user routes into one allocation-function-like object, so the
  entire game layer (best responses, Nash, Stackelberg, protection,
  dynamics) runs on networks unchanged;
* :func:`repro.network.sharded.simulate_sharded` is the packet-level
  simulator for arbitrary switch graphs: each switch runs its own
  chunked event engine, with deterministic inter-switch handoff via
  conservative time windows.
  Its two-hop line (:func:`~repro.network.sharded.tandem_config`)
  probes the Poisson-output approximation: exact for FIFO tandems
  (Burke/Jackson), approximate for Fair Share ladders.
"""

from repro.network.model import NetworkAllocation, Route
from repro.network.sharded import (
    ShardedResult,
    SwitchGraphConfig,
    simulate_sharded,
    tandem_config,
)

__all__ = [
    "Route",
    "NetworkAllocation",
    "SwitchGraphConfig",
    "ShardedResult",
    "simulate_sharded",
    "tandem_config",
]
