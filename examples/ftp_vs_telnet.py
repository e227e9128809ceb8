#!/usr/bin/env python3
"""The Section-5.2 workload: FTP-style vs Telnet-style users.

The paper motivates Fair Queueing with exactly this mix: bulk-transfer
users who care mostly about throughput, interactive users who care
mostly about delay.  We build that population, let every user
self-optimize, and then *validate the equilibrium on the packet-level
simulator*: the switch is run as an actual FIFO queue and as the
Table-1 Fair Share priority ladder with the equilibrium rates, and the
simulated per-user queues are compared with the analytic allocation.

Run:  python examples/ftp_vs_telnet.py
"""

import numpy as np

from repro import FairShareAllocation, ProportionalAllocation, solve_nash
from repro.experiments.base import Table
from repro.sim.runner import SimulationConfig, simulate
from repro.users.families import PowerUtility

#: Two FTP-ish flows (mild congestion aversion) and two Telnet-ish
#: flows (steep congestion aversion): all concave, all in AU.
PROFILE = [
    PowerUtility(gamma=0.35, q=1.3),
    PowerUtility(gamma=0.5, q=1.3),
    PowerUtility(gamma=5.0, q=1.3),
    PowerUtility(gamma=8.0, q=1.3),
]
LABELS = ["ftp-1", "ftp-2", "telnet-1", "telnet-2"]


def delay_of(rates: np.ndarray, congestion: np.ndarray) -> np.ndarray:
    """Per-user mean sojourn time via Little's law (c = r d).

    NaN for a user with zero throughput: a user the equilibrium prices
    down to a tiny rate may send no packet in the simulated window.
    """
    delays = np.full(np.shape(rates), np.nan)
    np.divide(congestion, rates, out=delays, where=rates > 0)
    return delays


def delay_cell(delay: float):
    """A delay table cell; an undefined delay prints as ``n/a``."""
    return "n/a" if np.isnan(delay) else float(delay)


def main() -> None:
    for switch, policy in ((ProportionalAllocation(), "fifo"),
                           (FairShareAllocation(), "fair-share")):
        equilibrium = solve_nash(switch, PROFILE)
        rates = equilibrium.rates
        sim = simulate(SimulationConfig(rates=rates, policy=policy,
                                        horizon=60000.0, warmup=3000.0,
                                        seed=42))
        delays = delay_of(rates, equilibrium.congestion)
        sim_delays = delay_of(sim.throughputs, sim.mean_queues)
        table = Table(
            title=f"{switch.name}: selfish equilibrium, analytic vs "
                  "packet simulation",
            headers=["user", "rate", "c_i (analytic)", "c_i (sim)",
                     "delay (analytic)", "delay (sim)"])
        for i, label in enumerate(LABELS):
            table.add_row(label, float(rates[i]),
                          float(equilibrium.congestion[i]),
                          float(sim.mean_queues[i]), delay_cell(delays[i]),
                          delay_cell(sim_delays[i]))
        print(table.render())
        telnet_delay = float(delays[2:].mean())
        ftp_rate = float(rates[:2].sum())
        print(f"  -> telnet mean delay {telnet_delay:.3f}, "
              f"ftp aggregate throughput {ftp_rate:.3f}\n")

    print("Fair Share mirrors the paper's Fair Queueing findings: the "
          "interactive flows see low delay because\nthe ladder serves "
          "their small rates at high priority, while the bulk flows "
          "still get the residual capacity.")


if __name__ == "__main__":
    main()
