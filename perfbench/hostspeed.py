"""Host-speed calibration of the benchmark's timed sections.

The speed of a shared host drifts: on a 2-vCPU KVM guest, check-cold
passes slowed by up to 1.9x within minutes, in bursts of a few
seconds, with no steal time and no other process of the guest
running.  Raw times taken minutes apart inherit that spread: over 22
passes in four minutes, their interquartile range was 0.25 of the
median raw and 0.07 calibrated.

A :class:`HostSpeed` block samples the host while the timed work runs:
a real-time interval timer interrupts the main thread every
``PROBE_INTERVAL_S`` and times a fixed probe in thread CPU time, so
that a probe waiting for the benchmark's own sweep workers to yield a
core does not count as a slow host.  The block's times are
then scaled by ``PROBE_NOMINAL_S`` over the median probe time, which
cancels most of the drift.  A calibrated second is a second on a host
where the probe takes ``PROBE_NOMINAL_S``.  The probes run inside the
timed work and cost about 3% of it, on both sides of any comparison.

A set-up of a few tens of milliseconds is too short to interrupt
cleanly, so ``run.py`` takes :func:`sample` just before each set-up,
outside its timer, and scales by :func:`calibration` instead.
"""

import gc
import signal
import statistics
import time

#: Seconds between probes.
PROBE_INTERVAL_S = 0.1
#: Probes per block at least; a block too short for them is followed
#: by the rest, back to back (a median of fewer is noisy).
MIN_PROBES = 15
#: Tuples built, sorted and indexed by one probe.
PROBE_ITEMS = 5000
#: Seconds one probe takes on the nominal host, which defines a
#: calibrated second.  Interrupting check-cold passes on a 2-vCPU
#: x86-64 KVM guest with CPython 3.11, the median probe took 2.7-5.1 ms
#: as the shared host sped up and slowed down.
PROBE_NOMINAL_S = 0.003


def probe():
    """Fixed interpreter-bound work: build, sort and index tuples.

    Object churn of this kind slows down with the host in step with the
    workloads, which spend most of their time allocating and walking
    Python objects.
    """
    data = [(k * 7919 % 10007, str(k)) for k in range(PROBE_ITEMS)]
    data.sort()
    table = {}
    for value, key in data:
        table[key] = value
    return sum(table.values())


def sample():
    """Thread CPU seconds of one probe, the garbage collector paused.

    A collection walks every live object; with it running the probe
    would time the workload's heap as well as the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.thread_time()
    probe()
    elapsed = time.thread_time() - started
    if enabled:
        gc.enable()
    return elapsed


def calibration(samples):
    """Raw seconds times this factor are calibrated seconds."""
    return PROBE_NOMINAL_S / statistics.median(samples)


class HostSpeed:
    """Samples the host's speed while the ``with`` block runs.

    Timers are not inherited across ``fork``, so pool workers forked
    earlier are not interrupted; only the main thread runs the probe.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, _signum=None, _frame=None):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_PROBES:
            self._sample()

    @property
    def factor(self):
        """Raw seconds times this factor are calibrated seconds."""
        return calibration(self.samples)
