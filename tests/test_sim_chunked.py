"""Chunked-backend goldens: the kernels ARE the scalar engine.

The chunked engine's contract is byte-for-byte equality with the
scalar reference backend — not statistical agreement.  Every test
here asserts exact equality of measurements, draw counters, and RNG
generator states across policy families, arrival/service processes,
and variate modes, plus the interoperability guarantees (snapshots
resume across backends, incremental ``run_to`` chunks arbitrarily).
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import kernels
from repro.sim.arrivals import VARIATE_MODES
from repro.sim.chunked import ChunkedSimulationEngine
from repro.sim.fair_queueing import StartTimeFairQueue
from repro.sim.queues import (
    FairShareLadderQueue,
    FIFOQueue,
    RoundRobinQueue,
)
from repro.sim.runner import (
    ENV_ENGINE_BACKEND,
    SimulationConfig,
    SimulationEngine,
    engine_backend,
    simulate,
)
from repro.sweep.catalog import builtin_catalog

RATES = (0.08, 0.16, 0.24, 0.32)

HAVE_KERNELS = kernels.kernels_available()
needs_kernels = pytest.mark.skipif(
    not HAVE_KERNELS, reason="no C toolchain: chunked backend falls "
    "back to the scalar loop, making equality trivial")


def config_for(policy, arrival="poisson", service="exponential",
               mode="default", horizon=3000.0, seed=7):
    return SimulationConfig(rates=RATES, policy=policy, horizon=horizon,
                            warmup=100.0, seed=seed, batch_quota=190.0,
                            arrival_process=arrival,
                            service_process=service, variate_mode=mode)


def run_engine(engine_cls, config, horizons=None):
    engine = engine_cls(config)
    for horizon in horizons or (config.horizon,):
        engine.run_to(horizon)
    return engine


def backlog_fingerprint(policy):
    """The policy's queued packets, their arrival order and registers.

    Raw packet sequence numbers are left out: they come from a
    process-global counter, and the chunked export renumbers the
    backlog, keeping only its relative order.
    """
    locked = [policy._locked] if getattr(policy, "_locked", None) else []
    if isinstance(policy, FIFOQueue):
        queues, registers = [policy._queue], ()
    elif isinstance(policy, FairShareLadderQueue):
        queues, registers = policy._classes, (policy._count,)
    elif isinstance(policy, RoundRobinQueue):
        queues = [locked, *policy._queues]
        registers = (policy._cursor, policy._count)
    elif isinstance(policy, StartTimeFairQueue):
        heap = sorted(policy._heap, key=lambda entry: entry[:2])
        queues = [locked, [packet for _start, _seq, packet in heap]]
        registers = (tuple(start for start, _seq, _packet in heap),
                     policy._virtual_time, tuple(policy._finish_tags))
    else:                               # processor sharing
        queues, registers = [policy._packets], ()

    def fields(packet):
        return (packet.user, packet.arrival_time, packet.priority,
                packet.size)

    backlog = sorted((packet for queue in queues for packet in queue),
                     key=lambda packet: packet.seq)
    return (tuple(tuple(map(fields, queue)) for queue in queues),
            registers, tuple(map(fields, backlog)))


def state_fingerprint(engine):
    """Everything observable: results, counters, generator states,
    and the policy backlog."""
    result = engine.result()
    stream_states = tuple(
        (stream.draws, stream._pos, tuple(stream._buf),
         stream._rng.bit_generator.state["state"]["state"])
        for stream in engine.arrival_streams)
    service = engine.service_stream
    batch = result.batch
    # Before the first batch closes the per-batch arrays are None.
    per_batch = tuple(
        None if values is None else values.tobytes()
        for values in (batch.per_batch, batch.per_batch_arrivals,
                       batch.per_batch_sizes))
    return (result.mean_queues.tobytes(),
            per_batch,
            result.mean_delays.tobytes(),
            result.throughputs.tobytes(),
            result.arrivals, result.departures,
            result.variate_draws,
            stream_states,
            (service.draws, service._pos, tuple(service._buf),
             service._rng.bit_generator.state["state"]["state"]),
            engine.policy_rng.bit_generator.state["state"]["state"],
            engine.now, engine.next_completion,
            tuple(sorted(engine.arrivals_heap)),
            backlog_fingerprint(engine.policy))


#: Policy/process/mode matrix covering all four kernels, every
#: arrival process, non-exponential service, and the inversion modes.
MATRIX = [
    ("fifo", "poisson", "exponential", "default"),
    ("fifo", "deterministic", "exponential", "default"),
    ("fifo", "hyperexponential", "exponential", "inverse"),
    ("fair-share", "poisson", "exponential", "default"),
    ("fair-share", "hyperexponential", "exponential", "default"),
    ("fair-share", "deterministic", "exponential", "antithetic"),
    ("fq", "poisson", "exponential", "default"),
    ("fq", "poisson", "hyperexponential", "default"),
    ("fq", "hyperexponential", "deterministic", "default"),
    ("fq", "poisson", "exponential", "inverse"),
    ("round-robin", "poisson", "exponential", "default"),
    ("round-robin", "hyperexponential", "exponential", "inverse"),
    ("round-robin", "deterministic", "exponential", "antithetic"),
]

#: The disciplines with a compiled kernel.
KERNEL_POLICIES = ["fifo", "fair-share", "fq", "round-robin"]


@needs_kernels
class TestBitIdentity:
    @pytest.mark.parametrize("policy,arrival,service,mode", MATRIX)
    def test_chunked_equals_scalar(self, policy, arrival, service,
                                   mode):
        config = config_for(policy, arrival, service, mode)
        scalar = run_engine(SimulationEngine, config)
        chunked = run_engine(ChunkedSimulationEngine, config)
        assert state_fingerprint(scalar) == state_fingerprint(chunked)

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_incremental_run_to_matches_single_call(self, policy):
        config = config_for(policy)
        whole = run_engine(ChunkedSimulationEngine, config)
        pieces = run_engine(ChunkedSimulationEngine, config,
                            horizons=(400.0, 800.0, 1700.0, 3000.0))
        assert state_fingerprint(whole) == state_fingerprint(pieces)

    def test_single_user_and_seed_sweep(self):
        for seed in (0, 3, 123):
            config = SimulationConfig(
                rates=(0.55,), policy="fifo", horizon=2000.0,
                warmup=50.0, seed=seed, batch_quota=130.0)
            scalar = run_engine(SimulationEngine, config)
            chunked = run_engine(ChunkedSimulationEngine, config)
            assert state_fingerprint(scalar) == \
                state_fingerprint(chunked)

    @pytest.mark.parametrize("rates", [
        (0.55,), tuple(np.linspace(0.02, 0.2, 8))], ids=["n1", "n8"])
    def test_round_robin_user_counts(self, rates):
        for seed in (0, 3, 123):
            config = SimulationConfig(
                rates=rates, policy="round-robin", horizon=2000.0,
                warmup=50.0, seed=seed, batch_quota=130.0)
            scalar = run_engine(SimulationEngine, config)
            chunked = run_engine(ChunkedSimulationEngine, config)
            assert state_fingerprint(scalar) == \
                state_fingerprint(chunked)

    def test_round_robin_queue_count_differs_from_users(self):
        # Spare subqueues stay empty but the cursor still wraps over
        # them; with too few, the scalar push raises, so the kernel
        # (which would write past its lists) must not run.
        engines = [
            cls(replace(config_for("round-robin"),
                        policy=RoundRobinQueue(6)))
            for cls in (SimulationEngine, ChunkedSimulationEngine)]
        assert engines[1]._kernel_kind() == "rr"
        for engine in engines:
            engine.run_to(3000.0)
        assert state_fingerprint(engines[0]) == \
            state_fingerprint(engines[1])
        short = ChunkedSimulationEngine(replace(
            config_for("round-robin"), policy=RoundRobinQueue(3)))
        assert short._kernel_kind() is None

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_growth_reentries_match_scalar(self, policy):
        # Overload (rho 1.5) outgrows the kernels' initial 1024-packet
        # arrays, and 145 batches outgrow the tracker's batch matrix
        # several times: each return must resume exactly where the
        # kernel stopped.
        config = SimulationConfig(rates=(0.5, 0.6, 0.4), policy=policy,
                                  horizon=3000.0, warmup=60.0, seed=5,
                                  batch_quota=20.0)
        scalar = run_engine(SimulationEngine, config)
        chunked = run_engine(ChunkedSimulationEngine, config)
        assert len(scalar.policy) > 1024
        assert state_fingerprint(scalar) == state_fingerprint(chunked)

    def test_n_batches_layout_matches(self):
        # The horizon-tied batch layout (no batch_quota) must also
        # reproduce, including the discarded partial batch.
        config = SimulationConfig(rates=RATES, policy="fair-share",
                                  horizon=2500.0, warmup=100.0,
                                  seed=9, n_batches=12)
        scalar = run_engine(SimulationEngine, config)
        chunked = run_engine(ChunkedSimulationEngine, config)
        assert state_fingerprint(scalar) == state_fingerprint(chunked)


@needs_kernels
class TestGoldenDrawCounts:
    """Pin the realized per-stream draw counts for one golden config.

    These counters are the draw-order contract made visible: if a
    refactor of the chunk protocol consumes even one extra variate,
    these exact numbers change.
    """

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_draws_match_scalar_exactly(self, policy):
        config = config_for(policy)
        scalar = run_engine(SimulationEngine, config)
        chunked = run_engine(ChunkedSimulationEngine, config)
        assert chunked.result().variate_draws == \
            scalar.result().variate_draws

    def test_golden_fifo_draw_counts(self):
        # Golden sequence counts at seed 7 / horizon 3000 (pinned):
        # a change here means the engine's RNG contract changed and
        # ENGINE_VERSION must be bumped.
        chunked = run_engine(ChunkedSimulationEngine,
                             config_for("fifo"))
        assert chunked.result().variate_draws == (204, 541, 699, 952,
                                                  4351)


@needs_kernels
class TestCrossBackendSnapshots:
    @pytest.mark.parametrize("first,second", [
        (SimulationEngine, ChunkedSimulationEngine),
        (ChunkedSimulationEngine, SimulationEngine),
    ])
    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_snapshot_resumes_across_backends(self, first, second,
                                              policy):
        config = config_for(policy)
        straight = run_engine(first, config)
        partial = run_engine(first, config, horizons=(1300.0,))
        state = pickle.loads(pickle.dumps(partial.snapshot()))
        resumed = second.resume(state, config)
        resumed.run_to(config.horizon)
        assert state_fingerprint(straight) == \
            state_fingerprint(resumed)

    @pytest.mark.parametrize("first,second", [
        (SimulationEngine, ChunkedSimulationEngine),
        (ChunkedSimulationEngine, SimulationEngine),
    ])
    def test_round_robin_resumes_mid_service(self, first, second):
        # At t=1500 a packet is locked, the cursor is past user 0 and
        # several subqueues hold packets: the whole round-robin state
        # crosses the snapshot.
        config = config_for("round-robin")
        straight = run_engine(first, config)
        partial = run_engine(first, config, horizons=(1500.0,))
        policy = partial.policy
        assert policy._locked is not None and policy._cursor != 0
        assert sum(1 for queue in policy._queues if queue) >= 2
        state = pickle.loads(pickle.dumps(partial.snapshot()))
        resumed = second.resume(state, config)
        assert state_fingerprint(resumed) == state_fingerprint(
            run_engine(second, config, horizons=(1500.0,)))
        resumed.run_to(config.horizon)
        assert state_fingerprint(straight) == \
            state_fingerprint(resumed)


@st.composite
def engine_cases(draw):
    """A random single-switch config, ``run_to`` split points, a
    variate block size and (used by ``fq`` only) a service process."""
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n,
                            max_size=n))
    load = draw(st.floats(0.05, 0.94))
    rates = tuple(load * w / sum(weights) for w in weights)
    horizon = draw(st.floats(300.0, 1500.0))
    config = SimulationConfig(
        rates=rates, policy="fifo", horizon=horizon,
        warmup=0.1 * horizon, seed=draw(st.integers(0, 2**32 - 1)),
        batch_quota=0.09 * horizon,
        arrival_process=draw(st.sampled_from(
            ("poisson", "hyperexponential", "deterministic"))),
        variate_mode=draw(st.sampled_from(VARIATE_MODES)))
    splits = sorted(draw(st.lists(st.floats(1.0, horizon),
                                  max_size=2)))
    block = draw(st.sampled_from((1, 2, 7, 1024)))
    service = draw(st.sampled_from(
        ("exponential", "deterministic", "hyperexponential")))
    return config, splits + [horizon], block, service


def set_block_size(engine, size):
    """Draw ``size``-variate blocks on every stream from now on.

    Each stream's current block is cut to its first ``size`` variates
    too (the construction draw left a full one), so arrival refills
    fall inside short runs.  Both engines of a comparison get the same
    cut, which keeps their states identical.
    """
    for stream in (*engine.arrival_streams, engine.service_stream):
        stream.block_size = size
        stream._set_block(stream._buf[:size])


@needs_kernels
class TestGeneratedConfigs:
    """Scalar/chunked equality on generated configs, checked after
    every ``run_to`` step."""

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    @given(case=engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_chunked_equals_scalar(self, policy, case):
        config, horizons, block, service = case
        config = replace(config, policy=policy)
        if policy == "fq":
            # The one sized kernel: any service process runs on it.
            config = replace(config, service_process=service)
        scalar = SimulationEngine(config)
        chunked = ChunkedSimulationEngine(config)
        for engine in (scalar, chunked):
            set_block_size(engine, block)
        for horizon in horizons:
            scalar.run_to(horizon)
            chunked.run_to(horizon)
            assert state_fingerprint(scalar) == \
                state_fingerprint(chunked)


@needs_kernels
class TestSfqResumeOrder:
    def test_resumed_backlog_keeps_arrival_order(self):
        """Regression: resuming the fq kernel ranked the packet in
        service ahead of the queue, so a backlog whose packet in
        service arrived after a queued one came back out of arrival
        order (found by ``TestGeneratedConfigs``)."""
        config = SimulationConfig(
            rates=(0.375, 0.375), policy="fq", horizon=1348.0,
            warmup=134.8, seed=0, batch_quota=121.32)
        scalar = SimulationEngine(config)
        chunked = ChunkedSimulationEngine(config)
        for engine in (scalar, chunked):
            set_block_size(engine, 1)
        for horizon in (1347.0, 1348.0):
            scalar.run_to(horizon)
            chunked.run_to(horizon)
            assert state_fingerprint(scalar) == \
                state_fingerprint(chunked)


class TestKernelCoverage:
    """Every built-in sweep cell runs on a compiled kernel.

    A type check, so it needs no compiler: a cell whose policy loses
    its kernel would put the benchmarked sweep back on the scalar
    loop, about 10x slower.
    """

    @pytest.mark.parametrize("name", ["paper", "smoke"])
    def test_builtin_catalog_cells_have_a_kernel(self, name):
        uncovered = [
            cell for cell in builtin_catalog(name).cells
            if ChunkedSimulationEngine(cell.config())._kernel_kind()
            is None]
        assert uncovered == []


class TestBackendSelection:
    def test_default_backend_is_auto(self, monkeypatch):
        monkeypatch.delenv(ENV_ENGINE_BACKEND, raising=False)
        assert engine_backend() == "auto"

    @pytest.mark.parametrize("backend", ["scalar", "chunked", "auto"])
    def test_env_selects_backend(self, monkeypatch, backend):
        monkeypatch.setenv(ENV_ENGINE_BACKEND, backend)
        assert engine_backend() == backend

    def test_unknown_backend_rejected(self, monkeypatch):
        from repro.exceptions import SimulationError

        monkeypatch.setenv(ENV_ENGINE_BACKEND, "vectorized")
        with pytest.raises(SimulationError):
            engine_backend()

    def test_simulate_identical_across_backends(self, monkeypatch):
        config = config_for("fair-share")
        monkeypatch.setenv(ENV_ENGINE_BACKEND, "scalar")
        scalar = simulate(config)
        monkeypatch.setenv(ENV_ENGINE_BACKEND, "chunked")
        chunked = simulate(config)
        np.testing.assert_array_equal(scalar.mean_queues,
                                      chunked.mean_queues)
        np.testing.assert_array_equal(scalar.batch.per_batch,
                                      chunked.batch.per_batch)
        assert scalar.variate_draws == chunked.variate_draws

    def test_unsupported_policy_falls_back_to_scalar(self):
        # Processor sharing has no kernel: the chunked engine must
        # delegate to the inherited scalar loop and still be exact.
        config = SimulationConfig(rates=RATES, policy="ps",
                                  horizon=1500.0, warmup=100.0,
                                  seed=5, batch_quota=130.0)
        scalar = run_engine(SimulationEngine, config)
        chunked = run_engine(ChunkedSimulationEngine, config)
        assert state_fingerprint(scalar) == state_fingerprint(chunked)


class TestKernelToolchain:
    def test_kernel_dir_honors_environment(self, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL_DIR,
                           str(tmp_path / "kcache"))
        assert kernels.kernel_dir() == str(tmp_path / "kcache")

    def test_kernels_available_is_boolean(self):
        assert kernels.kernels_available() in (True, False)

    @needs_kernels
    def test_shared_object_is_cached_on_disk(self):
        from pathlib import Path

        lib = kernels.load_kernels()
        assert lib is not None
        cached = list(Path(kernels.kernel_dir()).glob("gw-*.so"))
        assert cached, "compiled kernel missing from the cache dir"
