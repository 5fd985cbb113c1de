"""The benchmark's workloads: one ``SystemConfig`` per name and seed.

The seed is a benchmark argument; the program only ever receives the
built config.  It feeds both ``SystemConfig.seed`` (latency jitter,
fault draws) and the workload generator's own ``seed`` (which peer each
hop goes to), so two seeds give two different runs of the same shape.

``repro`` is imported inside :func:`build_config`, never at module level,
so a caller can time ``import repro`` as part of set-up.
"""

from __future__ import annotations

from typing import Any, Dict

#: name -> one-line reason, in the order the benchmark runs them
WORKLOADS: Dict[str, str] = {
    "fbl_uniform": (
        "FBL piggybacking, the kernel/net hot loop and the end-of-run "
        "oracle check; storage and checkpointing nearly idle"
    ),
    "fbl_uniform_observed": (
        "the same run with sanitizer, cost ledger, sampler and spans on: "
        "the only workload where the observer layers run"
    ),
    "adaptive_shifting": (
        "storage writes, checkpoint chains, transport retransmits, two "
        "overlapping recoveries and mode switches of the adaptive stack"
    ),
}

#: chain length of the uniform runs: 16 nodes x 2 chains x hops, about
#: 9.6k surviving deliveries; the ROADMAP's default run uses 20000
#: hops and takes minutes
UNIFORM_HOPS = 300
#: steady-phase length of the shifting runs.  Host time grows
#: superlinearly with it (every checkpoint deep-copies the growing
#: delivery history), so keep it modest
SHIFTING_STEADY_HOPS = 60


def build_config(name: str, seed: int) -> Any:
    """The ``SystemConfig`` of workload ``name`` under ``seed``."""
    from repro import SystemConfig, crash_at

    if name in ("fbl_uniform", "fbl_uniform_observed"):
        # the ROADMAP default run (`repro run --n 16 --crash 3@0.05`) at
        # reduced length: fbl f=2, nonblocking recovery, one crash
        config = SystemConfig(
            name=name,
            n=16,
            seed=seed,
            protocol="fbl",
            protocol_params={"f": 2},
            recovery="nonblocking",
            workload="uniform",
            workload_params={"hops": UNIFORM_HOPS, "fanout": 2, "seed": seed},
            crashes=[crash_at(node=3, time=0.05)],
            detection_delay=3.0,
        )
        if name == "fbl_uniform_observed":
            config.sanitize = True
            config.cost_ledger = True
            config.timeseries_window = 0.05
            config.spans = True
        return config
    if name == "adaptive_shifting":
        from repro.core.config import AdaptiveConfig, StorageRealismConfig

        # E14's adaptive stack and shifting workload at n=8 over the
        # reliable transport, with two overlapping recoveries.
        #  * bursty_hops=0 and steady_one_in=1 make the run's size
        #    independent of the seed: each of the 7 clients bursts once
        #    to its 6 workers and every burst seeds one steady chain
        #    (42 chains).  E14's branching bursts vary the run length
        #    tenfold from seed to seed.
        #  * no injected loss: with any loss, nonblocking recovery wedges
        #    on many seeds (a recovering process polls the sequencer
        #    forever; see NOTES.md).  Spurious-timeout retransmissions
        #    still exercise the retransmit/ack path.
        return SystemConfig(
            name=name,
            n=8,
            seed=seed,
            protocol="adaptive",
            protocol_params={"f": 2},
            recovery="nonblocking",
            adaptive=AdaptiveConfig(f=2, eval_every=6, min_dwell=8, hysteresis=1.0),
            workload="shifting",
            workload_params={
                "bursty_hops": 0,
                "steady_hops": SHIFTING_STEADY_HOPS,
                "requests": 4,
                "server": 0,
                "seed": seed,
                "steady_one_in": 1,
            },
            checkpoint_every=12,
            state_bytes=16_384,
            storage_op_latency=0.0005,
            storage_realism=StorageRealismConfig(
                incremental_checkpoints=True,
                dirty_bytes_per_delivery=128,
                group_commit=True,
                batch_window=0.0005,
                log_compaction=True,
            ),
            transport="reliable",
            crashes=[crash_at(node=4, time=0.012), crash_at(node=6, time=0.03)],
            detection_delay=3.0,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
