"""One benchmark run in its own interpreter; prints one JSON record.

Usage (from the repository root)::

    python3 e2ebench/child.py --workload fbl_uniform --seed 0 --mode run

Modes:

``setup``
    ``import repro``, ``build_system`` and ``System.start``, timed, then
    a burst of host-speed probes (:func:`calibrate.burst_factor`), then
    exit.  Cheap extra samples of set-up time.
``run``
    set-up, then the whole run to the returned ``RunResult``, untraced,
    with the host-speed probe of :mod:`calibrate` sampling it; the
    probes' own time is taken out of ``wall_s``.
``traced``
    as ``run``, with the layer wrappers of :mod:`layers` installed
    before ``build_system``; adds per-layer metrics to the record.

The record carries the outcome check and the strict fingerprint, so the
caller can compare runs.  A run that raises inside the simulator is a
*failed run* (``ok: false``), not a crash of this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _ensure_paths() -> None:
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def _rss_kb() -> int:
    """Current resident set size of this process, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * (os.sysconf("SC_PAGE_SIZE") // 1024)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# outcome check and fingerprint
# ----------------------------------------------------------------------
def outcome_problems(workload: str, result: Any) -> List[str]:
    """Reasons the run counts as failed (empty when it passed)."""
    problems = []
    if not result.consistent:
        problems.append(f"oracle inconsistent: {result.oracle_violations[:3]}")
    if not all(episode.complete for episode in result.episodes):
        problems.append("incomplete recovery episode")
    non_live = result.extra.get("non_live_nodes", [])
    if non_live:
        problems.append(f"non-live nodes at end: {non_live}")
    if result.final_progress <= 0:
        problems.append("final_progress is 0")
    if workload == "fbl_uniform_observed":
        sanitizer = result.extra.get("sanitizer")
        if sanitizer is None or not sanitizer["clean"]:
            problems.append("sanitizer not clean")
        cost = result.extra.get("cost")
        if cost is None or not cost["conserved"]:
            problems.append("ledger not cost-conserved")
    return problems


def fingerprint(result: Any) -> Dict[str, Any]:
    """The strict outcome of a run, in canonical JSON form.

    State digests, end time, per-kind message and byte counts, per-node
    storage operations, delivered counts and committed outputs.  Two runs
    of one config and seed must match exactly; a host-only optimisation
    must leave it unchanged.
    """
    storage = {
        str(node): {
            key: ops[key] for key in ("reads", "writes", "bytes_read", "bytes_written")
        }
        for node, ops in sorted(result.storage_ops.items())
    }
    fp = {
        "digests": {str(k): v for k, v in sorted(result.digests.items())},
        "end_time": result.end_time,
        "messages": dict(sorted(result.network.messages.items())),
        "bytes": dict(sorted(result.network.bytes.items())),
        "retransmits": result.network.retransmits,
        "storage_ops": storage,
        "delivered": {
            str(k): v
            for k, v in sorted(result.extra.get("final_delivered_counts", {}).items())
        },
        "outputs": result.extra.get("outputs", {}).get("count", 0),
    }
    return json.loads(json.dumps(fp, sort_keys=True))


def fingerprint_digest(fp: Dict[str, Any]) -> str:
    """Short sha256 of a fingerprint's canonical JSON."""
    text = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def layer_metrics(tracer: Any, system: Any, result: Any) -> Dict[str, float]:
    """Per-layer metrics: self times from the tracer, exact counts from
    the run's own counters."""
    from layers import LAYERS

    self_s = tracer.self_seconds()
    metrics: Dict[str, float] = {f"{name}.self_s": self_s[name] for name in LAYERS}
    counters = result.extra["trace_counters"]
    stats = result.network
    transmits = stats.total_messages() + stats.retransmits
    app_sends = counters.get("app.send", 0)
    piggyback = result.extra["piggyback_determinants"]
    total = result.total_deliveries
    replayed = sum(e.replayed_deliveries or 0 for e in result.episodes)
    graph = system.oracle.graph
    saves = [ns / 1e3 for ns in tracer.durations["CheckpointStore.save"]]
    sanitizer = getattr(system, "sanitizer", None)
    metrics.update({
        "sim.events": result.extra["events_processed"],
        "trace.records": sum(counters.values()),
        "net.transmits": transmits,
        "net.wire_bytes": stats.total_bytes() + stats.retransmit_bytes,
        "net.retransmits": stats.retransmits,
        "net.useful_share": counters.get("net.deliver", 0) / transmits if transmits else 0.0,
        "protocols.piggyback_dets": piggyback,
        "protocols.piggyback_per_send": piggyback / app_sends if app_sends else 0.0,
        "protocols.mode_switches": counters.get("protocol.mode_switch", 0),
        "app.replay_share": replayed / total if total else 0.0,
        "storage.ops": sum(o["reads"] + o["writes"] for o in result.storage_ops.values()),
        "storage.bytes": sum(
            o["bytes_read"] + o["bytes_written"] for o in result.storage_ops.values()
        ),
        "storage.checkpoint.saves": len(saves),
        "storage.checkpoint.save_s": sum(saves) / 1e6,
        "storage.checkpoint.save_us_p90": (
            statistics.quantiles(saves, n=10)[-1] if len(saves) > 1 else sum(saves)
        ),
        "storage.checkpoint.restore_s": tracer.inclusive_seconds(
            "CheckpointStore.restore", "CheckpointStore.restore_line"
        ),
        "recovery.episodes": len(result.episodes),
        "recovery.control_msgs": stats.messages.get("recovery", 0),
        "recovery.sim_duration_s": sum(e.total_duration or 0.0 for e in result.episodes),
        "oracle.check_s": tracer.inclusive_seconds(
            "ConsistencyOracle.check_safety", "NullOracle.check_safety",
            "System._check_output_safety",
        ),
        "oracle.graph_entries": (
            len(graph.send_context) + len(graph.delivery) + graph.archived_entries()
        ),
        "system.summarize_s": tracer.inclusive_seconds("System.summarize"),
        "ledger.charges": sum(
            tracer.calls(f"CostLedger.{m}")
            for m in ("charge_wire", "charge_storage", "charge_batch", "charge_gc")
        ),
        "sanitizer.events_seen": sanitizer.events_seen if sanitizer is not None else 0,
        "traced_wall_s": tracer.root_ns / 1e9,
        "self_time_coverage": sum(tracer.self_ns) / tracer.root_ns,
    })
    return metrics


# ----------------------------------------------------------------------
def run_once(
    workload: str,
    seed: int,
    mode: str = "run",
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Set up (and unless ``mode == "setup"`` run) one workload.

    Returns the JSON-ready record.  Set-up time covers ``import repro``
    only when this is the first import in the process, as it is when
    :func:`main` runs in a fresh interpreter.
    """
    _ensure_paths()
    from calibrate import Probe, burst_factor, host_factor

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: set-up includes the imports)
    from workloads import build_config

    installation = tracer = None
    config = build_config(workload, seed)
    if mode == "traced":
        from layers import Installation, Tracer

        tracer = Tracer()
        installation = Installation(tracer).install()
    try:
        system = repro.build_system(config)
        system.start()
        setup_s = time.perf_counter() - t0
        record: Dict[str, Any] = {
            "workload": workload, "seed": seed, "mode": mode, "setup_s": setup_s,
            "setup_host_factor": burst_factor(),
        }
        if mode == "setup":
            return record
        setup_rss_kb = _rss_kb()
        problems: List[str] = []
        result = None
        probe = Probe()
        t1 = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.run(system.run)
            else:
                with probe:
                    result = system.run()
        except Exception as exc:  # the run failed; report it, keep going
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall_s = time.perf_counter() - t1 - probe.total_ns / 1e9
    finally:
        if installation is not None:
            installation.remove()
    peak_kb = _peak_rss_kb()
    record.update({
        "wall_s": wall_s, "peak_rss_kb": peak_kb, "setup_rss_kb": setup_rss_kb,
        "host_factor": host_factor(probe.samples), "probes": len(probe.samples),
    })
    if result is not None:
        problems.extend(outcome_problems(workload, result))
        progress = result.final_progress
        record.update({
            "final_progress": progress,
            "fingerprint": fingerprint(result),
        })
        if tracer is not None:
            record["wall_s"] = tracer.root_ns / 1e9
            record["layers"] = layer_metrics(tracer, system, result)
            record["entry_calls"] = {
                key: calls for key, (calls, _ns) in sorted(tracer.entries.items()) if calls
            }
            if spans_out is not None:
                record["spans_written"] = tracer.write_spans(spans_out)
    record["problems"] = problems
    record["ok"] = not problems
    return record


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run once, print the record as one JSON line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), default="run")
    parser.add_argument("--spans-out", default=None,
                        help="traced mode: write the span records here")
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, args.mode, args.spans_out)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
