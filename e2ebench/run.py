"""End-to-end, layer-attributed benchmark of full simulator runs.

Usage, from the repository root::

    python3 e2ebench/run.py --workload fbl_uniform --seed 0 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all            # every workload in turn

Every run is a fresh interpreter (``child.py``), started one at a time,
so peak RSS and set-up time are per run and nothing runs concurrently.
With ``--trace 0`` the benchmark repeats (set-up sample, full untraced
run) until ``--seconds`` have passed and reports:

``deliveries_per_s``
    surviving deliveries (``RunResult.final_progress``) of all runs over
    their host seconds, each timed from the first event to the returned
    ``RunResult`` (the end-of-run oracle check included);
``setup_s``
    median of ``import repro`` + ``build_system`` + ``System.start``;
``peak_rss_mb``
    median peak RSS of a run's process;
``rss_kb_per_delivery``
    median (peak RSS - RSS after set-up) / ``final_progress``.

The two timings are host-normalised: every run's time is rescaled to
the nominal host speed by the probe of ``calibrate.py`` sampled during
that run, and every set-up sample by a burst of probes right after it.
The raw figures and the runs' time-weighted ``host_factor`` are printed
beside them.

With ``--trace 1`` it alternates an untraced and a traced run (layer
wrappers from ``layers.py``) and reports the per-layer metrics of the
traced runs plus ``traced_slowdown``.

Every run is checked: see ``child.outcome_problems``; in addition its
strict fingerprint must equal the other runs' and the one recorded in
``fingerprints.json`` for that workload and seed.  A seed without a
recorded fingerprint has its fingerprint printed to stderr.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
OUT_DIR = os.path.join(ROOT, ".e2ebench-out")

sys.path.insert(0, HERE)
from child import fingerprint_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: every invocation must finish inside this many host seconds
DEADLINE_S = 170.0

END_TO_END = (
    ("deliveries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rss_kb_per_delivery", "KB"),
)

#: per-layer metric -> unit; every ``<layer>.self_s`` is seconds
PER_LAYER_UNITS = {
    "sim.events": "count",
    "trace.records": "count",
    "net.transmits": "count",
    "net.wire_bytes": "B",
    "net.retransmits": "count",
    "net.useful_share": "ratio",
    "protocols.piggyback_dets": "count",
    "protocols.piggyback_per_send": "dets/send",
    "protocols.mode_switches": "count",
    "app.replay_share": "ratio",
    "storage.ops": "count",
    "storage.bytes": "B",
    "storage.checkpoint.saves": "count",
    "storage.checkpoint.save_s": "s",
    "storage.checkpoint.save_us_p90": "us",
    "storage.checkpoint.restore_s": "s",
    "recovery.episodes": "count",
    "recovery.control_msgs": "count",
    "recovery.sim_duration_s": "s",
    "oracle.check_s": "s",
    "oracle.graph_entries": "count",
    "system.summarize_s": "s",
    "ledger.charges": "count",
    "sanitizer.events_seen": "count",
    "traced_wall_s": "s",
    "self_time_coverage": "ratio",
    "traced_slowdown": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed simulator run)."""


def _child(workload: str, seed: int, mode: str, deadline: float,
           spans_out: Optional[str] = None) -> Dict[str, Any]:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before the run could start")
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", spans_out]
    # cached bytecode in the benchmark's own output directory: set-up is
    # timed warm, as a user who runs the simulator twice sees it
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} run of {workload} timed out") from exc
    if proc.returncode != 0:
        raise HarnessError(
            f"{mode} run of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise HarnessError(f"{mode} run of {workload} printed nothing")
    return json.loads(lines[-1])


def _load_fingerprints() -> Dict[str, Dict[str, Any]]:
    with open(FINGERPRINTS, encoding="utf-8") as handle:
        return json.load(handle)


def _check_fingerprints(workload: str, seed: int,
                        runs: List[Dict[str, Any]]) -> None:
    """Mark runs whose fingerprint differs from the reference as failed.

    The reference is the recorded fingerprint for (workload, seed), or,
    for an unrecorded seed, the first run's (which is printed).
    """
    recorded = _load_fingerprints().get(workload, {}).get(str(seed))
    reference = recorded
    if reference is None:
        first = next((r["fingerprint"] for r in runs if "fingerprint" in r), None)
        if first is None:
            return
        reference = first
        print(
            f"fingerprint of {workload} seed {seed} (not recorded; digest "
            f"{fingerprint_digest(first)}): {json.dumps(first, sort_keys=True)}",
            file=sys.stderr,
        )
    for run in runs:
        if "fingerprint" in run and run["fingerprint"] != reference:
            what = "recorded" if recorded is not None else "first run's"
            run["problems"].append(
                f"fingerprint {fingerprint_digest(run['fingerprint'])} differs from "
                f"the {what} {fingerprint_digest(reference)}"
            )
            run["ok"] = False


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, deadline: float) -> Tuple[
        Dict[str, float], List[Dict[str, Any]]]:
    """Untraced runs for ``seconds``: end-to-end metrics and the runs."""
    _child(workload, seed, "setup", deadline)  # warm-up: compiles bytecode
    start = time.monotonic()
    runs: List[Dict[str, Any]] = []
    setup_runs: List[Dict[str, Any]] = []
    while not runs or time.monotonic() - start < seconds:
        setup_runs.append(_child(workload, seed, "setup", deadline))
        runs.append(_child(workload, seed, "run", deadline))
    _check_fingerprints(workload, seed, runs)
    done = [r for r in runs if "final_progress" in r]
    setup_runs += runs
    setups = [r["setup_s"] for r in setup_runs]
    if not done:
        raise HarnessError(f"no run of {workload} finished: {runs[0]['problems']}")
    progress = sum(r["final_progress"] for r in done)
    wall = sum(r["wall_s"] for r in done)
    # the same runs' time had the host run at the probe's nominal speed
    nominal = sum(r["wall_s"] / r["host_factor"] for r in done)
    host_factor = wall / nominal  # > 1: the host ran slower than nominal
    print(f"-- {workload} raw: deliveries_per_s {progress / wall:.6g} 1/s, "
          f"setup_s {_median(setups):.6g} s, host_factor {host_factor:.4f} "
          f"({sum(r['probes'] for r in done)} probes)")
    metrics = {
        "deliveries_per_s": progress / nominal,
        "setup_s": _median([r["setup_s"] / r["setup_host_factor"] for r in setup_runs]),
        "peak_rss_mb": _median([r["peak_rss_kb"] / 1024 for r in done]),
        "rss_kb_per_delivery": _median(
            [(r["peak_rss_kb"] - r["setup_rss_kb"]) / r["final_progress"] for r in done]
        ),
    }
    return metrics, runs


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> Tuple[
        Dict[str, float], List[Dict[str, Any]]]:
    """Untraced/traced run pairs for ``seconds``: per-layer metrics."""
    _child(workload, seed, "setup", deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.bin")
    start = time.monotonic()
    runs: List[Dict[str, Any]] = []
    slowdowns: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    while not runs or time.monotonic() - start < seconds:
        plain = _child(workload, seed, "run", deadline)
        traced = _child(workload, seed, "traced", deadline, spans_out)
        runs += [plain, traced]
        if "layers" in traced:
            layer_runs.append(traced["layers"])
            slowdowns.append(traced["wall_s"] / plain["wall_s"])
    _check_fingerprints(workload, seed, runs)
    metrics = {
        name: _median([layers[name] for layers in layer_runs])
        for name in (layer_runs[0] if layer_runs else {})
    }
    metrics["traced_slowdown"] = _median(slowdowns)
    return metrics, runs


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return dict(END_TO_END).get(name) or PER_LAYER_UNITS[name]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> Dict[str, Any]:
    """Measure one workload; returns the contract's result object."""
    if trace:
        metrics, runs = measure_traced(workload, seed, seconds, deadline)
    else:
        metrics, runs = measure(workload, seed, seconds, deadline)
    failed = [r for r in runs if not r["ok"]]
    for run in failed:
        print(f"FAILED {workload} seed {seed} ({run['mode']}): {run['problems']}",
              file=sys.stderr)
    print(f"== {workload} (seed {seed}, {len(runs)} runs, trace {int(trace)})")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {_unit(name)}")
    print(f"  {'failed_runs':34s} {len(failed) / len(runs):16.6g} share")
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the contract's arguments, measure, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            for name in names
        }
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (combined,) = results.values()
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
