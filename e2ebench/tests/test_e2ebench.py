"""Checks that the layer tracing is honest and complete.

Run from the repository root (takes about a minute)::

    python3 -m pytest e2ebench/tests -q
"""

import json
import os
import signal
import time

import pytest

import layers
from calibrate import Probe
from child import run_once
from run import END_TO_END, PER_LAYER_UNITS
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def runs():
    """(untraced, traced) records of every workload at seed 0, in-process."""
    return {
        name: (run_once(name, 0, "run"), run_once(name, 0, "traced"))
        for name in WORKLOADS
    }


def _recorded(workload, seed):
    path = os.path.join(ROOT, "e2ebench", "fingerprints.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)[workload][str(seed)]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrapping_leaves_the_fingerprint_byte_identical(runs, workload):
    """Installing the wrappers must not change the simulated run."""
    plain, traced = runs[workload]
    assert plain["ok"], plain["problems"]
    assert traced["ok"], traced["problems"]
    canonical = [json.dumps(r["fingerprint"], sort_keys=True) for r in (plain, traced)]
    assert canonical[0] == canonical[1]
    assert plain["fingerprint"] == _recorded(workload, 0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_sum_to_the_traced_wall(runs, workload):
    """Every nanosecond of the traced run is attributed to one layer."""
    metrics = runs[workload][1]["layers"]
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["traced_wall_s"]
    assert abs(self_total - wall) <= 0.01 * wall
    assert len([k for k in metrics if k.endswith(".self_s")]) == len(layers.LAYERS)


def test_observer_layers_fire_only_on_the_observed_workload(runs):
    """Ledger, sanitizer, sampler and spans run only when switched on."""
    plain_calls = runs["fbl_uniform"][1]["entry_calls"]
    observed_calls = runs["fbl_uniform_observed"][1]["entry_calls"]
    for key in ("CostLedger.charge_wire", "Sanitizer.on_event", "CostSampler.flush_to",
                "SpanTracker.begin", "SpanChainTracker.on_event"):
        assert observed_calls.get(key, 0) > 0, key
        assert plain_calls.get(key, 0) == 0, key
    plain, observed = runs["fbl_uniform"][1]["layers"], runs["fbl_uniform_observed"][1]["layers"]
    for layer in ("ledger", "sanitizer", "sampler"):
        assert plain[f"{layer}.self_s"] == 0
        assert observed[f"{layer}.self_s"] > 0
    assert observed["ledger.charges"] > 0 and plain["ledger.charges"] == 0
    assert observed["sanitizer.events_seen"] > 0 and plain["sanitizer.events_seen"] == 0


def test_storage_and_transport_fire_on_adaptive_shifting(runs):
    """The storage-heavy workload reaches the layers it is meant to."""
    calls = runs["adaptive_shifting"][1]["entry_calls"]
    for key in ("ReliableTransport.send", "ReliableTransport.on_receive",
                "ReliableTransport.on_ack", "CheckpointStore.save",
                "StableStorage.log_append", "AdaptiveLogging.send_app"):
        assert calls.get(key, 0) > 0, key
    adaptive = runs["adaptive_shifting"][1]["layers"]
    uniform = runs["fbl_uniform"][1]["layers"]
    assert adaptive["net.transport.self_s"] > 0 and uniform["net.transport.self_s"] == 0
    assert adaptive["net.retransmits"] > 0
    assert adaptive["protocols.mode_switches"] > 0
    assert adaptive["storage.checkpoint.save_s"] > uniform["storage.checkpoint.save_s"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_core_layers_fire_on_every_workload(runs, workload):
    """The hot-path layers get time on every workload."""
    metrics = runs[workload][1]["layers"]
    for layer in ("sim", "trace", "net.transmit", "net.handoff", "node.receive",
                  "protocols.send", "protocols.receive", "app.deliver", "workloads",
                  "recovery", "oracle.online", "oracle.check", "registry"):
        assert metrics[f"{layer}.self_s"] > 0, layer


def test_probe_samples_a_run_and_restores_the_signal_state(runs):
    """The host probe fires during a run and leaves SIGALRM as it was."""
    plain = runs["fbl_uniform"][0]
    assert plain["probes"] > 0 and plain["host_factor"] > 0
    before = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_renamed_entry_point_fails_loudly(monkeypatch):
    """A missing method raises and leaves no wrapper installed."""
    from repro.net.network import Network

    original = Network.__dict__["transmit"]
    bogus = layers.ENTRY_POINTS + (
        ("repro.net.network", "Network", ("no_such_method",), "net.transmit"),
    )
    monkeypatch.setattr(layers, "ENTRY_POINTS", bogus)
    with pytest.raises(LookupError, match="no_such_method"):
        layers.Installation(layers.Tracer()).install()
    assert Network.__dict__["transmit"] is original


def test_removal_restores_every_class_attribute():
    """Uninstalling puts the original functions back."""
    from repro.sim.events import Event
    from repro.storage.checkpoint import CheckpointStore

    before = (Event.__dict__["fire"], CheckpointStore.__dict__["save"])
    with layers.Installation(layers.Tracer()):
        assert CheckpointStore.__dict__["save"] is not before[1]
    assert (Event.__dict__["fire"], CheckpointStore.__dict__["save"]) == before


def test_benchmark_json_names_every_reported_metric(runs):
    """BENCHMARK.json and the reported metrics agree on names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    reported = set(runs["fbl_uniform"][1]["layers"]) | {"traced_slowdown"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for metric in spec["per_layer"]:
        expected = "s" if metric["name"].endswith(".self_s") else PER_LAYER_UNITS[metric["name"]]
        assert metric["unit"] == expected, metric["name"]
