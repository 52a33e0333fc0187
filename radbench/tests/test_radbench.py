"""Tests of the benchmark itself: gates, declared metrics, wrappers, seeds.

Run from the repository root with ``python3 -m pytest radbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from radbench import run, workloads  # noqa: E402
from radbench.instrument import LAYERS, Patcher, Probe, Tracer, resolve  # noqa: E402


@pytest.fixture
def small_social(monkeypatch):
    """A social-closed pass of 200 requests instead of 10,000."""
    monkeypatch.setattr(workloads, "SOCIAL_REQUESTS", 200)


def _result(capsys):
    out = capsys.readouterr()
    return json.loads(out.out.strip().splitlines()[-1]), out


def test_planted_failing_gate_exits_nonzero(small_social, monkeypatch, capsys):
    from repro.storage.locks import LockError, LockManager

    def broken(self):
        raise LockError("planted")

    monkeypatch.setattr(LockManager, "assert_invariants", broken)
    code = run.main(["--workload", "social-closed", "--seed", "1", "--seconds", "0"])
    result, out = _result(capsys)
    assert code == 1
    assert result["correct"] is False
    assert "gate social.lock_invariants failed" in out.err


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(small_social, capsys, trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    code = run.main(["--workload", "social-closed", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    result, _ = _result(capsys)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {d["name"]: d["unit"] for d in declared}


def _attributes():
    """Every attribute a wrapper may replace, by identity: the targets'
    owners and every name in every program module."""
    owners = {resolve(t)[0] for layer in LAYERS for t in layer.targets}
    snap = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            owners.add(module)
    for owner in owners:
        for name, value in vars(owner).items():
            snap[(id(owner), name)] = value
    return snap


def test_wrappers_leave_no_patched_attribute():
    from repro.core import NearUserRuntime
    from repro.storage import fastcopy

    before = _attributes()
    original = fastcopy.fast_deepcopy
    with Patcher() as patcher:
        Probe().install(patcher)
        Tracer().install(patcher)
        assert fastcopy.fast_deepcopy is not original
        assert vars(NearUserRuntime)["invoke"] is not before[(id(NearUserRuntime), "invoke")]
    after = _attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_passes_every_gate(name):
    """A seed used in no tuning run passes every gate at full size, so a
    later claim can be rechecked on it."""
    body, _ = workloads.WORKLOADS[name]
    probe = Probe()
    with Patcher() as patcher:
        probe.install(patcher)
        outcome = body(23, probe)
    assert workloads.failed_gates(outcome.gates) == []
    assert outcome.failed == 0
    assert outcome.samples and outcome.capacity_rps > 0
