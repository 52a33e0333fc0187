"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 radbench/run.py --workload social-closed --seed 1 --seconds 20 --trace 0

A run repeats the workload with identical inputs until ``--seconds`` have
passed (at least ``MIN_PASSES`` times).  The first pass warms caches and is
not timed; host metrics are medians over the rest, each pass's host times
scaled by how fast the machine ran the calibration kernel (``calibrate.py``)
just before and just after that pass.  Virtual-time metrics come from the
first pass, and every pass must reproduce its digest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then adds one
pass with every layer wrapped (see ``instrument.LAYERS``) and, for the
workloads that support it, one pass with the program's trace spine on, and
prints the per-layer metrics instead.  Both extra passes must reproduce the
untraced digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a correctness gate fails (the failed gates are named on stderr) and 2
when the program's source is not found next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".radbench-out"

#: A run makes at least this many passes: one warm-up and two timed.
MIN_PASSES = 3

#: CPU seconds of the calibration kernel on the reference machine: host
#: times are reported as if the machine ran the kernel in this time.
CAL_REFERENCE_S = 1.0

#: End-to-end metrics: (name, unit).  Printed by ``--trace 0``.
E2E_METRICS: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("host_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
    ("vt_p50_ms", "ms"),
    ("vt_p99_ms", "ms"),
    ("vt_capacity_rps", "1/s"),
    ("served_frac", "frac"),
)

#: Per-layer metrics: (name, unit).  Printed by ``--trace 1``.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"), ("sim.self_s", "s"), ("sim.us_per_event", "us"),
    ("net.send.calls", "count"), ("net.send.s", "s"),
    ("net.rpc.retries", "count"), ("net.rpc.timeouts", "count"),
    ("vm.execute.calls", "count"), ("vm.execute.s", "s"), ("vm.gas", "count"),
    ("copy.calls", "count"), ("copy.s", "s"),
    ("kv.calls", "count"), ("kv.s", "s"),
    ("cache.lookups", "count"), ("cache.s", "s"), ("cache.hit_frac", "frac"),
    ("locks.acquire.calls", "count"), ("locks.s", "s"),
    ("runtime.invoke.calls", "count"), ("runtime.self_s", "s"), ("runtime.spec_frac", "frac"),
    ("server.self_s", "s"), ("server.validation_ok_frac", "frac"), ("server.shed", "count"),
    ("vt.phase.exec_ms", "ms"), ("vt.phase.lvi_rtt_ms", "ms"),
    ("vt.phase.spec_overlap_ms", "ms"), ("vt.phase.xshard_prepare_ms", "ms"),
    ("vt.phase.xshard_commit_ms", "ms"),
    ("router.probe.calls", "count"), ("router.probe.s", "s"),
    ("router.enroll.calls", "count"), ("router.lock_skip_frac", "frac"),
    ("router.conflict_hits", "count"), ("router.replica_bounces", "count"),
    ("analysis.instantiate.calls", "count"), ("analysis.instantiate.s", "s"),
    ("mesh.digest.calls", "count"), ("mesh.digest.s", "s"), ("mesh.apply_frac", "frac"),
    ("raft.apply.calls", "count"),
    ("faults.injected", "count"),
    ("check.calls", "count"), ("check.s", "s"), ("check.records", "count"),
    ("deploy.build.calls", "count"), ("deploy.build.s", "s"),
    ("trace.overhead_us_per_req", "us"), ("trace.spans", "count"),
)

#: Trace-spine phases reported as ``vt.phase.<name>_ms`` medians.
PHASES = ("exec", "lvi_rtt", "spec_overlap", "xshard_prepare", "xshard_commit")


@dataclass
class Pass:
    """One execution of a workload and what it cost the host."""

    outcome: Any
    digest: str
    cpu_s: float
    build_cpu_s: float
    events: int
    counters: Dict[str, int]
    phases: Dict[str, List[float]]
    #: ``CAL_REFERENCE_S`` over the calibration time around this pass.
    scale: float = 1.0

    @property
    def setup_s(self) -> float:
        return self.build_cpu_s * self.scale

    @property
    def host_us_per_req(self) -> float:
        return (self.cpu_s - self.build_cpu_s) * self.scale / self.outcome.issued * 1e6


def calibrate() -> float:
    """CPU seconds of the calibration kernel, in a fresh interpreter so that
    this process's heap does not slow it down."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def vt_digest(samples: List[float], events: int, counters: Dict[str, int]) -> str:
    """Hash of everything the pass simulated: sorted latencies, kernel
    events and the execution-path counters."""
    paths = {k: v for k, v in sorted(counters.items()) if k.startswith("path.")}
    blob = json.dumps({"samples": sorted(samples), "events": events, "paths": paths})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_pass(workload: str, seed: int, tracer=None, trace_spine: bool = False) -> Pass:
    from radbench.instrument import Patcher, Probe
    from radbench.workloads import WORKLOADS

    body, _ = WORKLOADS[workload]
    probe = Probe()
    gc.collect()
    with Patcher() as patcher:
        probe.install(patcher)
        if tracer is not None:
            tracer.install(patcher)
        t0 = time.process_time()
        outcome = body(seed, probe, trace=trace_spine)
        cpu_s = time.process_time() - t0
    phases: Dict[str, List[float]] = {}
    if trace_spine:
        from repro.obs import all_breakdowns

        for dep in probe.deployments:
            for bd in all_breakdowns(dep.trace.spans):
                for name, ms in bd.phases.items():
                    phases.setdefault(name, []).append(ms)
    counters, events = probe.counters(), probe.events()
    return Pass(
        outcome=outcome,
        digest=vt_digest(outcome.samples, events, counters),
        cpu_s=cpu_s,
        build_cpu_s=probe.build_cpu_s,
        events=events,
        counters=counters,
        phases=phases,
    )


def end_to_end(passes: List[Pass]) -> Dict[str, float]:
    from radbench.workloads import latency_quantiles

    first, timed = passes[0], passes[1:]
    p50, p99 = latency_quantiles(first.outcome.samples)
    return {
        "setup_s": statistics.median(p.setup_s for p in timed),
        "host_us_per_req": statistics.median(p.host_us_per_req for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vt_p50_ms": p50,
        "vt_p99_ms": p99,
        "vt_capacity_rps": first.outcome.capacity_rps,
        "served_frac": first.outcome.acked / first.outcome.issued,
    }


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Pass, tracer, phased: Optional[Pass], untraced_us: float) -> Dict[str, float]:
    agg = tracer.aggregate()
    c = traced.counters

    def target(path: str) -> Dict[str, float]:
        return agg[f"repro.{path}"]

    paths = sum(v for k, v in c.items() if k.startswith("path."))
    lookups = target("storage.cache:NearUserCache.lookup")["calls"]
    probe = target("topology.shardmap:ConflictDetector.probe")
    phases = phased.phases if phased is not None else {}
    return {
        "sim.events": traced.events,
        "sim.self_s": agg["sim.core"]["self_s"],
        "sim.us_per_event": _frac(agg["sim.core"]["self_s"] * 1e6, traced.events),
        "net.send.calls": agg["sim.network"]["entries"],
        "net.send.s": agg["sim.network"]["busy_s"],
        "net.rpc.retries": c.get("rpc.retry", 0),
        "net.rpc.timeouts": c.get("rpc.timeout", 0),
        "vm.execute.calls": target("wasm.vm:VM.execute")["calls"],
        "vm.execute.s": agg["wasm.vm"]["busy_s"],
        "vm.gas": tracer.tallies["vm.gas"],
        "copy.calls": agg["storage.fastcopy"]["entries"],
        "copy.s": agg["storage.fastcopy"]["busy_s"],
        "kv.calls": agg["storage.kvstore"]["entries"],
        "kv.s": agg["storage.kvstore"]["busy_s"],
        "cache.lookups": lookups,
        "cache.s": agg["storage.cache"]["busy_s"],
        "cache.hit_frac": _frac(tracer.tallies["cache.hits"], lookups),
        "locks.acquire.calls": target("storage.locks:LockManager.acquire_all")["calls"],
        "locks.s": agg["storage.locks"]["busy_s"],
        "runtime.invoke.calls": target("core.runtime:NearUserRuntime.invoke")["calls"],
        "runtime.self_s": agg["core.runtime"]["self_s"],
        "runtime.spec_frac": _frac(c.get("path.speculative", 0), paths),
        "server.self_s": agg["core.server"]["self_s"],
        "server.validation_ok_frac": _frac(
            c.get("validation.success", 0),
            c.get("validation.success", 0) + c.get("validation.failure", 0),
        ),
        "server.shed": c.get("admission.shed", 0),
        **{
            f"vt.phase.{name}_ms": (
                statistics.median(phases[f"phase.{name}"]) if phases.get(f"phase.{name}") else 0.0
            )
            for name in PHASES
        },
        "router.probe.calls": probe["calls"],
        "router.probe.s": probe["busy_s"],
        "router.enroll.calls": target("topology.shardmap:ConflictDetector.enroll")["calls"],
        # Reads probed at the runtime are the lock-skip candidates; the
        # server's re-probe of a skipped read is not a second read.
        "router.lock_skip_frac": _frac(c.get("router.lock_skipped", 0), probe["from_runtime"]),
        "router.conflict_hits": c.get("router.conflict_hit", 0),
        "router.replica_bounces": c.get("router.replica_bounce", 0),
        "analysis.instantiate.calls": target(
            "analysis.ir.summary:ConflictPredicate.instantiate")["calls"],
        "analysis.instantiate.s": agg["analysis"]["busy_s"],
        "mesh.digest.calls": agg["mesh"]["entries"],
        "mesh.digest.s": agg["mesh"]["busy_s"],
        "mesh.apply_frac": _frac(c.get("mesh.updates_applied", 0), c.get("mesh.updates_shipped", 0)),
        "raft.apply.calls": target("raft.kv:KVStateMachine.apply")["calls"],
        "faults.injected": c.get("fault.injected", 0),
        "check.calls": agg["consistency.checker"]["entries"],
        "check.s": agg["consistency.checker"]["busy_s"],
        "check.records": tracer.tallies["check.records"],
        "deploy.build.calls": target("topology.deployment:Deployment.build")["calls"],
        "deploy.build.s": agg["topology.deployment"]["busy_s"],
        "trace.overhead_us_per_req": traced.host_us_per_req - untraced_us,
        "trace.spans": tracer.span_count(),
    }


def manifest(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Which code, interpreter, machine and inputs produced this run."""
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_rev": git_rev,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("social-closed", "readscale-ladder", "chaos-matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"radbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from radbench.instrument import Tracer
    from radbench.workloads import WORKLOADS, Gate, failed_gates

    print("radbench manifest " + json.dumps(manifest(args.workload, args.seed, args.seconds, args.trace)))
    calibrations = [calibrate()]

    def calibrated_pass(**kwargs) -> Pass:
        done = run_pass(args.workload, args.seed, **kwargs)
        calibrations.append(calibrate())
        done.scale = CAL_REFERENCE_S / statistics.fmean(calibrations[-2:])
        return done

    started = time.perf_counter()
    passes: List[Pass] = []
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        passes.append(calibrated_pass())
    first = passes[0]
    gates = [g for p in passes for g in p.outcome.gates]
    digests = [p.digest for p in passes]
    tracer = Tracer() if args.trace else None
    extra: List[Pass] = []
    if tracer is not None:
        extra.append(calibrated_pass(tracer=tracer))
        if WORKLOADS[args.workload][1]:
            extra.append(calibrated_pass(trace_spine=True))
    every = passes + extra

    metrics: Dict[str, float]
    units: Dict[str, str]
    if tracer is not None:
        untraced_us = statistics.median(p.host_us_per_req for p in passes[1:])
        phased = extra[1] if len(extra) > 1 else None
        metrics = per_layer(extra[0], tracer, phased, untraced_us)
        units = dict(LAYER_METRICS)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-spans.npz"
        tracer.dump(spans_path)
        print(f"radbench spans {tracer.span_count()} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes)
        units = dict(E2E_METRICS)

    gates.append(Gate(
        "determinism.digest",
        len(set(digests + [p.digest for p in extra])) == 1,
        f"untraced passes {digests}, traced passes {[p.digest for p in extra]}",
    ))
    for note in first.outcome.notes:
        print(f"radbench note {note}")
    # Every pass checks the same gates: keep one per name, a failed one if any.
    by_name: Dict[str, Gate] = {}
    for gate in gates:
        if gate.name not in by_name or not gate.ok:
            by_name[gate.name] = gate
    for gate in by_name.values():
        print(f"radbench gate {gate.name} {'ok' if gate.ok else 'FAILED'}: {gate.detail}")
    print(f"radbench digest {first.digest} ({len(passes)} passes, {len(extra)} traced)")
    print("radbench passes host_us_per_req " + " ".join(f"{p.host_us_per_req:.1f}" for p in every)
          + " | setup_s " + " ".join(f"{p.setup_s:.4f}" for p in every)
          + " | calibration_s " + " ".join(f"{c:.4f}" for c in calibrations))
    n = len(first.outcome.samples)
    print(f"radbench failed_frac {1.0 - first.outcome.acked / first.outcome.issued:.6f} "
          f"of {first.outcome.issued} requests per pass")
    for name, value in metrics.items():
        counted = f" (n={n})" if name.startswith("vt_p") else ""
        print(f"radbench metric {name} {value} {units[name]}{counted}")

    failed = failed_gates(list(by_name.values()))
    for gate in failed:
        print(f"radbench: gate {gate.name} failed: {gate.detail}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": sum(p.outcome.issued for p in every),
        "failed": sum(p.outcome.failed for p in every),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
