"""Wrappers the benchmark installs around the program's public functions.

Two instruments, both installed by patching attributes for the duration of
one pass and restoring every one of them afterwards:

* :class:`Probe` runs in every pass.  It times ``Deployment.build`` in host
  CPU seconds (the set-up cost) and the virtual-time interval of every
  ``NearUserRuntime.invoke`` (the chaos harness keeps its per-request
  latencies private).  Neither reads or schedules anything in virtual time.
* :class:`Tracer` runs only in the traced pass.  It wraps the entry points
  of every layer listed in :data:`LAYERS` and records one span per call of
  a plain function and one span per resume of a generator function (the
  simulator drives protocol handlers as generators, so a per-call span of
  a generator would cover the virtual time it spent suspended).  Spans are
  kept in flat in-memory arrays and aggregated into per-layer counts, busy
  time and self time once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, new: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` (a function, method or classmethod defined
        on ``owner``) by ``make(original_function)``.

        A module-level function is also replaced wherever another program
        module imported it by name, so calls through those aliases are
        wrapped too.
        """
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            self.replace(owner, name, classmethod(make(raw.__func__)))
            return
        new = make(raw)
        if inspect.isclass(owner):
            self.replace(owner, name, new)
            return
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is raw:
                    self.replace(module, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def resolve(path: str) -> Tuple[Any, str]:
    """``"repro.storage.locks:LockManager.acquire_all"`` -> (class, name)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


# ---------------------------------------------------------------------------
# Probe: set-up time and per-invocation virtual latency, in every pass.
# ---------------------------------------------------------------------------


class Probe:
    """Per-pass record of the deployments built and the invocations served."""

    def __init__(self) -> None:
        self.deployments: List[Any] = []
        self.build_cpu_s = 0.0
        #: Per deployment (keyed by ``id(sim)``): [first start, last end,
        #: acked latencies] of its runtime invocations, in virtual ms.
        self.invocations: Dict[int, List[Any]] = {}

    def install(self, patcher: Patcher) -> None:
        from repro.core import NearUserRuntime
        from repro.topology import Deployment

        def make_build(build):
            @functools.wraps(build)
            def timed_build(cls, *args, **kwargs):
                t0 = time.process_time()
                try:
                    dep = build(cls, *args, **kwargs)
                finally:
                    self.build_cpu_s += time.process_time() - t0
                self.deployments.append(dep)
                return dep

            return timed_build

        def make_invoke(invoke):
            @functools.wraps(invoke)
            def timed_invoke(runtime, *args, **kwargs):
                sim = runtime.sim
                started = sim.now
                window = self.invocations.get(id(sim))
                if window is None:
                    window = self.invocations[id(sim)] = [started, started, []]
                outcome = yield from invoke(runtime, *args, **kwargs)
                window[1] = max(window[1], sim.now)
                window[2].append(sim.now - started)
                return outcome

            return timed_invoke

        patcher.wrap(Deployment, "build", make_build)
        patcher.wrap(NearUserRuntime, "invoke", make_invoke)

    def acked_latencies(self) -> List[float]:
        return [lat for window in self.invocations.values() for lat in window[2]]

    def acked_per_active_second(self) -> float:
        """Acked invocations per virtual second of client activity, summed
        over deployments (activity: first invocation start to last end)."""
        acked = sum(len(w[2]) for w in self.invocations.values())
        active_ms = sum(w[1] - w[0] for w in self.invocations.values())
        return acked / active_ms * 1000.0 if active_ms > 0 else 0.0

    def counters(self) -> Dict[str, int]:
        """Program counters summed over every deployment of the pass."""
        total: Dict[str, int] = {}
        for dep in self.deployments:
            for name, value in dep.metrics.counters().items():
                total[name] = total.get(name, 0) + value
        return total

    def events(self) -> int:
        return sum(dep.sim.events_dispatched for dep in self.deployments)


# ---------------------------------------------------------------------------
# Tracer: spans at every layer boundary, in the traced pass only.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One layer of the program: its name and the functions that enter it."""

    name: str
    targets: Tuple[str, ...]


_CHECKERS = (
    "check_strict_serializability", "find_read_your_writes_violations",
    "find_monotonic_read_violations", "find_causal_cut_violations",
)

#: Every layer the traced pass measures, named after the program's modules.
LAYERS: Tuple[Layer, ...] = (
    Layer("sim.core", ("repro.sim.core:Simulator.run",)),
    Layer("sim.network", (
        "repro.sim.network:Network.send",
        "repro.sim.network:Network._send_reply",
    )),
    Layer("wasm.vm", ("repro.wasm.vm:VM.execute",)),
    Layer("storage.fastcopy", ("repro.storage.fastcopy:fast_deepcopy",)),
    Layer("storage.kvstore", tuple(
        f"repro.storage.kvstore:KVStore.{m}" for m in (
            "get", "get_or_none", "version", "put", "conditional_put", "delete",
            "exists", "batch_versions", "batch_get", "apply_writes", "scan",
        )
    )),
    Layer("storage.cache", ("repro.storage.cache:NearUserCache.lookup",)),
    Layer("storage.locks", (
        "repro.storage.locks:LockManager.acquire_all",
        "repro.storage.locks:LockManager.release_all",
        "repro.storage.locks:LockManager.cancel",
    )),
    Layer("core.runtime", ("repro.core.runtime:NearUserRuntime.invoke",)),
    Layer("core.server", tuple(
        f"repro.core.server:LVIServer.{m}" for m in (
            "_handle", "_handle_lvi", "_handle_followup", "_handle_direct",
            "_handle_prepare", "_handle_decision", "_handle_query",
            "_on_intent_timer", "_reexecute",
        )
    )),
    Layer("topology.shardmap", (
        "repro.topology.shardmap:ConflictDetector.probe",
        "repro.topology.shardmap:ConflictDetector.enroll",
        "repro.topology.shardmap:ConflictDetector.settle",
    )),
    Layer("analysis", ("repro.analysis.ir.summary:ConflictPredicate.instantiate",)),
    Layer("mesh", (
        "repro.mesh.mesh:MeshPop.receive_digest",
        "repro.mesh.mesh:MeshPop.build_digest",
    )),
    Layer("raft", (
        "repro.raft.kv:RaftCluster.submit",
        "repro.raft.kv:KVStateMachine.apply",
    )),
    Layer("consistency.checker", tuple(f"repro.consistency.checker:{f}" for f in _CHECKERS)),
    Layer("topology.deployment", ("repro.topology.deployment:Deployment.build",)),
)


def _observe_lookup(tracer: "Tracer", args, result) -> None:
    if result is not None:
        tracer.tallies["cache.hits"] += 1


def _observe_execute(tracer: "Tracer", args, result) -> None:
    tracer.tallies["vm.gas"] += result.gas_used


def _observe_check(tracer: "Tracer", args, result) -> None:
    tracer.tallies["check.records"] += len(args[0])


#: Result hooks: work counts read from a wrapped call's arguments or result.
OBSERVERS: Dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "repro.storage.cache:NearUserCache.lookup": _observe_lookup,
    "repro.wasm.vm:VM.execute": _observe_execute,
    **{f"repro.consistency.checker:{f}": _observe_check for f in _CHECKERS},
}


class Tracer:
    """Span recorder for one traced pass.

    Span ``i`` has name id ``names[i]``, host start/end ``starts[i]``/
    ``ends[i]`` (``perf_counter_ns``) and parent index ``parents[i]`` (-1
    for a root).  Wrapped calls nest on the host call stack, including
    generator resumes, so the innermost open span is always the parent.
    """

    def __init__(self) -> None:
        self.layers = LAYERS
        self.targets: List[str] = [t for layer in self.layers for t in layer.targets]
        self.layer_index = np.array(
            [i for i, layer in enumerate(self.layers) for _ in layer.targets], dtype=np.int64
        )
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: List[int] = [-1]
        #: Generator functions count calls (generator creations) here,
        #: because their spans count resumes.
        self.calls = [0] * len(self.targets)
        self.tallies: Dict[str, int] = {"cache.hits": 0, "vm.gas": 0, "check.records": 0}

    def install(self, patcher: Patcher) -> None:
        for nid, target in enumerate(self.targets):
            owner, name = resolve(target)
            raw = vars(owner)[name]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            observe = OBSERVERS.get(target)
            if inspect.isgeneratorfunction(func):
                patcher.wrap(owner, name, functools.partial(self._wrap_generator, nid))
            else:
                patcher.wrap(owner, name, functools.partial(self._wrap_call, nid, observe))

    def _wrap_call(self, nid: int, observe, fn: Callable) -> Callable:
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _wrap_generator(self, nid: int, fn: Callable) -> Callable:
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter_ns
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            gen = fn(*args, **kwargs)
            value: Any = None
            exc: Optional[BaseException] = None
            while True:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    yielded = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    ends[idx] = clock()
                    stack.pop()
                try:
                    value = yield yielded
                    exc = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as caught:  # forwarded into the wrapped generator
                    value, exc = None, caught

        return traced

    # -- aggregation -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts)

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per target and per layer: calls, layer entries, busy and self time.

        A span *enters* its layer when its parent is not a span of the same
        layer; a layer's busy time is the duration of its entering spans,
        and a span's self time is its duration minus its children's.
        """
        n_targets = len(self.targets)
        names = np.frombuffer(self.names, dtype=np.int32).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int32).astype(np.int64)
        dur = (
            np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        ).astype(np.float64) / 1e9
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        layer = self.layer_index[names] if len(names) else names
        parent_layer = np.full(len(names), -1, dtype=np.int64)
        parent_layer[has_parent] = layer[parents[has_parent]]
        entry = layer != parent_layer
        spans = np.bincount(names, minlength=n_targets)
        runtime_parent = parent_layer == self._layer_id("core.runtime")
        out: Dict[str, Dict[str, float]] = {}
        for nid, target in enumerate(self.targets):
            mine = names == nid
            out[target] = {
                "calls": float(self.calls[nid] or spans[nid]),
                "entries": float(np.count_nonzero(mine & entry)),
                "busy_s": float(dur[mine & entry].sum()),
                "self_s": float(self_s[mine].sum()),
                "from_runtime": float(np.count_nonzero(mine & runtime_parent)),
            }
        for lid, lay in enumerate(self.layers):
            mine = layer == lid
            out[lay.name] = {
                "entries": float(np.count_nonzero(mine & entry)),
                "busy_s": float(dur[mine & entry].sum()),
                "self_s": float(self_s[mine].sum()),
            }
        return out

    def _layer_id(self, name: str) -> int:
        return next(i for i, layer in enumerate(self.layers) if layer.name == name)

    def dump(self, path) -> None:
        """Write every span to ``path`` (a NumPy ``.npz``)."""
        np.savez(
            path,
            target=np.array(self.targets),
            name=np.frombuffer(self.names, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )
