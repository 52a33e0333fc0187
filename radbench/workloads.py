"""The benchmark's three workloads, each a pure function of its seed.

Every workload drives the program only through public entry points and
returns an :class:`Outcome`: the requests it issued, the client-observed
virtual latencies behind ``vt_p50_ms``/``vt_p99_ms``, its capacity figure,
and the correctness gates it checked.  Why each workload exists, and which
layers it stresses or bypasses, is in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from scipy.stats.mstats import hdquantiles

from repro.apps.social import social_media_app
from repro.bench.harness import ExperimentConfig, run_radical_experiment
from repro.bench.readscale import readscale_app, readscale_config
from repro.faults.chaos import builtin_plans, run_chaos_case
from repro.sim import Region
from repro.storage.locks import LockError
from repro.topology import Deployment, TopologySpec
from repro.workloads import OpenLoopClient

from .instrument import Probe

#: Workload sizes.  A run repeats a workload with identical inputs, so these
#: fix the virtual-time results; ``--seconds`` only sets how many times the
#: host cost is measured.
SOCIAL_REQUESTS = 10_000
SOCIAL_CLIENTS_PER_REGION = 2
LADDER_RATES_RPS = (150.0, 200.0, 250.0, 300.0)   # per region, 5 regions
LADDER_REFERENCE_RPS = 200.0                       # just under the seed knee
LADDER_RUNG_MS = 4_000.0
LADDER_SHARDS = 4
LADDER_READ_REPLICAS = 3
CHAOS_SEEDS_PER_PLAN = 10

#: The ladder's latency limit: a rung meets it when its p99 is at most
#: ``SLO_P99_MS`` with no failed request and its backlog drains within
#: ``DRAIN_LIMIT_MS`` of the last arrival.
SLO_P99_MS = 500.0
DRAIN_LIMIT_MS = 500.0


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str


@dataclass
class Outcome:
    issued: int
    acked: int
    #: Requests whose outcome broke the workload's contract (an unavailable
    #: reply under an injected fault is within the chaos contract).
    failed: int
    samples: List[float]
    capacity_rps: float
    gates: List[Gate]
    notes: List[str] = field(default_factory=list)


def social_closed(seed: int, probe: Probe, trace: bool = False) -> Outcome:
    """The paper's social app: 5 regions, 1 shard, closed loop of 2
    clients per region, ``SOCIAL_REQUESTS`` requests in total."""
    cfg = ExperimentConfig(
        requests=SOCIAL_REQUESTS,
        clients_per_region=SOCIAL_CLIENTS_PER_REGION,
        seed=seed,
        trace=trace,
    )
    res = run_radical_experiment(social_media_app(), cfg)
    dep, metrics = res.deployment, res.metrics
    requested = cfg.per_client_requests() * cfg.clients_per_region * len(cfg.regions)
    total = metrics.counter("requests.total")
    paths = sum(v for k, v in metrics.counters().items() if k.startswith("path."))
    pending = len(dep.pending_intents())
    held = sum(len(s.locks.held_owners()) for s in dep.servers)
    invariant_errors = []
    for server in dep.servers:
        try:
            server.locks.assert_invariants()
        except LockError as exc:
            invariant_errors.append(f"{server.name}: {exc}")
    gates = [
        Gate("social.requests_total", total == requested,
             f"requests.total {total}, requested {requested}"),
        Gate("social.path_sum", paths == total, f"sum(path.*) {paths}, requests.total {total}"),
        Gate("social.no_pending_intents", pending == 0, f"{pending} pending intents"),
        Gate("social.no_held_locks", held == 0, f"{held} lock owners after the drain"),
        Gate("social.lock_invariants", not invariant_errors, "; ".join(invariant_errors) or "ok"),
    ]
    return Outcome(
        issued=requested,
        acked=total,
        failed=requested - total,
        samples=metrics.samples("e2e"),
        capacity_rps=probe.acked_per_active_second(),
        gates=gates,
        notes=[f"closed loop: {requested} requests from "
               f"{cfg.clients_per_region * len(cfg.regions)} clients"],
    )


class _CountingMix:
    """``generate_request`` shim: counts the arrivals an open-loop client
    issues and remembers when the last one was due."""

    def __init__(self, app, sim) -> None:
        self.app = app
        self.sim = sim
        self.issued = 0
        self.last_arrival_ms = 0.0

    def generate_request(self, rng):
        self.issued += 1
        self.last_arrival_ms = self.sim.now
        return self.app.generate_request(rng)


def readscale_ladder(seed: int, probe: Probe, trace: bool = False) -> Outcome:
    """Uniform counter app (90% reads, 256 keys) on 4 shards with conflict
    detection and 3 read replicas; one Poisson generator per region steps
    through ``LADDER_RATES_RPS``, one fresh deployment per rung."""
    app = readscale_app()
    cfg = readscale_config(detect=True, read_replicas=LADDER_READ_REPLICAS)
    regions = tuple(Region.NEAR_USER)
    gates: List[Gate] = []
    notes = ["open loop: arrivals are scheduled in virtual time, so the "
             "generator's lateness is 0 ms by construction"]
    issued = acked = unavailable = 0
    capacity = 0.0
    reference: List[float] = []
    for rate in LADDER_RATES_RPS:
        dep = Deployment.build(
            TopologySpec(
                regions=regions,
                shards=LADDER_SHARDS,
                seed=seed,
                config=cfg,
                # WAN jitter as in the paper experiments, so latencies are
                # not quantised to the RTT matrix.
                network_jitter_sigma=0.02,
                trace=trace,
            ),
            app=app,
        )
        sim, metrics = dep.sim, dep.metrics
        mix = _CountingMix(app, sim)
        clients = [
            OpenLoopClient(
                sim=sim,
                app=mix,
                region=region,
                invoke=dep.runtimes[region].invoke,
                metrics=metrics,
                rng=dep.streams.fork(f"readscale.{region}").stream("workload"),
                rate_rps=rate,
                duration_ms=LADDER_RUNG_MS,
                tolerate_unavailable=True,
            )
            for region in regions
        ]
        procs = [sim.spawn(c.run(), name=f"ladder-{c.region}") for c in clients]
        sim.run(until_event=sim.all_of([p.done_event for p in procs]))
        drain_ms = sim.now - mix.last_arrival_ms
        sim.run(until=sim.now + 10_000.0)  # followups and intent timers
        done = metrics.counter("requests.total")
        lost = metrics.counter("requests.unavailable")
        samples = metrics.samples("e2e")
        p50, p99 = latency_quantiles(samples)
        meets = lost == 0 and p99 <= SLO_P99_MS and drain_ms <= DRAIN_LIMIT_MS
        offered = rate * len(regions)
        if meets:
            capacity = max(capacity, offered)
        if rate == LADDER_REFERENCE_RPS:
            reference = samples
        issued += mix.issued
        acked += done
        unavailable += lost
        tag = f"ladder.{int(rate)}rps"
        dirty = dep.router.detector.dirty
        unsound = metrics.counter("analysis.unsound")
        gates += [
            Gate(f"{tag}.dirty_balanced", dirty.balanced, f"dirty set {dirty.stats()}"),
            Gate(f"{tag}.analysis_sound", unsound == 0, f"analysis.unsound {unsound}"),
            Gate(f"{tag}.conservation", done + lost == mix.issued,
                 f"completed {done} + unavailable {lost}, issued {mix.issued}"),
        ]
        notes.append(
            f"rung {rate:g} rps/region ({offered:g} offered): n={len(samples)} "
            f"p50={p50:.1f} ms "
            f"p99={p99:.1f} ms drain={drain_ms:.1f} ms unavailable={lost} "
            f"{'meets' if meets else 'misses'} the limit"
        )
    return Outcome(
        issued=issued,
        acked=acked,
        failed=unavailable,
        samples=reference,
        capacity_rps=capacity,
        gates=gates,
        notes=notes,
    )


def chaos_matrix(seed: int, probe: Probe, trace: bool = False) -> Outcome:
    """Every builtin fault plan x ``CHAOS_SEEDS_PER_PLAN`` case seeds at
    the stock case size, verdicts included.  ``trace`` is ignored: chaos
    cases build their own untraced topology."""
    seeds = range(seed * CHAOS_SEEDS_PER_PLAN, (seed + 1) * CHAOS_SEEDS_PER_PLAN)
    issued = acked = failed = 0
    bad: List[str] = []
    cases = 0
    for name, plan in builtin_plans().items():
        for case_seed in seeds:
            res = run_chaos_case(plan, case_seed)
            cases += 1
            issued += res.requests
            acked += res.acked
            if not res.ok:
                failed += res.requests
                bad.append(f"{name}@{case_seed}: {res.violation or 'verdict not ok'}")
    return Outcome(
        issued=issued,
        acked=acked,
        failed=failed,
        samples=probe.acked_latencies(),
        capacity_rps=probe.acked_per_active_second(),
        gates=[Gate("chaos.cases_ok", not bad,
                    f"{cases - len(bad)}/{cases} cases ok" + (": " + "; ".join(bad) if bad else ""))],
        notes=[f"closed-loop chaos probes (plus surge open loops): {cases} cases, "
               f"case seeds {seeds.start}..{seeds.stop - 1}"],
    )


#: Workload name -> (body, whether the body can run with the trace spine).
WORKLOADS: Dict[str, Tuple[Callable[..., Outcome], bool]] = {
    "social-closed": (social_closed, True),
    "readscale-ladder": (readscale_ladder, True),
    "chaos-matrix": (chaos_matrix, False),
}


def failed_gates(gates: List[Gate]) -> List[Gate]:
    return [g for g in gates if not g.ok]


def latency_quantiles(samples: List[float]) -> Tuple[float, float]:
    """Harrell-Davis estimates of the median and the 99th percentile.

    The simulator's fixed RTT matrix puts atoms in latency distributions
    (thousands of requests with the same latency), and a plain order
    statistic sits on an atom whatever the rest of the distribution does;
    the Harrell-Davis estimator weighs every order statistic, so it moves
    when the distribution does.
    """
    if not samples:
        return float("nan"), float("nan")
    p50, p99 = hdquantiles(samples, prob=[0.5, 0.99])
    return float(p50), float(p99)
