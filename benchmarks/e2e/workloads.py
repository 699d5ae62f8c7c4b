"""The four workloads, as run inside one child process.

Each workload builds its scenario from the seed, runs a fixed number of
*windows* (the calibration-bracketed segments of ``calibrate.RefTimer``),
times individual *ops* inside them, and finally checks its outputs.  The
amount of simulated work is fixed by ``scale`` alone — never by how long
it takes — so the same seed gives the same simulated statistics on any
machine and any commit that has not changed behaviour.

Workload sizes at ``scale=1`` are chosen so one repetition takes about
four seconds at the commit that introduced the benchmark; the runner
repeats a workload until its time budget is used.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time

WINDOW_MS = 250.0


def _windows(full: int, scale: float) -> tuple[int, float]:
    """(window count, fraction of a full window) for ``scale``."""
    scaled = full * scale
    if scaled >= 1.0:
        return max(1, round(scaled)), 1.0
    return 1, max(scaled, 1e-3)


def _deck(rng: random.Random, cards):
    """Endless draws from ``cards``, reshuffled each time it runs out."""
    cards = list(cards)
    while True:
        rng.shuffle(cards)
        yield from cards


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """Base: subclasses fill in build / run_window / finish."""

    name = ""
    #: What ``host_ms_per_unit`` divides by.
    unit = ""
    #: What one entry of ``ops`` times.
    op = ""

    def __init__(self, seed: int, scale: float, tracer=None) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.failures: list[str] = []
        self.n_windows = 1

    def build(self) -> None:
        raise NotImplementedError

    def run_window(self, index: int, ops: list[float]) -> float:
        """Run window ``index``; append op wall seconds; return units done."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Check outputs; returns attempted/failed/digest/qos/counts."""
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever build() opened (processes, sockets)."""

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def layer_counters(self) -> dict[str, float]:
        """Per-layer counts read from the program's own public counters."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that runs the program (this one)."""
        # ru_maxrss is KiB on Linux, the only platform the driver uses.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def context(self, segments) -> dict[str, float]:
        """Numbers printed beside the metrics, not metrics themselves."""
        return {}

    def traced(self, to_ref_ms: float) -> dict:
        """Per-layer metrics, root/self seconds and the trace to write."""
        from trace import root_and_self_seconds, span_metrics

        tracer = self.tracer
        layers = span_metrics(tracer.totals(), tracer.sums, to_ref_ms)
        layers.update(self.layer_counters())
        root_s, self_s = root_and_self_seconds(tracer)
        return {"layers": layers, "trace_root_s": root_s, "trace_self_s": self_s,
                "export": tracer.export()}


def _distributor_summary(rd, rm_ops: int, failed_ops: int, failures: list[str]) -> dict:
    """attempted/failed/digest/qos for one ResourceDistributor."""
    trace = rd.trace
    missed = [d for d in trace.deadlines if d.missed]
    violations = len(rd.sanitizer.report.violations) if rd.sanitizer else 0
    for record in missed[:3]:
        failures.append(
            f"deadline miss: thread {record.thread_id} period {record.period_index}"
        )
    busy = {
        str(tid): thread.total_used_ticks + thread.total_overtime_ticks
        for tid, thread in sorted(rd.kernel.threads.items())
    }
    return {
        "attempted": len(trace.deadlines) + rm_ops,
        "failed": len(missed) + violations + failed_ops,
        "delivered_qos": rd.capacity_snapshot().qos_fraction,
        "sim_digest": _digest(
            {
                "now": rd.now,
                "switches": len(trace.switches),
                "busy": busy,
                "met": len(trace.deadlines) - len(missed),
                "missed": len(missed),
                "grant_changes": len(trace.grant_changes),
            }
        ),
        "counts": {
            "sim_ticks": rd.now,
            "switches": len(trace.switches),
            "period_closes": len(trace.deadlines),
            "grant_changes": len(trace.grant_changes),
            "rm_ops": rm_ops,
        },
    }


def distributor_counters(rds) -> dict[str, float]:
    out = {
        "sim.trace.segments_retained": 0,
        "core.kernel.switches": 0,
        "core.resource_manager.recomputes": 0,
        "core.resource_manager.memo_hits": 0,
        "core.policy_box.resolves": 0,
        "core.policy_box.inventions": 0,
        "metrics.sanitizer.violations": 0,
    }
    for rd in rds:
        out["sim.trace.segments_retained"] += len(rd.trace.segments)
        out["core.kernel.switches"] += len(rd.trace.switches)
        out["core.resource_manager.recomputes"] += rd.resource_manager.recompute_count
        out["core.resource_manager.memo_hits"] += rd.resource_manager.memo_hits
        out["core.policy_box.resolves"] += rd.policy_box.lookup_count
        out["core.policy_box.inventions"] += rd.policy_box.invention_count
        if rd.sanitizer is not None:
            out["metrics.sanitizer.violations"] += len(rd.sanitizer.report.violations)
    return out


class AvSingle(Workload):
    """§6.1: MPEG + AC3 + two channel-blocking data threads + greedy server."""

    name = "av_single"
    unit = "simulated ms"
    op = "rd.run_for(2.5 ms)"
    FULL_WINDOWS = 12
    SLICES = 100  # per window: 2.5 ms each

    def build(self) -> None:
        from repro import units
        from repro.scenarios import av_pipeline

        self.n_windows, fraction = _windows(self.FULL_WINDOWS, self.scale)
        self.slices = max(1, round(self.SLICES * fraction))
        self.slice_ticks = units.ms_to_ticks(WINDOW_MS / self.SLICES)
        self.scenario = av_pipeline(self.seed)
        self.rd = self.scenario.rd

    def run_window(self, index: int, ops: list[float]) -> float:
        run_for, ticks, clock = self.rd.run_for, self.slice_ticks, time.perf_counter
        for _ in range(self.slices):
            start = clock()
            run_for(ticks)
            ops.append(clock() - start)
        return self.slices * WINDOW_MS / self.SLICES

    def finish(self) -> dict:
        # Four admissions happened in build(); they are the only RM ops.
        return _distributor_summary(self.rd, 4, 0, self.failures)

    def layer_counters(self) -> dict[str, float]:
        return distributor_counters([self.rd])


class DenseChurn(Workload):
    """§6.2/§6.3: 64 tasks in permanent overload, an RM op every simulated ms."""

    name = "dense_churn"
    unit = "simulated ms"
    op = "admit / exit_thread / enter_quiescent / wake"
    FULL_WINDOWS = 8
    STEPS = 250  # per window: run_for(1 ms) + one op each
    TASKS = 64
    MIN_RUNNABLE = 32
    PERIODS_MS = (5, 10, 20, 30, 40, 50, 100)
    STRATA = 16  # of the top rate, U(0.2, 0.9)
    #: 30 % exit a live task and admit a fresh one, 30 % enter_quiescent,
    #: 30 % wake, 10 % nothing.
    OP_MIX = ("swap",) * 3 + ("quiesce",) * 3 + ("wake",) * 3 + ("none",)

    def _definition(self):
        from repro import units
        from repro.core.resource_list import ResourceList, ResourceListEntry
        from repro.tasks.base import TaskDefinition
        from repro.workloads import grant_follower

        rng = self.rng
        period = units.ms_to_ticks(next(self.periods))
        top = 0.2 + 0.7 * (next(self.strata) + rng.random()) / self.STRATA
        floor = (0.5 / self.TASKS) * rng.uniform(0.5, 1.0)
        entries = []
        for rate in (top, top / 2, top / 5, top / 15, floor):
            cpu = max(1, round(period * rate))
            if entries and cpu >= entries[-1].cpu_ticks:
                continue
            entries.append(ResourceListEntry(period, cpu, grant_follower))
        self.created += 1
        return TaskDefinition(
            name=f"churn{self.created:05d}", resource_list=ResourceList(entries)
        )

    def build(self) -> None:
        from repro import units
        from repro.config import MachineConfig, SimConfig
        from repro.core.distributor import ResourceDistributor

        self.n_windows, fraction = _windows(self.FULL_WINDOWS, self.scale)
        self.steps = max(1, round(self.STEPS * fraction))
        self.step_ticks = units.ms_to_ticks(1)
        self.rng = random.Random(self.seed)
        # Shuffled decks, not independent draws: every seed gets the same
        # mix of periods, top rates and ops in a different order, so the
        # cost of a run does not depend on which seed it was given.
        self.periods = _deck(self.rng, self.PERIODS_MS)
        self.strata = _deck(self.rng, range(self.STRATA))
        self.op_kinds = _deck(self.rng, self.OP_MIX)
        self.created = 0
        self.rm_ops = 0
        self.failed_ops = 0
        self.qos_samples: list[float] = []
        self.rd = ResourceDistributor(
            machine=MachineConfig(),
            sim=SimConfig(seed=self.seed),
            sanitize=True,
            sanitize_strict=True,
        )
        threads = self.rd.admit_many([self._definition() for _ in range(self.TASKS)])
        self.rm_ops += len(threads)
        self.runnable = [t.tid for t in threads]
        self.quiescent: list[int] = []

    def _op(self, call, arg, ops: list[float]):
        """One timed RM call; an exception is a failed op, not a crash."""
        from repro.errors import ReproError

        self.rm_ops += 1
        clock = time.perf_counter
        result = None
        start = clock()
        try:
            if self.tracer is not None:
                with self.tracer.span("harness:rm_op", op=self.rm_ops):
                    result = call(arg)
            else:
                result = call(arg)
        except ReproError as exc:
            self.failed_ops += 1
            self.fail(f"RM op failed: {type(exc).__name__}: {exc}")
        ops.append(clock() - start)
        return result

    def run_window(self, index: int, ops: list[float]) -> float:
        rd, rng = self.rd, self.rng
        runnable, quiescent = self.runnable, self.quiescent
        for _ in range(self.steps):
            rd.run_for(self.step_ticks)
            kind = next(self.op_kinds)
            if kind == "swap":
                tid = runnable.pop(rng.randrange(len(runnable)))
                self._op(rd.exit_thread, tid, ops)
                thread = self._op(rd.admit, self._definition(), ops)
                if thread is not None:
                    runnable.append(thread.tid)
            elif kind == "quiesce":
                if len(runnable) > self.MIN_RUNNABLE:
                    tid = runnable.pop(rng.randrange(len(runnable)))
                    self._op(rd.enter_quiescent, tid, ops)
                    quiescent.append(tid)
            elif kind == "wake":
                if quiescent:
                    tid = quiescent.pop(rng.randrange(len(quiescent)))
                    self._op(rd.wake, tid, ops)
                    runnable.append(tid)
        # Sampled outside the ops: the overload level the run sat at.
        self.qos_samples.append(rd.capacity_snapshot().qos_fraction)
        return float(self.steps)

    def finish(self) -> dict:
        summary = _distributor_summary(
            self.rd, self.rm_ops, self.failed_ops, self.failures
        )
        # The end-of-run grant set is one draw; the mean over windows is
        # the level of service the whole run delivered.
        summary["delivered_qos"] = sum(self.qos_samples) / len(self.qos_samples)
        summary["sim_digest"] = _digest(
            [summary["sim_digest"], [round(q, 12) for q in self.qos_samples]]
        )
        return summary

    def layer_counters(self) -> dict[str, float]:
        return distributor_counters([self.rd])


class RackObserved(Workload):
    """16-node rack as ``repro cluster --obs-out --obs-pipeline --telemetry``."""

    name = "rack_observed"
    unit = "node x simulated ms"
    op = "sim.run_until(+10 ms)"
    NODES = 16
    FULL_WINDOWS = 8  # the horizon: 2 simulated seconds
    SLICES = 25  # per window: 10 ms each

    def build(self) -> None:
        from repro import units
        from repro.obs.pipeline.session import PipelineObsSession
        from repro.scenarios import cluster_rack

        self.n_windows, fraction = _windows(self.FULL_WINDOWS, self.scale)
        self.slices = max(1, round(self.SLICES * fraction))
        self.slice_ticks = units.ms_to_ticks(WINDOW_MS / self.SLICES)
        horizon_ms = self.n_windows * self.slices * WINDOW_MS / self.SLICES
        self.session = PipelineObsSession()
        self.sim = cluster_rack(
            seed=self.seed,
            nodes=self.NODES,
            drop_rate=0.02,
            horizon_sec=horizon_ms / 1e3,
            sanitize=True,
            obs=self.session,
            telemetry=True,
            obs_pipeline=True,
        )

    def run_window(self, index: int, ops: list[float]) -> float:
        sim, ticks, clock = self.sim, self.slice_ticks, time.perf_counter
        for _ in range(self.slices):
            start = clock()
            sim.run_until(sim.now + ticks)
            ops.append(clock() - start)
        return self.NODES * self.slices * WINDOW_MS / self.SLICES

    def finish(self) -> dict:
        from repro.cluster.report import cluster_metrics
        from repro.obs.pipeline.aggregate import check_loss_invariant

        sim = self.sim
        sim.pipeline.finalize(sim.now)
        self.accounting = sim.pipeline.accounting()
        problems = check_loss_invariant(self.accounting)
        for problem in problems[:3]:
            self.fail(f"loss invariant: {problem}")
        doc = cluster_metrics(sim)
        closes = misses = violations = 0
        for node in sim.nodes.values():
            closes += len(node.rd.trace.deadlines)
            misses += len(node.rd.trace.misses())
            if node.rd.sanitizer is not None:
                violations += len(node.rd.sanitizer.report.violations)
        if misses:
            self.fail(f"{misses} deadline misses on admitted tasks")
        if violations:
            self.fail(f"{violations} sanitizer violations")
        stats = sim.broker.stats
        return {
            "attempted": closes + stats.submitted + stats.withdrawals,
            "failed": misses + violations + len(problems),
            "delivered_qos": doc["cluster"]["delivered_qos"],
            "sim_digest": _digest(doc),
            "counts": {
                "sim_ticks": sim.now,
                "period_closes": closes,
                "submitted": stats.submitted,
                "admitted": stats.admitted,
                "denied": stats.denied,
                "bus_sent": sim.bus.stats.sent,
                "bus_dropped": sim.bus.stats.dropped,
                "events_emitted": self.session.bus.total_emitted,
            },
        }

    def layer_counters(self) -> dict[str, float]:
        sim = self.sim
        out = distributor_counters([node.rd for node in sim.nodes.values()])
        out.update(cluster_counters(sim))
        totals, chunks = self.accounting["totals"], self.accounting["chunks"]
        out.update(
            {
                "obs.pipeline.events_emitted": totals["emitted"],
                "obs.pipeline.overwritten": totals["overwritten"],
                "obs.pipeline.events_lost": totals["dropped"],
                "obs.pipeline.chunks_shipped": chunks["node_sent"],
                "obs.pipeline.chunks_delivered": chunks["node_delivered"],
            }
        )
        return out


def cluster_counters(sim) -> dict[str, float]:
    stats = sim.broker.stats
    return {
        "sim.messages.sent": sim.bus.stats.sent,
        "sim.messages.delivered": sim.bus.stats.delivered,
        "sim.messages.dropped": sim.bus.stats.dropped,
        "cluster.broker.retries": stats.retries,
        "cluster.broker.timeouts": stats.timeouts,
        "cluster.broker.migrations": stats.migrations_completed,
    }


class ServeClosed(Workload):
    """``repro serve`` under two closed-loop keep-alive connections."""

    name = "serve_closed"
    unit = "request"
    op = "POST /v1/tasks and DELETE /v1/tasks/{name}"
    FULL_WINDOWS = 7
    CYCLES = 100  # per window and connection; four requests each

    def build(self) -> None:
        from serve_client import ServeSession

        self.n_windows, fraction = _windows(self.FULL_WINDOWS, self.scale)
        cycles = max(1, round(self.CYCLES * fraction))
        self.session = ServeSession(
            seed=self.seed,
            windows=self.n_windows,
            cycles_per_window=cycles,
            traced=self.tracer is not None,
        )
        self.session.start()

    def run_window(self, index: int, ops: list[float]) -> float:
        return float(self.session.run_window(index, ops))

    def finish(self) -> dict:
        summary = self.session.finish()
        self.failures.extend(summary.pop("failures"))
        self.server = summary.pop("server")
        return summary

    def close(self) -> None:
        self.session.close()

    def peak_rss_mb(self) -> float:
        return self.server.get("peak_rss_mb", 0.0)

    def context(self, segments) -> dict[str, float]:
        from report import percentile

        reads = sorted(
            wall_s * segment.scale * 1e3
            for segment, window in zip(segments, self.session.reads)
            for wall_s in window
        )
        out = {"client_cpu_share": self.session.client_cpu_share()}
        if reads:
            out["read_p50_ms"] = percentile(reads, 0.50)
            out["read_p99_ms"] = percentile(reads, 0.99)
        return out

    def traced(self, to_ref_ms: float) -> dict:
        """The spans are the server's; it sent them with its final report."""
        from trace import span_metrics

        server = self.server
        totals = server.get("totals", {})
        requests = server.get("requests", {})
        root_s = server.get("root_s", 0.0)
        engine_read_s = sum(
            record[1] for name, record in totals.items()
            if name.startswith("serve.engine:") and name != "serve.engine:commit"
        )
        layers = span_metrics(totals, server.get("sums", {}), to_ref_ms)
        layers.update(server.get("counters", {}))
        layers.update(
            {
                "serve.http.requests": requests.get("requests", 0),
                "serve.http.read.self_ms":
                    (requests.get("read_request_s", 0.0) - engine_read_s) * to_ref_ms,
                "serve.http.write.self_ms": requests.get("write_net_s", 0.0) * to_ref_ms,
                "serve.app.queue_wait_ms_p50":
                    requests.get("queue_wait_p50_s", 0.0) * to_ref_ms,
                # CPU the server burned outside every traced span:
                # asyncio, HTTP parse and serialize, routing, metrics.
                "serve.app.self_ms":
                    (server.get("busy_cpu_s", 0.0) - root_s) * to_ref_ms,
                "client.cpu_share": self.session.client_cpu_share(),
            }
        )
        return {"layers": layers, "trace_root_s": root_s,
                "trace_self_s": server.get("self_s", 0.0),
                "export": {"client": self.tracer.export(),
                           "server": server.get("trace", {})}}


WORKLOADS = {
    cls.name: cls for cls in (AvSingle, DenseChurn, RackObserved, ServeClosed)
}
