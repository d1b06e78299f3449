"""The three workloads: set-up, one job, and the checks on its outputs.

Every job builds its inputs from the seed it is handed, calls the
package's public API inside spans named after the layer it enters, and
returns a :class:`~harness.JobResult` whose ``checks`` say whether the
outputs are correct.  Per-layer counters go into ``JobResult.layers``
(summed per job; the entry point averages them over the traced jobs).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterable, List

import stacks
from harness import JobResult, Tracer, Workspace, run_probe

#: EngineStats counters reported per job, by layer metric name.
ENGINE_FIELDS = {
    "engine.run_s": "run_seconds",
    "engine.kernel_s": "kernel_seconds",
    "engine.alias_build_s": "alias_build_seconds",
    "engine.alias_refresh_s": "alias_refresh_seconds",
    "engine.cell_draw_s": "cell_draw_seconds",
    "engine.outcome_split_s": "outcome_split_seconds",
    "engine.batches": "batches",
    "engine.events": "events",
    "engine.fallbacks": "fallbacks",
    "engine.collision_events": "collision_events",
    "engine.alias_rebuilds": "alias_rebuilds",
    "engine.alias_patches": "alias_patches",
    "engine.stop_evals": "stop_evals",
    "engine.interactions": "interactions",
}


def engine_layers(stats: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Sum ``EngineStats.as_dict()`` counters of one job's engines."""
    stats = list(stats)
    out = {
        key: float(sum(s.get(name) or 0 for s in stats))
        for key, name in ENGINE_FIELDS.items()
    }
    out["table.lazy_pairs"] = float(sum(
        s.get("table_pairs") or 0 for s in stats if s.get("table_kind") == "lazy"
    ))
    return out


def duration(span) -> float:
    return span["end"] - span["start"] if span else 0.0


class Workload:
    """Base: a workload runs cold set-ups in probes, then jobs in-process."""

    name = ""
    clients = 1

    def __init__(self, ws: Workspace, tracer: Tracer):
        self.ws = ws
        self.tracer = tracer
        self.setups: List[Dict[str, Any]] = []
        self.layers: Dict[str, float] = {}

    def setup(self) -> float:
        """One cold set-up; returns its wall time."""
        report = run_probe(self.ws, self.name)
        self.setups.append(report)
        return report["setup_s"]

    def prepare(self) -> None:
        """Warm, in-process set-up before the timed jobs."""

    def job(self, k: int, seed: int, traced: bool) -> JobResult:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    def setup_layers(self) -> Dict[str, float]:
        def median(key: str) -> float:
            values = sorted(r.get(key, 0.0) for r in self.setups)
            return values[len(values) // 2] if values else 0.0

        return {
            "core.build_s": median("build_s"),
            "compiled.compile_s": median("compile_s"),
            "compiled.states": median("states"),
            "compiled.pairs": median("pairs"),
            "simulate.make_engine_s": median("make_engine_s"),
        }


class Clock(Workload):
    """C_o at n = 10^6 on bghkpu: the paper-scale dense-support run."""

    name = "clock"
    rounds = 100
    chunks = 4

    def prepare(self) -> None:
        from repro.clocks import ClockParams
        from repro.engine.compiled import clear_memo, compile_table

        self.params = ClockParams(module=12, k=2)
        protocol, population, _ = stacks.build("clock")
        clear_memo()  # load from disk, as a fresh process would
        start = time.perf_counter()
        table = compile_table(
            protocol, population.counts.keys(),
            cache=self.setups[-1]["cache_dir"],
        )
        self.layers["compiled.load_s"] = time.perf_counter() - start
        if table.cache_status != "hit":
            raise RuntimeError("compiled table was not loaded from the cache")

    def job(self, k: int, seed: int, traced: bool) -> JobResult:
        from repro.clocks import majority_phase
        from repro.simulate import make_engine

        span = self.tracer.span
        with self.tracer.job("clock-{}".format(k), traced):
            start = time.perf_counter()
            with span("core.build_workload"):
                protocol, population, engine = stacks.build("clock")
            with span("simulate.make_engine"):
                eng = make_engine(protocol, population, engine, seed=seed)
            phases = []
            for _ in range(self.chunks):
                with span("engine.run"):
                    eng.run(rounds=self.rounds / self.chunks)
                with span("bench.check"):
                    phases.append(majority_phase(eng.population, self.params)[0])
            with span("bench.check"):
                final = eng.population
                checks = {
                    "engine": eng.name == stacks.CLOCK_ENGINE,
                    "n_conserved": sum(final.counts.values()) == stacks.CLOCK_N,
                    "interactions": eng.interactions == stacks.CLOCK_N * self.rounds,
                    "phase_left_0": any(p != 0 for p in phases),
                }
            latency = time.perf_counter() - start
        return JobResult(
            latency=latency, interactions=eng.interactions, replicas=1,
            checks=checks, traced=traced,
            layers=engine_layers([eng.stats.as_dict()]),
        )


class Hierarchy(Workload):
    """Two-level clock hierarchy + elimination at n = 240 on matching."""

    name = "hierarchy"
    #: A job runs until the level-1 clock's majority phase reaches
    #: ``target_phase``.  Its time goes to evaluating rules for pairs seen
    #: for the first time, which come in a burst with every phase reached,
    #: so a job that stops at a phase varies by about 8 % between seeds,
    #: where one that stops after a fixed number of steps varies by 20 %.
    target_phase = 3
    chunk = 50
    max_steps = 6000

    def job(self, k: int, seed: int, traced: bool) -> JobResult:
        from repro.simulate import make_engine

        span = self.tracer.span
        k_ring = stacks.HIERARCHY_K
        with self.tracer.job("hierarchy-{}".format(k), traced):
            start = time.perf_counter()
            with span("core.build"):
                protocol, population, engine = stacks.build("hierarchy")
            with span("bench.check"):
                clk2_start = field_histogram(population, "clk2")
                phases1 = [majority(field_histogram(population, "clk1", k_ring))]
            with span("simulate.make_engine"):
                eng = make_engine(protocol, population, engine, seed=seed)
            steps = 0
            while phases1[-1] < self.target_phase and steps < self.max_steps:
                with span("engine.run"):
                    eng.run(rounds=self.chunk)
                steps += self.chunk
                with span("bench.check"):
                    phases1.append(majority(
                        field_histogram(eng.population, "clk1", k_ring)
                    ))
            with span("bench.check"):
                checks = hierarchy_checks(eng.population, clk2_start, phases1)
                checks["engine"] = eng.name == stacks.HIERARCHY_ENGINE
                checks["interactions"] = (
                    eng.interactions == steps * (stacks.HIERARCHY_N // 2)
                )
            latency = time.perf_counter() - start
        return JobResult(
            latency=latency, interactions=eng.interactions, replicas=1,
            checks=checks, traced=traced,
            layers=engine_layers([eng.stats.as_dict()]),
        )


def field_histogram(population, name: str, k: int = 1) -> Dict[int, int]:
    """Agents per value of ``field // k``."""
    hist: Dict[int, int] = {}
    schema = population.schema
    for code, count in population.counts.items():
        value = schema.value_of(code, name) // k
        hist[value] = hist.get(value, 0) + count
    return hist


def majority(hist: Dict[int, int]) -> int:
    return max(hist.items(), key=lambda kv: kv[1])[0]


def hierarchy_checks(final, clk2_start, phases1) -> Dict[str, bool]:
    """The mechanics properties of the two-level stack (Section 5.3)."""
    schema, n = final.schema, final.n
    k, module = stacks.HIERARCHY_K, stacks.HIERARCHY_MODULE
    copies_far = snap_ok = 0
    snaps: Dict[int, int] = {}
    for code, count in final.counts.items():
        clk2 = schema.value_of(code, "clk2")
        if abs(clk2 - schema.value_of(code, "clk2_new")) > 2:
            copies_far += count
        snap = schema.value_of(code, "cstar2")
        if (snap - clk2 // k) % module <= 1:
            snap_ok += count
        snaps[snap] = snaps.get(snap, 0) + count
    x_agents = sum(
        count for code, count in final.counts.items()
        if schema.value_of(code, "X")
    )
    return {
        "n_conserved": sum(final.counts.values()) == stacks.HIERARCHY_N,
        "level1_visits_4_phases": len(set(phases1)) >= 4,
        "level2_moves": field_histogram(final, "clk2") != clk2_start,
        "level2_spans_le_3_phases": len(field_histogram(final, "clk2", k)) <= 3,
        "copies_stay_close": copies_far < 0.2 * n,
        "x_preserved_low": 1 <= x_agents <= 2,
        "snapshot_tracks_level2": snap_ok > 0.8 * n,
        "snapshot_unanimous": max(snaps.values()) > 0.9 * n,
    }


class Service(Workload):
    """``python -m repro serve`` driven by two closed-loop clients."""

    name = "service"
    clients = 2
    workers = 2
    replicas = 4
    replay_index = 1

    def __init__(self, ws: Workspace, tracer: Tracer):
        super().__init__(ws, tracer)
        self.server = None
        self.retries = 0
        self._retries_lock = threading.Lock()

    def _start(self) -> float:
        """Start a server on a fresh store; returns launch-to-healthy wall."""
        from repro.service.client import ServiceClient

        self.store = self.ws.dir("store")
        env = dict(self.ws.env, REPRO_TABLE_CACHE=self.ws.dir("tables"))
        start = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", self.store, "--workers", str(self.workers)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError("service did not start: {!r}".format(line))
        self.port = int(line.strip().rsplit(":", 1)[1])
        probe = ServiceClient(port=self.port)
        while True:
            try:
                if probe.health().get("http_status") == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - start > 60:
                raise RuntimeError("service never became healthy")
            time.sleep(0.005)
        return time.perf_counter() - start

    def _stop(self) -> None:
        if self.server is None:
            return
        server, self.server = self.server, None
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def setup(self) -> float:
        self._stop()
        wall = self._start()
        self.setups.append({"setup_s": wall})
        return wall

    def close(self) -> None:
        self.layers["service.startup_s"] = statistics.median(
            s["setup_s"] for s in self.setups
        )
        self.layers["service.client_retries"] = float(self.retries)
        if self.server is not None:
            runs = [
                d for d in os.listdir(self.store)
                if os.path.isdir(os.path.join(self.store, d))
            ]
            self.layers["service.store_bytes"] = (
                tree_bytes(self.store) / max(1, len(runs))
            )
        self._stop()

    def _client(self):
        from repro.service.client import ServiceClient

        def counting_sleep(seconds: float) -> None:
            with self._retries_lock:
                self.retries += 1
            time.sleep(seconds)

        return ServiceClient(port=self.port, sleep=counting_sleep)

    def job(self, k: int, seed: int, traced: bool) -> JobResult:
        from repro.obs import load_manifest
        from repro.service.client import ServiceClient, ServiceClientError

        client = self._client()
        submitter = ServiceClient(port=self.port, retries=0)
        body = {
            "workload": "epidemic", "params": {"n": stacks.SERVICE_N},
            "replicas": self.replicas, "seed": seed,
            "config": {"engine": stacks.SERVICE_ENGINE},
        }
        span, record = self.tracer.span, self.tracer.record
        refused = 0
        with self.tracer.job("service-{}".format(k), traced):
            start = time.perf_counter()
            while True:
                with span("service.submit"):
                    try:
                        run = submitter.submit(body)
                        break
                    except ServiceClientError as exc:
                        if exc.status not in (429, 503):
                            raise
                refused += 1
                time.sleep(0.05)
            # latency ends at the arrival of the terminal state event, not
            # at the end of the stream and not at a status poll
            submitted = last = time.perf_counter()
            running = first = final = state = None
            for event in client.events(run["run_id"]):
                now = time.perf_counter()
                kind = event.get("kind")
                if kind == "state" and event.get("state") == "running":
                    record("service.queue_wait", last, now)
                    running = last = now
                elif kind == "replica":
                    record("service.spawn" if first is None else "service.exec", last, now)
                    first = first or now
                    final = last = now
                elif kind == "state" and event.get("state") in TERMINAL:
                    record("service.finalize", last, now)
                    state = event["state"]
                    break
            latency = time.perf_counter() - start
            with span("service.replay") as s_replay:
                replay = client.replay(run["run_id"], self.replay_index)
            with span("service.manifest"):
                text = client.manifest_text(run["run_id"])
            path = os.path.join(self.ws.dir("manifest"), "manifest.jsonl")
            with open(path, "w") as handle:
                handle.write(text)
            with span("obs.load_manifest") as s_load:
                manifest = load_manifest(path)
            with span("bench.check"):
                records = manifest.records
                checks = {
                    "done": state == "done",
                    "manifest_complete": len(records) == self.replicas,
                    "all_converged": all(r.converged is True for r in records),
                    "replay_match": replay.get("match") is True,
                }
        layers = engine_layers(r.stats or {} for r in records)
        running = running or submitted
        first = first or running
        final = final or first
        layers.update({
            "service.submit_s": submitted - start,
            "service.queue_wait_s": running - submitted,
            "service.spawn_s": first - running,
            "service.exec_s": final - first,
            "service.finalize_s": start + latency - final,
            "service.refused": float(refused),
            "replicas.replica_s_sum": sum(r.wall for r in records),
            "replicas.retries": float(sum(r.attempts - 1 for r in records)),
            "replicas.failed": float(sum(1 for r in records if r.status != "ok")),
            "obs.manifest_bytes": float(len(text.encode("utf-8"))),
            "obs.load_s": duration(s_load),
            "obs.replay_s": duration(s_replay),
        })
        return JobResult(
            latency=latency,
            interactions=sum(r.interactions for r in records),
            replicas=self.replicas, checks=checks, refused=refused,
            failed_replicas=sum(1 for r in records if r.status != "ok"),
            traced=traced, layers=layers,
        )


TERMINAL = frozenset({"done", "failed", "cancelled", "killed", "interrupted"})


def tree_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


WORKLOADS = {cls.name: cls for cls in (Clock, Hierarchy, Service)}
