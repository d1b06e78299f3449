"""Shared machinery of the benchmark: workspace, job loop, tracing, stats.

Nothing here imports the ``repro`` package, so the entry point can check
that the sources exist before anything touches them.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives under this ignored directory.
OUT = os.path.join(ROOT, ".perfbench")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


class Workspace:
    """A private scratch directory inside the checkout, removed on exit.

    Points the compiled-table cache, ``TMPDIR`` and ``PYTHONPATH`` of this
    process and of every child it starts at fresh locations, so a run
    neither reads ``~/.cache/repro/tables`` nor writes to the tracked tree.
    """

    def __init__(self) -> None:
        os.makedirs(OUT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="work-", dir=OUT)
        self._counter = itertools.count()
        tmp = self.dir("tmp")
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=SRC,
            TMPDIR=tmp,
            REPRO_TABLE_CACHE=self.dir("tables"),
        )
        os.environ["TMPDIR"] = tmp
        os.environ["REPRO_TABLE_CACHE"] = self.env["REPRO_TABLE_CACHE"]
        tempfile.tempdir = tmp

    def dir(self, name: str) -> str:
        """A fresh, empty directory ``<name>-<k>`` under the workspace."""
        path = os.path.join(self.path, "{}-{}".format(name, next(self._counter)))
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this run's orphaned descendants (Linux only).

    A process whose parent dies before it (a sandboxed job of a stopped
    server, say) is then re-parented here instead of to init, so
    :func:`stop_children` can still stop and reap it.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    """Pids of this process's live or unreaped children, read from /proc."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Kill and reap every child still left (strays: all else has stopped)."""
    for pid in child_pids():
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def compile_sources() -> None:
    """Byte-compile ``src`` once, so set-up times never include it."""
    import compileall

    compileall.compile_dir(SRC, quiet=2)


def run_probe(ws: Workspace, workload: str, timeout: float = 120.0) -> Dict[str, Any]:
    """One cold set-up in a fresh interpreter; returns its timings.

    ``setup_s`` runs from process launch to the probe's report, so it
    covers interpreter start, package import, protocol build, table
    compile from an empty cache and engine construction.
    """
    env = dict(ws.env, REPRO_TABLE_CACHE=ws.dir("tables"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, PROBE, workload],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line:
        raise RuntimeError("set-up probe for {} failed (exit {})".format(workload, code))
    report = json.loads(line)
    report["setup_s"] = ready
    report["cache_dir"] = env["REPRO_TABLE_CACHE"]
    return report


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder; one trace id per job.

    ``enabled`` is checked when a job's root span opens, so a run can
    trace some jobs and leave others untraced.  Spans carry name, start,
    end, parent and trace id; :meth:`write` adds each span's self time
    (its duration minus the part its children cover) and writes JSONL.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def job(self, trace_id: str, enabled: bool):
        """Root span of one job; children record only when ``enabled``."""
        if not enabled:
            yield None
            return
        with self.span("job", trace=trace_id) as root:
            yield root

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None):
        stack = self._stack()
        if trace is None and not stack:
            yield None  # untraced job: record nothing
            return
        parent = stack[-1] if stack else None
        record = {
            "trace": trace if trace is not None else parent["trace"],
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            with self._lock:
                self.spans.append(record)

    def record(self, name: str, start: float, end: float) -> None:
        """A span whose ends were observed elsewhere (e.g. event arrivals)."""
        stack = self._stack()
        if not stack:
            return
        parent = stack[-1]
        record = {
            "trace": parent["trace"], "id": next(self._ids),
            "parent": parent["id"], "name": name, "start": start, "end": end,
        }
        with self._lock:
            self.spans.append(record)

    # -- analysis ----------------------------------------------------------
    def _children(self) -> Dict[int, List[Dict[str, Any]]]:
        children: Dict[int, List[Dict[str, Any]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        return children

    @staticmethod
    def _covered(spans: List[Dict[str, Any]], lo: float, hi: float) -> float:
        """Length of [lo, hi] covered by the union of ``spans``."""
        covered, cursor = 0.0, lo
        for span in sorted(spans, key=lambda s: s["start"]):
            start, end = max(span["start"], cursor), min(span["end"], hi)
            if end > start:
                covered += end - start
                cursor = end
        return covered

    def self_times(self) -> Dict[int, float]:
        children = self._children()
        return {
            span["id"]: (span["end"] - span["start"]) - self._covered(
                children.get(span["id"], []), span["start"], span["end"]
            )
            for span in self.spans
        }

    def coverage(self) -> float:
        """Share of the traced jobs' wall covered by their top-level spans."""
        children = self._children()
        wall = covered = 0.0
        for root in (s for s in self.spans if s["parent"] is None):
            wall += root["end"] - root["start"]
            covered += self._covered(
                children.get(root["id"], []), root["start"], root["end"]
            )
        return covered / wall if wall > 0 else 0.0

    def write(self, path: str) -> None:
        selfs = self.self_times()
        origin = min((s["start"] for s in self.spans), default=0.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                out = dict(span)
                out["start"] = span["start"] - origin
                out["end"] = span["end"] - origin
                out["self"] = selfs[span["id"]]
                handle.write(json.dumps(out, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the job loop
# ---------------------------------------------------------------------------

@dataclass
class JobResult:
    """What one job did, and whether its outputs passed their checks."""

    latency: float
    interactions: int
    replicas: int
    checks: Dict[str, bool] = field(default_factory=dict)
    failed_replicas: int = 0
    refused: int = 0
    traced: bool = False
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.checks) + self.replicas + self.refused

    @property
    def failed(self) -> int:
        bad = sum(1 for ok in self.checks.values() if not ok)
        return bad + self.failed_replicas + self.refused


def closed_loop(
    job: Callable[[int], JobResult], clients: int, seconds: float
) -> tuple:
    """Run jobs back to back from ``clients`` threads for ``seconds``.

    Each client starts its next job only after its previous one returns;
    job ``k`` is handed out in order, so the job sequence (and its seeds)
    depends only on how many jobs fit.  Returns (results, elapsed wall).
    """
    counter = itertools.count()
    results: List[JobResult] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        try:
            while time.perf_counter() < deadline:
                result = job(next(counter))
                with lock:
                    results.append(result)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    if clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, daemon=True) for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return results, elapsed


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def per_job(results: List[JobResult], key: str) -> float:
    """Mean of a per-job layer counter over the traced jobs."""
    traced = [r for r in results if r.traced]
    if not traced:
        return 0.0
    return sum(r.layers.get(key, 0.0) for r in traced) / len(traced)
