#!/usr/bin/env python3
"""The archive's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload backfill|live|analytics \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``analytics`` stays runnable but is not in BENCHMARK.json: its figures
did not hold steady on a shared 2-vCPU host (README.md).
The load generator (this process) renders seeded inputs, drives the
program only through its public entry points -- ``IngestDaemon.run`` on
a ``ShardedDatasetStore`` in one process, ``create_server`` and HTTP
``GET /v1/...`` on 127.0.0.1 in another -- checks every output against
references computed apart from the program, and prints the result as
the last line of stdout.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  Everything it writes
lives under ``.perfbench_work/`` in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import functools
import gc
import http.client
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta
from pathlib import Path

import inputs
import reference
import tracer
from inputs import CADENCE, MAP_ORDER, nproc, signals_held

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

now = time.monotonic

#: The CPUs this process may run on when it starts.
START_CPUS = sorted(os.sched_getaffinity(0))

#: The whole run ends within this, or fails.
HARD_DEADLINE_S = 170

#: Backfill: four-map ticks drained per second of ``--seconds``, after an
#: untimed warm-up drain of BACKFILL_WARMUP_TICKS ticks.
BACKFILL_TICKS_PER_S = 1.2
BACKFILL_WARMUP_TICKS = 1
BACKFILL_SETUPS = 7

#: Live: archive history before the timed phase, tick interval, read rate
#: (the rate is an assumption; README.md gives the reasons for it).
LIVE_HISTORY_TICKS = 4
LIVE_TICK_S = 1.5
LIVE_READ_RATE = 20.0
LIVE_PROBE_S = 0.01
LIVE_PUBLISH_DEADLINE_S = 15.0
LIVE_SETUPS = 2

#: The repository's dashboard profile, restated from
#: ``benchmarks/bench_serving.py`` (``MIX_WEIGHTS``): relative weight of
#: each endpoint, shared evenly among that endpoint's URLs.
LIVE_MIX = {"snapshot": 10, "maps": 4, "series": 3, "evolution": 2, "imbalance": 1}

#: Analytics: files per map spread over ANALYTICS_DAYS UTC days.  Maps are
#: asked about in proportion to their files, views uniformly (README.md).
ANALYTICS_FILES = {"europe": 12, "north-america": 4, "asia-pacific": 4, "world": 4}
ANALYTICS_DAYS = 3
ANALYTICS_SETUPS = 2
ANALYTICS_VIEWS = ("series", "snapshot", "imbalance", "evolution")
#: Time windows (shared by the maps) and ``snapshot?at=`` instants per map.
ANALYTICS_WINDOWS = 150
ANALYTICS_CHECK_EVERY = 16
ANALYTICS_CHECK_MAX = 400

#: Metric names and units, as BENCHMARK.json declares them.
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in CATALOGUE["per_layer"]}


class BenchError(Exception):
    """The run cannot produce a result."""


class Deadline(BenchError):
    """The hard deadline passed."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` at ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(count: int) -> float:
    """The highest of p90/p75/p50 with at least ten samples beyond it.

    p99 is left out: on the analytics mix it swung by more than the
    bound between seeds (see README.md); it is printed as run info.
    """
    for q in (0.9, 0.75):
        if count * (1 - q) >= 10:
            return q
    return 0.5


def speed_reference(seconds: float = 0.5) -> float:
    """Iterations per second of a fixed pure-Python loop (host speed)."""
    def loop() -> int:
        total = 0
        for i in range(20000):
            total += i * i % 7
        return total

    count = 0
    started = now()
    while now() - started < seconds:
        loop()
        count += 1
    return count / (now() - started)


def fingerprint() -> dict:
    import numpy
    import yaml

    return {
        "cpus": len(START_CPUS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "machine": platform.machine(),
    }


# -- program processes -----------------------------------------------------


class Child:
    """One program process speaking the line protocol of ``child.py``."""

    def __init__(self, kind: str, store: Path, trace: bool, log: Path, cpus: set[int] | None, *extra: str) -> None:
        env = dict(os.environ)
        env.pop("PERFBENCH_CPUS", None)
        if cpus:
            env["PERFBENCH_CPUS"] = ",".join(map(str, sorted(cpus)))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.kind = kind
        self.log_path = log
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), kind, str(store), "1" if trace else "0", *extra],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(ROOT),
        )
        self.hello: dict = {}

    def send(self, command: str) -> None:
        self.proc.stdin.write((command + "\n").encode())
        self.proc.stdin.flush()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"{self.kind} process ended unexpectedly:\n{tail}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.send(command)
        return self.read()

    def stop(self) -> None:
        """Ask the process to exit; kill it if it does not; always reap it."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.communicate(input=b"exit\n", timeout=5)
        except (subprocess.TimeoutExpired, OSError, ValueError):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


class Harness:
    """Owns the work directory and every process the run starts."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.children: list[Child] = []
        self._count = 0

    def __enter__(self) -> "Harness":
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        # A deadline or SIGTERM arriving now waits until every child is reaped.
        with signals_held():
            for child in self.children:
                child.stop()
            shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def start(self, kind: str, store: Path, *extra: str, cpus: set[int] | None = None) -> Child:
        self._count += 1
        with signals_held():
            child = Child(kind, store, self.trace, self.work / f"{kind}-{self._count}.log", cpus, *extra)
            self.children.append(child)
        child.hello = child.read()
        return child

    def retire(self, *children: Child) -> None:
        with signals_held():
            for child in children:
                child.stop()
                self.children.remove(child)


class Http:
    """One persistent HTTP/1.1 connection to the read API."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def get(self, path: str, rid: str | None = None) -> tuple[int, bytes]:
        headers = {"X-Request-Id": rid} if rid is not None else {}
        self.conn.request("GET", path, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def quiet_generator() -> None:
    """Keep the generator's own garbage collection out of the timed phase.

    The inputs and their references are hundreds of thousands of tuples;
    a full collection over them in the load generator would show up as
    request latency.  They are frozen out of the collector, and it stays
    off until the workload, checks included, has returned.
    """
    gc.collect()
    gc.freeze()
    gc.disable()


def wait_healthy(port: int, deadline_s: float = 30.0) -> None:
    give_up = now() + deadline_s
    while True:
        try:
            client = Http(port)
            try:
                status, _ = client.get("/v1/healthz")
            finally:
                client.close()
            if status == 200:
                return
        except OSError:
            pass
        if now() > give_up:
            raise BenchError("server never answered /v1/healthz")
        time.sleep(0.01)


def vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def stored_bytes(root: Path) -> int:
    """Bytes under the store except the input SVGs."""
    total = 0
    for path in root.rglob("*"):
        if path.is_file() and "svg" not in path.relative_to(root).parts[1:2]:
            total += path.stat().st_size
    return total


# -- set-up ------------------------------------------------------------------


class Setup:
    """Stores holding the inputs, their ingest process and maybe a server.

    ``groups`` holds the inputs of each store: one group for ``live`` and
    ``analytics``; the timed drain and the warm-up drain for ``backfill``.
    The ingest process and the server are started on the first store.
    """

    def __init__(self, harness: Harness, index: int, groups, ingest_now: bool, serve: bool) -> None:
        from repro.constants import MapName
        from repro.dataset.store import ShardedDatasetStore

        started = now()
        self.roots = [harness.work / f"store-{index}-{k}" for k in range(len(groups))]
        self.stores = []
        for root, items in zip(self.roots, groups):
            store = ShardedDatasetStore(root)
            store.mark()
            for item in items:
                store.write(MapName(item.map_value), item.when, "svg", item.svg)
            self.stores.append(store)
        self.root, self.store = self.roots[0], self.stores[0]
        placement = cpu_placement() if serve else {}
        self.ingest = harness.start("ingest", self.root, ",".join(MAP_ORDER), cpus=placement.get("ingest"))
        if ingest_now:
            history = self.ingest.ask("run")
            if history["processed"] != len(groups[0]) or history["failed"]:
                raise BenchError(f"history ingest: {history}")
        self.server = None
        self.port = None
        if serve:
            self.server = harness.start("server", self.root, cpus=placement.get("server"))
            self.port = self.server.hello["port"]
            wait_healthy(self.port)
        self.seconds = now() - started
        self.harness = harness

    def children(self) -> list[Child]:
        return [c for c in (self.ingest, self.server) if c is not None]

    def discard(self) -> None:
        self.harness.retire(*self.children())
        for root in self.roots:
            shutil.rmtree(root, ignore_errors=True)


def cpu_placement() -> dict[str, set[int]]:
    """CPUs for each process of a serving workload.

    The ingest process gets one CPU; the load generator and the server
    share another, so a request and its answer hand over on one CPU
    rather than waking a CPU each way.  On one CPU all three share it.
    """
    ingest, serve = {START_CPUS[0]}, {START_CPUS[-1]}
    return {"ingest": ingest, "server": serve, "generator": serve}


def set_up(harness: Harness, reps: int, groups, ingest_now: bool, serve: bool) -> tuple[Setup, list[float]]:
    """Set up ``reps`` times from the same inputs; keep the last one.

    Serving workloads pin their processes (see ``cpu_placement``), the
    generator included; ``backfill`` leaves the ingest process free to
    use every CPU.
    """
    if serve:
        os.sched_setaffinity(0, cpu_placement()["generator"])
    times = []
    kept = None
    for index in range(reps):
        if kept is not None:
            kept.discard()
        kept = Setup(harness, index, groups, ingest_now, serve)
        times.append(kept.seconds)
    return kept, times


# -- checks --------------------------------------------------------------------


def check_yaml(root: Path, rendered: dict) -> tuple[dict, list[str]]:
    """Every stored YAML equals the simulator's snapshot; loads in range.

    Returns the stored snapshots and one problem per input whose YAML is
    missing or wrong, plus one per YAML that no input accounts for: each
    is one failed operation.
    """
    snaps = reference.load_store(root, MAP_ORDER)
    by_key = {(m, s.when): s for m, lst in snaps.items() for s in lst}
    problems = []
    for key, item in rendered.items():
        snap = by_key.get(key)
        if snap is None:
            problems.append(f"no YAML for {key[0]} {key[1].isoformat()}")
        elif reference.signature(snap) != item.reference:
            problems.append(f"YAML differs from the simulator: {key[0]} {key[1].isoformat()}")
        elif reference.bad_loads(snap):
            problems.append(f"load outside [0, 100]: {key[0]} {key[1].isoformat()}")
    problems += [f"YAML without an input: {m} {when.isoformat()}" for m, when in by_key.keys() - rendered.keys()]
    return snaps, problems


def check_index_rows(store, counts: dict[str, int]) -> list[str]:
    from repro.constants import MapName
    from repro.dataset.shards import open_sharded_query

    problems = []
    for map_value, expected in counts.items():
        handle = open_sharded_query(store, MapName(map_value))
        rows = 0 if handle is None else len(handle)
        if handle is not None:
            handle.close()
        if rows != expected:
            problems.append(f"{map_value}: index has {rows} rows for {expected} files")
    return problems


# -- traced-run analysis ---------------------------------------------------------


def _series(registry: dict, name: str) -> list:
    for metric in registry["metrics"]:
        if metric["name"] == name:
            return metric["series"]
    return []


def reg_total(before: dict, after: dict, name: str, field: str = "value", **labels) -> float:
    """Delta of a counter (or histogram ``sum``/``count``) between snapshots."""

    def total(snapshot: dict) -> float:
        out = 0.0
        for label_pairs, value in _series(snapshot, name):
            got = dict(label_pairs)
            if any(got.get(k) != v for k, v in labels.items()):
                continue
            if isinstance(value, dict):
                out += value["sum"] if field == "sum" else sum(value["counts"])
            else:
                out += value
        return out

    return total(after) - total(before)


def layer_sums(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, total duration, total self time)."""
    selfs = tracer.self_times(spans)
    out: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        if span[2] is None:
            continue
        entry = out.setdefault(span[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span[2] - span[1]
        entry[2] += own
    return {k: tuple(v) for k, v in out.items()}


def pick(sums: dict, name: str, k: int = 1) -> float:
    """Count (0), total (1) or self time (2) of one span name."""
    return sums.get(name, (0, 0.0, 0.0))[k]


def covered(spans: list[list], lo: float, hi: float) -> float:
    return tracer.union_length([(s[1], s[2]) for s in spans if s[2] is not None], lo, hi)


def per_layer(dumps: dict[str, dict], ops: dict, e2e: dict) -> dict[str, float]:
    """Every per-layer metric from the program processes' dumps.

    Layers a workload does not run read 0.
    """
    m = {name: 0.0 for name in LAYER_UNITS}
    ingest = dumps.get("ingest")
    server = dumps.get("server")
    spans_total = 0
    overhead = 0.0
    missing = set()
    for dump in dumps.values():
        spans_total += len(dump["spans"])
        overhead += len(dump["spans"]) * dump["span_cost"]
        missing.update(dump["missing"])
    if ingest is not None:
        spans = ingest["spans"]
        sums = layer_sums(spans)
        b, a = ingest["registry_before"], ingest["registry_after"]
        s = functools.partial(pick, sums)

        m["parse.files"] = s("parse", 0)
        m["parse.busy_s"] = s("parse")
        for stage in ("extract", "attribute", "checks", "serialize"):
            m[f"parse.{stage}_s"] = reg_total(b, a, "repro_parse_stage_seconds", "sum", stage=stage)
        m["parse.fast_path_hits"] = reg_total(b, a, "repro_parse_fast_path_total", outcome="hit")
        m["parse.fallbacks"] = reg_total(b, a, "repro_parse_fast_path_total", outcome="fallback")
        m["store.read_s"] = s("store.read")
        yaml_writes = [sp for sp in spans if sp[0] == "store.write" and (sp[5] or {}).get("kind") == "yaml"]
        m["store.yaml_writes"] = len(yaml_writes)
        m["store.yaml_write_s"] = sum(sp[2] - sp[1] for sp in yaml_writes)
        m["store.yaml_bytes"] = sum(sp[5]["bytes"] for sp in yaml_writes)
        m["store.fsync_dir_calls"] = s("store.fsync_dir", 0)
        m["store.fsync_dir_s"] = s("store.fsync_dir")
        m["store.iter_refs_calls"] = s("store.iter_refs", 0)
        m["store.iter_refs_s"] = s("store.iter_refs")
        m["ingest.runs"] = s("ingest.run", 0)
        m["ingest.run_s"] = s("ingest.run")
        m["ingest.self_s"] = s("ingest.run", 2)
        m["ingest.recover_s"] = reg_total(b, a, "repro_ingest_recover_seconds", "sum")
        m["ingest.journal_appends"] = reg_total(b, a, "repro_ingest_journal_records_total", event="appended")
        m["ingest.journal_sync_s"] = s("ingest.journal_sync")
        m["ingest.checkpoints"] = reg_total(b, a, "repro_ingest_checkpoint_seconds", "count")
        m["ingest.checkpoint_s"] = reg_total(b, a, "repro_ingest_checkpoint_seconds", "sum")
        m["manifest.load_s"] = s("manifest.load")
        m["manifest.saves"] = s("manifest.save", 0)
        m["manifest.save_s"] = s("manifest.save")
        m["manifest.bytes"] = sum((sp[5] or {}).get("bytes", 0) for sp in spans if sp[0] == "manifest.save")
        m["shards.compactions"] = s("shards.compact", 0)
        m["shards.compact_s"] = s("shards.compact")
        m["shards.built"] = reg_total(b, a, "repro_shard_compactions_total", outcome="built")
        m["shards.skipped"] = reg_total(b, a, "repro_shard_compactions_total", outcome="skipped")
        m["index.build_s"] = s("index.build")
        m["index.rows_reused"] = reg_total(b, a, "repro_index_rows_total", outcome="reused")
        m["index.rows_parsed"] = reg_total(b, a, "repro_index_rows_total", outcome="parsed")
    if server is not None:
        spans = server["spans"]
        sums = layer_sums(spans)
        b, a = server["registry_before"], server["registry_after"]
        s = functools.partial(pick, sums)

        m["http.requests"] = reg_total(b, a, "repro_server_requests_total")
        m["core.handle_s"] = s("core.handle")
        m["core.self_s"] = s("core.handle", 2)
        m["router.match_s"] = s("router.match")
        hits = reg_total(b, a, "repro_server_cache_total", outcome="hit")
        misses = reg_total(b, a, "repro_server_cache_total", outcome="miss")
        m["cache.hits"], m["cache.misses"] = hits, misses
        m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["engines.handle_s"] = s("engines.handle")
        m["engines.hotswaps"] = reg_total(b, a, "repro_server_hotswaps_total")
        m["handles.opens"] = s("handles.open", 0)
        m["handles.open_s"] = s("handles.open")
        m["handles.generation_s"] = s("handles.generation")
        for view in ("snapshot", "series", "imbalance", "evolution", "maps"):
            m[f"services.{view}_s"] = s(f"services.{view}")
        m["query.scans"] = reg_total(b, a, "repro_query_scans_total")
        m["query.rows_scanned"] = reg_total(b, a, "repro_query_rows_scanned_total")
        m["query.links_matched"] = reg_total(b, a, "repro_query_links_matched_total")
        m["query.scan_s"] = reg_total(b, a, "repro_query_scan_seconds", "sum")
        m["shards.scanned"] = reg_total(b, a, "repro_shard_scan_shards_total", outcome="scanned")
        m["shards.pruned"] = reg_total(b, a, "repro_shard_scan_shards_total", outcome="pruned")
        m["feed.polls"] = s("feed.poll", 0)
        m["feed.poll_s"] = s("feed.poll")
        handled = {sp[4]: sp[2] - sp[1] for sp in spans if sp[0] == "core.handle" and sp[3] is None and sp[2]}
        gaps = [lat - handled[rid] for rid, lat in ops.get("requests", {}).items() if rid in handled]
        if gaps:
            m["transport.overhead_p50_s"] = statistics.median(gaps)
    # Operation wall time no program span covers: IPC and HTTP transport.
    residual = 0.0
    total = 0.0
    if ingest is not None:
        roots = [sp for sp in ingest["spans"] if sp[0] == "ingest.run"]
        for lo, hi in ops.get("runs", []):
            total += hi - lo
            residual += (hi - lo) - covered(roots, lo, hi)
    if server is not None:
        handled = {sp[4]: sp for sp in server["spans"] if sp[0] == "core.handle" and sp[3] is None and sp[2]}
        for rid, lat in ops.get("requests", {}).items():
            span = handled.get(rid)
            total += lat
            residual += lat - (span[2] - span[1] if span is not None else 0.0)
    m["unattributed_s"] = residual
    m["unattributed_share"] = residual / total if total else 0.0
    m.update({k: v for k, v in ops.get("gen", {}).items() if k in m})
    m["trace.throughput"] = e2e["throughput"]
    m["trace.latency_p50_s"] = e2e["latency_p50_s"]
    m["trace.spans"] = spans_total
    m["trace.overhead_s"] = overhead
    m["trace.missing_layers"] = len(missing)
    if missing:
        print("# missing layers: " + ", ".join(sorted(missing)))
    return m


def collect(harness: Harness, setup: Setup) -> dict[str, dict]:
    """Dump spans and registry deltas from every program process."""
    dumps = {}
    for child in setup.children():
        path = harness.work / f"{child.kind}-trace.json"
        child.ask(f"dump {path}")
        dumps[child.kind] = json.loads(path.read_text())
    return dumps


# -- workloads ---------------------------------------------------------------------


def backfill(harness: Harness, seed: int, seconds: int) -> dict:
    ticks = max(4, round(seconds * BACKFILL_TICKS_PER_S))
    start = inputs.week_offset(seed, CADENCE * (BACKFILL_WARMUP_TICKS + ticks))
    plan = {m: [start + CADENCE * i for i in range(BACKFILL_WARMUP_TICKS + ticks)] for m in MAP_ORDER}
    render_started = now()
    rendered = inputs.render_all(plan, seed, nproc())
    render_s = now() - render_started
    # The first ticks warm the ingest process up in a store of their own
    # and are not timed; the rest is the timed drain.
    warm_items = [rendered[(m, w)] for m in MAP_ORDER for w in plan[m][:BACKFILL_WARMUP_TICKS]]
    items = [rendered[(m, w)] for m in MAP_ORDER for w in plan[m][BACKFILL_WARMUP_TICKS:]]
    setup, setup_times = set_up(harness, BACKFILL_SETUPS, [items, warm_items], ingest_now=False, serve=False)
    warm = setup.ingest.ask(f"run {setup.roots[1]}")
    setup.ingest.ask("mark")
    quiet_generator()
    started_wall = time.time()
    reply = setup.ingest.ask("run")
    run_wall = reply["end"] - reply["start"]
    rss = vm_hwm_mib(setup.ingest.proc.pid)
    files = len(items)
    latencies = []
    for item in items:
        path = setup.store.path_for(map_name_of(item.map_value), item.when, "yaml")
        latencies.append(max(0.0, path.stat().st_mtime_ns / 1e9 - started_wall))
    q = tail_quantile(files)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "throughput": reply["processed"] / run_wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, q),
        "stored_bytes_per_file": stored_bytes(setup.root) / reply["processed"],
        "peak_rss_mb": rss,
    }
    # A file a run did not process has no YAML, so it is counted there.
    problems = []
    for root, store, group in zip(setup.roots, setup.stores, (items, warm_items)):
        _, found = check_yaml(root, {(item.map_value, item.when): item for item in group})
        problems += found
        problems += check_index_rows(store, {m: len(group) // len(MAP_ORDER) for m in MAP_ORDER})
    failed = len(problems)
    info = {"render_s": render_s, "files": files, "ticks": ticks, "run_s": run_wall,
            "warmup_run_s": warm["end"] - warm["start"], "tail_quantile": q, "setup_times_s": setup_times}
    dumps = collect(harness, setup) if harness.trace else {}
    ops = {"runs": [(reply["start"], reply["end"])]}
    attempted = files + len(warm_items)
    return finish(e2e, dumps, ops, attempted, failed, problems, info)


def map_name_of(value: str):
    from repro.constants import MapName

    return MapName(value)


def hot_links(item, count: int, rng: random.Random) -> list[tuple[str, str]]:
    """``count`` node pairs of one snapshot, parallel groups first."""
    _, _, links = item.reference
    pairs: dict[tuple[str, str], int] = {}
    for (a, _, _), (b, _, _) in links:
        pairs[(a, b)] = pairs.get((a, b), 0) + 1
    ordered = sorted(pairs, key=lambda p: (-pairs[p], p))
    chosen = ordered[: max(count, 1) * 3]
    rng.shuffle(chosen)
    return chosen[:count]


def live(harness: Harness, seed: int, seconds: int) -> dict:
    history_n = LIVE_HISTORY_TICKS
    ticks = max(3, int(seconds // LIVE_TICK_S))
    start = inputs.week_offset(seed, CADENCE * (history_n + ticks))
    stamps = [start + CADENCE * i for i in range(history_n + ticks)]
    plan = {m: list(stamps) for m in MAP_ORDER}
    render_started = now()
    rendered = inputs.render_all(plan, seed, nproc())
    render_s = now() - render_started
    history = [rendered[(m, w)] for m in MAP_ORDER for w in stamps[:history_n]]
    setup, setup_times = set_up(harness, LIVE_SETUPS, [history], ingest_now=True, serve=True)

    rng = random.Random(seed)
    epoch0 = int(start.timestamp())
    day_before = epoch0 - 86400
    urls: dict[str, list[str]] = {view: [] for view in LIVE_MIX}
    urls["maps"].append("/v1/maps")
    for m in MAP_ORDER:
        urls["snapshot"].append(f"/v1/maps/{m}/snapshot")
        for a, b in hot_links(rendered[(m, stamps[0])], 2, rng):
            urls["series"].append(f"/v1/maps/{m}/series?link={a}:{b}&start={day_before}")
        urls["imbalance"].append(f"/v1/maps/{m}/imbalance?start={epoch0}")
        urls["evolution"].append(f"/v1/maps/{m}/evolution?start={epoch0}")
    population = [url for view in LIVE_MIX for url in urls[view]]
    weights = [LIVE_MIX[view] / len(urls[view]) for view in LIVE_MIX for _ in urls[view]]
    schedule = rng.choices(population, weights, k=int(ticks * LIVE_TICK_S * LIVE_READ_RATE) + 1)

    for child in setup.children():
        child.ask("mark")
    quiet_generator()
    probe = Http(setup.port)
    reader = Http(setup.port)
    phase_start = now() + 0.05
    phase_end = phase_start + ticks * LIVE_TICK_S
    #: (url, status, due, sent, done, body or None)
    reads: list[tuple[str, int, float, float, float, bytes | None]] = []
    stop = threading.Event()
    reader_error: list[BaseException] = []

    def read_loop() -> None:
        try:
            for k, url in enumerate(schedule):
                due = phase_start + k / LIVE_READ_RATE
                if due >= phase_end or stop.is_set():
                    return
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                sent = now()
                status, body = reader.get(url, rid=f"r{k}")
                reads.append((url, status, due, sent, now(), body if k % 4 == 0 else None))
        except Exception as exc:  # reported by the main thread
            reader_error.append(exc)

    thread = threading.Thread(target=read_loop, daemon=True)
    thread.start()
    #: (map, tick, written, first servable or None)
    publishes: list[tuple[str, int, float, float | None]] = []
    runs = []
    waits = []
    probe_count = 0
    try:
        for k in range(ticks):
            due = phase_start + k * LIVE_TICK_S
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            when = stamps[history_n + k]
            published = {}
            for m in MAP_ORDER:
                setup.store.write(map_name_of(m), when, "svg", rendered[(m, when)].svg)
                published[m] = now()
            setup.ingest.send("run")
            target = when.isoformat()
            pending = list(MAP_ORDER)
            servable: dict[str, float] = {}
            give_up = now() + LIVE_PUBLISH_DEADLINE_S
            while pending and now() < give_up:
                for m in list(pending):
                    status, body = probe.get(f"/v1/maps/{m}/snapshot", rid=f"p{probe_count}")
                    probe_count += 1
                    if status == 200 and json.loads(body)["timestamp"] == target:
                        servable[m] = now()
                        pending.remove(m)
                if pending:
                    time.sleep(LIVE_PROBE_S)
            reply = setup.ingest.read()
            if reply["failed"] or reply["processed"] != len(MAP_ORDER):
                raise BenchError(f"live ingest run: {reply}")
            runs.append((reply["start"], reply["end"]))
            waits.append(reply["start"] - max(published.values()))
            for m in MAP_ORDER:
                publishes.append((m, k, published[m], servable.get(m)))
        thread.join(timeout=max(0.0, phase_end - now()) + 30)
    finally:
        stop.set()
        probe.close()
    if thread.is_alive():
        raise BenchError("reader thread did not finish")
    reader.close()
    if reader_error:
        raise BenchError(f"reader failed: {reader_error[0]!r}")
    rss = max(vm_hwm_mib(c.proc.pid) for c in setup.children())

    fresh = [s - p for _, _, p, s in publishes if s is not None]
    if not fresh:
        raise BenchError("no publish became servable")
    read_lat = [done - due for _, status, due, _, done, _ in reads if status in (200, 304)]
    q = tail_quantile(len(fresh))
    run_total = sum(hi - lo for lo, hi in runs)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "throughput": len(MAP_ORDER) * ticks / run_total,
        "latency_p50_s": statistics.median(fresh),
        "latency_tail_s": percentile(fresh, q),
        "stored_bytes_per_file": stored_bytes(setup.root) / len(rendered),
        "peak_rss_mb": rss,
    }

    snaps, problems = check_yaml(setup.root, rendered)
    failed = len(problems)
    unservable = sum(1 for *_, s in publishes if s is None)
    failed += unservable
    if unservable:
        problems.append(f"{unservable} publishes never became servable")
    bad_status = [(url, status) for url, status, *_ in reads if status not in (200, 304)]
    failed += len(bad_status)
    if bad_status:
        problems.append(f"{len(bad_status)} reads failed, e.g. {bad_status[0]}")
    mismatched = check_live_bodies(reads, publishes, snaps, history_n)
    failed += len(mismatched)
    problems += mismatched[:5]
    final = Http(setup.port)
    try:
        status, body = final.get("/v1/maps")
        archives = {m: reference.Archive(snaps[m]) for m in MAP_ORDER}
        problem = reference.check_maps(json.loads(body), archives) if status == 200 else f"/v1/maps {status}"
    finally:
        final.close()
    if problem:
        failed += 1
        problems.append(f"index rows after the run: {problem}")
    lateness = [sent - due for _, _, due, sent, _, _ in reads]
    info = {
        "render_s": render_s, "ticks": ticks, "history_ticks": history_n, "archive_files": len(rendered),
        "publishes": len(publishes), "reads": len(reads), "probes": probe_count,
        "tail_quantile": q, "read_p50_s": statistics.median(read_lat) if read_lat else None,
        "read_p99_s": percentile(read_lat, 0.99) if len(read_lat) >= 1000 else None,
        "setup_times_s": setup_times,
    }
    dumps = collect(harness, setup) if harness.trace else {}
    first_read = []
    if dumps:
        compacts = [sp for sp in dumps["ingest"]["spans"] if sp[0] == "shards.compact"]
        for m, k, _, s in publishes:
            lo, hi = runs[k]
            ends = [sp[2] for sp in compacts if (sp[5] or {}).get("map") == m and lo <= sp[1] <= hi]
            if s is not None and ends:
                first_read.append(s - max(ends))
    ops = {
        "runs": runs,
        "requests": {f"r{k}": done - sent for k, (_, _, _, sent, done, _) in enumerate(reads)},
        "gen": {
            "gen.lateness_p99_s": percentile(lateness, 0.99) if lateness else 0.0,
            "live.wait_s": statistics.median(waits),
            "live.first_read_s": statistics.median(first_read) if first_read else 0.0,
        },
    }
    attempted = len(publishes) + len(reads)
    return finish(e2e, dumps, ops, attempted, failed, problems, info)


def check_live_bodies(reads, publishes, snaps: dict, history_n: int) -> list[str]:
    """Each sampled body must match its map's archive at a tick count it may see.

    A read of map ``m`` sent at ``sent`` and answered at ``done`` must see
    at least every tick of ``m`` the freshness probe had already found
    servable at ``sent``, and at most every tick of ``m`` written by
    ``done``; each mismatch is one failed read.
    """
    servable_at = {m: [] for m in MAP_ORDER}
    written_at = {m: [] for m in MAP_ORDER}
    for m, _, written, servable in publishes:  # in tick order
        servable_at[m].append(float("inf") if servable is None else servable)
        written_at[m].append(written)

    def bounds(m: str, sent: float, done: float) -> range:
        lo = history_n + sum(1 for t in servable_at[m] if t <= sent)
        hi = history_n + sum(1 for t in written_at[m] if t <= done)
        return range(lo, hi + 1)

    @functools.lru_cache(maxsize=None)
    def archive(m: str, n: int) -> reference.Archive:
        return reference.Archive(snaps[m][:n])

    problems = []
    for url, status, _, sent, done, body in reads:
        if body is None or status != 200:
            continue
        if url == "/v1/maps":
            listed = json.loads(body)["maps"]
            ok = len(listed) == len(MAP_ORDER) and all(
                any(
                    reference.check_maps({"maps": [e]}, {e["name"]: archive(e["name"], n)}) is None
                    for n in bounds(e["name"], sent, done)
                )
                for e in listed
            )
        else:
            m = url.split("/")[3]
            ok = any(
                reference.check_body(url, body, {m: archive(m, n)}) is None
                for n in bounds(m, sent, done)
            )
        if not ok:
            problems.append(f"body of {url} matches no archive state its read could see")
    return problems


def analytics(harness: Harness, seed: int, seconds: int) -> dict:
    rng = random.Random(seed)
    day0 = inputs.WEEK_START + timedelta(days=rng.randrange(0, 7 - ANALYTICS_DAYS))
    span = timedelta(days=ANALYTICS_DAYS)
    plan = {}
    for m, count in ANALYTICS_FILES.items():
        step = span / count
        offset = CADENCE * rng.randrange(0, int(step / CADENCE))
        plan[m] = [day0 + offset + step * i for i in range(count)]
        plan[m] = [datetime.fromtimestamp(int(w.timestamp()) // 300 * 300, tz=w.tzinfo) for w in plan[m]]
    render_started = now()
    rendered = inputs.render_all(plan, seed, nproc())
    render_s = now() - render_started
    items = [rendered[(m, w)] for m in MAP_ORDER for w in plan[m]]
    setup, setup_times = set_up(harness, ANALYTICS_SETUPS, [items], ingest_now=True, serve=True)

    urls = analytics_urls(rng, rendered, plan, day0, span)
    for child in setup.children():
        child.ask("mark")
    quiet_generator()
    client = Http(setup.port)
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    checked: list[tuple[str, bytes]] = []
    draw = random.Random(seed + 1)
    maps, map_weights = zip(*ANALYTICS_FILES.items())
    requests = {}
    try:
        phase_start = now()
        phase_end = phase_start + seconds
        k = 0
        while True:
            sent = now()
            if sent >= phase_end:
                break
            m = draw.choices(maps, map_weights)[0]
            url = draw.choice(urls[m][draw.choice(ANALYTICS_VIEWS)])
            status, body = client.get(url, rid=f"a{k}")
            done = now()
            latencies.append(done - sent)
            requests[f"a{k}"] = done - sent
            statuses[status] = statuses.get(status, 0) + 1
            if status == 200 and k % ANALYTICS_CHECK_EVERY == 0 and len(checked) < ANALYTICS_CHECK_MAX:
                checked.append((url, body))
            k += 1
        elapsed = now() - phase_start
    finally:
        client.close()
    rss = max(vm_hwm_mib(c.proc.pid) for c in setup.children())
    ok = statuses.get(200, 0) + statuses.get(304, 0)
    q = tail_quantile(len(latencies))
    e2e = {
        "setup_s": statistics.median(setup_times),
        "throughput": ok / elapsed,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, q),
        "stored_bytes_per_file": stored_bytes(setup.root) / len(items),
        "peak_rss_mb": rss,
    }
    snaps, problems = check_yaml(setup.root, rendered)
    problems += check_index_rows(setup.store, {m: len(plan[m]) for m in MAP_ORDER})
    archives = {m: reference.Archive(snaps[m]) for m in MAP_ORDER}
    for url, body in checked:
        problem = reference.check_body(url, body, archives)
        if problem:
            problems.append(f"{url}: {problem}")
    failed = len(problems) + len(latencies) - ok
    if len(latencies) > ok:
        problems.append(f"{len(latencies) - ok} reads failed: statuses {statuses}")
    info = {
        "render_s": render_s, "archive_files": len(items), "reads": len(latencies), "checked": len(checked),
        "url_population": sum(len(u) for v in urls.values() for u in v.values()), "tail_quantile": q,
        "p99_s": percentile(latencies, 0.99),
        "setup_times_s": setup_times,
    }
    dumps = collect(harness, setup) if harness.trace else {}
    ops = {"requests": requests}
    return finish(e2e, dumps, ops, len(latencies), failed, problems, info)


def analytics_urls(rng: random.Random, rendered, plan, day0: datetime, span: timedelta) -> dict[str, dict[str, list[str]]]:
    """The read population: far more distinct URLs than the 256-entry cache."""
    lo = int(day0.timestamp())
    hi = int((day0 + span).timestamp())
    windows: list[tuple[int | None, int | None]] = [(None, None)]
    for d in range(ANALYTICS_DAYS):
        windows.append((lo + d * 86400, lo + (d + 1) * 86400))
    while len(windows) < ANALYTICS_WINDOWS:
        a = rng.randrange(lo, hi - 6 * 3600)
        windows.append((a, a + rng.choice((6, 12, 24, 36)) * 3600))

    def qs(window, **extra) -> str:
        params = [f"{k}={v}" for k, v in extra.items()]
        if window[0] is not None:
            params += [f"start={window[0]}", f"end={window[1]}"]
        return ("?" + "&".join(params)) if params else ""

    out: dict[str, dict[str, list[str]]] = {}
    for m in MAP_ORDER:
        urls: dict[str, set[str]] = {view: set() for view in ANALYTICS_VIEWS}
        first = rendered[(m, plan[m][0])]
        for a, b in sorted({(a, b) for (a, _, _), (b, _, _) in first.reference[2]}):
            for window in rng.sample(windows, 6):
                urls["series"].add(f"/v1/maps/{m}/series" + qs(window, link=f"{a}:{b}"))
        epochs = [int(w.timestamp()) for w in plan[m]]
        for window in windows:
            urls["imbalance"].add(f"/v1/maps/{m}/imbalance" + qs(window))
            # An empty window is a 404 for evolution: keep the answerable ones.
            if window[0] is None or any(window[0] <= e < window[1] for e in epochs):
                urls["evolution"].add(f"/v1/maps/{m}/evolution" + qs(window))
        for _ in range(ANALYTICS_WINDOWS):
            urls["snapshot"].add(f"/v1/maps/{m}/snapshot?at={rng.randrange(epochs[0], hi)}")
        out[m] = {view: sorted(found) for view, found in urls.items()}
    return out


def finish(e2e, dumps, ops, attempted, failed, problems, info) -> dict:
    return {
        "e2e": e2e, "dumps": dumps, "ops": ops, "attempted": attempted,
        "failed": failed, "problems": problems, "info": info,
    }


WORKLOADS = {"backfill": backfill, "live": live, "analytics": analytics}

def on_alarm(signum, frame) -> None:
    raise Deadline(f"no result within {HARD_DEADLINE_S} s")


def on_term(signum, frame) -> None:
    raise BenchError(f"stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="The archive's benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(HARD_DEADLINE_S)
    try:
        speed_before = speed_reference()
        with Harness(bool(args.trace)) as harness:
            result = WORKLOADS[args.workload](harness, args.seed, args.seconds)
            gc.enable()
        speed_after = speed_reference()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print("# host " + json.dumps(fingerprint()))
    print(f"# speed_reference_loops_per_s before={speed_before:.1f} after={speed_after:.1f}")
    print("# info " + json.dumps(result["info"]))
    print("# end_to_end " + json.dumps(result["e2e"]))
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    correct = not result["problems"]
    if args.trace:
        values, units = per_layer(result["dumps"], result["ops"], result["e2e"]), LAYER_UNITS
    else:
        values, units = result["e2e"], E2E_UNITS
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
