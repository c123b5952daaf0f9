"""Seeded benchmark inputs: simulator renderings plus their references.

Every input file is a distinct rendering of a simulator snapshot.  Each
map gets its own :class:`BackboneSimulator` and :class:`MapRenderer`
(a shared simulator carries cross-map churn state that can render an
unparseable document), so every file is parseable.  The reference for
each file is the simulator's own :class:`MapSnapshot`, reduced to plain
Python values here, in the render worker, so the checks never go
through the program's parser or YAML layer.

Rendering is the load generator's cost, not the program's: it runs in
at most ``nproc`` worker interpreters before anything is timed.  They are
plain subprocesses (``python3 perfbench/inputs.py``, jobs in and results
out as pickles on stdin/stdout), each waited for before ``render_all``
returns: a ``multiprocessing`` pool would also start a resource-tracker
process that outlives the benchmark until the system reaps it.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

#: Ingest order of the four maps (the order ``IngestDaemon.run`` gets).
MAP_ORDER = ("europe", "north-america", "asia-pacific", "world")

#: The paper's crawl cadence.
CADENCE = timedelta(minutes=5)

#: Inputs are drawn from one summer week of the simulated window, so the
#: network's size is the same for every seed (the simulated backbone
#: grows over the 26 months; spanning them would make stored bytes per
#: file depend on the seed).
WEEK_START = datetime(2022, 6, 6, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Rendered:
    """One input file and the reference it must parse back to."""

    map_value: str
    when: datetime
    svg: bytes
    #: ``(routers, peerings, links)``: sorted name tuples and a sorted
    #: tuple of links, each ``((node, label, load), (node, label, load))``
    #: with its two ends in sorted order (the orientation-blind key).
    reference: tuple


def sim_seed(seed: int) -> int:
    """The simulator configuration seed a benchmark seed selects."""
    return random.Random(seed).randrange(1, 1_000_000)


def week_offset(seed: int, span: timedelta) -> datetime:
    """A seeded start instant inside the input week leaving room for ``span``."""
    slots = int((timedelta(days=7) - span) / CADENCE)
    rng = random.Random(seed * 7919 + 1)
    return WEEK_START + CADENCE * rng.randrange(0, max(1, slots))


def reference_of(snapshot) -> tuple:
    """The comparison key of one snapshot: node sets and the link multiset."""
    routers = tuple(sorted(n.name for n in snapshot.routers))
    peerings = tuple(sorted(n.name for n in snapshot.peerings))
    links = tuple(
        sorted(
            tuple(
                sorted(
                    (
                        (link.a.node, link.a.label, float(link.a.load)),
                        (link.b.node, link.b.label, float(link.b.load)),
                    )
                )
            )
            for link in snapshot.links
        )
    )
    return routers, peerings, links


def _render_job(job: tuple[str, int, list[datetime]]) -> list[Rendered]:
    """Render one map's instants in order with one simulator + renderer."""
    from repro.constants import MapName
    from repro.layout.renderer import MapRenderer
    from repro.simulation.config import default_config
    from repro.simulation.network import BackboneSimulator

    map_value, config_seed, instants = job
    map_name = MapName(map_value)
    simulator = BackboneSimulator(default_config(config_seed))
    renderer = MapRenderer()
    out = []
    for when in instants:
        snapshot = simulator.snapshot(map_name, when)
        svg = renderer.render(snapshot).encode("utf-8")
        out.append(Rendered(map_value, when, svg, reference_of(snapshot)))
    return out


#: Rough per-file render cost per map, relative; used only to order the
#: jobs so the pool finishes together.
_COST = {"europe": 10, "north-america": 7, "asia-pacific": 1, "world": 1}


def render_all(
    plan: dict[str, list[datetime]], seed: int, workers: int
) -> dict[tuple[str, datetime], Rendered]:
    """Render every ``(map, instant)`` of ``plan`` in worker interpreters."""
    config_seed = sim_seed(seed)
    jobs: list[tuple[str, int, list[datetime]]] = []
    for map_value, instants in plan.items():
        # Chunks keep the workers busy; within a chunk the layout is stable.
        step = max(1, (len(instants) + 1) // 2 if _COST[map_value] > 1 else len(instants))
        for lo in range(0, len(instants), step):
            jobs.append((map_value, config_seed, instants[lo : lo + step]))
    jobs.sort(key=lambda job: -_COST[job[0]] * len(job[2]))
    # Longest job first to the least-loaded worker.
    shares: list[list] = [[] for _ in range(max(1, min(workers, len(jobs))))]
    loads = [0] * len(shares)
    for job in jobs:
        k = loads.index(min(loads))
        shares[k].append(job)
        loads[k] += _COST[job[0]] * len(job[2])
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    procs: list[subprocess.Popen] = []
    out: dict[tuple[str, datetime], Rendered] = {}
    try:
        for share in shares:
            with signals_held():
                procs.append(
                    subprocess.Popen(
                        [sys.executable, str(here / "inputs.py")],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        env=env,
                        cwd=str(here.parent),
                    )
                )
            proc = procs[-1]
            proc.stdin.write(pickle.dumps(share))
            proc.stdin.close()
        for proc in procs:
            data = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"render worker exited with code {proc.returncode}")
            for item in pickle.loads(data):
                out[(item.map_value, item.when)] = item
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    return out


@contextmanager
def signals_held():
    """Hold SIGTERM and SIGALRM (they stay pending) inside the block.

    Used where a process is started and recorded, or stopped, so the
    handlers' exceptions cannot lose track of a running process.
    """
    held = {signal.SIGTERM, signal.SIGALRM}
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, held)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _worker_main() -> None:
    """Render the pickled jobs on stdin; pickle the results to stdout."""
    jobs = pickle.load(sys.stdin.buffer)
    results = [item for job in jobs for item in _render_job(job)]
    sys.stdout.buffer.write(pickle.dumps(results))
    sys.stdout.buffer.flush()


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


if __name__ == "__main__":
    # Run as a script, this module is ``__main__``; importing it by name
    # makes the results pickle as ``inputs.Rendered``.
    import inputs

    inputs._worker_main()
