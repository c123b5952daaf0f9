"""A program process of the benchmark: the ingest daemon or the read API.

    python3 perfbench/child.py ingest <store> <trace 0|1> <map,map,...>
    python3 perfbench/child.py server <store> <trace 0|1>

Each runs in its own interpreter, so the load generator, the ingest and
the server never share a GIL.  Commands arrive one per line on stdin and
each gets one JSON line on stdout:

``run [R]``  (ingest) ``IngestDaemon(store, IngestConfig()).run(maps)``,
             on the store at ``R`` if given, else on ``<store>``
``mark``     start of the timed phase: later spans and the registry
             delta are what ``dump`` reports
``dump P``   write spans + registry snapshots (traced runs) to ``P``
``exit``     stop (the server shuts down its listener first)
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

now = time.monotonic


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    # Before any thread starts, so every thread of the process inherits it.
    if os.environ.get("PERFBENCH_CPUS"):
        os.sched_setaffinity(0, {int(c) for c in os.environ["PERFBENCH_CPUS"].split(",")})
    kind, root, trace = argv[0], argv[1], argv[2] == "1"
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(kind)
    from repro.dataset.store import open_store
    from repro.telemetry import get_registry

    store = open_store(root)
    server = None
    if kind == "ingest":
        from repro.constants import MapName
        from repro.dataset.ingest import IngestConfig, IngestDaemon

        maps = [MapName(value) for value in argv[3].split(",")]
        reply({"pid": os.getpid()})
    else:
        from repro.server import ServeOptions, create_server

        server = create_server(store, ServeOptions(host="127.0.0.1", port=0))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        reply({"pid": os.getpid(), "port": server.server_address[1]})

    mark_span = 0
    mark_registry = get_registry().snapshot()
    for line in sys.stdin:
        command, _, arg = line.strip().partition(" ")
        if command == "run":
            target = open_store(arg) if arg else store
            start = now()
            stats = IngestDaemon(target, IngestConfig()).run(maps)
            end = now()
            reply(
                {
                    "start": start,
                    "end": end,
                    "processed": stats.processed,
                    "failed": stats.failed,
                }
            )
        elif command == "mark":
            mark_span = len(tracer.spans) if tracer is not None else 0
            mark_registry = get_registry().snapshot()
            reply({"marked": now()})
        elif command == "dump":
            payload = {
                "registry_before": mark_registry,
                "registry_after": get_registry().snapshot(),
            }
            if tracer is not None:
                spans = []
                for name, start, end, parent, rid, extra in tracer.spans[mark_span:]:
                    rebased = parent - mark_span if parent is not None and parent >= mark_span else None
                    spans.append([name, start, end, rebased, rid, extra])
                payload.update(
                    spans=spans, missing=tracer.missing, span_cost=tracer.span_cost()
                )
            with open(arg, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            reply({"dumped": arg})
        elif command == "exit":
            break
    if server is not None:
        server.shutdown()
        server.server_close()
    reply({"bye": True})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
