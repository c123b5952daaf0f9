"""Reference answers computed apart from the program.

The stored YAML is read with PyYAML's own safe loader (the C one when
libyaml is present), never through ``repro.yamlio``, and every HTTP body
the benchmark checks is compared with a brute-force answer computed here
from those documents.  Nothing in this module imports the program.
"""

from __future__ import annotations

import bisect
import json
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import yaml

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: The server's defaults, restated: the active-load floor of the
#: imbalance summary and its reported thresholds.
MINIMUM_ACTIVE_LOAD = 2.0
IMBALANCE_THRESHOLDS = (5.0, 10.0, 25.0)


@dataclass
class Snap:
    """One stored snapshot as plain values."""

    when: datetime
    routers: tuple
    peerings: tuple
    #: ``(node_a, label_a, load_a, node_b, label_b, load_b)`` in file order.
    links: list


def _utc(text: str) -> datetime:
    when = datetime.fromisoformat(text)
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when.astimezone(timezone.utc)


def load_store(root: Path, maps) -> dict[str, list[Snap]]:
    """Every YAML document under ``root``, per map, in time order."""
    out: dict[str, list[Snap]] = {}
    for map_value in maps:
        snaps = []
        for path in sorted((root / map_value / "yaml").rglob("*.yaml")):
            doc = yaml.load(path.read_bytes(), Loader=_Loader)
            if doc.get("map") != map_value:
                raise AssertionError(f"{path.name}: map {doc.get('map')!r}")
            links = [
                (
                    link["a"]["node"], link["a"]["label"], float(link["a"]["load"]),
                    link["b"]["node"], link["b"]["label"], float(link["b"]["load"]),
                )
                for link in doc.get("links") or []
            ]
            snaps.append(
                Snap(
                    when=_utc(str(doc["timestamp"])),
                    routers=tuple(sorted(doc.get("routers") or [])),
                    peerings=tuple(sorted(doc.get("peerings") or [])),
                    links=links,
                )
            )
        snaps.sort(key=lambda snap: snap.when)
        out[map_value] = snaps
    return out


def signature(snap: Snap) -> tuple:
    """Node sets and the orientation-blind link multiset of one snapshot."""
    links = tuple(
        sorted(tuple(sorted(((a, la, xa), (b, lb, xb)))) for a, la, xa, b, lb, xb in snap.links)
    )
    return snap.routers, snap.peerings, links


def bad_loads(snap: Snap) -> int:
    """Loads outside ``[0, 100]``."""
    return sum(
        1 for link in snap.links for load in (link[2], link[5]) if not 0.0 <= load <= 100.0
    )


class Archive:
    """Brute-force answers to the read API over one map's snapshots."""

    def __init__(self, snaps: list[Snap]) -> None:
        self.snaps = snaps
        self.epochs = [int(snap.when.timestamp()) for snap in snaps]

    def window(self, start: int | None, end: int | None) -> list[Snap]:
        lo = 0 if start is None else bisect.bisect_left(self.epochs, start)
        hi = len(self.snaps) if end is None else bisect.bisect_left(self.epochs, end)
        return self.snaps[lo:hi]

    def snapshot(self, at: int | None) -> Snap | None:
        hi = len(self.snaps) if at is None else bisect.bisect_right(self.epochs, at)
        return self.snaps[hi - 1] if hi else None


def _iso_epoch(text: str) -> int:
    return int(_utc(text).timestamp())


def check_snapshot(body: dict, archive: Archive, at: int | None) -> str | None:
    snap = archive.snapshot(at)
    if snap is None:
        return "reference has no snapshot"
    if _iso_epoch(body["timestamp"]) != int(snap.when.timestamp()):
        return f"timestamp {body['timestamp']} != {snap.when.isoformat()}"
    if tuple(sorted(body["routers"])) != snap.routers:
        return "routers differ"
    if tuple(sorted(body["peerings"])) != snap.peerings:
        return "peerings differ"
    got = Counter(
        tuple(sorted(((l["node_a"], l["label_a"], float(l["load_a"])),
                      (l["node_b"], l["label_b"], float(l["load_b"])))))
        for l in body["links"]
    )
    want = Counter(
        tuple(sorted(((a, la, xa), (b, lb, xb)))) for a, la, xa, b, lb, xb in snap.links
    )
    return None if got == want else "links differ"


def series_points(archive: Archive, a: str, b: str, start, end) -> list[tuple]:
    points = []
    for snap in archive.window(start, end):
        epoch = int(snap.when.timestamp())
        for na, _, xa, nb, _, xb in snap.links:
            if (na, nb) == (a, b):
                points.append((epoch, xa, xb))
            elif (na, nb) == (b, a):
                points.append((epoch, xb, xa))
    return sorted(points)


def check_series(body: dict, archive: Archive, a: str, b: str, start, end) -> str | None:
    if body["link"] != {"a": a, "b": b}:
        return "link echo differs"
    got = sorted((_iso_epoch(p["time"]), float(p["a_to_b"]), float(p["b_to_a"])) for p in body["points"])
    want = series_points(archive, a, b, start, end)
    return None if got == want else f"series: {len(got)} points != {len(want)} expected"


def imbalance_values(snap: Snap, minimum: float) -> tuple[list[float], list[float]]:
    """Per node-pair group and direction: spread of the active loads."""
    peerings = set(snap.peerings)
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for na, _, xa, nb, _, xb in snap.links:
        if na <= nb:
            groups.setdefault((na, nb), []).append((xa, xb))
        else:
            groups.setdefault((nb, na), []).append((xb, xa))
    internal: list[float] = []
    external: list[float] = []
    for (left, right), loads in groups.items():
        bucket = external if left in peerings or right in peerings else internal
        for direction in (0, 1):
            active = [pair[direction] for pair in loads if pair[direction] >= minimum]
            if len(active) >= 2:
                bucket.append(max(active) - min(active))
    return internal, external


def check_imbalance(body: dict, archive: Archive, start, end) -> str | None:
    internal: list[float] = []
    external: list[float] = []
    for snap in archive.window(start, end):
        i, e = imbalance_values(snap, MINIMUM_ACTIVE_LOAD)
        internal.extend(i)
        external.extend(e)
    for name, values in (("internal", internal), ("external", external)):
        got = body[name]
        if got["count"] != len(values):
            return f"imbalance {name} count {got['count']} != {len(values)}"
        if values:
            if got["max"] != max(values):
                return f"imbalance {name} max {got['max']} != {max(values)}"
            if abs(got["mean"] - sum(values) / len(values)) > 1e-9 * max(1.0, abs(got["mean"])):
                return f"imbalance {name} mean differs"
            for threshold in IMBALANCE_THRESHOLDS:
                share = sum(1 for v in values if v <= threshold) / len(values)
                if abs(got["fraction_within"][str(threshold)] - share) > 1e-12:
                    return f"imbalance {name} fraction_within {threshold} differs"
    return None


def check_evolution(body: dict, archive: Archive, start, end) -> str | None:
    snaps = archive.window(start, end)
    times = [int(snap.when.timestamp()) for snap in snaps]
    want = {
        "routers": [float(len(snap.routers)) for snap in snaps],
        "external_links": [
            float(sum(1 for l in snap.links if l[0] in snap.peerings or l[3] in snap.peerings))
            for snap in snaps
        ],
    }
    want["internal_links"] = [
        float(len(snap.links)) - ext for snap, ext in zip(snaps, want["external_links"])
    ]
    for name, values in want.items():
        got = body[name]
        if [_iso_epoch(t) for t in got["times"]] != times:
            return f"evolution {name} times differ"
        if [float(v) for v in got["values"]] != values:
            return f"evolution {name} counts differ"
    return None


def check_maps(body: dict, archives: dict[str, Archive]) -> str | None:
    listed = {entry["name"]: entry for entry in body["maps"]}
    for map_value, archive in archives.items():
        entry = listed.get(map_value)
        if entry is None:
            return f"/v1/maps lacks {map_value}"
        if entry["snapshots"] != len(archive.snaps):
            return f"{map_value}: {entry['snapshots']} rows != {len(archive.snaps)} files"
        if _iso_epoch(entry["last"]) != archive.epochs[-1] or _iso_epoch(entry["first"]) != archive.epochs[0]:
            return f"{map_value}: extent differs"
    return None


def check_body(url: str, body: bytes, archives: dict[str, Archive]) -> str | None:
    """Compare one ``/v1`` response body with its brute-force answer."""
    from urllib.parse import parse_qs, urlsplit

    parts = urlsplit(url)
    params = {k: v[0] for k, v in parse_qs(parts.query).items()}
    payload = json.loads(body)
    segments = parts.path.strip("/").split("/")
    if segments == ["v1", "maps"]:
        return check_maps(payload, archives)
    map_value, view = segments[2], segments[3]
    archive = archives[map_value]
    if payload.get("map") != map_value:
        return f"map echo {payload.get('map')!r} != {map_value!r}"
    start = int(params["start"]) if "start" in params else None
    end = int(params["end"]) if "end" in params else None
    if view == "snapshot":
        return check_snapshot(payload, archive, int(params["at"]) if "at" in params else None)
    if view == "series":
        a, _, b = params["link"].partition(":")
        return check_series(payload, archive, a, b, start, end)
    if view == "imbalance":
        return check_imbalance(payload, archive, start, end)
    if view == "evolution":
        return check_evolution(payload, archive, start, end)
    return f"no reference for {parts.path}"
