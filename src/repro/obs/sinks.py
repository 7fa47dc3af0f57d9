"""Trace serialization: JSONL event stream + Chrome trace-event export.

Two formats, two audiences:

* **JSONL** (``format`` stamp ``repro.trace/1``) is the archival/diff
  format: line 1 is a header object (format stamp, pid, worker id,
  final counters, histograms), every further line one event dict
  exactly as the tracer recorded it.  :func:`read_jsonl` round-trips
  it; :mod:`repro.obs.summary` consumes it.
* **Chrome trace-event JSON** is the *viewing* format: open the file in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Wall
  spans become complete (``"ph": "X"``) events on thread
  ``worker-<tid>``; lane spans (mesh-step time base) each get their own
  named thread so the protocol's stage structure renders proportionally
  to its charged mesh-step cost; counters become ``"ph": "C"`` counter
  tracks.

Both writers go through :func:`repro.util.write_text_atomic` — a
crashed recorder leaves either no file or a complete one.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.util.fsio import write_text_atomic

__all__ = [
    "TRACE_FORMAT",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

TRACE_FORMAT = "repro.trace/1"

#: tid offset for lane (mesh-step) tracks in the Chrome export; worker
#: (wall-time) tids sit below this.
_LANE_TID_BASE = 1000


def _header(tracer) -> dict:
    return {
        "format": TRACE_FORMAT,
        "pid": getattr(tracer, "pid", 0),
        "worker": getattr(tracer, "worker", 0),
        "counters": dict(tracer.counters),
        "histograms": {
            name: [int(x) for x in bins]
            for name, bins in tracer.histograms.items()
        },
    }


def write_jsonl(tracer, path: str | Path) -> Path:
    """Serialize a recorded trace to JSONL (atomic); returns the path."""
    lines = [json.dumps(_header(tracer))]
    lines.extend(json.dumps(event) for event in tracer.events)
    path = Path(path)
    write_text_atomic(path, "\n".join(lines) + "\n")
    return path


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """Load ``(header, events)`` from a JSONL trace; validates the stamp."""
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty trace file: {path}")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"unsupported trace format {header.get('format')!r} in {path} "
            f"(expected {TRACE_FORMAT!r})"
        )
    return header, [json.loads(line) for line in lines[1:]]


def chrome_trace_events(events, *, header: dict | None = None) -> list[dict]:
    """Convert tracer/JSONL events to Chrome trace-event dicts."""
    pid = (header or {}).get("pid", 0)
    out: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "args": {"name": "repro"},
        }
    ]
    lane_tids: dict[str, int] = {}
    worker_tids: set[int] = set()
    for ev in events:
        if ev["type"] == "span":
            lane = ev.get("lane")
            if lane is not None:
                tid = lane_tids.get(lane)
                if tid is None:
                    tid = _LANE_TID_BASE + len(lane_tids)
                    lane_tids[lane] = tid
                    out.append(
                        {
                            "ph": "M",
                            "name": "thread_name",
                            "pid": pid,
                            "tid": tid,
                            "args": {"name": f"lane:{lane} (mesh steps)"},
                        }
                    )
            else:
                tid = int(ev.get("tid", 0))
                if tid not in worker_tids:
                    worker_tids.add(tid)
                    out.append(
                        {
                            "ph": "M",
                            "name": "thread_name",
                            "pid": pid,
                            "tid": tid,
                            "args": {"name": f"worker-{tid}"},
                        }
                    )
            out.append(
                {
                    "ph": "X",
                    "name": ev["name"],
                    "cat": "lane" if lane is not None else "wall",
                    "pid": pid,
                    "tid": tid,
                    "ts": float(ev["ts"]),
                    "dur": float(ev["dur"]),
                    "args": ev.get("args", {}),
                }
            )
        elif ev["type"] == "counter":
            out.append(
                {
                    "ph": "C",
                    "name": ev["name"],
                    "pid": pid,
                    "tid": int(ev.get("tid", 0)),
                    "ts": float(ev["ts"]),
                    "args": {"value": ev["value"]},
                }
            )
    return out


def write_chrome_trace(
    source, path: str | Path, *, header: dict | None = None
) -> Path:
    """Export a trace for Perfetto/``chrome://tracing`` (atomic).

    ``source`` is either a tracer (header derived automatically) or an
    event list (pass the JSONL ``header`` alongside, if available).
    """
    if hasattr(source, "events"):
        events = source.events
        header = _header(source)
    else:
        events = list(source)
    payload = {
        "traceEvents": chrome_trace_events(events, header=header),
        "displayTimeUnit": "ms",
        "otherData": {"format": TRACE_FORMAT, **(header or {})},
    }
    path = Path(path)
    write_text_atomic(path, json.dumps(payload) + "\n")
    return path
