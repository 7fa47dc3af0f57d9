"""Configuration and result serialization (JSON).

Experiments must be exactly reproducible: a scheme is fully determined
by ``(n, alpha, q, k, curve)`` plus the library version, and an access
result's accounting is a plain tree of numbers.  These helpers
round-trip both through JSON so runs can be archived and re-created.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.hmos.scheme import HMOS
from repro.protocol.access import AccessResult
from repro.util.fsio import write_text_atomic

__all__ = [
    "ACCESS_RESULT_FORMAT",
    "AccessRecord",
    "CullingIterationRecord",
    "StageRecord",
    "scheme_to_config",
    "scheme_from_config",
    "save_config",
    "load_config",
    "access_result_to_dict",
    "access_result_from_dict",
]

#: Format stamp of the flattened access-result archive schema.
ACCESS_RESULT_FORMAT = "repro.access/1"


def scheme_to_config(scheme: HMOS) -> dict[str, Any]:
    """The complete recipe for rebuilding ``scheme``."""
    import repro

    p = scheme.params
    return {
        "format": "repro.hmos/1",
        "version": repro.__version__,
        "n": p.n,
        "alpha": p.alpha,
        "q": p.q,
        "k": p.k,
        "curve": scheme.mesh.curve,
        # Derived values, stored for integrity checking on load:
        "derived": {
            "d": list(p.d),
            "m": list(p.m),
            "num_variables": p.num_variables,
            "redundancy": p.redundancy,
        },
    }


def scheme_from_config(config: dict[str, Any]) -> HMOS:
    """Rebuild a scheme; verifies the derived structure still matches.

    A mismatch means the construction changed between versions — the
    archived results would not be comparable, so loading fails loudly.
    """
    if config.get("format") != "repro.hmos/1":
        raise ValueError(f"unsupported config format {config.get('format')!r}")
    scheme = HMOS(
        n=config["n"],
        alpha=config["alpha"],
        q=config["q"],
        k=config["k"],
        curve=config.get("curve", "morton"),
    )
    derived = config.get("derived")
    if derived is not None:
        p = scheme.params
        current = {
            "d": list(p.d),
            "m": list(p.m),
            "num_variables": p.num_variables,
            "redundancy": p.redundancy,
        }
        if current != derived:
            raise ValueError(
                "archived config's derived structure does not match this "
                f"version's construction: {derived} != {current}"
            )
    return scheme


def save_config(scheme: HMOS, path: str | Path) -> None:
    """Write the scheme's JSON recipe to ``path`` (atomically).

    The write goes through temp-file + ``os.replace``, so a crash
    mid-write can never leave a truncated, unparseable recipe behind.
    """
    write_text_atomic(path, json.dumps(scheme_to_config(scheme), indent=2) + "\n")


def load_config(path: str | Path) -> HMOS:
    """Rebuild a scheme from a JSON recipe file."""
    return scheme_from_config(json.loads(Path(path).read_text()))


def access_result_to_dict(result: AccessResult) -> dict[str, Any]:
    """Flatten one step's accounting for logging/archival.

    The payload is stamped ``repro.access/1`` and round-trips through
    :func:`access_result_from_dict`.
    """
    return {
        "format": ACCESS_RESULT_FORMAT,
        "op": result.op,
        "requests": int(result.variables.size),
        "total_steps": float(result.total_steps),
        "culling_steps": float(result.culling.charged_steps),
        "return_steps": float(result.return_steps),
        "selected_copies": int(result.culling.total_selected),
        "reassigned": len(result.reassignments),
        "stages": [
            {
                "stage": s.stage,
                "t_nodes": s.t_nodes,
                "delta_in": s.delta_in,
                "delta_out": s.delta_out,
                "sort_steps": float(s.sort_steps),
                "route_steps": float(s.route_steps),
            }
            for s in result.stages
        ],
        "culling_iterations": [
            {
                "level": it.level,
                "cap": it.cap,
                "marked": it.marked,
                "max_page_load": it.max_page_load,
            }
            for it in result.culling.iterations
        ],
    }


@dataclass(frozen=True)
class StageRecord:
    """Archived accounting of one routing stage (mirrors ``StageMetrics``)."""

    stage: int
    t_nodes: int
    delta_in: int
    delta_out: int
    sort_steps: float
    route_steps: float


@dataclass(frozen=True)
class CullingIterationRecord:
    """Archived per-level CULLING diagnostics."""

    level: int
    cap: int
    marked: int
    max_page_load: int


@dataclass(frozen=True)
class AccessRecord:
    """A loaded ``repro.access/1`` archive entry.

    The accounting view of one :class:`AccessResult` — everything
    :func:`access_result_to_dict` flattens, minus the live arrays —
    reconstructed so archived runs can be analyzed without replaying
    them.  ``to_dict`` reproduces the archived payload bit-identically.
    """

    op: str
    requests: int
    total_steps: float
    culling_steps: float
    return_steps: float
    selected_copies: int
    stages: tuple[StageRecord, ...]
    culling_iterations: tuple[CullingIterationRecord, ...]
    #: Requests served by a proxy because their processor was dead
    #: (0 in archives written before the degraded-mode extension).
    reassigned: int = 0

    @property
    def protocol_steps(self) -> float:
        """Forward + return routing cost (matches ``AccessResult``)."""
        return (
            sum(s.sort_steps + s.route_steps for s in self.stages)
            + self.return_steps
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": ACCESS_RESULT_FORMAT,
            "op": self.op,
            "requests": self.requests,
            "total_steps": self.total_steps,
            "culling_steps": self.culling_steps,
            "return_steps": self.return_steps,
            "selected_copies": self.selected_copies,
            "reassigned": self.reassigned,
            "stages": [asdict(s) for s in self.stages],
            "culling_iterations": [asdict(it) for it in self.culling_iterations],
        }


def access_result_from_dict(data: dict[str, Any]) -> AccessRecord:
    """Load an archived access result; validates the format stamp.

    Raises ``ValueError`` on a missing/unsupported stamp or a payload
    that does not match the ``repro.access/1`` schema — an archive
    written by a different construction must fail loudly, exactly like
    :func:`scheme_from_config`.
    """
    if data.get("format") != ACCESS_RESULT_FORMAT:
        raise ValueError(
            f"unsupported access-result format {data.get('format')!r} "
            f"(expected {ACCESS_RESULT_FORMAT!r})"
        )
    try:
        return AccessRecord(
            op=str(data["op"]),
            requests=int(data["requests"]),
            total_steps=float(data["total_steps"]),
            culling_steps=float(data["culling_steps"]),
            return_steps=float(data["return_steps"]),
            selected_copies=int(data["selected_copies"]),
            reassigned=int(data.get("reassigned", 0)),
            stages=tuple(
                StageRecord(
                    stage=int(s["stage"]),
                    t_nodes=int(s["t_nodes"]),
                    delta_in=int(s["delta_in"]),
                    delta_out=int(s["delta_out"]),
                    sort_steps=float(s["sort_steps"]),
                    route_steps=float(s["route_steps"]),
                )
                for s in data["stages"]
            ),
            culling_iterations=tuple(
                CullingIterationRecord(
                    level=int(it["level"]),
                    cap=int(it["cap"]),
                    marked=int(it["marked"]),
                    max_page_load=int(it["max_page_load"]),
                )
                for it in data["culling_iterations"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"malformed {ACCESS_RESULT_FORMAT} payload: {exc!r}"
        ) from exc
