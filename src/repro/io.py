"""Configuration and result serialization (JSON).

Experiments must be exactly reproducible: a scheme is fully determined
by ``(n, alpha, q, k, curve)`` plus the library version, and an access
result's accounting is a plain tree of numbers.  These helpers
round-trip both through JSON so runs can be archived and re-created.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.hmos.scheme import HMOS
from repro.protocol.access import AccessResult
from repro.util.fsio import write_text_atomic

__all__ = [
    "ACCESS_RESULT_FORMAT",
    "scheme_to_config",
    "scheme_from_config",
    "save_config",
    "load_config",
    "access_result_to_dict",
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

    The payload is plain JSON data stamped ``repro.access/1``.
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
