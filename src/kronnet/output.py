"""Serialization for networks, traces, and reports.

Edge lists are tab-separated ``row<TAB>col`` lines, zero-indexed, sorted by
(row, col), with no header.  They are formatted and written in bounded
chunks of edges, which changes no byte of the output.  Traces serialize to
JSON with one object per sweep level.  All writers produce byte-identical
output for identical inputs.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

import numpy as np

from .samplers import SampledNetwork, SampleTrace


# Edges formatted per write: bounds the writer's scratch memory to a few MB.
_CHUNK_EDGES = 1 << 16
_SEPARATORS = np.array([ord("\t"), ord("\n")], dtype=np.uint8)


def write_edgelist(net: SampledNetwork, stream: TextIO) -> None:
    """Write one ``row\\tcol\\n`` line per edge, in stored (sorted) order.

    Edges go out in chunks of at most ``_CHUNK_EDGES``, each formatted as one
    byte array, so the text is that of a per-edge ``f"{row}\\t{col}\\n"``
    loop and extra memory stays bounded by the chunk.
    """
    edges = net.edges
    for start in range(0, edges.shape[0], _CHUNK_EDGES):
        stream.write(_format_chunk(edges[start : start + _CHUNK_EDGES]))


def _format_chunk(chunk: np.ndarray) -> str:
    """Decimal ``row\\tcol\\n`` lines of a non-empty ``(m, 2)`` id array."""
    width = len(str(int(chunk.max())))
    # Byte (line, column, slot): ``width`` digit slots, then the separator.
    # A digit slot is dropped when it and every slot left of it hold 0; the
    # last digit always stays, so 0 prints as "0".
    text = np.empty((chunk.shape[0], 2, width + 1), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    values = chunk
    for pos in range(width - 1, 0, -1):
        values, text[:, :, pos] = np.divmod(values, 10)
        keep[:, :, pos - 1] = values > 0
    text[:, :, 0] = values  # below 10: width is the largest id's digit count
    text += ord("0")
    text[:, :, width] = _SEPARATORS
    return text[keep].tobytes().decode("ascii")


def save_edgelist(net: SampledNetwork, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_edgelist(net, handle)


def trace_to_dict(trace: SampleTrace) -> dict[str, Any]:
    """JSON-ready view of a trace; levels keyed as ``lambda`` 0..K-ell."""
    return {
        "seed": trace.seed,
        "strategy": trace.strategy.value,
        "per_level": [
            {
                "lambda": entry.level,
                "examined": entry.rvs_examined,
                "active": entry.rvs_active,
            }
            for entry in trace.per_level
        ],
    }


def dump_json(payload: Any, stream: TextIO) -> None:
    """Write compact deterministic JSON with a trailing newline."""
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def save_json(payload: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        dump_json(payload, handle)


def format_table(headers: list[str], rows: list[list[Any]]) -> str:
    """Render a left-aligned plain-text table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(name) for name in headers]
    for row in cells:
        for idx, value in enumerate(row):
            widths[idx] = max(widths[idx], len(value))
    def fmt(row: list[str]) -> str:
        return "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines) + "\n"
