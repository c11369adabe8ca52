"""Model configuration: seed matrix, level counts, and edge-direction modes.

A model is described by a square seed matrix of cell probabilities, a total
level count ``levels`` (the Kronecker power), and ``untied_levels`` giving how
many of those levels are sampled from the dense product matrix before
parameter tying begins.  ``untied_levels == levels`` recovers the plain
(untied) model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import BadArgs, BadConfig, BadLevels, EntryOutOfRange, Overflow

U64_MAX = 2**64 - 1
I64_MAX = 2**63 - 1

# Dense enumerations (probability matrices, per-cell sweeps) refuse to
# materialize more than this many entries unless the caller raises the cap.
DEFAULT_DENSE_CAP = 1 << 26


def check_int(value: Any, name: str) -> int:
    """An integer argument as a Python int.

    Python and numpy integers pass; bools, floats, strings and everything
    else raise ``BadArgs`` rather than being truncated or parsed.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise BadArgs(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ThetaMatrix:
    """Square matrix of per-cell probabilities, immutable after construction.

    Attributes:
        entries: float64 array of shape (side, side), C-order, read-only.

    Raises:
        BadConfig: the rows are not a numeric square matrix of side >= 2.
        EntryOutOfRange: some entry is outside [0, 1].
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.ascontiguousarray(np.asarray(self.entries, dtype=np.float64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadConfig(f"seed matrix is not numeric and rectangular: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise BadConfig(f"seed matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise BadConfig(f"seed matrix side must be >= 2, got {arr.shape[0]}")
        in_range = (arr >= 0.0) & (arr <= 1.0)  # false for NaN
        if not in_range.all():
            bad = arr[~in_range][0]
            raise EntryOutOfRange(f"seed entry {bad!r} outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThetaMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    __hash__ = None

    @property
    def side(self) -> int:
        return int(self.entries.shape[0])

    @property
    def mass(self) -> float:
        """Sum of all entries; drives expected active counts per level."""
        return float(self.entries.sum())

    @property
    def flat(self) -> np.ndarray:
        """Entries in row-major order, shape (side * side,)."""
        return self.entries.reshape(-1)


@dataclass(frozen=True)
class ModelConfig:
    """Full generative-model description.

    Attributes:
        theta: seed probability matrix.
        levels: total Kronecker levels (network has side**levels nodes).
        untied_levels: levels sampled jointly from the dense product matrix;
            the remaining ``levels - untied_levels`` levels share parameters.
        directed: undirected mode keeps only edges with row < col.
        self_loops: in directed mode, whether diagonal cells are retained.

    Every instance is valid: construction, ``dataclasses.replace`` included,
    checks the invariants below, so no consumer re-checks them.

    Raises:
        BadConfig: theta is not a :class:`ThetaMatrix`, or a mode flag is
            not a bool.
        BadLevels: level counts are not integers (booleans included) or
            violate 1 <= untied_levels <= levels.
        Overflow: side**levels is not representable in 64 bits.
    """

    theta: ThetaMatrix
    levels: int
    untied_levels: int
    directed: bool = True
    self_loops: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.theta, ThetaMatrix):
            raise BadConfig("theta must be a ThetaMatrix")
        if not (isinstance(self.directed, bool) and isinstance(self.self_loops, bool)):
            raise BadConfig("directed and self_loops must be booleans")
        if not (_is_int(self.levels) and _is_int(self.untied_levels)):
            raise BadLevels("levels and untied_levels must be integers")
        if self.levels < 1 or self.untied_levels < 1 or self.untied_levels > self.levels:
            raise BadLevels(
                f"need 1 <= untied_levels <= levels, got untied_levels={self.untied_levels} levels={self.levels}"
            )
        # side >= 2, so more than 64 levels overflows without the power
        if self.levels > 64 or self.theta.side**self.levels > U64_MAX:
            raise Overflow(
                f"side**levels = {self.theta.side}**{self.levels} exceeds the 64-bit node range"
            )

    @property
    def b(self) -> int:
        return self.theta.side

    @property
    def n_nodes(self) -> int:
        """Node count side**levels as an exact Python integer."""
        return self.theta.side**self.levels

    @property
    def tied_levels(self) -> int:
        return self.levels - self.untied_levels


def make_config(
    theta_rows: Any,
    levels: int,
    untied_levels: int,
    *,
    directed: bool = True,
    self_loops: bool = True,
) -> ModelConfig:
    """Build a config from plain rows in one call."""
    return ModelConfig(
        theta=ThetaMatrix(theta_rows),
        levels=levels,
        untied_levels=untied_levels,
        directed=directed,
        self_loops=self_loops,
    )


# JSON field names are a fixed external contract; do not rename.
_JSON_FIELDS = ("b", "theta", "K", "ell", "directed", "self_loops")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(data: Mapping[str, Any], key: str) -> int:
    value = data[key]
    if not _is_int(value):
        raise BadConfig(f"{key} must be an integer, got {value!r}")
    return value


def _bool_field(data: Mapping[str, Any], key: str) -> bool:
    value = data.get(key, True)
    if not isinstance(value, bool):
        raise BadConfig(f"{key} must be true or false, got {value!r}")
    return value


def _theta_field(data: Mapping[str, Any]) -> ThetaMatrix:
    rows = data["theta"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise BadConfig(f"theta must be a list of rows, got {rows!r}")
    for row in rows:
        for value in row:
            if not (_is_int(value) or isinstance(value, float)):
                raise BadConfig(f"theta entries must be numbers, got {value!r}")
    return ThetaMatrix(rows)


def config_from_dict(data: Mapping[str, Any]) -> ModelConfig:
    """Parse the JSON object form of a config.

    Required keys: "b", "K", "ell" with integer values (booleans and floats
    are rejected, not coerced) and "theta", a list of rows of numbers
    (booleans, strings and nulls are rejected).  Optional: "directed",
    "self_loops", booleans that default to true.
    """
    unknown = set(data) - set(_JSON_FIELDS)
    if unknown:
        raise BadConfig(f"unknown config keys: {sorted(unknown)}")
    for key in ("b", "theta", "K", "ell"):
        if key not in data:
            raise BadConfig(f"config missing required key {key!r}")
    theta = _theta_field(data)
    b = _int_field(data, "b")
    if theta.side != b:
        raise BadConfig(f"declared b={b} does not match theta side {theta.side}")
    return ModelConfig(
        theta=theta,
        levels=_int_field(data, "K"),
        untied_levels=_int_field(data, "ell"),
        directed=_bool_field(data, "directed"),
        self_loops=_bool_field(data, "self_loops"),
    )


def config_to_dict(cfg: ModelConfig) -> dict[str, Any]:
    return {
        "b": cfg.theta.side,
        "theta": cfg.theta.entries.tolist(),
        "K": cfg.levels,
        "ell": cfg.untied_levels,
        "directed": cfg.directed,
        "self_loops": cfg.self_loops,
    }


def load_config(path: str | Path) -> ModelConfig:
    """Read a config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BadConfig(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadConfig(f"{path}: config must be a JSON object")
    return config_from_dict(data)
