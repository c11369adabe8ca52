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

from .errors import BadConfig, BadLevels, EntryOutOfRange, Overflow

U64_MAX = 2**64 - 1
I64_MAX = 2**63 - 1

# Dense enumerations (probability matrices, per-cell sweeps) refuse to
# materialize more than this many entries unless the caller raises the cap.
DEFAULT_DENSE_CAP = 1 << 26


@dataclass(frozen=True)
class ThetaMatrix:
    """Square matrix of per-cell probabilities, immutable after construction.

    Attributes:
        entries: float64 array of shape (side, side), C-order, read-only.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.ascontiguousarray(np.asarray(self.entries, dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise BadConfig(f"seed matrix is not numeric and rectangular: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise BadConfig(f"seed matrix must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThetaMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    __hash__ = None

    @classmethod
    def from_rows(cls, rows: Any) -> "ThetaMatrix":
        return cls(rows)

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
    """

    theta: ThetaMatrix
    levels: int
    untied_levels: int
    directed: bool = True
    self_loops: bool = True

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


def validate_config(cfg: ModelConfig) -> ModelConfig:
    """Check every invariant; return ``cfg`` unchanged if all hold.

    Raises:
        EntryOutOfRange: some probability entry is outside [0, 1].
        BadLevels: level counts violate 1 <= untied_levels <= levels.
        Overflow: side**levels is not representable in 64 bits.
        BadConfig: structural problems (non-square matrix, side < 2).
    """
    if not isinstance(cfg.theta, ThetaMatrix):
        raise BadConfig("theta must be a ThetaMatrix")
    if cfg.theta.side < 2:
        raise BadConfig(f"seed matrix side must be >= 2, got {cfg.theta.side}")
    ent = cfg.theta.entries
    if np.isnan(ent).any() or (ent < 0.0).any() or (ent > 1.0).any():
        bad = ent[~((ent >= 0.0) & (ent <= 1.0))][0]
        raise EntryOutOfRange(f"seed entry {bad!r} outside [0, 1]")
    if not isinstance(cfg.levels, int) or not isinstance(cfg.untied_levels, int):
        raise BadLevels("levels and untied_levels must be integers")
    if cfg.levels < 1 or cfg.untied_levels < 1 or cfg.untied_levels > cfg.levels:
        raise BadLevels(
            f"need 1 <= untied_levels <= levels, got untied_levels={cfg.untied_levels} levels={cfg.levels}"
        )
    if cfg.theta.side**cfg.levels > U64_MAX:
        raise Overflow(
            f"side**levels = {cfg.theta.side}**{cfg.levels} exceeds the 64-bit node range"
        )
    return cfg


def make_config(
    theta_rows: Any,
    levels: int,
    untied_levels: int,
    *,
    directed: bool = True,
    self_loops: bool = True,
) -> ModelConfig:
    """Build and validate a config in one call."""
    cfg = ModelConfig(
        theta=ThetaMatrix.from_rows(theta_rows),
        levels=levels,
        untied_levels=untied_levels,
        directed=directed,
        self_loops=self_loops,
    )
    return validate_config(cfg)


# JSON field names are a fixed external contract; do not rename.
_JSON_FIELDS = ("b", "theta", "K", "ell", "directed", "self_loops")


def _int_field(data: Mapping[str, Any], key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadConfig(f"{key} must be an integer, got {value!r}")
    return value


def _bool_field(data: Mapping[str, Any], key: str) -> bool:
    value = data.get(key, True)
    if not isinstance(value, bool):
        raise BadConfig(f"{key} must be true or false, got {value!r}")
    return value


def config_from_dict(data: Mapping[str, Any]) -> ModelConfig:
    """Parse the JSON object form of a config.

    Required keys: "b", "theta", "K", "ell", with integer values (booleans
    and floats are rejected, not coerced).  Optional: "directed",
    "self_loops", booleans that default to true.
    """
    unknown = set(data) - set(_JSON_FIELDS)
    if unknown:
        raise BadConfig(f"unknown config keys: {sorted(unknown)}")
    for key in ("b", "theta", "K", "ell"):
        if key not in data:
            raise BadConfig(f"config missing required key {key!r}")
    try:
        theta = ThetaMatrix.from_rows(data["theta"])
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"theta is not a numeric matrix: {exc}") from exc
    b = _int_field(data, "b")
    if theta.side != b:
        raise BadConfig(f"declared b={b} does not match theta side {theta.side}")
    cfg = ModelConfig(
        theta=theta,
        levels=_int_field(data, "K"),
        untied_levels=_int_field(data, "ell"),
        directed=_bool_field(data, "directed"),
        self_loops=_bool_field(data, "self_loops"),
    )
    return validate_config(cfg)


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
    except json.JSONDecodeError as exc:
        raise BadConfig(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadConfig(f"{path}: config must be a JSON object")
    return config_from_dict(data)
