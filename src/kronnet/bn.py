"""Explicit Bayesian-network view of the tied-level sampling process.

Every candidate cell of every level is one binary node.  Level-0 nodes are
roots carrying their dense untied-stage probability as a prior; each deeper
node has exactly one parent (the cell it refines) and the conditional table

    P(node = 1 | parent = 1) = theta[dr, dc]
    P(node = 1 | parent = 0) = 0

so the network is a forest of (side*side)-ary trees, one per root.  Ancestral
sampling of this forest, visiting levels in order and cells row-major, is
draw-for-draw identical to the full-sweep sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from .config import DEFAULT_DENSE_CAP, ModelConfig
from .errors import BadArgs, CapExceeded, IndexOutOfRange
from .kron import ci_rv_count, kronecker_power
from .rng import check_seed, level_rng
from .samplers import LevelTrace, SampleTrace, SampledNetwork, Strategy, finalize_edges

NodeId = tuple[int, int, int]  # (level, row, col)

# check_csi enumerates every assignment of the involved trees; refuse beyond
# this many nodes (2**cap assignments).
DEFAULT_ENUM_CAP = 22

# Two conditionals closer than this are treated as equal; exact enumeration
# leaves only accumulated float rounding, orders of magnitude below this.
_CSI_TOL = 1e-9


@dataclass(frozen=True)
class BnNode:
    """One binary random variable of the forest.

    Roots carry ``prior`` and no parent; non-roots carry the two conditional
    success probabilities given the parent's value.
    """

    node_id: NodeId
    parent_id: NodeId | None
    prior: float | None
    p_given_parent_one: float | None
    p_given_parent_zero: float | None

    @property
    def is_root(self) -> bool:
        return self.parent_id is None


class BayesNet:
    """Forest of per-level nodes; indexable by (level, row, col)."""

    def __init__(self, cfg: ModelConfig, levels: tuple[tuple[BnNode, ...], ...]):
        self.cfg = cfg
        self.levels = levels

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def side(self, level: int) -> int:
        return self.cfg.b ** (self.cfg.untied_levels + level)

    def _check_id(self, node_id: NodeId) -> NodeId:
        level, row, col = node_id
        if not (0 <= level < len(self.levels)):
            raise IndexOutOfRange(f"level {level} outside [0, {len(self.levels)})")
        side = self.side(level)
        if not (0 <= row < side and 0 <= col < side):
            raise IndexOutOfRange(f"cell ({row}, {col}) outside [0, {side})^2")
        return node_id

    def node(self, node_id: NodeId) -> BnNode:
        level, row, col = self._check_id(node_id)
        return self.levels[level][row * self.side(level) + col]

    def root_of(self, node_id: NodeId) -> NodeId:
        """Root of the tree containing ``node_id``."""
        level, row, col = self._check_id(node_id)
        shrink = self.cfg.b**level
        return (0, row // shrink, col // shrink)

    def tree_ids(self, root_id: NodeId) -> Iterator[NodeId]:
        """All node ids of one tree, level by level, row-major."""
        _, row0, col0 = self._check_id(root_id)
        if root_id[0] != 0:
            raise BadArgs("tree_ids expects a level-0 root id")
        b = self.cfg.b
        for level in range(len(self.levels)):
            span = b**level
            for row in range(row0 * span, (row0 + 1) * span):
                for col in range(col0 * span, (col0 + 1) * span):
                    yield (level, row, col)

    def tree_size(self) -> int:
        """Node count of each tree (all trees are congruent)."""
        bb = self.cfg.b * self.cfg.b
        return sum(bb**level for level in range(len(self.levels)))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump of every node with parent and probabilities."""
        nodes = []
        for level in self.levels:
            for node in level:
                nodes.append(
                    {
                        "id": list(node.node_id),
                        "parent": None if node.parent_id is None else list(node.parent_id),
                        "prior": node.prior,
                        "p_given_parent_one": node.p_given_parent_one,
                        "p_given_parent_zero": node.p_given_parent_zero,
                    }
                )
        return {"node_count": self.node_count, "nodes": nodes}


def build_bn(cfg: ModelConfig, *, dense_cap: int = DEFAULT_DENSE_CAP) -> BayesNet:
    """Materialize the forest for ``cfg``.

    The node count equals the full-sweep RV count, so the same cap applies.

    Raises:
        CapExceeded: the forest would hold more than ``dense_cap`` nodes.
    """
    total = ci_rv_count(cfg)
    if total > dense_cap:
        raise CapExceeded(
            f"forest of {total} nodes exceeds the cap {dense_cap}"
        )
    b = cfg.b
    probs0 = kronecker_power(cfg.theta, cfg.untied_levels, dense_cap=dense_cap).probs
    ent = cfg.theta.entries
    levels: list[tuple[BnNode, ...]] = []
    side = cfg.b**cfg.untied_levels
    roots = tuple(
        BnNode(
            node_id=(0, row, col),
            parent_id=None,
            prior=float(probs0[row, col]),
            p_given_parent_one=None,
            p_given_parent_zero=None,
        )
        for row in range(side)
        for col in range(side)
    )
    levels.append(roots)
    for lam in range(1, cfg.tied_levels + 1):
        side *= b
        level_nodes = tuple(
            BnNode(
                node_id=(lam, row, col),
                parent_id=(lam - 1, row // b, col // b),
                prior=None,
                p_given_parent_one=float(ent[row % b, col % b]),
                p_given_parent_zero=0.0,
            )
            for row in range(side)
            for col in range(side)
        )
        levels.append(level_nodes)
    return BayesNet(cfg, tuple(levels))


def check_dcsd(bn: BayesNet) -> bool:
    """True when every dead parent kills its children deterministically.

    Requires, for every non-root node, P(1 | parent=0) == 0 together with
    P(1 | parent=1) > 0; a zero seed entry breaks the second condition.
    """
    for level in bn.levels[1:]:
        for node in level:
            if node.p_given_parent_zero != 0.0:
                return False
            if not (node.p_given_parent_one is not None and node.p_given_parent_one > 0.0):
                return False
    return True


def ancestral_sample(
    bn: BayesNet, seed: int
) -> tuple[SampledNetwork, SampleTrace]:
    """Sample the forest root-to-leaves; equals the full-sweep sampler.

    Uses the same per-level streams and row-major cell order as the ci
    strategy, so identical seeds give identical networks and traces.
    """
    seed = check_seed(seed)
    cfg = bn.cfg
    values: np.ndarray | None = None
    trace_entries: list[tuple[int, int, int]] = []
    for lam, level_nodes in enumerate(bn.levels):
        side = bn.side(lam)
        uniforms = level_rng(seed, lam).random(side * side)
        new_values = np.empty(side * side, dtype=bool)
        for flat, node in enumerate(level_nodes):
            if node.is_root:
                prob = node.prior
            else:
                parent_level, parent_row, parent_col = node.parent_id
                parent_flat = parent_row * bn.side(parent_level) + parent_col
                if values[parent_flat]:
                    prob = node.p_given_parent_one
                else:
                    prob = node.p_given_parent_zero
            new_values[flat] = uniforms[flat] < prob
        values = new_values
        trace_entries.append((lam, side * side, int(values.sum())))
    side = bn.side(len(bn.levels) - 1)
    idx = np.flatnonzero(values)
    net = finalize_edges(cfg, idx // side, idx % side)
    trace = SampleTrace(
        seed=seed,
        strategy=Strategy.CI,
        per_level=tuple(LevelTrace(*entry) for entry in trace_entries),
    )
    return net, trace


def _gather_enumeration(
    bn: BayesNet, node_ids: list[NodeId]
) -> tuple[list[BnNode], dict[NodeId, int]]:
    nodes = [bn.node(nid) for nid in node_ids]
    positions = {nid: pos for pos, nid in enumerate(node_ids)}
    return nodes, positions


def check_csi(
    bn: BayesNet,
    x: NodeId,
    y: NodeId,
    context: Mapping[NodeId, int] | None = None,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> bool:
    """Decide whether x and y are independent given the fixed ``context``.

    Exact: enumerates every assignment of the trees containing x, y, and the
    context nodes, and compares P(x=1 | y, context) with P(x=1 | context)
    for each y value of positive probability.  Contexts that cannot occur
    make the condition vacuous (returns True).

    Raises:
        BadArgs: x == y, or x or y appears in the context.
        IndexOutOfRange: an id does not name a node.
        CapExceeded: more than ``enum_cap`` nodes would be enumerated.
    """
    context = dict(context or {})
    x = bn._check_id(tuple(x))
    y = bn._check_id(tuple(y))
    if x == y:
        raise BadArgs("x and y must be distinct nodes")
    if x in context or y in context:
        raise BadArgs("x and y must not be assigned by the context")
    for nid, value in context.items():
        bn._check_id(tuple(nid))
        if value not in (0, 1):
            raise BadArgs(f"context value for {nid} must be 0 or 1, got {value!r}")

    roots = {bn.root_of(x), bn.root_of(y)}
    roots.update(bn.root_of(nid) for nid in context)
    node_ids: list[NodeId] = []
    for root in sorted(roots):
        node_ids.extend(bn.tree_ids(root))
    if len(node_ids) > enum_cap:
        raise CapExceeded(
            f"{len(node_ids)} nodes to enumerate exceed the cap {enum_cap}"
        )
    nodes, positions = _gather_enumeration(bn, node_ids)

    n = len(nodes)
    totals = np.zeros((2, 2), dtype=np.float64)  # [x value, y value]
    x_pos, y_pos = positions[x], positions[y]
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        codes = np.arange(start, stop, dtype=np.int64)
        bits = [(codes >> pos) & 1 for pos in range(n)]
        joint = np.ones(stop - start, dtype=np.float64)
        for pos, node in enumerate(nodes):
            bit = bits[pos]
            if node.is_root:
                p_one = node.prior
                joint *= np.where(bit == 1, p_one, 1.0 - p_one)
            else:
                parent_bit = bits[positions[node.parent_id]]
                p_one = np.where(
                    parent_bit == 1,
                    node.p_given_parent_one,
                    node.p_given_parent_zero,
                )
                joint *= np.where(bit == 1, p_one, 1.0 - p_one)
        mask = np.ones(stop - start, dtype=bool)
        for nid, value in context.items():
            mask &= bits[positions[nid]] == value
        joint *= mask
        for xv in (0, 1):
            for yv in (0, 1):
                sel = (bits[x_pos] == xv) & (bits[y_pos] == yv)
                totals[xv, yv] += float(joint[sel].sum())

    total_mass = float(totals.sum())
    if total_mass == 0.0:
        return True
    p_x_given_context = (totals[1, 0] + totals[1, 1]) / total_mass
    for yv in (0, 1):
        mass_y = totals[0, yv] + totals[1, yv]
        if mass_y > 0.0:
            p_x_given_y = totals[1, yv] / mass_y
            if abs(p_x_given_y - p_x_given_context) > _CSI_TOL:
                return False
    return True
