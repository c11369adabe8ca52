"""Grouping cells by shared probability for collective binomial sampling.

Used by ``gp`` to draw level 0 when its untied grid is large, on the plain
and the tied model alike (``grid_groups`` of the config cut to its untied
levels).  A cell's probability is the product of one seed value per level,
so it depends only on how many levels pick each distinct value
(``theta_value_classes``).  Exponent multisets over the distinct values
enumerate the possible products; equal float products are merged
(``grid_groups``).  Cells inside a group are addressed by an exact integer
rank, so group membership is never materialized; :class:`GridUnranker`
maps all the ranks drawn in one run to their cells in int64 array passes:
one lookup of each rank's descriptor, a walk down a table of class-count
multisets (nodes) over the leading levels, a few gathers and compares per
level, and one gather from a table of the last levels' sub-grid.  Tied
levels are not grouped: ``gp`` draws them exactly as ``dcsd`` does.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .config import I64_MAX, ModelConfig, ThetaMatrix
from .errors import BadArgs, GroupCapExceeded, Overflow

DEFAULT_GROUP_CAP = 100_000
# GridUnranker tabulates the sub-grid of as many last levels as fit in this
# many cells (10 levels at b = 2, 6 at b = 3), at 4 bytes a cell.  Unranking
# one K = ell = 12 draw of the worked seed (37,050 cells, 2 vCPUs, best of
# 20) took 7.0 ms with no table, 3.4 ms with 2**16 cells, 1.5 ms with 2**20
# and 1.1 ms with 2**22, whose table takes 16 MB and 38 ms to build (2**20:
# 4 MB, 12 ms).
_TAIL_CELLS = 1 << 20


@dataclass(frozen=True)
class ValueClass:
    """One distinct seed value and the block positions carrying it.

    Positions are flat offsets dr*side + dc into the seed matrix, ascending.
    """

    value: float
    positions: tuple[int, ...]


@dataclass(frozen=True)
class ExponentDescriptor:
    """Cells whose probability uses each distinct value a fixed number of times.

    ``exponents[t]`` counts the levels assigned to value class ``t``; the
    descriptor covers ``sequences`` cells: ``arrangements``, the multinomial
    count of ways to assign the classes to levels, times ``members``,
    ``prod(multiplicity_t ** exponents[t])`` choices of concrete block
    position per level.
    """

    exponents: tuple[int, ...]
    arrangements: int
    members: int

    @property
    def sequences(self) -> int:
        return self.arrangements * self.members


@dataclass(frozen=True)
class ProbabilityGroup:
    """A maximal set of cells sharing one probability.

    Attributes:
        prob: the shared cell probability.
        size: exact number of cells in the group.
        cell_source: the exponent descriptors whose cells make up the group,
            in rank order.
    """

    prob: float
    size: int
    cell_source: tuple[ExponentDescriptor, ...]

    def __post_init__(self) -> None:
        if self.size < 0:
            raise BadArgs(f"group size must be >= 0, got {self.size}")


def theta_value_classes(theta: ThetaMatrix) -> tuple[ValueClass, ...]:
    """Distinct seed values with their block positions, descending by value."""
    by_value: dict[float, list[int]] = {}
    flat = theta.flat
    for offset in range(flat.shape[0]):
        by_value.setdefault(float(flat[offset]), []).append(offset)
    return tuple(
        ValueClass(value=v, positions=tuple(pos))
        for v, pos in sorted(by_value.items(), key=lambda item: -item[0])
    )


def _multinomial(counts) -> int:
    total = sum(counts)
    value = math.factorial(total)
    for c in counts:
        value //= math.factorial(c)
    return value


def _exponent_multisets(total: int, parts: int):
    # Deterministic order: first component descending, recursively.
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponent_multisets(total - first, parts - 1):
            yield (first,) + rest


def grid_groups(cfg: ModelConfig) -> tuple[tuple[ValueClass, ...], tuple[ProbabilityGroup, ...]]:
    """Probability groups covering the whole ``levels``-fold grid, as if
    every level were untied.

    Returns the value classes (fixing class indices used by descriptors) and
    the groups sorted by descending probability.  Descriptors whose float
    products coincide are merged into one group; the union of all groups has
    exactly (side*side)**levels cells.

    Raises:
        GroupCapExceeded: more exponent multisets than ``DEFAULT_GROUP_CAP``.
    """
    classes = theta_value_classes(cfg.theta)
    m = len(classes)
    n_multisets = math.comb(cfg.levels + m - 1, m - 1)
    if n_multisets > DEFAULT_GROUP_CAP:
        raise GroupCapExceeded(
            f"{n_multisets} exponent multisets exceed the group cap {DEFAULT_GROUP_CAP}"
        )
    merged: dict[float, list[ExponentDescriptor]] = {}
    for exponents in _exponent_multisets(cfg.levels, m):
        members = math.prod(len(cls.positions) ** exp for cls, exp in zip(classes, exponents))
        desc = ExponentDescriptor(exponents, _multinomial(exponents), members)
        prob = math.prod(cls.value**exp for cls, exp in zip(classes, exponents))
        merged.setdefault(float(prob), []).append(desc)
    groups = tuple(
        ProbabilityGroup(
            prob=prob,
            size=sum(d.sequences for d in descs),
            cell_source=tuple(descs),
        )
        for prob, descs in sorted(merged.items(), key=lambda item: -item[0])
    )
    return classes, groups


class GridUnranker:
    """Integer tables that turn whole-grid group ranks into grid cells.

    Built once per grouping from one index of nodes: a node of depth d is a
    multiset of class counts over d levels, numbered within its depth by
    ``_node_ranks``.  Per node and class t the index holds the child node
    (one t fewer) and the arrangements of the children of the classes
    before t, since the arrangements whose first level takes t follow
    theirs.  The block positions of all classes are laid end to end, so
    class ``t``'s ``d``-th position is ``positions[first[t] + d]``.  Per
    group the tables hold its size, its first descriptor and the rank at
    which each later one starts; per descriptor its start, member count and
    node.  Groups of more than ``2**63 - 1`` cells get no descriptors, so
    their ranks are refused, and arrangement counts past that range, which
    only their nodes reach, are held at ``2**63 - 1``.

    The last ``tail`` levels, as many as keep their sub-grid within
    ``_TAIL_CELLS`` cells, are tabulated whole (``_grow_table``): for each
    node of depth ``tail``, its sub-cells in rank order, so ``cells``
    unranks those levels with one gather.  The deeper nodes, those of the
    leading ``levels - tail`` levels, keep their children and arrangement
    bounds in class-major ``(m, nodes)`` arrays, depth after depth.
    """

    def __init__(
        self,
        classes: tuple[ValueClass, ...],
        groups: tuple[ProbabilityGroup, ...],
        levels: int,
        base: int,
    ) -> None:
        self.levels = levels
        self.base = base
        sizes = [len(cls.positions) for cls in classes]
        self._radix = np.asarray(sizes, dtype=np.int64)
        self._first = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        positions = np.concatenate(
            [np.asarray(cls.positions, dtype=np.int64) for cls in classes]
        )
        self._pos_row, self._pos_col = np.divmod(positions, base)
        # some class holds several block positions, so member ranks have digits
        self._digits = max(sizes) > 1
        tail = 0
        while tail < levels and (base * base) ** (tail + 1) <= _TAIL_CELLS:
            tail += 1
        self.tail = tail
        m = len(classes)
        # colex[j][p]: _node_ranks' term for classes 0..j holding p levels
        self._colex = [
            np.asarray([math.comb(p + j, j + 1) for p in range(levels + 1)], dtype=np.int64)
            for j in range(m - 1)
        ]
        self._group_tables(groups, self._node_index(m))

    def _node_index(self, m):
        """Build the node index depth by depth, the sub-cell table of the
        tail depths and the children and skips of the head depths, and
        return the arrangement counts of the nodes of depth ``levels``."""
        # head depth h = depth - tail - 1 numbers its nodes from offsets[h]
        offsets = np.cumsum(
            [0] + [math.comb(d + m - 1, m - 1) for d in range(self.tail + 1, self.levels + 1)]
        )
        self._skip = np.empty((m, offsets[-1]), dtype=np.int64)
        self._child = np.zeros((m, offsets[-1]), dtype=np.int64)
        classes = np.arange(m)
        counts = np.zeros((m, 1), dtype=np.uint8)
        arr = members = np.ones(1, dtype=np.int64)
        start = np.zeros(1, dtype=np.int64)
        table = np.zeros(1, dtype=np.uint32)
        for depth in range(1, self.levels + 1):
            counts, ranks = self._grow(counts, depth)
            if depth <= self.tail:
                arr, members, start, table = self._grow_table(
                    depth, ranks, arr, members, start, table
                )
                continue
            h = depth - self.tail - 1
            nodes = slice(offsets[h], offsets[h + 1])
            arr = _running_bounds(ranks, arr, self._skip[:, nodes])
            self._child[classes[:, None], ranks + offsets[h]] = np.arange(ranks.shape[1]) + (
                offsets[h - 1] if h else 0
            )
        self._node_start, self._node_members, self._sub_cells = start, members, table
        self._top = offsets[-2] if self.levels > self.tail else 0
        # the running bound of each class but the last: class t's is the next one's skip
        self._bounds = list(self._skip[1:])
        return arr

    def _grow(self, counts, depth):
        """The nodes of ``depth`` levels from ``counts``, the class counts
        ``(m, nodes)`` of those of one fewer: theirs, in ``_node_ranks``
        order, and ``ranks[t, c]``, the node that adds class t to node c.

        One more t moves the bars t to m - 2 of node c's stars and bars one
        place on, so that node's rank is the one adding the last class (no
        bar moves, the same terms) plus the steps of those bars' terms."""
        m, prev = counts.shape
        ranks = np.zeros((m, prev), dtype=np.int64)
        prefix = np.zeros(prev, dtype=np.int64)
        for colex, count, step in zip(self._colex, counts, ranks):
            prefix += count
            term = colex[prefix]
            ranks[-1] += term
            np.subtract(colex[prefix + 1], term, out=step)
        for t in range(m - 2, -1, -1):
            ranks[t] += ranks[t + 1]
        grown = np.empty((m, math.comb(depth + m - 1, depth)), dtype=np.uint8)
        for t, node in enumerate(ranks):
            grown[:, node] = counts
            grown[t, node] += 1
        return grown, ranks

    def _grow_table(self, depth, ranks, child_arr, child_members, start, table):
        """The sub-cell table of the nodes of ``depth`` levels, from that of
        the nodes of one level fewer (their arrangement and member counts,
        ``start`` per node, and ``table``), as ``row * side + col`` inside
        the sub-grid of the last ``tail`` levels (``side`` cells wide).

        A node lists, for each class t it holds in index order (the
        arrangements whose first level takes t, from ``bounds[t]`` on), the
        table of its child (one t fewer) as ``(arrangements, 1, members)``
        with t's block positions in the middle axis, at the depth's top
        digit: the member digit of the first level is the most significant.
        Each (class, block position) pair moves the whole previous table at
        once: its rows (one per child, or per child arrangement where t has
        several positions) stay contiguous, so the targets are a running sum
        of ones with a jump at each row's start.  Returns each node's
        arrangement and member counts and start, and the table.
        """
        bounds = np.empty((len(ranks), math.comb(depth + len(ranks) - 1, depth)), dtype=np.int64)
        arr = _running_bounds(ranks, child_arr, bounds)
        members = np.empty(arr.size, dtype=np.int64)
        members[ranks] = child_members * self._radix[:, None]
        side = self.base**self.tail
        cells = (self._pos_row * side + self._pos_col).astype(np.uint32)
        sizes = arr * members
        next_start = np.cumsum(sizes) - sizes
        # where class t's arrangements start in the node adding t to child c
        segment = next_start[ranks] + np.take_along_axis(bounds, ranks, axis=1) * members[ranks]
        children = np.arange(child_arr.size)
        # (child, arrangement, start, length) per row
        rows = {True: (children, 0, start, child_arr * child_members)}
        if self._digits:
            owner = children.repeat(child_arr)
            arrangement = np.arange(owner.size) - (np.cumsum(child_arr) - child_arr)[owner]
            at = start[owner] + arrangement * child_members[owner]
            rows[False] = (owner, arrangement, at, child_members[owner])
        next_table = np.empty(int(sizes.sum()), dtype=np.uint32)
        target = np.empty(table.size, dtype=np.int64)
        scale = np.uint32(self.base ** (depth - 1))
        for t, radix in enumerate(self._radix.tolist()):
            owner, arrangement, at, length = rows[radix == 1]
            for digit in range(radix):
                first = segment[t][owner] + (arrangement * radix + digit) * child_members[owner]
                target.fill(1)
                target[at] = first
                target[at[1:]] -= first[:-1] + length[:-1] - 1
                np.cumsum(target, out=target)
                block = cells[self._first[t] + digit] * scale
                table += block
                next_table[target] = table
                table -= block
        return arr, members, next_start, next_table

    def _group_tables(self, groups, arr):
        """Per group its size (0 for refused groups), first descriptor and
        the ranks where its later descriptors start (``2**63 - 1`` past its
        last); per descriptor its start in its group, member count and
        node, whose arrangement count ``arr`` holds."""
        refused = [group.size > I64_MAX for group in groups]
        sources = [() if no else group.cell_source for group, no in zip(groups, refused)]
        self._refused = np.asarray(refused, dtype=bool)
        self._sizes = np.asarray(
            [0 if no else group.size for group, no in zip(groups, refused)], dtype=np.int64
        )
        lengths = np.asarray([len(source) for source in sources], dtype=np.int64)
        descs = chain.from_iterable(sources)
        exponents = chain.from_iterable(desc.exponents for desc in descs)
        counts = np.fromiter(exponents, dtype=np.uint8).reshape(-1, len(self._radix)).T
        node = self._node_ranks(counts)
        members = np.ones(node.size, dtype=np.int64)
        for radix, count in zip(self._radix, counts):
            members *= radix**count
        # Starts restart at each group; unsigned running sums wrap harmlessly
        # past 2**64 across groups, since each group's own fit in int64.
        sequences = (arr[node] * members).view(np.uint64)
        before = np.cumsum(sequences) - sequences
        first = np.cumsum(lengths) - lengths
        owner = np.arange(len(groups)).repeat(lengths)
        start = (before - before[first[owner]]).view(np.int64)
        later = np.arange(node.size) - first[owner] - 1
        starts = np.full((int(lengths.max(initial=1)) - 1, len(groups)), I64_MAX, dtype=np.int64)
        starts[later[later >= 0], owner[later >= 0]] = start[later >= 0]
        self._later_starts = list(starts)
        self._group_first = first
        self._desc_start = start
        self._desc_members = members
        self._desc_node = node + self._top

    def _node_ranks(self, counts) -> np.ndarray:
        """Rank of each multiset of d class counts (one array per class)
        among all such multisets: the colex rank of its stars and bars' bar
        positions, dense over exactly those multisets."""
        node = np.zeros(len(counts[0]), dtype=np.int64)
        prefix = np.zeros_like(node)
        for colex, count in zip(self._colex, counts):
            prefix += count
            node += colex[prefix]
        return node

    def cells(self, index, ranks) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the cells that group ``index[i]``'s rank
        ``ranks[i]`` denotes, for every i, in input order.

        The bijection enumerates a group's descriptors in listed order;
        within a descriptor, a rank factors into an arrangement rank (which
        value class each level uses, in the multiset-permutation order that
        takes classes by index) and a member rank (which block position of
        its class each level uses, mixed radix, last level least
        significant).  One pass per later descriptor of the widest group
        finds each cell's descriptor, and so its node of depth ``levels``.
        Each of the leading ``levels - tail`` levels (possibly none) then
        moves every cell one node down: the class is the count of the node's
        arrangement bounds at or below the arrangement rank, which drops to
        the child's arrangements, and the member digit is the member rank
        over the child's member count.  The last ``tail`` levels are one
        gather from the table of the reached node's sub-cells, at its
        arrangement rank and the rest of the member rank.

        Raises:
            BadArgs: a rank outside [0, size) of its group.
            Overflow: ranks of a group of more than ``2**63 - 1`` cells.
        """
        index = np.asarray(index, dtype=np.intp)
        rank = np.asarray(ranks, dtype=np.int64)
        if rank.size and (rank.min() < 0 or (rank >= self._sizes[index]).any()):
            refused = index[self._refused[index]]
            if refused.size:
                raise Overflow(f"group {refused[0]} exceeds the signed 64-bit range")
            raise BadArgs("rank outside [0, size) of its group")
        desc = self._group_first[index]
        for start in self._later_starts:
            desc += start[index] <= rank
        node = self._desc_node[desc]
        arr_rank = rank - self._desc_start[desc]
        # members and member_rank stay 1 and 0 where every class has one
        # block position; int64 division is most of the walk's cost
        members, member_rank = 1, 0
        if self._digits:
            members = self._desc_members[desc]
            arr_rank, member_rank = np.divmod(arr_rank, members)
        nodes = self._skip.shape[1]
        skip, child = self._skip.ravel(), self._child.ravel()
        rows = cols = 0
        for _ in range(self.levels - self.tail):
            cls = np.zeros_like(node)
            for bound in self._bounds:
                cls += bound[node] <= arr_rank
            at = cls * nodes + node
            arr_rank -= skip[at]
            node = child[at]
            at = self._first[cls]
            if self._digits:
                members //= self._radix[cls]
                digit, member_rank = np.divmod(member_rank, members)
                at += digit
            rows = rows * self.base + self._pos_row[at]
            cols = cols * self.base + self._pos_col[at]
        side = self.base**self.tail
        at = self._node_start[node] + arr_rank * members + member_rank
        sub_rows, sub_cols = np.divmod(self._sub_cells[at].astype(np.int64), side)
        return rows * side + sub_rows, cols * side + sub_cols


def _running_bounds(ranks, arr, out) -> np.ndarray:
    """Fill ``out[t]`` with each node's arrangements whose first level
    takes a class before t, and return all its arrangements, held at
    ``2**63 - 1``: node ``ranks[t, c]`` adds class t to child c, which has
    ``arr[c]`` arrangements."""
    total = np.zeros(out.shape[1], dtype=np.int64)
    for row, node in zip(out, ranks):
        row[:] = total
        total[node] += np.minimum(arr, I64_MAX - total[node])
    return total
