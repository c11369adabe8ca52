"""Grouping cells by shared probability for collective binomial sampling.

Two flavors are needed:

* Within one tied level, every candidate child cell inherits its probability
  from a single seed entry, so the distinct seed values partition the
  candidates into at most side*side groups (``theta_value_classes``).
* For the untied whole-grid model, a cell's probability is the product of
  one seed value per level, so it depends only on how many levels pick each
  distinct value.  Exponent multisets over the distinct values enumerate the
  possible products; equal float products are merged (``grid_groups``).
  Cells inside a group are addressed by an exact integer rank and recovered
  with :func:`unrank_grid_cell`, so group membership is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ModelConfig, ThetaMatrix
from .errors import BadArgs, GroupCapExceeded

DEFAULT_GROUP_CAP = 100_000


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
    descriptor covers ``sequences`` cells: the multinomial arrangement count
    times ``prod(multiplicity_t ** exponents[t])`` choices of concrete block
    position per level.
    """

    exponents: tuple[int, ...]
    sequences: int


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


def grid_groups(
    cfg: ModelConfig, *, group_cap: int = DEFAULT_GROUP_CAP
) -> tuple[tuple[ValueClass, ...], tuple[ProbabilityGroup, ...]]:
    """Probability groups covering the whole untied grid.

    Returns the value classes (fixing class indices used by descriptors) and
    the groups sorted by descending probability.  Descriptors whose float
    products coincide are merged into one group; the union of all groups has
    exactly (side*side)**levels cells.

    Raises:
        GroupCapExceeded: more exponent multisets than ``group_cap``.
    """
    classes = theta_value_classes(cfg.theta)
    m = len(classes)
    n_multisets = math.comb(cfg.levels + m - 1, m - 1)
    if n_multisets > group_cap:
        raise GroupCapExceeded(
            f"{n_multisets} exponent multisets exceed the group cap {group_cap}"
        )
    merged: dict[float, list[ExponentDescriptor]] = {}
    for exponents in _exponent_multisets(cfg.levels, m):
        members = 1
        for cls, exp in zip(classes, exponents):
            members *= len(cls.positions) ** exp
        desc = ExponentDescriptor(
            exponents=exponents, sequences=_multinomial(exponents) * members
        )
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


def _unrank_arrangement(rank: int, counts: list[int]) -> list[int]:
    # Standard multiset-permutation unranking; all arithmetic exact.
    remaining = sum(counts)
    arrangements = _multinomial(counts)
    seq: list[int] = []
    while remaining > 0:
        acc = 0
        for cls_index, count in enumerate(counts):
            if count == 0:
                continue
            sub = arrangements * count // remaining
            if rank < acc + sub:
                seq.append(cls_index)
                counts[cls_index] -= 1
                arrangements = sub
                rank -= acc
                break
            acc += sub
        remaining -= 1
    return seq


def unrank_grid_cell(
    group: ProbabilityGroup,
    classes: tuple[ValueClass, ...],
    levels: int,
    base: int,
    rank: int,
) -> tuple[int, int]:
    """Map a rank in [0, group.size) to the concrete grid cell it denotes.

    The bijection enumerates the group's descriptors in listed order; within
    a descriptor, ranks factor into an arrangement index (which value class
    each level uses) and a mixed-radix member index (which block position,
    last level least significant).

    Raises:
        BadArgs: rank outside [0, group.size).
    """
    if not (0 <= rank < group.size):
        raise BadArgs(f"rank {rank} outside [0, {group.size})")
    desc = None
    for candidate in group.cell_source:
        if rank < candidate.sequences:
            desc = candidate
            break
        rank -= candidate.sequences
    assert desc is not None
    members = 1
    for cls, exp in zip(classes, desc.exponents):
        members *= len(cls.positions) ** exp
    arrangement_rank, member_rank = divmod(rank, members)
    class_seq = _unrank_arrangement(arrangement_rank, list(desc.exponents))
    digits = [0] * levels
    for pos in range(levels - 1, -1, -1):
        radix = len(classes[class_seq[pos]].positions)
        digits[pos] = member_rank % radix
        member_rank //= radix
    row = 0
    col = 0
    for pos in range(levels):
        offset = classes[class_seq[pos]].positions[digits[pos]]
        row = row * base + offset // base
        col = col * base + offset % base
    return row, col
