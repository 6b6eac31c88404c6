"""Simplicial complexes, filtration functions, and compatible simplex indexings.

A complex is an ordered list of simplices whose listing order is authoritative:
it fixes the intrinsic indexing used to break filtration-value ties. Listings
where a coface precedes one of its faces are rejected rather than re-sorted,
so tie-breaking is reproducible across runs. `value_order` is the one
tie-break rule: every simplex order in the package is a stable sort by value.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Simplex = Tuple[int, ...]


class ValidationError(Exception):
    """Raised when an input violates a structural contract (bad complex,
    non-monotone filtration, malformed file)."""


class InvariantError(Exception):
    """An internal invariant failed; signals a construction bug, not bad input."""


def canonical_simplex(vertices: Sequence[int]) -> Simplex:
    """Sorted vertex tuple; vertices must be distinct non-negative integers."""
    if not isinstance(vertices, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in vertices):
        raise ValidationError(f"simplex {vertices!r} must be a list of integer "
                              f"vertex ids")
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValidationError("empty simplex")
    if vs[0] < 0:
        raise ValidationError(f"negative vertex id in simplex {list(vertices)}")
    if len(set(vs)) != len(vs):
        raise ValidationError(f"repeated vertex in simplex {list(vertices)}")
    return vs


def simplex_dim(s: Simplex) -> int:
    return len(s) - 1


def facets(s: Simplex):
    """Codimension-1 faces of s (empty for vertices)."""
    if len(s) == 1:
        return
    for i in range(len(s)):
        yield s[:i] + s[i + 1:]


def simplex_id(s: Simplex) -> str:
    """Stable string id used in file formats, e.g. '0-1-2'."""
    return "-".join(map(str, s))


def parse_simplex_id(sid: str) -> Simplex:
    try:
        return canonical_simplex([int(p) for p in sid.split("-")])
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"bad simplex id {sid!r}: {exc}") from exc


class SimplicialComplex:
    """Ordered simplex list, closed under faces, faces before cofaces.

    The listing order is the intrinsic order sigma_0, ..., sigma_{N-1}
    (0-based internally). Immutable after construction.
    """

    def __init__(self, simplices: Sequence[Sequence[int]]):
        listed = [canonical_simplex(s) for s in simplices]
        problems, index_of, facet_table = _structure_problems(listed)
        if problems:
            raise ValidationError("; ".join(problems))
        self.simplices: Tuple[Simplex, ...] = tuple(listed)
        self.index_of: Dict[Simplex, int] = index_of
        # the facet indices of every simplex, from the structural check
        self.facet_table: Tuple[Tuple[int, ...], ...] = facet_table

    @property
    def n(self) -> int:
        return len(self.simplices)

    def dim(self, i: int) -> int:
        return simplex_dim(self.simplices[i])

    def facet_indices(self, i: int) -> Tuple[int, ...]:
        return self.facet_table[i]

    @cached_property
    def facet_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Every (facet, coface) index pair, cofaces in listing order: the
        order in which `check_monotone` reports violations."""
        return tuple((j, i) for i, fs in enumerate(self.facet_table)
                     for j in fs)

    @cached_property
    def ids(self) -> Tuple[str, ...]:
        """`simplex_id` of every simplex, built on first use."""
        return tuple(simplex_id(s) for s in self.simplices)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self):
        return f"SimplicialComplex({len(self.simplices)} simplices)"


def _structure_problems(listed: Sequence[Simplex]
                        ) -> Tuple[List[str], Dict[Simplex, int],
                                   Optional[Tuple[Tuple[int, ...], ...]]]:
    """The duplicate / face-closure / ordering violations of canonical
    simplices, the index of each simplex's first listing, and, when there is
    no violation, the facet indices of every simplex."""
    problems: List[str] = []
    index_of: Dict[Simplex, int] = {}
    for i, s in enumerate(listed):
        if s in index_of:
            problems.append(f"duplicate simplex {simplex_id(s)} at positions "
                            f"{index_of[s]} and {i}")
        else:
            index_of[s] = i
    table: List[Tuple[int, ...]] = []
    for i, s in enumerate(listed):
        row: List[int] = []
        for f in facets(s):
            j = index_of.get(f)
            if j is None:
                problems.append(f"missing face {simplex_id(f)} of {simplex_id(s)}")
            elif j > i:
                problems.append(f"face {simplex_id(f)} listed after coface "
                                f"{simplex_id(s)}")
            row.append(j)
        table.append(tuple(row))
    return problems, index_of, None if problems else tuple(table)


def monotonicity_violations(K: SimplicialComplex, values: Sequence,
                            where: str = "") -> Iterator[str]:
    """One message per face whose value exceeds its coface's, in the order of
    `K.facet_pairs`; `where` follows 'non-monotone' in each message."""
    ids = K.ids
    for j, i in K.facet_pairs:
        if values[j] > values[i]:
            yield (f"non-monotone{where}: f({ids[j]}) = {values[j]} > "
                   f"{values[i]} = f({ids[i]})")


def check_monotone(K: SimplicialComplex, values: Sequence, where: str = "") -> None:
    """Raise ValidationError if values are not a filtration on K."""
    if len(values) != K.n:
        raise ValidationError(f"{len(values)} filtration values for {K.n} simplices")
    for problem in monotonicity_violations(K, values, where):
        raise ValidationError(problem)


class SimplexIndexing:
    """A bijection between simplices and positions 0..N-1.

    order[k] is the intrinsic index of the simplex at position k;
    position[i] is the position of intrinsic simplex i.
    """

    __slots__ = ("order", "position")

    def __init__(self, order: Sequence[int]):
        self.order: Tuple[int, ...] = tuple(order)
        n = len(self.order)
        pos = [-1] * n
        for k, i in enumerate(self.order):
            if not 0 <= i < n or pos[i] >= 0:
                raise ValidationError("indexing is not a permutation of 0..N-1")
            pos[i] = k
        self.position: Tuple[int, ...] = tuple(pos)

    @property
    def n(self) -> int:
        return len(self.order)

    def __eq__(self, other):
        return isinstance(other, SimplexIndexing) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"SimplexIndexing({list(self.order)})"


def value_order(values: Sequence) -> List[int]:
    """The intrinsic indices sorted by value, ties broken by the intrinsic
    listing order: a stable sort, the one tie-break rule of the package."""
    return sorted(range(len(values)), key=values.__getitem__)


def induced_indexing(values: Sequence, K: SimplicialComplex) -> SimplexIndexing:
    """The unique indexing ordered by filtration value, ties broken by the
    intrinsic listing order. Raises on non-monotone input."""
    check_monotone(K, values)
    return SimplexIndexing(value_order(values))


def order_signature(values: Sequence) -> Tuple[Tuple[int, ...], ...]:
    """Canonical encoding of the simplex order induced by the values: the
    ordered partition of intrinsic indices into equal-value groups. Two
    filtrations induce the same simplex order iff signatures are equal."""
    groups: List[List[int]] = []
    for i in value_order(values):
        if groups and values[groups[-1][-1]] == values[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(map(tuple, groups))


def as_fraction(x) -> Fraction:
    """Exact conversion of ints, Fractions, floats and 'p/q' strings. A bool
    is rejected, not read as 0 or 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValidationError(f"non-finite number {x!r}")
        return Fraction(x)  # exact binary expansion
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {x!r}") from exc
    raise ValidationError(f"cannot interpret {x!r} as a rational")
