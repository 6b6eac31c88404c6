"""Simplicial complexes, filtration functions, and compatible simplex indexings.

A complex is an ordered list of simplices whose listing order is authoritative:
it fixes the intrinsic indexing used to break filtration-value ties. Listings
where a coface precedes one of its faces are rejected rather than re-sorted,
so tie-breaking is reproducible across runs.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Simplex = Tuple[int, ...]

# Comparison results for simplex_order_compare.
LESS, EQUAL, GREATER = -1, 0, 1


class ValidationError(Exception):
    """Raised when an input violates a structural contract (bad complex,
    non-monotone filtration, malformed file)."""


def canonical_simplex(vertices: Sequence[int]) -> Simplex:
    """Sorted vertex tuple; vertices must be distinct non-negative integers."""
    if not isinstance(vertices, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in vertices):
        raise ValidationError(f"simplex {vertices!r} must be a list of integer "
                              f"vertex ids")
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValidationError("empty simplex")
    if any(v < 0 for v in vs):
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


def is_face(tau: Simplex, sigma: Simplex) -> bool:
    """True iff tau is a proper face of sigma."""
    return tau != sigma and set(tau) < set(sigma)


def simplex_id(s: Simplex) -> str:
    """Stable string id used in file formats, e.g. '0-1-2'."""
    return "-".join(str(v) for v in s)


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
        problems = validate(listed)
        if problems:
            raise ValidationError("; ".join(problems))
        self.simplices: Tuple[Simplex, ...] = tuple(listed)
        self.index_of: Dict[Simplex, int] = {s: i for i, s in enumerate(self.simplices)}

    @property
    def n(self) -> int:
        return len(self.simplices)

    def dim(self, i: int) -> int:
        return simplex_dim(self.simplices[i])

    def facet_indices(self, i: int) -> List[int]:
        return [self.index_of[f] for f in facets(self.simplices[i])]

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self):
        return f"SimplicialComplex({len(self.simplices)} simplices)"


def validate(simplices: Sequence[Sequence[int]],
             values: Optional[Sequence] = None) -> List[str]:
    """Report every face-closure / ordering / monotonicity violation.

    Returns a list of human-readable violation strings; empty means ok.
    Unlike the SimplicialComplex constructor this never raises on structural
    problems, so it can be used to produce full diagnostics for input files.
    """
    problems: List[str] = []
    try:
        listed = [canonical_simplex(s) for s in simplices]
    except ValidationError as exc:
        return [str(exc)]
    index_of: Dict[Simplex, int] = {}
    for i, s in enumerate(listed):
        if s in index_of:
            problems.append(f"duplicate simplex {simplex_id(s)} at positions "
                            f"{index_of[s]} and {i}")
        else:
            index_of[s] = i
    for i, s in enumerate(listed):
        for f in facets(s):
            j = index_of.get(f)
            if j is None:
                problems.append(f"missing face {simplex_id(f)} of {simplex_id(s)}")
            elif j > i:
                problems.append(f"face {simplex_id(f)} listed after coface "
                                f"{simplex_id(s)}")
    if values is not None and not problems:
        if len(values) != len(listed):
            problems.append(f"{len(values)} filtration values for "
                            f"{len(listed)} simplices")
        else:
            problems.extend(monotonicity_violations(listed, index_of, values))
    return problems


def monotonicity_violations(simplices: Sequence[Simplex],
                            index_of: Dict[Simplex, int], values: Sequence,
                            where: str = "") -> Iterator[str]:
    """One message per face whose value exceeds its coface's, in listing
    order; `where` follows 'non-monotone' in each message."""
    for i, s in enumerate(simplices):
        for f in facets(s):
            j = index_of[f]
            if values[j] > values[i]:
                yield (f"non-monotone{where}: f({simplex_id(f)}) = {values[j]} > "
                       f"{values[i]} = f({simplex_id(s)})")


def check_monotone(K: SimplicialComplex, values: Sequence, where: str = "") -> None:
    """Raise ValidationError if values are not a filtration on K."""
    if len(values) != K.n:
        raise ValidationError(f"{len(values)} filtration values for {K.n} simplices")
    for problem in monotonicity_violations(K.simplices, K.index_of, values, where):
        raise ValidationError(problem)


def simplex_order_compare(values: Sequence, i: int, j: int) -> int:
    """Compare two simplices in the order induced by the filtration.

    Returns LESS (-1), EQUAL (0) or GREATER (1) according to the sign of
    f(sigma_i) - f(sigma_j). i, j are intrinsic (listing) indices.
    """
    n = len(values)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"simplex index out of range: {i}, {j} (N = {n})")
    a, b = values[i], values[j]
    if a < b:
        return LESS
    if a > b:
        return GREATER
    return EQUAL


class SimplexIndexing:
    """A bijection between simplices and positions 0..N-1.

    order[k] is the intrinsic index of the simplex at position k;
    position[i] is the position of intrinsic simplex i.
    """

    __slots__ = ("order", "position")

    def __init__(self, order: Sequence[int]):
        self.order: Tuple[int, ...] = tuple(order)
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValidationError("indexing is not a permutation of 0..N-1")
        pos = [0] * n
        for k, i in enumerate(self.order):
            pos[i] = k
        self.position: Tuple[int, ...] = tuple(pos)

    @property
    def n(self) -> int:
        return len(self.order)

    def is_compatible(self, K: SimplicialComplex) -> bool:
        """True iff every face precedes its cofaces in this indexing."""
        for i in range(K.n):
            pi = self.position[i]
            for j in K.facet_indices(i):
                if self.position[j] > pi:
                    return False
        return True

    def transposed(self, k: int) -> "SimplexIndexing":
        """The indexing with positions k, k+1 swapped."""
        order = list(self.order)
        order[k], order[k + 1] = order[k + 1], order[k]
        return SimplexIndexing(order)

    def __eq__(self, other):
        return isinstance(other, SimplexIndexing) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"SimplexIndexing({list(self.order)})"


def induced_indexing(values: Sequence, K: SimplicialComplex) -> SimplexIndexing:
    """The unique indexing ordered by filtration value, ties broken by the
    intrinsic listing order. Raises on non-monotone input."""
    check_monotone(K, values)
    order = sorted(range(K.n), key=lambda i: (values[i], i))
    return SimplexIndexing(order)


def order_signature(values: Sequence) -> Tuple[Tuple[int, ...], ...]:
    """Canonical encoding of the simplex order induced by the values: the
    ordered partition of intrinsic indices into equal-value groups. Two
    filtrations induce the same simplex order iff signatures are equal."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    groups: List[List[int]] = []
    for i in order:
        if groups and values[groups[-1][-1]] == values[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(sorted(g)) for g in groups)


def as_fraction(x) -> Fraction:
    """Exact conversion of ints, Fractions, floats and 'p/q' strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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
