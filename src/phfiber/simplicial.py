"""Finite abstract simplicial complexes with a fixed canonical simplex order.

The canonical order (dimension first, then lexicographic on vertex tuples) is
the tie-breaking order used everywhere else in the package, so a complex is
immutable once built and every simplex has a stable integer id.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .errors import DomainError


@dataclass(frozen=True)
class Simplex:
    """A face, stored as a strictly increasing tuple of integer vertex ids."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) == 0:
            raise DomainError("malformed simplex: empty vertex tuple")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in v):
            raise DomainError(f"malformed simplex: non-integer vertex in {v!r}")
        if any(a >= b for a, b in zip(v, v[1:])):
            raise DomainError(f"malformed simplex: vertices {v!r} not strictly increasing")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.vertices), self.vertices)

    def facets(self) -> tuple[Simplex, ...]:
        """Codimension-1 faces, in the order used for boundary signs."""
        v = self.vertices
        if len(v) == 1:
            return ()
        return tuple(Simplex(v[:i] + v[i + 1:]) for i in range(len(v)))

    def proper_faces(self) -> tuple[Simplex, ...]:
        v = self.vertices
        out = []
        for k in range(1, len(v)):
            out.extend(Simplex(c) for c in combinations(v, k))
        return tuple(out)

    def __lt__(self, other: Simplex) -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.vertices) + "}"


def simplex(vertices: Iterable[int]) -> Simplex:
    """Build a Simplex from an unsorted vertex iterable, rejecting duplicates."""
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        raise DomainError(f"malformed simplex: duplicate vertices in {vs!r}")
    return Simplex(tuple(sorted(vs)))


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p used as homology coefficients."""

    characteristic: int = 2

    def __post_init__(self) -> None:
        p = self.characteristic
        if not isinstance(p, int) or p < 2:
            raise DomainError(f"field characteristic must be a prime >= 2, got {p!r}")
        if p >= 2 ** 31:  # keeps the trial division below fast
            raise DomainError(
                "field characteristic must be below 2**31, "
                f"got a {p.bit_length()}-bit integer"
            )
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise DomainError(f"field characteristic {p} is not prime")


F2 = FieldSpec(2)


class SimplicialComplex:
    """A face-closed finite set of simplices in canonical order.

    Use :func:`build_complex` to construct one; the constructor trusts its
    input to be face-closed and sorted.
    """

    def __init__(self, simplices: tuple[Simplex, ...]):
        self.simplices = simplices
        self.index = {s: i for i, s in enumerate(simplices)}
        self.dims = tuple(s.dim for s in simplices)  # per canonical id
        self.dim = max(self.dims)
        self.vertex_ids = tuple(sorted({v for s in simplices for v in s.vertices}))
        # Canonical ids of each simplex's facets, in Simplex.facets() order, so
        # facet i carries the boundary sign (-1) ** i.
        self.facet_ids = tuple(
            tuple(self.index[f] for f in s.facets()) for s in simplices
        )
        # The simplicial boundary as persistence._reduce reads it: per simplex,
        # (facet id, (-1) ** i) for its facet i.
        self.boundary = tuple(
            tuple((f, -1 if i & 1 else 1) for i, f in enumerate(ids))
            for ids in self.facet_ids
        )
        # Proper faces of each simplex as a bitmask over canonical ids; faces
        # always have smaller ids than their cofaces.
        self.face_masks = tuple(
            sum(1 << self.index[f] for f in s.proper_faces()) for s in simplices
        )
        # The odd-dimensional simplices as a bitmask over canonical ids.
        self.odd_mask = sum(1 << i for i, d in enumerate(self.dims) if d % 2)
        # The q-simplices as a bitmask over canonical ids, per q in 0..dim.
        self.dim_masks = tuple(
            sum(1 << i for i, d in enumerate(self.dims) if d == q)
            for q in range(self.dim + 1)
        )
        # Tables that other modules keep per complex, filled as they are asked
        # for. Each is keyed by the function that fills it and that function's
        # arguments other than K; its owner documents its format. None holds
        # a reference to K.
        self.tables: dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self.simplices)

    def __contains__(self, s: Simplex) -> bool:
        return s in self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)

    def euler_count(self, mask: int) -> int:
        """Sum of (-1) ** dim over the simplices of a mask of canonical ids."""
        odd = self.odd_mask
        return (mask & ~odd).bit_count() - (mask & odd).bit_count()

    def euler_characteristic(self) -> int:
        return self.euler_count((1 << len(self)) - 1)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.simplices)} simplices, dim {self.dim})"


def build_complex(maximal_simplices: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Generate the face closure of the given simplices.

    Input simplices may be unsorted and redundant; duplicate vertices within
    one simplex are rejected. An empty input is rejected ("empty complex").
    """
    seeds = [simplex(vs) for vs in maximal_simplices]
    if not seeds:
        raise DomainError("empty complex")
    closure: set[Simplex] = set()
    for s in seeds:
        closure.add(s)
        closure.update(s.proper_faces())
    ordered = tuple(sorted(closure, key=lambda s: s.sort_key))
    return SimplicialComplex(ordered)


def _vertex_signature(K: SimplicialComplex, v: int) -> tuple[int, ...]:
    """Multiset of dimensions of simplices containing v, as a sorted tuple."""
    return tuple(sorted(s.dim for s in K.simplices if v in s.vertices))


def automorphisms(K: SimplicialComplex) -> tuple[dict[int, int], ...]:
    """All vertex permutations preserving the simplex set.

    Backtracking over vertex images; candidates are pruned to vertices with
    the same star signature (multiset of incident simplex dimensions), and
    every simplex whose vertices are fully assigned must land in the complex.
    """
    verts = K.vertex_ids
    sig = {v: _vertex_signature(K, v) for v in verts}
    # For pruning, check each simplex as soon as its last vertex (in the
    # assignment order) gets an image.
    order = list(verts)
    last_pos = {
        s: max(order.index(v) for v in s.vertices) for s in K.simplices if s.dim > 0
    }
    check_at: dict[int, list[Simplex]] = {i: [] for i in range(len(order))}
    for s, pos in last_pos.items():
        check_at[pos].append(s)

    found: list[dict[int, int]] = []
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(pos: int) -> None:
        if pos == len(order):
            found.append(dict(image))
            return
        v = order[pos]
        for w in verts:
            if w in used or sig[w] != sig[v]:
                continue
            image[v] = w
            used.add(w)
            ok = all(
                Simplex(tuple(sorted(image[x] for x in s.vertices))) in K
                for s in check_at[pos]
            )
            if ok:
                extend(pos + 1)
            used.remove(w)
            del image[v]

    extend(0)
    found.sort(key=lambda g: tuple(g[v] for v in verts))
    return tuple(found)


def apply_permutation(perm: Mapping[int, int], s: Simplex) -> Simplex:
    return Simplex(tuple(sorted(perm[v] for v in s.vertices)))


def is_automorphism(K: SimplicialComplex, perm: Mapping[int, int]) -> bool:
    if sorted(perm) != list(K.vertex_ids) or sorted(perm.values()) != list(K.vertex_ids):
        return False
    return all(apply_permutation(perm, s) in K for s in K.simplices)
