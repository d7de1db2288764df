"""Combinatorial barcode types and monotone endpoint maps between them.

A barcode with rational endpoints is reduced to its combinatorial type by
remembering only the order of its endpoint values: 0 and 1 become the symbols
ZERO and ONE, the distinct endpoints strictly inside (0, 1) become ranks
1..m in increasing order, and infinity becomes INF. Symbols are encoded as
integers relative to m:

    ZERO = 0 < 1 < ... < m < ONE = m + 1 < INF = m + 2

so bars compare correctly as plain int pairs. Two filters lie over the same
point of the quotient of barcode space by increasing reparametrizations of
[0, 1] exactly when their types are equal.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import DomainError, ParseError
from .persistence import INF, TotalBarcode

ZERO = 0


@dataclass(frozen=True)
class CombinatorialBarcode:
    """The order type of a total barcode.

    dim is the number of distinct interior endpoint values (the ranks), and
    degrees holds one sorted tuple of encoded (birth, death) pairs per
    homology degree, with trailing empty degrees trimmed.
    """

    dim: int
    degrees: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        m = self.dim
        one, inf = m + 1, m + 2
        seen_ranks: set[int] = set()
        for deg in self.degrees:
            if tuple(sorted(deg)) != deg:
                raise DomainError("barcode type bars must be sorted within a degree")
            for birth, death in deg:
                if not (0 <= birth <= one and birth < death <= inf):
                    raise DomainError(
                        f"barcode type bar ({birth}, {death}) out of range for dim {m}"
                    )
                seen_ranks.update(r for r in (birth, death) if 1 <= r <= m)
        if self.degrees and not self.degrees[-1]:
            raise DomainError("barcode type has a trailing empty degree")
        if seen_ranks != set(range(1, m + 1)):
            missing = sorted(set(range(1, m + 1)) - seen_ranks)
            raise DomainError(f"barcode type does not use interior ranks {missing}")

    @property
    def one(self) -> int:
        return self.dim + 1

    @property
    def inf(self) -> int:
        return self.dim + 2

    def finite_endpoint_count(self) -> int:
        """Endpoints with finite value, counted with multiplicity."""
        return sum(
            (1 if d == self.inf else 2) for deg in self.degrees for _, d in deg
        )

    def __str__(self) -> str:
        return format_barcode_type(self)


def canonicalize_barcode(barcode: TotalBarcode, one=1) -> CombinatorialBarcode:
    """Collapse a barcode to its combinatorial type.

    Finite endpoints lie between 0 and `one`, the value standing for 1: pass
    1 for a filter's rational barcode and m + 1 for a barcode of integer
    levels 0..m + 1. Deaths may also be INF.
    """
    interior = sorted(
        {e for deg in barcode for bar in deg for e in bar if 0 < e < one}
    )
    m = len(interior)
    symbol = {v: rank for rank, v in enumerate(interior, start=1)}
    symbol.update({0: ZERO, one: m + 1, INF: m + 2})
    degrees = [tuple(sorted((symbol[b], symbol[d]) for b, d in deg)) for deg in barcode]
    while degrees and not degrees[-1]:
        degrees.pop()
    return CombinatorialBarcode(m, tuple(degrees))


def symbol_token(sym: int, m: int) -> str:
    if sym == ZERO:
        return "zero"
    if sym == m + 1:
        return "one"
    if sym == m + 2:
        return "inf"
    if 1 <= sym <= m:
        return str(sym)
    raise DomainError(f"symbol {sym} out of range for dim {m}")


def format_barcode_type(T: CombinatorialBarcode) -> str:
    """Render as e.g. "0:(1,inf),(2,3);1:(4,inf)", skipping empty degrees."""
    parts = []
    for p, deg in enumerate(T.degrees):
        if not deg:
            continue
        bars = ",".join(
            f"({symbol_token(b, T.dim)},{symbol_token(d, T.dim)})" for b, d in deg
        )
        parts.append(f"{p}:{bars}")
    return ";".join(parts)


def _parse_symbol(token: str) -> object:
    """Return "zero"/"one"/"inf" or an int rank; reject anything else."""
    token = token.strip()
    if token in ("zero", "one", "inf"):
        return token
    if re.fullmatch("[0-9]+", token) and int(token) > 0:  # ASCII digits only
        return int(token)
    raise ParseError(f"unknown barcode token {token!r}")


def parse_barcode_type(text: str) -> CombinatorialBarcode:
    """Parse the degree-prefixed bar list syntax used on the command line.

    Example: "0:(zero,inf),(1,2);1:(3,inf)". Tokens are zero, one, inf, or a
    positive integer rank; the ranks present must be exactly 1..m. Ranks and
    degrees are written in ASCII digits.
    """
    text = text.strip()
    if not text:
        raise ParseError("unknown barcode token '' (empty type string)")
    raw: dict[int, list[tuple[object, object]]] = {}
    for chunk in text.split(";"):
        if ":" not in chunk:
            raise ParseError(f"unknown barcode token {chunk!r} (expected degree prefix)")
        head, _, body = chunk.partition(":")
        head = head.strip()
        if not re.fullmatch("[0-9]+", head):  # int() also takes "1_0" and non-ASCII digits
            raise ParseError(f"unknown barcode token {head!r}")
        degree = int(head)
        if degree in raw:
            raise ParseError(f"unknown barcode token {head!r} (bad degree)")
        bars = []
        body = body.strip()
        if not re.fullmatch(r"\s*\([^()]*\)(\s*,\s*\([^()]*\))*\s*", body):
            raise ParseError(f"unknown barcode token {body!r} (expected (a,b) list)")
        for pair in re.findall(r"\(([^()]*)\)", body):
            pieces = pair.split(",")
            if len(pieces) != 2:
                raise ParseError(f"unknown barcode token ({pair})")
            bars.append((_parse_symbol(pieces[0]), _parse_symbol(pieces[1])))
        raw[degree] = bars
    ranks = sorted(
        {s for bars in raw.values() for bar in bars for s in bar if isinstance(s, int)}
    )
    m = max(ranks) if ranks else 0
    if ranks != list(range(1, m + 1)):
        missing = sorted(set(range(1, m + 1)) - set(ranks))
        raise ParseError(f"unknown barcode token {missing[0]} (rank never used)")

    def enc(sym: object) -> int:
        if sym == "zero":
            return ZERO
        if sym == "one":
            return m + 1
        if sym == "inf":
            return m + 2
        return int(sym)  # type: ignore[arg-type]

    top = max(raw) if raw else -1
    degrees = []
    for p in range(top + 1):
        bars = raw.get(p, [])
        degrees.append(tuple(sorted((enc(b), enc(d)) for b, d in bars)))
    while degrees and not degrees[-1]:
        degrees.pop()
    return CombinatorialBarcode(m, tuple(degrees))


def realize_type(T: CombinatorialBarcode, interior_values: tuple[Fraction, ...] | None = None):
    """Bars with rational endpoints, rank i placed at interior_values[i-1].

    Defaults to the evenly spaced representative i/(m+1). Returns a tuple of
    per-degree bar tuples like a TotalBarcode.
    """
    m = T.dim
    if interior_values is None:
        interior_values = tuple(Fraction(i, m + 1) for i in range(1, m + 1))
    if len(interior_values) != m or any(
        not 0 < v < 1 for v in interior_values
    ) or sorted(set(interior_values)) != list(interior_values):
        raise DomainError("interior endpoint values must be strictly increasing in (0,1)")
    values = {ZERO: Fraction(0), T.one: Fraction(1), T.inf: INF}
    for i, v in enumerate(interior_values, start=1):
        values[i] = v
    return tuple(
        tuple((values[b], values[d]) for b, d in deg) for deg in T.degrees
    )


@dataclass(frozen=True)
class EndpointMap:
    """A monotone map of endpoint symbols fixing ZERO, ONE, and INF.

    rank_images[i-1] is the image of source rank i, a finite symbol of the
    target encoding (ZERO, a target rank, or ONE).
    """

    source_dim: int
    target_dim: int
    rank_images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rank_images) != self.source_dim:
            raise DomainError("endpoint map must assign every source rank")
        hi = self.target_dim + 1
        for a, b in zip(self.rank_images, self.rank_images[1:]):
            if a > b:
                raise DomainError("endpoint map must be monotone on ranks")
        if any(not ZERO <= r <= hi for r in self.rank_images):
            raise DomainError("endpoint map rank image out of range")

    def __call__(self, sym: int) -> int:
        if sym == ZERO:
            return ZERO
        if sym == self.source_dim + 1:
            return self.target_dim + 1
        if sym == self.source_dim + 2:
            return self.target_dim + 2
        if 1 <= sym <= self.source_dim:
            return self.rank_images[sym - 1]
        raise DomainError(f"symbol {sym} out of range for dim {self.source_dim}")

    @property
    def is_simplicial(self) -> bool:
        """True when consecutive symbols map to equal or consecutive symbols.

        Such a map sends each edge of the interval subdivided by the source
        endpoints onto a vertex or an edge of the target subdivision, so it
        carries fiber cells onto fiber cells.
        """
        syms = (ZERO, *self.rank_images, self.target_dim + 1)
        return all(b - a in (0, 1) for a, b in zip(syms, syms[1:]))


def identity_endpoint_map(T: CombinatorialBarcode) -> EndpointMap:
    return EndpointMap(T.dim, T.dim, tuple(range(1, T.dim + 1)))


def compose_endpoint_maps(outer: EndpointMap, inner: EndpointMap) -> EndpointMap:
    if inner.target_dim != outer.source_dim:
        raise DomainError("endpoint maps do not compose: dimension mismatch")
    return EndpointMap(
        inner.source_dim,
        outer.target_dim,
        tuple(outer(r) for r in inner.rank_images),
    )


def map_bars_raw(phi: EndpointMap, T: CombinatorialBarcode):
    """Image bars in the target encoding, before any re-ranking.

    Returns (degrees, matching) where matching records, per degree, the image
    of each distinct source bar (None when the bar collapses).
    """
    degrees = []
    matching = []
    for deg in T.degrees:
        out = []
        deg_match = []
        for bar in sorted(set(deg)):
            b, d = bar
            ib, id_ = phi(b), phi(d)
            image = (ib, id_) if ib != id_ else None
            deg_match.append((bar, image))
        for b, d in deg:
            ib, id_ = phi(b), phi(d)
            if ib != id_:
                out.append((ib, id_))
        degrees.append(tuple(sorted(out)))
        matching.append(tuple(deg_match))
    while degrees and not degrees[-1]:
        degrees.pop()
    return tuple(degrees), tuple(matching)


def apply_endpoint_map_to_type(
    phi: EndpointMap, T: CombinatorialBarcode
) -> CombinatorialBarcode:
    """Push a type forward: map endpoints, drop collapsed bars, re-canonicalize.

    Target ranks that end up unused by any surviving bar are removed by
    re-ranking, so the result is again a canonical type.
    """
    if phi.source_dim != T.dim:
        raise DomainError("endpoint map does not match the type's dimension")
    degrees, _ = map_bars_raw(phi, T)
    inf = phi.target_dim + 2
    bars = [[(b, INF if d == inf else d) for b, d in deg] for deg in degrees]
    return canonicalize_barcode(bars, phi.target_dim + 1)


def all_endpoint_maps(source_dim: int, target_dim: int):
    """All monotone rank assignments into the finite target symbols."""
    symbols = range(ZERO, target_dim + 2)
    for images in combinations_with_replacement(symbols, source_dim):
        yield EndpointMap(source_dim, target_dim, images)
