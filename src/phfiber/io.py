"""JSON and DOT serialization for the command line documents.

Every document is built from JSON-native values only (dicts, lists, tuples,
strings, ints, bools, None), so dumping and re-loading is exact, but for
tuples, which are written as JSON arrays and read back as lists. Rational
numbers are rendered as "num/den" strings, endpoint symbols as the tokens
zero, one, inf, or a positive rank.

A stratum document takes each block's doc, the tuple of its simplices' vertex
tuples, from one table per complex (K.block_docs), so the documents on one
complex share those tuple objects: callers must treat documents as read-only.

dumps renders a document as json.dumps(doc, indent=2) does, byte for byte,
with its own writer: the indent sends json to its pure-Python encoder, which
took most of the time of printing a fiber. The writer covers str, int, bool,
None, list, tuple and dict with str keys, the types the documents use; any
other value (a float, a dict with a key of another type, a subclass) is
rendered by json.dumps itself and indented to its depth. Within one call it
writes each tuple of scalars and tuples once per indentation, keyed by the
object's id, not its value, and reuses the text where the same object comes
again: a fiber's hundreds of cells repeat a few dozen block docs.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .barcodes import format_barcode_type, symbol_token
from .category import MorphismClass
from .errors import DomainError, ParseError
from .fiber import FiberComplex, fiber_dimension
from .monodromy import MonodromyMap
from .simplicial import SimplicialComplex, build_complex, simplex
from .strata import BarcodeStratumRecord, FilterStratum, mask_ids, stratum_levels

MODE_TOKENS = {"all": "all", "interior_only": "interior", "lower_star": "lower-star"}


def dumps(doc) -> str:
    """The one JSON rendering used by every subcommand: the bytes of
    json.dumps(doc, indent=2) + "\n".

    Values of the exact types str, int, bool, None, list, tuple and dict with
    str keys are written here; a list of ints or of strs in one join. Any
    other value falls back to json.dumps(value, indent=2), re-indented to its
    depth (a JSON text holds no raw newline outside its indentation). A tuple
    of scalars and tuples is written once per call and indentation, and its
    text reused wherever the same object comes again at that depth: the
    memo is keyed by id, since (1,), (True,) and (1.0,) are equal but are
    written differently. A tuple holding a list, a dict or a fallback value
    is written each time, as a list is.
    """
    out: list[str] = []
    _write(doc, out, "\n", {})
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
# The text of each scalar type the writer covers, by exact type.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_STR = {str}
# The item types of a tuple whose text dumps keeps for reuse.
_SHARED = {tuple, *_SCALARS}


def _write(x, out: list, nl: str, texts: dict) -> None:
    """Append x's JSON text to out; nl is a newline plus x's indentation, and
    texts maps (id, nl) of each tuple written so far to its text."""
    t = type(x)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        out.append(scalar(x))
    elif t is tuple:
        key = (id(x), nl)
        text = texts.get(key)
        if text is not None:
            out.append(text)
        elif _SHARED.issuperset(map(type, x)):
            part: list[str] = []
            _write_array(x, part, nl, texts)
            text = texts[key] = "".join(part)
            out.append(text)
        else:
            _write_array(x, out, nl, texts)
    elif t is list:
        _write_array(x, out, nl, texts)
    elif t is dict and set(map(type, x)) <= _STR:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for k, v in x.items():
            scalar = _SCALARS.get(type(v))
            if scalar is None:
                out.append(lead + _encode_str(k) + ": ")
                _write(v, out, inner, texts)
            else:
                out.append(lead + _encode_str(k) + ": " + scalar(v))
            lead = "," + inner
        out.append(nl + "}")
    else:
        out.append(json.dumps(x, indent=2).replace("\n", nl))


def _write_array(x, out: list, nl: str, texts: dict) -> None:
    """_write for a list or tuple."""
    if not x:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "," + inner
    types = set(map(type, x))
    only = types.pop() if len(types) == 1 else None
    if only is int or only is str:
        out.append("[" + inner + sep.join(map(_SCALARS[only], x)) + nl + "]")
        return
    lead = "[" + inner
    for v in x:
        scalar = _SCALARS.get(type(v))
        if scalar is None:
            out.append(lead)
            _write(v, out, inner, texts)
        else:
            out.append(lead + scalar(v))
        lead = sep
    out.append(nl + "]")


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def complex_from_doc(doc) -> SimplicialComplex:
    """Build a complex from {"maximal_simplices": [[v, ...], ...]}."""
    if not isinstance(doc, dict) or "maximal_simplices" not in doc:
        raise ParseError('complex document must contain "maximal_simplices"')
    sims = doc["maximal_simplices"]
    well_formed = isinstance(sims, list) and all(
        isinstance(s, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in s)
        for s in sims
    )
    if not well_formed:
        raise ParseError("maximal_simplices must be a list of integer lists")
    return build_complex(sims)


def complex_doc(K: SimplicialComplex) -> dict:
    """A loadable document listing the maximal simplices."""
    maximal = [
        list(s.vertices)
        for s in K.simplices
        if not any(set(s.vertices) < set(t.vertices) for t in K.simplices)
    ]
    return {"maximal_simplices": maximal}


def load_complex(path: str) -> SimplicialComplex:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"complex file {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"complex file {path} is not UTF-8 text: {exc}") from exc
    return complex_from_doc(doc)


def stratum_doc(stratum: FilterStratum, K: SimplicialComplex) -> dict:
    """Each block as the vertex tuples of its simplices, in canonical id order.

    A block's doc is the tuple kept for its mask in K.block_docs, shared by
    every document on K: dumps writes it as a JSON array, and json reads it
    back as a list of lists.
    """
    docs = K.block_docs
    blocks = []
    for block in stratum.blocks:
        doc = docs.get(block)
        if doc is None:
            doc = docs[block] = tuple(K.simplices[i].vertices for i in mask_ids(block))
        blocks.append(doc)
    return {"blocks": blocks, "at_zero": stratum.at_zero, "at_one": stratum.at_one}


def _block_mask(K: SimplicialComplex, block, placed: int) -> int:
    """The mask of a block's simplices, none of them in `placed` or listed twice."""
    mask = 0
    for vs in block:
        s = simplex(vs)
        if s not in K:
            raise ParseError(f"stratum simplex {s} is not in the complex")
        bit = 1 << K.index[s]
        if bit & mask:
            raise ParseError(f"stratum simplex {s} is listed twice in one block")
        if bit & placed:
            raise ParseError(f"stratum simplex {s} lies in two blocks")
        mask |= bit
    return mask


def parse_stratum_doc(doc, K: SimplicialComplex) -> FilterStratum:
    """The stratum of a stratum_doc, with blocks as masks over K's ids.

    The flags must be JSON booleans, each simplex must be listed once, and
    the blocks must be a stratum of K (strata.stratum_levels): they cover K,
    and no simplex comes before one of its faces.
    """
    try:
        flags = doc["at_zero"], doc["at_one"]
        blocks = []
        placed = 0
        for block in doc["blocks"]:
            blocks.append(_block_mask(K, block, placed))
            placed |= blocks[-1]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed stratum document: {exc}") from exc
    if not all(isinstance(f, bool) for f in flags):
        raise ParseError(
            f"malformed stratum document: at_zero and at_one must be true or false, "
            f"got {flags}"
        )
    try:
        stratum = FilterStratum(tuple(blocks), *flags)
        stratum_levels(K, stratum)
    except DomainError as exc:
        raise ParseError(f"not a stratum of this complex: {exc}") from exc
    return stratum


def strata_doc(K: SimplicialComplex, strata: Iterable[FilterStratum]) -> list:
    return [stratum_doc(st, K) for st in strata]


def image_doc(records: Iterable[BarcodeStratumRecord]) -> list:
    return [
        {
            "barcode_type": format_barcode_type(r.barcode_type),
            "member_ids": list(r.member_ids),
            "codim": r.codim,
            "bounded_deficit": fraction_str(r.bounded_deficit),
        }
        for r in records
    ]


def fiber_doc(fc: FiberComplex) -> dict:
    m = fc.barcode_type.dim
    return {
        "barcode_type": format_barcode_type(fc.barcode_type),
        "field": fc.field.characteristic,
        "mode": MODE_TOKENS[fc.mode],
        "cells": [
            {"id": i, "dim": c.dim, "stratum": stratum_doc(c.stratum, fc.complex)}
            for i, c in enumerate(fc.cells)
        ],
        "face_relation": [list(pair) for pair in fc.face_relation],
        "gap_shapes": [c.gap_shape for c in fc.cells],
        "vertices": [
            {
                "cell": i,
                "rank_vector": [
                    symbol_token(s, m) for s in fc.cells[i].rank_vector
                ],
            }
            for i in fc.zero_cells()
        ],
    }


def _bar_tokens(bar: tuple[int, int], m: int) -> list[str]:
    return [symbol_token(bar[0], m), symbol_token(bar[1], m)]


def morphism_class_doc(cls: MorphismClass) -> dict:
    ms, mt = cls.source.dim, cls.target.dim
    return {
        "source": format_barcode_type(cls.source),
        "target": format_barcode_type(cls.target),
        "representative": [symbol_token(r, mt) for r in cls.representative.rank_images],
        "index": [list(part) for part in cls.index],
        "bar_matching": [
            [
                {
                    "bar": _bar_tokens(bar, ms),
                    "image": None if img is None else _bar_tokens(img, mt),
                }
                for bar, img in deg
            ]
            for deg in cls.bar_matching
        ],
        "is_identity": cls.is_identity,
    }


def morphisms_doc(classes: Iterable[MorphismClass]) -> list:
    return [morphism_class_doc(c) for c in classes]


def monodromy_doc(mm: MonodromyMap) -> dict:
    return {
        "vertex_map": [list(pair) for pair in mm.vertex_map],
        "cell_map": list(mm.cell_map),
        "collapsed_cells": list(mm.collapsed_cells),
        "surviving_cells": list(mm.surviving_cells),
    }


def bounds_doc(rows) -> list:
    return [
        {
            "barcode_type": format_barcode_type(r.barcode_type),
            "fiber_dim": r.fiber_dim,
            "bounded_deficit": fraction_str(r.bounded_deficit),
            "codim": r.codim,
            "tight": r.tight,
        }
        for r in rows
    ]


def essential_doc(essential: bool, witness) -> dict:
    return {
        "essential": essential,
        "removable_subset": None
        if witness is None
        else [list(s.vertices) for s in witness],
    }


def symmetries_doc(
    fc: FiberComplex,
    perms: Sequence[dict],
    actions: Sequence[tuple[int, ...]],
    orbits: Sequence[tuple[int, ...]],
) -> dict:
    return {
        "barcode_type": format_barcode_type(fc.barcode_type),
        "automorphisms": [
            {"permutation": [[v, perm[v]] for v in sorted(perm)], "cells": list(action)}
            for perm, action in zip(perms, actions)
        ],
        "orbits": [list(o) for o in orbits],
    }


def emit_dot(fc: FiberComplex) -> str:
    """DOT text for the fiber's graph, nodes labeled by rank vectors.

    The nodes are the 0-cells, numbered in rank vector order, and the edges
    join the pointwise comparable pairs of 0-faces of a cell: the edges of its
    staircase triangulation, since a cell's 0-faces form a product of chains
    and every chain in it extends to a maximal one. For fibers of dimension
    at most 1 this is the whole fiber; otherwise only this 1-skeleton is
    drawn and a comment line says so.
    """
    m = fc.barcode_type.dim
    lines = ["graph fiber {"]
    d = fiber_dimension(fc)
    if d > 1:
        lines.append(f"  // 1-skeleton only: fiber dimension {d}")
    vertices = sorted(fc.cells[i].rank_vector for i in fc.zero_cells())
    vid = {v: k for k, v in enumerate(vertices)}
    for k, vec in enumerate(vertices):
        label = ",".join(symbol_token(s, m) for s in vec)
        lines.append(f'  n{k} [label="({label})"];')
    edges = set()
    for j in range(len(fc.cells)):
        ids = sorted(vid[fc.cells[i].rank_vector] for i in fc.zero_faces_of(j))
        # In rank vector order a comparable pair has its lower vector first.
        edges.update(
            (a, b) for a, b in combinations(ids, 2)
            if all(s <= t for s, t in zip(vertices[a], vertices[b]))
        )
    for a, b in sorted(edges):
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
