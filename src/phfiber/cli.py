"""Command line interface, one subcommand per pipeline stage.

Exit codes: 0 on success, 1 when the input is outside the mathematical domain
(including unparsable barcode types and complex files), 2 on usage errors.
Output goes to stdout, diagnostics to stderr. Every command runs in one
thread: every barcode, Betti number, inclusion rank and removability test
comes from the one exact sparse column reduction, persistence._reduce, and
image grouping and the fiber walk both type strata by one table of
inclusion ranks, so output bytes depend only on the arguments.
"""
from __future__ import annotations

import argparse
import sys

from . import fiber, io, strata
from .barcodes import parse_barcode_type
from .category import enumerate_morphism_classes, morphism_class_between
from .errors import DomainError
from .fiber import (
    check_dimension_bound,
    fiber_complex,
    fiber_homology,
    triangulate_fiber,
)
from .monodromy import monodromy_map
from .simplicial import FieldSpec, automorphisms
from .strata import enumerate_filter_strata, group_strata_by_barcode
from .structure import (
    DEFAULT_BUDGET,
    fiber_symmetry_orbits,
    find_removable_subset,
    symmetry_action_on_fiber,
)

# CLI token -> internal mode name, from the one token table in io.
STRATUM_MODES = {io.MODE_TOKENS[mode]: mode for mode in strata.MODES}
FIBER_MODES = {io.MODE_TOKENS[mode]: mode for mode in fiber.FIBER_MODES}


def _field(args) -> FieldSpec:
    return FieldSpec(args.field)


def _cmd_strata(args) -> str:
    K = io.load_complex(args.complex)
    _field(args)
    strata = enumerate_filter_strata(K, STRATUM_MODES[args.mode])
    return io.dumps(io.strata_doc(K, strata))


def _cmd_image(args) -> str:
    K = io.load_complex(args.complex)
    field = _field(args)
    strata = enumerate_filter_strata(K, STRATUM_MODES[args.mode])
    return io.dumps(io.image_doc(group_strata_by_barcode(K, strata, field)))


def _cmd_fiber(args) -> str:
    K = io.load_complex(args.complex)
    T = parse_barcode_type(args.barcode)
    fc = fiber_complex(K, T, _field(args), FIBER_MODES[args.mode])
    if args.emit_dot:
        return io.emit_dot(triangulate_fiber(fc))
    return io.dumps(io.fiber_doc(fc))


def _cmd_homology(args) -> str:
    K = io.load_complex(args.complex)
    T = parse_barcode_type(args.barcode)
    field = _field(args)
    fc = fiber_complex(K, T, field, FIBER_MODES[args.mode])
    return io.dumps(list(fiber_homology(triangulate_fiber(fc), field)))


def _cmd_morphisms(args) -> str:
    io.load_complex(args.complex)
    _field(args)
    classes = enumerate_morphism_classes(
        parse_barcode_type(args.source), parse_barcode_type(args.target)
    )
    return io.dumps(io.morphisms_doc(classes))


def _cmd_monodromy(args) -> str:
    K = io.load_complex(args.complex)
    T = parse_barcode_type(args.source)
    Tp = parse_barcode_type(args.target)
    field = _field(args)
    mode = FIBER_MODES[args.mode]
    cls = morphism_class_between(T, Tp, args.class_index)
    fc = fiber_complex(K, T, field, mode)
    fc_target = fiber_complex(K, Tp, field, mode)
    return io.dumps(io.monodromy_doc(monodromy_map(K, fc, fc_target, cls)))


def _cmd_check_bounds(args) -> str:
    K = io.load_complex(args.complex)
    field = _field(args)
    strata = enumerate_filter_strata(K, STRATUM_MODES[args.mode])
    records = group_strata_by_barcode(K, strata, field)
    return io.dumps(io.bounds_doc(check_dimension_bound(K, records, field)))


def _cmd_essential(args) -> str:
    K = io.load_complex(args.complex)
    witness = find_removable_subset(K, _field(args), args.budget)
    return io.dumps(io.essential_doc(witness is None, witness))


def _cmd_symmetries(args) -> str:
    K = io.load_complex(args.complex)
    fc = fiber_complex(K, parse_barcode_type(args.barcode), _field(args))
    perms = automorphisms(K)
    actions = [symmetry_action_on_fiber(fc, g) for g in perms]
    return io.dumps(io.symmetries_doc(fc, perms, actions, fiber_symmetry_orbits(fc)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phfiber",
        description="Strata and fibers of the persistence map "
        "on a fixed simplicial complex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("complex", help="JSON file with a maximal_simplices list")
        p.add_argument(
            "--field",
            type=int,
            default=2,
            metavar="P",
            help="prime field characteristic for homology (default 2)",
        )
        p.set_defaults(handler=handler)
        return p

    p = add("strata", _cmd_strata, "enumerate filter strata")
    p.add_argument("--mode", choices=sorted(STRATUM_MODES), default="interior")

    p = add("image", _cmd_image, "group filter strata by barcode type")
    p.add_argument("--mode", choices=sorted(STRATUM_MODES), default="interior")

    p = add("fiber", _cmd_fiber, "cells and faces of the fiber over a barcode type")
    p.add_argument("--barcode", required=True, help="barcode type string")
    p.add_argument("--mode", choices=sorted(FIBER_MODES), default="all")
    p.add_argument(
        "--emit-dot",
        action="store_true",
        help="write the fiber's graph as DOT instead of JSON",
    )

    p = add("homology", _cmd_homology, "Betti numbers of the fiber over a type")
    p.add_argument("--barcode", required=True, help="barcode type string")
    p.add_argument("--mode", choices=sorted(FIBER_MODES), default="all")

    p = add("morphisms", _cmd_morphisms, "homotopy classes between two types")
    p.add_argument("--from", dest="source", required=True, metavar="TYPE")
    p.add_argument("--to", dest="target", required=True, metavar="TYPE")

    p = add("monodromy", _cmd_monodromy, "fiber map induced by a morphism class")
    p.add_argument("--from", dest="source", required=True, metavar="TYPE")
    p.add_argument("--to", dest="target", required=True, metavar="TYPE")
    p.add_argument(
        "--class",
        dest="class_index",
        type=int,
        default=0,
        metavar="K",
        help="index into the enumerated classes (default 0)",
    )
    p.add_argument("--mode", choices=sorted(FIBER_MODES), default="all")

    p = add("check-bounds", _cmd_check_bounds, "fiber dimension bound sweep")
    p.add_argument("--mode", choices=sorted(STRATUM_MODES), default="interior")

    p = add("essential", _cmd_essential, "search for a removable subset")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help=f"candidate subset limit (default {DEFAULT_BUDGET})",
    )

    p = add("symmetries", _cmd_symmetries, "automorphism action on a fiber")
    p.add_argument("--barcode", required=True, help="barcode type string")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        sys.stdout.write(args.handler(args))
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
