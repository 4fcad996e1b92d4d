"""Command line interface.

Exit codes: 0 when everything passed, 1 when any check failed, 2 for
usage errors, malformed input, exceeded capacity or memory, or an
output that cannot be written (including a reader that closed the pipe).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Only the modules the light commands share are imported here.  The
# commands that need maps, the generators or the check suite import
# them in their own body, so ``stats``, ``powerdomain`` and ``iterate``
# never load (or compile) those modules.
from .docio import (
    document_of_poset,
    load_document,
    powerdomain_to_dot,
)
from .errors import SmythError
from .poset import dimension, is_chain, iter_bits
from .powerdomain import (
    build,
    hat_powerdomain,
    inverse_powerdomain,
    is_phi_surjective,
    iterate_sizes,
    powerdomain_dimension,
)


def _space_for(path: str, hat: bool, inverse: bool):
    poset = load_document(path).to_poset()
    if hat:
        return hat_powerdomain(poset)
    if inverse:
        return inverse_powerdomain(poset)
    return build(poset)


def _cmd_powerdomain(args: argparse.Namespace) -> int:
    space = _space_for(args.file, args.hat, args.inverse)
    print(f"points: {len(space.points)}")
    print(f"dimension: {powerdomain_dimension(space)}")
    for index in range(len(space.points)):
        print(f"{index}: {space.point_label(index)}")
    if args.dot is not None:
        try:
            Path(args.dot).write_text(powerdomain_to_dot(space))
        except OSError as exc:
            raise SmythError(f"cannot write {args.dot}: {exc}") from exc
        print(f"dot: {args.dot}")
    return 0


def _parse_assignment(text: str, n: int) -> tuple[int, ...]:
    image = [-1] * n
    for piece in text.split(","):
        left, sep, right = piece.partition(":")
        if not sep:
            raise SmythError(f"bad assignment entry {piece!r}; want i:j")
        try:
            i, j = int(left), int(right)
        except ValueError as exc:
            raise SmythError(f"bad assignment entry {piece!r}") from exc
        if not 0 <= i < n:
            raise SmythError(f"source index {i} is out of range")
        if j < 0:
            raise SmythError(f"target index {j} is out of range")
        if image[i] != -1:
            raise SmythError(f"source index {i} is assigned twice")
        image[i] = j
    if -1 in image:
        raise SmythError("every source element needs an assignment")
    return tuple(image)


def _cmd_map_apply(args: argparse.Namespace) -> int:
    from .maps import MonotoneMap, powerdomain_map

    source = load_document(args.file_src).to_poset()
    target = load_document(args.file_dst).to_poset()
    image = _parse_assignment(args.assign, source.n)
    base_map = MonotoneMap(source, target, image)
    induced = powerdomain_map(base_map)
    source_space = build(source)
    target_space = build(target)
    for index in range(len(source_space.points)):
        left = source_space.point_label(index)
        right = target_space.point_label(induced.image[index])
        print(f"{left} -> {right}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .suite import check_payload

    payload = load_document(args.file).to_payload()
    reports = check_payload(payload, args.suite)
    ok = True
    for report in reports:
        print(report.to_json())
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .generators import all_posets

    for poset in all_posets(args.n):
        print(json.dumps(document_of_poset(poset).to_payload(), sort_keys=True))
    return 0


def _cmd_iterate(args: argparse.Namespace) -> int:
    poset = load_document(args.file).to_poset()
    sizes = iterate_sizes(poset, args.k, args.capacity)
    print("sizes: " + " ".join(str(s) for s in sizes))
    if len(sizes) <= args.k:
        print("capacity reached before the requested depth", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    poset = load_document(args.file).to_poset()
    space = build(poset)
    print(f"n: {poset.n}")
    print(f"covers: {len(poset.cover_pairs())}")
    print(f"dimension: {dimension(poset)}")
    print(f"chain: {is_chain(poset)}")
    # the opens are the points and the empty set
    print(f"opens: {len(space.points) + 1}")
    print(f"points: {len(space.points)}")
    print(f"powerdomain_dimension: {powerdomain_dimension(space)}")
    print(f"phi_onto: {is_phi_surjective(space)}")
    preview = [list(iter_bits(mask)) for mask in space.points[:8]]
    print(f"powerdomain_points_preview: {preview}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smyth",
        description="Powerdomains of finite spectral spaces, with checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("powerdomain", help="build and print a powerdomain")
    p.add_argument("file")
    variant = p.add_mutually_exclusive_group()
    variant.add_argument("--hat", action="store_true",
                         help="include the empty set as a bottom point")
    variant.add_argument("--inverse", action="store_true",
                         help="build on the order dual (points are up-sets)")
    p.add_argument("--dot", metavar="OUT", default=None,
                   help="also write the order as a DOT digraph")
    p.set_defaults(func=_cmd_powerdomain)

    m = sub.add_parser("map", help="operations on monotone maps")
    msub = m.add_subparsers(dest="map_command", required=True)
    ma = msub.add_parser("apply", help="print the induced powerdomain map")
    ma.add_argument("file_src")
    ma.add_argument("file_dst")
    ma.add_argument("--assign", required=True, metavar="i:j,...",
                    help="comma-separated element assignments")
    ma.set_defaults(func=_cmd_map_apply)

    c = sub.add_parser("check", help="run property checks on a poset file")
    c.add_argument("file")
    c.add_argument("--suite", choices=("embedding", "functor", "sigma", "all"),
                   default="all")
    c.set_defaults(func=_cmd_check)

    e = sub.add_parser("enumerate-posets", help="list all labeled posets")
    e.add_argument("--n", type=int, required=True)
    e.set_defaults(func=_cmd_enumerate)

    i = sub.add_parser("iterate", help="sizes of the iterated construction")
    i.add_argument("file")
    i.add_argument("--k", type=int, required=True)
    i.add_argument("--capacity", type=int, default=None)
    i.set_defaults(func=_cmd_iterate)

    s = sub.add_parser("stats", help="summary facts about a poset file")
    s.add_argument("file")
    s.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except SmythError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:
        # The output cannot be written: a full device, or a reader that
        # closed the pipe (``smyth ... | head -1``), which is no error to
        # report.  Point stdout at devnull so the interpreter's final
        # flush of what is still buffered does not raise again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
