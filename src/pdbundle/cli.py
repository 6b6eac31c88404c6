"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad input), 2 internal invariant
violation. All outputs are canonical JSON (sorted keys) or CSV, so equal
inputs produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, List, Optional

from .complexes import (
    InvariantError,
    SimplexIndexing,
    ValidationError,
    as_fraction,
    monotonicity_violations,
    value_order,
)
from .generators import gen_image_fibration, gen_instability, gen_monodromy
from .persistence import reduce_pairs
from .serialize import (
    canonical_dumps,
    diagrams_to_json,
    fibration_from_json,
    fibration_to_json,
    filtered_complex_from_json,
    mapping_to_json,
    monodromy_to_json,
    sections_to_json,
    sheaf_to_json,
    stratification_to_json,
    vines_to_csv,
)
from .sheaf import (
    build_sheaf,
    bundle_section,
    monodromy_scan,
    sections_by_component,
)
from .stratify import build_stratification, merge_cells, point_numerators
from .vineyard import path_vineyard


def _read_json(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # bad JSON, an int too long to read, or not UTF-8
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc


def _load_stratification(args: argparse.Namespace):
    strat = build_stratification(fibration_from_json(_read_json(args.input)))
    if args.merge_cells:
        strat = merge_cells(strat)
    return strat


def cmd_ph(args: argparse.Namespace) -> None:
    obj = _read_json(args.input)
    if not isinstance(obj, dict) or obj.get("simplices") is None:
        raise ValidationError("input: missing key 'simplices'")
    K, values = filtered_complex_from_json(obj)
    problems = list(monotonicity_violations(K, values))
    if problems:
        raise ValidationError("; ".join(problems))
    # monotone, so the value order is the induced indexing
    pairs = reduce_pairs(K, SimplexIndexing(value_order(values)))
    _write_text(args.output, canonical_dumps(diagrams_to_json(K, pairs, values)))


def cmd_stratify(args: argparse.Namespace) -> None:
    strat = _load_stratification(args)
    _write_text(args.output, canonical_dumps(stratification_to_json(strat)))


def cmd_sheaf(args: argparse.Namespace) -> None:
    strat = _load_stratification(args)
    sheaf = build_sheaf(strat, degree=args.degree)
    _write_text(args.output, canonical_dumps(sheaf_to_json(sheaf)))


def cmd_sections(args: argparse.Namespace) -> None:
    strat = _load_stratification(args)
    sheaf = build_sheaf(strat, degree=args.degree)
    by_component = sections_by_component(sheaf)
    out = sections_to_json(sheaf, by_component)
    # a section is its component's root element: one exact certificate per
    # component against the fibration makes the same checks for each section
    checks = out["continuity_checks_per_section"] = []
    for component in by_component:
        if component[2]:
            checks += [bundle_section(sheaf, component, seed=args.seed)] * len(component[2])
    _write_text(args.output, canonical_dumps(out))


def cmd_monodromy(args: argparse.Namespace) -> None:
    strat = _load_stratification(args)
    sheaf = build_sheaf(strat, degree=args.degree)
    report = monodromy_scan(sheaf)
    _write_text(args.output, canonical_dumps(monodromy_to_json(sheaf, report)))


def cmd_vineyard(args: argparse.Namespace) -> None:
    fib = fibration_from_json(_read_json(args.input))
    pts = _read_json(args.path)
    if not isinstance(pts, list) or not pts:
        raise ValidationError("--path must be a non-empty JSON list of points")
    samples = []
    for p in pts:
        if not isinstance(p, list) or len(p) != 2:
            raise ValidationError(f"bad path point {p!r}")
        samples.append(point_numerators(fib, (as_fraction(p[0]), as_fraction(p[1]))))
    vines, loop = path_vineyard(fib.complex, samples)
    _write_text(args.output, vines_to_csv(fib.complex, vines))
    loop_json = {
        "loop_permutation": mapping_to_json(fib.complex, loop.mapping),
        "nontrivial": any(k != v for k, v in loop.mapping.items()),
    }
    sys.stdout.write(canonical_dumps(loop_json))


def cmd_gen_monodromy(args: argparse.Namespace) -> None:
    fib = gen_monodromy()
    _write_text(args.output, canonical_dumps(fibration_to_json(fib)))


def cmd_gen_instability(args: argparse.Namespace) -> None:
    report = gen_instability(as_fraction(args.epsilon), as_fraction(args.gap))
    _write_text(args.output, canonical_dumps(report))


def cmd_gen_image(args: argparse.Namespace) -> None:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:   # not UTF-8
        raise ValidationError(f"{args.input} is not UTF-8 text: {exc}") from exc
    fib, metadata = gen_image_fibration(text)
    _write_text(args.output, canonical_dumps(fibration_to_json(fib, metadata)))


COMMANDS = {
    "ph": (cmd_ph, "persistence diagrams of a filtered complex file"),
    "stratify": (cmd_stratify, "stratify the base space of a fibration file"),
    "sheaf": (cmd_sheaf, "build the cellular sheaf"),
    "sections": (cmd_sections, "enumerate global sections of the sheaf"),
    "monodromy": (cmd_monodromy, "loop permutations and obstructed seeds"),
    "vineyard": (cmd_vineyard, "vineyard along a sampled base path (CSV)"),
    "gen-monodromy": (cmd_gen_monodromy, "emit the monodromy example fibration"),
    "gen-instability": (cmd_gen_instability,
                        "vineyard instability report for given epsilon and gap"),
    "gen-image": (cmd_gen_image, "fibration from a plain-text P3 PPM image"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call of `main` shares it."""
    parser = argparse.ArgumentParser(
        prog="pdbundle",
        description="persistence-diagram bundles over triangulated planar bases")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name.startswith("gen-"):
            if name == "gen-image":
                p.add_argument("--input", required=True, help="P3 PPM file")
            if name == "gen-instability":
                p.add_argument("--epsilon", default="1/10",
                               help="filtration perturbation bound (rational)")
                p.add_argument("--gap", default="10",
                               help="vine separation to certify (rational)")
        else:
            p.add_argument("--input", required=True, help="input JSON file")
        if name in ("sheaf", "sections", "monodromy"):
            p.add_argument("--degree", default="1",
                           help="homology degree for the stalks, or 'all'")
        if name in ("stratify", "sheaf", "sections", "monodromy"):
            p.add_argument("--merge-cells", action="store_true",
                           help="merge equal-order cells across walls")
        if name == "sections":
            p.add_argument("--seed", type=int, default=0,
                           help="seed of the certificate's random boundary points")
        if name == "vineyard":
            p.add_argument("--path", required=True,
                           help="JSON file with a list of [x, y] base points")
        p.add_argument("--output", default=None,
                       help="output file (stdout when omitted)")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Read --degree as an integer, or None for 'all', and reject option
    values out of range; raises ValidationError."""
    if hasattr(args, "degree"):
        if args.degree == "all":
            args.degree = None
        else:
            try:
                args.degree = int(args.degree)
            except ValueError:
                raise ValidationError(f"--degree must be an integer or 'all', "
                                      f"got {args.degree!r}")
            if args.degree < 0:
                raise ValidationError("--degree must be >= 0")
    if hasattr(args, "epsilon"):
        if as_fraction(args.epsilon) <= 0:
            raise ValidationError("--epsilon must be > 0")
        if as_fraction(args.gap) <= 0:
            raise ValidationError("--gap must be > 0")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        COMMANDS[args.command][0](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantError, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
