"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad input), 2 internal invariant
violation. All outputs are canonical JSON (sorted keys) or CSV, so equal
inputs produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from .complexes import ValidationError, as_fraction, validate
from .generators import gen_image_fibration, gen_instability, gen_monodromy
from .persistence import reduce_pairs
from .complexes import induced_indexing
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
    InvariantError,
    build_sheaf,
    bundle_section,
    connected_components,
    enumerate_global_sections,
    monodromy_scan,
)
from .stratify import build_stratification, filtration_at, merge_cells
from .vineyard import path_vineyard


@dataclass
class RunConfig:
    command: str
    input: Optional[str] = None
    output: Optional[str] = None
    degree: Optional[int] = 1
    samples: int = 3
    seed: int = 0
    merge: bool = False
    epsilon: str = "1/10"
    gap: str = "10"
    path: Optional[str] = None

    def check(self) -> None:
        if self.degree is not None and self.degree < 0:
            raise ValidationError("--degree must be >= 0")
        if self.samples < 1:
            raise ValidationError("--samples must be >= 1")
        if as_fraction(self.epsilon) <= 0:
            raise ValidationError("--epsilon must be > 0")
        if as_fraction(self.gap) <= 0:
            raise ValidationError("--gap must be > 0")


def _read_json(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_stratification(cfg: RunConfig):
    fib = fibration_from_json(_read_json(cfg.input))
    strat = build_stratification(fib)
    if cfg.merge:
        strat = merge_cells(strat)
    return fib, strat


def cmd_ph(cfg: RunConfig) -> None:
    obj = _read_json(cfg.input)
    if not isinstance(obj, dict) or obj.get("simplices") is None:
        raise ValidationError("input: missing key 'simplices'")
    K, values = filtered_complex_from_json(obj)
    problems = validate([list(s) for s in K.simplices], values)
    if problems:
        raise ValidationError("; ".join(problems))
    pairs = reduce_pairs(K, induced_indexing(values, K))
    _write_text(cfg.output, canonical_dumps(diagrams_to_json(K, pairs, values)))


def cmd_stratify(cfg: RunConfig) -> None:
    _, strat = _load_stratification(cfg)
    _write_text(cfg.output, canonical_dumps(stratification_to_json(strat)))


def cmd_sheaf(cfg: RunConfig) -> None:
    _, strat = _load_stratification(cfg)
    sheaf = build_sheaf(strat, degree=cfg.degree)
    _write_text(cfg.output, canonical_dumps(sheaf_to_json(sheaf)))


def cmd_sections(cfg: RunConfig) -> None:
    _, strat = _load_stratification(cfg)
    sheaf = build_sheaf(strat, degree=cfg.degree)
    sections = enumerate_global_sections(sheaf)
    comps = connected_components(sheaf)
    out = sections_to_json(sheaf, sections, comps)
    # certify each section against the fibration (exact boundary evaluation)
    certified = []
    for section in sections:
        bs = bundle_section(sheaf, section, samples_per_cell=cfg.samples,
                            seed=cfg.seed)
        certified.append(bs.boundary_points_checked)
    out["continuity_checks_per_section"] = certified
    _write_text(cfg.output, canonical_dumps(out))


def cmd_monodromy(cfg: RunConfig) -> None:
    _, strat = _load_stratification(cfg)
    sheaf = build_sheaf(strat, degree=cfg.degree)
    report = monodromy_scan(sheaf)
    _write_text(cfg.output, canonical_dumps(monodromy_to_json(sheaf, report)))


def cmd_vineyard(cfg: RunConfig) -> None:
    fib = fibration_from_json(_read_json(cfg.input))
    if cfg.path is None:
        raise ValidationError("vineyard needs --path (JSON list of [x, y] points)")
    pts = _read_json(cfg.path)
    if not isinstance(pts, list) or not pts:
        raise ValidationError("--path must be a non-empty JSON list of points")
    filts = []
    for p in pts:
        if not isinstance(p, list) or len(p) != 2:
            raise ValidationError(f"bad path point {p!r}")
        filts.append(filtration_at(fib, (as_fraction(p[0]), as_fraction(p[1]))))
    vines, loop = path_vineyard(fib.complex, filts)
    _write_text(cfg.output, vines_to_csv(fib.complex, vines))
    loop_json = {
        "loop_permutation": mapping_to_json(fib.complex, loop.mapping),
        "nontrivial": any(k != v for k, v in loop.mapping.items()),
    }
    sys.stdout.write(canonical_dumps(loop_json))


def cmd_gen_monodromy(cfg: RunConfig) -> None:
    fib = gen_monodromy()
    _write_text(cfg.output, canonical_dumps(fibration_to_json(fib)))


def cmd_gen_instability(cfg: RunConfig) -> None:
    report = gen_instability(as_fraction(cfg.epsilon), as_fraction(cfg.gap))
    _write_text(cfg.output, canonical_dumps(report))


def cmd_gen_image(cfg: RunConfig) -> None:
    try:
        with open(cfg.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {cfg.input}: {exc}") from exc
    fib, metadata = gen_image_fibration(text)
    _write_text(cfg.output, canonical_dumps(fibration_to_json(fib, metadata)))


COMMANDS = {
    "ph": (cmd_ph, "persistence diagrams of a filtered complex file"),
    "stratify": (cmd_stratify, "stratify the base space of a fibration file"),
    "sheaf": (cmd_sheaf, "build the compatible cellular sheaf"),
    "sections": (cmd_sections, "enumerate global sections of the sheaf"),
    "monodromy": (cmd_monodromy, "loop permutations and obstructed seeds"),
    "vineyard": (cmd_vineyard, "vineyard along a sampled base path (CSV)"),
    "gen-monodromy": (cmd_gen_monodromy, "emit the monodromy example fibration"),
    "gen-instability": (cmd_gen_instability,
                        "vineyard instability report for given epsilon and gap"),
    "gen-image": (cmd_gen_image, "fibration from a plain-text P3 PPM image"),
}


def build_parser() -> argparse.ArgumentParser:
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
            p.add_argument("--samples", type=int, default=3,
                           help="bundle sample points per cell")
            p.add_argument("--seed", type=int, default=0)
        if name == "vineyard":
            p.add_argument("--path", required=True,
                           help="JSON file with a list of [x, y] base points")
        p.add_argument("--output", default=None,
                       help="output file (stdout when omitted)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    degree: Optional[int] = 1
    if hasattr(args, "degree"):
        if args.degree == "all":
            degree = None
        else:
            try:
                degree = int(args.degree)
            except ValueError:
                raise ValidationError(f"--degree must be an integer or 'all', "
                                      f"got {args.degree!r}")
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        output=args.output,
        degree=degree,
        samples=getattr(args, "samples", 3),
        seed=getattr(args, "seed", 0),
        merge=getattr(args, "merge_cells", False),
        epsilon=getattr(args, "epsilon", "1/10"),
        gap=getattr(args, "gap", "10"),
        path=getattr(args, "path", None),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cfg.check()
        COMMANDS[args.command][0](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantError, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
