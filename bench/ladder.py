#!/usr/bin/env python3
"""The scale ladder: every stage of the sheaf pipeline on inputs of growing
size, each rung in its own child process under an address-space and a wall
limit.

    python3 bench/ladder.py --src SRC --label NAME [--src SRC --label NAME ...]
                            [--out FILE]

SRC is the `src/` directory of a checkout to measure, so one copy of this
script measures a change and its parent alike. Given several checkouts, each
rung runs them in turn, the first one first on even rungs and last on odd
ones, so that drift of the host between the runs of one rung stays small.
The rungs (SIZES) are the c9-formula images at n×n for n = 2..7 (the
acceptance test's pixel formula; 67 simplices at 3×3, 241 at 6×6, 323 at
7×7), each over one base triangle. The stages, run in this order in one
process, are the load (`fibration_from_json` of the rung's canonical
fibration JSON, then its triangle table; the text is written before timing,
and the time is the least of LOAD_REPEATS loads), the vineyard at each of
VINE_STEPS (`point_numerators`, `path_vineyard` and `vines_to_csv` along
PENTAGON, a fixed closed pentagon strictly inside the weight triangle, each
side cut into that many steps; it runs before `build_stratification`, so that
it runs on every rung, and keeps nothing alive after it),
`build_stratification`, the pair-set walk (the first `cell_pairs` call),
`build_sheaf(degree=1)`, `monodromy_scan` and the sections (`bundle_section`,
at its defaults, certifies all sections of each component of the degree-1
sheaf that has any at once, and the record sums its per-section check count
times the component's sections as `boundary_points_checked`; the components,
each with its gauges and root elements, are found once, by
`sections_by_component`, and that pass is timed apart, as the record's
`enumerate_s`). It reads the component form of `sections_by_component` and
`bundle_section`, so on a checkout older than that it fails and is recorded
as "exit 1". The stages after the load run
on the generated fibration, as they did before the load stage was added.
After the last stage, the child counts on the order tuples of the cell
indexings, untimed, and adds to the stratify record `distinct_orders` and to
the sheaf record `identities` (face relations whose morphism is the
identity), `moved_relations` (face relations whose two cells' orders
differ) and `distinct_transitions` (distinct (face order, coface order)
pairs among them), with `sheaf_sha256`, a digest of the degree-1 sheaf's
stalks and morphisms (`sheaf_digest`); no stage's time or peak RSS
includes this counting.
A stage whose first run takes under REPEAT_UNDER_S seconds runs REPEATS
times in all: its record holds every run's time as `runs_s` and the least as
`s`. Each walk after the first runs on a fresh `Stratification` of the same
cells and faces, built untimed, so that every run fills a cold table; the
last one is what the sheaf stage uses. Each record also holds the process's
peak RSS after the stage, which includes everything the earlier stages keep
alive.

A child sets `RLIMIT_AS` on itself only (AS_MB), and is stopped at the wall
limit (WALL_S).
A stage runs whenever the stages it reads (READS) have finished: one that
runs out of memory is recorded as "memory", and one whose input did not
finish as "not run", so the sections stage, which reads only the sheaf,
still runs after `monodromy_scan` runs out of memory. The wall limit ends
the child, so the stage it stops is recorded as "timeout" and the stages
after it as "not run". A rung is never dropped and its size never reduced.
With --out, each checkout's run is stored in FILE under `runs[NAME]`, next
to the runs already there.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

VINE_STEPS = (12, 120)
PENTAGON = [(3, 1), (6, 2), (5, 4), (2, 6), (1, 3)]   # in tenths of a weight
STAGES = (["load"] + [f"vineyard-{steps}" for steps in VINE_STEPS]
          + ["stratify", "walk", "sheaf", "monodromy", "sections"])
SIZES = range(2, 8)
# the stages each stage reads its input from
READS = {"walk": ("stratify",), "sheaf": ("walk",), "monodromy": ("sheaf",),
         "sections": ("sheaf",)}
AS_MB, WALL_S = 3072, 600
LOAD_REPEATS = 5
REPEATS, REPEAT_UNDER_S = 5, 10.0


def c9_ppm(n: int) -> str:
    """The acceptance test's c9 pixel formula as an n×n plain PPM."""
    return f"P3\n{n} {n} 31\n" + "\n".join(
        " ".join(f"{(3 * r + 2 * c) % 11} {(r * c + 7) % 13} {(r + 5 * c) % 17}"
                 for c in range(n)) for r in range(n)) + "\n"


def pentagon_path(steps: int) -> list:
    """PENTAGON's sides, each cut into `steps` equal steps, closed by its
    first point: 5·steps + 1 base points, all strictly inside the weight
    triangle w1, w2 > 0, w1 + w2 < 1."""
    corners = [(Fraction(x, 10), Fraction(y, 10)) for x, y in PENTAGON]
    points = [tuple(a + (b - a) * Fraction(k, steps) for a, b in zip(p, q))
              for p, q in zip(corners, corners[1:] + corners[:1])
              for k in range(steps)]
    return points + points[:1]


def order_changes(strat) -> dict:
    """The face relations whose two cells' orders differ, and the distinct
    (face order, coface order) pairs among them, counted on the order
    tuples."""
    number: dict = {}
    order_of = {cid: number.setdefault(idx.order, len(number))
                for cid, idx in strat.indexings.items()}
    moved, transitions = 0, set()
    for cid, faces in strat.faces.items():
        b = order_of[cid]
        for face in faces:
            a = order_of[face]
            if a != b:
                moved += 1
                transitions.add(a * len(number) + b)
    return {"moved_relations": moved, "distinct_transitions": len(transitions)}


def sheaf_digest(sh) -> str:
    """SHA-256 of the sheaf: each cell's sorted stalk, in cell order, then
    each face relation and its sorted morphism, in edge order. A stalk or a
    morphism shared by several cells or relations is encoded once."""
    digest = hashlib.sha256()
    encoded: dict = {}

    def text(obj, items) -> bytes:
        # the sheaf keeps obj alive, so its id names it throughout
        if id(obj) not in encoded:
            encoded[id(obj)] = repr(sorted(items, key=repr)).encode()
        return encoded[id(obj)]

    for cid in sorted(sh.stalks):
        digest.update(b"%d:" % cid + text(sh.stalks[cid], sh.stalks[cid]) + b"\n")
    for face, coface in sh.edges():
        phi = sh.morphisms[face, coface]
        digest.update(b"%d<%d:" % (face, coface) + text(phi, phi.items()) + b"\n")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rung(src: str, n: int) -> None:
    """In the child: run the stages of rung n, printing one JSON line per
    stage as it ends."""
    limit = AS_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)
    from pdbundle.generators import gen_image_fibration
    from pdbundle.serialize import (canonical_dumps, fibration_from_json,
                                    fibration_to_json, vines_to_csv)
    from pdbundle.sheaf import (build_sheaf, bundle_section, monodromy_scan,
                                sections_by_component)
    from pdbundle.stratify import (Stratification, build_stratification,
                                   point_numerators)
    from pdbundle.vineyard import path_vineyard

    fib = gen_image_fibration(c9_ppm(n))[0]
    text = canonical_dumps(fibration_to_json(fib))
    found = {}

    def load():
        best = math.inf
        for _ in range(LOAD_REPEATS):
            t0 = time.perf_counter()
            fibration_from_json(json.loads(text)).table(0)
            best = min(best, time.perf_counter() - t0)
        return {"bytes": len(text), "s": best}

    def vineyard(steps):
        path = pentagon_path(steps)
        t0 = time.perf_counter()
        samples = [point_numerators(fib, p) for p in path]
        vines, _ = path_vineyard(fib.complex, samples)
        csv = vines_to_csv(fib.complex, vines)
        seconds = time.perf_counter() - t0
        orders = [sorted(range(fib.complex.n), key=nums.__getitem__)
                  for nums, _ in samples]
        return {"s": seconds, "samples": len(samples),
                "order_changes": sum(a != b for a, b in zip(orders, orders[1:])),
                "csv_bytes": len(csv)}

    def stratify():
        found.pop("strat", None)
        found["strat"] = strat = build_stratification(fib)
        return {"simplices": fib.complex.n, "cells": len(strat.cells),
                "face_relations": sum(len(f) for f in strat.faces.values())}

    def walk():
        strat = found["strat"]
        if "walked" in found:   # a repeat: the same cells, a cold table
            cells, faces = strat.cells, strat.faces
            del found["strat"], strat   # one set of cell orders alive at a time
            strat = found["strat"] = Stratification(fib, cells, faces)
        found["walked"] = True
        t0 = time.perf_counter()
        strat.cell_pairs(strat.cells[0].id)
        return {"s": time.perf_counter() - t0,
                "distinct_pair_sets": len({id(strat.cell_pairs(c.id))
                                           for c in strat.cells})}

    def sheaf():
        found.pop("sheaf", None)
        found["sheaf"] = sh = build_sheaf(found["strat"], degree=1)
        return {"morphisms": len(sh.morphisms)}

    def monodromy():
        report = monodromy_scan(found["sheaf"])
        return {"loops": len(report.loops),
                "nontrivial_loops": sum(loop.nontrivial for loop in report.loops),
                "obstructed_seeds": len(report.obstructed_seeds)}

    def sections():
        sh = found["sheaf"]
        if "components" not in found:   # once for every run, timed apart
            t0 = time.perf_counter()
            found["components"] = [c for c in sections_by_component(sh) if c[2]]
            found["enumerate_s"] = round(time.perf_counter() - t0, 6)
        t0 = time.perf_counter()
        checked = sum(bundle_section(sh, component) * len(component[2])
                      for component in found["components"])
        return {"s": time.perf_counter() - t0,
                "enumerate_s": found["enumerate_s"],
                "sections": sum(len(c[2]) for c in found["components"]),
                "boundary_points_checked": checked}

    vineyards = [functools.partial(vineyard, steps) for steps in VINE_STEPS]
    finished = set()
    for name, stage in zip(STAGES, [load, *vineyards, stratify, walk, sheaf,
                                    monodromy, sections]):
        if not finished.issuperset(READS.get(name, ())):
            print(json.dumps({"stage": name, "outcome": "not run"}), flush=True)
            continue
        runs = []
        try:
            while not runs or len(runs) < REPEATS and runs[0] < REPEAT_UNDER_S:
                t0 = time.perf_counter()
                counts = stage()
                seconds = time.perf_counter() - t0
                runs.append(counts.pop("s", seconds))   # a stage that times itself
        except MemoryError:
            print(json.dumps({"stage": name, "outcome": "memory"}), flush=True)
            continue
        finished.add(name)
        print(json.dumps({"stage": name, "s": round(min(runs), 6),
                          "runs_s": [round(s, 6) for s in runs],
                          "peak_rss_mb": round(peak_rss_mb(), 1), **counts}),
              flush=True)
    # counted after the last stage, so that no stage's time or peak RSS
    # includes them; measure adds them to the stage's record
    if "strat" in found:
        strat = found["strat"]
        print(json.dumps({"stage": "stratify", "counts": {
            "distinct_orders": len({idx.order for idx in strat.indexings.values()})}}),
              flush=True)
    if "sheaf" in found:
        sh = found["sheaf"]
        print(json.dumps({"stage": "sheaf", "counts": {
            "identities": sum(all(x == y for x, y in phi.items())
                              for phi in sh.morphisms.values()),
            **order_changes(found["strat"]), "sheaf_sha256": sheaf_digest(sh)}}),
              flush=True)


def measure(src: str, n: int) -> dict:
    """Rung n in a child process: its stages, each a record or an outcome."""
    cmd = [sys.executable, __file__, "--child", str(n), src]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WALL_S)
        out, err, failure = proc.stdout, proc.stderr, None
        if proc.returncode != 0:
            failure = "memory" if "MemoryError" in err else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        err, failure = "", "timeout"
    stages = {}
    for line in out.splitlines():
        record = json.loads(line)
        name = record.pop("stage")
        if "counts" in record:
            stages[name].update(record["counts"])
        else:
            stages[name] = record.get("outcome", record)
    for name in STAGES:
        if name not in stages:
            stages[name] = failure or "not run"
            failure = None
    rung = {"rung": f"c9-{n}x{n}", "n": n, "stages": stages}
    if err.strip() and "MemoryError" not in err:
        rung["stderr"] = err.strip().splitlines()[-1]
    return rung


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        run_rung(sys.argv[3], int(sys.argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True)
    parser.add_argument("--label", action="append", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(args.src) != len(args.label):
        parser.error("give one --label per --src")
    checkouts = [(label, str(Path(src).resolve()))
                 for label, src in zip(args.label, args.src)]
    runs = {label: [] for label, _ in checkouts}
    for n in SIZES:
        for label, src in checkouts[::1 if n % 2 == 0 else -1]:
            runs[label].append(measure(src, n))
            print(json.dumps({"label": label, **runs[label][-1]}), flush=True)
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.update({
            "ladder": "c9-formula images at n×n, one base triangle",
            "stages": "load (least of %d), vineyard-N (point_numerators, "
                      "path_vineyard and vines_to_csv along a closed pentagon "
                      "with N steps a side, for N in %s), stratify, pair-set "
                      "walk, build_sheaf(degree=1), monodromy_scan, sections "
                      "(bundle_section at its defaults once per component of "
                      "the degree-1 sheaf with sections, its count times their "
                      "number; the components found once by "
                      "sections_by_component, timed apart as enumerate_s); a stage "
                      "runs when the stages it reads have finished (%s); a "
                      "stage whose first run takes under %g s runs %d times, with "
                      "every run in runs_s and the least in s; peak_rss_mb is "
                      "the process peak after each stage; distinct_orders, "
                      "identities, moved_relations, distinct_transitions and "
                      "sheaf_sha256 are counted after the last stage"
                      % (LOAD_REPEATS, list(VINE_STEPS),
                         ", ".join(f"{k} reads {' and '.join(v)}"
                                   for k, v in READS.items()),
                         REPEAT_UNDER_S, REPEATS),
            "limits": {"address_space_mb": AS_MB, "wall_s": WALL_S},
            "machine": {"python": platform.python_version(),
                        "cpus": os.cpu_count()},
        })
        doc.setdefault("runs", {}).update(runs)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
