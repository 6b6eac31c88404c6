"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Every comparison here is exact (integer or rational equality) and each
criterion carries its time budget.
"""
import json
import math
import random
import time
from fractions import Fraction

from pdbundle.cli import main
from pdbundle.complexes import induced_indexing
from pdbundle.generators import gen_image_fibration, gen_instability, gen_monodromy
from pdbundle.persistence import diagrams_by_degree
from pdbundle.sheaf import build_sheaf, edge_value_certificate, monodromy_scan
from pdbundle.stratify import filtration_at
from pdbundle.vineyard import path_vineyard, rational_sample

from conftest import (
    A,
    B,
    C,
    D,
    deg1_pairs,
    pairs_for_filtration,
    quadrant_of,
    random_complex,
    random_monotone_values,
)
from cell_oracle import rep_values
from rank_oracle import pairs_betti_count, persistent_betti, vietoris_rips

F = Fraction


def report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_c1_monodromy_reproduction(tmp_path, capsys):
    t0 = time.monotonic()
    mono = str(tmp_path / "mono.json")
    assert main(["gen-monodromy", "--output", mono]) == 0
    secs = str(tmp_path / "secs.json")
    assert main(["sections", "--input", mono, "--output", secs]) == 0
    sections = json.loads(open(secs).read())
    monof = str(tmp_path / "monodromy.json")
    assert main(["monodromy", "--input", mono, "--output", monof]) == 0
    scan = json.loads(open(monof).read())
    elapsed = time.monotonic() - t0
    ok = (sections["sections"] == []
          and sections["global_section_count"] == 0
          and scan["nontrivial_loop_count"] == 1
          and len([l for l in scan["loops"] if l["nontrivial"]]) == 1)
    loop = next(l for l in scan["loops"] if l["nontrivial"])
    swap = sorted([[["0-1", "0-1-2"], ["0-2", "0-2-3"]],
                   [["0-2", "0-2-3"], ["0-1", "0-1-2"]]])
    ok = ok and loop["permutation"] == swap and elapsed < 1.0
    report(1, ok, f"zero sections, one nontrivial origin loop swapping "
                  f"(a,c) and (b,d) in {elapsed:.2f}s")


def test_c2_quadrant_pair_sets(mono_fib, mono_strat):
    K = mono_fib.complex
    expected = {"Q1": {(A, C), (B, D)}, "Q2": {(A, C), (B, D)},
                "Q4": {(A, C), (B, D)}, "Q3": {(A, D), (B, C)}}
    seen = {}
    for cell in mono_strat.cells:
        if cell.dim != 2:
            continue
        quad = quadrant_of(cell.rep)
        pairs = deg1_pairs(K, pairs_for_filtration(K, rep_values(mono_strat, cell.id)))
        seen.setdefault(quad, set()).add(frozenset(pairs))
    ok = all(seen[q] == {frozenset(expected[q])} for q in expected)
    report(2, ok, "degree-1 pair sets at quadrant representatives match the "
                  "known quadrant table exactly")


def test_c3_circle_restriction(mono_fib):
    K = mono_fib.complex
    filts = []
    for k in range(9):
        u = k / 8
        x = F(math.cos(2 * math.pi * u + math.pi / 4))
        y = F(math.sin(2 * math.pi * u + math.pi / 4))
        filts.append([F(0)] * 7 + [2 + y, 2 - y, 10 + x, 10 - x])
    _, loop = path_vineyard(K, [rational_sample(f) for f in filts])
    swapped = (loop.mapping[(A, C)] == (B, D) and loop.mapping[(B, D)] == (A, C))
    fixed = all(k == v for k, v in loop.mapping.items()
                if k not in {(A, C), (B, D)})
    report(3, swapped and fixed,
           "9-sample circle loop permutation swaps the two degree-1 pairs")


def test_c4_only_order_property_suite():
    t0 = time.monotonic()
    rng = random.Random(404)
    runs = 0
    while runs < 100:
        K = random_complex(rng, max_vertices=6)
        if K.n > 40:
            continue
        vals = random_monotone_values(rng, K)
        distinct = sorted(set(vals))
        g, acc = {}, F(rng.randint(-3, 3))
        for v in distinct:
            acc += F(rng.randint(1, 12), rng.randint(1, 12))
            g[v] = acc
        reparam = [g[v] for v in vals]
        if pairs_for_filtration(K, vals) != pairs_for_filtration(K, reparam):
            report(4, False, "pair sets differ under order-preserving reparameterization")
        runs += 1
    elapsed = time.monotonic() - t0
    report(4, elapsed < 10.0,
           f"100 random reparameterized filtrations give identical pair sets "
           f"in {elapsed:.2f}s")


def test_c5_persistent_betti_oracle():
    t0 = time.monotonic()
    rng = random.Random(505)
    checks = 0
    for _ in range(50):
        npts = rng.randint(4, 8)
        pts = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(npts)]
        K, vals = vietoris_rips(pts, 3)
        pairs = pairs_for_filtration(K, vals)
        thresholds = sorted(set(vals))
        for q in range(3):
            for i, r in enumerate(thresholds):
                for s in thresholds[i:]:
                    lhs = persistent_betti(K, vals, q, r, s)
                    rhs = pairs_betti_count(pairs, K, vals, q, r, s)
                    if lhs != rhs:
                        report(5, False,
                               f"rank mismatch q={q} r={r} s={s}: {lhs} != {rhs}")
                    checks += 1
    elapsed = time.monotonic() - t0
    report(5, elapsed < 60.0,
           f"{checks} inclusion ranks equal pair-derived counts on 50 "
           f"Vietoris-Rips complexes in {elapsed:.1f}s")


def test_c6_stratification_partition_oracle(random_strats):
    t0 = time.monotonic()
    rng = random.Random(606)
    total = 0
    for fib, strat in random_strats:
        K = fib.complex
        for _ in range(1000):
            t = rng.randrange(len(fib.mesh.triangles))
            ws = [rng.randint(0, 12) for _ in range(3)]
            if sum(ws) == 0:
                ws[0] = 1
            corners = fib.mesh.corners(t)
            tot = sum(ws)
            p = (sum(F(w) * c[0] for w, c in zip(ws, corners)) / tot,
                 sum(F(w) * c[1] for w, c in zip(ws, corners)) / tot)
            cell = strat.locate(p)
            fresh = pairs_for_filtration(K, filtration_at(fib, p))
            cached = pairs_for_filtration(K, rep_values(strat, cell.id))
            if fresh != cached:
                report(6, False, f"pair set mismatch at {p}")
            total += 1
    elapsed = time.monotonic() - t0
    report(6, elapsed < 120.0,
           f"{total} random points located to cells with identical pair sets "
           f"in {elapsed:.1f}s")


def test_c7_f_edge_certificate(random_strats):
    checks = 0
    edges = 0
    for fib, strat in random_strats:
        sheaf = build_sheaf(strat)
        edges += len(sheaf.morphisms)
        checks += edge_value_certificate(sheaf, samples_per_edge=5, seed=7)
    report(7, checks > 0,
           f"exact birth/death value equality at 5 samples across {edges} "
           f"sheaf edges ({checks} checks)")


def test_c8_vineyard_instability():
    t0 = time.monotonic()
    rep = gen_instability(F(1, 10), F(10))
    elapsed = time.monotonic() - t0
    sup = F(rep["sup_filtration_distance"])
    best_sq = min(F(v) for v in rep["max_vine_distance_sq_by_matching"].values())
    ok = (rep["assertion"] == "passed" and sup < F(1, 10)
          and best_sq >= 100 and elapsed < 5.0)
    report(8, ok, f"sup-distance {sup} < 1/10 while every vine matching is "
                  f">= 10 apart (best^2 = {best_sq}) in {elapsed:.2f}s")


def test_c9_image_corner_diagrams():
    ppm = "P3\n4 4 31\n" + "\n".join(
        " ".join(f"{(3 * r + 2 * c) % 11} {(r * c + 7) % 13} {(r + 5 * c) % 17}"
                 for c in range(4)) for r in range(4)) + "\n"
    from test_generators import channel_filtration
    from pdbundle.generators import parse_ppm
    w, h, px = parse_ppm(ppm)
    fib, _ = gen_image_fibration(ppm)
    K = fib.complex
    ok = True
    for corner, channel in [((1, 0), 0), ((0, 1), 1), ((0, 0), 2)]:
        vals = filtration_at(fib, corner)
        K2, oracle = channel_filtration(w, h, px, channel)
        d1 = diagrams_by_degree(pairs_for_filtration(K, vals), K, vals)
        d2 = diagrams_by_degree(pairs_for_filtration(K2, oracle), K2,
                                [F(v) for v in oracle])
        ok = ok and all(d1[q].points == d2[q].points for q in d1)
    report(9, ok, "bundle diagrams at the three base corners equal "
                  "single-channel sublevel diagrams exactly")
