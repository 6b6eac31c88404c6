#!/usr/bin/env python3
"""Closed-loop benchmark of the pdbundle command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process runs one workload: a single client on a single thread calls
`pdbundle.cli.main(argv)` in-process, and starts the next op only when the
previous one has returned. Inputs are generated from the seed into
`perfbench/_work/`; the program sees only those files. `all` runs every
workload in its own process, one after another, and prints a table.

With `--trace 0` the ops loop over the workload's input pool for S seconds
and the end-to-end metrics are reported, every timing normalised for the
host's speed by a reference loop timed around it (see SpeedMeter). With
`--trace 1` one fixed list of ops, the pool's first `trace_ops` instances,
runs untraced, traced (see tracing.py) and untraced again, and the
per-layer metrics of the traced pass are reported.

Every op's output bytes are compared with the SHA-256 digest recorded from
the seed code (digests.json, written by record.py) or, for seeds without a
record, with the first output of the same instance. Outside the timed loop,
oracles check a seeded sample of the outputs. The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

import gen  # noqa: E402  (perfbench/ is the script directory)

OP_TIMEOUT_S = 20      # an op (or an oracle check) running longer fails
TRACE_BUDGET_S = 80    # a traced run starts no op this long after its first
CHECK_BUDGET_S = 25    # the oracles start no check this long after their first
SETUP_REPEATS = 3      # setup_s is the median of this many set-ups


class OpTimeout(BaseException):
    """Raised from SIGALRM inside a running op."""


class CheckFailed(Exception):
    pass


@dataclass
class Instance:
    key: str
    calls: List[List[str]]       # CLI argv lists; one op runs them in order
    fibration: Path
    path: Optional[Path] = None  # vineyard path file
    timed: bool = True           # False: traced pass only


@dataclass
class Workload:
    name: str
    build: Callable[[random.Random, Path, object], List[Instance]]
    check: Callable[[Instance, str, random.Random], None]
    checks_per_run: int
    trace_ops: int


# ---------------------------------------------------------------------------
# Input pools. Each workload draws fresh instances from the seed and keeps
# those whose size, read off the values by gen.py (trace lines and their
# crossings, or the exact pair reductions of a sheaf or vineyard), falls in
# a stated band, so that every seed gives inputs of the same stated size.
# ---------------------------------------------------------------------------

def _in(value: int, band: Tuple[int, int]) -> bool:
    return band[0] <= value <= band[1]


def _image_fibration(cli, ppm_text: str, stem: Path) -> Path:
    ppm = stem.with_suffix(".ppm")
    ppm.write_text(ppm_text, encoding="utf-8")
    out = stem.with_suffix(".json")
    rc = cli.main(["gen-image", "--input", str(ppm), "--output", str(out)])
    if rc != 0:
        raise RuntimeError(f"gen-image failed on {ppm} (exit {rc})")
    return out


# mesh-bundle: every seed's pool has the same make-up, MESH_PER_SLOT inputs
# with 4 or 5 simplices and no crossing point for each mesh and each number
# of trace lines (summed over the mesh's triangles) in MESH_LINES. Op times
# then form one cluster, so the median does not jump between clusters of
# cheap and dear inputs from run to run. One heavy input
# (10-14 lines, 10-25 points; ops of seconds, where quadratic propagation and
# certification dominate) opens the pool for the traced pass only: a few
# such ops swing a run's throughput by more than any bound could allow.
MESH_LINES, MESH_PER_SLOT, MESH_SIMPLICES = (4, 5), 8, (4, 5)
MESH_HEAVY_LINES, MESH_HEAVY_POINTS = (10, 14), (10, 25)


def _mesh_instance(key: str, d: Path, mesh: str, listing, rows, timed: bool) -> Instance:
    f = d / f"{key}.json"
    f.write_text(gen.fibration_json(mesh, listing, rows), encoding="utf-8")
    return Instance(key, [["sections", "--degree", "all", "--input", str(f)],
                          ["monodromy", "--degree", "all", "--input", str(f)]],
                    f, timed=timed)


def build_mesh_bundle(rng: random.Random, d: Path, cli) -> List[Instance]:
    meshes = sorted(gen.MESHES)
    heavy: List[Instance] = []
    got: Dict[Tuple[str, int], List[Instance]] = {
        (m, lines): [] for m in meshes for lines in MESH_LINES}
    while not heavy or any(len(v) < MESH_PER_SLOT for v in got.values()):
        # draw only on meshes with an open slot (or any, for the heavy input)
        mesh = rng.choice([m for m in meshes if not heavy or any(
            len(got[(m, lines)]) < MESH_PER_SLOT for lines in MESH_LINES)])
        listing, rows = gen.random_fibration(rng, mesh, max_vertices=4)
        lines, points = gen.arrangement_size(rows, gen.MESHES[mesh][1])
        slot = got.get((mesh, lines))
        if not heavy and _in(lines, MESH_HEAVY_LINES) and _in(points, MESH_HEAVY_POINTS):
            heavy.append(_mesh_instance("heavy", d, mesh, listing, rows, False))
        elif (slot is not None and len(slot) < MESH_PER_SLOT and points == 0
              and _in(len(listing), MESH_SIMPLICES)):
            key = f"{mesh}-{lines}l-{len(slot)}"
            slot.append(_mesh_instance(key, d, mesh, listing, rows, True))
    # meshes and slots take turns, so any prefix of the pool mixes them evenly
    turns = [[got[(m, lines)][j] for m in meshes]
             for j in range(MESH_PER_SLOT) for lines in MESH_LINES]
    return heavy + [inst for turn in turns for inst in turn]


SHEAF_POOL, SHEAF_REDUCTIONS = 30, (350, 500)


def build_image_sheaf(rng: random.Random, d: Path, cli) -> List[Instance]:
    pool: List[Instance] = []
    while len(pool) < SHEAF_POOL:
        ppm = gen.chain_ppm(rng, 3, 3)
        rows = gen.image_rows(ppm)[1]
        if _in(gen.sheaf_work_without_lines(rows)[1], SHEAF_REDUCTIONS):
            key = f"img-{len(pool):02d}"
            f = _image_fibration(cli, ppm, d / key)
            pool.append(Instance(key, [["sheaf", "--input", str(f)]], f))
    return pool


STRAT_POOL, STRAT_LINES, STRAT_POINTS = 60, (8, 9), (5, 8)


def build_image_stratify(rng: random.Random, d: Path, cli) -> List[Instance]:
    pool: List[Instance] = []
    while len(pool) < STRAT_POOL:
        ppm = gen.random_ppm(rng, 2, 2, 15)
        lines, points = gen.arrangement_size(gen.image_rows(ppm)[1], [(0, 1, 2)])
        if _in(lines, STRAT_LINES) and _in(points, STRAT_POINTS):
            key = f"img-{len(pool):02d}"
            f = _image_fibration(cli, ppm, d / key)
            pool.append(Instance(key, [["stratify", "--input", str(f)]], f))
    return pool


VINE_POOL, VINE_CORNERS, VINE_STEPS, VINE_REDUCTIONS = 30, 5, 12, (240, 290)


def build_image_vineyard(rng: random.Random, d: Path, cli) -> List[Instance]:
    pool: List[Instance] = []
    while len(pool) < VINE_POOL:
        ppm = gen.random_ppm(rng, 3, 3, 1)
        den, points = gen.closed_path(rng, VINE_CORNERS, VINE_STEPS)
        if not _in(gen.vineyard_work(gen.image_rows(ppm)[1], den, points)[1],
                   VINE_REDUCTIONS):
            continue
        key = f"vine-{len(pool):02d}"
        f = _image_fibration(cli, ppm, d / key)
        p = d / f"{key}-path.json"
        p.write_text(gen.path_json(den, points), encoding="utf-8")
        pool.append(Instance(key, [["vineyard", "--input", str(f),
                                    "--path", str(p)]], f, p))
    return pool


# ---------------------------------------------------------------------------
# Oracles, run outside the timed loop on the outputs an op produced.
# ---------------------------------------------------------------------------

def _load_fibration(inst: Instance):
    from pdbundle.serialize import fibration_from_json
    return fibration_from_json(json.loads(inst.fibration.read_text(encoding="utf-8")))


def _random_point(fib, rng: random.Random):
    t = rng.randrange(len(fib.mesh.triangles))
    ws = [rng.randint(0, 12) for _ in range(3)]
    ws[0] += sum(ws) == 0
    tot = sum(ws)
    corners = fib.mesh.corners(t)
    return (sum(Fraction(w) * c[0] for w, c in zip(ws, corners)) / tot,
            sum(Fraction(w) * c[1] for w, c in zip(ws, corners)) / tot)


def _fresh_pairs_json(fib, p) -> List[List[str]]:
    from pdbundle.complexes import induced_indexing
    from pdbundle.persistence import reduce_pairs
    from pdbundle.serialize import pairset_to_json
    from pdbundle.stratify import filtration_at
    K = fib.complex
    return pairset_to_json(K, reduce_pairs(K, induced_indexing(filtration_at(fib, p), K)))


def check_stratify(inst: Instance, output: str, rng: random.Random) -> None:
    """Random points located with Stratification.locate carry, in the output,
    the pair set of a fresh reduction at that point."""
    from pdbundle.stratify import build_stratification
    fib = _load_fibration(inst)
    strat = build_stratification(fib)
    cells = json.loads(output)["cells"]
    if len(cells) != len(strat.cells):
        raise CheckFailed(f"{len(cells)} cells in the output, {len(strat.cells)} rebuilt")
    for _ in range(40):
        p = _random_point(fib, rng)
        cid = strat.locate(p).id
        if cells[cid]["pairs"] != _fresh_pairs_json(fib, p):
            raise CheckFailed(f"pair set of cell {cid} differs from a fresh reduction at {p}")


def _certified_sheaf_json(fib, degree, rng: random.Random):
    from pdbundle.serialize import canonical_dumps, sheaf_to_json
    from pdbundle.sheaf import build_sheaf, edge_value_certificate
    from pdbundle.stratify import build_stratification
    sheaf = build_sheaf(build_stratification(fib), degree=degree)
    if sheaf.morphisms and edge_value_certificate(sheaf, samples_per_edge=2,
                                                  seed=rng.randrange(1 << 30)) == 0:
        raise CheckFailed("edge value certificate checked nothing")
    return sheaf, canonical_dumps(sheaf_to_json(sheaf))


def check_sheaf(inst: Instance, output: str, rng: random.Random) -> None:
    """The output is the serialization of a sheaf whose every morphism passes
    the exact edge value certificate."""
    _, expected = _certified_sheaf_json(_load_fibration(inst), 1, rng)
    if output != expected:
        raise CheckFailed("sheaf output differs from the certified sheaf")


def _json_docs(text: str) -> List:
    """The JSON documents written one after another into `text`."""
    dec, docs, i = json.JSONDecoder(), [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        obj, i = dec.raw_decode(text, i)
        docs.append(obj)
    return docs


def check_bundle(inst: Instance, output: str, rng: random.Random) -> None:
    """The all-degree sheaf behind the sections and monodromy outputs passes
    the edge value certificate; its stalks at located random points equal
    fresh reductions; every output section satisfies every morphism on its
    scope, the components partition the cells, and every loop permutation
    is a bijection."""
    from pdbundle.serialize import element_to_json, elements_to_json
    fib = _load_fibration(inst)
    K = fib.complex
    sheaf, _ = _certified_sheaf_json(fib, None, rng)
    sections, monodromy = _json_docs(output)
    for _ in range(10):
        p = _random_point(fib, rng)
        cell = sheaf.strat.locate(p)
        if elements_to_json(K, sheaf.stalks[cell.id]) != _fresh_pairs_json(fib, p):
            raise CheckFailed(f"stalk of cell {cell.id} differs from a fresh reduction at {p}")
    covered = sorted(c for comp in sections["components"] for c in comp)
    if covered != sorted(c.id for c in sheaf.strat.cells):
        raise CheckFailed("section components do not partition the cells")
    phi = {edge: {tuple(element_to_json(K, e)): tuple(element_to_json(K, img))
                  for e, img in m.items()}
           for edge, m in sheaf.morphisms.items()}
    for section in sections["sections"]:
        chosen = {cid: tuple(e) for cid, e in section["assignment"]}
        for (face, coface), m in phi.items():
            if face in chosen and coface in chosen and m[chosen[face]] != chosen[coface]:
                raise CheckFailed(f"section breaks the morphism {face} -> {coface}")
    for loop in monodromy["loops"]:
        perm = loop["permutation"]
        if sorted(a for a, _ in perm) != sorted(b for _, b in perm):
            raise CheckFailed(f"loop at cell {loop['zero_cell']} is not a bijection")
        if loop["nontrivial"] != any(a != b for a, b in perm):
            raise CheckFailed(f"loop at cell {loop['zero_cell']} misreports triviality")


def check_vineyard(inst: Instance, output: str, rng: random.Random) -> None:
    """At sampled path points the vines' (birth, death) values form the
    persistence diagram of a fresh reduction there, and the loop permutation
    is a bijection of the pair set at the start."""
    from pdbundle.complexes import induced_indexing
    from pdbundle.persistence import reduce_pairs
    from pdbundle.stratify import filtration_at
    fib = _load_fibration(inst)
    K = fib.complex
    split = output.index("\n{") + 1
    rows = [line.split(",") for line in output[:split].splitlines()[1:]]
    loop = json.loads(output[split:])
    points = json.loads(inst.path.read_text(encoding="utf-8"))
    by_t: Dict[str, List[Tuple[str, str]]] = {}
    for _, t, b, dth in rows:
        by_t.setdefault(t, []).append((b, dth))
    for j in sorted(rng.sample(range(len(points)), min(6, len(points)))):
        vals = filtration_at(fib, points[j])
        pairs = reduce_pairs(K, induced_indexing(vals, K))
        expected = sorted([(repr(float(vals[b])), repr(float(vals[d])))
                           for b, d in pairs.pairs]
                          + [(repr(float(vals[b])), "inf") for b in pairs.essential])
        if sorted(by_t.get(repr(float(j)), [])) != expected:
            raise CheckFailed(f"vines at sample {j} are not the diagram there")
    perm = loop["loop_permutation"]
    start = _fresh_pairs_json(fib, points[0])
    if sorted(a for a, _ in perm) != start or sorted(b for _, b in perm) != start:
        raise CheckFailed("loop permutation is not a bijection of the start pair set")


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in [
        Workload("mesh-bundle", build_mesh_bundle, check_bundle, 3, 7),
        Workload("image-sheaf", build_image_sheaf, check_sheaf, 2, 6),
        Workload("image-stratify", build_image_stratify, check_stratify, 4, 12),
        Workload("image-vineyard", build_image_vineyard, check_vineyard, 4, 8),
    ]
}


# ---------------------------------------------------------------------------
# Running ops.
# ---------------------------------------------------------------------------

def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# The host's speed drifts: on a shared VM, same-seed runs of one workload
# were seen up to 1.8x apart, and a fixed loop switches between two speeds
# every few tens of milliseconds. Every timing is therefore normalised: a
# fixed reference loop is timed right before and right after the measured
# stretch, and the stretch's wall time is scaled by REFERENCE_S over the
# loop's mean time. That gives the seconds the stretch would take on a
# machine where the loop takes REFERENCE_S, about its time on an idle
# 2-vCPU VM.
REFERENCE_S = 0.001


def reference_loop() -> int:
    """A fixed pure-Python mix of Fraction arithmetic, a keyed sort and dict
    updates, the kinds of work the program does."""
    x, acc = Fraction(1, 3), 0
    for i in range(1, 180):
        x = (x * 7 + Fraction(i, 13)) % 5
        acc += x.numerator % 11
    buckets: Dict[int, int] = {}
    for v in sorted(range(800), key=lambda v: (v * 7919) % 1009):
        buckets[v % 97] = buckets.get(v % 97, 0) + v
    return acc + len(buckets)


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedMeter:
    """`with SpeedMeter(n) as m:` times the reference loop n times right
    before and n times right after the block; `m.normalise(seconds)` turns
    wall seconds measured inside the block into reference-speed seconds."""

    def __init__(self, samples: int = 1) -> None:
        self.n = samples

    def __enter__(self) -> "SpeedMeter":
        self.samples = [reference_s() for _ in range(self.n)]
        return self

    def __exit__(self, *exc) -> None:
        self.samples += [reference_s() for _ in range(self.n)]

    def normalise(self, seconds: float) -> float:
        return seconds * REFERENCE_S / statistics.mean(self.samples)


def run_op(cli, inst: Instance) -> Tuple[float, Optional[str], str]:
    """One op: the instance's CLI calls in order, stdout captured. Returns
    (seconds, error or None, output)."""
    out, err_buf = io.StringIO(), io.StringIO()
    err = None
    t0 = time.perf_counter()
    try:
        with time_limit(OP_TIMEOUT_S), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err_buf):
            for argv in inst.calls:
                rc = cli.main(argv)
                if rc != 0:
                    err = f"exit code {rc}: {err_buf.getvalue().strip()[:200]}"
                    break
    except OpTimeout:
        err = f"timeout after {OP_TIMEOUT_S} s"
    except (Exception, SystemExit) as exc:
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, err, out.getvalue()


class Results:
    """Per-op outcomes, output digests and the first output per instance."""

    def __init__(self, workload: str, seed: int) -> None:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.expected: Dict[str, str] = dict(recorded.get(workload, {}).get(str(seed), {}))
        self.n_recorded = len(self.expected)
        self.outputs: Dict[str, str] = {}
        self.times: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, inst: Instance, seconds: float, err: Optional[str],
               output: str) -> None:
        self.attempted += 1
        if err is None:
            digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
            if digest != self.expected.setdefault(inst.key, digest):
                err = "output differs from the expected digest"
        if err is None:
            self.times.append(seconds)
            self.outputs.setdefault(inst.key, output)
        else:
            self.failed += 1
            self.errors.append(f"{inst.key}: {err}")


def run_checks(wl: Workload, pool: Sequence[Instance], res: Results,
               rng: random.Random, count: int) -> None:
    """Run the workload's oracle on `count` seeded picks of the instances
    that produced an output."""
    done = [inst for inst in pool if inst.key in res.outputs]
    t0 = time.perf_counter()
    for inst in rng.sample(done, min(count, len(done))):
        if time.perf_counter() - t0 > CHECK_BUDGET_S:
            res.failed += 1
            res.errors.append(f"{inst.key}: oracle budget exhausted")
            break
        try:
            with time_limit(OP_TIMEOUT_S):
                wl.check(inst, res.outputs[inst.key], rng)
        except OpTimeout:
            res.failed += 1
            res.errors.append(f"{inst.key}: oracle timed out")
        except Exception as exc:
            res.failed += 1
            res.errors.append(f"{inst.key}: oracle: {type(exc).__name__}: {exc}")
    res.failed = min(res.failed, res.attempted)


# ---------------------------------------------------------------------------
# Set-up and the two kinds of run.
# ---------------------------------------------------------------------------

IMPORT_PROBE = ("import sys, time\nsys.path.insert(0, sys.argv[1])\n"
                "t = time.perf_counter()\nimport pdbundle.cli\n"
                "print(time.perf_counter() - t)\n")


def import_program():
    """Import pdbundle from this checkout's src/ and nowhere else."""
    if not (SRC / "pdbundle" / "__init__.py").is_file():
        raise SystemExit(f"error: no pdbundle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdbundle.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: pdbundle imported from {cli.__file__}, not {SRC}")
    return cli


def setup(wl: Workload, seed: int, cli, repeats: int) -> Tuple[List[Instance], float, Path]:
    """Build the input pool `repeats` times; each set-up time is a fresh
    interpreter's import of pdbundle (numpy included) plus generating and
    writing every input, normalised by reference loops timed before and
    after it. Returns the pool, the median set-up time and the
    pool's directory."""
    d = WORK / f"{wl.name}-s{seed}-p{os.getpid()}"
    times = []
    pool: List[Instance] = []
    for _ in range(repeats):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        with SpeedMeter(3) as meter:
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                   capture_output=True, text=True, timeout=60,
                                   check=True)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                pool = wl.build(random.Random(seed), d, cli)
            build_s = time.perf_counter() - t0
        times.append(meter.normalise(float(probe.stdout.split()[-1]) + build_s))
    return pool, statistics.median(times), d


def tail(times: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); below eleven samples, the minimum."""
    s = sorted(times)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def timed_run(wl: Workload, seed: int, seconds: float, cli) -> Dict:
    pool, setup_s, d = setup(wl, seed, cli, SETUP_REPEATS)
    timed = [inst for inst in pool if inst.timed]
    res = Results(wl.name, seed)
    raw: List[float] = []
    per_input: Dict[str, List[float]] = {}
    busy = 0.0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = 0
    while res.attempted == 0 or time.perf_counter() < deadline:
        inst = timed[i % len(timed)]
        i += 1
        with SpeedMeter() as meter:
            seconds_op, err, output = run_op(cli, inst)
        raw.append(seconds_op)
        seconds_op = meter.normalise(seconds_op)
        busy += seconds_op
        n_failed = res.failed
        res.record(inst, seconds_op, err, output)
        if res.failed == n_failed:
            per_input.setdefault(inst.key, []).append(seconds_op)
    elapsed = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_checks(wl, pool, res, random.Random(seed), wl.checks_per_run)
    shutil.rmtree(d, ignore_errors=True)
    ok = res.attempted - res.failed
    times = res.times or [busy]
    input_times = [statistics.median(v) for v in per_input.values()] or [busy]
    tail_s, tail_pct, beyond = tail(input_times)
    print(f"# {wl.name} seed={seed}: {res.attempted} ops over {len(timed)} inputs "
          f"in {elapsed:.2f} s; {res.n_recorded} recorded digests")
    print(f"# fail_ratio = {res.failed / res.attempted} ({res.failed}/{res.attempted})")
    print(f"# op_s.tail is p{tail_pct:.1f} of {len(input_times)} inputs' median "
          f"op times ({beyond} beyond it)")
    print(f"# unnormalised wall time: op p50 {statistics.median(raw):.4f} s, "
          f"{len(raw) / sum(raw):.3f} ops/s busy")
    for e in res.errors[:20]:
        print(f"# FAILED {e}")
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ok / busy, "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "op_s.tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def traced_run(wl: Workload, seed: int, cli) -> Dict:
    from tracing import Tracer
    pool, _, d = setup(wl, seed, cli, 1)
    ops = pool[:wl.trace_ops]
    res = Results(wl.name, seed)

    deadline = time.perf_counter() + TRACE_BUDGET_S

    def one_pass(tracer: Optional[Tracer]) -> float:
        t0 = time.perf_counter()
        for k, inst in enumerate(ops):
            if time.perf_counter() > deadline:
                res.attempted += 1
                res.failed += 1
                res.errors.append(f"{inst.key}: traced-run budget exhausted")
                continue
            if tracer is not None:
                tracer.op = k
            res.record(inst, *run_op(cli, inst))
        return time.perf_counter() - t0

    # untraced passes on both sides of the traced one cancel a linear drift
    # in machine speed and the first pass's warm-up
    untraced_s = one_pass(None)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    untraced_s = (untraced_s + one_pass(None)) / 2
    run_checks(wl, pool, res, random.Random(seed), wl.checks_per_run)
    shutil.rmtree(d, ignore_errors=True)
    tracer.write(WORK / f"trace-{wl.name}-s{seed}.jsonl")
    metrics = tracer.metrics(traced_s - untraced_s)
    print(f"# {wl.name} seed={seed}: {len(ops)} ops per pass, untraced "
          f"{untraced_s:.2f} s, traced {traced_s:.2f} s; spans in "
          f"{WORK.name}/trace-{wl.name}-s{seed}.jsonl")
    print(f"# ratio bases: vineyard.transposition_update.calls = "
          f"{tracer.calls('vineyard.transposition_update')}, "
          f"sheaf.propagate.calls = {tracer.calls('sheaf.propagate')}")
    for e in res.errors[:20]:
        print(f"# FAILED {e}")
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, then one table of the end-to-end
    metrics and the failure ratio."""
    rows, notes, status = {}, {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=240)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1])
        notes[name] = next((ln[len("# op_s.tail is "):] for ln in lines
                            if ln.startswith("# op_s.tail is ")), "")
    print(f"{'workload':<16}{'metric':<14}{'value':>14}  unit")
    for name, r in rows.items():
        for metric, m in r["metrics"].items():
            note = f" ({notes[name]})" if metric == "op_s.tail" else ""
            print(f"{name:<16}{metric:<14}{m['value']:>14.6g}  {m['unit']}{note}")
        print(f"{name:<16}{'fail_ratio':<14}{r['failed'] / r['attempted']:>14.6g}  "
              f"ratio ({r['failed']}/{r['attempted']})")
    print(json.dumps(rows, sort_keys=True))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    cli = import_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(wl, args.seed, cli)
    else:
        result = timed_run(wl, args.seed, args.seconds, cli)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
