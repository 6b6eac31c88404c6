#!/usr/bin/env python3
"""Record the SHA-256 digest of every input's output for the given seeds.

    python3 perfbench/record.py SEED [SEED ...]

Run this only on code whose outputs are the reference (the digests in
digests.json were recorded from the seed code). Every instance of every
workload's pool runs once and must succeed, and twice a timed run's oracle
sample must pass, before the seed's digests are stored. Entries for other
seeds are kept.
"""
from __future__ import annotations

import json
import random
import shutil
import signal
import sys

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv] or list(range(11))
    cli = run.import_program()
    signal.signal(signal.SIGALRM, run._on_alarm)
    run.WORK.mkdir(exist_ok=True)
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name, wl in run.WORKLOADS.items():
        for seed in seeds:
            pool, _, d = run.setup(wl, seed, cli, 1)
            res = run.Results(name, seed)
            res.expected.clear()
            for inst in pool:
                res.record(inst, *run.run_op(cli, inst))
            run.run_checks(wl, pool, res, random.Random(seed), 2 * wl.checks_per_run)
            if res.failed:
                raise SystemExit(f"{name} seed {seed}: {res.errors}")
            shutil.rmtree(d, ignore_errors=True)
            digests.setdefault(name, {})[str(seed)] = res.expected
            print(f"{name} seed {seed}: {len(pool)} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
