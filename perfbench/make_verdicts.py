#!/usr/bin/env python3
"""Regenerate data/random_verdicts.json: the expansion-oracle verdicts of the
first COUNT clause sets of the random workload's default-seed stream.

    python3 perfbench/make_verdicts.py

Codes: S = solvable (oracle unsat), C = counterexample (oracle sat),
- = the oracle ended in a budget error (the case is left out).
"""

import json

import run
import workloads as wl

COUNT = 2000


def main():
    hornitp = run.import_hornitp()
    codes = {wl.SOLVED: "S", wl.COUNTEREXAMPLE: "C", None: "-"}
    stream = wl.random_stream(run.DEFAULT_SEED)
    verdicts = "".join(codes[run.oracle_verdict(hornitp, next(stream)[1])]
                       for _ in range(COUNT))
    data = {"seed": run.DEFAULT_SEED, "generator": "workloads.random_stream",
            "sha256": run.stream_digest(run.DEFAULT_SEED, COUNT), "verdicts": verdicts}
    run.VERDICTS.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
