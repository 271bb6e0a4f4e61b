"""Regenerate perfbench/references.json: the reference outputs per seed.

    python3 perfbench/capture_refs.py --seeds 0-63

Run it only at a commit whose outputs are known good; the benchmark then
compares every later commit's tables against these values.  desk_serial and
desk_pool share the "desk" entry, because their CSVs must be byte-identical.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sysinfo import git_commit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="inclusive range like 0-63")
    args = parser.parse_args()
    chosen = [WORKLOADS[name] for name in ("desk_serial", "paper_m32", "oracle_scalar")]
    refs = {"source_commit": git_commit(ROOT)}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    out = tempfile.mkdtemp(prefix="refs-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        for seed in parse_seeds(args.seeds):
            for workload in chosen:
                config = workload.config(seed)
                result = workload.call(config, out, 1)
                problems = workload.check(config, result, None)
                if problems:
                    print(f"{workload.name} seed {seed}: {problems}", flush=True)
                entry = refs.setdefault(workload.ref_key, {})
                entry[str(seed)] = workload.reference_entry(result)
            print(f"seed {seed} captured", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
