"""Record the DSE frontier digests the benchmark checks its output against.

Usage, from the root of the repository::

    python3 perfbench/reference.py --seeds 0-47

For every seed, each DSE workload runs one pass and its frontier bytes
(the CSV of every shape's objective and cost) are hashed into
``perfbench/reference.json``.  An existing entry is never changed: a seed
whose frontier no longer matches its recorded digest is reported and the
script exits with status 1.  Record new seeds only from a commit whose
model output is known good.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="inclusive range, e.g. 0-47")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import (
        REFERENCE, DseFull, DseReplay, frontier_digest, load_reference)

    reference = load_reference()
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    status = 0
    for seed in args.seeds:
        for cls in (DseFull, DseReplay):
            workdir = tempfile.mkdtemp(prefix="reference-",
                                       dir=os.path.join(ROOT, ".perfbench-work"))
            try:
                workload = cls(seed, workdir)
                workload.setup()
                result = workload.run_pass(workload.new_store_dir())
                workload.check_pass(result)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result.problems:
                print(f"{cls.name} seed {seed}: {'; '.join(result.problems)}")
                status = 1
                continue
            digests = reference.setdefault(cls.name, {})
            digests.setdefault(str(seed), frontier_digest(result.output))
            print(f"{cls.name} seed {seed}: {digests[str(seed)]}", flush=True)
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
