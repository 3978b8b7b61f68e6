"""Make one workload's inputs in a process of its own.

    python3 perfbench/make_inputs.py --workload NAME --seed N --out DIR

Writes the inputs under DIR and the set-up figures (generator and
``save_instance`` seconds, instance bytes, nnz) to DIR/setup.json.
``run.py`` starts this before its operations, so the generator's
temporaries stay out of the operating process's peak memory.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import program

program.use_checkout_sources()

import workloads  # noqa: E402  (needs the checkout's sources on the path)


def main() -> None:
    parser = argparse.ArgumentParser(prog="make_inputs.py")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    info = workloads.WORKLOADS[args.workload].make_inputs(args.seed, args.out)
    (args.out / "setup.json").write_text(json.dumps(info))


if __name__ == "__main__":
    main()
