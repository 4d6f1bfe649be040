"""One cold set-up in a fresh interpreter; prints its seconds as JSON.

run.py starts several of these so that ``setup_s`` is a median over cold
imports rather than one sample.
"""

import argparse
import json
import sys

from bootstrap import timed_setup, use_checkout_source, workdir


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_checkout_source()
    with workdir() as directory:
        _, _, gate, seconds = timed_setup(args.workload, args.seed, directory, False)
    if gate.failed:
        print("\n".join(gate.failures), file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
