"""Write the pipeline-disabled reference ids that `token_match` compares against.

    python3 perfbench/make_refs.py --first 0 --count 64 [--out perfbench/ref_ids.json]

One greedy generation of REF_TOKENS ids per input seed; a workload with a
shorter output compares against the prefix, which is the same generation
stopped earlier. Existing seeds in the output file are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from env import import_engine, pin_blas_threads

REF_TOKENS = 512
REF_PATH = Path(__file__).resolve().parent / "ref_ids.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--out", type=Path, default=REF_PATH)
    args = ap.parse_args()

    pin_blas_threads()
    import_engine()
    from lightinfer import init_model
    from workloads import DISABLED, MODEL, make_input, run_request

    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    model = init_model(MODEL)
    for seed in range(args.first, args.first + args.count):
        if str(seed) in table:
            continue
        reply = run_request(model, make_input(seed), DISABLED, REF_TOKENS)
        table[str(seed)] = reply.ids
        args.out.write_text(json.dumps(table, separators=(",", ":"), sort_keys=True) + "\n")
        print(f"seed {seed}: {reply.total_s:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
