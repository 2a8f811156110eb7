"""Generated ids on the benchmark's model and inputs, against stored ids.

A change meant to keep the engine's outputs must keep these ids. The
vanilla ids are the prefix of `perfbench/ref_ids.json`; the merge-prefill
and evict-decode ids are in `tests/data/golden_ids.json`, which running
this file rewrites from the engine as it stands:

    PYTHONPATH=src python tests/test_golden_ids.py

Regenerate only for a change that is meant to alter generated ids.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lightinfer import init_model, prefill

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_ids.json"
REF_PATH = Path(workloads.__file__).resolve().parent / "ref_ids.json"
# workload -> (input seeds, output tokens)
GOLDEN_CASES = {"merge-prefill": ((1, 2), 16), "evict-decode": ((1, 2), 24)}
VANILLA_SEEDS, VANILLA_TOKENS = (0, 1), 16
# seeds whose first id, the only one the prefill logits decide, is checked by prefill alone
PREFILL_SEEDS = range(8)


def _ids(model, pipeline, seed: int, n: int) -> list[int]:
    return workloads.run_request(model, workloads.make_input(seed), pipeline, n).ids


def golden_table(model) -> dict[str, dict[str, list[int]]]:
    return {name: {str(seed): _ids(model, workloads.WORKLOADS[name].pipeline(), seed, n)
                   for seed in seeds}
            for name, (seeds, n) in GOLDEN_CASES.items()}


@pytest.fixture(scope="module")
def bench_model():
    return init_model(workloads.MODEL)


def test_vanilla_ids_match_reference_prefix(bench_model):
    ref = json.loads(REF_PATH.read_text())
    for seed in VANILLA_SEEDS:
        got = _ids(bench_model, workloads.DISABLED, seed, VANILLA_TOKENS)
        assert got == ref[str(seed)][:VANILLA_TOKENS], f"seed {seed}"


def test_prefill_argmax_matches_reference_first_id(bench_model):
    ref = json.loads(REF_PATH.read_text())
    for seed in PREFILL_SEEDS:
        pre = prefill(bench_model, workloads.make_input(seed), workloads.DISABLED)
        assert int(np.argmax(pre.logits)) == ref[str(seed)][0], f"seed {seed}"


def test_pipeline_ids_match_golden(bench_model):
    assert golden_table(bench_model) == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    table = golden_table(init_model(workloads.MODEL))
    GOLDEN_PATH.write_text(json.dumps(table, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
