"""lightinfer benchmark: one closed-loop client sending one request at a time.

    python3 perfbench/run.py --workload merge-prefill --seed 1 --seconds 10 --trace 0

Workloads are defined in `workloads.py`; metric names and units come from
BENCHMARK.json at the repository root. With `--trace 0` the run measures
the end-to-end metrics untraced; with `--trace 1` it alternates untraced
and traced requests on the same inputs and reports per-module metrics and
the tracing overhead. Both modes first make one untimed request under
`tracemalloc` for the memory figures, so allocation tracing stays out of
every timed request.

The last stdout line is the JSON result; the lines before it give every
metric with its unit and sample count, the requests sent, succeeded and
failed per phase, and the environment record. The full record, and the
spans of a traced run, are written under `perfbench/out/`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

from env import ROOT, import_engine, pin_blas_threads, record  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REF_PATH = BENCH_DIR / "ref_ids.json"
SETUP_PROBES = 2           # fresh-process set-ups besides the run's own
MIN_ITL_SAMPLES = 100      # so the 90th percentile has >= 10 samples beyond it
MAX_LOOP_S = 60.0          # stop waiting for decode samples when requests keep failing
PROBE_TIMEOUT_S = 120


class Phases:
    """Requests sent, succeeded and failed per phase, with the first errors."""

    def __init__(self):
        self.counts: dict[str, dict[str, int]] = {}
        self.errors: list[str] = []

    def attempt(self, phase: str, fn):
        """Run fn() -> (result, errors); count it as failed if it raises or reports errors."""
        c = self.counts.setdefault(phase, {"sent": 0, "ok": 0, "failed": 0, "seconds": 0.0})
        c["sent"] += 1
        t0 = time.perf_counter()
        try:
            result, errors = fn()
        except Exception:  # a failed request is counted and the run goes on
            result, errors = None, [traceback.format_exc(limit=4)]
        c["seconds"] += time.perf_counter() - t0
        if errors:
            c["failed"] += 1
            self.errors.extend(f"{phase}: {e}" for e in errors)
            return None
        c["ok"] += 1
        return result

    def reject(self, phase: str, error: str) -> None:
        """Turn an already counted success into a failure."""
        self.counts[phase]["ok"] -= 1
        self.counts[phase]["failed"] += 1
        self.errors.append(f"{phase}: {error}")

    def total(self, key: str) -> int:
        return sum(c[key] for c in self.counts.values())


class Bench:
    def __init__(self, workload, model):
        import workloads as W

        self.W = W
        self.wl = workload
        self.model = model
        self.pipeline = workload.pipeline()
        self.phases = Phases()

    def request(self, phase: str, input_seed: int, max_new: int, reference: bool = False,
                on_prefill=None, keep_cache: bool = False):
        """One checked request; returns its Reply or None if it failed.

        `reference` runs the pipeline-disabled generation instead of the
        workload's. The reply's KV cache is released unless `keep_cache` is set.
        """
        W = self.W
        pipeline = W.DISABLED if reference else self.pipeline
        full_cache = reference or not (self.wl.merging or self.wl.compression)

        def go():
            reply = W.run_request(self.model, W.make_input(input_seed), pipeline, max_new, on_prefill)
            errors = W.check_reply(reply, max_new, full_cache)
            if not keep_cache:
                reply.cache = None
            reply.input_seed = input_seed
            return reply, errors

        return self.phases.attempt(phase, go)

    def memory_pass(self, input_seed: int) -> dict[str, float]:
        """One untimed request under tracemalloc: peak bytes and kvcache-attributed bytes."""
        import lightinfer.kvcache as kv
        from lightinfer import memory_estimate

        def kv_bytes() -> int:
            snap = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, kv.__file__)])
            return sum(stat.size for stat in snap.statistics("filename"))

        seen: dict[str, float] = {}

        def at_prefill(pre):
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["alloc"] = kv_bytes()
            seen["logical"] = memory_estimate(pre.cache).total
            tracemalloc.reset_peak()

        gc.collect()
        tracemalloc.start()
        try:
            reply = self.request("memory", input_seed, self.wl.max_new, on_prefill=at_prefill,
                                 keep_cache=True)
            peak = tracemalloc.get_traced_memory()[1]
            alloc_decode = kv_bytes()
        finally:
            tracemalloc.stop()
        if reply is None:
            raise SystemExit("benchmark: the memory-pass request failed:\n" + "\n".join(self.phases.errors))
        reply.cache = None
        return {
            "peak_mem_mb": max(seen["peak"], peak) / 1e6,
            "kvcache.logical_mb_after_prefill": seen["logical"] / 1e6,
            "kvcache.alloc_mb_after_prefill": seen["alloc"] / 1e6,
            "kvcache.alloc_mb_after_decode": alloc_decode / 1e6,
        }

    def timed_phase(self, seed: int, seconds: float):
        """Closed loop: send requests back to back until `seconds` have passed."""
        import numpy as np

        replies = []
        n_itl = 0
        t0 = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - t0
            if i and elapsed >= seconds and (n_itl >= MIN_ITL_SAMPLES or elapsed >= MAX_LOOP_S):
                break
            reply = self.request("timed", seed + i, self.wl.max_new)
            i += 1
            if reply is not None:
                replies.append(reply)
                n_itl += len(reply.itl_s)
        if not replies:
            raise SystemExit("benchmark: every timed request failed:\n" + "\n".join(self.phases.errors))
        itl = np.array([t for r in replies for t in r.itl_s])
        p90 = float(np.percentile(itl, 90))
        values = {
            "ttft_ms": statistics.median(r.ttft_s for r in replies) * 1e3,
            "itl_ms": float(np.median(itl)) * 1e3,
            "itl_p90_ms": p90 * 1e3,
            "tokens_per_s": sum(len(r.ids) for r in replies) / sum(r.total_s for r in replies),
        }
        samples = {"requests": len(replies), "decode_steps": int(itl.size),
                   "decode_steps_beyond_p90": int((itl > p90).sum())}
        return values, replies, samples

    def traced_phase(self, seed: int, seconds: float):
        """Pairs of untraced and traced requests on one input, alternating which goes first."""
        from spans import Tracer, module_metrics

        tracer = Tracer(self.W.N_TEXT)
        totals = {"untraced": [], "traced": []}
        replies = []
        t0 = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t0 < seconds:
            pair = {}
            for phase in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
                if phase == "traced":
                    tracer.request = i
                    with tracer.installed():
                        pair[phase] = self.request(phase, seed + i, self.wl.max_new)
                else:
                    pair[phase] = self.request(phase, seed + i, self.wl.max_new)
            if None not in pair.values():
                if pair["traced"].ids != pair["untraced"].ids:
                    self.phases.reject("traced", f"input seed {seed + i}: traced ids differ from untraced")
                else:
                    for phase, reply in pair.items():
                        totals[phase].append(reply.total_s)
                    replies.append(pair["untraced"])
            i += 1
        if not replies:
            raise SystemExit("benchmark: no traced/untraced pair succeeded:\n" + "\n".join(self.phases.errors))
        values = module_metrics(tracer.spans, self.W.MODEL.dim, {r.input_seed - seed for r in replies})
        values["bench.trace_overhead_pct"] = (sum(totals["traced"]) / sum(totals["untraced"]) - 1) * 100
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{self.wl.name}-seed{seed}-spans.json")
        return values, replies, {"pairs": len(replies)}

    def token_match(self, replies, generate_missing: bool) -> tuple[float | None, int]:
        """Share of ids equal to the pipeline-disabled ids for the same input and length.

        References come from the shipped table. If it has none of this run's
        inputs and `generate_missing` is set, the first request's reference is
        generated here, after timing; otherwise the share is None.
        """
        table = json.loads(REF_PATH.read_text()) if REF_PATH.exists() else {}
        pairs = [(r.ids, table[str(r.input_seed)]) for r in replies if str(r.input_seed) in table]
        if not pairs and generate_missing:
            ref = self.request("reference", replies[0].input_seed, self.wl.max_new, reference=True)
            if ref is not None:
                pairs = [(replies[0].ids, ref.ids)]
        if not pairs:
            return None, 0
        hits = sum(a == b for ids, ref in pairs for a, b in zip(ids, ref))
        return hits / sum(len(ids) for ids, _ in pairs), len(pairs)


def setup_probes(args, phases: Phases) -> list[float]:
    """Set-up time of fresh processes, each doing what this run did before its first timing."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]

    def probe():
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if p.returncode != 0:
            return None, [f"set-up probe exited {p.returncode}: {p.stderr[-500:]}"]
        out = json.loads(p.stdout.strip().splitlines()[-1])
        return out["setup_s"], [] if out["ok"] else ["set-up probe's warm-up request failed"]

    return [s for s in (phases.attempt("setup", probe) for _ in range(SETUP_PROBES)) if s is not None]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = pin_blas_threads()
    import_engine()
    import workloads as W
    from lightinfer import init_model

    if args.workload not in W.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = W.WORKLOADS[args.workload]

    # Set-up: imports, model, input and one short discarded request, which
    # takes the cold first prefill of the process.
    bench = Bench(wl, init_model(W.MODEL))
    bench.request("setup", args.seed, W.WARMUP_TOKENS)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "ok": bench.phases.total("failed") == 0}))
        return 0

    memory = bench.memory_pass(args.seed)
    if args.trace:
        values, replies, samples = bench.traced_phase(args.seed, args.seconds)
        values.update({k: v for k, v in memory.items() if k.startswith("kvcache.")})
    else:
        values, replies, samples = bench.timed_phase(args.seed, args.seconds)
        setups = [setup_s] + setup_probes(args, bench.phases)
        values["setup_s"] = statistics.median(setups)
        values["peak_mem_mb"] = memory["peak_mem_mb"]
        samples["setup_s"] = setups
    # token_match is bimodal per input on evict-decode, too unsteady for a bound,
    # so it is a traced-run metric and is only printed by untraced runs.
    match, samples["token_match_requests"] = bench.token_match(replies, generate_missing=bool(args.trace))
    if args.trace:
        values["bench.token_match"] = 0.0 if match is None else match   # None: the reference failed
    else:
        values["token_match"] = match
    phases = bench.phases
    values["success_frac"] = phases.total("ok") / phases.total("sent")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["token_match"] = "frac"
    result = {
        "correct": phases.total("failed") == 0,
        "attempted": phases.total("sent"),
        "failed": phases.total("failed"),
        "metrics": metrics,
    }
    env = record(blas_threads)
    env["workload_digests"] = {name: w.digest() for name, w in W.WORKLOADS.items()}
    full = {"env": env, "workload": asdict(wl),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "phases": phases.counts, "errors": phases.errors, "samples": samples,
            "values": values, "memory_pass": memory}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))

    print(f"env {json.dumps(full['env'])}")
    print(f"workload {wl.name} {json.dumps(full['workload'])}")
    for phase, c in phases.counts.items():
        print(f"phase {phase} sent={c['sent']} succeeded={c['ok']} failed={c['failed']} "
              f"wall_s={c['seconds']:.2f}")
    for e in phases.errors:
        print(f"error {e}")
    print(f"samples {json.dumps(samples)}")
    print(f"failed_frac {phases.total('failed') / phases.total('sent')!r} frac")
    for name, v in values.items():
        print(f"{name} {'n/a' if v is None else repr(v)} {units.get(name, '')}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
