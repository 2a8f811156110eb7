"""Benchmark, sweep and analysis runners behind the CLI.

All timings come from the monotonic clock inside generate(); bench rows
are medians over >= 5 repetitions with a discarded warm-up run. CSVs
carry a config-hash comment line so identical configs are comparable.
"""

from __future__ import annotations

import csv
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, EngineConfig
from .merge import Segment
from .model import PipelineConfig, RunMetrics, build_input, generate, init_model, prefill
from .oracle import attention_mass_curve

# variant -> (merging_enabled, compression_enabled)
VARIANT_FLAGS = {
    "vanilla": (False, False),
    "merge-only": (True, False),
    "cache-only": (False, True),
    "full": (True, True),
}


def _build_seq(cfg: EngineConfig, seed: Optional[int] = None):
    inp = cfg.input
    return build_input(inp.n_system, inp.n_image, inp.n_instruction, inp.redundancy,
                       inp.seed if seed is None else seed, dim=cfg.model.dim)


def _write_csv(path, header: list[str], rows: list[list], cfg_hash: str,
               comment: str = "") -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# config_hash={cfg_hash}{(' ' + comment) if comment else ''}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)


def do_run(cfg: EngineConfig, out: Optional[str] = None) -> RunMetrics:
    model = init_model(cfg.model)
    seq = _build_seq(cfg)
    ids, m = generate(model, seq, cfg.pipeline.build(), cfg.bench.max_new)

    print(f"config_hash={cfg.hash()} model_seed={cfg.model.seed} input_seed={cfg.input.seed}")
    print(f"prefill_ms={m.prefill_ms:.3f}")
    dec = m.decode_ms_per_token
    print(f"decode_ms_per_token mean={statistics.mean(dec):.3f} "
          f"median={statistics.median(dec):.3f} n={len(dec)}")
    print(f"total_ms={m.prefill_ms + sum(dec):.3f}")
    print(f"memory_bytes={m.memory_bytes} allocated_bytes={m.allocated_bytes}")
    print(f"output_tokens={' '.join(str(t) for t in ids)}")
    print("layer tokens image text cache_entries")
    for li in range(len(m.tokens_per_layer)):
        print(f"{li} {m.tokens_per_layer[li]} {m.image_tokens_per_layer[li]} "
              f"{m.text_tokens_per_layer[li]} {m.cache_entries_per_layer[li]}")

    if out:
        rows = [
            [li, m.tokens_per_layer[li], m.image_tokens_per_layer[li],
             m.text_tokens_per_layer[li], m.cache_entries_per_layer[li]]
            for li in range(len(m.tokens_per_layer))
        ]
        _write_csv(out, ["layer", "tokens", "image_tokens", "text_tokens", "cache_entries"],
                   rows, cfg.hash(),
                   comment=f"prefill_ms={m.prefill_ms:.3f} memory_bytes={m.memory_bytes} "
                           f"allocated_bytes={m.allocated_bytes}")
    return m


def _timed_runs(model, seq, pipeline: PipelineConfig, max_new: int, reps: int, warmup: int):
    results = []
    for _ in range(warmup + reps):
        results.append(generate(model, seq, pipeline, max_new)[1])
    return results[warmup:]


def do_bench(cfg: EngineConfig, out: Optional[str] = None) -> list[list]:
    bench = cfg.bench
    if "vanilla" not in bench.variants:
        raise ConfigError("bad value for [bench] variants: bench needs vanilla "
                          "(speedup baseline)")
    if bench.repetitions < 5:
        raise ConfigError(f"bad value for [bench] repetitions: bench needs >= 5, "
                          f"got {bench.repetitions}")

    model = init_model(cfg.model)
    seq = _build_seq(cfg)
    header = ["label", "length", "keep_ratio", "beta", "prefill_ms", "decode_ms_mean",
              "total_ms", "memory_bytes", "allocated_bytes", "speedup", "reps"]
    rows = []
    vanilla_total: dict[int, float] = {}

    ordered = ["vanilla"] + [v for v in bench.variants if v != "vanilla"]
    for variant in ordered:
        merging, compression = VARIANT_FLAGS[variant]
        pipeline = cfg.pipeline.build(merging=merging, compression=compression)
        keep = cfg.pipeline.keep_ratio if merging else 1.0
        beta = cfg.pipeline.beta if compression else 1.0
        for length in bench.lengths:
            runs = _timed_runs(model, seq, pipeline, length, bench.repetitions, bench.warmup)
            prefill_ms = statistics.median(r.prefill_ms for r in runs)
            totals = [r.prefill_ms + sum(r.decode_ms_per_token) for r in runs]
            total_ms = statistics.median(totals)
            decode_mean = statistics.median(
                statistics.mean(r.decode_ms_per_token) for r in runs
            )
            if variant == "vanilla":
                vanilla_total[length] = total_ms
            speedup = vanilla_total[length] / total_ms
            rows.append([variant, length, _fmt(keep), _fmt(beta), _fmt(prefill_ms),
                         _fmt(decode_mean), _fmt(total_ms), runs[0].memory_bytes,
                         runs[0].allocated_bytes, f"{speedup:.2f}",
                         bench.repetitions])
            print(" ".join(str(x) for x in rows[-1]))

    if out:
        _write_csv(out, header, rows, cfg.hash(), comment=f"repetitions={bench.repetitions}")
    return rows


def _sweep_cell(cfg: EngineConfig, keep_ratio: float, beta: float,
                vanilla_ids: list[list[int]]) -> list:
    model = init_model(cfg.model)
    pipeline = cfg.pipeline.build(merging=True, compression=True,
                                  keep_ratio=keep_ratio, beta=beta)
    drifts, prefills, totals, decmeans, memories = [], [], [], [], []
    for i in range(cfg.bench.seeds):
        seq = _build_seq(cfg, seed=cfg.input.seed + i)
        ids, m = generate(model, seq, pipeline, cfg.bench.max_new)
        ref = vanilla_ids[i]
        drifts.append(float(np.mean([a != b for a, b in zip(ids, ref)])))
        prefills.append(m.prefill_ms)
        totals.append(m.prefill_ms + sum(m.decode_ms_per_token))
        decmeans.append(statistics.mean(m.decode_ms_per_token))
        memories.append(m.memory_bytes)
    return [
        _fmt(keep_ratio), _fmt(beta), cfg.bench.seeds,
        f"{statistics.mean(drifts):.6f}",
        _fmt(statistics.median(prefills)), _fmt(statistics.median(decmeans)),
        _fmt(statistics.median(totals)), int(statistics.median(memories)),
    ]


def do_sweep(cfg: EngineConfig, out: Optional[str] = None, jobs: int = 1) -> list[list]:
    """Run the keep_ratio x beta grid with `jobs` worker processes, capped at
    the CPU count."""
    bench = cfg.bench
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    model = init_model(cfg.model)
    disabled = cfg.pipeline.build(merging=False, compression=False)
    vanilla_ids = []
    for i in range(bench.seeds):
        seq = _build_seq(cfg, seed=cfg.input.seed + i)
        vanilla_ids.append(generate(model, seq, disabled, bench.max_new)[0])

    cells = [(kr, b) for kr in bench.keep_ratios for b in bench.betas]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_sweep_cell, [cfg] * len(cells),
                               [c[0] for c in cells], [c[1] for c in cells],
                               [vanilla_ids] * len(cells)))
    else:
        rows = [_sweep_cell(cfg, kr, b, vanilla_ids) for kr, b in cells]

    header = ["keep_ratio", "beta", "seeds", "drift", "prefill_ms", "decode_ms_mean",
              "total_ms", "memory_bytes"]
    for row in rows:
        print(" ".join(str(x) for x in row))
    if out:
        _write_csv(out, header, rows, cfg.hash(), comment=f"seeds={bench.seeds} jobs={jobs}")
    return rows


def masks_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + "_masks" + (p.suffix or ".csv")))


def do_analyze(cfg: EngineConfig, out: Optional[str] = None) -> tuple[list[list], list[list]]:
    model = init_model(cfg.model)
    seq = _build_seq(cfg)
    pre = prefill(model, seq, cfg.pipeline.build())

    curve_rows = []
    for li, scores in enumerate(pre.image_importance_per_layer):
        if scores.size == 0:
            continue
        ks = attention_mass_curve(scores, cfg.bench.thresholds)
        for t, k in zip(cfg.bench.thresholds, ks):
            curve_rows.append([li, _fmt(t), k, scores.size, f"{k / scores.size:.4f}"])

    original_image_positions = seq.positions[seq.segments == Segment.IMAGE]
    mask_rows = []
    for ev in pre.merge_events:
        kept = set(ev.kept_positions.tolist())
        mask_rows.append([ev.layer] + [1 if int(p) in kept else 0 for p in original_image_positions])

    for row in curve_rows:
        print(" ".join(str(x) for x in row))
    if out:
        _write_csv(out, ["layer", "threshold", "k", "n_image", "fraction"],
                   curve_rows, cfg.hash())
        _write_csv(masks_path(out),
                   ["layer"] + [f"p{int(p)}" for p in original_image_positions],
                   mask_rows, cfg.hash())
    return curve_rows, mask_rows
