"""Benchmark, sweep and analysis runners behind the CLI.

All timings come from the monotonic clock inside generate(), whose decode
steps make ids 2 to max_new (a one-id run has none: its decode mean is nan).
`timed_runs` is the one timing loop of `bench` and of verify's long-decode
check: one discarded 8-id warm-up per pipeline, then repetitions that run
every length and, at each length, every pipeline in turn, so a slow phase
of the host hits all pipelines alike. Bench rows read its runs, 5 per cell
for each of the four variants, through `prefill_median` (pooled over
lengths) and `total_ms`, and print once all runs finish. CSVs carry a
config-hash comment line over the settings the command reads, so runs of
identical settings are comparable.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import asdict, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import EngineConfig, PipelineSettings
from .kvcache import coverage_prefix
from .merge import Segment, TokenSequence
from .model import Model, PipelineConfig, RunMetrics, build_input, generate, init_model, prefill

_REPETITIONS = 5
# cumulative attention-mass levels reported by analyze
_THRESHOLDS = (0.90, 0.95, 0.99)


def variants(settings: PipelineSettings) -> dict[str, PipelineConfig]:
    """The four bench variants, vanilla first, since every other row's speedup
    is against it."""
    full = settings.build()
    return {"vanilla": replace(full, merge_schedule=None, compression=None),
            "merge-only": replace(full, compression=None),
            "cache-only": replace(full, merge_schedule=None),
            "full": full}


def _build_seq(cfg: EngineConfig, seed: Optional[int] = None) -> TokenSequence:
    inp = cfg.input if seed is None else replace(cfg.input, seed=seed)
    return build_input(**asdict(inp), dim=cfg.model.dim)


def _write_csv(path, header: list[str], rows: Iterable[list], cfg_hash: str,
               comment: str = "") -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# config_hash={cfg_hash}{(' ' + comment) if comment else ''}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _decode_stat(stat, decode_ms: list[float]) -> float:
    """`stat` of a run's decode step times; nan for a one-id run, which has none."""
    return stat(decode_ms) if decode_ms else np.nan


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)


def do_run(cfg: EngineConfig, out: Optional[str] = None) -> RunMetrics:
    model = init_model(cfg.model)
    seq = _build_seq(cfg)
    ids, m = generate(model, seq, cfg.pipeline.build(), cfg.bench.max_new)
    cfg_hash = cfg.hash(("max_new",))

    print(f"config_hash={cfg_hash} model_seed={cfg.model.seed} input_seed={cfg.input.seed}")
    print(f"prefill_ms={m.prefill_ms:.3f}")
    dec = m.decode_ms_per_token
    print(f"decode_ms_per_token mean={_decode_stat(statistics.mean, dec):.3f} "
          f"median={_decode_stat(statistics.median, dec):.3f} n={len(dec)}")
    print(f"total_ms={m.prefill_ms + sum(dec):.3f}")
    print(f"memory_bytes={m.memory_bytes} allocated_bytes={m.allocated_bytes}")
    print(f"output_tokens={' '.join(str(t) for t in ids)}")
    print("layer tokens image text cache_entries")
    rows = [[li, r.tokens, r.image_tokens, r.tokens - r.image_tokens, r.cache_entries]
            for li, r in enumerate(m.layers)]
    for row in rows:
        print(" ".join(str(x) for x in row))

    if out:
        _write_csv(out, ["layer", "tokens", "image_tokens", "text_tokens", "cache_entries"],
                   rows, cfg_hash,
                   comment=f"prefill_ms={m.prefill_ms:.3f} memory_bytes={m.memory_bytes} "
                           f"allocated_bytes={m.allocated_bytes}")
    return m


def timed_runs(model: Model, seq: TokenSequence, pipelines: dict[str, PipelineConfig],
               reps: dict[int, int]) -> dict[tuple[str, int], list[RunMetrics]]:
    """Each `(label, length)`'s runs: `reps[length]` repetitions of every pipeline.

    Repetition r runs each length with more than r repetitions, in `reps`
    order, and at each length every pipeline in turn, after one discarded
    8-id warm-up per pipeline.
    """
    for pipeline in pipelines.values():
        generate(model, seq, pipeline, 8)  # warm-up, discarded
    runs = {(label, n): [] for label in pipelines for n in reps}
    for rep in range(max(reps.values())):
        for n in (n for n in reps if rep < reps[n]):
            for label, pipeline in pipelines.items():
                runs[(label, n)].append(generate(model, seq, pipeline, n)[1])
    return runs


def prefill_median(runs: dict[tuple[str, int], list[RunMetrics]], label: str) -> float:
    """A pipeline's median prefill time over all its runs: prefill does not
    depend on the output length."""
    return statistics.median(m.prefill_ms for (lab, _), ms in runs.items() if lab == label
                             for m in ms)


def total_ms(runs: dict[tuple[str, int], list[RunMetrics]], label: str, length: int) -> float:
    """The pooled prefill median plus the median sum of the `length - 1` decode steps."""
    return prefill_median(runs, label) + statistics.median(
        sum(m.decode_ms_per_token) for m in runs[(label, length)])


def do_bench(cfg: EngineConfig, out: Optional[str] = None) -> list[list]:
    pipelines = variants(cfg.pipeline)
    runs = timed_runs(init_model(cfg.model), _build_seq(cfg), pipelines,
                      {n: _REPETITIONS for n in cfg.bench.lengths})
    header = ["label", "length", "keep_ratio", "beta", "prefill_ms", "decode_ms_mean",
              "total_ms", "memory_bytes", "allocated_bytes", "speedup", "reps"]
    rows = []
    for variant, pipeline in pipelines.items():
        keep = pipeline.merge_schedule.target_ratio if pipeline.merge_schedule else 1.0
        beta = pipeline.compression.beta if pipeline.compression else 1.0
        for length in cfg.bench.lengths:
            cell = runs[(variant, length)]
            decode_mean = statistics.median(
                _decode_stat(statistics.mean, r.decode_ms_per_token) for r in cell)
            total = total_ms(runs, variant, length)
            rows.append([variant, length, _fmt(keep), _fmt(beta),
                         _fmt(prefill_median(runs, variant)), _fmt(decode_mean), _fmt(total),
                         cell[0].memory_bytes, cell[0].allocated_bytes,
                         f"{total_ms(runs, 'vanilla', length) / total:.2f}", _REPETITIONS])
    for row in rows:
        print(" ".join(str(x) for x in row))

    if out:
        _write_csv(out, header, rows, cfg.hash(("lengths",)), comment=f"repetitions={_REPETITIONS}")
    return rows


def _sweep_cell(cfg: EngineConfig, model: Model, keep_ratio: float, beta: float,
                seqs: Sequence[TokenSequence], vanilla_ids: list[list[int]]) -> list:
    pipeline = replace(cfg.pipeline, keep_ratio=keep_ratio, beta=beta).build()
    drifts, prefills, totals, decmeans, memories = [], [], [], [], []
    for seq, ref in zip(seqs, vanilla_ids):
        ids, m = generate(model, seq, pipeline, cfg.bench.max_new)
        drifts.append(float(np.mean([a != b for a, b in zip(ids, ref)])))
        prefills.append(m.prefill_ms)
        totals.append(m.prefill_ms + sum(m.decode_ms_per_token))
        decmeans.append(_decode_stat(statistics.mean, m.decode_ms_per_token))
        memories.append(m.memory_bytes)
    return [
        _fmt(keep_ratio), _fmt(beta), cfg.bench.seeds,
        f"{statistics.mean(drifts):.6f}",
        _fmt(statistics.median(prefills)), _fmt(statistics.median(decmeans)),
        _fmt(statistics.median(totals)), int(statistics.median(memories)),
    ]


def do_sweep(cfg: EngineConfig, out: Optional[str] = None) -> list[list]:
    """Run the keep_ratio x beta grid, one cell after another, on the same
    `seeds` inputs; prefill never writes its input."""
    bench = cfg.bench
    model = init_model(cfg.model)
    seqs = [_build_seq(cfg, seed=cfg.input.seed + i) for i in range(bench.seeds)]
    vanilla_ids = [generate(model, seq, PipelineConfig(None, None), bench.max_new)[0]
                   for seq in seqs]

    rows = [_sweep_cell(cfg, model, kr, b, seqs, vanilla_ids)
            for kr in bench.keep_ratios for b in bench.betas]

    header = ["keep_ratio", "beta", "seeds", "drift", "prefill_ms", "decode_ms_mean",
              "total_ms", "memory_bytes"]
    for row in rows:
        print(" ".join(str(x) for x in row))
    if out:
        _write_csv(out, header, rows, cfg.hash(("max_new", "keep_ratios", "betas", "seeds")),
                   comment=f"seeds={bench.seeds}")
    return rows


def masks_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + "_masks" + (p.suffix or ".csv")))


def do_analyze(cfg: EngineConfig, out: Optional[str] = None) -> tuple[list[list], list[list]]:
    model = init_model(cfg.model)
    seq = _build_seq(cfg)
    pre = prefill(model, seq, cfg.pipeline.build())

    curve_rows = []
    for li, rec in enumerate(pre.metrics.layers):
        n = rec.importance.size
        if n == 0:
            continue
        scores = rec.importance.astype(np.float64)
        norm = scores / scores.sum()
        for t in _THRESHOLDS:
            # the rule compression applies to one head's image entries
            k = int(coverage_prefix(norm[None], t).sum())
            curve_rows.append([li, _fmt(t), k, n, f"{k / n:.4f}"])

    original_image_positions = seq.positions[seq.segments == Segment.IMAGE]
    mask_rows = []
    for li, rec in enumerate(pre.metrics.layers):
        if rec.kept_positions is None:
            continue
        kept = set(rec.kept_positions.tolist())
        mask_rows.append([li] + [1 if int(p) in kept else 0 for p in original_image_positions])

    for row in curve_rows:
        print(" ".join(str(x) for x in row))
    if out:
        _write_csv(out, ["layer", "threshold", "k", "n_image", "fraction"],
                   curve_rows, cfg.hash())
        _write_csv(masks_path(out),
                   ["layer"] + [f"p{int(p)}" for p in original_image_positions],
                   mask_rows, cfg.hash())
    return curve_rows, mask_rows


def dump_snapshot(audits: Sequence, n_heads: int, path, cfg_hash: str) -> None:
    """Debug CSV: one row per layer/head/entry with retention info.

    `audits[layer]` is the layer's `LayerAudit` from `prefill(..., audit=True)`.
    Every entry prefill brought to a layer is reported, evicted or not; an
    uncompressed layer reports each as retained with an empty score field.
    """
    def rows():
        for li, audit in enumerate(audits):
            for h in range(n_heads):
                if audit.retained is not None:
                    for p, s, r, v in zip(audit.positions, audit.segments,
                                          audit.retained[h], audit.scores[h]):
                        yield [li, h, int(p), Segment(int(s)).name.lower(), int(r), f"{v:.8g}"]
                else:
                    for p, s in zip(audit.positions, audit.segments):
                        yield [li, h, int(p), Segment(int(s)).name.lower(), 1, ""]

    _write_csv(path, ["layer", "head", "position", "segment", "retained", "score"],
               rows(), cfg_hash)


def do_dump_cache(cfg: EngineConfig, out: Optional[str] = None) -> None:
    pre = prefill(init_model(cfg.model), _build_seq(cfg), cfg.pipeline.build(), audit=True)
    out = out or "cache_snapshot.csv"
    dump_snapshot([r.evictions for r in pre.metrics.layers], cfg.model.n_heads, out, cfg.hash())
    print(f"wrote {out}")
