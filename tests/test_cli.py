import csv
import re
import statistics
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lightinfer import bench as bench_mod
from lightinfer import cli
from lightinfer import verify as verify_mod
from lightinfer.config import EngineConfig, load_config
from lightinfer.kvcache import CompressionConfig, KVCache, retention
from lightinfer.merge import Segment
from lightinfer.model import (
    LayerRecord,
    PipelineConfig,
    RunMetrics,
    generate,
    init_model,
    prefill,
)

BASE_CONFIG = """
[model]
n_layers=4
n_heads=2
dim=32
vocab=64
seed=0

[input]
n_system=4
n_image=24
n_instruction=6
redundancy=0.5
seed=1

[pipeline]
merge_layers=1,2,3
keep_ratio={keep_ratio}
beta={beta}
start_layer=1

[bench]
max_new=6
lengths=3,6
keep_ratios=1.0,0.5,0.25
betas=1.0,0.9
seeds=3
"""


def write_config(tmp_path, name="cfg.ini", keep_ratio="0.25", beta="0.9"):
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(keep_ratio=keep_ratio, beta=beta))
    return str(path)


def output_tokens_line(text):
    for line in text.splitlines():
        if line.startswith("output_tokens="):
            return line
    raise AssertionError(f"no output_tokens line in:\n{text}")


def test_run_smoke(tmp_path, capsys):
    assert cli.main(["run", "--config", write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    for key in ("prefill_ms=", "decode_ms_per_token", "memory_bytes=", "output_tokens="):
        assert key in out
    assert "layer tokens image text cache_entries" in out


def test_run_identity_matches_vanilla(tmp_path, capsys):
    cfg_id = write_config(tmp_path, "id.ini", keep_ratio="1.0", beta="1.0")
    assert cli.main(["run", "--config", cfg_id]) == 0
    ids_a = output_tokens_line(capsys.readouterr().out)
    cfg = load_config(cfg_id)
    ids_b, _ = generate(init_model(cfg.model), bench_mod._build_seq(cfg),
                        PipelineConfig(None, None), cfg.bench.max_new)
    assert ids_a == "output_tokens=" + " ".join(map(str, ids_b))


def test_run_merged_layer_ledger_shrinks(tmp_path, capsys):
    assert cli.main(["run", "--config", write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()
            if line and line.split()[0].isdigit()]
    image_counts = [int(r[2]) for r in rows]
    assert image_counts == [24, 15, 9, 6]


def test_run_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", "--config", cfg, "--seed", "123"]) == 0
    a = output_tokens_line(capsys.readouterr().out)
    assert cli.main(["run", "--config", cfg, "--seed", "124"]) == 0
    b = output_tokens_line(capsys.readouterr().out)
    assert a != b


def test_unknown_key_exits_2_and_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[pipeline]\nbogus_knob=3\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_removed_pipeline_flag_exits_2_and_names_key(tmp_path, capsys):
    # merging and compression are switched per command, not per config
    path = tmp_path / "flag.ini"
    path.write_text(BASE_CONFIG.format(keep_ratio="0.25", beta="0.9")
                    .replace("[pipeline]\n", "[pipeline]\nmerging_enabled=true\n"))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "unknown key in [pipeline]: merging_enabled" in capsys.readouterr().err


def test_bad_value_exits_2_and_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nn_layers=banana\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "n_layers" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key,value", [
    ("run", "input", "n_image", "-5"),
    ("run", "input", "redundancy", "1.5"),
    ("run", "bench", "max_new", "0"),
    ("bench", "bench", "lengths", "0,16"),
    ("bench", "bench", "lengths", ""),
    ("sweep", "bench", "seeds", "0"),
])
def test_out_of_range_value_exits_2_and_names_key(tmp_path, capsys, command, section, key, value):
    path = tmp_path / "bad.ini"
    text = BASE_CONFIG.format(keep_ratio="0.25", beta="0.9")
    path.write_text(re.sub(rf"^{key}=.*$", f"{key}={value}", text, flags=re.M))
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"invalid [{section}] settings" in err and key in err


# BASE_CONFIG's only "seed=0" line is in [model] and its only "seed=1" line in [input]
@pytest.mark.parametrize("section,line", [("model", "seed=0\n"), ("input", "seed=1\n")],
                         ids=["model", "input"])
def test_negative_seed_exits_2_and_names_key(tmp_path, capsys, section, line):
    path = tmp_path / "bad.ini"
    text = BASE_CONFIG.format(keep_ratio="0.25", beta="0.9")
    assert text.count(line) == 1
    path.write_text(text.replace(line, "seed=-1\n"))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert f"invalid [{section}] settings: seed must be >= 0, got -1" in capsys.readouterr().err


def test_negative_seed_flag_exits_2_and_names_key(tmp_path, capsys):
    assert cli.main(["run", "--config", write_config(tmp_path), "--seed", "-1"]) == 2
    assert "invalid [input] settings: seed must be >= 0, got -1" in capsys.readouterr().err


def test_default_config_roundtrips_through_ini(tmp_path):
    default = EngineConfig()
    lines = []
    for section, settings in asdict(default).items():
        lines.append(f"[{section}]")
        for key, value in settings.items():
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{key} = {text}")
    path = tmp_path / "all.ini"
    path.write_text("\n".join(lines) + "\n")
    assert load_config(path) == default


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "configs").glob("*.ini")),
                         ids=lambda p: p.name)
def test_shipped_configs_load(path):
    assert isinstance(load_config(path), EngineConfig)


def test_flags_belong_to_their_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for argv in (["verify", "--config", "x.ini"], ["verify", "--seed", "1"],
                 ["run", "--config", cfg, "--jobs", "2"],
                 ["sweep", "--config", cfg, "--jobs", "2"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


def test_merge_layer_beyond_model_exits_2_and_names_key(tmp_path, capsys):
    path = tmp_path / "deep.ini"
    path.write_text(BASE_CONFIG.format(keep_ratio="0.25", beta="0.9")
                    .replace("merge_layers=1,2,3", "merge_layers=1,2,4"))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "merge_layers" in capsys.readouterr().err


def test_start_layer_beyond_model_exits_2_and_names_key(tmp_path, capsys):
    path = tmp_path / "deep.ini"
    path.write_text(BASE_CONFIG.format(keep_ratio="0.25", beta="0.9")
                    .replace("start_layer=1", "start_layer=4"))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "start_layer" in capsys.readouterr().err


def test_engine_value_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    def broken_run(cfg, out=None):
        raise ValueError("engine fault")

    monkeypatch.setattr(bench_mod, "do_run", broken_run)
    with pytest.raises(ValueError, match="engine fault"):
        cli.main(["run", "--config", write_config(tmp_path)])
    assert "config error" not in capsys.readouterr().err


# A one-id request has no decode step: its decode mean reads nan, and nothing raises.

def test_run_one_id_reports_no_decode_steps(tmp_path, capsys):
    path = tmp_path / "one.ini"
    path.write_text(Path(write_config(tmp_path)).read_text().replace("max_new=6", "max_new=1"))
    assert cli.main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "decode_ms_per_token mean=nan median=nan n=0" in out
    assert len(output_tokens_line(out).split()) == 1


def test_bench_length_one_reports_nan_decode_mean(tmp_path):
    path, out = tmp_path / "one.ini", tmp_path / "bench.csv"
    path.write_text(Path(write_config(tmp_path)).read_text().replace("lengths=3,6", "lengths=1,3"))
    assert cli.main(["bench", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert len(rows) == 8
    assert all((r["decode_ms_mean"] == "nan") == (r["length"] == "1") for r in rows)
    assert all(float(r["total_ms"]) > 0 for r in rows)


def test_sweep_one_id_reports_nan_decode_mean(tmp_path):
    path, out = tmp_path / "one.ini", tmp_path / "sweep.csv"
    path.write_text(Path(write_config(tmp_path)).read_text().replace("max_new=6", "max_new=1"))
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert len(rows) == 6
    assert all(r["decode_ms_mean"] == "nan" for r in rows)


def test_bench_csv_contract(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 8  # 4 variants x 2 lengths
    vanilla = [r for r in rows if r["label"] == "vanilla"]
    assert all(r["speedup"] == "1.00" for r in vanilla)
    assert all(r["reps"] == "5" for r in rows)
    assert {r["length"] for r in rows} == {"3", "6"}


def test_bench_nontiming_columns_reproducible(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["bench", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["bench", "--config", cfg, "--out", str(out_b)]) == 0
    rows_a = list(csv.DictReader(out_a.read_text().splitlines()[1:]))
    rows_b = list(csv.DictReader(out_b.read_text().splitlines()[1:]))
    assert [(r["label"], r["length"], r["memory_bytes"]) for r in rows_a] == \
           [(r["label"], r["length"], r["memory_bytes"]) for r in rows_b]


def test_bench_memory_column_tracks_compression(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    by = {(r["label"], r["length"]): int(r["memory_bytes"]) for r in rows}
    for length in ("3", "6"):
        assert by[("full", length)] < by[("vanilla", length)]
        assert by[("merge-only", length)] < by[("vanilla", length)]



def record_generate(monkeypatch, label_of, metrics):
    """Replace `generate`, where bench and verify call it, with a recorder.

    The k-th call is recorded as `(label_of(pipeline), max_new)` and returns
    `metrics(label, max_new, k)`. Returns the list of recorded calls.
    """
    calls = []

    def fake(model, seq, pipeline, max_new):
        calls.append((label_of(pipeline), max_new))
        return [0] * max_new, metrics(*calls[-1], len(calls) - 1)

    for mod in (bench_mod, verify_mod):
        monkeypatch.setattr(mod, "generate", fake)
    return calls


def test_bench_timing_columns_read_the_interleaved_runs(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path))
    names = bench_mod.variants(cfg.pipeline)
    made = []

    def metrics(label, n, k):
        # warm-ups read far off, so a statistic that counted one would show it
        if k < len(names):
            return RunMetrics(1e6, [1e6] * (n - 1))
        m = RunMetrics(float(k * 37 % 101), [float(k % 7 + i) for i in range(n - 1)])
        made.append((label, n, m))
        return m

    calls = record_generate(monkeypatch, lambda p: next(lab for lab, q in names.items() if q == p),
                            metrics)
    rows = bench_mod.do_bench(cfg)

    assert calls == ([(label, 8) for label in names]
                     + [(label, n) for _ in range(5) for n in (3, 6) for label in names])
    prefill_ms, total = {}, {}
    for label in names:
        prefill_ms[label] = statistics.median(m.prefill_ms for lab, _, m in made if lab == label)
        for n in (3, 6):
            sums = [sum(m.decode_ms_per_token) for lab, ln, m in made if (lab, ln) == (label, n)]
            total[(label, n)] = prefill_ms[label] + statistics.median(sums)
    assert [(row[0], row[1]) for row in rows] == [(label, n) for label in names for n in (3, 6)]
    for label, n, _, _, pre, _, tot, _, _, speedup, _ in rows:
        assert pre == f"{prefill_ms[label]:.4f}"
        assert tot == f"{total[(label, n)]:.4f}"
        assert speedup == f"{total[('vanilla', n)] / total[(label, n)]:.2f}"
    assert len({row[9] for row in rows}) > 2  # the speedups are not all alike


def test_long_decode_check_runs_the_interleaved_schedule(monkeypatch):
    """The check's `generate` calls, in order: its pass rate on a noisy host
    depends on this schedule."""
    vanilla = PipelineConfig(None, None)

    def metrics(label, n, k):
        if label == "vanilla":
            return RunMetrics(10.0, [1.0] * (n - 1))
        return RunMetrics(5.0, [0.4] * (n - 1))

    calls = record_generate(monkeypatch, lambda p: "vanilla" if p == vanilla else "full", metrics)
    ok, detail = verify_mod.check_long_decode_speedup()
    expect = [("vanilla", 8), ("full", 8)]
    expect += [(label, n) for _ in range(3) for n in (256, 2048) for label in ("vanilla", "full")]
    expect += [(label, 256) for _ in range(2) for label in ("vanilla", "full")]
    assert calls == expect
    # totals: (10 + 255) / (5 + 102) at 256, (10 + 2047) / (5 + 818.8) at 2048
    assert ok and "speedup 2.48x at 256 vs 2.50x at 2048 (need >= 1.3x and increasing)" in detail

def test_run_out_csv_contains_ledger(tmp_path):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 4
    assert [int(r["image_tokens"]) for r in rows] == [24, 15, 9, 6]


def test_sweep_grid_rows_and_identity_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "seeds=3" in lines[0].split()
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 6  # 3 keep_ratios x 2 betas
    identity = [r for r in rows if r["keep_ratio"] == "1.0000" and r["beta"] == "1.0000"]
    assert len(identity) == 1
    assert float(identity[0]["drift"]) == 0.0


def test_analyze_outputs_curves_and_nested_masks(tmp_path):
    out = tmp_path / "curves.csv"
    assert cli.main(["analyze", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = list(csv.DictReader(lines[1:]))
    assert set(rows[0].keys()) == {"layer", "threshold", "k", "n_image", "fraction"}
    assert len(rows) == 4 * 3  # layers x thresholds
    for r in rows:
        assert 1 <= int(r["k"]) <= int(r["n_image"])
        assert float(r["fraction"]) == pytest.approx(int(r["k"]) / int(r["n_image"]), abs=1e-3)

    masks_file = tmp_path / "curves_masks.csv"
    mask_rows = list(csv.DictReader(masks_file.read_text().splitlines()[1:]))
    assert len(mask_rows) == 3
    kept = [
        {k for k, v in row.items() if k != "layer" and v == "1"}
        for row in mask_rows
    ]
    assert kept[2] <= kept[1] <= kept[0]


def test_analyze_k_counts_ties_as_compression_keeps(tmp_path, monkeypatch):
    # ten equal scores: nine of them sum to 0.8999..., so coverage of 0.90 takes all ten
    importance = np.ones(10, dtype=np.float32)
    segments = np.full(10, Segment.IMAGE, dtype=np.int8)
    retained, _ = retention([importance], segments, CompressionConfig(0.90, 0))
    cache = KVCache(1, 1, 1)
    cache.extend_layer(0, np.zeros((1, 10, 1), np.float32), np.zeros((1, 10, 1), np.float32),
                       retained)
    record = LayerRecord(tokens=10, image_tokens=10, cache_entries=10, importance=importance)
    fake = SimpleNamespace(metrics=SimpleNamespace(layers=[record]))
    monkeypatch.setattr(bench_mod, "prefill", lambda *args, **kwargs: fake)
    curve, _ = bench_mod.do_analyze(load_config(write_config(tmp_path)))
    assert [row[2] for row in curve if row[1] == "0.9000"] == [cache.counts[0, 0]] == [10]


def mask_rows(path):
    return list(csv.reader(Path(path).read_text().splitlines()[2:]))


def test_analyze_keep_ratio_one_writes_an_all_ones_row_per_merge_layer(tmp_path):
    out = tmp_path / "curves.csv"
    cfg = write_config(tmp_path, keep_ratio="1.0")
    assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rows = mask_rows(tmp_path / "curves_masks.csv")
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(row[1:] == ["1"] * 24 for row in rows)


def test_analyze_writes_all_zero_rows_when_no_image_token_survives(tmp_path):
    # two image tokens at keep ratio 0.35: the first stage keeps only the merged
    # token and the other two are no-ops, so no original survives any stage
    path = tmp_path / "two.ini"
    path.write_text(BASE_CONFIG.format(keep_ratio="0.35", beta="0.9")
                    .replace("n_image=24", "n_image=2"))
    out = tmp_path / "curves.csv"
    assert cli.main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    assert mask_rows(tmp_path / "curves_masks.csv") == [["1", "0", "0"], ["2", "0", "0"],
                                                        ["3", "0", "0"]]


def read_hash(path) -> str:
    first = Path(path).read_text().splitlines()[0]
    return first.removeprefix("# config_hash=").split()[0]


def test_config_hash_covers_only_bench_keys_the_command_reads(tmp_path):
    base = write_config(tmp_path, "base.ini")
    text = Path(base).read_text()
    variants = {"base": base}
    for name, old, new in (("lengths", "lengths=3,6", "lengths=3,5"),
                           ("max_new", "max_new=6", "max_new=5")):
        path = tmp_path / f"{name}.ini"
        path.write_text(text.replace(old, new))
        variants[name] = str(path)
    hashes = {}
    for name, cfg in variants.items():
        for cmd in ("run", "analyze"):
            out = tmp_path / f"{cmd}_{name}.csv"
            assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 0
            hashes[(cmd, name)] = read_hash(out)
    assert hashes[("run", "lengths")] == hashes[("run", "base")]
    assert hashes[("analyze", "lengths")] == hashes[("analyze", "base")]
    assert hashes[("run", "max_new")] != hashes[("run", "base")]
    assert hashes[("analyze", "max_new")] == hashes[("analyze", "base")]


def test_dump_cache_snapshot(tmp_path):
    # the tiny model, merging at layers 1-3 and compression from layer 1
    cfg = write_config(tmp_path)
    out = tmp_path / "snap.csv"
    assert cli.main(["dump-cache", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# config_hash={load_config(cfg).hash()}"
    assert lines[1] == "layer,head,position,segment,retained,score"
    engine = load_config(cfg)
    seq = bench_mod._build_seq(engine)
    pre = prefill(init_model(engine.model), seq, engine.pipeline.build())
    given = [len(seq)] + [r.tokens for r in pre.metrics.layers[:-1]]
    snapshot = list(csv.DictReader(lines[1:]))
    evicted = 0
    for li in range(engine.model.n_layers):
        for h in range(engine.model.n_heads):
            cells = [r for r in snapshot if (r["layer"], r["head"]) == (str(li), str(h))]
            assert len(cells) == given[li]
            assert sum(r["retained"] == "1" for r in cells) == pre.cache.counts[li, h]
            assert all((r["score"] == "") == (li < 1) for r in cells)
            evicted += sum(r["retained"] == "0" for r in cells)
    assert len(snapshot) == 2 * sum(given)
    assert evicted > 0


def test_verify_single_check_passes(capsys):
    assert cli.main(["verify", "--check", "merge_oracle_equivalence"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS merge_oracle_equivalence")


def test_verify_unknown_check_exits_2(capsys):
    assert cli.main(["verify", "--check", "not_a_check"]) == 2


def test_verify_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setitem(verify_mod.FAST_CHECKS, "merge_oracle_equivalence",
                        lambda: (False, "forced failure"))
    assert cli.main(["verify", "--check", "merge_oracle_equivalence"]) == 3
    assert "FAIL merge_oracle_equivalence" in capsys.readouterr().out
