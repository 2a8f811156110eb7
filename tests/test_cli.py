import csv
import re
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lightinfer import bench as bench_mod
from lightinfer import cli
from lightinfer import verify as verify_mod
from lightinfer.config import EngineConfig, load_config
from lightinfer.kvcache import CompressionConfig, HeadCache, compress_layer
from lightinfer.merge import Segment
from lightinfer.model import LayerRecord, generate, init_model

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
                        cfg.pipeline.build(merging=False, compression=False), cfg.bench.max_new)
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


def test_engine_value_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    def broken_run(cfg, out=None):
        raise ValueError("engine fault")

    monkeypatch.setattr(bench_mod, "do_run", broken_run)
    with pytest.raises(ValueError, match="engine fault"):
        cli.main(["run", "--config", write_config(tmp_path)])
    assert "config error" not in capsys.readouterr().err


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
    heads = [HeadCache(head_dim=1)]
    heads[0].extend(np.zeros((10, 1), np.float32), np.zeros((10, 1), np.float32),
                    np.arange(10), np.full(10, Segment.IMAGE, dtype=np.int8))
    compress_layer(heads, [importance], CompressionConfig(0.90, 0))
    record = LayerRecord(tokens=10, image_tokens=10, cache_entries=10, importance=importance)
    fake = SimpleNamespace(metrics=SimpleNamespace(layers=[record]))
    monkeypatch.setattr(bench_mod, "prefill", lambda *args, **kwargs: fake)
    curve, _ = bench_mod.do_analyze(load_config(write_config(tmp_path)))
    assert [row[2] for row in curve if row[1] == "0.9000"] == [heads[0].n] == [10]


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
    out = tmp_path / "snap.csv"
    assert cli.main(["dump-cache", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "layer,head,position,segment,retained,score"


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
