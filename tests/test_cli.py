import csv
from dataclasses import asdict

import pytest

from lightinfer import bench as bench_mod
from lightinfer import cli
from lightinfer import verify as verify_mod
from lightinfer.config import EngineConfig, load_config
from lightinfer.verify import CheckResult

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
merging_enabled={merging}
compression_enabled={compression}
merge_layers=1,2,3
keep_ratio={keep_ratio}
beta={beta}
start_layer=1

[bench]
max_new=6
lengths=3,6
variants=vanilla,merge-only,cache-only,full
repetitions=5
warmup=1
keep_ratios=1.0,0.5,0.25
betas=1.0,0.9
seeds=3
"""


def write_config(tmp_path, name="cfg.ini", merging="true", compression="true",
                 keep_ratio="0.25", beta="0.9"):
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(merging=merging, compression=compression,
                                       keep_ratio=keep_ratio, beta=beta))
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
    cfg_off = write_config(tmp_path, "off.ini", merging="false", compression="false")
    assert cli.main(["run", "--config", cfg_id]) == 0
    ids_a = output_tokens_line(capsys.readouterr().out)
    assert cli.main(["run", "--config", cfg_off]) == 0
    ids_b = output_tokens_line(capsys.readouterr().out)
    assert ids_a == ids_b


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


def test_bad_value_exits_2_and_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nn_layers=banana\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "n_layers" in capsys.readouterr().err


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


def test_flags_belong_to_their_subcommand(tmp_path, capsys):
    for argv in (["verify", "--config", "x.ini"], ["verify", "--seed", "1"],
                 ["run", "--config", write_config(tmp_path), "--jobs", "2"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


def test_merge_layer_beyond_model_exits_2_and_names_key(tmp_path, capsys):
    path = tmp_path / "deep.ini"
    path.write_text(BASE_CONFIG.format(merging="false", compression="true",
                                       keep_ratio="0.25", beta="0.9")
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


def test_bench_validates_repetitions_and_baseline(tmp_path, capsys):
    write_config(tmp_path, "few.ini")
    path = tmp_path / "few.ini"
    path.write_text(path.read_text().replace("repetitions=5", "repetitions=2"))
    assert cli.main(["bench", "--config", str(path)]) == 2
    assert "repetitions" in capsys.readouterr().err

    path2 = tmp_path / "novanilla.ini"
    path2.write_text((tmp_path / "few.ini").read_text().replace(
        "repetitions=2", "repetitions=5").replace(
        "variants=vanilla,merge-only,cache-only,full", "variants=full"))
    assert cli.main(["bench", "--config", str(path2)]) == 2
    assert "vanilla" in capsys.readouterr().err


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
    assert "jobs=1" in lines[0].split()
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 6  # 3 keep_ratios x 2 betas
    identity = [r for r in rows if r["keep_ratio"] == "1.0000" and r["beta"] == "1.0000"]
    assert len(identity) == 1
    assert float(identity[0]["drift"]) == 0.0


def test_sweep_jobs_capped_at_cpu_count(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: 1)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
                     "--jobs", "8"]) == 0
    assert "jobs=1" in out.read_text().splitlines()[0].split()


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
                        lambda: CheckResult("merge_oracle_equivalence", False, "forced failure"))
    assert cli.main(["verify", "--check", "merge_oracle_equivalence"]) == 3
    assert "FAIL merge_oracle_equivalence" in capsys.readouterr().out
