"""Command-line front end: run | bench | sweep | analyze | dump-cache | verify.

Exit codes: 0 success, 2 config error (or unknown verify check), 3
verification failure. Any other exception is an engine fault and is raised,
not reported as a config error.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .config import ConfigError, load_config
from .kvcache import dump_snapshot
from .verify import run_checks, select_checks


def _add_config_flags(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--config", required=True, help="path to a key=value config file")
    p.add_argument("--out", default=None, help="write results as CSV to this path")
    p.add_argument("--seed", type=int, default=None, help="override [input] seed")
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lightinfer",
                                description="toy multimodal decoder with staged token "
                                            "merging and KV cache compression")
    sub = p.add_subparsers(dest="command", required=True)

    _add_config_flags(sub.add_parser("run", help="one generation; print the per-layer ledger"))
    _add_config_flags(sub.add_parser("bench", help="latency/memory over output lengths and variants"))
    sweep = _add_config_flags(sub.add_parser("sweep", help="keep_ratio x beta grid with output drift"))
    sweep.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default 1, capped at the CPU count)")
    _add_config_flags(sub.add_parser("analyze", help="attention-mass curves and retained-token masks"))
    _add_config_flags(sub.add_parser("dump-cache", help="prefill once and dump a cache snapshot CSV"))

    v = sub.add_parser("verify", help="run the oracle-backed correctness checks")
    v.add_argument("--full", action="store_true", help="include the slow timing checks")
    v.add_argument("--check", action="append", default=None, help="run only the named check")
    return p


def _cmd_verify(args) -> int:
    try:
        table = select_checks(include_slow=args.full, names=args.check)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    results = run_checks(table)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail} [{r.elapsed_s:.1f}s]")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "verify":
        return _cmd_verify(args)

    try:
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "run":
            bench_mod.do_run(cfg, out=args.out)
        elif args.command == "bench":
            bench_mod.do_bench(cfg, out=args.out)
        elif args.command == "sweep":
            bench_mod.do_sweep(cfg, out=args.out, jobs=args.jobs)
        elif args.command == "analyze":
            bench_mod.do_analyze(cfg, out=args.out)
        elif args.command == "dump-cache":
            from .model import init_model, prefill
            model = init_model(cfg.model)
            seq = bench_mod._build_seq(cfg)
            pre = prefill(model, seq, cfg.pipeline.build(), audit=True)
            out = args.out or "cache_snapshot.csv"
            dump_snapshot(pre.cache, out)
            print(f"wrote {out}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
