"""Flat key=value config files with [model], [input], [pipeline], [bench] sections."""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, asdict
from typing import Optional

from .kvcache import CompressionConfig
from .merge import MergeSchedule
from .model import ModelConfig, PipelineConfig


class ConfigError(Exception):
    """Malformed config; the message names the offending key."""


@dataclass(frozen=True)
class InputConfig:
    n_system: int = 30
    n_image: int = 1476
    n_instruction: int = 50
    redundancy: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class PipelineSettings:
    merging_enabled: bool = True
    compression_enabled: bool = True
    merge_layers: tuple[int, ...] = (5, 9, 13)
    keep_ratio: float = 0.35
    beta: float = 0.995
    start_layer: int = 5
    evict_merged_early: bool = False

    def build(self, merging: Optional[bool] = None, compression: Optional[bool] = None,
              keep_ratio: Optional[float] = None, beta: Optional[float] = None) -> PipelineConfig:
        return PipelineConfig(
            merge_schedule=MergeSchedule(self.merge_layers, keep_ratio if keep_ratio is not None else self.keep_ratio),
            compression=CompressionConfig(beta if beta is not None else self.beta, self.start_layer),
            merging_enabled=self.merging_enabled if merging is None else merging,
            compression_enabled=self.compression_enabled if compression is None else compression,
            evict_merged_early=self.evict_merged_early,
        )


@dataclass(frozen=True)
class BenchSettings:
    max_new: int = 64
    lengths: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096)
    variants: tuple[str, ...] = ("vanilla", "merge-only", "cache-only", "full")
    repetitions: int = 5
    warmup: int = 1
    keep_ratios: tuple[float, ...] = (0.35, 0.15, 0.03)
    betas: tuple[float, ...] = (0.995,)
    seeds: int = 5
    thresholds: tuple[float, ...] = (0.90, 0.95, 0.99)


@dataclass(frozen=True)
class EngineConfig:
    model: ModelConfig = ModelConfig()
    input: InputConfig = InputConfig()
    pipeline: PipelineSettings = PipelineSettings()
    bench: BenchSettings = BenchSettings()

    def hash(self) -> str:
        blob = repr((asdict(self.model), asdict(self.input), asdict(self.pipeline), asdict(self.bench)))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_float(raw: str) -> float:
    return float(raw.strip())


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(x.strip()) for x in raw.split(",") if x.strip())


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x.strip()) for x in raw.split(",") if x.strip())


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


_SCHEMA = {
    "model": {
        "n_layers": _parse_int,
        "n_heads": _parse_int,
        "dim": _parse_int,
        "vocab": _parse_int,
        "seed": _parse_int,
    },
    "input": {
        "n_system": _parse_int,
        "n_image": _parse_int,
        "n_instruction": _parse_int,
        "redundancy": _parse_float,
        "seed": _parse_int,
    },
    "pipeline": {
        "merging_enabled": _parse_bool,
        "compression_enabled": _parse_bool,
        "merge_layers": _parse_int_list,
        "keep_ratio": _parse_float,
        "beta": _parse_float,
        "start_layer": _parse_int,
        "evict_merged_early": _parse_bool,
    },
    "bench": {
        "max_new": _parse_int,
        "lengths": _parse_int_list,
        "variants": _parse_str_list,
        "repetitions": _parse_int,
        "warmup": _parse_int,
        "keep_ratios": _parse_float_list,
        "betas": _parse_float_list,
        "seeds": _parse_int,
        "thresholds": _parse_float_list,
    },
}

_SECTION_TYPES = {
    "model": ModelConfig,
    "input": InputConfig,
    "pipeline": PipelineSettings,
    "bench": BenchSettings,
}

KNOWN_VARIANTS = ("vanilla", "merge-only", "cache-only", "full")


def load_config(path, seed_override: Optional[int] = None) -> EngineConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from e

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key in [{section}]: {key}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as e:
                raise ConfigError(f"bad value for [{section}] {key}: {e}") from e

    if seed_override is not None:
        values.setdefault("input", {})["seed"] = seed_override

    built = {}
    for section, cls in _SECTION_TYPES.items():
        try:
            built[section] = cls(**values.get(section, {}))
        except ValueError as e:
            raise ConfigError(f"invalid [{section}] settings: {e}") from e

    bench: BenchSettings = built["bench"]
    for v in bench.variants:
        if v not in KNOWN_VARIANTS:
            raise ConfigError(f"bad value for [bench] variants: unknown variant {v!r}")

    cfg = EngineConfig(model=built["model"], input=built["input"],
                       pipeline=built["pipeline"], bench=bench)
    _check_cross_section(cfg)
    return cfg


def _check_cross_section(cfg: EngineConfig) -> None:
    """Checks that span sections, so that commands meet only valid settings.

    bench and sweep switch merging and compression on whatever the
    [pipeline] flags say, so the layer checks do not depend on them.
    """
    n_layers = cfg.model.n_layers
    p = cfg.pipeline
    if p.merge_layers and max(p.merge_layers) >= n_layers:
        raise ConfigError(f"bad value for [pipeline] merge_layers: {p.merge_layers} "
                          f"outside model with n_layers={n_layers}")
    if p.start_layer >= n_layers:
        raise ConfigError(f"bad value for [pipeline] start_layer: {p.start_layer} "
                          f"outside model with n_layers={n_layers}")
    if not cfg.bench.keep_ratios or not cfg.bench.betas:
        raise ConfigError("bad value for [bench] keep_ratios/betas: "
                          "sweep needs a nonempty keep_ratios x betas grid")
    trials = [("[pipeline]", {})]
    trials += [("[bench] keep_ratios", {"keep_ratio": kr}) for kr in cfg.bench.keep_ratios]
    trials += [("[bench] betas", {"beta": b}) for b in cfg.bench.betas]
    for where, overrides in trials:
        try:
            schedule = p.build(**overrides).merge_schedule
            if cfg.input.n_image > 0:
                schedule.resolve(cfg.input.n_image)
        except ValueError as e:
            raise ConfigError(f"invalid {where} settings: {e}") from e
