"""Flat key=value config files with [model], [input], [pipeline], [bench] sections.

The sections are the fields of EngineConfig, and the keys of each section
are the fields of its settings dataclass, parsed by their annotated types.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, asdict
from typing import Optional, get_args, get_origin, get_type_hints

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

    def build(self, merging: Optional[bool] = None, compression: Optional[bool] = None,
              keep_ratio: Optional[float] = None, beta: Optional[float] = None) -> PipelineConfig:
        return PipelineConfig(
            merge_schedule=MergeSchedule(self.merge_layers, keep_ratio if keep_ratio is not None else self.keep_ratio),
            compression=CompressionConfig(beta if beta is not None else self.beta, self.start_layer),
            merging_enabled=self.merging_enabled if merging is None else merging,
            compression_enabled=self.compression_enabled if compression is None else compression,
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


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse(kind, raw: str):
    """Parse one value as the field type `kind`: int, float, bool, str or tuple[T, ...]."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_parse(item, x) for x in raw.split(",") if x.strip())
    if kind is bool:
        return _parse_bool(raw)
    return kind(raw.strip())


# section -> (settings class, key -> field type), from the EngineConfig fields
_SECTIONS = {name: (cls, get_type_hints(cls)) for name, cls in get_type_hints(EngineConfig).items()}

# bench variant -> (merging_enabled, compression_enabled)
VARIANT_FLAGS = {
    "vanilla": (False, False),
    "merge-only": (True, False),
    "cache-only": (False, True),
    "full": (True, True),
}


def load_config(path, seed_override: Optional[int] = None) -> EngineConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from e

    values: dict[str, dict] = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        types = _SECTIONS[section][1]
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key in [{section}]: {key}")
            try:
                values[section][key] = _parse(types[key], raw)
            except ValueError as e:
                raise ConfigError(f"bad value for [{section}] {key}: {e}") from e

    if seed_override is not None:
        values["input"]["seed"] = seed_override

    built = {}
    for section, (cls, _) in _SECTIONS.items():
        try:
            built[section] = cls(**values[section])
        except ValueError as e:
            raise ConfigError(f"invalid [{section}] settings: {e}") from e

    for v in built["bench"].variants:
        if v not in VARIANT_FLAGS:
            raise ConfigError(f"bad value for [bench] variants: unknown variant {v!r}")

    cfg = EngineConfig(**built)
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
