"""Flat key=value config files with [model], [input], [pipeline], [bench] sections.

The sections are the fields of EngineConfig, and the keys of each section
are the fields of its settings dataclass, parsed by their annotated types.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import asdict, dataclass, replace
from typing import Optional, get_args, get_origin, get_type_hints

from .kvcache import CompressionConfig
from .merge import MergeSchedule
from .model import InputConfig, ModelConfig, PipelineConfig


class ConfigError(Exception):
    """Malformed config; the message names the offending key."""


@dataclass(frozen=True)
class PipelineSettings:
    merge_layers: tuple[int, ...] = MergeSchedule().merge_layers
    keep_ratio: float = MergeSchedule().target_ratio
    beta: float = CompressionConfig().beta
    start_layer: int = CompressionConfig().start_layer

    def build(self) -> PipelineConfig:
        """The engine pipeline, with merging and compression on."""
        return PipelineConfig(MergeSchedule(self.merge_layers, self.keep_ratio),
                              CompressionConfig(self.beta, self.start_layer))


@dataclass(frozen=True)
class BenchSettings:
    max_new: int = 64
    lengths: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096)
    keep_ratios: tuple[float, ...] = (0.35, 0.15, 0.03)
    betas: tuple[float, ...] = (0.995,)
    seeds: int = 5

    def __post_init__(self):
        if self.max_new < 1:
            raise ValueError(f"max_new must be >= 1, got {self.max_new}")
        if not self.lengths or min(self.lengths) < 1:
            raise ValueError(f"lengths must be nonempty and all >= 1, got {self.lengths}")
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")


@dataclass(frozen=True)
class EngineConfig:
    model: ModelConfig = ModelConfig()
    input: InputConfig = InputConfig()
    pipeline: PipelineSettings = PipelineSettings()
    bench: BenchSettings = BenchSettings()

    def hash(self, bench_keys: tuple[str, ...] = ()) -> str:
        """Digest of [model], [input], [pipeline] and the [bench] keys a command reads."""
        bench = {key: getattr(self.bench, key) for key in bench_keys}
        blob = repr((asdict(self.model), asdict(self.input), asdict(self.pipeline), bench))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _parse(kind, raw: str):
    """Parse one value as the field type `kind`: int, float or tuple[T, ...]."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_parse(item, x) for x in raw.split(",") if x.strip())
    return kind(raw.strip())


# section -> (settings class, key -> field type), from the EngineConfig fields
_SECTIONS = {name: (cls, get_type_hints(cls)) for name, cls in get_type_hints(EngineConfig).items()}


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

    cfg = EngineConfig(**built)
    _check_cross_section(cfg)
    return cfg


def _check_cross_section(cfg: EngineConfig) -> None:
    """Checks that span sections, so that commands meet only valid settings.

    run, analyze and dump-cache run with merging and compression on, and
    bench and sweep have variants with both on, so each trial builds the
    pipeline with both on and checks its layers against the model.
    """
    p = cfg.pipeline
    if not cfg.bench.keep_ratios or not cfg.bench.betas:
        raise ConfigError("bad value for [bench] keep_ratios/betas: "
                          "sweep needs a nonempty keep_ratios x betas grid")
    trials = [("[pipeline]", {})]
    trials += [("[bench] keep_ratios", {"keep_ratio": kr}) for kr in cfg.bench.keep_ratios]
    trials += [("[bench] betas", {"beta": b}) for b in cfg.bench.betas]
    for where, overrides in trials:
        try:
            pipeline = replace(p, **overrides).build()
            pipeline.check_layers(cfg.model.n_layers)
            pipeline.merge_schedule.keep_counts(cfg.input.n_image)
        except ValueError as e:
            raise ConfigError(f"invalid {where} settings: {e}") from e
