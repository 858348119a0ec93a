"""Pipeline configuration: dataclasses, validation, and the config file parser.

Config files are line-based ``key = value`` with ``[section]`` headers and
``#`` comments. Every tunable of the pipeline is surfaced here so ablations
are config edits; unknown keys are hard errors listing the valid keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ParameterError, ParseError
from .geometry import STAGE_COUNT


@dataclass
class TrainSettings:
    learning_rate: float = 0.001
    epochs: int = 4
    batch_size: int = 1
    stage_weights: tuple = (1.0, 1.0, 1.0, 1.0)
    seed: int = 0
    views: int = 3          # input images per sample (1 reference + views-1 sources)
    max_iterations: int = 0  # 0 = no cap beyond epochs

    def validate(self):
        if self.learning_rate < 0:
            raise ParameterError("train.learning_rate must be >= 0")
        if self.epochs < 1:
            raise ParameterError("train.epochs must be >= 1")
        if self.batch_size < 1:
            raise ParameterError("train.batch_size must be >= 1")
        if len(self.stage_weights) != STAGE_COUNT:
            raise ParameterError(f"train.stage_weights needs {STAGE_COUNT} entries")
        if any(w < 0 for w in self.stage_weights):
            raise ParameterError("train.stage_weights must be >= 0")
        if self.views < 2:
            raise ParameterError("train.views must be >= 2")
        if self.max_iterations < 0:
            raise ParameterError("train.max_iterations must be >= 0")


@dataclass
class FusionSettings:
    confidence_threshold: float = 0.5
    pixel_threshold: float = 1.0
    depth_threshold: float = 0.01
    min_consistent_views: int = 3
    dynamic: bool = True
    average_points: bool = True

    def validate(self):
        if not (0.0 <= self.confidence_threshold <= 1.0):
            raise ParameterError("fusion.confidence_threshold must be in [0, 1]")
        if self.pixel_threshold <= 0 or self.depth_threshold <= 0:
            raise ParameterError("fusion thresholds must be > 0")
        if self.min_consistent_views < 1:
            raise ParameterError("fusion.min_consistent_views must be >= 1")


@dataclass
class SynthSettings:
    scenes: int = 4
    views: int = 5
    height: int = 64
    width: int = 80
    radius: float = 4.0
    span_deg: float = 32.0
    style: str = "objects"  # or "plane": backdrop only, no occluders
    focal_factor: float = 1.5
    range_margin: float = 1.6

    def validate(self):
        if self.scenes < 1 or self.views < 2:
            raise ParameterError("synth needs >= 1 scene and >= 2 views")
        if self.height % 8 or self.width % 8:
            raise ParameterError("synth.height and synth.width must be divisible by 8")
        if self.style not in ("objects", "plane"):
            raise ParameterError("synth.style must be 'objects' or 'plane'")
        if self.focal_factor <= 0 or self.range_margin < 1.0:
            raise ParameterError("synth.focal_factor must be > 0 and range_margin >= 1")


@dataclass
class PipelineConfig:
    depths: tuple = (8, 8, 4, 4)
    groups: tuple = (8, 8, 4, 4)
    feature_channels: tuple = (32, 16, 8, 8)
    temperature: float = 2.0
    guidance_coarse: int = 1   # channels compressed from the previous stage
    guidance_fine: int = 1     # channels compressed from the current stage
    attention_reduction: int = 4
    regularizer_base: int = 8
    eval_norm: str = "instance"  # statistics outside training: instance | running
    seed: int = 0
    dataset: str = ""
    checkpoint: str = ""
    train: TrainSettings = field(default_factory=TrainSettings)
    fusion: FusionSettings = field(default_factory=FusionSettings)
    synth: SynthSettings = field(default_factory=SynthSettings)

    def validate(self):
        for name in ("depths", "groups", "feature_channels"):
            if len(getattr(self, name)) != STAGE_COUNT:
                raise ParameterError(f"pipeline.{name} needs exactly {STAGE_COUNT} entries")
        for d in self.depths:
            if d < 2 or d % 4:
                raise ParameterError("pipeline.depths entries must be multiples of 4, >= 4")
        for g, c in zip(self.groups, self.feature_channels):
            if g < 1 or c % g:
                raise ParameterError(
                    f"group count {g} must divide its stage's feature channels {c}"
                )
        if self.temperature <= 0:
            raise ParameterError("pipeline.temperature must be > 0")
        if not (0 <= self.guidance_coarse <= 8 and 0 <= self.guidance_fine <= 8):
            raise ParameterError("guidance channel counts must be in [0, 8]")
        if self.attention_reduction < 1:
            raise ParameterError("pipeline.attention_reduction must be >= 1")
        if self.regularizer_base < 1:
            raise ParameterError("pipeline.regularizer_base must be >= 1")
        if self.eval_norm not in ("instance", "running"):
            raise ParameterError("pipeline.eval_norm must be 'instance' or 'running'")
        self.train.validate()
        self.fusion.validate()
        self.synth.validate()
        return self


_SECTIONS = {
    "pipeline": PipelineConfig,
    "train": TrainSettings,
    "fusion": FusionSettings,
    "synth": SynthSettings,
}


def _parse_value(raw, kind, key):
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind is tuple:
            parts = raw.replace(",", " ").split()
            values = [float(p) for p in parts]
            if all(v == int(v) for v in values) and key != "stage_weights":
                return tuple(int(v) for v in values)
            return tuple(values)
    except ValueError as exc:
        raise ParameterError(f"bad value '{raw}' for key '{key}'") from exc
    raise ParameterError(f"unsupported config type for '{key}'")


def _field_kinds(cls):
    kinds = {}
    for f in fields(cls):
        if f.name in ("train", "fusion", "synth"):
            continue
        default = getattr(cls(), f.name)
        kinds[f.name] = type(default)
    return kinds


def parse_config_text(text, path="<config>"):
    cfg = PipelineConfig()
    section = "pipeline"
    section_kinds = {name: _field_kinds(cls) for name, cls in _SECTIONS.items()}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ParameterError(
                    f"{path}:{lineno}: unknown section '[{section}]'; "
                    f"valid sections: {sorted(_SECTIONS)}"
                )
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        kinds = section_kinds[section]
        if key not in kinds:
            raise ParameterError(
                f"{path}:{lineno}: unknown key '{key}' in [{section}]; "
                f"valid keys: {sorted(kinds)}"
            )
        value = _parse_value(raw_value, kinds[key], key)
        target = cfg if section == "pipeline" else getattr(cfg, section)
        setattr(target, key, value)
    cfg.validate()
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), path=str(path))


def default_config_text():
    cfg = PipelineConfig()
    lines = ["[pipeline]"]

    def fmt(value):
        if isinstance(value, tuple):
            return " ".join(str(v) for v in value)
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    for f in fields(PipelineConfig):
        if f.name in ("train", "fusion", "synth"):
            continue
        lines.append(f"{f.name} = {fmt(getattr(cfg, f.name))}")
    for section in ("train", "fusion", "synth"):
        lines.append("")
        lines.append(f"[{section}]")
        sub = getattr(cfg, section)
        for f in fields(sub):
            lines.append(f"{f.name} = {fmt(getattr(sub, f.name))}")
    return "\n".join(lines) + "\n"
