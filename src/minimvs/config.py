"""Pipeline configuration: dataclasses, validation, and the config file parser.

Config files are line-based ``key = value`` with ``[section]`` headers and
``#`` comments. Every tunable of the pipeline is surfaced here so ablations
are config edits; unknown keys are hard errors listing the valid keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

from .errors import ParameterError, ParseError
from .formats import read_file
from .geometry import STAGE_COUNT, STAGE_SCALES

MAX_SIZE = 4096  # upper bound on every count or extent that sizes an allocation
_SIZES = ("depths", "groups", "feature_channels", "regularizer_base", "train.views",
          "train.batch_size", "synth.scenes", "synth.views", "synth.height", "synth.width")


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
        if self.seed < 0:
            raise ParameterError(f"train.seed must be >= 0, got {self.seed}")


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
        if self.height % STAGE_SCALES[0] or self.width % STAGE_SCALES[0]:
            raise ParameterError("synth.height and synth.width must be divisible by "
                                 f"{STAGE_SCALES[0]}")
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
        # the spacing halves per stage: window k is (depths[k] - 1) / ((depths[0] - 1) * 2**k)
        for k, d in enumerate(self.depths[1:], start=1):
            if d - 1 > (self.depths[0] - 1) * 2 ** k:
                raise ParameterError(f"pipeline.depths: stage {k}'s {d} hypotheses span more "
                                     "than the depth range")
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
        if self.seed < 0:
            raise ParameterError(f"pipeline.seed must be >= 0, got {self.seed}")
        for name in _SIZES:
            value = attrgetter(name)(self)
            if max(value if isinstance(value, tuple) else (value,)) > MAX_SIZE:
                raise ParameterError(f"{name} must be at most {MAX_SIZE}, got {value}")
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


def _parse_value(raw, default, key, where):
    """Parse `raw` as the type of `default`; a tuple takes its first entry's type."""
    raw = raw.strip()
    kind = type(default[0]) if isinstance(default, tuple) else type(default)
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is str:
            return raw
        tokens = raw.replace(",", " ").split()
        if not isinstance(default, tuple) and len(tokens) != 1:
            raise ValueError(raw)
        # every number of the pipeline is finite; nan would slip past each range check
        if not all(math.isfinite(float(p)) for p in tokens):
            raise ParameterError(f"{where}: non-finite value '{raw}' for key '{key}'")
        values = tuple(kind(p) for p in tokens)  # int() takes no '8.0' or '1e300'
    except ValueError as exc:
        raise ParameterError(f"{where}: bad value '{raw}' for key '{key}'") from exc
    return values if isinstance(default, tuple) else values[0]


def _field_defaults(cls):
    return {f.name: getattr(cls(), f.name) for f in fields(cls)
            if f.name not in ("train", "fusion", "synth")}


def parse_config_text(text, path="<config>"):
    cfg = PipelineConfig()
    section = "pipeline"
    section_defaults = {name: _field_defaults(cls) for name, cls in _SECTIONS.items()}
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
        defaults = section_defaults[section]
        if key not in defaults:
            raise ParameterError(
                f"{path}:{lineno}: unknown key '{key}' in [{section}]; "
                f"valid keys: {sorted(defaults)}"
            )
        value = _parse_value(raw_value, defaults[key], key, f"{path}:{lineno}")
        target = cfg if section == "pipeline" else getattr(cfg, section)
        setattr(target, key, value)
    cfg.validate()
    return cfg


def load_config(path):
    blob = read_file(path)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    return parse_config_text(text, path=str(path))


def default_config_text():
    def fmt(value):
        if isinstance(value, tuple):
            return " ".join(str(v) for v in value)
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    lines = []
    for section, cls in _SECTIONS.items():
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {fmt(value)}" for key, value in _field_defaults(cls).items()]
    return "\n".join(lines[1:]) + "\n"
