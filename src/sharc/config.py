"""Run configuration: flat key=value files with section headers.

Every key has a default, so an empty file is a valid config; unknown sections
or keys are rejected (typos should not silently fall back to defaults). All
randomness in a run flows from the seeds named here. The resolved
configuration (defaults filled in) is hashed so output files can be traced
back to the exact settings that produced them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .appearance import TA_TARGETS, AttentionParams
from .core import HPP_MODES
from .encoders import SKELETON_INPUT_DIM, SMPL_DIM, EncoderParams
from .exceptions import ConfigError
from .gallery import AppearanceModel
from .prng import derive_seed
from .shape import ShapeModel
from .synth import MAX_KEYPOINT_JITTER, MIN_FRAME_SIDE, DatasetSpec


def _positive(v):
    if v < 1:
        raise ValueError("must be >= 1")


def _nonneg(v):
    if not (math.isfinite(v) and v >= 0):
        raise ValueError("must be finite and >= 0")


def _frame_side(v):
    if v < MIN_FRAME_SIDE:
        raise ValueError(f"must be >= {MIN_FRAME_SIDE}")


def _unit(v):
    if not 0.0 <= v <= 1.0:
        raise ValueError("must be in [0, 1]")


def _open_unit(v):
    if not 0.0 < v < 1.0:
        raise ValueError("must be in (0, 1)")


def _jitter(v):
    if not 0.0 <= v <= MAX_KEYPOINT_JITTER:
        raise ValueError(
            f"must be in [0, {MAX_KEYPOINT_JITTER!r}], so that generated keypoints and body "
            "parameters stay finite in float32"
        )


def _choice(options):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")

    return check


# section -> key -> (python type, default, validator or None)
_SCHEMA = {
    "dataset": {
        "num_ids": (int, 8, _positive),
        "tracklets_per_id": (int, 2, _positive),
        "frames_per_tracklet": (int, 12, _positive),
        "clothing_variants": (int, 1, _positive),
        "sil_flip_rate": (float, 0.0, _unit),
        "keypoint_jitter": (float, 0.0, _jitter),
        "appearance_shift": (float, 0.0, _nonneg),
        "seed": (int, 1, None),
        "height": (int, 16, _frame_side),
        "width": (int, 16, _frame_side),
    },
    "model": {
        "bins": (int, 4, _positive),
        "channels": (int, 16, _positive),
        "motion_channels": (int, 12, _positive),
        "gamma": (float, 0.0, _unit),
        "alpha": (float, 0.1, _unit),
        "pyramid_levels": (int, 3, _positive),
        "hpp_mode": (str, "max+mean", _choice(HPP_MODES)),
        "ta_target": (str, "later", _choice(TA_TARGETS)),
        "encoder_seed": (int, 5, None),
        "attention_seed": (int, 11, None),
        "projection_seed": (int, 7, None),
        "normalize_parts": (bool, True, None),
        "rescale_appearance": (bool, True, None),
    },
    "protocol": {
        "gallery_ratio": (float, 0.5, _open_unit),
        "split_seed": (int, 2, None),
    },
    "ablation": {
        "drop_silhouette": (bool, False, None),
        "drop_smpl": (bool, False, None),
        "drop_skeleton": (bool, False, None),
        "use_attn": (bool, True, None),
        "use_avg": (bool, True, None),
        "centroid": (bool, True, None),
    },
    "paths": {
        "data_dir": (str, "out", None),
    },
    "train": {
        "objective": (str, "shape", _choice(("shape", "appearance"))),
        "num_ids": (int, 8, _positive),
        "samples_per_id": (int, 4, _positive),
        "input_dim": (int, 16, _positive),
        "noise": (float, 0.1, _nonneg),
        "steps": (int, 200, _positive),
        "lr": (float, 0.05, _nonneg),
        "seed": (int, 3, None),
        "data_seed": (int, 9, None),
        "hidden_dim": (int, 24, _positive),
        "embed_dim": (int, 16, _positive),
    },
}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


@dataclass(frozen=True)
class ModelConfig:
    bins: int
    channels: int
    motion_channels: int
    gamma: float
    alpha: float
    pyramid_levels: int
    hpp_mode: str
    ta_target: str
    encoder_seed: int
    attention_seed: int
    projection_seed: int
    normalize_parts: bool
    rescale_appearance: bool


@dataclass(frozen=True)
class ProtocolConfig:
    gallery_ratio: float
    split_seed: int


@dataclass(frozen=True)
class AblationConfig:
    drop_silhouette: bool
    drop_smpl: bool
    drop_skeleton: bool
    use_attn: bool
    use_avg: bool
    centroid: bool


@dataclass(frozen=True)
class TrainConfig:
    objective: str
    num_ids: int
    samples_per_id: int
    input_dim: int
    noise: float
    steps: int
    lr: float
    seed: int
    data_seed: int
    hidden_dim: int
    embed_dim: int


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec
    model: ModelConfig
    protocol: ProtocolConfig
    ablation: AblationConfig
    data_dir: str
    train: TrainConfig

    def resolved_items(self) -> list[tuple[str, str]]:
        """(section.key, value-as-text) pairs, sorted, defaults included."""
        sections = {
            "dataset": self.dataset,
            "model": self.model,
            "protocol": self.protocol,
            "ablation": self.ablation,
            "train": self.train,
        }
        items = [("paths.data_dir", self.data_dir)]
        for name, obj in sections.items():
            for key in _SCHEMA[name]:
                items.append((f"{name}.{key}", repr(getattr(obj, key))))
        return sorted(items)

    def hash(self) -> str:
        return _digest(self.resolved_items())

    def model_hash(self) -> str:
        """Hash of the keys that change the vectors an index stores.

        Every model and ablation key counts except the two that act only at
        scoring time (alpha, rescale_appearance), so an index can be queried
        under another fusion weight but not under another model.
        """
        return _digest(
            [
                (k, v)
                for k, v in self.resolved_items()
                if k.startswith(("model.", "ablation.")) and k not in _SCORING_ONLY_KEYS
            ]
        )


_SCORING_ONLY_KEYS = ("model.alpha", "model.rescale_appearance")


def _digest(items: list[tuple[str, str]]) -> str:
    text = "\n".join(f"{k}={v}" for k, v in items)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _coerce(section: str, key: str, text: str, typ):
    field = f"{section}.{key}"
    if typ is bool:
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(field, f"expected a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    if typ is str:
        return text.strip()
    try:
        return typ(text.strip())
    except ValueError:
        raise ConfigError(field, f"expected {typ.__name__}, got {text!r}") from None


def parse_config(path) -> RunConfig:
    """Read and validate a config file; every field falls back to a default."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, "r") as f:
        try:
            parser.read_file(f, source=str(path))
        except configparser.Error as exc:
            raise ConfigError("(file)", f"unparseable config: {exc}") from None

    resolved: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        resolved[section] = {key: default for key, (_, default, _) in keys.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(section, "unknown section")
        for key, text in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
            typ, _, validator = _SCHEMA[section][key]
            value = _coerce(section, key, text, typ)
            if validator is not None:
                try:
                    validator(value)
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key}", str(exc)) from None
            resolved[section][key] = value

    model = ModelConfig(**resolved["model"])
    try:
        dataset = DatasetSpec(**resolved["dataset"])
    except Exception as exc:
        raise ConfigError("dataset", str(exc)) from None
    _check_geometry(dataset, model)
    return RunConfig(
        dataset=dataset,
        model=model,
        protocol=ProtocolConfig(**resolved["protocol"]),
        ablation=AblationConfig(**resolved["ablation"]),
        data_dir=resolved["paths"]["data_dir"],
        train=TrainConfig(**resolved["train"]),
    )


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

_SIL_HIDDEN = 8
_VEC_HIDDEN = 32
_APP_HIDDEN = 8


def _grid_widths(m: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Layer widths of the two grid encoders: mask + masked RGB, and RGB."""
    return {
        "silhouette": (4, _SIL_HIDDEN, m.channels),
        "appearance": (3, _APP_HIDDEN, m.channels),
    }


def _check_geometry(dataset: DatasetSpec, model: ModelConfig) -> None:
    """Reject frame sizes the grid encoders cannot pool or the strips cannot split."""
    # every grid-encoder layer ends in a 2x2 average pool
    factors = {name: 2 ** (len(w) - 1) for name, w in _grid_widths(model).items()}
    for name, factor in factors.items():
        for key in ("height", "width"):
            size = getattr(dataset, key)
            if size % factor != 0:
                raise ConfigError(
                    f"dataset.{key}",
                    f"must be divisible by {factor}, the {name} encoder's pooling factor; got {size}",
                )
    encoded = dataset.height // factors["silhouette"]
    if encoded % model.bins != 0:
        raise ConfigError(
            "model.bins",
            f"must divide the encoded height {encoded} (dataset.height = {dataset.height} "
            f"pooled {factors['silhouette']}x); got {model.bins}",
        )


def build_shape_model(cfg: RunConfig) -> ShapeModel:
    m = cfg.model
    sil = EncoderParams.initialize(_grid_widths(m)["silhouette"], derive_seed(m.encoder_seed, 101))
    smpl = EncoderParams.initialize((SMPL_DIM, _VEC_HIDDEN, m.channels), derive_seed(m.encoder_seed, 102))
    skel = EncoderParams.initialize(
        (SKELETON_INPUT_DIM, _VEC_HIDDEN, m.motion_channels), derive_seed(m.encoder_seed, 103)
    )
    return ShapeModel.build(
        sil_encoder=sil,
        smpl_encoder=smpl,
        skeleton_encoder=skel,
        bins=m.bins,
        projection_seed=m.projection_seed,
        hpp_mode=m.hpp_mode,
    )


def build_appearance_model(cfg: RunConfig) -> AppearanceModel:
    m = cfg.model
    enc = EncoderParams.initialize(_grid_widths(m)["appearance"], derive_seed(m.encoder_seed, 104))
    attn = AttentionParams.initialize(m.channels, levels=m.pyramid_levels, seed=m.attention_seed)
    return AppearanceModel(
        encoder=enc,
        attention=attn,
        gamma=m.gamma,
        ta_target=m.ta_target,
        normalize_parts=m.normalize_parts,
        use_attn=cfg.ablation.use_attn,
        use_avg=cfg.ablation.use_avg,
    )
