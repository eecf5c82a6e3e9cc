"""Run configuration: flat key=value files with section headers.

Each section of a file is one frozen dataclass, listed in `SECTIONS`, and each
key is declared once, as a field made by `exceptions.setting`: its default
gives the key's type and default value, and its check the key's range. The
`[dataset]` section is `synth.DatasetSpec`, so a config and a spec built in
code obey the same rules. Every key has a default, so an empty file is a
valid config; unknown sections or keys are rejected (typos should not
silently fall back to defaults). A value that fails its check, or that
passes it but cannot run with the others (a frame the encoders cannot pool,
a dataset with no query tracklets, one class for a loss that needs two), is
refused here with a ConfigError naming the key. All randomness in a run
flows from the seeds named here. The resolved configuration (defaults filled
in) is hashed so output files can be traced back to the exact settings that
produced them.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields

from .appearance import TA_TARGETS, AttentionParams
from .core import HPP_MODES
from .encoders import SKELETON_INPUT_DIM, SMPL_DIM, EncoderParams
from .exceptions import ConfigError, at_least, finite_nonneg, setting, within
from .gallery import AppearanceModel
from .prng import derive_seed
from .shape import ShapeModel
from .synth import DatasetSpec

_POSITIVE = at_least(1)
_UNIT = within(0, 1)


def _open_unit(v):
    return None if 0.0 < v < 1.0 else "must be in (0, 1)"


def _one_of(options):
    return lambda v: None if v in options else f"must be one of {', '.join(options)}"


@dataclass(frozen=True)
class ModelConfig:
    bins: int = setting(4, _POSITIVE)
    channels: int = setting(16, _POSITIVE)
    motion_channels: int = setting(12, _POSITIVE)
    gamma: float = setting(0.0, _UNIT)
    alpha: float = setting(0.1, _UNIT)
    pyramid_levels: int = setting(3, _POSITIVE)
    hpp_mode: str = setting("max+mean", _one_of(HPP_MODES))
    ta_target: str = setting("later", _one_of(TA_TARGETS))
    encoder_seed: int = setting(5)
    attention_seed: int = setting(11)
    projection_seed: int = setting(7)
    normalize_parts: bool = setting(True)
    rescale_appearance: bool = setting(True)


@dataclass(frozen=True)
class ProtocolConfig:
    gallery_ratio: float = setting(0.5, _open_unit)
    split_seed: int = setting(2)


@dataclass(frozen=True)
class AblationConfig:
    drop_silhouette: bool = setting(False)
    drop_smpl: bool = setting(False)
    drop_skeleton: bool = setting(False)
    use_attn: bool = setting(True)
    use_avg: bool = setting(True)
    centroid: bool = setting(True)


@dataclass(frozen=True)
class PathsConfig:
    data_dir: str = setting("out")


@dataclass(frozen=True)
class TrainConfig:
    objective: str = setting("shape", _one_of(("shape", "appearance")))
    num_ids: int = setting(8, _POSITIVE)
    samples_per_id: int = setting(4, _POSITIVE)
    input_dim: int = setting(16, _POSITIVE)
    noise: float = setting(0.1, finite_nonneg)
    steps: int = setting(200, _POSITIVE)
    lr: float = setting(0.05, finite_nonneg)
    seed: int = setting(3)
    data_seed: int = setting(9)
    hidden_dim: int = setting(24, _POSITIVE)
    embed_dim: int = setting(16, _POSITIVE)


# config file section -> the dataclass declaring its keys
SECTIONS = {
    "dataset": DatasetSpec,
    "model": ModelConfig,
    "protocol": ProtocolConfig,
    "ablation": AblationConfig,
    "paths": PathsConfig,
    "train": TrainConfig,
}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec
    model: ModelConfig
    protocol: ProtocolConfig
    ablation: AblationConfig
    paths: PathsConfig
    train: TrainConfig

    @property
    def data_dir(self) -> str:
        return self.paths.data_dir

    def resolved_items(self) -> list[tuple[str, str]]:
        """(section.key, value-as-text) pairs, sorted, defaults included.

        Values are written with repr, except data_dir, which the hash has
        always taken as written.
        """
        items = []
        for section, cls in SECTIONS.items():
            obj = getattr(self, section)
            for f in fields(cls):
                value = getattr(obj, f.name)
                items.append((f"{section}.{f.name}", value if cls is PathsConfig else repr(value)))
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


def _coerce(name: str, text: str, typ):
    if typ is bool:
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(name, f"expected a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    if typ is str:
        return text.strip()
    try:
        return typ(text.strip())
    except ValueError:
        raise ConfigError(name, f"expected {typ.__name__}, got {text!r}") from None


def parse_config(path) -> RunConfig:
    """Read and validate a config file; every field falls back to a default."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, "r", encoding="utf-8") as f:
        try:
            parser.read_file(f, source=str(path))
        except configparser.Error as exc:
            raise ConfigError("(file)", f"unparseable config: {exc}") from None
        except UnicodeDecodeError:
            raise ConfigError("(file)", "config is not UTF-8 text") from None

    given: dict[str, dict] = {section: {} for section in SECTIONS}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(section, "unknown section")
        declared = {f.name: f for f in fields(SECTIONS[section])}
        for key, text in parser[section].items():
            name = f"{section}.{key}"
            if key not in declared:
                raise ConfigError(name, "unknown key")
            value = _coerce(name, text, type(declared[key].default))
            problem = declared[key].metadata["check"](value)
            if problem is not None:
                raise ConfigError(name, problem)
            given[section][key] = value
    cfg = RunConfig(**{section: cls(**given[section]) for section, cls in SECTIONS.items()})
    _check_runnable(cfg)
    return cfg


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


def _check_runnable(cfg: RunConfig) -> None:
    """Refuse values that pass their own checks but cannot run together."""
    dataset, model = cfg.dataset, cfg.model
    if dataset.tracklets_per_id < 2:
        raise ConfigError(
            "dataset.tracklets_per_id",
            f"must be >= 2, so that every subject has a gallery and a query tracklet; got {dataset.tracklets_per_id}",
        )
    if cfg.train.objective == "appearance" and cfg.train.num_ids < 2:
        raise ConfigError(
            "train.num_ids",
            f"must be >= 2 under the appearance objective, whose centroid triplet loss needs two classes; "
            f"got {cfg.train.num_ids}",
        )
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
        drop_silhouette=cfg.ablation.drop_silhouette,
        drop_smpl=cfg.ablation.drop_smpl,
        drop_skeleton=cfg.ablation.drop_skeleton,
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
