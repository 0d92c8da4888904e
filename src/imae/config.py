"""Every config rule: the value codecs, the INI text, the schema of config
keys, the presets, and the resolver from raw texts to an ExperimentConfig.

Config files, ``--set``, the command-line flags, the resolved snapshot a run
writes and a checkpoint's config block all parse a key with the codec the
schema gives it here, and read and write INI text with ``ini_values`` and
``ini_text``. A codec is a (parse, format) pair; its parser raises ValueError.
"""

import configparser
import math
import os
from dataclasses import dataclass, make_dataclass
from pathlib import Path

from . import nn, objectives, reference
from .data import CANONICAL_FILES, NOISE_KINDS
from .errors import UsageError

SCALES = ("desk", "paper")
DATASETS = ("mnist", "fashion")


# --- codecs ---------------------------------------------------------------

def _parse_bool(text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text):
    if not math.isfinite(value := float(text)):
        raise ValueError(f"must be finite, got {value}")
    return value


INT = (int, str)
FLOAT = (_parse_float, repr)
BOOL = (_parse_bool, lambda value: str(value).lower())
TEXT = (str, str)
LAYERS = (lambda text: tuple((int(w), a) for w, _, a in
                             (part.partition(":") for part in text.split(","))),
          lambda layers: ",".join(f"{w}:{a}" for w, a in layers))


def choice(allowed, parse=str):
    """The (parse, format) codec of a key whose value is one of ``allowed``."""
    def parse_choice(text):
        if (value := parse(text)) not in allowed:
            raise ValueError(f"must be one of {allowed}, got {value!r}")
        return value
    return parse_choice, str


# --- INI text ---------------------------------------------------------------

def ini_text(values: dict) -> str:
    """INI text of ordered "section.key" -> text, a blank line between sections."""
    sections = {}
    for name, text in values.items():
        section, _, key = name.partition(".")
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    return "\n".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


def ini_values(text: str, keys, source) -> dict:
    """Raw "section.key" -> text from INI ``text``; its errors name ``source``.
    A malformed text, or a section ([DEFAULT] too) or key not in ``keys``, is a ValueError."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source)
    except configparser.Error as e:
        raise ValueError(e) from None
    if unknown := set(parser.sections()) - {name.partition(".")[0] for name in keys}:
        raise ValueError(f"unknown config sections {sorted(unknown)}")
    raw = {f"{section}.{key}": value
           for section in parser.sections() for key, value in parser[section].items()}
    if unknown := [name for name in raw if name not in keys]:
        raise ValueError(f"unknown config keys {unknown}")
    return raw


# --- presets ----------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    """One model size of the paper and the defaults it pulls."""
    width: int             # the shallow hidden width; None for deep, whose code is model.nh wide
    learning_rate: float
    desk_epochs: int       # train.epochs at desk scale
    tied: bool
    eval_noise: dict       # data.dataset -> eval.noise_level

    def arch(self, nh) -> nn.Arch:
        return nn.deep_arch(nh) if self.width is None else nn.shallow_arch(self.width)


_SHALLOW_NOISE = dict.fromkeys(DATASETS, 0.2)
PRESETS = {
    "shallow200": Preset(200, 0.05, 300, True, _SHALLOW_NOISE),
    "shallow1000": Preset(1000, 0.05, 300, True, _SHALLOW_NOISE),
    "deep": Preset(None, 0.005, 150, False, reference.TABLE3_NOISE_STD),
}


# --- the schema ---------------------------------------------------------------

# section -> key -> (ExperimentConfig field, codec, default). Every config
# text is parsed, and its choices checked, by this one table: INI files,
# --set, the flags (each an alias of one key), the resolved snapshot and the
# checkpoint block. None defaults depend on other keys; _derived_defaults fills them.
_SCHEMA = {
    "experiment": {
        "seed": ("seed", INT, 12345),
        "out": ("out", TEXT, "runs/experiment"),
        "scale": ("scale", choice(SCALES), "desk"),
    },
    "data": {
        "dir": ("data_dir", TEXT, "./data"),
        "dataset": ("dataset", choice(DATASETS), "mnist"),
        **{key: (key, TEXT, name) for key, name in CANONICAL_FILES.items()},
    },
    "model": {
        "variant": ("variant", choice(tuple(objectives.VARIANTS), str.upper), "IMAE"),
        "preset": ("preset", choice(tuple(PRESETS)), "shallow200"),
        "nh": ("nh", INT, 10),
        "lambda": ("lam", FLOAT, None),
        "noise_kind": ("noise_kind", choice(NOISE_KINDS), "mask"),
        "noise_level": ("noise_level", FLOAT, 0.3),
        "tied": ("tied", BOOL, None),
    },
    "train": {
        "learning_rate": ("learning_rate", FLOAT, None),
        "epochs": ("epochs", INT, None),
        "batch_size": ("batch_size", INT, 500),
        "shuffle": ("shuffle", BOOL, False),
        "train_limit": ("train_limit", INT, None),
    },
    "eval": {
        "protocol": ("eval_protocol", choice(("robustness", "cluster", "codes")), "robustness"),
        "iterations": ("eval_iterations", INT, 50),
        "n": ("eval_n", INT, 1000),
        "k": ("eval_k", INT, 10),
        "noise_kind": ("eval_noise_kind", choice(NOISE_KINDS), "gaussian"),
        "noise_level": ("eval_noise_level", FLOAT, None),
    },
}
KEYS = {f"{section}.{key}": entry
        for section, keys in _SCHEMA.items() for key, entry in keys.items()}

# The checkpoint config block, in its written order: nine settings a config
# file also holds, under their keys and schema codecs, and the block's own
# three, the architecture and the derived training seed.
_BLOCK_OWN = {"model.layers": LAYERS, "model.latent_index": INT, "train.seed": INT}
BLOCK_CODECS = {key: _BLOCK_OWN.get(key) or KEYS[key][1] for key in (
    "model.variant", "model.lambda", "model.noise_kind", "model.noise_level", "model.tied",
    "model.layers", "model.latent_index",
    "train.learning_rate", "train.epochs", "train.batch_size", "train.shuffle", "train.seed")}

# field a domain rule names -> config key feeding it. A site adds what it
# feeds otherwise: the layers of its Arch, the level of its eval NoiseSpec.
CONFIG_KEYS = {"lam": "model.lambda", "kind": "model.noise_kind", "noise": "model.noise_kind",
               "level": "model.noise_level", "learning_rate": "train.learning_rate",
               "epochs": "train.epochs", "batch_size": "train.batch_size",
               "train_limit": "train.train_limit", "iterations": "eval.iterations",
               "n": "eval.n", "k": "eval.k"}

ExperimentConfig = make_dataclass(
    "ExperimentConfig", [field for field, _, _ in KEYS.values()],
    namespace={"__module__": __name__,
               "__doc__": "A fully resolved configuration: one field per _SCHEMA key."})


def _derived_defaults(values) -> dict:
    """Defaults that depend on the preset, scale, variant or dataset."""
    preset = PRESETS[values["model.preset"]]
    paper = values["experiment.scale"] == "paper"
    return {
        "model.lambda": objectives.VARIANTS[values["model.variant"]].lam,
        "model.tied": preset.tied,
        "train.learning_rate": preset.learning_rate,
        "train.epochs": 2000 if paper else preset.desk_epochs,
        "train.train_limit": 0 if paper else 10000,
        "eval.noise_level": preset.eval_noise[values["data.dataset"]],
    }


def read_config_file(path) -> dict:
    """Raw "section.key" texts of an INI file; a section or key not in the schema is an error."""
    if path is None:
        return {}
    try:
        return ini_values(Path(path).read_text(), KEYS, os.fspath(path))
    except OSError:
        raise UsageError(f"config file not found: {path}") from None
    except ValueError as e:
        raise UsageError(f"config file {path}: {e}") from None


def resolve_config(raw: dict) -> ExperimentConfig:
    """Materialize every default into a complete configuration.

    ``raw`` maps "section.key" to text. Each value is parsed by its schema
    codec; keys it lacks take the schema default, or the derived default
    for the preset, scale, variant and dataset. Explicit settings always win.
    """
    values = {}
    for key, (_, (parse, _), default) in KEYS.items():
        try:
            values[key] = parse(raw[key]) if key in raw else default
        except ValueError as e:
            raise UsageError(f"{key}: {e}") from None
    for key, value in _derived_defaults(values).items():
        if values[key] is None:
            values[key] = value
    return ExperimentConfig(**{KEYS[key][0]: value for key, value in values.items()})


def snapshot_text(cfg: ExperimentConfig) -> str:
    """The fully resolved configuration, every default materialized; it reads
    back through read_config_file and resolve_config to the same config."""
    return ini_text({key: fmt(getattr(cfg, field))
                     for key, (field, (_, fmt), _) in KEYS.items()})
