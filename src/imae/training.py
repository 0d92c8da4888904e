"""Mini-batch gradient descent training and checkpoint persistence.

Checkpoint layout (all integers little-endian u32 unless noted):
  magic "IMAE", version, config-text length, config text (utf-8 key = value
  lines), array count, then per parameter array: name length, name bytes,
  ndim, dims..., float64 little-endian payload. Tied decoder weights and
  untrained biases never hit the file; they are reconstructed on load.
"""

import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn, objectives
from .data import Dataset, NoiseSpec, batches, corrupt, read_exact, read_u32
from .errors import CheckpointFormatError, ConfigurationError, TrainingDiverged, check_range
from .ndcore import derive_rng

CHECKPOINT_MAGIC = b"IMAE"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    arch: nn.Arch
    loss: objectives.LossSpec
    learning_rate: float
    epochs: int
    batch_size: int
    tied: bool = False
    seed: int = 0
    biases: bool = True
    shuffle: bool = False

    def __post_init__(self):
        for name, low in (("learning_rate", 0), ("epochs", 1), ("batch_size", 1)):
            check_range(name, getattr(self, name), low)
        objectives.check_code_fits(self.loss, self.arch)


@dataclass
class EpochRecord:
    epoch: int
    total: float
    reconstruction: float
    latent: float
    seconds: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w") as f:
            f.write("epoch,total,reconstruction,latent,seconds\n")
            for r in self.records:
                f.write(f"{r.epoch},{r.total!r},{r.reconstruction!r},"
                        f"{r.latent!r},{r.seconds:.3f}\n")


def build_network(cfg: TrainConfig, rng) -> nn.Network:
    return nn.init_params(cfg.arch, rng, vae=cfg.loss.record.heads, tied=cfg.tied,
                          biases=cfg.biases)


def train(cfg: TrainConfig, ds: Dataset):
    """Train a fresh network on ``ds``; returns (network, history).

    Plain SGD, theta <- theta - lr * grad per batch. Everything random (init,
    batch order, corruption draws, latent samples) derives from cfg.seed, so
    equal configs give bit-identical parameters. Aborts on non-finite loss.
    """
    if ds.images.shape[1] != cfg.arch.input_dim:
        raise ConfigurationError(
            f"network expects {cfg.arch.input_dim} inputs, dataset has {ds.images.shape[1]}")
    init_rng = derive_rng(cfg.seed, "init")
    batch_rng = derive_rng(cfg.seed, "batches")
    noise_rng = derive_rng(cfg.seed, "corruption")
    net = build_network(cfg, init_rng)
    params = net.param_items()
    latent_rng = derive_rng(cfg.seed, "latent-sample")  # drawn from only by Gaussian heads
    history = TrainHistory()
    grads = None  # one gradient set, rewritten by each step's backward pass
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        tot = rec = lat = 0.0
        seen = 0
        for xb in batches(ds, cfg.batch_size, batch_rng, cfg.shuffle):
            x_in = xb if cfg.loss.noise is None else corrupt(xb, cfg.loss.noise, noise_rng)
            trace = nn.forward(net, x_in, rng=latent_rng)
            total, terms, grads = nn.backward(net, trace, cfg.loss, xb, out=grads)
            del trace  # else it lives on through the next step's forward pass
            if not np.isfinite(total):
                raise TrainingDiverged(epoch, {"total": total, **terms})
            for name, p in params.items():
                step = grads[name]  # spent once applied, so scaled in place
                step *= cfg.learning_rate
                p -= step
            b = len(xb)
            tot += total * b
            rec += terms["reconstruction"] * b
            lat += terms["latent"] * b
            seen += b
        history.records.append(EpochRecord(
            epoch, tot / seen, rec / seen, lat / seen, time.perf_counter() - t0))
    return net, history


# --- config text (embedded in checkpoints, also written as snapshots) ---

def _parse_bool(text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# (parse, format) pairs shared by every config text: checkpoint blocks here,
# INI files and resolved snapshots in ``cli``. Parsers raise ValueError.
INT = (int, str)
FLOAT = (float, repr)
BOOL = (_parse_bool, lambda value: str(value).lower())
TEXT = (str, str)
LAYERS = (lambda text: tuple((int(w), a) for w, _, a in
                             (part.partition(":") for part in text.split(","))),
          lambda layers: ",".join(f"{w}:{a}" for w, a in layers))

_CONFIG_CODECS = {
    "variant": TEXT, "lambda": FLOAT, "noise_kind": TEXT, "noise_level": FLOAT,
    "input_dim": INT, "layers": LAYERS, "latent_index": INT, "learning_rate": FLOAT,
    "epochs": INT, "batch_size": INT, "tied": BOOL, "seed": INT, "biases": BOOL,
    "shuffle": BOOL,
}


# field a domain rule names -> config key feeding it; a checkpoint block drops the section
CONFIG_KEYS = {"lam": "model.lambda", "kind": "model.noise_kind", "noise": "model.noise_kind",
               "level": "model.noise_level", "learning_rate": "train.learning_rate",
               "epochs": "train.epochs", "batch_size": "train.batch_size"}


def config_values(cfg: TrainConfig) -> dict:
    """The checkpoint config block as ordered key -> text."""
    noise = cfg.loss.noise or NoiseSpec("none", 0.0)
    values = {
        "variant": cfg.loss.variant, "lambda": cfg.loss.lam,
        "noise_kind": noise.kind, "noise_level": noise.level,
        "input_dim": cfg.arch.input_dim, "layers": cfg.arch.layers,
        "latent_index": cfg.arch.latent_index, "learning_rate": cfg.learning_rate,
        "epochs": cfg.epochs, "batch_size": cfg.batch_size, "tied": cfg.tied,
        "seed": cfg.seed, "biases": cfg.biases, "shuffle": cfg.shuffle,
    }
    return {key: fmt(values[key]) for key, (_, fmt) in _CONFIG_CODECS.items()}


def config_to_text(cfg: TrainConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config_values(cfg).items())


def config_from_text(text: str) -> TrainConfig:
    kv = {}
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key in kv:
            raise CheckpointFormatError(f"config block key {key}: given twice")
        kv[key] = value
    missing = [k for k in _CONFIG_CODECS if k not in kv]
    if missing:
        raise CheckpointFormatError(f"config block missing keys: {missing}")
    unknown = [k for k in kv if k not in _CONFIG_CODECS]
    if unknown:
        raise CheckpointFormatError(f"config block has unknown keys: {unknown}")
    v = {}
    for key, (parse, _) in _CONFIG_CODECS.items():
        try:
            v[key] = parse(kv[key])
        except ValueError as e:
            raise CheckpointFormatError(f"config block key {key}: {e}") from None
    try:
        return TrainConfig(
            arch=nn.Arch(v["input_dim"], v["layers"], v["latent_index"]),
            loss=objectives.LossSpec(v["variant"], lam=v["lambda"],
                                     noise=NoiseSpec(v["noise_kind"], v["noise_level"])),
            learning_rate=v["learning_rate"], epochs=v["epochs"],
            batch_size=v["batch_size"], tied=v["tied"], seed=v["seed"],
            biases=v["biases"], shuffle=v["shuffle"])
    except ConfigurationError as e:
        # a value out of its domain; a rule over several values names no key
        key = CONFIG_KEYS.get(e.field, e.field or "").rpartition(".")[2]
        where = f"config block key {key}" if key else "config block"
        raise CheckpointFormatError(f"{where}: {e}") from None


# --- checkpoint io ---

def save_checkpoint(net: nn.Network, cfg: TrainConfig, path) -> None:
    """Write the checkpoint atomically: to a temporary file beside ``path``,
    renamed over it only once complete, so a failed write leaves any earlier
    checkpoint untouched and no partial file behind."""
    cfg_bytes = config_to_text(cfg).encode("utf-8")
    params = net.param_items()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(cfg_bytes)))
            f.write(cfg_bytes)
            f.write(struct.pack("<I", len(params)))
            for name, arr in params.items():
                name_bytes = name.encode("ascii")
                f.write(struct.pack("<I", len(name_bytes)))
                f.write(name_bytes)
                f.write(struct.pack("<I", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Rebuild (network, config) from a checkpoint, filling each parameter once;
    exact round trip. A format error names the file."""
    try:
        with open(path, "rb") as f:
            magic = read_exact(f, 4, "magic")
            if magic != CHECKPOINT_MAGIC:
                raise CheckpointFormatError(f"bad checkpoint magic: {magic!r}")
            version = read_u32(f, "version", "<")
            if version != CHECKPOINT_VERSION:
                raise CheckpointFormatError(f"unsupported checkpoint version {version}")
            cfg_len = read_u32(f, "config length", "<")
            cfg = config_from_text(read_exact(f, cfg_len, "config").decode("utf-8"))
            net = build_network(cfg, derive_rng(0, "checkpoint-skeleton"))
            params = net.param_items()
            count = read_u32(f, "array count", "<")
            if count != len(params):
                raise CheckpointFormatError(
                    f"checkpoint holds {count} arrays, network needs {len(params)}")
            for _ in range(count):
                name = read_exact(f, read_u32(f, "name length", "<"), "name").decode("ascii")
                dst = params.pop(name, None)  # so a repeated name is unexpected too
                if dst is None:
                    raise CheckpointFormatError(f"unexpected array {name!r} in checkpoint")
                ndim = read_u32(f, "ndim", "<")
                shape = struct.unpack(f"<{ndim}I", read_exact(f, 4 * ndim, "shape"))
                if shape != dst.shape:
                    raise CheckpointFormatError(
                        f"array {name!r} has shape {shape}, network needs {dst.shape}")
                payload = read_exact(f, 8 * dst.size, f"data of {name}")
                np.copyto(dst, np.frombuffer(payload, dtype="<f8").reshape(shape))
            if f.read(1):
                raise CheckpointFormatError("bytes past the last array")
    except (CheckpointFormatError, ConfigurationError, UnicodeDecodeError) as e:
        raise CheckpointFormatError(f"{os.fspath(path)}: {e}") from None
    return net, cfg
