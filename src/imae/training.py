"""Mini-batch gradient descent training and checkpoint persistence.

Checkpoint layout (all integers little-endian u32 unless noted):
  magic "IMAE", version 3, config-text length, config text (utf-8 INI, [model]
  and [train] under the config keys), array count, then per array: name
  length, name bytes, ndim, dims..., float64 little-endian payload. Tied decoder
  weights never hit the file; they are rebuilt on load as views of their encoder's.
"""

import os
import struct
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import nn, objectives
from .config import BLOCK_CODECS, CONFIG_KEYS, ini_text, ini_values
from .data import Dataset, NoiseSpec, batches, corrupt, read_exact, read_u32, write_csv
from .errors import CheckpointFormatError, ConfigurationError, TrainingDiverged, check_range
from .ndcore import derive_rng

CHECKPOINT_MAGIC = b"IMAE"
CHECKPOINT_VERSION = 3


@dataclass
class TrainConfig:
    arch: nn.Arch
    loss: objectives.LossSpec
    learning_rate: float
    epochs: int
    batch_size: int
    tied: bool = False
    seed: int = 0
    shuffle: bool = False

    def __post_init__(self):
        for name, low in (("learning_rate", 0), ("epochs", 1), ("batch_size", 1)):
            check_range(name, getattr(self, name), low)
        if self.loss.record.heads and self.arch.latent_index == len(self.arch.layers) - 1:
            raise ConfigurationError(f"{self.loss.variant}'s Gaussian heads replace the code "
                                     f"layer, so a decoder layer must follow it; got the code "
                                     f"as the last layer of {self.arch.widths()}", field="layers")
        objectives.check_code_fits(self.loss, self.arch)


@dataclass
class EpochRecord:
    """One epoch of ``train``: each loss column is its mean over the epoch's
    rows, so a batch weighs its row count; ``seconds``, wall time to the ms."""
    epoch: int
    total: float
    reconstruction: float
    latent: float
    seconds: float


def write_history(records, path) -> None:
    """history.csv: one row per EpochRecord, its fields the columns."""
    write_csv(path, [f.name for f in fields(EpochRecord)], map(astuple, records))


def build_network(cfg: TrainConfig, rng) -> nn.Network:
    return nn.init_params(cfg.arch, rng, vae=cfg.loss.record.heads, tied=cfg.tied)


def train(cfg: TrainConfig, ds: Dataset):
    """Train a fresh network on ``ds``; returns (network, records), one
    EpochRecord per epoch.

    Plain SGD, theta <- theta - lr * grad per batch, each block stepped in
    ``nn.backward`` once its gradient is final, from a fresh array the step
    then drops. Everything random (init, batch order, corruption draws,
    latent samples) derives from cfg.seed, so equal configs give
    bit-identical parameters. A non-finite loss aborts first.
    """
    if ds.images.shape[1] != cfg.arch.widths()[0]:
        raise ConfigurationError(
            f"network expects {cfg.arch.widths()[0]} inputs, dataset has {ds.images.shape[1]}")
    init_rng = derive_rng(cfg.seed, "init")
    batch_rng = derive_rng(cfg.seed, "batches")
    noise_rng = derive_rng(cfg.seed, "corruption")
    net = build_network(cfg, init_rng)
    params = net.param_items()
    latent_rng = derive_rng(cfg.seed, "latent-sample")  # drawn from only by Gaussian heads
    records = []

    def sgd_step(name, grad):
        grad *= cfg.learning_rate  # spent once applied, so scaled in place
        params[name] -= grad

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        sums, seen = {}, 0  # each loss column's sum over rows, by name
        for xb in batches(ds, cfg.batch_size, batch_rng, cfg.shuffle):
            x_in = xb if cfg.loss.noise is None else corrupt(xb, cfg.loss.noise, noise_rng)
            trace = nn.forward(net, x_in, rng=latent_rng)
            total, terms, _ = nn.backward(net, trace, cfg.loss, xb, sgd_step)
            del trace  # else it lives on through the next step's forward pass
            losses = {"total": total, **terms}
            if not np.isfinite(total):
                raise TrainingDiverged(epoch, losses)
            for name, value in losses.items():
                sums[name] = sums.get(name, 0.0) + value * len(xb)
            seen += len(xb)
        records.append(EpochRecord(epoch, **{name: s / seen for name, s in sums.items()},
                                   seconds=round(time.perf_counter() - t0, 3)))
    return net, records


# --- the checkpoint config block ---

def config_values(cfg: TrainConfig) -> dict:
    """The checkpoint config block as ordered "section.key" -> text."""
    noise = cfg.loss.noise or NoiseSpec("none", 0.0)
    values = {
        "model.variant": cfg.loss.variant, "model.lambda": cfg.loss.lam,
        "model.noise_kind": noise.kind, "model.noise_level": noise.level,
        "model.tied": cfg.tied, "model.layers": cfg.arch.layers,
        "model.latent_index": cfg.arch.latent_index, "train.learning_rate": cfg.learning_rate,
        "train.epochs": cfg.epochs, "train.batch_size": cfg.batch_size,
        "train.shuffle": cfg.shuffle, "train.seed": cfg.seed,
    }
    return {key: fmt(values[key]) for key, (_, fmt) in BLOCK_CODECS.items()}


def config_to_text(cfg: TrainConfig) -> str:
    return ini_text(config_values(cfg))


def config_from_text(text: str) -> TrainConfig:
    try:
        raw = ini_values(text, BLOCK_CODECS, "config block")
    except ValueError as e:
        raise CheckpointFormatError(f"config block: {e}") from None
    v = {}
    for key, (parse, _) in BLOCK_CODECS.items():
        try:
            v[key] = parse(raw[key])
        except KeyError:
            raise CheckpointFormatError(f"config block key {key}: missing") from None
        except ValueError as e:
            raise CheckpointFormatError(f"config block key {key}: {e}") from None
    try:
        return TrainConfig(
            arch=nn.Arch(v["model.layers"], v["model.latent_index"]),
            loss=objectives.LossSpec(v["model.variant"], lam=v["model.lambda"],
                                     noise=NoiseSpec(v["model.noise_kind"],
                                                     v["model.noise_level"])),
            learning_rate=v["train.learning_rate"], epochs=v["train.epochs"],
            batch_size=v["train.batch_size"], tied=v["model.tied"], seed=v["train.seed"],
            shuffle=v["train.shuffle"])
    except ConfigurationError as e:
        # a value out of its domain; a rule over several values names no key
        key = {**CONFIG_KEYS, "layers": "model.layers"}.get(e.field)
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
                f.write(np.ascontiguousarray(arr, dtype="<f8"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Rebuild (network, config) from a checkpoint, filling each parameter once;
    exact round trip. A format error, a non-finite parameter too, names the file."""
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
                if not np.isfinite(dst).all():
                    raise CheckpointFormatError(f"array {name!r} holds a non-finite value")
            if f.read(1):
                raise CheckpointFormatError("bytes past the last array")
    except (CheckpointFormatError, ConfigurationError, UnicodeDecodeError) as e:
        raise CheckpointFormatError(f"{os.fspath(path)}: {e}") from None
    return net, cfg
