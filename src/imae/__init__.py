"""InfoMax autoencoder and comparison models with their evaluation protocols.

The library trains five dense autoencoder variants — plain (AE), contractive
(CAE), denoising (DAE), information-maximizing (IMAE), and variational (VAE) —
and scores them with noise-robust reconstruction sweeps and K-means
clusterization of the hidden codes.
"""

# cli is left to be imported on use, so `python -m imae.cli` runs it once
from . import (config, data, evaluation, gradcheck, ndcore, nn, objectives, reference,
               training)
from .data import Dataset, NoiseSpec
from .nn import Arch, Network, deep_arch, shallow_arch
from .objectives import LossSpec
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "Arch", "Dataset", "LossSpec", "Network", "NoiseSpec", "TrainConfig",
    "cli", "config", "data", "deep_arch", "evaluation", "gradcheck", "ndcore", "nn",
    "objectives", "reference", "shallow_arch", "train", "training",
]
