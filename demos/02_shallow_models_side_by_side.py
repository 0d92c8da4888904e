#!/usr/bin/env python3
"""Train the five shallow models on synthetic digits and compare them.

Reproduces the shape of the robustness and clusterization experiments at desk
scale on generated data: ten smooth prototype images plus pixel noise stand in
for the ten digit classes, so everything runs offline in about a minute.
Point IMAE_DATA_DIR at the real MNIST IDX files and use the `imae reproduce`
command for the full protocol.
"""

from imae import nn
from imae.data import NoiseSpec, synthetic_splits
from imae.evaluation import cluster_eval, robustness_sweep
from imae.ndcore import derive_rng, derive_seed
from imae.objectives import LossSpec
from imae.training import TrainConfig, train

SEED = 1234

train_ds, test_ds = synthetic_splits(1500, 1000, seed=3)  # one draw: shared classes
d = train_ds.images.shape[1]

models = {
    "AE": LossSpec("AE"),
    "CAE": LossSpec("CAE"),
    "DAE-b": LossSpec("DAE", noise=NoiseSpec("mask", 0.3)),
    "DAE-g": LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
    "IMAE": LossSpec("IMAE"),
}
noise_grid = [NoiseSpec("mask", 0.0), NoiseSpec("mask", 0.3),
              NoiseSpec("mask", 0.5), NoiseSpec("gaussian", 0.3)]

print(f"training 5 shallow models ({d} -> 64 -> {d}, tied, 300 epochs) ...")
print()
header = f"{'model':7s}" + "".join(f"{s.describe():>14s}" for s in noise_grid)
print(header + f"{'R':>8s}{'R_nu':>8s}{'sigma_prime':>13s}")
for tag, loss in models.items():
    cfg = TrainConfig(arch=nn.shallow_arch(64, d), loss=loss, learning_rate=0.05,
                      epochs=300, batch_size=250, tied=True,
                      seed=derive_seed(SEED, "train", tag))
    net, _ = train(cfg, train_ds)
    rows = robustness_sweep(net, test_ds, noise_grid,
                            derive_rng(derive_seed(SEED, "rob", tag)))
    report = cluster_eval(net, test_ds, iterations=6, n=800, k=10,
                          noise=NoiseSpec("gaussian", 0.2),
                          seed=derive_seed(SEED, "eval", tag), model_tag=tag)
    cells = "".join(f"{r.mean_l2:14.3f}" for r in rows)
    print(f"{tag:7s}{cells}{100 * report.rand_clean:8.1f}"
          f"{100 * report.rand_noisy:8.1f}{report.sigma_prime:13.4f}")

print()
print("Expected pattern: the plain AE reconstructs clean inputs best, the")
print("mask-trained DAE wins under mask noise, and IMAE keeps the largest")
print("mean latent derivative (the contractive model the smallest).")
