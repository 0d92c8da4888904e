#!/usr/bin/env python3
"""Small codes from deep networks: entropy-maximized sigmoid units vs a
Gaussian latent.

Builds the two deep models (softplus trunks around an 8-unit code), trains
them on synthetic digits, scores the codes by clusterization, and exports
them to CSV for external projection tools (t-SNE, UMAP, ...).
"""

from imae import nn
from imae.data import NoiseSpec, make_synthetic_digits
from imae.evaluation import cluster_eval, export_codes
from imae.ndcore import derive_seed
from imae.objectives import LossSpec
from imae.training import TrainConfig, train

SEED = 77

train_ds = make_synthetic_digits(1500, seed=5)
test_ds = make_synthetic_digits(1000, seed=6)
d = train_ds.images.shape[1]
arch = nn.deep_arch(8, input_dim=d, trunk=(160, 80))
print(f"deep architecture: {'-'.join(str(w) for w in arch.widths())}, "
      f"8-unit code at layer {arch.latent_index}")

for tag, loss in (("VAE", LossSpec("VAE")), ("IMAE", LossSpec("IMAE"))):
    cfg = TrainConfig(arch=arch, loss=loss, learning_rate=0.005, epochs=150,
                      batch_size=250, seed=derive_seed(SEED, "train", tag))
    net, history = train(cfg, train_ds)
    report = cluster_eval(net, test_ds, iterations=5, n=800, k=10,
                          noise=NoiseSpec("gaussian", 0.05),
                          seed=derive_seed(SEED, "eval", tag), model_tag=tag)
    path = f"codes_{tag.lower()}.csv"
    export_codes(net, test_ds, path)
    sp = "-" if report.sigma_prime is None else f"{report.sigma_prime:.3f}"
    print(f"{tag:5s} final loss {history.records[-1].total:8.3f}  "
          f"R {100 * report.rand_clean:5.1f}  R_noisy {100 * report.rand_noisy:5.1f}  "
          f"sigma' {sp}  -> {path}")

print()
print("Each CSV row is `label,z0,...,z7`; feed it to any projection tool to")
print("visualize how the two latent spaces separate the classes.")
