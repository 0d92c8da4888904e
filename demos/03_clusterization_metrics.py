#!/usr/bin/env python3
"""The clusterization toolkit on constructed data.

Walks through K-means with plus-plus seeding, the matching-accuracy flavour
of the Rand index (best one-to-one cluster-to-label map), and the mean latent
derivative diagnostic.
"""

import itertools

import numpy as np

from imae import nn
from imae.evaluation import kmeans, rand_index, sigma_prime
from imae.ndcore import derive_rng

rng = derive_rng(99)

# --- K-means on three obvious blobs -------------------------------------
centers = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
labels = rng.integers(3, size=600)
points = centers[labels] + 0.4 * rng.standard_normal((600, 2))

result = kmeans(points, 3, derive_rng(1))
print(f"k-means on 3 blobs: {result.n_iter} iterations, final inertia {result.inertia:.1f}")

# --- Rand index: accuracy under the best cluster-to-label map -----------
score = rand_index(result.assignments, labels, 3)
print(f"  rand index vs ground truth: {score:.3f}")

shuffled = rng.permutation(3)[result.assignments]  # relabeling changes nothing
print(f"  after relabeling the clusters: {rand_index(shuffled, labels, 3):.3f}")

# Exhaustive check on a small instance: the assignment solver must agree
# with trying every bijection.
small_assign = rng.integers(4, size=30)
small_labels = rng.integers(4, size=30)
best = max(
    sum(perm[c] == l for c, l in zip(small_assign, small_labels))
    for perm in itertools.permutations(range(4))) / 30
print(f"  exhaustive max over 4! maps: {best:.4f} == "
      f"solver: {rand_index(small_assign, small_labels, 4):.4f}")

# --- sigma': mean derivative of the sigmoid code ------------------------
net = nn.init_params(nn.shallow_arch(32, 64), derive_rng(2))
x = rng.random((200, 64))
print(f"\nsigma' of a fresh random encoder: {sigma_prime(net, x):.4f}")
for arr in net.param_items().values():
    arr[:] = 0.0
print(f"sigma' of an all-zero encoder (code pinned at 0.5): "
      f"{sigma_prime(net, x):.4f}")
net.layers[0].weights[:] = 100.0 * rng.standard_normal(net.layers[0].weights.shape)
print(f"sigma' of a saturated encoder: {sigma_prime(net, x):.2e}")
