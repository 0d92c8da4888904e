"""Evaluation protocols: noise-robust reconstruction and clusterization.

Clusterization runs K-means on the hidden codes and scores the clusters
against ground-truth labels with a matching accuracy: the best fraction of
agreeing points over all one-to-one cluster-to-label maps (solved exactly as
a linear assignment on the contingency table).
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import nn, objectives
from .data import (Dataset, NoiseSpec, apply_noise, corrupt, draw_noise, pixel_rows,
                   sample_subset)
from .errors import ConfigurationError, check_range
from .ndcore import as_matrix, derive_rng, row_blocks

KMEANS_MAX_ITERS = 300  # Lloyd iterations before K-means stops unconverged


@dataclass
class ClusterResult:
    assignments: np.ndarray  # cluster id per point, in [0,k)
    centroids: np.ndarray    # (k, d)
    inertia: float
    n_iter: int = 0
    converged: bool = True   # False when KMEANS_MAX_ITERS stopped the Lloyd loop


def kmeans(codes, k, rng) -> ClusterResult:
    """Lloyd iterations from k-means++ seeding until the assignment stops
    changing (or KMEANS_MAX_ITERS). Empty clusters are re-seeded to the point
    currently farthest from its centroid. When a cluster is empty and every
    point already sits on its centroid, the codes have fewer distinct points
    than k, no re-seed can lower the inertia, and the fit stops converged.

    Each iteration recomputes only the stale clusters, those whose member set
    changed since their centroid was set (at first, all of them): an unchanged
    set has the same sum, so the same centroid and distance row. A centroid
    sums its members in point order: a reduction over the rows of a block adds
    them in row order only when the block has more than one column (a single
    column is summed pairwise), and ``accumulate`` is sequential by definition.
    """
    # imported on first use: with scipy.linalg, ~0.15 s and 10 MB that only clustering needs
    from scipy.spatial.distance import cdist

    codes = as_matrix(codes)
    n = len(codes)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")

    centroids = np.empty((k, codes.shape[1]))
    centroids[0] = codes[int(rng.integers(n))]
    closest = ((codes - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        idx = int(rng.choice(n, p=closest / total)) if total > 0 else int(rng.integers(n))
        centroids[j] = codes[idx]
        closest = np.minimum(closest, ((codes - centroids[j]) ** 2).sum(axis=1))

    d2 = cdist(centroids, codes, "sqeuclidean")  # one row per centroid
    assign = d2.argmin(axis=0)
    stale = np.ones(k, dtype=bool)
    for n_iter in range(1, KMEANS_MAX_ITERS + 1):
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            point_cost = d2[assign, np.arange(n)]
            if not point_cost.any():  # fewer distinct points than k: no re-seed lowers the inertia
                moved = np.zeros(n, dtype=bool)
                break
            for c in np.flatnonzero(counts == 0):
                far = int(point_cost.argmax())
                centroids[c] = codes[far]
                point_cost[far] = -1.0
            stale |= counts == 0
        members, ends = np.argsort(assign, kind="stable"), np.cumsum(counts)
        for c in np.flatnonzero(stale & (counts > 0)):
            block = codes[members[ends[c] - counts[c]:ends[c]]]
            total = block.sum(axis=0) if block.shape[1] > 1 else np.add.accumulate(block)[-1]
            centroids[c] = total / counts[c]
        d2[stale] = cdist(centroids[stale], codes, "sqeuclidean")
        new_assign = d2.argmin(axis=0)
        moved = new_assign != assign
        stale[:] = False
        stale[assign[moved]] = stale[new_assign[moved]] = True
        assign = new_assign
        if not moved.any():
            break
    return ClusterResult(assign, centroids, float(d2[assign, np.arange(n)].sum()), n_iter,
                         converged=not moved.any())


def rand_index(assignments, labels, k) -> float:
    """Best-case matching accuracy between cluster ids and labels.

    Maximum over one-to-one cluster-to-label maps of the fraction of points
    whose mapped cluster equals their label; the maximum is found exactly via
    linear assignment on the k x k contingency table.
    """
    # imported on first use: ~0.15 s and 12 MB that only clustering needs
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(assignments, dtype=np.int64)
    l = np.asarray(labels, dtype=np.int64)
    if a.shape != l.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {l.shape}")
    if len(a) == 0:
        raise ValueError("empty input")
    for name, v in (("assignments", a), ("labels", l)):
        if v.min() < 0 or v.max() >= k:
            raise ValueError(f"{name} outside [0,{k}): min={v.min()}, max={v.max()}")
    contingency = np.bincount(a * k + l, minlength=k * k).reshape(k, k)
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    return float(contingency[rows, cols].sum()) / len(a)


def encode_rows(net: nn.Network, pixels, noise: NoiseSpec = None, rng=None) -> np.ndarray:
    """Codes of every row of a pixel matrix (uint8 or float, see
    ``pixel_rows``), encoded one row block at a time into one code matrix.
    With ``noise``, each block is corrupted from ``rng`` before encoding;
    drawn block by block in row order, these are the draws of one full-size
    corruption."""
    codes = None
    for block in row_blocks(len(pixels)):
        x = pixel_rows(pixels, block)
        if noise is not None:
            x = corrupt(x, noise, rng)
        c = nn.encode(net, x)
        if codes is None:
            codes = np.empty((len(pixels), c.shape[1]))
        codes[block] = c
    return codes


def sigma_prime(net: nn.Network, data, codes=None) -> float:
    """Mean derivative of the sigmoid latent over all samples and units of a
    pixel matrix; ``codes``, when given, are its rows' codes already encoded."""
    if not net.sigmoid_code:
        raise ConfigurationError("sigma_prime needs a sigmoid latent layer")
    if codes is None:
        codes = encode_rows(net, data)
    return float(objectives.sigmoid_slope(codes).mean())


@dataclass
class RobustnessRow:
    noise: NoiseSpec
    mean_l2: float


@dataclass
class EvalReport:
    model: str
    robustness: list = field(default_factory=list)
    rand_clean: float = None
    rand_noisy: float = None
    sigma_prime: float = None
    iterations: int = 0
    seeds: list = field(default_factory=list)
    kmeans_capped: int = 0  # K-means runs stopped unconverged; not in to_dict

    def to_dict(self):
        return {
            "model": self.model,
            "robustness": [{"kind": r.noise.kind, "level": r.noise.level,
                            "mean_l2": r.mean_l2} for r in self.robustness],
            "rand_clean": self.rand_clean,
            "rand_noisy": self.rand_noisy,
            "sigma_prime": self.sigma_prime,
            "iterations": self.iterations,
            "seeds": list(self.seeds),
        }


def robustness_sweep(net: nn.Network, test: Dataset, specs, rng) -> list:
    """Mean per-image reconstruction L2 against clean originals, one row per
    corruption spec, in the order of ``specs``.

    The test set is read one row block x at a time, in row order. The block
    first draws from ``rng`` one uniform block u if a spec masks, then one
    standard-normal block z if a spec adds Gaussian noise (``data.draw_noise``);
    every level of a kind reads its kind's one draw (common random numbers:
    masks nest, and differences between rows carry less Monte-Carlo noise).
    Mask levels above 0 run from one input buffer the sweep owns. The maps
    that read the input are linear, so the rest start from the block's
    ``nn.input_products`` P of x and bias-free Q of z: ``none`` and mask 0
    enter as P, the clean pass to the bit, Gaussian s as P + s * Q, the
    product of ``z * s + x`` up to rounding. So the Table-1 grid forms 5 such
    products per block, not 8, but one Gaussian level with no clean level
    forms one more. Memory holds x, u, z, the buffer, P, Q, one forward pass
    and a distance per image and spec. Gaussian-latent networks draw their
    latent samples from ``rng``, per spec, after the block's draws."""
    specs = list(specs)
    dist = np.empty((len(specs), len(test)))
    blocks = row_blocks(len(test))
    buf = np.empty((max(b.stop - b.start for b in blocks), test.images.shape[1]))
    for block in blocks:
        clean = noise = pre = None  # P and Q, formed when first read; the last block's go
        x = pixel_rows(test.images, block)
        draws = draw_noise(specs, x.shape, rng)
        for spec, row in zip(specs, dist):
            xin = x if spec.kind == "gaussian" else apply_noise(x, spec, draws, buf[:len(x)])
            pre = None
            if xin is x:  # clean or Gaussian: from the block's products
                pre = clean = clean or nn.input_products(net, x)
            if spec.kind == "gaussian":
                noise = noise or nn.input_products(net, draws[1], bias=False)
                pre = [q * spec.level + p for p, q in zip(clean, noise)]
            xhat = nn.forward(net, xin, rng=rng, pre=pre).xhat
            row[block] = objectives.reconstruction_l2(np.subtract(xhat, x, out=xhat))
    return [RobustnessRow(spec, float(row.mean())) for spec, row in zip(specs, dist)]


def check_cluster_settings(iterations, n, k, n_test) -> None:
    """Raise ConfigurationError, its field the setting at fault, unless the
    cluster protocol can run ``iterations`` times on ``n`` of ``n_test`` test
    images with ``k`` clusters."""
    for setting, value, low in (("iterations", iterations, 1), ("k", k, 1), ("n", n, k)):
        check_range(setting, value, low)
    check_range("n", n, k, n_test, rule=f"n must be <= the {n_test} test images")


def cluster_eval(net: nn.Network, test: Dataset, iterations=50, n=1000, k=10,
                 noise: NoiseSpec = None, seed=0, model_tag="") -> EvalReport:
    """Repeated subset/K-means protocol.

    Each iteration resamples ``n`` test points and reseeds K-means; the noisy
    score corrupts the sampled inputs before encoding and refits K-means on
    the resulting codes. Reported values are means over iterations;
    ``kmeans_capped`` counts the fits that KMEANS_MAX_ITERS stopped. Settings
    outside their domain raise ConfigurationError before any work. The test
    set is encoded once: each iteration's clean codes, and sigma-prime, read
    those rows.
    """
    check_cluster_settings(iterations, n, k, len(test))
    codes = encode_rows(net, test.images)
    clean_scores, noisy_scores, capped = [], [], 0
    for it in range(iterations):
        rng = derive_rng(seed, "cluster-eval", it)
        rows = sample_subset(test, n, rng)
        labels = test.labels[rows]
        km = kmeans(codes[rows], k, rng)
        clean_scores.append(rand_index(km.assignments, labels, k))
        capped += not km.converged
        if noise is not None and noise.kind != "none":
            km = kmeans(encode_rows(net, test.images[rows], noise, rng), k, rng)
            noisy_scores.append(rand_index(km.assignments, labels, k))
            capped += not km.converged
    return EvalReport(
        model=model_tag,
        rand_clean=float(np.mean(clean_scores)),
        rand_noisy=float(np.mean(noisy_scores)) if noisy_scores else None,
        sigma_prime=sigma_prime(net, test.images, codes) if net.sigmoid_code else None,
        iterations=iterations,
        seeds=[seed],
        kmeans_capped=capped,
    )


def export_codes(net: nn.Network, ds: Dataset, path) -> None:
    """CSV of one row per sample: label then the hidden coordinates, written
    with 12 significant digits."""
    codes = encode_rows(net, ds.images)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["label"] + [f"z{i}" for i in range(codes.shape[1])])
        for label, row in zip(ds.labels, codes):
            writer.writerow([int(label)] + [f"{v:.12g}" for v in row])


def report_to_json(report: EvalReport, path, resolved_config=None) -> None:
    """JSON report; pass the resolved config text to embed it for provenance."""
    payload = report.to_dict()
    if resolved_config is not None:
        payload["resolved_config"] = resolved_config
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def robustness_to_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "noise_kind", "level", "mean_l2"])
        for row in report.robustness:
            writer.writerow([report.model, row.noise.kind,
                             f"{row.noise.level:g}", f"{row.mean_l2:.12g}"])


def cluster_to_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "rand_clean", "rand_noisy", "sigma_prime", "iterations"])
        writer.writerow([
            report.model,
            "" if report.rand_clean is None else f"{report.rand_clean:.12g}",
            "" if report.rand_noisy is None else f"{report.rand_noisy:.12g}",
            "" if report.sigma_prime is None else f"{report.sigma_prime:.12g}",
            report.iterations,
        ])
