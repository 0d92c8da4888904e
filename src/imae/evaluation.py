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
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from . import nn, objectives
from .data import Dataset, NoiseSpec, corrupt, pixel_rows, sample_subset
from .errors import ConfigurationError
from .ndcore import as_matrix, derive_rng, row_blocks


@dataclass
class ClusterResult:
    assignments: np.ndarray  # cluster id per point, in [0,k)
    centroids: np.ndarray    # (k, d)
    inertia: float
    n_iter: int = 0
    inertia_history: list = field(default_factory=list)


def _cluster_sums(codes, assign, counts):
    """Sum of the codes in each cluster, adding its points in point order.

    Points are grouped by a stable sort, so each cluster's rows stay in
    point order. A reduction over the rows of a block adds them in row order
    only when the block has more than one column (a single column is summed
    pairwise); ``accumulate`` is sequential by definition.
    """
    grouped = codes[np.argsort(assign, kind="stable")]
    ends = np.cumsum(counts)
    sums = np.zeros((len(counts), codes.shape[1]))
    for c in np.flatnonzero(counts):
        block = grouped[ends[c] - counts[c]:ends[c]]
        sums[c] = block.sum(axis=0) if block.shape[1] > 1 else np.add.accumulate(block)[-1]
    return sums


def kmeans(codes, k, rng, max_iters=300) -> ClusterResult:
    """Lloyd iterations from k-means++ seeding until the assignment stops
    changing (or max_iters). Empty clusters are re-seeded to the point
    currently farthest from its centroid."""
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
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centroids[j] = codes[idx]
        closest = np.minimum(closest, ((codes - centroids[j]) ** 2).sum(axis=1))

    d2 = cdist(codes, centroids, "sqeuclidean")
    assign = d2.argmin(axis=1)
    history = []
    n_iter = 0
    for _ in range(max_iters):
        n_iter += 1
        counts = np.bincount(assign, minlength=k)
        sums = _cluster_sums(codes, assign, counts)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            point_cost = d2[np.arange(n), assign].copy()
            for c in np.flatnonzero(~nonempty):
                far = int(point_cost.argmax())
                centroids[c] = codes[far]
                point_cost[far] = -1.0
        d2 = cdist(codes, centroids, "sqeuclidean")
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(d2[np.arange(n), assign].sum())
    return ClusterResult(assign, centroids, inertia, n_iter, history)


def rand_index(assignments, labels, k) -> float:
    """Best-case matching accuracy between cluster ids and labels.

    Maximum over one-to-one cluster-to-label maps of the fraction of points
    whose mapped cluster equals their label; the maximum is found exactly via
    linear assignment on the k x k contingency table.
    """
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


def sigma_prime(net: nn.Network, data) -> float:
    """Mean derivative of the sigmoid latent over all samples and units of a
    pixel matrix."""
    if not net.sigmoid_code:
        raise ConfigurationError("sigma_prime needs a sigmoid latent layer")
    y = encode_rows(net, data)
    return float((y * (1.0 - y)).mean())


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
    corruption spec (inputs corrupted once per spec from ``rng``).

    Each row block of the test set is read, corrupted and run forward on its
    own, and only its per-image distances are kept, so memory holds one
    block's working set plus one distance per image. The corruption draws of
    the blocks, in row order, are those of one full-size draw. Gaussian-latent
    networks draw their latent samples from the same ``rng``, after each
    block's corruption.
    """
    sample_rng = rng if net.vae_heads is not None else None
    dist = np.empty(len(test))
    rows = []
    for spec in specs:
        for block in row_blocks(len(test)):
            x = pixel_rows(test.images, block)
            xhat = nn.forward(net, corrupt(x, spec, rng), rng=sample_rng).xhat
            dist[block] = objectives.reconstruction_l2(np.subtract(xhat, x, out=xhat))
        rows.append(RobustnessRow(spec, float(dist.mean())))
    return rows


def cluster_eval(net: nn.Network, test: Dataset, iterations=50, n=1000, k=10,
                 noise: NoiseSpec = None, seed=0, model_tag="",
                 kmeans_max_iters=300) -> EvalReport:
    """Repeated subset/K-means protocol.

    Each iteration resamples ``n`` test points and reseeds K-means; the noisy
    score corrupts the sampled inputs before encoding and refits K-means on
    the resulting codes. Reported values are means over iterations. Settings
    outside their domain raise ConfigurationError before any work.
    """
    for setting, value, low in (("iterations", iterations, 1), ("k", k, 1), ("n", n, k)):
        if value < low:
            raise ConfigurationError(
                f"cluster protocol: {setting} must be >= {low}, got {value}")
    if n > len(test):
        raise ConfigurationError(
            f"cluster protocol: n must be <= the {len(test)} test images, got {n}")
    clean_scores, noisy_scores = [], []
    for it in range(iterations):
        rng = derive_rng(seed, "cluster-eval", it)
        sub = sample_subset(test, n, rng)
        km = kmeans(encode_rows(net, sub.images), k, rng, kmeans_max_iters)
        clean_scores.append(rand_index(km.assignments, sub.labels, k))
        if noise is not None and noise.kind != "none":
            km_n = kmeans(encode_rows(net, sub.images, noise, rng), k, rng, kmeans_max_iters)
            noisy_scores.append(rand_index(km_n.assignments, sub.labels, k))
    return EvalReport(
        model=model_tag,
        rand_clean=float(np.mean(clean_scores)),
        rand_noisy=float(np.mean(noisy_scores)) if noisy_scores else None,
        sigma_prime=sigma_prime(net, test.images) if net.sigmoid_code else None,
        iterations=iterations,
        seeds=[seed],
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
