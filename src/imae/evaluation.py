"""Evaluation protocols: noise-robust reconstruction and clusterization.

Clusterization runs K-means on the hidden codes and scores the clusters
against ground-truth labels with a matching accuracy: the best fraction of
agreeing points over all one-to-one cluster-to-label maps (solved exactly as
a linear assignment on the contingency table).
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import nn, objectives
from .data import (Dataset, NoiseSpec, apply_noise, corrupt, draw_noise, pixel_rows,
                   sample_subset, write_csv)
from .errors import ConfigurationError, NumericalFailure, check_range
from .ndcore import as_matrix, derive_rng, row_blocks

KMEANS_MAX_ITERS = 300  # Lloyd iterations before K-means stops unconverged


@dataclass
class ClusterResult:
    assignments: np.ndarray  # cluster id per point, in [0,k)
    centroids: np.ndarray    # (k, d)
    inertia: float
    n_iter: int = 0
    converged: bool = True   # False when KMEANS_MAX_ITERS stopped the Lloyd loop


@np.errstate(over="ignore", invalid="ignore")  # non-finite seeding weights are the report
def kmeans(codes, k, rng) -> ClusterResult:
    """Lloyd iterations from k-means++ seeding until the assignment stops
    changing (or KMEANS_MAX_ITERS). Empty clusters are re-seeded to the point
    currently farthest from its centroid. When a cluster is empty and every
    point already sits on its centroid, the codes have fewer distinct points
    than k, no re-seed can lower the inertia, and the fit stops converged.
    A step that moves points but lowers no inertia only trades rounding (on
    near-duplicate codes), so the fit stops converged at the state before it.
    Codes whose squared distances overflow (a diverged network's) make the
    k-means++ weights non-finite, which raises NumericalFailure.

    Seeding measures each centroid's distance row as it draws it, and the first
    assignment reads those rows. Each iteration then recomputes only the stale
    clusters, those whose member set changed since their centroid was set (at
    first, all): an unchanged set has the same sum, so the same centroid and
    distance row. A centroid sums its members in point order: a block's row
    reduction adds them in row order only with more than one column (one column
    is summed pairwise), and ``accumulate`` is sequential by definition.
    """
    # imported on first use: with scipy.linalg, ~0.15 s and 10 MB that only clustering needs
    from scipy.spatial.distance import cdist

    codes = as_matrix(codes)
    n = len(codes)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")

    d2 = np.empty((k, n))  # one row per centroid, measured as it is drawn
    drawn = [rng.integers(n)]
    for j in range(k):
        d2[j] = cdist(codes[drawn[-1:]], codes, "sqeuclidean")
        if j + 1 < k:  # k-means++: draw the next by each point's squared distance so far
            closest = d2[:j + 1].min(axis=0)
            total = closest.sum()
            if not math.isfinite(total):
                raise NumericalFailure(f"k-means++ seeding weights are not finite: the codes' "
                                       f"squared distances sum to {total}")
            drawn.append(rng.choice(n, p=closest / total) if total > 0 else rng.integers(n))
    centroids = codes[drawn]
    assign = d2.argmin(axis=0)
    rows = np.arange(n)
    inertia = float(d2[assign, rows].sum())
    stale = np.ones(k, dtype=bool)
    for n_iter in range(1, KMEANS_MAX_ITERS + 1):
        before = assign, centroids.copy(), inertia
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            point_cost = d2[assign, rows]
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
        inertia = float(d2[new_assign, rows].sum())
        if moved.any() and inertia >= before[2]:  # rounding only: the state before stands
            return ClusterResult(*before, n_iter)
        stale[:] = False
        stale[assign[moved]] = stale[new_assign[moved]] = True
        assign = new_assign
        if not moved.any():
            break
    return ClusterResult(assign, centroids, inertia, n_iter, converged=not moved.any())


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite code is the report
def encode_rows(net: nn.Network, pixels, noise: NoiseSpec = None, rng=None) -> np.ndarray:
    """Codes of every row of a pixel matrix (uint8 or float, see
    ``pixel_rows``), encoded one row block at a time into one code matrix.
    With ``noise``, each block is corrupted from ``rng`` before encoding;
    drawn block by block in row order, these are the draws of one full-size
    corruption. A code that is not finite raises NumericalFailure."""
    codes = None
    for block in row_blocks(len(pixels)):
        x = pixel_rows(pixels, block)
        if noise is not None:
            x = corrupt(x, noise, rng)
        c = nn.encode(net, x)
        if codes is None:
            codes = np.empty((len(pixels), c.shape[1]))
        codes[block] = c
    if not np.isfinite(codes).all():
        raise NumericalFailure(f"a code is not finite: {codes[~np.isfinite(codes)][0]}")
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
    """The mean reconstruction L2 at one corruption level, which must be finite."""
    kind: str
    level: float
    mean_l2: float

    def __post_init__(self):
        if not math.isfinite(self.mean_l2):
            raise NumericalFailure(f"mean L2 at {self.kind} {self.level:g} is {self.mean_l2}")


@dataclass
class RobustnessReport:  # report.json holds a report's fields
    model: str
    seeds: list
    robustness: list  # RobustnessRow per corruption level


@dataclass
class ClusterReport:
    model: str
    seeds: list
    iterations: int
    rand_clean: float
    rand_noisy: float     # None without a noisy pass
    sigma_prime: float    # None without a sigmoid code
    kmeans_capped: int    # K-means fits stopped unconverged by KMEANS_MAX_ITERS


def robustness_sweep(net: nn.Network, test: Dataset, specs, rng) -> list:
    """Mean per-image reconstruction L2 against clean originals, one
    RobustnessRow per corruption spec, in the order of ``specs``; a
    non-finite mean raises NumericalFailure.

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
    forms one more. The output layer is linear too: when it is identity and
    narrower in than out, no level forms its reconstruction, and each reads
    its distances from that layer's Gram matrix (``objectives.GramL2``),
    equal to the reconstruction's within 1e-12 relative. Memory holds x, u,
    z, the buffer, P, Q, the Gram target, one forward pass and a distance per
    image and spec. Gaussian-latent networks draw their
    latent samples from ``rng``, per spec, after the block's draws. A
    diverged network's overflow and NaN raise no numpy warning: the
    RobustnessRow of its non-finite mean is the one report."""
    specs = list(specs)
    dist = np.empty((len(specs), len(test)))
    blocks = row_blocks(len(test))
    buf = np.empty((max(b.stop - b.start for b in blocks), test.images.shape[1]))
    last = len(net.layers) - 1
    out = net.layers[last]
    narrow = out.activation == "identity" and out.weights.shape[1] < out.weights.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is the report
        gram = objectives.GramL2(out.weights, out.bias) if narrow else None
        for block in blocks:
            # the last block's P, Q, Gram target and pass go; each is formed when first read
            clean = noise = pre = target = trace = None
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
                if gram is None:
                    xhat = nn.forward(net, xin, rng=rng, pre=pre).xhat
                    row[block] = objectives.reconstruction_l2(np.subtract(xhat, x, out=xhat))
                else:  # from the output layer's input
                    trace = nn.forward(net, xin, rng=rng, pre=pre, output_layer=False)
                    target = target or gram.target(x)
                    row[block] = gram(trace.layer_input(last), target)
        return [RobustnessRow(s.kind, s.level, float(d.mean())) for s, d in zip(specs, dist)]


def check_cluster_settings(iterations, n, k, labels) -> None:
    """Raise ConfigurationError, its field the setting at fault, unless the
    cluster protocol can run ``iterations`` times on ``n`` of the test images
    labelled ``labels`` with ``k`` clusters, more than the largest label (the
    Rand index matches each cluster to a label)."""
    for setting, value, low in (("iterations", iterations, 1), ("k", k, 1), ("n", n, k)):
        check_range(setting, value, low)
    top = int(np.max(labels, initial=0))
    check_range("k", k, top + 1, rule=f"k must exceed the largest test label, {top}")
    check_range("n", n, k, len(labels), rule=f"n must be <= the {len(labels)} test images")


def cluster_eval(net: nn.Network, test: Dataset, iterations=50, n=1000, k=10,
                 noise: NoiseSpec = None, seed=0, model_tag="") -> ClusterReport:
    """Repeated subset/K-means protocol.

    Each iteration resamples ``n`` test points and reseeds K-means; the noisy
    score corrupts the sampled inputs before encoding and refits K-means on
    the resulting codes. Reported values are means over iterations;
    ``kmeans_capped`` counts the fits that KMEANS_MAX_ITERS stopped. Settings
    outside their domain raise ConfigurationError before any work. The test
    set is encoded once: each iteration's clean codes, and sigma-prime, read
    those rows.
    """
    check_cluster_settings(iterations, n, k, test.labels)
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
    return ClusterReport(
        model=model_tag, seeds=[seed], iterations=iterations,
        rand_clean=float(np.mean(clean_scores)),
        rand_noisy=float(np.mean(noisy_scores)) if noisy_scores else None,
        sigma_prime=sigma_prime(net, test.images, codes) if net.sigmoid_code else None,
        kmeans_capped=capped)


def export_codes(net: nn.Network, ds: Dataset, path) -> None:
    """CSV of one row per sample: label then the hidden coordinates, written
    with 12 significant digits, each row formed as it is written."""
    codes = encode_rows(net, ds.images)
    write_csv(path, ["label"] + [f"z{i}" for i in range(codes.shape[1])],
              ([int(label)] + [f"{v:.12g}" for v in row] for label, row in zip(ds.labels, codes)))


def report_to_json(report, path, resolved_config) -> None:
    """JSON of a report's fields and, for provenance, the run's resolved config text."""
    with open(path, "w") as f:
        json.dump({**asdict(report), "resolved_config": resolved_config}, f,
                  indent=2, sort_keys=True)
        f.write("\n")


def robustness_to_csv(report: RobustnessReport, path) -> None:
    write_csv(path, ["model", "noise_kind", "level", "mean_l2"],
              ([report.model, row.kind, f"{row.level:g}", f"{row.mean_l2:.12g}"]
               for row in report.robustness))


def cluster_to_csv(report: ClusterReport, path) -> None:
    scores = (report.rand_clean, report.rand_noisy, report.sigma_prime)
    write_csv(path, ["model", "rand_clean", "rand_noisy", "sigma_prime", "iterations"],
              [[report.model, *("" if v is None else f"{v:.12g}" for v in scores),
                report.iterations]])
