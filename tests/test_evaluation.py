import collections
import csv
import itertools

import numpy as np
import pytest

from scipy.spatial.distance import cdist

from imae import data, evaluation, nn
from imae.data import Dataset, NoiseSpec, corrupt, pixel_rows
from imae.errors import ConfigurationError
from imae.evaluation import (check_cluster_settings, cluster_eval, encode_rows, export_codes,
                             kmeans, rand_index, robustness_sweep, sigma_prime)
from imae.ndcore import ROW_BLOCK, derive_rng, row_blocks
from imae.objectives import reconstruction_l2, sigmoid
from imae.reference import GAUSSIAN_GRID, MASK_GRID


def brute_force_rand(assignments, labels, k):
    """Maximum matching fraction over every one-to-one cluster-to-label map."""
    best = 0
    for perm in itertools.permutations(range(k)):
        matched = sum(1 for c, l in zip(assignments, labels) if perm[c] == l)
        best = max(best, matched)
    return best / len(assignments)


def greedy_row_max(assignments, labels, k):
    contingency = np.zeros((k, k), dtype=int)
    np.add.at(contingency, (np.asarray(assignments), np.asarray(labels)), 1)
    used = set()
    matched = 0
    for i in range(k):
        order = np.argsort(-contingency[i])
        for j in order:
            if j not in used:
                used.add(int(j))
                matched += contingency[i, j]
                break
    return matched / len(assignments)


def kmeans_add_at(codes, k, rng, max_iters=300):
    """The Lloyd loop with scatter-add centroid sums (np.add.at) and every
    centroid and distance recomputed on each iteration, kept as the reference
    that kmeans must reproduce bit for bit. Also reports the iterations that
    re-seeded an empty cluster, and whether the loop converged. It stops,
    converged, when a cluster is empty and every point sits on its centroid."""
    n = len(codes)
    centroids = np.empty((k, codes.shape[1]))
    centroids[0] = codes[int(rng.integers(n))]
    closest = ((codes - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        idx = int(rng.choice(n, p=closest / total)) if total > 0 else int(rng.integers(n))
        centroids[j] = codes[idx]
        closest = np.minimum(closest, ((codes - centroids[j]) ** 2).sum(axis=1))
    d2 = cdist(codes, centroids, "sqeuclidean")
    assign = d2.argmin(axis=1)
    history, n_iter, reseeded = [], 0, []
    for _ in range(max_iters):
        n_iter += 1
        counts = np.bincount(assign, minlength=k)
        if not counts.all() and not d2[np.arange(n), assign].any():
            history.append(0.0)
            return assign, centroids, n_iter, history, reseeded, True
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, codes)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            reseeded.append(n_iter)
            point_cost = d2[np.arange(n), assign].copy()
            for c in np.flatnonzero(~nonempty):
                far = int(point_cost.argmax())
                centroids[c] = codes[far]
                point_cost[far] = -1.0
        d2 = cdist(codes, centroids, "sqeuclidean")
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            return assign, centroids, n_iter, history, reseeded, True
        assign = new_assign
    return assign, centroids, n_iter, history, reseeded, False


def assert_same_as_add_at(codes, k, seed):
    """Assert kmeans equals the reference; return the reference's re-seeding
    iterations and its iteration count."""
    assign, centroids, n_iter, history, reseeded, converged = kmeans_add_at(
        codes, k, derive_rng(seed))
    result = kmeans(codes, k, derive_rng(seed))
    assert np.array_equal(result.assignments, assign)
    assert np.array_equal(result.centroids, centroids)
    assert result.n_iter == n_iter
    assert result.inertia == history[-1]
    assert result.converged == converged
    return reseeded, n_iter


def identity_net(d):
    net = nn.init_params(nn.Arch(d, ((d, "identity"),), 0), derive_rng(1))
    net.layers[0].weights[:] = np.eye(d)
    net.layers[0].bias[:] = 0.0
    return net


class TestKmeans:
    def test_k_equals_n_zero_inertia(self, rng):
        codes = rng.standard_normal((8, 3))
        result = kmeans(codes, 8, derive_rng(2))
        assert result.inertia == 0.0

    def test_two_blobs_recovered(self):
        rng = derive_rng(3)
        a = rng.standard_normal((40, 2)) * 0.1 + [0, 0]
        b = rng.standard_normal((40, 2)) * 0.1 + [10, 10]
        codes = np.vstack([a, b])
        result = kmeans(codes, 2, derive_rng(4))
        first, second = result.assignments[:40], result.assignments[40:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_inertia_non_increasing(self, rng):
        # the reference loop records the inertia of every Lloyd iteration;
        # kmeans reproduces that loop (assert_same_as_add_at), so its final
        # inertia ends a history that never increases
        codes = rng.standard_normal((200, 5))
        _, _, n_iter, hist, _, _ = kmeans_add_at(codes, 7, derive_rng(5))
        assert n_iter > 2
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
        assert_same_as_add_at(codes, 7, seed=5)

    def test_deterministic_for_fixed_seed(self, rng):
        codes = rng.standard_normal((100, 4))
        r1 = kmeans(codes, 5, derive_rng(6))
        r2 = kmeans(codes, 5, derive_rng(6))
        assert np.array_equal(r1.assignments, r2.assignments)
        assert np.array_equal(r1.centroids, r2.centroids)

    def test_points_assigned_to_nearest_centroid(self, rng):
        codes = rng.standard_normal((120, 3))
        result = kmeans(codes, 6, derive_rng(7))
        d2 = ((codes[:, None, :] - result.centroids[None]) ** 2).sum(-1)
        assert np.array_equal(result.assignments, d2.argmin(axis=1))

    def test_matches_add_at_reference_at_eval_shape(self):
        # 1000 codes of 200 units: the cluster protocol's subset and the
        # shallow200 latent width
        rng = derive_rng(11)
        centers = rng.random((10, 200))
        codes = centers[rng.integers(10, size=1000)] + 0.3 * rng.random((1000, 200))
        assert_same_as_add_at(codes, 10, seed=12)

    @pytest.mark.parametrize("width", [1, 10])
    def test_matches_add_at_reference_narrow_codes(self, width):
        # one column is summed by accumulate, ten by a row reduction
        codes = derive_rng(13).standard_normal((400, width)) * 10.0 ** np.arange(width)
        assert_same_as_add_at(codes, 10, seed=14)

    def test_matches_add_at_reference_with_empty_cluster(self):
        # three distinct points, five clusters: seeding runs out of distance
        # mass, duplicates a centroid and leaves a cluster empty. Every point
        # then sits on a centroid, so no re-seed can lower the inertia and
        # the first iteration stops, converged
        base = derive_rng(15).random((3, 200))
        codes = base[np.arange(60) % 3]
        reseeded, n_iter = assert_same_as_add_at(codes, 5, seed=16)
        result = kmeans(codes, 5, derive_rng(16))
        assert (reseeded, n_iter, result.converged, result.inertia) == ([], 1, True, 0.0)

    def test_matches_add_at_reference_with_a_later_reseed(self):
        # three blobs in the plane, one of them tight, and nine clusters:
        # seeding puts two centroids in the tight blob, and after the first
        # Lloyd iteration one of them loses every member and is re-seeded
        centers = np.array([[1.0, 4.0], [-10.0, -9.5], [-4.4, -4.0]])
        scales = np.array([1.4, 2.1, 0.07])
        label = np.repeat(np.arange(3), [30, 22, 39])
        noise = derive_rng(2001, "blobs").standard_normal((91, 2))
        codes = centers[label] + scales[label, None] * noise
        reseeded, n_iter = assert_same_as_add_at(codes, 9, seed=2001)
        assert reseeded and reseeded[0] > 1
        assert n_iter < evaluation.KMEANS_MAX_ITERS

    def test_matches_add_at_reference_on_saturated_codes(self):
        # sigmoid codes at the eval shape with most entries near 0 or 1, as
        # the preset shallow200 AE gives: clusters keep changing members for
        # many iterations
        rng = derive_rng(17)
        z = 10 * rng.standard_normal((10, 200))[rng.integers(10, size=1000)]
        codes = sigmoid(z + 80 * rng.standard_normal((1000, 200)))
        assert ((codes < 0.01) | (codes > 0.99)).mean() > 0.9
        _, n_iter = assert_same_as_add_at(codes, 10, seed=18)
        assert n_iter > 10

    def test_recomputes_only_stale_distance_rows(self, rng, monkeypatch):
        # seeding and the first iteration measure every centroid; later
        # iterations only those of clusters whose members changed
        import scipy.spatial.distance

        rows = []

        def counted(a, b, metric):
            rows.append(len(a))
            return cdist(a, b, metric)

        codes = rng.standard_normal((600, 8))
        monkeypatch.setattr(scipy.spatial.distance, "cdist", counted)
        result = kmeans(codes, 10, derive_rng(19))
        assert len(rows) == result.n_iter + 1 > 2
        assert rows[0] == 10
        assert sum(rows[1:]) < 10 * (len(rows) - 1)

    def test_bad_k(self, rng):
        codes = rng.standard_normal((5, 2))
        with pytest.raises(ValueError):
            kmeans(codes, 0, derive_rng(1))
        with pytest.raises(ValueError):
            kmeans(codes, 6, derive_rng(1))


class TestRandIndex:
    def test_permuted_labels_score_one(self, rng):
        labels = rng.integers(0, 6, size=40)
        perm = rng.permutation(6)
        assert rand_index(perm[labels], labels, 6) == 1.0

    def test_single_cluster_balanced(self):
        labels = np.repeat(np.arange(10), 10)
        assignments = np.zeros(100, dtype=int)
        assert rand_index(assignments, labels, 10) == 0.1

    def test_matches_brute_force_enumeration(self):
        rng = derive_rng(8)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(5, 51))
            assignments = rng.integers(0, k, size=n)
            labels = rng.integers(0, k, size=n)
            assert rand_index(assignments, labels, k) == brute_force_rand(
                assignments, labels, k)

    def test_relabeling_invariance(self, rng):
        k = 5
        assignments = rng.integers(0, k, size=60)
        labels = rng.integers(0, k, size=60)
        base = rand_index(assignments, labels, k)
        perm = rng.permutation(k)
        assert rand_index(perm[assignments], labels, k) == base

    def test_self_is_one(self, rng):
        x = rng.integers(0, 4, size=30)
        assert rand_index(x, x, 4) == 1.0

    def test_beats_greedy(self):
        rng = derive_rng(9)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(10, 80))
            assignments = rng.integers(0, k, size=n)
            labels = rng.integers(0, k, size=n)
            assert rand_index(assignments, labels, k) >= greedy_row_max(
                assignments, labels, k)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rand_index([0, 1], [0, 1, 2], 3)

    def test_values_out_of_range(self):
        with pytest.raises(ValueError):
            rand_index([0, 5], [0, 1], 3)


class TestSigmaPrime:
    def test_zero_weight_net(self):
        net = nn.init_params(nn.shallow_arch(6, 10), derive_rng(1))
        for arr in net.param_items().values():
            arr[:] = 0.0
        assert sigma_prime(net, np.ones((4, 10))) == 0.25

    def test_saturating_net(self, rng):
        net = nn.init_params(nn.shallow_arch(6, 10), derive_rng(2))
        net.layers[0].weights *= 1e4
        assert sigma_prime(net, rng.random((4, 10)) + 0.5) < 1e-6

    def test_requires_sigmoid_latent(self, rng):
        vae_net = nn.init_params(nn.shallow_arch(3, 5), derive_rng(1), vae=True)
        with pytest.raises(ConfigurationError):
            sigma_prime(vae_net, rng.random((2, 5)))
        ident = identity_net(4)
        with pytest.raises(ConfigurationError):
            sigma_prime(ident, rng.random((2, 4)))


class TestRobustnessSweep:
    def test_identity_net_clean_is_zero(self, digits_test):
        net = identity_net(digits_test.images.shape[1])
        rows = robustness_sweep(net, digits_test, [NoiseSpec("none")], derive_rng(1))
        assert rows[0].mean_l2 == 0.0

    def test_identity_net_mask_expectation(self, digits_test):
        net = identity_net(digits_test.images.shape[1])
        p = 0.3
        rows = robustness_sweep(net, digits_test, [NoiseSpec("mask", p)], derive_rng(2))
        expected = p * (digits_test.images ** 2).sum(axis=1).mean()
        assert rows[0].mean_l2 == pytest.approx(expected, rel=0.02)

    def test_none_equals_plain_test_loss(self, digits_test, rng):
        net = nn.init_params(nn.shallow_arch(12, digits_test.images.shape[1]), derive_rng(3))
        rows = robustness_sweep(net, digits_test, [NoiseSpec("none")], derive_rng(4))
        trace = nn.forward(net, digits_test.images)
        assert rows[0].mean_l2 == reconstruction_l2(trace.xhat - digits_test.images).mean()


def input_maps(net):
    """The linear maps that read a network's input: layer 0, or the two
    Gaussian heads of a network whose code is layer 0."""
    return net.vae_heads if net.vae_heads and net.latent_index == 0 else net.layers[:1]


def one_shot_sweep(net, test, specs, rng):
    """The sweep with the plain formulas: one uniform draw u shared by every
    mask level and one standard-normal draw z shared by every Gaussian level;
    mask p feeds x * (u < 1 - p) forward, and Gaussian s enters as the
    pre-activation P + s * Q of the maps that read the input, with
    P = x W^T + b and Q = z W^T.

    The draws follow the sweep's rule, row block by row block: the block's u
    if a spec masks, then its z if a spec adds Gaussian noise. For a
    deterministic network they are joined into whole-set draws and each spec
    runs as one full-batch pass. Gaussian-latent networks draw their latent
    samples from the same generator, per spec, after the block's draws, so
    for them the reference keeps that order, one block at a time.
    """
    vae = net.vae_heads is not None
    kinds = {spec.kind for spec in specs}
    x = pixel_rows(test.images)

    def draw(part):
        shape = x[part].shape
        return (rng.random(shape) if "mask" in kinds else None,
                rng.standard_normal(shape) if "gaussian" in kinds else None)

    def run(xs, spec, u, z):
        if spec.kind == "mask":
            return nn.forward(net, xs * (u < 1.0 - spec.level), rng=rng).xhat
        pre = [xs @ m.weights.T + m.bias for m in input_maps(net)]
        if spec.kind == "gaussian":
            pre = [p + spec.level * (z @ m.weights.T) for p, m in zip(pre, input_maps(net))]
        return nn.forward(net, xs, rng=rng, pre=pre).xhat

    diffs = [[] for _ in specs]
    if vae:
        for part in row_blocks(len(test)):
            u, z = draw(part)
            for spec, d in zip(specs, diffs):
                d.append(x[part] - run(x[part], spec, u, z))
    else:
        drawn = [draw(part) for part in row_blocks(len(test))]
        u, z = (None if col[0] is None else np.concatenate(col) for col in zip(*drawn))
        for spec, d in zip(specs, diffs):
            d.append(x - run(x, spec, u, z))
    values = []
    for d in diffs:
        diff = np.concatenate(d)
        values.append(float(np.einsum("ij,ij->i", diff, diff).mean()))
    return values


TABLE1_GRID = ([NoiseSpec("none")] + [NoiseSpec("mask", p) for p in MASK_GRID]
               + [NoiseSpec("gaussian", s) for s in GAUSSIAN_GRID])


@pytest.fixture(scope="module")
def odd_test_set():
    # 784 pixels as in the presets; 2345 rows is not a multiple of the block
    rng = derive_rng(21)
    n = 2 * ROW_BLOCK + 345
    return Dataset(rng.random((n, 784)), rng.integers(10, size=n))


class TestChunkedSweep:
    SPECS = [NoiseSpec("none"), NoiseSpec("mask", 0.0), NoiseSpec("mask", 0.3),
             NoiseSpec("gaussian", 0.2), NoiseSpec("mask", 0.75), NoiseSpec("gaussian", 0.45)]

    @pytest.mark.parametrize("vae,tied", [(False, True), (True, False)])
    def test_equals_one_shot_sweep(self, odd_test_set, vae, tied):
        net = nn.init_params(nn.shallow_arch(200), derive_rng(22), vae=vae, tied=tied)
        rng_chunked, rng_one_shot = derive_rng(23), derive_rng(23)
        rows = robustness_sweep(net, odd_test_set, self.SPECS, rng_chunked)
        expected = one_shot_sweep(net, odd_test_set, self.SPECS, rng_one_shot)
        assert [r.mean_l2 for r in rows] == expected
        assert rng_chunked.bit_generator.state == rng_one_shot.bit_generator.state


def input_space_sweep(net, test, specs, rng):
    """Each level's mean L2 with every corrupted input formed in pixel space
    (``apply_noise``) and run forward from the pixels, on the sweep's draws."""
    dist = [[] for _ in specs]
    for block in row_blocks(len(test)):
        x = pixel_rows(test.images, block)
        draws = data.draw_noise(specs, x.shape, rng)
        for spec, d in zip(specs, dist):
            xin = data.apply_noise(x, spec, draws, np.empty_like(x))
            d.append(reconstruction_l2(nn.forward(net, xin, rng=rng).xhat - x))
    return [float(np.concatenate(d).mean()) for d in dist]


# the networks whose first linear maps the sweep reads, at the preset shapes
PRESET_NETS = {
    "shallow200-AE-tied": lambda rng: nn.init_params(nn.shallow_arch(200), rng, tied=True),
    "deep10-IMAE-untied": lambda rng: nn.init_params(nn.deep_arch(10), rng),
    "deep10-VAE": lambda rng: nn.init_params(nn.deep_arch(10), rng, vae=True),
    "shallow200-VAE-heads-read-input": lambda rng: nn.init_params(nn.shallow_arch(200), rng,
                                                                  vae=True),
}


class TestSweepFromInputProducts:
    """The sweep forms each level's first pre-activations from the block's
    products P = x W^T + b and Q = z W^T instead of from corrupted pixels."""

    @pytest.fixture(scope="class", params=list(PRESET_NETS))
    def net(self, request):
        net = PRESET_NETS[request.param](derive_rng(24))
        rng = derive_rng(27)
        for layer in net.layers + list(net.vae_heads or ()):  # so a dropped bias shows
            layer.bias[:] = rng.normal(0.0, 0.1, layer.bias.shape)
        return net

    def test_agrees_with_the_input_space_sweep(self, net, odd_test_set):
        rng, rng_input_space = derive_rng(25), derive_rng(25)
        specs = TestChunkedSweep.SPECS  # two levels of each kind, and both clean ones
        rows = robustness_sweep(net, odd_test_set, specs, rng)
        expected = input_space_sweep(net, odd_test_set, specs, rng_input_space)
        assert rng.bit_generator.state == rng_input_space.bit_generator.state
        for row, value in zip(rows, expected):
            if row.noise.kind == "gaussian":
                assert row.mean_l2 == pytest.approx(value, rel=1e-12, abs=0)
            else:
                assert row.mean_l2 == value, row.noise.describe()

    def test_forward_from_the_batch_products_is_forward(self, net, odd_test_set):
        x = pixel_rows(odd_test_set.images, slice(0, ROW_BLOCK))
        products = nn.input_products(net, x)
        assert len(products) == len(input_maps(net))
        given = nn.forward(net, x, rng=derive_rng(26), pre=products)
        plain = nn.forward(net, x, rng=derive_rng(26))
        for name in ("x", "latent_pre", "mu", "logvar", "eps", "std", "z"):
            a, b = getattr(given, name), getattr(plain, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        assert [a.tobytes() for a in given.act] == [a.tobytes() for a in plain.act]


class TestSharedDraws:
    @staticmethod
    def forward_inputs(monkeypatch):
        """Copies of every input the sweep runs forward (its buffer is reused)."""
        seen, real = [], nn.forward

        def recording(net, batch, rng=None, eps=None, pre=None):
            seen.append(np.array(batch))
            return real(net, batch, rng=rng, eps=eps, pre=pre)

        monkeypatch.setattr(nn, "forward", recording)
        return seen

    def test_masks_nest_across_levels(self, monkeypatch):
        x = derive_rng(30).random((600, 784)) + 0.01  # one block, no zero pixel
        test = Dataset(x / x.max(), np.zeros(600, dtype=int))
        net = nn.init_params(nn.shallow_arch(12, 784), derive_rng(31))
        specs = [NoiseSpec("mask", p) for p in MASK_GRID]
        seen = self.forward_inputs(monkeypatch)
        robustness_sweep(net, test, specs, derive_rng(32))
        u = derive_rng(32).random(x.shape)
        zeroed = [inputs == 0.0 for inputs in seen]
        for spec, inputs in zip(specs, seen):
            assert np.array_equal(inputs, test.images * (u < 1.0 - spec.level))
        assert not zeroed[0].any()
        for lower, higher in zip(zeroed, zeroed[1:]):
            assert not (lower & ~higher).any() and higher.sum() > lower.sum()

    def test_clean_rows_equal_clean_error(self, digits_test):
        # perfbench's check_robustness compares the mask-0 row with the clean error
        net = nn.init_params(nn.shallow_arch(12, digits_test.images.shape[1]), derive_rng(3))
        rows = robustness_sweep(net, digits_test, TABLE1_GRID, derive_rng(4))
        trace = nn.forward(net, digits_test.images)
        clean = reconstruction_l2(trace.xhat - digits_test.images).mean()
        assert (rows[0].noise.kind, rows[1].noise.level) == ("none", 0.0)
        assert rows[0].mean_l2 == rows[1].mean_l2 == clean

    @pytest.mark.parametrize("kind, levels, draw", [
        ("mask", MASK_GRID, lambda rng, shape: rng.random(shape)),
        ("gaussian", GAUSSIAN_GRID, lambda rng, shape: rng.standard_normal(shape)),
    ], ids=["mask", "gaussian"])
    def test_one_kind_draws_only_its_own_block(self, digits_test, kind, levels, draw):
        net = nn.init_params(nn.shallow_arch(12, digits_test.images.shape[1]), derive_rng(3))
        rng, expected = derive_rng(5), derive_rng(5)
        robustness_sweep(net, digits_test, [NoiseSpec(kind, v) for v in levels], rng)
        for block in row_blocks(len(digits_test)):
            draw(expected, (block.stop - block.start, digits_test.images.shape[1]))
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_draws_and_corrupt_go_through_the_traced_names(self, digits_test, monkeypatch):
        # perfbench's tracer wraps these module attributes; a draw made under
        # another name would leave its span unfired
        calls = collections.Counter()
        for module, name in ((data, "gaussian"), (data, "bernoulli_mask"),
                             (evaluation, "corrupt")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        net = nn.init_params(nn.shallow_arch(12, digits_test.images.shape[1]), derive_rng(3))
        robustness_sweep(net, digits_test, TABLE1_GRID, derive_rng(4))
        n_blocks = len(row_blocks(len(digits_test)))
        assert n_blocks > 1
        assert calls == {"gaussian": n_blocks, "bernoulli_mask": n_blocks}
        calls.clear()
        cluster_eval(net, digits_test, iterations=2, n=200, k=10,
                     noise=NoiseSpec("gaussian", 0.2), seed=3)
        assert calls == {"corrupt": 2, "gaussian": 2}


class TestClusterEval:
    @pytest.mark.parametrize("settings, field", [
        ((0, 10, 10, 100), "iterations"), ((1, 10, 0, 100), "k"),
        ((1, 5, 10, 100), "n"), ((1, 101, 10, 100), "n"),
    ])
    def test_setting_error_names_its_field(self, settings, field):
        with pytest.raises(ConfigurationError) as info:
            check_cluster_settings(*settings)
        assert info.value.field == field
        assert isinstance(info.value, ValueError)

    def test_single_iteration_reproducible(self, digits_test):
        net = nn.init_params(nn.shallow_arch(12, digits_test.images.shape[1]), derive_rng(5))
        kwargs = dict(iterations=1, n=200, k=10, noise=NoiseSpec("gaussian", 0.2), seed=3)
        r1 = cluster_eval(net, digits_test, **kwargs)
        r2 = cluster_eval(net, digits_test, **kwargs)
        assert r1.rand_clean == r2.rand_clean
        assert r1.rand_noisy == r2.rand_noisy
        assert r1.sigma_prime == r2.sigma_prime

    def test_test_set_encoded_once(self, digits_test, monkeypatch):
        # the clean subsets and sigma-prime read one encoding of the test
        # set; only the noisy subsets are encoded again, each once
        net = nn.init_params(nn.shallow_arch(12, digits_test.images.shape[1]), derive_rng(5))
        kwargs = dict(iterations=3, n=200, k=10, noise=NoiseSpec("gaussian", 0.2), seed=3)
        sizes = []

        def counted(net, pixels, noise=None, rng=None):
            sizes.append((len(pixels), noise is not None))
            return encode_rows(net, pixels, noise, rng)

        with monkeypatch.context() as m:
            m.setattr(evaluation, "encode_rows", counted)
            report = cluster_eval(net, digits_test, **kwargs)
        assert sizes == [(len(digits_test), False)] + [(200, True)] * 3

        # the draws are those of encoding each clean subset on its own
        clean, noisy = [], []
        for it in range(3):
            rng = derive_rng(3, "cluster-eval", it)
            rows = rng.choice(len(digits_test), size=200, replace=False)
            x = pixel_rows(digits_test.images, rows)
            km = kmeans(nn.encode(net, x), 10, rng)
            clean.append(rand_index(km.assignments, digits_test.labels[rows], 10))
            km = kmeans(nn.encode(net, corrupt(x, kwargs["noise"], rng)), 10, rng)
            noisy.append(rand_index(km.assignments, digits_test.labels[rows], 10))
        assert report.rand_clean == np.mean(clean)
        assert report.rand_noisy == np.mean(noisy)
        assert report.sigma_prime == sigma_prime(net, digits_test.images)

    def test_counts_kmeans_runs_stopped_by_the_cap(self, digits_test, monkeypatch):
        net = nn.init_params(nn.shallow_arch(12, digits_test.images.shape[1]), derive_rng(5))
        kwargs = dict(iterations=2, n=200, k=10, noise=NoiseSpec("gaussian", 0.2), seed=3)
        report = cluster_eval(net, digits_test, **kwargs)
        assert report.kmeans_capped == 0
        # the first clean subset's codes need more than one Lloyd iteration
        rng = derive_rng(3, "cluster-eval", 0)
        rows = rng.choice(len(digits_test), size=200, replace=False)
        assert kmeans(encode_rows(net, digits_test.images[rows]), 10, rng).n_iter > 1

        monkeypatch.setattr(evaluation, "KMEANS_MAX_ITERS", 1)
        capped = cluster_eval(net, digits_test, **kwargs)
        assert capped.kmeans_capped == 4  # a clean and a noisy fit per iteration
        # the count stays out of report.json and the CSVs
        assert capped.to_dict().keys() == report.to_dict().keys()
        assert "kmeans_capped" not in capped.to_dict()

    def test_vae_report_has_no_sigma_prime(self, digits_test):
        net = nn.init_params(nn.shallow_arch(8, digits_test.images.shape[1]),
                             derive_rng(6), vae=True)
        report = cluster_eval(net, digits_test, iterations=1, n=150, k=10, seed=1)
        assert report.sigma_prime is None
        assert report.rand_noisy is None
        assert 0.0 <= report.rand_clean <= 1.0


class TestExportCodes:
    def test_csv_contract(self, tmp_path, digits_test):
        latent = 9
        net = nn.init_params(nn.shallow_arch(latent, digits_test.images.shape[1]),
                             derive_rng(7))
        path = tmp_path / "codes.csv"
        sub = Dataset(digits_test.images[:50], digits_test.labels[:50])
        export_codes(net, sub, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["label"] + [f"z{i}" for i in range(latent)]
        assert len(rows) == 51
        codes = nn.encode(net, sub.images)
        reimported = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(reimported, codes, rtol=0, atol=1e-9)
        assert [int(r[0]) for r in rows[1:]] == sub.labels.tolist()
