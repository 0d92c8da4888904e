import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imae import config, nn, objectives
from imae.data import Dataset, NoiseSpec, batches, corrupt, make_synthetic_digits
from imae.errors import CheckpointFormatError, ConfigurationError, TrainingDiverged
from imae.ndcore import derive_rng
from imae.objectives import LossSpec
from imae.training import (CHECKPOINT_VERSION, EpochRecord, TrainConfig, build_network,
                           config_from_text, config_to_text, config_values, load_checkpoint,
                           save_checkpoint, train, write_history)


def tiny_config(loss=None, **kw):
    defaults = dict(arch=nn.shallow_arch(6, 16), loss=loss or LossSpec("AE"),
                    learning_rate=0.05, epochs=3, batch_size=10, seed=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


def block_key(name):
    """The config key, section included, of a checkpoint block line's key."""
    return next(key for key in config_values(tiny_config()) if key.partition(".")[2] == name)


def tiny_dataset(n=30, d=16, seed=1):
    rng = derive_rng(seed)
    return Dataset(rng.random((n, d)), rng.integers(0, 10, size=n))


class TestTrainConfig:
    def test_cae_on_deep_encoder_rejected(self):
        # the contractive penalty is exact only for a single-layer encoder
        with pytest.raises(ConfigurationError, match="single-layer encoder"):
            TrainConfig(arch=nn.deep_arch(10), loss=LossSpec("CAE"),
                        learning_rate=0.005, epochs=1, batch_size=500)

    @pytest.mark.parametrize("arch, loss, rule", [
        # no layer would be left to decode the sample
        (nn.Arch(((10, "identity"),), 0), "VAE",
         "VAE's Gaussian heads replace the code layer, so a decoder layer must follow it; "
         "got the code as the last layer of (10, 10)"),
        (nn.Arch(((784, "sigmoid"),), 0), "VAE",
         "VAE's Gaussian heads replace the code layer, so a decoder layer must follow it"),
        (nn.Arch(((10, "softplus"), (12, "sigmoid")), 1), "VAE",
         "VAE's Gaussian heads replace the code layer"),
    ], ids=["code-only", "heads-last", "trunk-then-heads-last"])
    def test_arch_must_reconstruct_its_input(self, arch, loss, rule):
        with pytest.raises(ConfigurationError, match="^" + re.escape(rule)) as info:
            tiny_config(arch=arch, loss=LossSpec(loss))
        assert info.value.field == "layers"

    @pytest.mark.parametrize("arch, loss, rule", [
        (nn.deep_arch(10), "VAE", "tied weights are not supported with Gaussian-latent heads"),
        # palindromic widths (16, 6, 6, 16), but the middle layer would mirror itself
        (nn.Arch(((6, "sigmoid"), (6, "softplus"), (16, "identity")), 0), "AE",
         "tied weights need a mirror image: an even layer count and palindromic widths"),
        (nn.Arch(((6, "sigmoid"), (7, "softplus"), (8, "softplus"), (16, "identity")), 0), "AE",
         "tied weights need a mirror image: an even layer count and palindromic widths, "
         "got (16, 6, 7, 8, 16)"),
    ], ids=["tied-vae", "odd-layer-count", "not-palindromic"])
    def test_tied_network_must_be_buildable(self, arch, loss, rule):
        # the config refuses what build_network would refuse
        with pytest.raises(ConfigurationError, match="^" + re.escape(rule)):
            tiny_config(arch=arch, loss=LossSpec(loss), tied=True)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        cfg = tiny_config(learning_rate=0.0)
        ds = tiny_dataset()
        net, _ = train(cfg, ds)
        fresh = build_network(cfg, derive_rng(cfg.seed, "init"))
        for (ka, a), (kb, b) in zip(net.param_items().items(),
                                    fresh.param_items().items()):
            assert ka == kb and np.array_equal(a, b)

    def test_descent_on_small_autoencoder(self):
        ds = make_synthetic_digits(20, seed=3, side=28)
        cfg = TrainConfig(arch=nn.shallow_arch(16, 784), loss=LossSpec("AE"),
                          learning_rate=0.05, epochs=200, batch_size=20, seed=2)
        _, history = train(cfg, ds)
        assert history[-1].total < history[0].total

    def test_bit_identical_reruns(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=5)
        net1, hist1 = train(cfg, ds)
        net2, hist2 = train(cfg, ds)
        for a, b in zip(net1.param_items().values(), net2.param_items().values()):
            assert np.array_equal(a, b)
        assert [r.total for r in hist1] == [r.total for r in hist2]

    @pytest.mark.parametrize("loss", [
        LossSpec("AE"), LossSpec("CAE"),
        LossSpec("DAE", noise=NoiseSpec("mask", 0.3)),
        LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
        LossSpec("IMAE"), LossSpec("VAE")])
    def test_every_variant_trains(self, loss):
        ds = tiny_dataset()
        tied = loss.variant not in ("VAE",)
        net, history = train(tiny_config(loss=loss, tied=tied), ds)
        assert len(history) == 3
        assert all(np.isfinite(r.total) for r in history)
        for arr in net.param_items().values():
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("loss,arch,tied", [
        (LossSpec("AE"), nn.shallow_arch(200), True),
        (LossSpec("CAE"), nn.shallow_arch(200), True),
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), nn.shallow_arch(200), True),
        (LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)), nn.shallow_arch(200), True),
        (LossSpec("IMAE"), nn.shallow_arch(200), True),
        (LossSpec("IMAE"), nn.deep_arch(10), False)])
    def test_training_leaves_images_untouched(self, loss, arch, tied):
        # unshuffled batches are views of the dataset and the step works in
        # place, so no in-place write may land on a batch
        ds = make_synthetic_digits(1000, seed=4, side=28)
        before = ds.images.tobytes()
        cfg = TrainConfig(arch=arch, loss=loss, learning_rate=0.005, epochs=1,
                          batch_size=500, tied=tied, seed=3)
        train(cfg, ds)
        assert ds.images.tobytes() == before

    def test_epoch_visits_every_sample_once(self):
        # with shuffle on, batch indices still partition the dataset
        seen = []
        from imae.data import batch_indices
        rng = derive_rng(9, "batches")
        for idx in batch_indices(30, 7, rng, shuffle=True):
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(30))

    def test_line_search_decreases_imae_loss(self):
        ds = tiny_dataset(n=12)
        cfg = tiny_config(loss=LossSpec("IMAE"), epochs=1, batch_size=12)
        net = build_network(cfg, derive_rng(cfg.seed, "init"))
        x = ds.images
        spec = cfg.loss
        trace = nn.forward(net, x)
        base, _, grads = nn.backward(net, trace, spec, x)
        eta = 0.5
        for _ in range(20):
            stepped = net.clone()
            params = stepped.param_items()
            for name, p in params.items():
                p -= eta * grads[name]
            value, _, _ = objectives.total_loss(spec, nn.forward(stepped, x), x)
            if value < base:
                break
            eta *= 0.5
        assert value < base

    def test_divergence_aborts_with_context(self):
        ds = tiny_dataset()
        cfg = tiny_config(learning_rate=1e12, epochs=50)
        with pytest.raises(TrainingDiverged) as err:
            train(cfg, ds)
        assert err.value.epoch >= 0
        assert "total" in err.value.terms

    def test_vae_overflow_aborts_without_a_warning(self):
        # a deep VAE at rate 1 overflows exp(logvar / 2) in its first epoch;
        # under pytest's error::RuntimeWarning filter a warning escaping the
        # loop would surface in place of TrainingDiverged
        cfg = tiny_config(arch=nn.deep_arch(3, 16, trunk=(12, 8)), loss=LossSpec("VAE"),
                          learning_rate=1.0)
        with pytest.raises(TrainingDiverged, match="^non-finite loss at epoch 0"):
            train(cfg, tiny_dataset())

    def test_history_csv(self, tmp_path):
        _, history = train(tiny_config(), tiny_dataset())
        path = tmp_path / "history.csv"
        write_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,total,reconstruction,latent,seconds"
        assert len(lines) == 4

    def test_history_csv_reads_back_as_the_records(self, tmp_path):
        _, history = train(tiny_config(loss=LossSpec("IMAE")), tiny_dataset())
        path = tmp_path / "history.csv"
        write_history(history, path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [EpochRecord(**{k: float(v) for k, v in row.items()}) for row in rows] == history

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(EpochRecord, st.integers(min_value=0),
                              *[st.floats(allow_nan=False, allow_infinity=False)] * 4)))
    @example([EpochRecord(0, -0.0, 5e-324, 1e308, -1e308)])
    def test_history_csv_reads_back_any_finite_records(self, tmp_path_factory, records):
        # repr compares the sign of a zero as well as every bit of the value
        path = tmp_path_factory.mktemp("history") / "history.csv"
        write_history(records, path)
        assert b"\r" not in path.read_bytes()
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        again = [EpochRecord(**{k: (int if k == "epoch" else float)(v) for k, v in row.items()})
                 for row in rows]
        assert repr(again) == repr(records)

    def test_epoch_row_weights_each_batch_by_its_rows(self):
        # 30 rows in batches of 7 leave a last batch of 2; at rate 0 every batch
        # meets the initial network, so each column is the whole set's loss
        cfg = tiny_config(loss=LossSpec("IMAE"), learning_rate=0.0, epochs=1, batch_size=7)
        ds = tiny_dataset(n=30)
        _, (record,) = train(cfg, ds)
        net = build_network(cfg, derive_rng(cfg.seed, "init"))
        total, terms, _ = objectives.total_loss(cfg.loss, nn.forward(net, ds.images), ds.images)
        for name, value in {"total": total, **terms}.items():
            assert getattr(record, name) == pytest.approx(value, rel=1e-12, abs=0), name


def fresh_gradients_train(cfg, ds):
    """``train``'s SGD loop stepping a whole gradient set after each backward
    pass, the reference that stepping each block as soon as ``nn.backward``
    hands it over must match bit for bit."""
    net = build_network(cfg, derive_rng(cfg.seed, "init"))
    batch_rng = derive_rng(cfg.seed, "batches")
    noise_rng = derive_rng(cfg.seed, "corruption")
    latent_rng = derive_rng(cfg.seed, "latent-sample")
    for _ in range(cfg.epochs):
        for xb in batches(ds, cfg.batch_size, batch_rng, cfg.shuffle):
            x_in = xb if cfg.loss.noise is None else corrupt(xb, cfg.loss.noise, noise_rng)
            trace = nn.forward(net, x_in, rng=latent_rng)
            _, _, grads = nn.backward(net, trace, cfg.loss, xb)
            for name, p in net.param_items().items():
                p -= cfg.learning_rate * grads[name]
    return net


class TestGradientBuffers:
    """``train`` steps each block as soon as ``nn.backward`` hands over its
    final gradient, a fresh array the step spends and drops."""

    @pytest.mark.parametrize("loss, arch, kw", [
        (LossSpec("AE"), nn.shallow_arch(40), dict(tied=True)),
        (LossSpec("CAE"), nn.shallow_arch(40), dict(tied=True)),
        (LossSpec("CAE"), nn.shallow_arch(40), dict(tied=False)),
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), nn.shallow_arch(40),
         dict(tied=True, shuffle=True)),
        (LossSpec("IMAE"), nn.deep_arch(10, trunk=(60, 30)), dict(tied=False)),
        (LossSpec("IMAE"), nn.deep_arch(10, trunk=(60, 30)), dict(tied=True)),
        (LossSpec("VAE"), nn.deep_arch(10, trunk=(60, 30)), dict(learning_rate=0.001)),
        (LossSpec("AE"), nn.shallow_arch(40), dict(tied=True, batch_size=70)),  # 200 = 2*70 + 60
        # the preset shapes at batch 500, two steps each
        (LossSpec("AE"), nn.shallow_arch(200), dict(tied=True, batch_size=500, learning_rate=0.05)),
        (LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)), nn.shallow_arch(200),
         dict(tied=True, batch_size=500, learning_rate=0.05)),
        (LossSpec("IMAE"), nn.deep_arch(10), dict(batch_size=500, learning_rate=0.005)),
        (LossSpec("VAE"), nn.deep_arch(10), dict(batch_size=500, learning_rate=0.001)),
    ], ids=["AE-tied", "CAE-tied", "CAE-untied", "DAE-b", "deep-IMAE", "deep-IMAE-tied",
            "deep-VAE", "short-final-batch", "AE-shallow200", "DAE-g-shallow200",
            "IMAE-deep10", "VAE-deep10"])
    def test_parameters_equal_fresh_gradient_loop(self, loss, arch, kw):
        cfg = TrainConfig(**{**dict(arch=arch, loss=loss, learning_rate=0.015, epochs=2,
                                    batch_size=50, seed=3), **kw})
        ds = make_synthetic_digits(max(200, cfg.batch_size), seed=4, side=28)
        net, _ = train(cfg, ds)
        ref = fresh_gradients_train(cfg, ds)
        assert net.param_items().keys() == ref.param_items().keys()
        for name, p in net.param_items().items():
            assert p.tobytes() == ref.param_items()[name].tobytes(), name

    def test_divergence_raised_before_the_update(self, monkeypatch):
        # the third step's loss is NaN: no block may step on it, neither a
        # tied net's nor an untied deep net's
        true_total_loss = objectives.total_loss
        deep = tiny_config(arch=nn.deep_arch(3, 16, trunk=(12, 8)), loss=LossSpec("IMAE"))
        for cfg in (tiny_config(tied=True), deep):
            steps = []  # (network, its parameters when the step's loss was formed)

            def nan_on_third_step(spec, trace, clean):
                total, terms, grads = true_total_loss(spec, trace, clean)
                params = trace.net.param_items()
                steps.append((trace.net, {k: p.copy() for k, p in params.items()}))
                return (float("nan") if len(steps) == 3 else total), terms, grads

            monkeypatch.setattr(objectives, "total_loss", nan_on_third_step)
            with pytest.raises(TrainingDiverged):
                train(cfg, tiny_dataset())
            assert len(steps) == 3
            net, before = steps[-1]
            for name, p in net.param_items().items():
                assert np.array_equal(p, before[name]), name

    def test_deep10_step_peak_holds_one_gradient_block(self):
        # 3 SGD steps of the deep preset at its batch size. The traced numpy
        # peak is bounded by the parameters, one gradient block (the largest
        # layer weight's, formed in the backward pass and dropped once
        # stepped, so none is held through the forward pass), one forward
        # trace (the input batch and every activation) and the backward
        # pass's largest temporaries: two batch x widest-layer arrays (the
        # chained gradient and the next one), 62.68 MB in all. A gradient
        # block kept from one step to the next breaks the bound (64.04 MB),
        # and so does a whole gradient set formed before any block steps.
        arch, batch = nn.deep_arch(10), 500
        rng = derive_rng(1)
        ds = Dataset(rng.integers(0, 256, size=(3 * batch, 784), dtype=np.uint8),
                     rng.integers(0, 10, size=3 * batch))
        cfg = TrainConfig(arch=arch, loss=LossSpec("IMAE"), learning_rate=0.001, epochs=1,
                          batch_size=batch, seed=3)
        tracemalloc.start()
        try:
            net, _ = train(cfg, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params = net.param_items().values()
        param_bytes = sum(p.nbytes for p in params)
        largest_block = max(p.nbytes for p in params)
        trace_bytes = 8 * batch * sum(arch.widths())
        temporaries = 2 * 8 * batch * max(arch.widths())
        assert peak <= param_bytes + largest_block + trace_bytes + temporaries, (
            f"peak {peak / 1e6:.1f} MB, parameters {param_bytes / 1e6:.1f} MB")


class TestConfigText:
    def test_round_trip(self):
        cfg = tiny_config(loss=LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
                          tied=True, shuffle=True, seed=99)
        back = config_from_text(config_to_text(cfg))
        assert back == cfg
        assert config_to_text(back) == config_to_text(cfg)

    def test_block_is_ini_under_the_config_keys(self):
        cfg = tiny_config(loss=LossSpec("DAE", noise=NoiseSpec("mask", 0.25)), tied=True)
        assert config_to_text(cfg) == (
            "[model]\nvariant = DAE\nlambda = 0.0\nnoise_kind = mask\nnoise_level = 0.25\n"
            "tied = true\nlayers = 6:sigmoid,16:identity\n"
            "latent_index = 0\n\n[train]\nlearning_rate = 0.05\nepochs = 3\nbatch_size = 10\n"
            "shuffle = false\nseed = 5\n")

    def test_unknown_key_rejected(self):
        text = config_to_text(tiny_config()) + "momentum = 0.9\n"
        with pytest.raises(CheckpointFormatError):
            config_from_text(text)

    @pytest.mark.parametrize("line, bad", [
        ("epochs = 3", "epochs = three"),
        ("learning_rate = 0.05", "learning_rate = fast"),
        ("shuffle = false", "shuffle = maybe"),
        ("layers = 6:sigmoid,16:identity", "layers = six:sigmoid,16:identity"),
        ("noise_level = 0.0", "noise_level = nan"),
        ("variant = AE", "variant = XYZ"),
        ("noise_kind = none", "noise_kind = salt"),
    ])
    def test_malformed_value_names_its_key(self, line, bad):
        text = config_to_text(tiny_config())
        assert line in text
        key = block_key(line.partition(" =")[0])
        # a key with a fixed list of values names the list, as in a config file
        rule = {"variant = XYZ": "must be one of ('AE', 'CAE', 'DAE', 'IMAE', 'VAE'), got 'XYZ'",
                "noise_kind = salt": "must be one of ('none', 'mask', 'gaussian'), got 'salt'",
                }.get(bad, "")
        with pytest.raises(CheckpointFormatError,
                           match=f"^config block key {key}: {re.escape(rule)}"):
            config_from_text(text.replace(line, bad))

    def test_shared_keys_parse_like_a_config_file(self):
        # the nine keys a config file also holds take its schema codec objects
        shared = [key for key in config.BLOCK_CODECS if key in config.KEYS]
        assert len(shared) == 9
        assert all(config.BLOCK_CODECS[key] is config.KEYS[key][1] for key in shared)
        text = config_to_text(tiny_config(loss=LossSpec("DAE", noise=NoiseSpec("mask", 0.3))))
        assert config_from_text(text.replace("variant = DAE", "variant = dae")).loss.variant == "DAE"

    def test_missing_key_named(self):
        text = config_to_text(tiny_config()).replace("seed = 5\n", "")
        with pytest.raises(CheckpointFormatError, match="^config block key train.seed: missing"):
            config_from_text(text)

    @pytest.mark.parametrize("loss, line, bad, key", [
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), "noise_level = 0.3", "noise_level = 1.3",
         "noise_level"),
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), "noise_kind = mask", "noise_kind = none",
         "noise_kind"),
        (LossSpec("IMAE"), "lambda = 1.0", "lambda = -1.0", "lambda"),
        (None, "epochs = 3", "epochs = 0", "epochs"),
        (None, "layers = 6:sigmoid", "layers = 0:sigmoid", "layers"),
        # the output width is also the input width, and is checked as one
        (None, "16:identity", "0:identity", "layers"),
        (LossSpec("VAE"), "layers = 6:sigmoid,16:identity\nlatent_index = 0",
         "layers = 16:sigmoid,16:identity\nlatent_index = 1", "layers"),
    ])
    def test_out_of_domain_value_names_its_key(self, loss, line, bad, key):
        text = config_to_text(tiny_config(loss=loss))
        assert line in text
        with pytest.raises(CheckpointFormatError, match=f"^config block key {block_key(key)}: "):
            config_from_text(text.replace(line, bad))

    def test_repeated_key_rejected(self):
        # the block once kept the last of two values
        text = config_to_text(tiny_config()).replace("epochs = 3\n", "epochs = 3\nepochs = 7\n")
        with pytest.raises(CheckpointFormatError,
                           match="^config block: .*option 'epochs' in section 'train' already"):
            config_from_text(text)

    def test_rule_over_several_values_names_no_key(self):
        text = config_to_text(tiny_config(loss=LossSpec("CAE")))
        deep = "layers = 5:softplus,6:sigmoid,5:softplus,16:identity\nlatent_index = 1"
        with pytest.raises(CheckpointFormatError, match="^config block: the contractive"):
            config_from_text(text.replace("layers = 6:sigmoid,16:identity\nlatent_index = 0",
                                          deep))


class TestCheckpoints:
    @pytest.mark.parametrize("loss,tied", [
        (LossSpec("AE"), True), (LossSpec("IMAE"), False), (LossSpec("VAE"), False)])
    def test_save_load_save_identical(self, tmp_path, loss, tied):
        ds = tiny_dataset()
        cfg = tiny_config(loss=loss, tied=tied)
        net, _ = train(cfg, ds)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, cfg, p1)
        loaded, cfg2 = load_checkpoint(p1)
        save_checkpoint(loaded, cfg2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_forward_is_exact(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(tied=True)
        net, _ = train(cfg, ds)
        save_checkpoint(net, cfg, tmp_path / "m.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        x = derive_rng(3).random((7, 16))
        assert np.array_equal(nn.forward(net, x).xhat, nn.forward(loaded, x).xhat)

    def test_tied_loaded_net_stays_tied(self, tmp_path):
        cfg = tiny_config(tied=True)
        net, _ = train(cfg, tiny_dataset())
        save_checkpoint(net, cfg, tmp_path / "m.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        loaded.layers[0].weights[0, 0] = 123.0
        assert loaded.layers[1].weights[0, 0] == 123.0

    def test_version_1_rejected(self, tmp_path):
        # version 1 held flat key = value lines under other names, version 2
        # the block's input_dim and biases keys too; no reader is kept for either
        cfg = tiny_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_network(cfg, derive_rng(1)), cfg, path)
        body = path.read_bytes()
        assert body[4:8] == CHECKPOINT_VERSION.to_bytes(4, "little") == b"\x03\0\0\0"
        for version in (1, 2):
            path.write_bytes(body[:4] + version.to_bytes(4, "little") + body[8:])
            with pytest.raises(CheckpointFormatError, match="^" + re.escape(
                    f"{path}: unsupported checkpoint version {version}") + "$"):
                load_checkpoint(path)

    def test_malformed_bool_in_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_network(tiny_config(), derive_rng(1)), tiny_config(), path)
        body = path.read_bytes()
        path.write_bytes(body.replace(b"shuffle = false", b"shuffle = maybe"))
        with pytest.raises(CheckpointFormatError, match="shuffle: expected a boolean"):
            load_checkpoint(path)

    @pytest.mark.parametrize("loss, tied, line, bad, error", [
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), False, b"noise_level = 0.3",
         b"noise_level = 1.3",
         "config block key model.noise_level: mask probability must be in [0,1]"),
        (LossSpec("AE"), True, b"variant = AE", b"variant = VAE",
         "config block: tied weights are not supported with Gaussian-latent heads"),
        (LossSpec("AE"), False, b"learning_rate = 0.05", b"learning_rate =  nan",
         "config block key train.learning_rate: must be finite, got nan"),
    ], ids=["value", "network", "non-finite"])
    def test_config_error_names_the_file(self, tmp_path, loss, tied, line, bad, error):
        cfg = tiny_config(loss=loss, tied=tied)
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_network(cfg, derive_rng(1)), cfg, path)
        path.write_bytes(path.read_bytes().replace(line, bad))
        with pytest.raises(CheckpointFormatError, match=re.escape(f"{path}: {error}")):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        # such a net would evaluate to NaN distances and Rand indices, not fail
        cfg = tiny_config(arch=nn.shallow_arch(200))
        net = build_network(cfg, derive_rng(1))
        path = tmp_path / "m.ckpt"
        for name, bad in (("layers.0.W", np.nan), ("layers.1.b", -np.inf)):
            net.param_items()[name].flat[3] = bad
            save_checkpoint(net, cfg, path)
            with pytest.raises(CheckpointFormatError, match="^" + re.escape(
                    f"{path}: array {name!r} holds a non-finite value") + "$"):
                load_checkpoint(path)
            net.param_items()[name].flat[3] = 0.0

    @pytest.mark.parametrize("edit, error", [
        # equal shapes, so layers.1.W would keep the skeleton's initial values
        (lambda body: body.replace(b"layers.1.W", b"layers.0.W"),
         "unexpected array 'layers.0.W' in checkpoint"),
        (lambda body: body + b"\x00\x07", "bytes past the last array"),
        (lambda body: body.replace(b"layers.0.W", b"layers.\xff.W"),
         "'ascii' codec can't decode byte 0xff"),
        # the block states the input width once, as the output width, so a
        # changed one is a valid block whose net the arrays do not fit
        (lambda body: body.replace(b"8:identity", b"7:identity"),
         "array 'layers.0.W' has shape (8, 8), network needs (8, 7)"),
    ], ids=["repeated-name", "trailing-bytes", "non-ascii-name", "output-width"])
    def test_malformed_array_table_names_the_file(self, tmp_path, edit, error):
        cfg = tiny_config(arch=nn.shallow_arch(8, input_dim=8))
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_network(cfg, derive_rng(1)), cfg, path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointFormatError, match="^" + re.escape(f"{path}: {error}")):
            load_checkpoint(path)

    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        net, _ = train(cfg, tiny_dataset())
        path = tmp_path / "model.ckpt"

        def fail(*args, **kwargs):
            raise RuntimeError("write failed halfway")

        with monkeypatch.context() as m:
            m.setattr(np, "ascontiguousarray", fail)
            with pytest.raises(RuntimeError, match="halfway"):
                save_checkpoint(net, cfg, path)
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no temporary file

        save_checkpoint(net, cfg, path)
        before = path.read_bytes()
        net.layers[0].weights += 1.0
        monkeypatch.setattr(np, "ascontiguousarray", fail)
        with pytest.raises(RuntimeError, match="halfway"):
            save_checkpoint(net, cfg, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_corrupted_magic_is_format_error(self, tmp_path):
        cfg = tiny_config()
        net, _ = train(cfg, tiny_dataset())
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, cfg, path)
        payload = bytearray(path.read_bytes())
        payload[:4] = b"NOPE"
        path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation_is_io_error(self, tmp_path):
        cfg = tiny_config()
        net, _ = train(cfg, tiny_dataset())
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, cfg, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(IOError, match=r"truncated file .*m\.ckpt.*data of "):
            load_checkpoint(path)

    def test_oversized_config_length_is_io_error(self, tmp_path):
        # a u32 config length of 4 GiB is refused before any read of that size
        cfg = tiny_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_network(cfg, derive_rng(1)), cfg, path)
        body = path.read_bytes()
        path.write_bytes(body[:8] + b"\xff" * 4 + body[12:])
        with pytest.raises(IOError, match=r"truncated file .*m\.ckpt: expected 4294967295 "
                                          r"bytes for config, got \d+$"):
            load_checkpoint(path)
