import re
import tracemalloc

import numpy as np
import pytest

from imae import nn, objectives
from imae.data import Dataset, NoiseSpec, batches, corrupt, make_synthetic_digits
from imae.errors import CheckpointFormatError, ConfigurationError, TrainingDiverged
from imae.ndcore import derive_rng
from imae.objectives import LossSpec
from imae.training import (TrainConfig, build_network, config_from_text,
                           config_to_text, load_checkpoint, save_checkpoint,
                           train)


def tiny_config(loss=None, **kw):
    defaults = dict(arch=nn.shallow_arch(6, 16), loss=loss or LossSpec("AE"),
                    learning_rate=0.05, epochs=3, batch_size=10, seed=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_dataset(n=30, d=16, seed=1):
    rng = derive_rng(seed)
    return Dataset(rng.random((n, d)), rng.integers(0, 10, size=n))


class TestTrainConfig:
    def test_cae_on_deep_encoder_rejected(self):
        # the contractive penalty is exact only for a single-layer encoder
        with pytest.raises(ConfigurationError, match="single-layer encoder"):
            TrainConfig(arch=nn.deep_arch(10), loss=LossSpec("CAE"),
                        learning_rate=0.005, epochs=1, batch_size=500)


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
        assert history.records[-1].total < history.records[0].total

    def test_bit_identical_reruns(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=5)
        net1, hist1 = train(cfg, ds)
        net2, hist2 = train(cfg, ds)
        for a, b in zip(net1.param_items().values(), net2.param_items().values()):
            assert np.array_equal(a, b)
        assert [r.total for r in hist1.records] == [r.total for r in hist2.records]

    @pytest.mark.parametrize("loss", [
        LossSpec("AE"), LossSpec("CAE"),
        LossSpec("DAE", noise=NoiseSpec("mask", 0.3)),
        LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
        LossSpec("IMAE"), LossSpec("VAE")])
    def test_every_variant_trains(self, loss):
        ds = tiny_dataset()
        tied = loss.variant not in ("VAE",)
        net, history = train(tiny_config(loss=loss, tied=tied), ds)
        assert len(history.records) == 3
        assert all(np.isfinite(r.total) for r in history.records)
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

    def test_bias_free_training_keeps_biases_zero(self):
        cfg = tiny_config(biases=False, epochs=4)
        net, _ = train(cfg, tiny_dataset())
        for layer in net.layers:
            assert np.array_equal(layer.bias, np.zeros_like(layer.bias))

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

    def test_history_csv(self, tmp_path):
        _, history = train(tiny_config(), tiny_dataset())
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,total,reconstruction,latent,seconds"
        assert len(lines) == 4


def fresh_gradients_train(cfg, ds):
    """``train``'s SGD loop with a new gradient set each step: ``nn.backward``
    without ``out``, the reference the reused buffers must match bit for bit."""
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
    """``train`` lends each step's spent gradients to the next backward pass."""

    @pytest.mark.parametrize("loss, arch, kw", [
        (LossSpec("AE"), nn.shallow_arch(40), dict(tied=True)),
        (LossSpec("CAE"), nn.shallow_arch(40), dict(tied=True)),
        (LossSpec("CAE"), nn.shallow_arch(40), dict(tied=False)),
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), nn.shallow_arch(40),
         dict(tied=True, shuffle=True)),
        (LossSpec("IMAE"), nn.deep_arch(10, trunk=(60, 30)), dict(tied=False)),
        (LossSpec("IMAE"), nn.deep_arch(10, trunk=(60, 30)), dict(tied=True)),
        (LossSpec("VAE"), nn.deep_arch(10, trunk=(60, 30)), dict(learning_rate=0.001)),
        (LossSpec("IMAE"), nn.shallow_arch(40), dict(tied=True, biases=False)),
        (LossSpec("AE"), nn.shallow_arch(40), dict(tied=True, batch_size=70)),  # 200 = 2*70 + 60
    ], ids=["AE-tied", "CAE-tied", "CAE-untied", "DAE-b", "deep-IMAE", "deep-IMAE-tied",
            "deep-VAE", "no-biases", "short-final-batch"])
    def test_parameters_equal_fresh_gradient_loop(self, loss, arch, kw):
        ds = make_synthetic_digits(200, seed=4, side=28)
        cfg = TrainConfig(**{**dict(arch=arch, loss=loss, learning_rate=0.015, epochs=2,
                                    batch_size=50, seed=3), **kw})
        net, _ = train(cfg, ds)
        ref = fresh_gradients_train(cfg, ds)
        assert net.param_items().keys() == ref.param_items().keys()
        for name, p in net.param_items().items():
            assert p.tobytes() == ref.param_items()[name].tobytes(), name

    def test_divergence_raised_before_the_update(self, monkeypatch):
        # the diverging step has overwritten the lent gradient arrays, but
        # no parameter may have moved by then
        true_backward = nn.backward
        steps = []  # (network, its parameters when the step's gradients were formed)

        def nan_on_third_step(net, trace, spec, clean, out=None):
            total, terms, grads = true_backward(net, trace, spec, clean, out=out)
            steps.append((net, {k: p.copy() for k, p in net.param_items().items()}))
            return (float("nan") if len(steps) == 3 else total), terms, grads

        monkeypatch.setattr(nn, "backward", nan_on_third_step)
        with pytest.raises(TrainingDiverged):
            train(tiny_config(tied=True), tiny_dataset())
        assert len(steps) == 3
        net, before = steps[-1]
        for name, p in net.param_items().items():
            assert np.array_equal(p, before[name]), name

    def test_deep10_step_peak_holds_one_gradient_set(self):
        # 3 SGD steps of the deep preset at its batch size. The traced numpy
        # peak is bounded by the parameters, one gradient set, one forward
        # trace (the input batch and every activation) and the backward
        # pass's largest temporaries: three batch x widest-layer arrays (the
        # chained gradient, the activation derivative, the next gradient).
        # A previous step's gradients or trace kept alive past it adds 26 or
        # 18 MB and breaks the bound (about 104 MB against about 82).
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
        param_bytes = sum(p.nbytes for p in net.param_items().values())
        trace_bytes = 8 * batch * sum(arch.widths())
        temporaries = 3 * 8 * batch * max(arch.widths())
        assert peak <= 2 * param_bytes + trace_bytes + temporaries, (
            f"peak {peak / 1e6:.1f} MB, parameters {param_bytes / 1e6:.1f} MB")


class TestConfigText:
    def test_round_trip(self):
        cfg = tiny_config(loss=LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
                          tied=True, shuffle=True, seed=99)
        back = config_from_text(config_to_text(cfg))
        assert back == cfg
        assert config_to_text(back) == config_to_text(cfg)

    def test_unknown_key_rejected(self):
        text = config_to_text(tiny_config()) + "momentum = 0.9\n"
        with pytest.raises(CheckpointFormatError):
            config_from_text(text)

    @pytest.mark.parametrize("line, bad", [
        ("epochs = 3", "epochs = three"),
        ("learning_rate = 0.05", "learning_rate = fast"),
        ("shuffle = false", "shuffle = maybe"),
        ("layers = 6:sigmoid,16:identity", "layers = six:sigmoid,16:identity"),
    ])
    def test_malformed_value_names_its_key(self, line, bad):
        text = config_to_text(tiny_config())
        key = line.partition(" =")[0]
        with pytest.raises(CheckpointFormatError, match=f"key {key}: "):
            config_from_text(text.replace(line, bad))

    @pytest.mark.parametrize("loss, line, bad, key", [
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), "noise_level = 0.3", "noise_level = 1.3",
         "noise_level"),
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), "noise_kind = mask", "noise_kind = none",
         "noise_kind"),
        (LossSpec("IMAE"), "lambda = 1.0", "lambda = -1.0", "lambda"),
        (None, "epochs = 3", "epochs = 0", "epochs"),
        (None, "layers = 6:sigmoid", "layers = 0:sigmoid", "layers"),
    ])
    def test_out_of_domain_value_names_its_key(self, loss, line, bad, key):
        text = config_to_text(tiny_config(loss=loss))
        assert line in text
        with pytest.raises(CheckpointFormatError, match=f"^config block key {key}: "):
            config_from_text(text.replace(line, bad))

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

    def test_malformed_bool_in_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_network(tiny_config(), derive_rng(1)), tiny_config(), path)
        body = path.read_bytes()
        path.write_bytes(body.replace(b"shuffle = false", b"shuffle = maybe"))
        with pytest.raises(CheckpointFormatError, match="shuffle: expected a boolean"):
            load_checkpoint(path)

    @pytest.mark.parametrize("loss, tied, line, bad, error", [
        (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), False, b"noise_level = 0.3",
         b"noise_level = 1.3", "config block key noise_level: mask probability must be in [0,1]"),
        (LossSpec("AE"), True, b"variant = AE", b"variant = VAE",
         "tied weights are not supported with Gaussian-latent heads"),
    ], ids=["value", "network"])
    def test_config_error_names_the_file(self, tmp_path, loss, tied, line, bad, error):
        cfg = tiny_config(loss=loss, tied=tied)
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_network(cfg, derive_rng(1)), cfg, path)
        path.write_bytes(path.read_bytes().replace(line, bad))
        with pytest.raises(CheckpointFormatError, match=re.escape(f"{path}: {error}")):
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
