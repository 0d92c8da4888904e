import csv
import json

import numpy as np
import pytest

from imae import cli, evaluation, nn, objectives, reference, training
from imae.cli import UsageError, read_config_file, resolve_config
from imae.data import NoiseSpec
from imae.ndcore import derive_rng


def fast_overrides(extra=()):
    """Shrink training to seconds while keeping the full pipeline."""
    base = ["--set", "train.epochs=3", "--set", "train.batch_size=100",
            "--set", "train.train_limit=200", "--set", "eval.iterations=2",
            "--set", "eval.n=100"]
    for item in extra:
        base += ["--set", item]
    return base


class TestConfigResolution:
    def test_minimal_shallow_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nvariant = IMAE\n")
        cfg = resolve_config(read_config_file(path))
        assert cfg.learning_rate == 0.05
        assert cfg.batch_size == 500
        assert cfg.epochs == 300
        assert cfg.train_limit == 10000
        assert cfg.tied is True
        assert cfg.lam == 1.0
        assert cfg.eval_noise_level == 0.2

    def test_deep_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nvariant = VAE\npreset = deep\n")
        cfg = resolve_config(read_config_file(path))
        assert cfg.learning_rate == 0.005
        assert cfg.epochs == 150
        assert cfg.tied is False
        assert cfg.eval_noise_level == 0.01  # mnist deep protocol

    def test_paper_scale(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nscale = paper\n[model]\nvariant = AE\n")
        cfg = resolve_config(read_config_file(path))
        assert cfg.epochs == 2000
        assert cfg.train_limit == 0

    def test_cae_lambda_default(self):
        cfg = resolve_config({"model.variant": "CAE"})
        assert cfg.lam == 0.1

    def test_fashion_deep_noise_default(self):
        cfg = resolve_config({"model.preset": "deep", "data.dataset": "fashion"})
        assert cfg.eval_noise_level == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nvariant = AE\nmomentum = 0.9\n")
        with pytest.raises(UsageError, match="momentum"):
            read_config_file(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[optimizer]\nkind = adam\n")
        with pytest.raises(UsageError, match="optimizer"):
            read_config_file(path)

    def test_preset_architectures(self):
        assert cli.preset_arch("shallow200", 10).widths() == (784, 200, 784)
        assert cli.preset_arch("shallow1000", 10).widths() == (784, 1000, 784)
        deep = cli.preset_arch("deep", 10)
        assert deep.widths() == (784, 1100, 700, 10, 700, 1100, 784)
        assert deep.latent_index == 2


GOLDEN_DEFAULT_SNAPSHOT = """\
[experiment]
seed = 12345
out = runs/experiment
scale = desk

[data]
dir = ./data
dataset = mnist
train_images = train-images-idx3-ubyte
train_labels = train-labels-idx1-ubyte
test_images = t10k-images-idx3-ubyte
test_labels = t10k-labels-idx1-ubyte

[model]
variant = IMAE
preset = shallow200
nh = 10
lambda = 1.0
noise_kind = mask
noise_level = 0.3
tied = true
biases = true

[train]
learning_rate = 0.05
epochs = 300
batch_size = 500
shuffle = false
train_limit = 10000

[eval]
protocol = robustness
iterations = 50
n = 1000
k = 10
noise_kind = gaussian
noise_level = 0.2
mask_grid = 0,0.3,0.5,0.75
gaussian_grid = 0.03,0.15,0.35,0.45
"""


def command_line(argv, monkeypatch):
    """The raw config values a command line sets, without a config file."""
    monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
    return cli._apply_overrides({}, cli.build_parser().parse_args(argv))


class TestConfigSchema:
    def test_default_snapshot_is_golden(self):
        assert cli.snapshot_text(resolve_config({})) == GOLDEN_DEFAULT_SNAPSHOT

    @pytest.mark.parametrize("extra", [
        {},
        {"train.learning_rate": "0.30000000000000004", "model.tied": "no",
         "eval.mask_grid": "0.1", "eval.gaussian_grid": ""},
    ])
    def test_snapshot_reads_back_to_itself(self, tmp_path, extra):
        path = tmp_path / "config.resolved.ini"
        for preset in cli.PRESETS:
            for scale in cli.SCALES:
                for variant in objectives.VARIANTS:
                    for dataset in cli.DATASETS:
                        raw = {"model.preset": preset, "experiment.scale": scale,
                               "model.variant": variant, "data.dataset": dataset, **extra}
                        text = cli.snapshot_text(resolve_config(raw))
                        path.write_text(text)
                        assert cli.snapshot_text(resolve_config(read_config_file(path))) == text

    @pytest.mark.parametrize("argv, key, field, value", [
        (["train", "--seed", "7"], "experiment.seed", "seed", 7),
        (["train", "--out", "runs/x"], "experiment.out", "out", "runs/x"),
        (["train", "--scale", "paper"], "experiment.scale", "scale", "paper"),
        (["train", "--nh", "5"], "model.nh", "nh", 5),
        (["train", "--data-dir", "mnist"], "data.dir", "data_dir", "mnist"),
        (["eval", "--protocol", "cluster"], "eval.protocol", "eval_protocol", "cluster"),
        (["eval", "--iterations", "3"], "eval.iterations", "eval_iterations", 3),
        (["eval", "--n", "100"], "eval.n", "eval_n", 100),
        (["eval", "--k", "4"], "eval.k", "eval_k", 4),
        (["eval", "--noise-kind", "mask"], "eval.noise_kind", "eval_noise_kind", "mask"),
        (["eval", "--noise-level", "0.25"], "eval.noise_level", "eval_noise_level", 0.25),
    ])
    def test_flag_lands_on_its_key(self, monkeypatch, argv, key, field, value):
        if argv[0] == "eval":
            argv = argv + ["--checkpoint", "model.ckpt"]
        raw = command_line(argv, monkeypatch)
        assert list(raw) == [key]
        assert getattr(resolve_config(raw), field) == value

    def test_set_beats_flag(self, monkeypatch):
        argv = ["train", "--seed", "2", "--set", "experiment.seed=1"]
        assert resolve_config(command_line(argv, monkeypatch)).seed == 1

    def test_data_dir_precedence(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.ini"
        path.write_text("[data]\ndir = from-file\n")

        def resolved_dir(argv):
            args = cli.build_parser().parse_args(["train", "--config", str(path)] + argv)
            return resolve_config(cli._apply_overrides(read_config_file(path), args)).data_dir

        monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
        assert resolved_dir([]) == "from-file"
        monkeypatch.setenv(cli.ENV_DATA_DIR, "from-env")
        assert resolved_dir([]) == "from-env"
        assert resolved_dir(["--data-dir", "from-flag"]) == "from-flag"
        assert resolved_dir(["--set", "data.dir=from-set"]) == "from-set"

    @pytest.mark.parametrize("item, key", [
        ("train.epochs=abc", "train.epochs"),
        ("model.noise_level=high", "model.noise_level"),
        ("train.shuffle=maybe", "train.shuffle"),
        ("eval.mask_grid=0.1,x", "eval.mask_grid"),
    ])
    def test_malformed_value_names_its_key(self, tmp_path, capsys, item, key):
        assert cli.main(["train", "--out", str(tmp_path / "out"), "--set", item]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {key}: ")

    def test_unknown_dataset_lists_choices(self):
        with pytest.raises(UsageError,
                           match=r"data.dataset: must be one of \('mnist', 'fashion'\)"):
            resolve_config({"data.dataset": "cifar"})


class TestTrainCommand:
    def test_writes_artifacts_and_is_deterministic(self, idx_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["train", "--data-dir", str(idx_dir), "--seed", "77",
                "--set", "model.variant=IMAE"] + fast_overrides()
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        snapshot = (out1 / "config.resolved.ini").read_text()
        assert "learning_rate = 0.05" in snapshot
        assert "batch_size = 100" in snapshot
        history = (out1 / "history.csv").read_text().splitlines()
        assert len(history) == 4

    def test_missing_data_dir_exits_one(self, tmp_path, capsys):
        code = cli.main(["train", "--data-dir", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "train-images-idx3-ubyte" in err

    def test_train_limit_keeps_only_its_rows(self, idx_dir):
        def owned_bytes(a):  # the buffer a view keeps alive
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            return memoryview(a).nbytes

        ds = cli.load_split(resolve_config({"data.dir": str(idx_dir), "train.train_limit": "100",
                                            "train.batch_size": "100"}), "train")
        assert ds.images.shape == (100, 784)
        assert owned_bytes(ds.images) == 100 * 784
        assert owned_bytes(ds.labels) == ds.labels.nbytes

    def test_dae_without_noise_exits_one_before_training(self, idx_dir, tmp_path, capsys):
        out = tmp_path / "dae"
        code = cli.main(["train", "--data-dir", str(idx_dir), "--out", str(out),
                         "--set", "model.variant=DAE", "--set", "model.noise_kind=none"]
                        + fast_overrides())
        assert code == 1
        assert "training noise is required for DAE" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_explicit_tied_deep_is_honoured(self, idx_dir, tmp_path):
        out = tmp_path / "deep-tied"
        assert cli.main(["train", "--data-dir", str(idx_dir), "--out", str(out), "--nh", "5",
                         "--set", "model.preset=deep", "--set", "model.tied=true"]
                        + fast_overrides(["train.epochs=1"])) == 0
        _, tcfg = training.load_checkpoint(out / "model.ckpt")
        assert tcfg.tied is True

    def test_env_var_dataset_dir(self, idx_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_DATA_DIR, str(idx_dir))
        out = tmp_path / "envrun"
        code = cli.main(["train", "--seed", "5", "--out", str(out),
                         "--set", "model.variant=AE"] + fast_overrides())
        assert code == 0
        assert (out / "model.ckpt").is_file()


@pytest.mark.parametrize("variant, noise_kind, tag", [
    *((v, "mask", "DAE-b" if v == "DAE" else v) for v in objectives.VARIANTS),
    ("DAE", "gaussian", "DAE-g")])
def test_every_variant_trains_and_evaluates(idx_dir, tmp_path, variant, noise_kind, tag):
    # shallow200 decoders are tied unless the variant has Gaussian-latent
    # heads, and only a sigmoid code reports sigma-prime
    trained, evaluated = tmp_path / "train", tmp_path / "eval"
    assert cli.main(["train", "--data-dir", str(idx_dir), "--seed", "9", "--out", str(trained),
                     "--set", f"model.variant={variant}"]
                    + fast_overrides(["train.epochs=1", f"model.noise_kind={noise_kind}"])) == 0
    _, tcfg = training.load_checkpoint(trained / "model.ckpt")
    assert tcfg.tied == (variant != "VAE")
    assert cli.main(["eval", "--checkpoint", str(trained / "model.ckpt"), "--data-dir",
                     str(idx_dir), "--out", str(evaluated), "--protocol", "cluster",
                     "--iterations", "1", "--n", "100"]) == 0
    report = json.loads((evaluated / "report.json").read_text())
    assert report["model"] == tag
    assert (report["sigma_prime"] is None) == (variant == "VAE")


@pytest.fixture(scope="session")
def checkpoint(idx_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = cli.main(["train", "--data-dir", str(idx_dir), "--seed", "31",
                     "--out", str(out), "--set", "model.variant=IMAE"]
                    + fast_overrides())
    assert code == 0
    return out / "model.ckpt"


# command line; the config key the error names (None for a rule about a
# combination of settings); text the error must hold; and whether the rule
# reads the splits' sizes (the train split here has 400 images, the test 300)
CONFIG_ERRORS = [
    (["reproduce", "--table", "table1", "--set", "eval.mask_grid=0,1.5"],
     "eval.mask_grid", "mask probability must be in [0,1], got 1.5", False),
    (["reproduce", "--table", "table1", "--set", "eval.gaussian_grid=-0.1"],
     "eval.gaussian_grid", "gaussian std must be >= 0, got -0.1", False),
    (["reproduce", "--table", "table2", "--set", "eval.noise_level=-1"],
     "eval.noise_level", "gaussian std must be >= 0, got -1.0", False),
    (["eval", "--protocol", "cluster", "--set", "eval.noise_kind=bogus"],
     "eval.noise_kind", "must be one of ('none', 'mask', 'gaussian'), got 'bogus'", False),
    (["train", "--scale", "bogus"], "experiment.scale", "must be one of", False),
    (["train", "--set", "train.epochs=0"], "train.epochs", "epochs must be >= 1, got 0", False),
    (["train", "--set", "train.batch_size=0"],
     "train.batch_size", "batch_size must be >= 1, got 0", False),
    (["train", "--set", "train.learning_rate=-1"],
     "train.learning_rate", "learning_rate must be >= 0, got -1.0", False),
    (["train", "--set", "model.lambda=-1"], "model.lambda", "lam must be >= 0, got -1.0", False),
    (["train", "--set", "model.variant=AE", "--set", "model.lambda=0.5"],
     "model.lambda", "AE takes no latent weight, got lam=0.5", False),
    (["train", "--set", "model.variant=DAE", "--set", "model.noise_level=1.5"],
     "model.noise_level", "mask probability must be in [0,1], got 1.5", False),
    (["train", "--set", "model.variant=DAE", "--set", "model.noise_kind=none"],
     "model.noise_kind", "training noise is required for DAE", False),
    (["train", "--set", "train.train_limit=-3"],
     "train.train_limit", "train_limit must be >= 0", False),
    (["train", "--nh", "0", "--set", "model.preset=deep"],
     "model.nh", "widths >= 1, got (784, 1100, 700, 0, 700, 1100, 784)", False),
    (["train", "--set", "model.variant=CAE", "--set", "model.preset=deep"],
     None, "defined for a single-layer encoder (latent_index 0), got latent_index=2", False),
    (["eval", "--protocol", "cluster", "--n", "301"],
     "eval.n", "n must be <= the 300 test images, got 301", True),
    (["eval", "--protocol", "cluster", "--set", "eval.k=0"],
     "eval.k", "k must be >= 1, got 0", True),
    (["eval", "--protocol", "cluster", "--set", "eval.iterations=0"],
     "eval.iterations", "iterations must be >= 1, got 0", True),
    (["train", "--set", "train.batch_size=500"],
     "train.batch_size", "batch_size must be between 1 and the dataset's 400 rows, got 500", True),
]


@pytest.mark.parametrize("argv, key, message, reads_data", CONFIG_ERRORS,
                         ids=[" ".join(argv) for argv, *_ in CONFIG_ERRORS])
def test_config_error_exits_before_any_output(checkpoint, idx_dir, tmp_path, capsys,
                                              monkeypatch, argv, key, message, reads_data):
    # every command checks its settings, and the splits' sizes, before it
    # creates out; a rule that needs no data fails before any split loads.
    # An error in one setting names the config key the user set, whichever
    # object owns the rule: that object names its field, the command its key
    def no_training(*args, **kwargs):
        raise AssertionError("a model trained before the settings were checked")

    loads = []
    real_load_idx = cli.load_idx
    monkeypatch.setattr(cli, "load_idx", lambda *a, **kw: loads.append(a) or real_load_idx(*a, **kw))
    monkeypatch.setattr(training, "train", no_training)
    if argv[0] == "eval":
        argv = argv + ["--checkpoint", str(checkpoint)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--data-dir", str(idx_dir), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    if key is not None:
        assert err.startswith((f"error: {key}: ", f"usage error: {key}: "))
    assert not out.exists()
    assert bool(loads) == reads_data


@pytest.mark.parametrize("argv, key", [
    (["--set", "model.lambda=-1"], "model.lambda"),
    (["--set", "model.variant=AE", "--set", "model.lambda=0.5"], "model.lambda"),
    (["--nh", "0", "--set", "model.preset=deep"], "model.nh"),
    (["--set", "train.learning_rate=-1"], "train.learning_rate"),
    (["--set", "train.epochs=0"], "train.epochs"),
    (["--set", "train.batch_size=0"], "train.batch_size"),
])
def test_config_error_names_its_key(tmp_path, capsys, argv, key):
    # LossSpec, Arch and TrainConfig name their own fields; the command
    # names the config key that fed the field
    out = tmp_path / "out"
    assert cli.main(["train"] + argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


class TestEvalCommand:

    def test_robustness_grid_has_eight_rows(self, checkpoint, idx_dir, tmp_path):
        out = tmp_path / "rob"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--protocol",
                         "robustness", "--data-dir", str(idx_dir),
                         "--out", str(out), "--seed", "3"])
        assert code == 0
        with open(out / "robustness.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["model", "noise_kind", "level", "mean_l2"]
        body = rows[1:]
        assert len(body) == 8
        assert [r[1] for r in body] == ["mask"] * 4 + ["gaussian"] * 4
        assert [r[2] for r in body[:4]] == ["0", "0.3", "0.5", "0.75"]
        assert [r[2] for r in body[4:]] == ["0.03", "0.15", "0.35", "0.45"]

    def test_cluster_defaults_in_snapshot(self, checkpoint, idx_dir, tmp_path):
        out = tmp_path / "clu"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--protocol",
                         "cluster", "--data-dir", str(idx_dir), "--out", str(out),
                         "--seed", "3", "--iterations", "2", "--n", "100"])
        assert code == 0
        snapshot = (out / "config.resolved.ini").read_text()
        assert "k = 10" in snapshot
        assert "noise_level = 0.2" in snapshot
        report = json.loads((out / "report.json").read_text())
        assert report["resolved_config"] == snapshot  # artifacts embed the config
        with open(out / "cluster.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["model", "rand_clean", "rand_noisy", "sigma_prime", "iterations"]
        assert rows[1][0] == "IMAE"

    @pytest.mark.parametrize("argv, setting", [
        (["--iterations", "0"], "iterations"),
        (["--iterations", "-2"], "iterations"),
        (["--k", "0"], "k"),
        (["--n", "5"], "n"),      # fewer points than the 10 clusters
        (["--n", "301"], "n"),    # more points than the 300 test images
    ])
    def test_cluster_setting_out_of_domain_exits_one(self, checkpoint, idx_dir, tmp_path,
                                                     capsys, monkeypatch, argv, setting):
        def no_work(*args, **kwargs):
            raise AssertionError("the protocol started before its settings were checked")

        monkeypatch.setattr(evaluation, "sample_subset", no_work)
        monkeypatch.setattr(evaluation, "encode_rows", no_work)
        out = tmp_path / "bad"
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--protocol", "cluster",
                         "--data-dir", str(idx_dir), "--out", str(out), "--n", "100"]
                        + argv) == 1
        assert capsys.readouterr().err.startswith(f"error: eval.{setting}: {setting} must be ")
        assert not (out / "cluster.csv").exists()

    def test_codes_columns(self, checkpoint, idx_dir, tmp_path):
        out = tmp_path / "codes"
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--protocol",
                         "codes", "--data-dir", str(idx_dir), "--out", str(out)])
        assert code == 0
        with open(out / "codes.csv") as f:
            header = f.readline().strip().split(",")
        assert len(header) == 201  # label + n_h columns
        assert header[:2] == ["label", "z0"]

    def test_set_beats_flag(self, checkpoint, idx_dir, tmp_path):
        out = tmp_path / "k"
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--protocol", "codes",
                         "--data-dir", str(idx_dir), "--out", str(out),
                         "--k", "5", "--set", "eval.k=3"]) == 0
        assert "\nk = 3\n" in (out / "config.resolved.ini").read_text()

    def test_model_section_comes_from_checkpoint(self, idx_dir, tmp_path):
        trained, out = tmp_path / "deep5", tmp_path / "deep5eval"
        assert cli.main(["train", "--data-dir", str(idx_dir), "--seed", "4", "--out", str(trained),
                         "--nh", "5", "--set", "model.preset=deep", "--set", "model.lambda=0.5"]
                        + fast_overrides(["train.epochs=1"])) == 0
        assert cli.main(["eval", "--checkpoint", str(trained / "model.ckpt"), "--protocol",
                         "cluster", "--data-dir", str(idx_dir), "--out", str(out),
                         "--iterations", "1", "--n", "100"]) == 0
        snapshot = (out / "config.resolved.ini").read_text()
        for line in ("variant = IMAE", "preset = deep", "nh = 5", "lambda = 0.5",
                     "noise_kind = none", "tied = false", "biases = true"):
            assert f"\n{line}\n" in snapshot
        assert json.loads((out / "report.json").read_text())["resolved_config"] == snapshot

    def test_checkpoint_matching_no_preset_exits_one(self, tmp_path, capsys):
        tcfg = training.TrainConfig(arch=nn.shallow_arch(7), loss=objectives.LossSpec("AE"),
                                    learning_rate=0.1, epochs=1, batch_size=1)
        path = tmp_path / "odd.ckpt"
        training.save_checkpoint(training.build_network(tcfg, derive_rng(1)), tcfg, path)
        assert cli.main(["eval", "--checkpoint", str(path), "--protocol", "codes",
                         "--out", str(tmp_path / "out")]) == 1
        assert "(784, 7, 784)" in capsys.readouterr().err

    def test_out_of_domain_checkpoint_value_names_file_and_key(self, tmp_path, capsys):
        tcfg = training.TrainConfig(
            arch=nn.shallow_arch(200), learning_rate=0.1, epochs=1, batch_size=1,
            loss=objectives.LossSpec("DAE", noise=NoiseSpec("mask", 0.3)))
        path = tmp_path / "dae.ckpt"
        training.save_checkpoint(training.build_network(tcfg, derive_rng(1)), tcfg, path)
        path.write_bytes(path.read_bytes().replace(b"noise_level = 0.3", b"noise_level = 1.3"))
        assert cli.main(["eval", "--checkpoint", str(path), "--protocol", "codes",
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: config block key noise_level: mask probability")
        assert not (tmp_path / "out").exists()

    def test_bad_checkpoint_exits_one(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert cli.main(["eval", "--checkpoint", str(bad),
                         "--protocol", "codes", "--out", str(tmp_path)]) == 1


class TestGradcheckCommand:
    def test_all_variants_pass(self, capsys):
        assert cli.main(["gradcheck", "--variant", "all", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        for variant in ("AE", "CAE", "DAE", "IMAE", "VAE"):
            assert f"{variant:5s} PASS" in out

    def test_broken_gradient_fails(self, monkeypatch, capsys):
        true_backward = nn.backward

        def broken(net, trace, spec, clean):
            total, terms, grads = true_backward(net, trace, spec, clean)
            grads["layers.0.W"] = grads["layers.0.W"] + 0.01
            return total, terms, grads

        monkeypatch.setattr(nn, "backward", broken)
        assert cli.main(["gradcheck", "--variant", "AE", "--seeds", "1"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestReproduceCommand:
    def test_table2_layout_and_determinism(self, idx_dir, tmp_path):
        args = ["reproduce", "--table", "table2", "--data-dir", str(idx_dir),
                "--seed", "13"] + fast_overrides(["eval.iterations=1"])
        out1, out2 = tmp_path / "t2a", tmp_path / "t2b"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        with open(out1 / "table2.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["metric", "AE", "CAE", "DAE-b", "DAE-g", "IMAE"]
        assert [r[0] for r in rows[1:]] == [
            "R", "R_reference", "R_nu", "R_nu_reference",
            "sigma_prime", "sigma_prime_reference"]
        assert rows[2][1:] == ["53.5", "17.9", "53.8", "51.3", "54.4"]
        assert (out1 / "table2.csv").read_bytes() == (out2 / "table2.csv").read_bytes()

    def test_cluster_setting_checked_before_training(self, idx_dir, tmp_path, capsys):
        out = tmp_path / "t2"
        code = cli.main(["reproduce", "--table", "table2", "--data-dir", str(idx_dir),
                         "--out", str(out)] + fast_overrides(["eval.n=5000"]))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: eval.n: n must be <= the 300 test images")
        assert not list(out.glob("*.ckpt"))

    def test_table1_rows(self, idx_dir, tmp_path):
        out = tmp_path / "t1"
        code = cli.main(["reproduce", "--table", "table1", "--data-dir", str(idx_dir),
                         "--seed", "13", "--out", str(out)]
                        + fast_overrides(["train.epochs=2"]))
        assert code == 0
        with open(out / "table1.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["model", "noise_kind", "level", "mean_l2", "reference"]
        assert len(rows) == 1 + 5 * 8
        ae_mask0 = [r for r in rows[1:] if r[0] == "AE" and r[1] == "mask" and r[2] == "0"]
        assert ae_mask0[0][4] == "37.4"

    def test_table1_reference_by_level(self):
        # a level the paper did not run gets no reference, at any grid position
        levels = (0.1, 0.3, 0.0, 0.2, 0.5, 0.75)
        report = evaluation.EvalReport(model="AE", robustness=[
            *(evaluation.RobustnessRow(NoiseSpec("mask", p), 1.0) for p in levels),
            evaluation.RobustnessRow(NoiseSpec("gaussian", 0.15), 2.0)])
        unpublished = evaluation.EvalReport(model="X", robustness=report.robustness[:2])
        rows = list(cli._robustness_rows({"AE": report, "X": unpublished},
                                         reference.TABLE1[200]))
        assert [r[2:] for r in rows[1:]] == [
            ["0.1", "1", ""], ["0.3", "1", "97.4"], ["0", "1", "37.4"], ["0.2", "1", ""],
            ["0.5", "1", "133"], ["0.75", "1", "176.3"], ["0.15", "2", "122.2"],
            ["0.1", "1", ""], ["0.3", "1", ""]]

    @pytest.mark.parametrize("variant, lam, weights", [
        ("IMAE", "0.5", {"AE": 0.0, "CAE": 0.1, "DAE-b": 0.0, "DAE-g": 0.0, "IMAE": 0.5}),
        ("CAE", "0.2", {"AE": 0.0, "CAE": 0.2, "DAE-b": 0.0, "DAE-g": 0.0, "IMAE": 1.0}),
        ("AE", "0", {"AE": 0.0, "CAE": 0.1, "DAE-b": 0.0, "DAE-g": 0.0, "IMAE": 1.0}),
    ])
    def test_model_lambda_weights_the_variant_it_names(self, idx_dir, tmp_path, monkeypatch,
                                                       variant, lam, weights):
        trained = {}

        def record_loss(cfg, tcfg, *args):
            trained[tcfg.loss.tag] = tcfg.loss.lam

        monkeypatch.setattr(cli, "train_and_save", record_loss)
        monkeypatch.setattr(cli, "evaluate", lambda cfg, noise, net, test_ds, seed, tag:
                            evaluation.EvalReport(model=tag, rand_clean=0.5, rand_noisy=0.5))
        assert cli.main(["reproduce", "--table", "table2", "--data-dir", str(idx_dir),
                         "--out", str(tmp_path / "t2"), "--set", f"model.variant={variant}",
                         "--set", f"model.lambda={lam}", "--set", "eval.n=100",
                         "--set", "train.batch_size=100"]) == 0
        assert trained == weights

    def test_table1_runs_no_cluster_eval(self, tmp_path, write_idx_dir):
        # 500 test images is fewer than eval.n (1000), which only the cluster
        # protocol samples; table1 needs the robustness sweep alone
        (tmp_path / "data").mkdir()
        root = write_idx_dir(tmp_path / "data", (("train", 200, 31), ("test", 500, 32)))
        out = tmp_path / "t1"
        code = cli.main(["reproduce", "--table", "table1", "--data-dir", str(root),
                         "--seed", "13", "--out", str(out), "--set", "train.epochs=1",
                         "--set", "train.batch_size=100"])
        assert code == 0
        assert (out / "table1.csv").is_file()
        assert not list(out.glob("*.cluster.json"))

    def test_table3_layout(self, idx_dir, tmp_path, capsys):
        out = tmp_path / "t3"
        code = cli.main(["reproduce", "--table", "table3", "--nh", "10",
                         "--data-dir", str(idx_dir), "--seed", "13", "--out", str(out)]
                        + fast_overrides(["train.epochs=2", "eval.iterations=1"]))
        assert code == 0
        assert "resolved desk defaults" in capsys.readouterr().out
        with open(out / "table3.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["metric", "VAE", "IMAE"]
        assert rows[2][1:] == ["57.2", "75.7"]
        assert [r[0] for r in rows[1:]] == ["R", "R_reference", "R_noisy",
                                            "R_noisy_reference"]

    @staticmethod
    def assert_snapshot_names_what_ran(out, tags, protocol, iterations, noise):
        """The snapshot, and each report's copy of it, hold the eval settings
        that ran: rerunning the cluster protocol from them gives the report."""
        snapshot = (out / "config.resolved.ini").read_text()
        cfg = resolve_config(read_config_file(out / "config.resolved.ini"))
        assert (cfg.eval_protocol, cfg.eval_iterations) == (protocol, iterations)
        assert NoiseSpec(cfg.eval_noise_kind, cfg.eval_noise_level) == noise
        test_ds = cli.load_split(cfg, "test")
        for tag in tags:
            report = json.loads((out / f"{tag}.cluster.json").read_text())
            assert report["resolved_config"] == snapshot
            assert report["iterations"] == cfg.eval_iterations
            net, _ = training.load_checkpoint(out / f"{tag}.ckpt")
            rerun = evaluation.cluster_eval(
                net, test_ds, iterations=cfg.eval_iterations, n=cfg.eval_n, k=cfg.eval_k,
                noise=noise, seed=report["seeds"][0], model_tag=tag)
            assert rerun.to_dict() == {k: v for k, v in report.items() if k != "resolved_config"}

    def test_table2_snapshot_names_what_ran(self, idx_dir, tmp_path):
        out = tmp_path / "t2"
        assert cli.main(["reproduce", "--table", "table2", "--data-dir", str(idx_dir),
                         "--seed", "13", "--out", str(out)]
                        + fast_overrides(["train.epochs=1", "eval.iterations=2",
                                          "eval.noise_kind=mask", "eval.noise_level=0.25"])) == 0
        self.assert_snapshot_names_what_ran(out, ("AE", "CAE", "DAE-b", "DAE-g", "IMAE"),
                                            "cluster", 2, NoiseSpec("gaussian", 0.25))

    def test_table3_snapshot_names_what_ran(self, idx_dir, tmp_path):
        out = tmp_path / "t3"
        assert cli.main(["reproduce", "--table", "table3", "--nh", "10",
                         "--data-dir", str(idx_dir), "--seed", "13", "--out", str(out)]
                        + fast_overrides(["train.epochs=1", "eval.iterations=12",
                                          "eval.noise_kind=mask", "eval.noise_level=0.3"])) == 0
        # desk scale caps the iterations at 10 and table3 uses the dataset's sigma
        self.assert_snapshot_names_what_ran(out, ("VAE", "IMAE"), "cluster", 10,
                                            NoiseSpec("gaussian", 0.01))

    def test_usage_errors(self, tmp_path):
        assert cli.main(["reproduce"]) == 1  # missing --table
        assert cli.main(["train", "--config", str(tmp_path / "missing.ini")]) == 1
        assert cli.main(["train", "--set", "model.optimizer=adam"]) == 1

    def test_paper_scale_warns(self, tmp_path, capsys):
        # missing data aborts the run, but the runtime warning comes first
        cli.main(["train", "--scale", "paper", "--data-dir", str(tmp_path / "x"),
                  "--out", str(tmp_path / "out")])
        assert "paper scale" in capsys.readouterr().err
