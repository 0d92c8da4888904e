"""Command-line entry point: train, eval, gradcheck, reproduce.

Experiments are described by INI-style config files (flat ``key = value``
under sections). Every run writes a fully resolved snapshot of its config so
results stay diffable and re-runnable. One master seed drives every random
choice: sub-seeds for init, batching, corruption, and evaluation are derived
from it by label, so equal seeds give bit-identical artifacts at the same BLAS
thread count (OpenBLAS splits its sums by thread, so checkpoints trained with
OPENBLAS_NUM_THREADS=1 and =2 differ in their last bits).

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import evaluation, gradcheck, nn, objectives, reference, training
from .data import CANONICAL_FILES, Dataset, NoiseSpec, load_idx
from .errors import (CheckpointFormatError, ConfigurationError, IdxFormatError,
                     TrainingDiverged)
from .ndcore import derive_rng, derive_seed

ENV_DATA_DIR = "IMAE_DATA_DIR"
PRESETS = ("shallow200", "shallow1000", "deep")
SCALES = ("desk", "paper")
PROTOCOLS = ("robustness", "cluster", "codes")


class UsageError(Exception):
    pass


# --- experiment config -------------------------------------------------

def _grid_text(grid):
    return ",".join(f"{v:g}" for v in grid)


# section -> ordered keys; None defaults are resolved in resolve_config
_SCHEMA = {
    "experiment": {"seed": "12345", "out": "runs/experiment", "scale": "desk"},
    "data": {
        "dir": None,
        "dataset": "mnist",
        "train_images": CANONICAL_FILES["train_images"],
        "train_labels": CANONICAL_FILES["train_labels"],
        "test_images": CANONICAL_FILES["test_images"],
        "test_labels": CANONICAL_FILES["test_labels"],
    },
    "model": {"variant": "IMAE", "preset": "shallow200", "nh": "10",
              "lambda": None, "noise_kind": "mask", "noise_level": "0.3",
              "tied": None, "biases": "true"},
    "train": {"learning_rate": None, "epochs": None, "batch_size": "500",
              "shuffle": "false", "train_limit": None},
    "eval": {"protocol": "robustness", "iterations": "50", "n": "1000",
             "k": "10", "noise_kind": "gaussian", "noise_level": None,
             "mask_grid": _grid_text(reference.MASK_GRID),
             "gaussian_grid": _grid_text(reference.GAUSSIAN_GRID)},
}


@dataclass
class ExperimentConfig:
    seed: int
    out: str
    scale: str
    data_dir: str
    dataset: str
    files: dict
    variant: str
    preset: str
    nh: int
    lam: float
    noise_kind: str
    noise_level: float
    tied: bool
    biases: bool
    learning_rate: float
    epochs: int
    batch_size: int
    shuffle: bool
    train_limit: int
    eval_protocol: str
    eval_iterations: int
    eval_n: int
    eval_k: int
    eval_noise_kind: str
    eval_noise_level: float
    mask_grid: tuple
    gaussian_grid: tuple


def _parse_bool(text, key):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise UsageError(f"{key}: expected a boolean, got {text!r}")


def _parse_grid(text):
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def read_config_file(path) -> dict:
    """Raw string values from an INI file, validated against the schema.
    Unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is None:
        return {}
    if not parser.read(path):
        raise UsageError(f"config file not found: {path}")
    raw = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise UsageError(f"unknown config section [{section}]")
        for key, value in parser[section].items():
            if key not in _SCHEMA[section]:
                raise UsageError(f"unknown config key {section}.{key}")
            raw[f"{section}.{key}"] = value
    return raw


def resolve_config(raw: dict) -> ExperimentConfig:
    """Materialize every default into a complete configuration.

    Preset- and scale-dependent defaults (learning rate, epochs, subset size,
    evaluation noise) are filled here; explicit settings always win.
    """
    def get(section, key, fallback=None):
        value = raw.get(f"{section}.{key}")
        if value is None:
            value = _SCHEMA[section][key]
        if value is None:
            value = fallback
        return value

    scale = get("experiment", "scale")
    if scale not in SCALES:
        raise UsageError(f"experiment.scale must be one of {SCALES}, got {scale!r}")
    variant = get("model", "variant").upper()
    if variant not in objectives.VARIANTS:
        raise UsageError(f"model.variant must be one of {objectives.VARIANTS}, got {variant!r}")
    preset = get("model", "preset")
    if preset not in PRESETS:
        raise UsageError(f"model.preset must be one of {PRESETS}, got {preset!r}")
    dataset = get("data", "dataset")
    if dataset not in ("mnist", "fashion"):
        raise UsageError(f"data.dataset must be mnist or fashion, got {dataset!r}")
    shallow = preset.startswith("shallow")

    data_dir = raw.get("data.dir") or "./data"
    lam = get("model", "lambda", repr(objectives.DEFAULT_LAMBDA[variant]))
    tied = get("model", "tied", "true" if shallow else "false")
    learning_rate = get("train", "learning_rate", "0.05" if shallow else "0.005")
    if get("train", "epochs") is None:
        epochs = "2000" if scale == "paper" else ("300" if shallow else "150")
    else:
        epochs = get("train", "epochs")
    train_limit = get("train", "train_limit", "0" if scale == "paper" else "10000")
    eval_noise_level = get("eval", "noise_level",
                           "0.2" if shallow else repr(reference.TABLE3_NOISE_STD[dataset]))
    protocol = get("eval", "protocol")
    if protocol not in PROTOCOLS:
        raise UsageError(f"eval.protocol must be one of {PROTOCOLS}, got {protocol!r}")

    return ExperimentConfig(
        seed=int(get("experiment", "seed")),
        out=get("experiment", "out"),
        scale=scale,
        data_dir=data_dir,
        dataset=dataset,
        files={k: get("data", k) for k in CANONICAL_FILES},
        variant=variant,
        preset=preset,
        nh=int(get("model", "nh")),
        lam=float(lam),
        noise_kind=get("model", "noise_kind"),
        noise_level=float(get("model", "noise_level")),
        tied=_parse_bool(tied, "model.tied"),
        biases=_parse_bool(get("model", "biases"), "model.biases"),
        learning_rate=float(learning_rate),
        epochs=int(epochs),
        batch_size=int(get("train", "batch_size")),
        shuffle=_parse_bool(get("train", "shuffle"), "train.shuffle"),
        train_limit=int(train_limit),
        eval_protocol=protocol,
        eval_iterations=int(get("eval", "iterations")),
        eval_n=int(get("eval", "n")),
        eval_k=int(get("eval", "k")),
        eval_noise_kind=get("eval", "noise_kind"),
        eval_noise_level=float(eval_noise_level),
        mask_grid=_parse_grid(get("eval", "mask_grid")),
        gaussian_grid=_parse_grid(get("eval", "gaussian_grid")),
    )


def snapshot_text(cfg: ExperimentConfig) -> str:
    """The fully resolved configuration, every default materialized."""
    lines = ["[experiment]",
             f"seed = {cfg.seed}", f"out = {cfg.out}", f"scale = {cfg.scale}",
             "", "[data]", f"dir = {cfg.data_dir}", f"dataset = {cfg.dataset}"]
    lines += [f"{k} = {cfg.files[k]}" for k in CANONICAL_FILES]
    lines += ["", "[model]", f"variant = {cfg.variant}", f"preset = {cfg.preset}",
              f"nh = {cfg.nh}", f"lambda = {cfg.lam!r}",
              f"noise_kind = {cfg.noise_kind}", f"noise_level = {cfg.noise_level!r}",
              f"tied = {str(cfg.tied).lower()}", f"biases = {str(cfg.biases).lower()}",
              "", "[train]", f"learning_rate = {cfg.learning_rate!r}",
              f"epochs = {cfg.epochs}", f"batch_size = {cfg.batch_size}",
              f"shuffle = {str(cfg.shuffle).lower()}", f"train_limit = {cfg.train_limit}",
              "", "[eval]", f"protocol = {cfg.eval_protocol}",
              f"iterations = {cfg.eval_iterations}", f"n = {cfg.eval_n}",
              f"k = {cfg.eval_k}", f"noise_kind = {cfg.eval_noise_kind}",
              f"noise_level = {cfg.eval_noise_level!r}",
              f"mask_grid = {_grid_text(cfg.mask_grid)}",
              f"gaussian_grid = {_grid_text(cfg.gaussian_grid)}"]
    return "\n".join(lines) + "\n"


def snapshot_config(cfg: ExperimentConfig, path) -> str:
    text = snapshot_text(cfg)
    Path(path).write_text(text)
    return text


def preset_arch(cfg: ExperimentConfig) -> nn.Arch:
    if cfg.preset == "shallow200":
        return nn.shallow_arch(200)
    if cfg.preset == "shallow1000":
        return nn.shallow_arch(1000)
    return nn.deep_arch(cfg.nh)


def make_loss(cfg: ExperimentConfig) -> objectives.LossSpec:
    if cfg.variant == objectives.DAE:
        return objectives.LossSpec.dae(NoiseSpec(cfg.noise_kind, cfg.noise_level))
    return objectives.LossSpec(cfg.variant, lam=cfg.lam)


def make_train_config(cfg: ExperimentConfig, loss, seed) -> training.TrainConfig:
    """Training setup for one model; only shallow non-VAE decoders are tied."""
    tied = cfg.tied and cfg.preset.startswith("shallow") and loss.variant != objectives.VAE
    return training.TrainConfig(
        arch=preset_arch(cfg), loss=loss,
        learning_rate=cfg.learning_rate, epochs=cfg.epochs,
        batch_size=cfg.batch_size, tied=tied, seed=seed,
        biases=cfg.biases, shuffle=cfg.shuffle)


def checkpoint_model_section(tcfg: training.TrainConfig) -> dict:
    """The [model] settings a checkpoint was trained with, as raw config values.

    The preset is the one whose architecture equals the checkpoint's, with
    the deep preset's code size read from the latent width.
    """
    arch = tcfg.arch
    nh = arch.layers[arch.latent_index][0]
    base = resolve_config({})
    preset = next((p for p in PRESETS
                   if preset_arch(replace(base, preset=p, nh=nh)) == arch), None)
    if preset is None:
        raise UsageError(f"checkpoint architecture {arch.widths()} (latent index "
                         f"{arch.latent_index}) matches no preset of {PRESETS}")
    trained = dict(line.split(" = ", 1)
                   for line in training.config_to_text(tcfg).splitlines())
    section = {f"model.{k}": trained[k]
               for k in ("variant", "lambda", "noise_kind", "noise_level", "tied", "biases")}
    section["model.preset"] = preset
    if preset == "deep":
        section["model.nh"] = str(nh)
    return section


def model_tag(loss: objectives.LossSpec) -> str:
    if loss.variant == objectives.DAE:
        return "DAE-b" if loss.noise.kind == "mask" else "DAE-g"
    return loss.variant


def load_split(cfg: ExperimentConfig, split) -> Dataset:
    """Load the train or test IDX pair, erroring with the canonical names."""
    images = Path(cfg.data_dir) / cfg.files[f"{split}_images"]
    labels = Path(cfg.data_dir) / cfg.files[f"{split}_labels"]
    missing = [str(p) for p in (images, labels) if not p.is_file()]
    if missing:
        expected = ", ".join(CANONICAL_FILES.values())
        raise UsageError(
            f"dataset files not found: {missing}\n"
            f"expected IDX files under {cfg.data_dir} "
            f"(canonical names: {expected}); set {ENV_DATA_DIR} or data.dir")
    ds = load_idx(images, labels, name=cfg.dataset)
    if split == "train" and cfg.train_limit > 0:
        ds = Dataset(ds.images[:cfg.train_limit], ds.labels[:cfg.train_limit], ds.name)
    return ds


def _warn_paper_scale(cfg):
    if cfg.scale == "paper":
        print("warning: paper scale trains on the full set for 2000 epochs; "
              "expect hours of CPU time", file=sys.stderr)


# --- commands -----------------------------------------------------------

def _apply_overrides(raw, args):
    cli_data_dir = False
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        key = key.strip()
        section, _, name = key.partition(".")
        if section not in _SCHEMA or name not in _SCHEMA[section]:
            raise UsageError(f"unknown config key {key!r}")
        raw[key] = value.strip()
        cli_data_dir = cli_data_dir or key == "data.dir"
    if getattr(args, "seed", None) is not None:
        raw["experiment.seed"] = str(args.seed)
    if getattr(args, "out", None) is not None:
        raw["experiment.out"] = args.out
    if getattr(args, "scale", None) is not None:
        raw["experiment.scale"] = args.scale
    if getattr(args, "nh", None) is not None:
        raw["model.nh"] = str(args.nh)
    if getattr(args, "data_dir", None) is not None:
        raw["data.dir"] = args.data_dir
        cli_data_dir = True
    # precedence: command line > environment > config file > default
    if not cli_data_dir and os.environ.get(ENV_DATA_DIR):
        raw["data.dir"] = os.environ[ENV_DATA_DIR]
    return raw


def cmd_train(args) -> int:
    raw = _apply_overrides(read_config_file(args.config), args)
    cfg = resolve_config(raw)
    _warn_paper_scale(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    snapshot_config(cfg, out / "config.resolved.ini")
    train_ds = load_split(cfg, "train")
    tcfg = make_train_config(cfg, make_loss(cfg), derive_seed(cfg.seed, "train"))
    net, history = training.train(tcfg, train_ds)
    training.save_checkpoint(net, tcfg, out / "model.ckpt")
    history.to_csv(out / "history.csv")
    print(f"trained {model_tag(tcfg.loss)} ({cfg.preset}) for {cfg.epochs} epochs; "
          f"final loss {history.records[-1].total:.6g}")
    print(f"wrote {out / 'model.ckpt'}, {out / 'history.csv'}, "
          f"{out / 'config.resolved.ini'}")
    return 0


def robustness_specs(mask_grid, gaussian_grid):
    return ([NoiseSpec("mask", p) for p in mask_grid]
            + [NoiseSpec("gaussian", s) for s in gaussian_grid])


def cmd_eval(args) -> int:
    raw = _apply_overrides(read_config_file(args.config), args)
    if args.protocol:
        raw["eval.protocol"] = args.protocol
    for flag in ("iterations", "n", "k"):
        if getattr(args, flag, None) is not None:
            raw[f"eval.{flag}"] = str(getattr(args, flag))
    if args.noise_kind:
        raw["eval.noise_kind"] = args.noise_kind
    if args.noise_level is not None:
        raw["eval.noise_level"] = str(args.noise_level)
    net, tcfg = training.load_checkpoint(args.checkpoint)
    raw.update(checkpoint_model_section(tcfg))
    cfg = resolve_config(raw)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = snapshot_config(cfg, out / "config.resolved.ini")
    test_ds = load_split(cfg, "test")
    tag = model_tag(tcfg.loss)
    eval_seed = derive_seed(cfg.seed, "eval")

    if cfg.eval_protocol == "robustness":
        rows = evaluation.robustness_sweep(
            net, test_ds, robustness_specs(cfg.mask_grid, cfg.gaussian_grid),
            derive_rng(eval_seed, "robustness"))
        report = evaluation.EvalReport(model=tag, robustness=rows, seeds=[eval_seed])
        evaluation.robustness_to_csv(report, out / "robustness.csv")
        evaluation.report_to_json(report, out / "report.json", resolved)
        for row in rows:
            print(f"{tag:8s} {row.noise.describe():14s} mean L2 = {row.mean_l2:.3f}")
        print(f"wrote {out / 'robustness.csv'}, {out / 'report.json'}")
    elif cfg.eval_protocol == "cluster":
        noise = NoiseSpec(cfg.eval_noise_kind, cfg.eval_noise_level)
        report = evaluation.cluster_eval(
            net, test_ds, iterations=cfg.eval_iterations, n=cfg.eval_n,
            k=cfg.eval_k, noise=noise, seed=eval_seed, model_tag=tag)
        evaluation.cluster_to_csv(report, out / "cluster.csv")
        evaluation.report_to_json(report, out / "report.json", resolved)
        sp = "n/a" if report.sigma_prime is None else f"{report.sigma_prime:.4g}"
        rn = "n/a" if report.rand_noisy is None else f"{100 * report.rand_noisy:.1f}"
        print(f"{tag}: R = {100 * report.rand_clean:.1f}  R_nu = {rn}  sigma' = {sp}")
        print(f"wrote {out / 'cluster.csv'}, {out / 'report.json'}")
    else:  # codes
        evaluation.export_codes(net, test_ds, out / "codes.csv")
        print(f"wrote {out / 'codes.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    variants = list(objectives.VARIANTS) if args.variant == "all" else [args.variant]
    failed = False
    for variant in variants:
        worst = {}
        ok = True
        for s in range(args.seeds):
            result = gradcheck.check_variant(variant, derive_seed(args.seed, "gradcheck", s))
            ok = ok and result.passed
            for block in result.blocks:
                worst[block.name] = max(worst.get(block.name, 0.0), block.max_rel_err)
        status = "PASS" if ok else "FAIL"
        failed = failed or not ok
        detail = "  ".join(f"{name}:{err:.2e}" for name, err in sorted(worst.items()))
        print(f"{variant:5s} {status}  max rel err per block: {detail}")
    return 2 if failed else 0


def _train_and_eval_model(cfg, loss, train_ds, test_ds, out, cluster_iters,
                          cluster_noise, resolved=None):
    tag = model_tag(loss)
    tcfg = make_train_config(cfg, loss, derive_seed(cfg.seed, "train", tag))
    print(f"training {tag} ({cfg.preset}, {cfg.epochs} epochs, "
          f"lr {cfg.learning_rate:g}, batch {cfg.batch_size}) ...", flush=True)
    net, history = training.train(tcfg, train_ds)
    training.save_checkpoint(net, tcfg, out / f"{tag}.ckpt")
    history.to_csv(out / f"{tag}.history.csv")
    report = evaluation.cluster_eval(
        net, test_ds, iterations=cluster_iters, n=cfg.eval_n, k=cfg.eval_k,
        noise=cluster_noise, seed=derive_seed(cfg.seed, "eval", tag), model_tag=tag)
    evaluation.report_to_json(report, out / f"{tag}.cluster.json", resolved)
    return net, report


def _shallow_losses(cfg):
    return [
        objectives.LossSpec.ae(),
        objectives.LossSpec.cae(0.1),
        objectives.LossSpec.dae(NoiseSpec("mask", 0.3)),
        objectives.LossSpec.dae(NoiseSpec("gaussian", 0.3)),
        objectives.LossSpec.imae(cfg.lam if cfg.variant == objectives.IMAE else 1.0),
    ]


def _fmt(value, digits=6):
    return "" if value is None else f"{value:.{digits}g}"


def _pct(fraction):
    return f"{100 * fraction:.2f}"


def _write_metric_table(path, reports, metrics, published):
    """One column per model; each metric row is followed by its published value.

    ``metrics`` holds (label, report -> cell) pairs; ``published`` maps a model
    tag to {label: reference value}.
    """
    tags = list(reports)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric"] + tags)
        for label, cell in metrics:
            writer.writerow([label] + [cell(reports[t]) for t in tags])
            writer.writerow([f"{label}_reference"]
                            + [_fmt(published.get(t, {}).get(label)) for t in tags])


def cmd_reproduce(args) -> int:
    raw = _apply_overrides(read_config_file(args.config), args)
    if args.table in ("table1", "table2"):
        raw.setdefault("model.preset", "shallow200")
    else:
        raw["model.preset"] = "deep"
    cfg = resolve_config(raw)
    _warn_paper_scale(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = snapshot_config(cfg, out / "config.resolved.ini")
    print(f"resolved {cfg.scale} defaults: preset={cfg.preset} "
          f"train_limit={cfg.train_limit or 'all'} epochs={cfg.epochs} "
          f"lr={cfg.learning_rate:g} batch={cfg.batch_size} seed={cfg.seed}")
    train_ds = load_split(cfg, "train")
    test_ds = load_split(cfg, "test")
    hidden = preset_arch(cfg).layers[0][0] if cfg.preset.startswith("shallow") else None

    if args.table == "table1":
        ref = reference.TABLE1.get(hidden, {})
        specs = robustness_specs(cfg.mask_grid, cfg.gaussian_grid)
        with open(out / "table1.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["model", "noise_kind", "level", "mean_l2", "reference"])
            for loss in _shallow_losses(cfg):
                tag = model_tag(loss)
                net, _ = _train_and_eval_model(
                    cfg, loss, train_ds, test_ds, out, cluster_iters=1,
                    cluster_noise=None, resolved=resolved)
                rows = evaluation.robustness_sweep(
                    net, test_ds, specs,
                    derive_rng(derive_seed(cfg.seed, "eval", tag), "robustness"))
                grids = {"mask": cfg.mask_grid, "gaussian": cfg.gaussian_grid}
                for row in rows:
                    grid = grids[row.noise.kind]
                    ref_cell = ""
                    if tag in ref and row.noise.level in grid:
                        ref_cell = _fmt(ref[tag][row.noise.kind][grid.index(row.noise.level)])
                    writer.writerow([tag, row.noise.kind, f"{row.noise.level:g}",
                                     f"{row.mean_l2:.6g}", ref_cell])
        print(f"wrote {out / 'table1.csv'}")
        return 0

    if args.table == "table2":
        published = reference.TABLE2.get(hidden, {})
        noise = NoiseSpec("gaussian", cfg.eval_noise_level)
        iters = cfg.eval_iterations
        losses = _shallow_losses(cfg)
        metrics = (("R", lambda r: _pct(r.rand_clean)), ("R_nu", lambda r: _pct(r.rand_noisy)),
                   ("sigma_prime", lambda r: _fmt(r.sigma_prime)))
    else:  # table3
        published = {tag: dict(zip(("R", "R_noisy"), by_nh[cfg.nh]))
                     for tag, by_nh in reference.TABLE3[cfg.dataset].items() if cfg.nh in by_nh}
        noise = NoiseSpec("gaussian", reference.TABLE3_NOISE_STD[cfg.dataset])
        iters = cfg.eval_iterations if cfg.scale == "paper" else min(cfg.eval_iterations, 10)
        losses = [objectives.LossSpec.vae(), objectives.LossSpec.imae(1.0)]
        metrics = (("R", lambda r: _pct(r.rand_clean)), ("R_noisy", lambda r: _pct(r.rand_noisy)))
    reports = {}
    for loss in losses:
        _, report = _train_and_eval_model(
            cfg, loss, train_ds, test_ds, out, cluster_iters=iters,
            cluster_noise=noise, resolved=resolved)
        reports[report.model] = report
    path = out / f"{args.table}.csv"
    _write_metric_table(path, reports, metrics, published)
    print(f"wrote {path}")
    return 0


# --- parser -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common_flags(p):
    p.add_argument("--config", default=None, help="experiment config file (INI)")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--scale", choices=SCALES, default=None)
    p.add_argument("--nh", type=int, default=None, help="deep-preset code size")
    p.add_argument("--data-dir", default=None,
                   help=f"dataset directory (or set {ENV_DATA_DIR})")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override any config value (highest precedence)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imae", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model from a config file")
    _common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--noise-kind", choices=("none", "mask", "gaussian"), default=None)
    p.add_argument("--noise-level", type=float, default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--variant", default="all",
                   choices=("all",) + objectives.VARIANTS)
    p.add_argument("--seeds", type=int, default=20, help="number of random nets per variant")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("reproduce", help="retrain and tabulate one experiment table")
    p.add_argument("--table", required=True, choices=("table1", "table2", "table3"))
    _common_flags(p)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ConfigurationError, CheckpointFormatError, IdxFormatError,
            OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
