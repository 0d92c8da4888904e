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
from dataclasses import make_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import evaluation, gradcheck, nn, objectives, reference, training
from .data import CANONICAL_FILES, Dataset, NoiseSpec, load_idx
from .errors import (CheckpointFormatError, ConfigurationError, IdxFormatError,
                     TrainingDiverged)
from .ndcore import derive_rng, derive_seed
from .training import BOOL, FLOAT, INT, TEXT

ENV_DATA_DIR = "IMAE_DATA_DIR"
PRESETS = ("shallow200", "shallow1000", "deep")
SCALES = ("desk", "paper")
PROTOCOLS = ("robustness", "cluster", "codes")
DATASETS = ("mnist", "fashion")


class UsageError(Exception):
    pass


# --- experiment config -------------------------------------------------

GRID = (lambda text: tuple(float(v) for v in text.split(",") if v.strip() != ""),
        lambda grid: ",".join(f"{v:g}" for v in grid))
VARIANT = (str.upper, str)

# section -> key -> (ExperimentConfig field, (parse, format), default). Every
# config text goes through this one table: INI files, --set, the flags (each
# an alias of one key) and the resolved snapshot. None defaults depend on
# other keys and are filled by _derived_defaults.
_SCHEMA = {
    "experiment": {
        "seed": ("seed", INT, 12345),
        "out": ("out", TEXT, "runs/experiment"),
        "scale": ("scale", TEXT, "desk"),
    },
    "data": {
        "dir": ("data_dir", TEXT, "./data"),
        "dataset": ("dataset", TEXT, "mnist"),
        **{key: (key, TEXT, name) for key, name in CANONICAL_FILES.items()},
    },
    "model": {
        "variant": ("variant", VARIANT, "IMAE"),
        "preset": ("preset", TEXT, "shallow200"),
        "nh": ("nh", INT, 10),
        "lambda": ("lam", FLOAT, None),
        "noise_kind": ("noise_kind", TEXT, "mask"),
        "noise_level": ("noise_level", FLOAT, 0.3),
        "tied": ("tied", BOOL, None),
        "biases": ("biases", BOOL, True),
    },
    "train": {
        "learning_rate": ("learning_rate", FLOAT, None),
        "epochs": ("epochs", INT, None),
        "batch_size": ("batch_size", INT, 500),
        "shuffle": ("shuffle", BOOL, False),
        "train_limit": ("train_limit", INT, None),
    },
    "eval": {
        "protocol": ("eval_protocol", TEXT, "robustness"),
        "iterations": ("eval_iterations", INT, 50),
        "n": ("eval_n", INT, 1000),
        "k": ("eval_k", INT, 10),
        "noise_kind": ("eval_noise_kind", TEXT, "gaussian"),
        "noise_level": ("eval_noise_level", FLOAT, None),
        "mask_grid": ("mask_grid", GRID, reference.MASK_GRID),
        "gaussian_grid": ("gaussian_grid", GRID, reference.GAUSSIAN_GRID),
    },
}
_KEYS = {f"{section}.{key}": entry
         for section, keys in _SCHEMA.items() for key, entry in keys.items()}

_CHOICES = {"experiment.scale": SCALES, "model.variant": tuple(objectives.VARIANTS),
            "model.preset": PRESETS, "data.dataset": DATASETS, "eval.protocol": PROTOCOLS}

ExperimentConfig = make_dataclass(
    "ExperimentConfig", [field for field, _, _ in _KEYS.values()],
    namespace={"__module__": __name__,
               "__doc__": "A fully resolved configuration: one field per _SCHEMA key."})


def _derived_defaults(values) -> dict:
    """Defaults that depend on the preset, scale, variant or dataset."""
    shallow = values["model.preset"].startswith("shallow")
    paper = values["experiment.scale"] == "paper"
    return {
        "model.lambda": objectives.VARIANTS[values["model.variant"]].lam,
        "model.tied": shallow,
        "train.learning_rate": 0.05 if shallow else 0.005,
        "train.epochs": 2000 if paper else (300 if shallow else 150),
        "train.train_limit": 0 if paper else 10000,
        "eval.noise_level": 0.2 if shallow else reference.TABLE3_NOISE_STD[values["data.dataset"]],
    }


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

    ``raw`` maps "section.key" to text. Each value is parsed by its schema
    codec; keys it lacks take the schema default, or the derived default
    for the preset, scale, variant and dataset. Explicit settings always win.
    """
    values = {}
    for key, (_, (parse, _), default) in _KEYS.items():
        try:
            values[key] = parse(raw[key]) if key in raw else default
        except ValueError as e:
            raise UsageError(f"{key}: {e}") from None
    for key, allowed in _CHOICES.items():
        if values[key] not in allowed:
            raise UsageError(f"{key} must be one of {allowed}, got {values[key]!r}")
    for key, value in _derived_defaults(values).items():
        if values[key] is None:
            values[key] = value
    return ExperimentConfig(**{_KEYS[key][0]: value for key, value in values.items()})


def snapshot_text(cfg: ExperimentConfig) -> str:
    """The fully resolved configuration, every default materialized; it reads
    back through read_config_file and resolve_config to the same config."""
    return "\n".join(
        f"[{section}]\n" + "".join(f"{key} = {fmt(getattr(cfg, field))}\n"
                                   for key, (field, (_, fmt), _) in keys.items())
        for section, keys in _SCHEMA.items())


def start_run(cfg: ExperimentConfig):
    """Create the output directory and write the resolved snapshot to its
    config.resolved.ini; returns the directory and the snapshot text."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    text = snapshot_text(cfg)
    (out / "config.resolved.ini").write_text(text)
    return out, text


def preset_arch(preset, nh) -> nn.Arch:
    if preset == "shallow200":
        return nn.shallow_arch(200)
    if preset == "shallow1000":
        return nn.shallow_arch(1000)
    return nn.deep_arch(nh)


def make_loss(cfg: ExperimentConfig) -> objectives.LossSpec:
    """The loss of ``[model]``; its noise applies to a variant that takes one."""
    takes_noise = objectives.VARIANTS[cfg.variant].noise
    noise = NoiseSpec(cfg.noise_kind, cfg.noise_level) if takes_noise else None
    return objectives.LossSpec(cfg.variant, lam=cfg.lam, noise=noise)


def checkpoint_model_section(tcfg: training.TrainConfig) -> dict:
    """The [model] settings a checkpoint was trained with, as raw config values.

    The preset is the one whose architecture equals the checkpoint's, with
    the deep preset's code size read from the latent width.
    """
    arch = tcfg.arch
    nh = arch.layers[arch.latent_index][0]
    preset = next((p for p in PRESETS if preset_arch(p, nh) == arch), None)
    if preset is None:
        raise UsageError(f"checkpoint architecture {arch.widths()} (latent index "
                         f"{arch.latent_index}) matches no preset of {PRESETS}")
    trained = training.config_values(tcfg)
    section = {f"model.{k}": trained[k]
               for k in ("variant", "lambda", "noise_kind", "noise_level", "tied", "biases")}
    section["model.preset"] = preset
    if preset == "deep":
        section["model.nh"] = str(nh)
    return section


def load_split(cfg: ExperimentConfig, split) -> Dataset:
    """Load the train or test IDX pair, erroring with the canonical names."""
    images = Path(cfg.data_dir) / getattr(cfg, f"{split}_images")
    labels = Path(cfg.data_dir) / getattr(cfg, f"{split}_labels")
    missing = [str(p) for p in (images, labels) if not p.is_file()]
    if missing:
        expected = ", ".join(CANONICAL_FILES.values())
        raise UsageError(
            f"dataset files not found: {missing}\n"
            f"expected IDX files under {cfg.data_dir} "
            f"(canonical names: {expected}); set {ENV_DATA_DIR} or data.dir")
    ds = load_idx(images, labels, name=cfg.dataset)
    limit = cfg.train_limit if split == "train" else 0
    if 0 < limit < len(ds):
        # copies, so the rows past the limit are freed when loading returns
        ds = Dataset(ds.images[:limit].copy(), ds.labels[:limit].copy(), ds.name)
    return ds


def _warn_paper_scale(cfg):
    if cfg.scale == "paper":
        print("warning: paper scale trains on the full set for 2000 epochs; "
              "expect hours of CPU time", file=sys.stderr)


# --- commands -----------------------------------------------------------

def _apply_overrides(raw, args):
    """Layer the command line over a config file's raw values. Flags (each an
    alias of one key) apply first and --set last, so --set wins. A dataset
    directory from either beats IMAE_DATA_DIR, which beats the config file."""
    given = {key: str(value) for key, value in vars(args).items()
             if key in _KEYS and value is not None}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        key = key.strip()
        if key not in _KEYS:
            raise UsageError(f"unknown config key {key!r}")
        given[key] = value.strip()
    if "data.dir" not in given and os.environ.get(ENV_DATA_DIR):
        raw["data.dir"] = os.environ[ENV_DATA_DIR]
    raw.update(given)
    return raw


def train_and_save(cfg, loss, seed, train_ds, checkpoint, history_csv):
    """The train step of ``train`` and ``reproduce``: train one model under
    ``cfg``, then write its checkpoint and loss history. Only shallow decoders
    without Gaussian-latent heads are tied."""
    tied = cfg.tied and cfg.preset.startswith("shallow") and not loss.record.heads
    tcfg = training.TrainConfig(
        arch=preset_arch(cfg.preset, cfg.nh), loss=loss,
        learning_rate=cfg.learning_rate, epochs=cfg.epochs,
        batch_size=cfg.batch_size, tied=tied, seed=seed,
        biases=cfg.biases, shuffle=cfg.shuffle)
    print(f"training {loss.tag} ({cfg.preset}, {cfg.epochs} epochs, "
          f"lr {cfg.learning_rate:g}, batch {cfg.batch_size}) ...", flush=True)
    net, history = training.train(tcfg, train_ds)
    training.save_checkpoint(net, tcfg, checkpoint)
    history.to_csv(history_csv)
    print(f"final loss {history.records[-1].total:.6g}; wrote {checkpoint}, {history_csv}")
    return net


def evaluate(cfg, net, test_ds, seed, tag) -> evaluation.EvalReport:
    """The evaluate step of ``eval`` and ``reproduce``: run the robustness or
    cluster protocol that ``cfg`` names on one network."""
    if cfg.eval_protocol == "robustness":
        specs = ([NoiseSpec("mask", p) for p in cfg.mask_grid]
                 + [NoiseSpec("gaussian", s) for s in cfg.gaussian_grid])
        rows = evaluation.robustness_sweep(net, test_ds, specs, derive_rng(seed, "robustness"))
        return evaluation.EvalReport(model=tag, robustness=rows, seeds=[seed])
    return evaluation.cluster_eval(
        net, test_ds, iterations=cfg.eval_iterations, n=cfg.eval_n, k=cfg.eval_k,
        noise=NoiseSpec(cfg.eval_noise_kind, cfg.eval_noise_level), seed=seed, model_tag=tag)


def cmd_train(args) -> int:
    cfg = resolve_config(_apply_overrides(read_config_file(args.config), args))
    _warn_paper_scale(cfg)
    out, _ = start_run(cfg)
    train_and_save(cfg, make_loss(cfg), derive_seed(cfg.seed, "train"),
                   load_split(cfg, "train"), out / "model.ckpt", out / "history.csv")
    return 0


def cmd_eval(args) -> int:
    raw = _apply_overrides(read_config_file(args.config), args)
    net, tcfg = training.load_checkpoint(args.checkpoint)
    raw.update(checkpoint_model_section(tcfg))
    cfg = resolve_config(raw)
    out, resolved = start_run(cfg)
    test_ds = load_split(cfg, "test")
    if cfg.eval_protocol == "codes":
        evaluation.export_codes(net, test_ds, out / "codes.csv")
        print(f"wrote {out / 'codes.csv'}")
        return 0
    report = evaluate(cfg, net, test_ds, derive_seed(cfg.seed, "eval"), tcfg.loss.tag)
    csv_path = out / f"{cfg.eval_protocol}.csv"
    if cfg.eval_protocol == "robustness":
        evaluation.robustness_to_csv(report, csv_path)
        for row in report.robustness:
            print(f"{report.model:8s} {row.noise.describe():14s} mean L2 = {row.mean_l2:.3f}")
    else:
        evaluation.cluster_to_csv(report, csv_path)
        sp = "n/a" if report.sigma_prime is None else f"{report.sigma_prime:.4g}"
        rn = "n/a" if report.rand_noisy is None else f"{100 * report.rand_noisy:.1f}"
        print(f"{report.model}: R = {100 * report.rand_clean:.1f}  R_nu = {rn}  sigma' = {sp}")
    evaluation.report_to_json(report, out / "report.json", resolved)
    print(f"wrote {csv_path}, {out / 'report.json'}")
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


def _first_width(cfg):
    """Width of the first hidden layer, the key of tables 1 and 2."""
    return preset_arch(cfg.preset, cfg.nh).layers[0][0]


def _fmt(value):
    return "" if value is None else f"{value:.6g}"


def _pct(fraction):
    return f"{100 * fraction:.2f}"


def _robustness_rows(reports, published):
    """Long rows, one per model and corruption level; the reference is the
    published mean L2 at that level, blank for a level the paper did not run."""
    yield ["model", "noise_kind", "level", "mean_l2", "reference"]
    for tag, report in reports.items():
        for row in report.robustness:
            kind, level = row.noise.kind, row.noise.level
            grid = reference.MASK_GRID if kind == "mask" else reference.GAUSSIAN_GRID
            ref = (_fmt(published[tag][kind][grid.index(level)])
                   if tag in published and level in grid else "")
            yield [tag, kind, f"{level:g}", f"{row.mean_l2:.6g}", ref]


def _metric_rows(metrics, reports, published):
    """One column per model; each metric row is followed by its published value.
    ``metrics`` holds (label, report -> cell) pairs; ``published`` maps a model
    tag to {label: reference value}."""
    yield ["metric"] + list(reports)
    for label, cell in metrics:
        yield [label] + [cell(report) for report in reports.values()]
        yield [f"{label}_reference"] + [_fmt(published.get(tag, {}).get(label))
                                        for tag in reports]


class Table(NamedTuple):
    """One table of the paper, declared as data for ``reproduce``."""
    settings: Callable   # config -> raw {key: text}; beats every other source
    losses: tuple        # the LossSpec of each model, in column order
    published: Callable  # config -> reference values, by model tag
    rows: Callable       # (reports by tag, published) -> the CSV rows


_SHALLOW = (objectives.LossSpec("AE"), objectives.LossSpec("CAE"),
            objectives.LossSpec("DAE", noise=NoiseSpec("mask", 0.3)),
            objectives.LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
            objectives.LossSpec("IMAE"))
_R = ("R", lambda r: _pct(r.rand_clean))
_CLUSTER = {"eval.protocol": "cluster", "eval.noise_kind": "gaussian"}

TABLES = {
    "table1": Table(
        settings=lambda cfg: {"eval.protocol": "robustness"},
        losses=_SHALLOW,
        published=lambda cfg: reference.TABLE1.get(_first_width(cfg), {}),
        rows=_robustness_rows),
    "table2": Table(
        settings=lambda cfg: _CLUSTER,
        losses=_SHALLOW,
        published=lambda cfg: reference.TABLE2.get(_first_width(cfg), {}),
        rows=partial(_metric_rows, (_R, ("R_nu", lambda r: _pct(r.rand_noisy)),
                                    ("sigma_prime", lambda r: _fmt(r.sigma_prime))))),
    "table3": Table(
        settings=lambda cfg: {
            **_CLUSTER, "model.preset": "deep",
            "eval.noise_level": repr(reference.TABLE3_NOISE_STD[cfg.dataset]),
            "eval.iterations": str(cfg.eval_iterations if cfg.scale == "paper"
                                   else min(cfg.eval_iterations, 10))},
        losses=(objectives.LossSpec("VAE"), objectives.LossSpec("IMAE")),
        published=lambda cfg: {tag: dict(zip(("R", "R_noisy"), by_nh[cfg.nh]))
                               for tag, by_nh in reference.TABLE3[cfg.dataset].items()
                               if cfg.nh in by_nh},
        rows=partial(_metric_rows, (_R, ("R_noisy", lambda r: _pct(r.rand_noisy))))),
}


def cmd_reproduce(args) -> int:
    table = TABLES[args.table]
    raw = _apply_overrides(read_config_file(args.config), args)
    # resolved twice: a table's settings may read the config they override
    cfg = resolve_config({**raw, **table.settings(resolve_config(raw))})
    _warn_paper_scale(cfg)
    out, resolved = start_run(cfg)
    print(f"resolved {cfg.scale} defaults: preset={cfg.preset} "
          f"train_limit={cfg.train_limit or 'all'} epochs={cfg.epochs} "
          f"lr={cfg.learning_rate:g} batch={cfg.batch_size} seed={cfg.seed}")
    train_ds = load_split(cfg, "train")
    test_ds = load_split(cfg, "test")
    reports = {}
    for loss in table.losses:
        if loss.variant == cfg.variant:  # model.lambda weights the variant it names
            loss = replace(loss, lam=cfg.lam)
        tag = loss.tag
        net = train_and_save(cfg, loss, derive_seed(cfg.seed, "train", tag), train_ds,
                             out / f"{tag}.ckpt", out / f"{tag}.history.csv")
        reports[tag] = evaluate(cfg, net, test_ds, derive_seed(cfg.seed, "eval", tag), tag)
        if cfg.eval_protocol == "cluster":
            evaluation.report_to_json(reports[tag], out / f"{tag}.cluster.json", resolved)
    path = out / f"{args.table}.csv"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(table.rows(reports, table.published(cfg)))
    print(f"wrote {path}")
    return 0


# --- parser -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common_flags(p):
    """Each flag is an alias of the config key it names as its dest."""
    p.add_argument("--config", default=None, help="experiment config file (INI)")
    p.add_argument("--seed", dest="experiment.seed", type=int, help="master seed")
    p.add_argument("--out", dest="experiment.out", help="output directory")
    p.add_argument("--scale", dest="experiment.scale", choices=SCALES)
    p.add_argument("--nh", dest="model.nh", type=int, help="deep-preset code size")
    p.add_argument("--data-dir", dest="data.dir",
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
    p.add_argument("--protocol", dest="eval.protocol", choices=PROTOCOLS)
    p.add_argument("--iterations", dest="eval.iterations", type=int)
    p.add_argument("--n", dest="eval.n", type=int)
    p.add_argument("--k", dest="eval.k", type=int)
    p.add_argument("--noise-kind", dest="eval.noise_kind", choices=("none", "mask", "gaussian"))
    p.add_argument("--noise-level", dest="eval.noise_level", type=float)
    _common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--variant", default="all",
                   choices=("all", *objectives.VARIANTS))
    p.add_argument("--seeds", type=int, default=20, help="number of random nets per variant")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("reproduce", help="retrain and tabulate one experiment table")
    p.add_argument("--table", required=True, choices=tuple(TABLES))
    _common_flags(p)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
