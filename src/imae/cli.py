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
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import evaluation, gradcheck, objectives, reference, training
from .config import (CONFIG_KEYS, KEYS, PRESETS, ExperimentConfig, read_config_file,
                     resolve_config, snapshot_text)
from .data import CANONICAL_FILES, Dataset, NoiseSpec, check_batch_size, load_idx, write_csv
from .errors import ConfigurationError, NumericalFailure, UsageError, check_range
from .ndcore import derive_rng, derive_seed

ENV_DATA_DIR = "IMAE_DATA_DIR"


# --- experiment config -------------------------------------------------

def start_run(cfg: ExperimentConfig):
    """Create the output directory and write the resolved snapshot to its
    config.resolved.ini; returns the directory and the snapshot text."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    text = snapshot_text(cfg)
    (out / "config.resolved.ini").write_text(text)
    return out, text


@contextmanager
def keys_of(fields: dict):
    """Raise a ConfigurationError about a field in ``fields`` again, prefixed by the
    config key that feeds it at this site (a NoiseSpec's level is fed by two keys)."""
    try:
        yield
    except ConfigurationError as e:
        if e.field not in fields:
            raise
        raise ConfigurationError(f"{fields[e.field]}: {e}", e.field) from None


@keys_of({**CONFIG_KEYS, "layers": "model.nh"})
def train_config(cfg: ExperimentConfig, seed, loss=None) -> training.TrainConfig:
    """One model's training settings, checked as they are built. The loss
    defaults to ``[model]``'s; ``model.lambda`` weights the variant it names,
    and ``model.tied`` ties any decoder without Gaussian-latent heads."""
    if loss is None:
        loss = objectives.LossSpec(cfg.variant, noise=NoiseSpec(cfg.noise_kind, cfg.noise_level)
                                   if objectives.VARIANTS[cfg.variant].noise else None)
    if loss.variant == cfg.variant:
        loss = replace(loss, lam=cfg.lam)
    return training.TrainConfig(
        arch=PRESETS[cfg.preset].arch(cfg.nh), loss=loss,
        learning_rate=cfg.learning_rate, epochs=cfg.epochs, batch_size=cfg.batch_size,
        tied=cfg.tied and not loss.record.heads, seed=seed, shuffle=cfg.shuffle)


def eval_noise(cfg: ExperimentConfig):
    """The eval protocol's corruption: Table 1's eight levels for the robustness
    sweep, the cluster noise (checked as it is built), or None for the codes export."""
    if cfg.eval_protocol == "cluster":
        with keys_of({"level": "eval.noise_level"}):
            return NoiseSpec(cfg.eval_noise_kind, cfg.eval_noise_level)
    if cfg.eval_protocol == "robustness":
        return ([NoiseSpec("mask", p) for p in reference.MASK_GRID]
                + [NoiseSpec("gaussian", s) for s in reference.GAUSSIAN_GRID])


def checkpoint_settings(tcfg: training.TrainConfig) -> dict:
    """The settings a checkpoint was trained with, as raw config values: each
    block key that is a config key, and the preset whose architecture equals
    the checkpoint's, with model.nh read from the latent width for the deep one."""
    arch = tcfg.arch
    nh = arch.layers[arch.latent_index][0]
    name = next((name for name, p in PRESETS.items() if p.arch(nh) == arch), None)
    if name is None:
        raise UsageError(f"checkpoint architecture {arch.widths()} (latent index "
                         f"{arch.latent_index}) matches no preset of {tuple(PRESETS)}")
    trained = {k: v for k, v in training.config_values(tcfg).items() if k in KEYS}
    trained["model.preset"] = name
    if PRESETS[name].width is None:
        trained["model.nh"] = str(nh)
    return trained


@keys_of(CONFIG_KEYS)
def load_split(cfg: ExperimentConfig, split, width) -> Dataset:
    """Load the train or test IDX pair, refuse images that are not ``width``
    pixels (the network's input), and check the settings that read its size."""
    limit = cfg.train_limit if split == "train" else 0
    check_range("train_limit", limit, 0, rule="train_limit must be >= 0 (0 is all rows)")
    images = Path(cfg.data_dir) / getattr(cfg, f"{split}_images")
    labels = Path(cfg.data_dir) / getattr(cfg, f"{split}_labels")
    missing = [str(p) for p in (images, labels) if not p.is_file()]
    if missing:
        expected = ", ".join(CANONICAL_FILES.values())
        raise UsageError(
            f"dataset files not found: {missing}\n"
            f"expected IDX files under {cfg.data_dir} "
            f"(canonical names: {expected}); set {ENV_DATA_DIR} or data.dir")
    ds = load_idx(images, labels)
    if ds.images.shape[1] != width:
        raise ConfigurationError(f"{images}: {ds.images.shape[1]} pixels per image, "
                                 f"but the network expects {width} inputs")
    if 0 < limit < len(ds):
        # copies, so the rows past the limit are freed when loading returns
        ds = Dataset(ds.images[:limit].copy(), ds.labels[:limit].copy())
    if split == "train":
        check_batch_size(cfg.batch_size, len(ds))
    elif cfg.eval_protocol == "cluster":
        evaluation.check_cluster_settings(cfg.eval_iterations, cfg.eval_n, cfg.eval_k,
                                          ds.labels)
    return ds


def _warn_paper_scale(cfg):
    if cfg.scale == "paper":
        rows = f"at most {cfg.train_limit}" if cfg.train_limit else "all the"
        print(f"warning: paper scale trains {cfg.epochs} epochs on {rows} training images",
              file=sys.stderr)


# --- commands -----------------------------------------------------------

def _apply_overrides(raw, args):
    """Layer the command line over a config file's raw values. Flags (each an
    alias of one key) apply first and --set last, so --set wins. A dataset
    directory from either beats IMAE_DATA_DIR, which beats the config file."""
    given = {k: v for k, v in vars(args).items() if k in KEYS and v is not None}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        key = key.strip()
        if key not in KEYS:
            raise UsageError(f"unknown config key {key!r}")
        given[key] = value.strip()
    if "data.dir" not in given and os.environ.get(ENV_DATA_DIR):
        raw["data.dir"] = os.environ[ENV_DATA_DIR]
    raw.update(given)
    return raw


def train_and_save(cfg, tcfg, train_ds, checkpoint, history_csv):
    """The train step of ``train`` and ``reproduce``: train one model under
    ``tcfg``, then write its checkpoint and loss history."""
    print(f"training {tcfg.loss.tag} ({cfg.preset}, {cfg.epochs} epochs, "
          f"lr {cfg.learning_rate:g}, batch {cfg.batch_size}) ...", flush=True)
    net, records = training.train(tcfg, train_ds)
    training.save_checkpoint(net, tcfg, checkpoint)
    training.write_history(records, history_csv)
    print(f"final loss {records[-1].total:.6g}; wrote {checkpoint}, {history_csv}")
    return net


@contextmanager
def naming(tag):
    """Raise a NumericalFailure again, its message prefixed by the model ``tag``."""
    try:
        yield
    except NumericalFailure as e:
        raise NumericalFailure(f"{tag}: {e}") from None


def evaluate(cfg, noise, net, test_ds, seed, tag):
    """The evaluate step of ``eval`` and ``reproduce``: the report of the protocol
    ``cfg`` names, run with its ``eval_noise`` on one network. A numerical
    failure (a non-finite robustness row or code, overflowing K-means weights)
    names ``tag``; a capped K-means fit warns on stderr."""
    with naming(tag):
        if cfg.eval_protocol == "robustness":
            rows = evaluation.robustness_sweep(net, test_ds, noise, derive_rng(seed, "robustness"))
            return evaluation.RobustnessReport(tag, [seed], rows)
        report = evaluation.cluster_eval(
            net, test_ds, iterations=cfg.eval_iterations, n=cfg.eval_n, k=cfg.eval_k,
            noise=noise, seed=seed, model_tag=tag)
    if report.kmeans_capped:
        print(f"warning: {tag}: {report.kmeans_capped} K-means run(s) stopped unconverged "
              f"after {evaluation.KMEANS_MAX_ITERS} Lloyd iterations", file=sys.stderr)
    return report


# Each command resolves its config, builds the objects that check it, loads
# the splits (checking their image width and the settings that need their
# sizes), then creates out.

def cmd_train(args) -> int:
    cfg = resolve_config(_apply_overrides(read_config_file(args.config), args))
    _warn_paper_scale(cfg)
    tcfg = train_config(cfg, derive_seed(cfg.seed, "train"))
    train_ds = load_split(cfg, "train", tcfg.arch.widths()[0])
    out, _ = start_run(cfg)
    train_and_save(cfg, tcfg, train_ds, out / "model.ckpt", out / "history.csv")
    return 0


def cmd_eval(args) -> int:
    raw = _apply_overrides(read_config_file(args.config), args)
    net, tcfg = training.load_checkpoint(args.checkpoint)
    raw.update(checkpoint_settings(tcfg))
    cfg = resolve_config(raw)
    noise = eval_noise(cfg)
    test_ds = load_split(cfg, "test", tcfg.arch.widths()[0])
    out, resolved = start_run(cfg)
    if cfg.eval_protocol == "codes":
        with naming(tcfg.loss.tag):
            evaluation.export_codes(net, test_ds, out / "codes.csv")
        print(f"wrote {out / 'codes.csv'}")
        return 0
    report = evaluate(cfg, noise, net, test_ds, derive_seed(cfg.seed, "eval"), tcfg.loss.tag)
    csv_path = out / f"{cfg.eval_protocol}.csv"
    if cfg.eval_protocol == "robustness":
        evaluation.robustness_to_csv(report, csv_path)
        for row in report.robustness:
            level = f"{row.kind} {row.level:g}"
            print(f"{report.model:8s} {level:14s} mean L2 = {row.mean_l2:.3f}")
    else:
        evaluation.cluster_to_csv(report, csv_path)
        sp = "n/a" if report.sigma_prime is None else f"{report.sigma_prime:.4g}"
        rn = "n/a" if report.rand_noisy is None else f"{100 * report.rand_noisy:.1f}"
        print(f"{report.model}: R = {100 * report.rand_clean:.1f}  R_nu = {rn}  sigma' = {sp}")
    evaluation.report_to_json(report, out / "report.json", resolved)
    print(f"wrote {csv_path}, {out / 'report.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:  # no net checked is no pass
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    variants = list(objectives.VARIANTS) if args.variant == "all" else [args.variant]
    failed = False
    for variant in variants:
        worst = {}
        ok = True
        for s in range(args.seeds):
            for result in gradcheck.gate(variant, derive_seed(args.seed, "gradcheck", s)):
                ok = ok and result.passed
                for block in result.blocks:
                    worst[block.name] = max(worst.get(block.name, 0.0), block.max_rel_err)
        status = "PASS" if ok else "FAIL"
        failed = failed or not ok
        detail = "  ".join(f"{name}:{err:.2e}" for name, err in sorted(worst.items()))
        print(f"{variant:5s} {status}  max rel err per block: {detail}")
    return 2 if failed else 0


def _fmt(value):
    return "" if value is None else f"{value:.6g}"


def _pct(fraction):
    return f"{100 * fraction:.2f}"


def _robustness_rows(reports, published):
    """Long rows, one per model and corruption level of Table 1; the reference
    is the published mean L2 at that level, blank for a model the paper did not run."""
    yield ["model", "noise_kind", "level", "mean_l2", "reference"]
    for tag, report in reports.items():
        for row in report.robustness:
            grid = reference.MASK_GRID if row.kind == "mask" else reference.GAUSSIAN_GRID
            ref = _fmt(published[tag][row.kind][grid.index(row.level)]) if tag in published else ""
            yield [tag, row.kind, f"{row.level:g}", f"{row.mean_l2:.6g}", ref]


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
    settings: dict       # raw {key: text} of what defines the table; beats every other source
    losses: tuple        # the LossSpec of each model, in column order
    published: Callable  # config -> reference values, by model tag
    rows: Callable       # (reports by tag, published) -> the CSV rows, header first


_SHALLOW = (objectives.LossSpec("AE"), objectives.LossSpec("CAE"),
            objectives.LossSpec("DAE", noise=NoiseSpec("mask", 0.3)),
            objectives.LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
            objectives.LossSpec("IMAE"))
_R = ("R", lambda r: _pct(r.rand_clean))
_CLUSTER = {"eval.protocol": "cluster", "eval.noise_kind": "gaussian"}

TABLES = {
    "table1": Table(
        settings={"eval.protocol": "robustness"},
        losses=_SHALLOW,
        published=lambda cfg: reference.TABLE1.get(PRESETS[cfg.preset].width, {}),
        rows=_robustness_rows),
    "table2": Table(
        settings=_CLUSTER,
        losses=_SHALLOW,
        published=lambda cfg: reference.TABLE2.get(PRESETS[cfg.preset].width, {}),
        rows=partial(_metric_rows, (_R, ("R_nu", lambda r: _pct(r.rand_noisy)),
                                    ("sigma_prime", lambda r: _fmt(r.sigma_prime))))),
    "table3": Table(
        settings={**_CLUSTER, "model.preset": "deep"},
        losses=(objectives.LossSpec("VAE"), objectives.LossSpec("IMAE")),
        published=lambda cfg: {tag: dict(zip(("R", "R_noisy"), by_nh[cfg.nh]))
                               for tag, by_nh in reference.TABLE3[cfg.dataset].items()
                               if cfg.nh in by_nh},
        rows=partial(_metric_rows, (_R, ("R_noisy", lambda r: _pct(r.rand_noisy))))),
}


def cmd_reproduce(args) -> int:
    table = TABLES[args.table]
    raw = _apply_overrides(read_config_file(args.config), args)
    cfg = resolve_config({**raw, **table.settings})
    _warn_paper_scale(cfg)
    tcfgs = [train_config(cfg, derive_seed(cfg.seed, "train", loss.tag), loss)
             for loss in table.losses]
    noise = eval_noise(cfg)
    print(f"resolved {cfg.scale} defaults: preset={cfg.preset} "
          f"train_limit={cfg.train_limit or 'all'} epochs={cfg.epochs} "
          f"lr={cfg.learning_rate:g} batch={cfg.batch_size} seed={cfg.seed}")
    width = tcfgs[0].arch.widths()[0]  # every model of a table reads one image size
    train_ds = load_split(cfg, "train", width)
    test_ds = load_split(cfg, "test", width)
    out, resolved = start_run(cfg)
    reports = {}
    for tcfg in tcfgs:
        tag = tcfg.loss.tag
        net = train_and_save(cfg, tcfg, train_ds, out / f"{tag}.ckpt", out / f"{tag}.history.csv")
        reports[tag] = evaluate(cfg, noise, net, test_ds, derive_seed(cfg.seed, "eval", tag), tag)
        evaluation.report_to_json(reports[tag], out / f"{tag}.{cfg.eval_protocol}.json", resolved)
    path = out / f"{args.table}.csv"
    rows = table.rows(reports, table.published(cfg))
    write_csv(path, next(rows), rows)  # the first row is the header
    print(f"wrote {path}")
    return 0


# --- parser -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common_flags(p):
    """Each flag is an alias of the config key it names as its dest."""
    p.add_argument("--config", default=None, help="experiment config file (INI)")
    p.add_argument("--seed", dest="experiment.seed", help="master seed")
    p.add_argument("--out", dest="experiment.out", help="output directory")
    p.add_argument("--scale", dest="experiment.scale")
    p.add_argument("--nh", dest="model.nh", help="deep-preset code size")
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
    p.add_argument("--protocol", dest="eval.protocol")
    p.add_argument("--iterations", dest="eval.iterations")
    p.add_argument("--n", dest="eval.n")
    p.add_argument("--k", dest="eval.k")
    p.add_argument("--noise-kind", dest="eval.noise_kind")
    p.add_argument("--noise-level", dest="eval.noise_level")
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
    except (OSError, ValueError) as e:  # ConfigurationError and the format errors too
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalFailure as e:  # TrainingDiverged too
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
