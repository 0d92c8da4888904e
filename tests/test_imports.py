"""Which scipy modules each command loads, and which imae modules each
imae module imports.

The package itself loads no scipy module: its sigmoid is numpy's. Only the
cluster protocol loads scipy, on its first K-means call: scipy.spatial (with
the scipy.linalg it loads) and scipy.optimize, which both load scipy.special.
On a 2-core x86-64 machine (Python 3.11, numpy 2.4, scipy 1.17) that first
call costs about 0.5 s and 41 MB of resident memory, while
``import imae, imae.cli`` takes about 0.3 s and 36 MB (numpy alone: 0.2 s,
27 MB). Each command runs in a fresh interpreter, because this process has
imported scipy already (tests/test_evaluation.py imports cdist).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imae

# run a command (if any) after importing the package, then print what is loaded
PROBE = """
import json, sys
import imae, imae.cli
code = imae.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def scipy_modules(modules):
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


def probe(argv, cwd):
    src = str(Path(imae.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return result["modules"]


@pytest.fixture(scope="module")
def trained(idx_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    modules = probe(["train", "--data-dir", str(idx_dir), "--out", str(out / "train"),
                     "--set", "model.variant=AE", "--set", "train.epochs=1",
                     "--set", "train.batch_size=100", "--set", "train.train_limit=200"], out)
    return out, modules


def test_train_loads_no_cluster_stack(trained):
    _, modules = trained
    assert scipy_modules(modules) == []


@pytest.mark.parametrize("argv", [
    [],
    ["gradcheck", "--variant", "all", "--seeds", "1"],
], ids=["import", "gradcheck"])
def test_command_loads_no_cluster_stack(tmp_path, argv):
    assert scipy_modules(probe(argv, tmp_path)) == []


@pytest.mark.parametrize("protocol", ["robustness", "codes"])
def test_eval_without_clustering_loads_no_cluster_stack(trained, idx_dir, protocol):
    out, _ = trained
    modules = probe(["eval", "--checkpoint", str(out / "train" / "model.ckpt"),
                     "--data-dir", str(idx_dir), "--out", str(out / protocol),
                     "--protocol", protocol], out)
    assert scipy_modules(modules) == []


def test_cluster_eval_loads_the_cluster_stacks(trained, idx_dir):
    # the control: the probe does see scipy when a command needs it
    out, _ = trained
    modules = probe(["eval", "--checkpoint", str(out / "train" / "model.ckpt"),
                     "--data-dir", str(idx_dir), "--out", str(out / "cluster"),
                     "--protocol", "cluster", "--iterations", "1", "--n", "100"], out)
    assert {"scipy.linalg", "scipy.optimize", "scipy.spatial.distance",
            "scipy.special"} <= set(modules)


def sibling_imports(module):
    """imae module -> the names ``module`` imports from it (empty for ``from . import``)."""
    tree = ast.parse((Path(imae.__file__).parent / f"{module}.py").read_text())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    found.setdefault(alias.name, set())
            else:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_config_sits_below_cli_and_training():
    # so training and cli can both read the one schema
    assert set(sibling_imports("config")) <= {"nn", "objectives", "reference", "data", "errors"}
    assert "cli" not in sibling_imports("training")


def test_no_module_imports_a_codec_from_training():
    codecs = {"INT", "FLOAT", "BOOL", "TEXT", "LAYERS", "choice"}
    modules = [p.stem for p in Path(imae.__file__).parent.glob("*.py")]
    assert [m for m in modules if codecs & sibling_imports(m).get("training", set())] == []
