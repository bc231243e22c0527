"""The library names the benchmark under perfbench/ calls or traces exist, and
take the arguments it passes.

The benchmark runs outside this suite, so a rename in src/, or a dropped or
renamed parameter, would otherwise break only the benchmark. This reads
perfbench/ and changes nothing in it.
"""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import softki

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# reached through ``ck = softki.checkpoint`` or called on results in worker.py
WORKER_NAMES = (
    "fit_qr", "sgpr_fit", "checkpoint.bundle_softki", "checkpoint.bundle_sgpr",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "checkpoint.restore", "predict_mean", "predict_var", "sgpr_predict_mean",
    "sgpr_predict_var", "test_metrics", "sgpr_test_metrics", "gaussian_nll",
)


def resolve(dotted: str):
    obj = softki
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = perfbench_module("workloads").WORKLOADS


def traced_names():
    spans = perfbench_module("spans")
    return [f"{mod}.{fn}" for mod, fns in spans.TRACED.items() for fn in fns]


def referenced_names():
    """Every ``softki.<name>`` path written in the benchmark's sources."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        found.update(re.findall(r"\bsoftki\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)",
                                path.read_text()))
    return sorted(found)


def _dotted(node):
    """"a.b.c" for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def benchmark_calls():
    """pytest params of each ``softki.<name>(...)`` call in the benchmark's
    sources, also through an alias such as ``ck = softki.checkpoint``: the
    name, the count of positional arguments and the keyword names. Starred
    arguments and ``**`` mappings are left out."""
    params = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots = {"softki": ""}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                value = _dotted(node.value) or ""
                if value.startswith("softki."):
                    roots[node.targets[0].id] = value[len("softki."):] + "."
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            root, _, rest = (_dotted(node.func) or "").partition(".")
            if root not in roots or not rest:
                continue
            name = roots[root] + rest
            positional = sum(not isinstance(a, ast.Starred) for a in node.args)
            keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
            params.append(pytest.param(name, positional, keywords,
                                       id=f"{path.name}:{node.lineno}:{name}"))
    return params


@pytest.mark.parametrize("name", traced_names())
def test_traced_functions_resolve(name):
    assert callable(resolve(name)), name


@pytest.mark.parametrize("name", WORKER_NAMES)
def test_worker_names_resolve(name):
    assert callable(resolve(name)), name


@pytest.mark.parametrize("name", referenced_names())
def test_referenced_names_resolve(name):
    resolve(name)


def test_benchmark_calls_are_found():
    names = {p.values[0] for p in benchmark_calls()}
    assert {"sgpr_fit", "Dataset", "TrainConfig", "checkpoint.bundle_sgpr"} <= names


@pytest.mark.parametrize("name, positional, keywords", benchmark_calls())
def test_benchmark_calls_bind(name, positional, keywords):
    inspect.signature(resolve(name)).bind_partial(*range(positional),
                                                  **dict.fromkeys(keywords))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_train_configs_build(workload):
    softki.TrainConfig(seed=0, **WORKLOADS[workload].train)


# ------------------------------------------- attributes read off library results
# perfbench/worker.py and perfbench/spans.py read these off return values, so
# each is checked on a tiny real object rather than by name alone.


@pytest.fixture(scope="module")
def tiny():
    train_data, _ = softki.ricker_dataset(n_train=64, n_test=8, radius=2.0, seed=0)
    cfg = softki.TrainConfig(m=6, epochs=2, batch_size=32, learning_rate=0.05, seed=0)
    return train_data, cfg


def test_loaded_checkpoint_exposes_noise(tmp_path, tiny):
    train_data, cfg = tiny
    hp, _ = softki.train(train_data, cfg)
    post = softki.fit_qr(train_data, hp)
    ck = softki.checkpoint
    path = tmp_path / "checkpoint.bin"
    ck.save_checkpoint(path, ck.bundle_softki(post, train_data.stats, len(train_data)))
    loaded = ck.load_checkpoint(path)
    assert loaded.noise == hp.noise and isinstance(loaded.noise, float)


@pytest.mark.parametrize("train_fn", ["train", "train_sgpr"])
def test_train_trace_fields(tiny, train_fn):
    train_data, cfg = tiny
    _, trace = getattr(softki, train_fn)(train_data, cfg)
    assert sum(trace.mode_counts.values()) > 0
    assert len(trace.epoch_objectives) == cfg.epochs
    assert trace.failed_batches == 0


@pytest.mark.parametrize("mode", ["auto", "pseudoloss"])
def test_objective_report_fields(tiny, mode):
    train_data, _ = tiny
    x, y = train_data.x[:32], train_data.y[:32]
    hp, _ = softki.train(train_data, softki.TrainConfig(m=6, epochs=0, seed=0))
    report = softki.objective.stabilized_objective(
        x, y, hp, softki.TrainConfig(objective_mode=mode))
    assert isinstance(report.diagnostics, dict)
    assert report.is_finite() is True
    assert softki.objective.exact_mll(x, y, hp).is_finite() is True


def test_cg_report_fields():
    rep = softki.linalg.block_cg(lambda v: 2.0 * v, np.ones((4, 2)))
    assert rep.iterations == 1 and rep.converged is True


def test_cholesky_jitter_is_a_rung_of_the_default_schedule():
    m = np.outer([1.0, 2.0], [1.0, 2.0])           # singular: needs a jitter rung
    _, eps = softki.linalg.cholesky_upper(m)
    assert softki.linalg.default_jitter_schedule(m).index(eps) > 0


def test_stacked_qr_solve_counts_blocks():
    rng = np.random.default_rng(0)
    blocks = [(rng.standard_normal((5, 3)), rng.standard_normal(5)) for _ in range(2)]
    out = softki.posterior.stacked_qr_solve(iter(blocks), np.eye(3))
    assert out[3]["blocks"] == 3                   # two data blocks and the u_zz rows
