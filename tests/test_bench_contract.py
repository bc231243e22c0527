"""The library names the benchmark under perfbench/ calls or traces exist.

The benchmark runs outside this suite, so a rename in src/ would otherwise
break only the benchmark. This reads perfbench/ and changes nothing in it.
"""

import importlib.util
import re
from pathlib import Path

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


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [f"{mod}.{fn}" for mod, fns in spans.TRACED.items() for fn in fns]


def referenced_names():
    """Every ``softki.<name>`` path written in the benchmark's sources."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        found.update(re.findall(r"\bsoftki\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)",
                                path.read_text()))
    return sorted(found)


@pytest.mark.parametrize("name", traced_names())
def test_traced_functions_resolve(name):
    assert callable(resolve(name)), name


@pytest.mark.parametrize("name", WORKER_NAMES)
def test_worker_names_resolve(name):
    assert callable(resolve(name)), name


@pytest.mark.parametrize("name", referenced_names())
def test_referenced_names_resolve(name):
    resolve(name)
