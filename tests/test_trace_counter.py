"""The traced benchmark's work counter for the permutation null.

``perfbench/spans.py`` binds the arguments of ``factors.permutation_cutoffs``
by name to count its flops, so a renamed argument fails every traced
command. This test runs the counter against the engine.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from climfact import factors

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_permutation_span_counts_the_gram_gemm(monkeypatch):
    spans = _load_spans()
    modules = {layer: importlib.import_module(f"climfact.{layer}")
               for layer in spans.TARGETS}
    for layer, names in spans.TARGETS.items():
        for name in names:  # monkeypatch restores what instrument replaces
            monkeypatch.setattr(modules[layer], name,
                                getattr(modules[layer], name))
    recorder = spans.Recorder()
    spans.instrument(recorder, modules)

    rng = np.random.default_rng(5)
    T, p, D, n = 30, 4, 50, 9
    v = rng.normal(size=(T, D))
    y = rng.normal(size=(T, p))
    y[:, 0] += 3.0 * v[:, 0]
    factors.two_stage(y, v, v @ v.T, permutation={"n": n},
                      rng=np.random.default_rng(0))

    counted = [s[4] for s in recorder.spans
               if s[0] == "factors.permutation_cutoffs"]
    assert len(counted) == 1
    assert counted[0]["gflop"] == pytest.approx(n * 2.0 * T * p * T / 1e9,
                                                rel=1e-12)
