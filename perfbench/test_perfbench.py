"""Tests of the benchmark itself: generator, output checks, span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from workloads import FACTOR_SECTOR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _generate(name, seed, directory):
    return workloads.generate(WORKLOADS[name], seed, directory)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(tmp_path, name):
    _generate(name, 7, tmp_path / "a")
    _generate(name, 7, tmp_path / "b")
    _generate(name, 8, tmp_path / "c")
    a, b, c = (checks.tree_digest(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_generator_gives_every_variant_events_and_a_positive_threshold():
    w = WORKLOADS["lp-battery"]
    times = workloads.month_axis()
    lat, _ = workloads.cell_centers(w.bounds, w.step)
    for seed in range(20):
        rng = np.random.default_rng([seed, 20240103])
        cube, _, _ = workloads.make_cube(w, rng, times)
        dev, threshold = workloads.regional_deviation(cube, lat, times)
        d = dev[times >= workloads.PANEL_START]
        assert threshold > 0
        assert (d > threshold).sum() > 0
        assert (d < -threshold).sum() > 0
        assert (d > 1.5 * threshold).sum() > 0


@pytest.fixture(scope="module")
def shocks_tree(tmp_path_factory):
    """A real ``shocks`` output tree from the CLI on lp-battery inputs."""
    base = tmp_path_factory.mktemp("shocks")
    threshold = _generate("lp-battery", 3, base / "inputs")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = base / "out"
    subprocess.run([sys.executable, "-m", "climfact.cli", "shocks",
                    "--config", "run.json", "--out", str(out), "--quiet"],
                   cwd=base / "inputs", env=env, check=True)
    return out, threshold


def _copy(tree, tmp_path):
    dest = tmp_path / "shocks"
    dest.mkdir()
    for p in tree.iterdir():
        (dest / p.name).write_bytes(p.read_bytes())
    return dest


def test_shocks_tree_passes(shocks_tree):
    out, threshold = shocks_tree
    assert checks.check_command("shocks", WORKLOADS["lp-battery"], out,
                                threshold) == []


def test_wrong_threshold_is_rejected(shocks_tree, tmp_path):
    out, threshold = shocks_tree
    bad = _copy(out, tmp_path)
    report = json.loads((bad / "shocks_report.json").read_text())
    report["threshold"] = threshold * (1 + 1e-7)
    (bad / "shocks_report.json").write_text(json.dumps(report))
    problems = checks.check_command("shocks", WORKLOADS["lp-battery"], bad,
                                    threshold)
    assert problems and "threshold" in problems[0]


def test_missing_file_is_rejected(shocks_tree, tmp_path):
    out, threshold = shocks_tree
    bad = _copy(out, tmp_path)
    (bad / "shocks_negative.csv").unlink()
    problems = checks.check_command("shocks", WORKLOADS["lp-battery"], bad,
                                    threshold)
    assert problems and "missing" in problems[0]


def test_changed_byte_is_rejected(shocks_tree, tmp_path):
    out, threshold = shocks_tree
    bad = _copy(out, tmp_path)
    path = bad / "shocks_all.csv"
    blob = bytearray(path.read_bytes())
    blob[-2] ^= 1
    path.write_bytes(bytes(blob))
    chain = {"commands": {"shocks": {"code": 0}}}
    reference = {"shocks": checks.tree_digest(out)}
    attempted, failed, problems = run.check_chain(
        WORKLOADS["lp-battery"], chain, tmp_path, threshold, reference)
    assert (attempted, failed) == (1, 1)
    assert "differs from the first repetition" in problems[0]


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def test_planted_signal_checks(tmp_path):
    _write(tmp_path / "factor_loadings.csv",
           f"sector,a1\nS000,0.1\n{FACTOR_SECTOR},-0.5\nS002,0.3\n")
    _write(tmp_path / "fira_response_1.csv",
           "sector,h,response,response_pp\n"
           f"S000,0,0.1,0.1\n{FACTOR_SECTOR},0,0.4,0.4\nS000,1,0.9,0.9\n")
    _write(tmp_path / "lp_S000_all.csv",
           "sector,variant,h,estimate,se,lo,hi,p,l\n"
           f"S000,all,0,{workloads.LP_COEF + 0.1},0.05,0,0,1,1\n")
    assert checks.check_factor_planted(tmp_path) == []
    assert checks.check_fira_planted(tmp_path) == []
    assert checks.check_lp_planted(tmp_path) == []

    _write(tmp_path / "factor_loadings.csv",
           f"sector,a1\nS000,0.9\n{FACTOR_SECTOR},-0.5\n")
    _write(tmp_path / "fira_response_1.csv",
           "sector,h,response,response_pp\n"
           f"S000,0,-0.5,0.1\n{FACTOR_SECTOR},0,0.4,0.4\n")
    _write(tmp_path / "lp_S000_all.csv",
           "sector,variant,h,estimate,se,lo,hi,p,l\n"
           f"S000,all,0,{workloads.LP_COEF + 0.3},0.05,0,0,1,1\n")
    assert checks.check_factor_planted(tmp_path)
    assert checks.check_fira_planted(tmp_path)
    assert checks.check_lp_planted(tmp_path)


def test_self_times_of_a_hand_built_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["ingest.load", 1.0, 4.0, 0, None],
        ["ingest.inner", 2.0, 3.0, 1, None],
        ["localproj.a", 5.0, 8.0, 0, None],
        ["localproj.b", 8.5, 9.5, 0, None],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    profile = spans.command_profile(
        {"main_entered": 0.0, "main_exit": 10.0, "spans": tree},
        spawned=-0.5, exited=10.25)
    assert profile["startup"] == pytest.approx(0.5)
    assert profile["exit"] == pytest.approx(0.25)
    assert profile["accounted"] == pytest.approx(profile["wall"])
    assert profile["layer_self"]["ingest"] == pytest.approx(3.0)
    assert profile["layer_self"]["localproj"] == pytest.approx(4.0)
    assert profile["layer_self"]["cli"] == pytest.approx(3.0)


def test_overlapping_children_are_subtracted_once():
    tree = [["cli.main", 0.0, 10.0, -1, None],
            ["fira.a", 1.0, 5.0, 0, None],
            ["fira.b", 3.0, 7.0, 0, None]]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_recorder_catches_calls_through_module_globals():
    module = types.ModuleType("toy")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", module.__dict__)
    recorder = spans.Recorder()
    for name in ("inner", "outer"):
        setattr(module, name, recorder.wrap(f"toy.{name}",
                                            getattr(module, name)))
    assert module.outer(1) == 4
    names = [(s[0], s[3]) for s in recorder.spans]
    assert names == [("toy.outer", -1), ("toy.inner", 0)]


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lp-battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_command_past_the_hard_deadline_is_killed(tmp_path):
    rec = run.run_command([sys.executable, "-c", "import time; time.sleep(60)"],
                          tmp_path, dict(os.environ), tmp_path / "err",
                          hard_deadline=time.monotonic() + 0.5)
    assert rec["code"] != 0
    assert rec["wall"] < 30


def test_a_failed_command_fails_its_cells(tmp_path):
    (tmp_path / "lp.err").write_text("numerical failure: every cell failed\n")
    chain = {"commands": {"lp": {"code": 4}}}
    attempted, failed, problems = run.check_chain(
        WORKLOADS["lp-battery"], chain, tmp_path, 1.0, {})
    cells = len(WORKLOADS["lp-battery"].lp_sectors()) * len(workloads.VARIANTS)
    assert (attempted, failed) == (1 + cells, 1 + cells)
    assert "exit 4" in problems[0]
