"""Output checks for one command's output directory.

Each check returns a list of problems (empty when the output is right).
The checks cover the documented file set of every command, the shock
threshold against the benchmark's own numpy computation, the planted
signals, and byte identity of the output tree across repetitions.
"""

import csv
import hashlib
import json
import math

from workloads import (FACTOR_SECTOR, LP_COEF, LP_SECTOR, REGION, VARIABLE,
                       VARIANTS)

THRESHOLD_RTOL = 1e-9
LP_SE_MARGIN = 5.0


def tree_digest(directory):
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def lp_failures(out):
    """Rows of failures.csv as (sector, variant) pairs."""
    return [(r["sector"], r["variant"]) for r in _read_csv(out / "failures.csv")]


def fira_failures(out):
    return _read_json(out / "fira_report.json")["failures"]


def expected_files(command, workload, out):
    """The documented output file set of one command."""
    if command == "baseline":
        return {f"baseline_{VARIABLE}.csv", "baseline_summary.csv"}
    if command == "anomaly":
        names = {f"anomaly_mean_{VARIABLE}_{REGION}.csv"}
        if workload.sections["anomaly"].get("write_grids"):
            names.add(f"anomaly_{VARIABLE}.csv")
        return names
    if command == "shocks":
        return {f"shocks_{v}.csv" for v in VARIANTS} | {"shocks_report.json"}
    if command == "lp":
        failed = set(lp_failures(out))
        figures = workload.sections["lp"].get("figures", True)
        names = {"failures.csv"}
        for sector in workload.lp_sectors():
            for variant in VARIANTS:
                if (sector, variant) not in failed:
                    names.add(f"lp_{sector}_{variant}.csv")
                    if figures:
                        names.add(f"lp_{sector}_{variant}.svg")
        return names
    if command == "factors":
        k = _read_json(out / "factors_report.json")["k"]
        return ({"factor_loadings.csv", "factors_report.json"}
                | {f"factor_b_{i + 1}.csv" for i in range(k)})
    if command == "fira":
        return {"fira_response_1.csv", "fira_shock_1.svg", "fira_report.json"}
    raise ValueError(f"unknown command {command!r}")


def check_file_set(command, workload, out):
    try:
        want = expected_files(command, workload, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{command}: cannot read its report: {exc}"]
    have = {p.name for p in out.iterdir()} if out.is_dir() else set()
    problems = []
    if want - have:
        problems.append(f"{command}: missing {sorted(want - have)}")
    if have - want:
        problems.append(f"{command}: unexpected {sorted(have - want)}")
    return problems


def check_threshold(out, threshold):
    got = _read_json(out / "shocks_report.json")["threshold"]
    if not math.isclose(got, threshold, rel_tol=THRESHOLD_RTOL, abs_tol=0.0):
        return [f"shocks: threshold {got!r} differs from {threshold!r}"]
    return []


def check_lp_planted(out):
    """The planted sector's h=0 estimate lies within 5 se of LP_COEF."""
    rows = _read_csv(out / f"lp_{LP_SECTOR}_all.csv")
    h0 = next(r for r in rows if r["h"] == "0")
    est, se = float(h0["estimate"]), float(h0["se"])
    if not abs(est - LP_COEF) <= LP_SE_MARGIN * se:
        return [f"lp: {LP_SECTOR} h=0 estimate {est:.4g} (se {se:.3g}) is "
                f"not within {LP_SE_MARGIN:g} se of {LP_COEF}"]
    return []


def _argmax_abs(pairs):
    return max(pairs, key=lambda kv: abs(kv[1]))[0]


def check_factor_planted(out):
    rows = _read_csv(out / "factor_loadings.csv")
    top = _argmax_abs([(r["sector"], float(r["a1"])) for r in rows])
    if top != FACTOR_SECTOR:
        return [f"factors: largest |a1| loading is {top}, "
                f"not {FACTOR_SECTOR}"]
    return []


def check_fira_planted(out):
    rows = _read_csv(out / "fira_response_1.csv")
    top = _argmax_abs([(r["sector"], float(r["response"]))
                       for r in rows if r["h"] == "0"])
    if top != FACTOR_SECTOR:
        return [f"fira: largest |h=0 response| is {top}, "
                f"not {FACTOR_SECTOR}"]
    return []


def check_command(command, workload, out, threshold):
    """Every check for one command that exited 0."""
    problems = check_file_set(command, workload, out)
    if problems:
        return problems
    try:
        if command == "shocks":
            return check_threshold(out, threshold)
        if command == "lp" and LP_SECTOR in workload.lp_sectors():
            return check_lp_planted(out)
        if command == "factors":
            return check_factor_planted(out)
        if command == "fira":
            return check_fira_planted(out)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return [f"{command}: unreadable output: {exc!r}"]
    return []
