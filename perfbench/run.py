"""climfact benchmark: seeded CLI-chain workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a climfact checkout; the program under test is the
checkout's ``src/climfact``. Each workload is a closed loop with one
client: the commands of its chain run one after another, each as a fresh
``python -m climfact.cli <command>`` process, exactly as a user runs the
chain. Chains repeat until ``--seconds`` is spent, and every chain's
outputs are checked (exit codes, documented file sets, shock threshold,
planted signals, byte identity with the first chain).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced chains with chains whose commands run under ``launcher.py``, and
reports per-layer metrics from the traced ones plus the tracing overhead.
The last line of standard output is the JSON result.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_REPS = 7
MIN_CHAINS = 2
HARD_LIMIT_S = 170.0    # kill any command still running this long after start
END_TO_END = {"chain_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
TRACE_EXTRA = {"trace.chain_s": "s", "trace.overhead_s": "s"}


# -- environment ---------------------------------------------------------


def blas_record():
    """Name, version and thread count of each BLAS loaded by numpy/scipy."""
    import numpy as np
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(path).name] = int(getattr(lib, symbol)())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def environment(workload, seed):
    import numpy as np
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_record(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "workload": workload.name, "scale": workload.scale(),
            "why": workload.why, "stresses": workload.stresses}


# -- one command, one chain ----------------------------------------------


def run_command(argv, cwd, env, log, hard_deadline):
    """Spawn one process, wait for it, return wall, rusage and exit code.

    A process still running at hard_deadline is killed, and fails."""
    with open(log, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(hard_deadline - spawned, 0.0), proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        exited = time.monotonic()
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawned": spawned, "exited": exited, "wall": exited - spawned,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def run_chain(workload, inputs_dir, chain_dir, env, traced, hard_deadline):
    records = {}
    for command in workload.commands:
        out = chain_dir / command
        cli = [command, "--config", "run.json", "--out", str(out), "--quiet"]
        if traced:
            spans_file = chain_dir / f"{command}.spans.json"
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_file),
                    f"{chain_dir.name}/{command}"] + cli
        else:
            argv = [sys.executable, "-m", "climfact.cli"] + cli
        rec = run_command(argv, inputs_dir, env, chain_dir / f"{command}.err",
                          hard_deadline)
        if traced and rec["code"] == 0:
            with open(spans_file, encoding="utf-8") as fh:
                rec["profile"] = spans.command_profile(
                    json.load(fh), rec["spawned"], rec["exited"])
        records[command] = rec
    first, last = workload.commands[0], workload.commands[-1]
    return {"commands": records, "traced": traced,
            "chain_s": records[last]["exited"] - records[first]["spawned"]}


def check_chain(workload, chain, chain_dir, threshold, reference):
    """Count operations and failures; compare outputs with the first chain.

    Operations are commands, LP battery cells and FIRA horizons. A
    command fails on a nonzero exit or any failed output check.
    """
    attempted = failed = 0
    problems = []
    for command, rec in chain["commands"].items():
        out = chain_dir / command
        attempted += 1
        if rec["code"] != 0:
            msg = (chain_dir / f"{command}.err").read_text(errors="replace")
            found = [f"{command}: exit {rec['code']}: {msg.strip()[-300:]}"]
        else:
            found = checks.check_command(command, workload, out, threshold)
            digest = checks.tree_digest(out)
            if reference.setdefault(command, digest) != digest:
                found.append(f"{command}: output differs from the first "
                             "repetition")
        if found:
            failed += 1
            problems += found
        if command == "lp":
            cells = len(workload.lp_sectors()) * len(workloads.VARIANTS)
            attempted += cells
            failed += _failed_parts(checks.lp_failures, out, rec, cells)
        if command == "fira":
            horizons = workload.sections["fira"]["h_max"] + 1
            attempted += horizons
            failed += _failed_parts(checks.fira_failures, out, rec, horizons)
    return attempted, failed, problems


def _failed_parts(read, out, rec, total):
    """Failed cells or horizons listed by a command; all of them if the
    command failed or its list cannot be read."""
    if rec["code"] != 0:
        return total
    try:
        return len(read(out))
    except (OSError, KeyError, ValueError):
        return total


# -- the run -------------------------------------------------------------


def setup(workload, seed, inputs_dir):
    """Generate the inputs SETUP_REPS times; times and digests of each."""
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        start = time.perf_counter()
        threshold = workloads.generate(workload, seed, inputs_dir)
        times.append(time.perf_counter() - start)
        digests.add(checks.tree_digest(inputs_dir))
    return threshold, times, len(digests) == 1


def child_env(root, work):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run(workload, seed, seconds, traced, work, hard_deadline):
    inputs_dir = work / "inputs"
    threshold, setup_times, identical = setup(workload, seed, inputs_dir)
    env = child_env(Path.cwd(), work)
    print("environment: " + json.dumps(environment(workload, seed)),
          flush=True)

    problems = [] if identical else ["generator: inputs differ between "
                                     "set-ups of one seed"]
    attempted = failed = 0
    reference = {}
    chains = []
    modes = (False, True) if traced else (False,)
    deadline = time.monotonic() + seconds
    while True:
        for mode in modes:
            chain_dir = work / f"chain{len(chains)}"
            chain_dir.mkdir()
            chain = run_chain(workload, inputs_dir, chain_dir, env, mode,
                              hard_deadline)
            a, f, p = check_chain(workload, chain, chain_dir,
                                  threshold, reference)
            attempted, failed, problems = attempted + a, failed + f, problems + p
            chains.append(chain)
            shutil.rmtree(chain_dir)
        rounds = len(chains) // len(modes)
        per_round = statistics.median(c["chain_s"] for c in chains) * len(modes)
        now = time.monotonic()
        if (rounds >= MIN_CHAINS and now + per_round > deadline
                or now > hard_deadline):
            break

    plain = [c for c in chains if not c["traced"]]
    per_command = {
        f"{cmd}_s": statistics.median(c["commands"][cmd]["wall"] for c in plain)
        for cmd in workload.commands}
    e2e = {
        "chain_s": statistics.median(c["chain_s"] for c in plain),
        "cpu_s": statistics.median(
            sum(r["cpu"] for r in c["commands"].values()) for c in plain),
        "peak_rss_mb": statistics.median(
            max(r["rss_mb"] for r in c["commands"].values()) for c in plain),
        "setup_s": statistics.median(setup_times),
    }
    print("chain_s of each chain: " + json.dumps(
        {"untraced": [c["chain_s"] for c in plain],
         "traced": [c["chain_s"] for c in chains if c["traced"]]}))
    print("per-command (median wall, s): " + json.dumps(per_command))
    print(f"failed_frac: {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if traced:
        profiles = [[r.get("profile") for r in c["commands"].values()]
                    for c in chains if c["traced"]]
        usable = [p for p in profiles if None not in p]
        metrics = {name: {"value": value, "unit": spans.PER_LAYER[name][0]}
                   for name, value in (spans.layer_metrics(usable).items()
                                       if usable else ())}
        traced_chain = statistics.median(
            c["chain_s"] for c in chains if c["traced"])
        extra = {"trace.chain_s": traced_chain,
                 "trace.overhead_s": traced_chain - e2e["chain_s"]}
        metrics.update({k: {"value": v, "unit": TRACE_EXTRA[k]}
                        for k, v in extra.items()})
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "climfact" / "cli.py").is_file():
        print("error: run from the root of a climfact checkout "
              "(src/climfact/cli.py not found)", file=sys.stderr)
        return 2
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work, hard_deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another workload's files are still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
