"""The repository benchmark: one workload, one run, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload figure2 --seed 1 --seconds 10 --trace 0

Each trial runs in a fresh single-threaded process (``trial.py``) so
module-wide memos (the Zipf alias tables) cannot make a later trial's
set-up look cheaper.  With ``--trace 0`` the run makes the workload's
trials untraced and reports the end-to-end metrics; with ``--trace 1``
it runs trial 0 untraced and then traced, requires both to produce the
same simulated digest, and reports the per-layer metrics.  Every output
check runs on every trial; a failed check makes the run fail loudly
(exit 1, ``correct: false``, every operation counted as failed).

The last line of stdout is the result object; the lines before it
print every metric by name with its unit, the digest and the run
metadata.  The full record (per-trial values, metadata, spans of the
traced trial) goes to ``.perfbench/`` in the repository root.

``python3 perfbench/run.py --write-spec`` regenerates ``BENCHMARK.json``
from :mod:`metrics` and :mod:`workloads`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import metrics  # noqa: E402  (pure helpers; no program imports)
import tracer  # noqa: E402  (imports the program only when installed)

OUT = ROOT / ".perfbench"
#: A run must end within this many seconds; trials share what is left.
RUN_BUDGET_S = 175.0
#: Pin numeric libraries to one thread in every trial process.
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def trial_seed(seed: int, trial: int) -> int:
    """Simulation seed of one trial of a run."""
    return seed * 1000 + trial


def run_child(args: List[str], deadline: float) -> Dict:
    """Run ``trial.py`` with ``args`` in a fresh process; its result."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    timeout = max(1.0, deadline - perf_counter())
    proc = subprocess.run(
        [sys.executable, str(HERE / "trial.py")] + args,
        cwd=str(ROOT), env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"trial {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 over the program's source files (the checkout may not be
    a git repository)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata() -> Dict:
    """Commit, interpreter, platform and CPU count of this run."""
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def end_to_end(trials: List[Dict], calibration: Dict) -> Dict[str, float]:
    """End-to-end metrics of untraced trials, in reference-host seconds,
    and the tail's context."""
    intervals = [
        s / v for t in trials
        for s, v in zip(t["interval_s"], t["interval_speed"])
    ]
    tail_pct, tail = metrics.tail_percentile(intervals)
    return {
        "wall_s": metrics.median([t["wall_s"] / t["speed"] for t in trials]),
        "ops_per_s": metrics.median(
            [t["ops_completed"] * t["speed"] / t["wall_s"] for t in trials]
        ),
        "us_per_event": metrics.median(
            [1e6 * t["wall_s"] / t["speed"] / t["events"] for t in trials]
        ),
        "interval_s_p50": metrics.median(intervals),
        "interval_s_tail": tail,
        "setup_s": calibration["calibrate_s"] / calibration["speed"]
        + metrics.median([t["setup_s"] / t["setup_speed"] for t in trials]),
        "peak_rss_mb": metrics.median([t["peak_rss_mb"] for t in trials]),
    }, {"percentile": tail_pct, "samples": len(intervals)}


def outcomes(trials: List[Dict]) -> Dict[str, float]:
    """Simulated outcomes pooled over trials (sim clock)."""
    pairs = sum(t["goal_pairs"] for t in trials)
    nogoal_n = sum(t["nogoal_n"] for t in trials)
    attempted = sum(t["attempted"] for t in trials)
    return {
        "core.goal_met_frac":
            sum(t["goal_met"] for t in trials) / pairs if pairs else 0.0,
        "core.nogoal_rt_ms":
            sum(t["nogoal_rt_sum"] for t in trials) / nogoal_n
            if nogoal_n else 0.0,
        "workload.fail_frac":
            sum(t["failed"] for t in trials) / attempted if attempted else 0.0,
    }


def account(trial: Dict) -> None:
    """Add ``ok`` and ``failed`` to a trial from its checks and counts."""
    trial["ok"] = all(v == "ok" for v in trial["checks"].values())
    trial["failed"] = metrics.failed_ops(
        trial["attempted"], trial["aborted"], trial["unfinished"],
        trial["ok"],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    # Accepted for the benchmark's command contract and recorded; the
    # measured work is a fixed interval count per workload, so it does
    # not scale with this.
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.write_spec:
        doc = metrics.spec(workloads.WORKLOADS.values())
        (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
        return 0
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    deadline = perf_counter() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    calibration = {"params": {}, "calibrate_s": 0.0, "speed": 1.0}
    if workload.calibrate is not None:
        calibration = run_child(
            ["--workload", workload.name, "--seed", str(args.seed),
             "--calibrate"], deadline,
        )
    base = ["--workload", workload.name,
            "--params", json.dumps(calibration["params"])]
    if args.trace:
        seed = trial_seed(args.seed, 0)
        spans = OUT / f"{tag}.spans.jsonl"
        plain = run_child(base + ["--seed", str(seed)], deadline)
        traced = run_child(
            base + ["--seed", str(seed), "--traced", "--spans", str(spans)],
            deadline,
        )
        trials = [plain, traced]
    else:
        trials = [
            run_child(base + ["--seed", str(trial_seed(args.seed, k))],
                      deadline)
            for k in range(workload.trials)
        ]
    for trial in trials:
        account(trial)

    correct = all(t["ok"] for t in trials)
    if args.trace and plain["digest"] != traced["digest"]:
        correct = False
        print("check failed: traced and untraced digests differ")
    for k, trial in enumerate(trials):
        for name, verdict in trial["checks"].items():
            if verdict != "ok":
                print(f"check failed: trial {k} {name}: {verdict}")
    if not correct:
        # A failed check counts every operation of the run as failed.
        for trial in trials:
            trial["failed"] = trial["attempted"]

    units = {m[0]: m[1] for m in metrics.END_TO_END}
    units.update({m[0]: m[1] for m in metrics.PER_LAYER})
    clocks = {m[0]: m[4] for m in metrics.END_TO_END}
    tail = None
    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (
            (traced["wall_s"] / traced["speed"])
            / (plain["wall_s"] / plain["speed"]) - 1
        )
        values.update(outcomes([plain]))
        names = [m[0] for m in metrics.PER_LAYER]
    else:
        values, tail = end_to_end(trials, calibration)
        names = [m[0] for m in metrics.END_TO_END]
    meta = run_metadata()
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(trials)} trials x {workload.intervals} intervals, "
          f"commit {meta['commit']}, src {meta['src_sha256']}, "
          f"python {meta['python']}, {meta['platform']}, nproc {meta['nproc']}")
    for name in names:
        print(f"{name} = {values[name]:.6g} {units[name]}"
              + (f" ({clocks[name]} clock)" if name in clocks else ""))
    if tail is not None:
        print(f"interval_s_tail is p{tail['percentile']:.1f} "
              f"of {tail['samples']} intervals")
        print("host seconds are reference-host seconds; per trial the host "
              "ran at " + ", ".join(f"{t['speed']:.3f}" for t in trials)
              + " x the reference probe time; unnormalized wall_s "
              + ", ".join(f"{t['wall_s']:.4f}" for t in trials))
        for name, value in outcomes(trials).items():
            print(f"{name} = {value:.6g} {units[name]} (sim clock)")
    else:
        print("private boundaries wrapped: "
              + ", ".join(tracer.private_boundaries()))
        if not workload.analytic:
            print("cluster.net.rho_vs_analytic: not modelled "
                  "(analytic.bridge has no 2PC/lock traffic); reported as 0")
    print("digest " + " ".join(t["digest"] for t in trials))

    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    record = {
        "meta": meta, "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "intervals": workload.intervals, "tail": tail,
        "calibration": calibration, "trials": trials,
        "metrics": {n: values[n] for n in names},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
