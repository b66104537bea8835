"""oddcox benchmark: one command, four workloads, outputs checked.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or any checkout of it).  For each workload
this script generates the seeded inputs into ``.bench_work/``, times five
fresh set-up processes (interpreter start, ``import oddcox``, loading the
systems) and then runs the workload in one more fresh process.  It prints
a report with the run environment and every metric by name and unit, and
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced phase, plus the tracing
overhead.  ``--workload all`` runs the four workloads in turn and prefixes
each metric with its workload.  See ``bench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
from hostspeed import HostSampler  # noqa: E402

WORKLOAD_NAMES = ("reduce_random", "aut_star", "ball_growth", "cli_structure")
SETUP_SAMPLES = 5
WORKER_TIMEOUT = 165  # seconds; a run must end within 180
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def environment(seed: int) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"# env python={platform.python_version()} nproc={os.cpu_count()} "
        f'cpu="{cpu}" seed={seed}'
    )


def _worker(mode: str, workdir: Path, env: dict):
    """Start a worker and wait for its ``ready`` line.

    Returns the process and its set-up time at the reference host speed.
    """
    sampler = HostSampler(in_process=False)
    with sampler:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode, str(workdir)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = proc.stdout.readline()
    ready = sampler.measured_ns / 1e9 * sampler.scale
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, timeout: float):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded its time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = ROOT / ".bench_work"
    workdir = work / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "systems": inputs.systems(name, seed),
            "spans_path": str(work / f"spans-{name}-s{seed}.jsonl"),
        }
        (workdir / "inputs.json").write_text(json.dumps(spec))
        if name == "cli_structure":
            files, _ = inputs.cli_files(seed)
            for filename, text in files.items():
                (workdir / filename).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # the first start compiles bytecode; it is not a set-up sample
        proc, _ = _worker("setup", workdir, env)
        _finish(proc, 60)
        samples = []
        for _ in range(SETUP_SAMPLES):
            proc, ready = _worker("setup", workdir, env)
            _finish(proc, 60)
            samples.append(ready)
        proc, ready = _worker("run", workdir, env)
        samples.append(ready)
        _finish(proc, WORKER_TIMEOUT)
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = statistics.median(samples)
    return result


def report(name: str, result: dict, trace: bool) -> tuple:
    """Print one workload's report; return (metrics for the JSON line, correct)."""
    phase = result["untraced"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"## {name}")
    print(f"setup_s          {result['setup_s']:.4f} s   (median of {SETUP_SAMPLES + 1} fresh processes)")
    measured = phase["measured"]
    print(f"ops_per_s        {phase['ops_per_s']:.4f} 1/s   (measured {measured['ops_per_s']:.4f})")
    print(f"op_p50_ms        {phase['op_p50_ms']:.4f} ms   (measured {measured['op_p50_ms']:.4f})")
    print(
        f"op_tail_ms       {phase['op_tail_ms']:.4f} ms   (measured {measured['op_tail_ms']:.4f}; "
        f"p{phase['tail_pct']:g}, {phase['tail_beyond']} of {phase['ops']} samples beyond)"
    )
    if result["elements_per_s"] is not None:
        print(f"elements_per_s   {result['elements_per_s']:.1f} 1/s")
    print(f"peak_rss_mb      {result['peak_rss_mb']:.2f} MB")
    print(f"failed_ratio     {failed / attempted:.4f} ratio  ({failed} of {attempted})")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if trace:
        layers = result["per_layer"]
        for key, unit in tracing.PER_LAYER.items():
            print(f"{key:36s} {layers[key]:.6g} {unit}")
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in tracing.PER_LAYER.items()}
    else:
        values = dict(phase, setup_s=result["setup_s"], peak_rss_mb=result["peak_rss_mb"])
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    return metrics, failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oddcox" / "__init__.py").is_file():
        print("error: no oddcox sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    print(f"# oddcox bench workload={args.workload} seconds={args.seconds} trace={args.trace}")
    print(environment(args.seed))
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        values, ok = report(name, result, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in values.items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
