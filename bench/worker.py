"""One workload in a fresh interpreter.

    python3 bench/worker.py setup|run <work dir>

Set-up imports oddcox and loads the workload's systems from the files
``run.py`` generated, then prints ``ready``: the parent times a fresh
process up to that line.  In ``setup`` mode the worker stops there.  In
``run`` mode it then runs whole cycles of the workload until ``seconds``
have passed, checking every output between operations, and writes
``result.json`` into the work dir.  With tracing on it first runs an
untraced phase and then a traced one of the same length, so the
difference between them is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns

import tracing
from hostspeed import HostSampler


def load_systems(workload: str, texts: dict, tracer) -> dict:
    from oddcox import core

    call = tracer.call
    out = {}
    for name, text in texts.items():
        sys_ = call("core.system_from_json", core.system_from_json, text)
        if workload == "aut_star":
            star = call("core.star_form", core.star_form, sys_)
            canon = call("core.canonical_star", core.canonical_star, core.invariants(sys_))
            if canon != star:
                raise SystemExit(f"star {name} does not load in canonical form")
            sys_ = star
        out[name] = sys_
    return out


def run_phase(workload, seconds: float, tracer, cache, sampler, first_cycle: int):
    """Whole cycles until ``seconds`` have passed; every op timed alone.

    Returns each operation's time at the reference host speed and as
    measured, in ns, with the failures and the elements enumerated per
    second.
    """
    latencies = []
    raw = []
    failed = []
    elements = 0
    element_seconds = 0.0
    cycle = first_cycle
    deadline = perf_counter() + seconds
    while True:
        for item in workload.cycle(cycle):
            if cache is not None:
                cache.cache_clear()
            with sampler:
                if tracer.enabled:
                    tracer.op_id = len(tracer.spans)
                    tracer.begin(f"op.{workload.kind(item)}")
                try:
                    out = workload.op(item)
                    problem = None
                except Exception as exc:  # an unexpected error fails the operation
                    out, problem = None, f"{type(exc).__name__}: {exc}"
                if tracer.enabled:
                    tracer.end()
                    tracer.op_id = None
            measured = sampler.measured_ns
            elapsed = measured * sampler.scale
            if problem is None:
                problem = workload.check(item, out)
            if problem is None:
                count = workload.elements(item, out)
                if count:
                    elements += count
                    element_seconds += elapsed / 1e9
            else:
                failed.append((len(latencies), problem))
            latencies.append(elapsed)
            raw.append(measured)
        cycle += 1
        if perf_counter() >= deadline:
            break
    elements_per_s = elements / element_seconds if element_seconds else None
    return latencies, raw, failed, cycle, elements_per_s


def _percentiles(latencies, tail_pct: float) -> tuple:
    ms = sorted(ns / 1e6 for ns in latencies)
    rank = min(len(ms), max(1, -(-int(tail_pct * len(ms)) // 100)))  # nearest rank
    return len(ms) / (sum(ms) / 1e3), statistics.median(ms), ms[rank - 1], len(ms) - rank


def summarize(latencies, raw, tail_pct: float) -> dict:
    """End-to-end numbers of one phase; the tail is the fixed percentile."""
    ops_per_s, p50, tail, beyond = _percentiles(latencies, tail_pct)
    raw_ops_per_s, raw_p50, raw_tail, _ = _percentiles(raw, tail_pct)
    return {
        "ops": len(latencies),
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "measured": {"ops_per_s": raw_ops_per_s, "op_p50_ms": raw_p50, "op_tail_ms": raw_tail},
    }


def main(argv) -> int:
    mode, workdir = argv[1], argv[2]
    with open(os.path.join(workdir, "inputs.json")) as fh:
        spec = json.load(fh)
    name = spec["workload"]
    tracer = tracing.Tracer(enabled=bool(spec["trace"]) and mode == "run")

    import workloads
    from oddcox import words

    tracer.cache = tracing.word_cache(words)
    systems = load_systems(name, spec["systems"], tracer)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    os.chdir(workdir)
    workload = workloads.WORKLOADS[name](spec["seed"], systems, tracer)
    # cleared before every operation, so no operation reuses another's
    # reductions and peak memory is that of the largest single operation
    cache = tracer.cache if name != "cli_structure" else None
    sampler = HostSampler(in_process=name != "cli_structure")
    traced = tracer.enabled
    tracer.enabled = False
    latencies, raw, failed, cycle, elements_per_s = run_phase(
        workload, spec["seconds"], tracer, cache, sampler, 0
    )
    if name == "cli_structure":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "untraced": summarize(latencies, raw, workload.tail_pct),
        "peak_rss_mb": peak / 1024,
        "elements_per_s": elements_per_s,
    }
    attempted = len(latencies)
    if traced:
        tracer.enabled = True
        t_lat, t_raw, t_failed, _, _ = run_phase(
            workload, spec["seconds"], tracer, cache, sampler, cycle
        )
        failed += [(attempted + i, p) for i, p in t_failed]
        attempted += len(t_lat)
        result["traced"] = summarize(t_lat, t_raw, workload.tail_pct)
    for index, problem in workload.finish():
        failed.append((index, problem))
    if traced:
        layers = tracing.per_layer(tracer, "op.probe" if name == "cli_structure" else "op.")
        for key in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            layers[f"trace.overhead.{key}"] = result["traced"][key] - result["untraced"][key]
        result["per_layer"] = layers
        tracer.write(spec["spans_path"])
    failed_ops = {index for index, _ in failed}
    result["attempted"] = attempted
    result["failed"] = len(failed_ops)
    result["problems"] = [p for _, p in failed[:20]]
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
