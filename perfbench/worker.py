"""Run one workload in a fresh single-threaded process and report raw results.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object.
The job is repeated while another repeat fits in ``--seconds``, and at least
twice.  With ``--trace 1`` an untimed warm-up repeat comes first, then
untraced and traced repeats alternate, so the tracing overhead is measured in
the same process.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import sys
import types
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpu  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


#: Untraced runs time at least this many repeats, so no op's fastest time
#: rests on a single sample.
MIN_REPEATS = 2

#: When ops under a millisecond are a sliver of the job (the trivial hom-sets
#: of ``laws``), a pass runs them within moments of each other and so samples
#: them all in one phase of the host.  They are swept again once a second,
#: which spreads their samples over the run.  Where they are the bulk of the
#: job (``terms``, the ``classify`` candidates) a pass already spreads them.
CHEAP_OP_S = 1e-3
SWEEP_SHARE = 0.01
SWEEP_EVERY_S = 1.0


def load_library():
    import monadlab
    import monadlab.algebra
    import monadlab.cli
    import monadlab.equational
    import monadlab.finset
    import monadlab.monadicity
    import monadlab.statemonad

    return types.SimpleNamespace(
        package=monadlab,
        finset=monadlab.finset,
        statemonad=monadlab.statemonad,
        algebra=monadlab.algebra,
        monadicity=monadlab.monadicity,
        equational=monadlab.equational,
        cli=monadlab.cli,
    )


def run_op(op, env):
    t0 = perf_counter()
    try:
        out, err = op.run(env), None
    except Exception as exc:  # an uncaught exception is a failed op
        out, err = None, exc
    return perf_counter() - t0, out, err


def run_job(job, cheap=(), extra=None):
    """One timed pass over the job: wall time plus each op's time and result.

    With ``cheap`` ops, a sweep re-runs them every ``SWEEP_EVERY_S`` (their
    outputs are not kept) and appends ``(index, seconds)`` to ``extra``; the
    sweeps are not part of the wall time."""
    results = []
    start = last_sweep = perf_counter()
    swept = 0.0
    env = job.fresh_env()
    for op in job.ops:
        results.append(run_op(op, env))
        now = perf_counter()
        if cheap and now - last_sweep >= SWEEP_EVERY_S:
            extra.extend((i, run_op(job.ops[i], env)[0]) for i in cheap)
            last_sweep = perf_counter()
            swept += last_sweep - now
    return perf_counter() - start - swept, results


def sweep_plan(best):
    """The ops under ``CHEAP_OP_S``, when together they are at most
    ``SWEEP_SHARE`` of the job; otherwise none."""
    cheap = [i for i, b in enumerate(best) if b < CHEAP_OP_S]
    return cheap if sum(best[i] for i in cheap) <= SWEEP_SHARE * sum(best) else []


def check_job(job, results):
    """Check every op's output; returns failures, known defects, counters and
    stdout digests.  Runs after the timed pass."""
    failures, defects, counters, digests = [], [], {}, {}
    for op, (_, out, err) in zip(job.ops, results):
        if err is not None:
            if op.deep and isinstance(err, RecursionError):
                defects.append(op.key)
            else:
                failures.append(f"{op.key}: raised {type(err).__name__}: {err}")
            continue
        try:
            reason = op.check(out)
            counts = op.count(out) if op.count and reason is None else {}
        except Exception as exc:
            reason, counts = f"checking raised {type(exc).__name__}: {exc}", {}
        if reason is not None:
            failures.append(f"{op.key}: {reason}")
        for name, value in counts.items():
            counters[name] = counters.get(name, 0) + value
        if op.cli:
            digests[op.key] = workloads.stdout_digest(out)
    return failures, defects, job.summarize(counters), digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="gzip JSON-lines file for one traced job")
    args = ap.parse_args()

    lib = load_library()
    # Bulk kernels import numpy on first use; do it before timing so the
    # first repeat is not the only one that pays for it.
    import monadlab._bulk  # noqa: F401
    import numpy

    job = workloads.WORKLOADS[args.workload](lib, args.seed)
    # The inputs live for the whole run; keep the collector from walking
    # them in every repeat, and start each repeat from a collected heap.
    gc.collect()
    gc.freeze()
    tracer = tracing.Tracer(lib) if args.trace else None

    cpus = sorted(os.sched_getaffinity(0))
    walls, traced_walls, pinned, probes = [], [], [], []
    # Each op's fastest untraced repeat.  The host's speed swings by up to 2x
    # in phases of a fraction of a second to minutes; every op's repeats are
    # a job apart, so its fastest one usually falls in a fast phase, while a
    # median of whole jobs moves with the share of slow phases in the run.
    best = [float("inf")] * len(job.ops)
    traced_best = list(best)
    cheap = []
    failures, defects, counter_runs, digest_runs, layer_runs = [], [], [], [], []
    attempted = 0
    spans_written = False
    start = perf_counter()
    warm_up = tracer is not None
    while True:
        round_start = perf_counter()
        traced = tracer is not None and not warm_up and len(walls) > len(traced_walls)
        gc.collect()
        picked, probe = cpu.pin_fastest(cpus)
        pinned.append(picked)
        probes.append(probe)
        if traced:
            tracer.install()
        try:
            extra = []
            wall, results = run_job(job, () if traced else cheap, extra)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = tracer.reset()
            traced_walls.append(wall)
            traced_best = [min(b, r[0]) for b, r in zip(traced_best, results)]
            layer_runs.append(tracing.summarize(spans, wall))
            if args.spans and not spans_written:
                with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
                    for rec in spans:
                        fh.write(json.dumps(rec) + "\n")
                spans_written = True
        elif not warm_up:
            walls.append(wall)
            best = [min(b, r[0]) for b, r in zip(best, results)]
            for i, seconds in extra:
                best[i] = min(best[i], seconds)
            cheap = sweep_plan(best)
        fails, defs, counters, digests = check_job(job, results)
        attempted += len(results)
        failures.extend(fails)
        defects.extend(defs)
        counter_runs.append(counters)
        digest_runs.append(digests)
        del results
        warm_up = False
        # Stop before a repeat that would run past --seconds, once there
        # are enough repeats (and, when tracing, whole untraced/traced pairs).
        now = perf_counter()
        over = now - start + (now - round_start) > args.seconds
        if tracer:
            enough = traced_walls and len(walls) == len(traced_walls)
        else:
            enough = len(walls) >= MIN_REPEATS
        if over and enough:
            break

    print(json.dumps({
        "walls": walls,
        "traced_walls": traced_walls,
        "op_best": best if walls else [],
        "traced_op_best": traced_best if traced_walls else [],
        "slowest_ops": sorted(zip(best, (op.key for op in job.ops)), reverse=True)[:12]
        if walls else [],
        "cheap_ops": len(cheap),
        "pinned_cpus": pinned,
        "probe_s": probes,
        "ops_per_job": len(job.ops),
        "attempted": attempted,
        "failures": failures,
        "known_defects": defects,
        "counter_runs": counter_runs,
        "digest_runs": digest_runs,
        "layer_runs": layer_runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "controls": oracles.negative_controls(),
        "info": job.info,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
