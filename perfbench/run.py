"""monadlab benchmark: one command runs a workload, checks its outputs and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A run record
(machine, versions, seed, counters, stdout digests, controls) is written to
``perfbench/out/``, together with a ledger that flags CLI output or coverage
counters that change between runs of the same source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cpu  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("laws", "classify", "verify", "terms")
#: Fresh interpreters timed before the workload, and as many again after it,
#: so the median spans the host's state over the whole run.
SETUP_REPEATS = 8
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

#: Per-layer metrics: name -> unit.  Counters come from op outputs, the rest
#: from spans of the traced repeats (averaged per job).
PER_LAYER = {
    "finset.calls": "count",
    "finset.self_s": "s",
    "finset.exp_map.self_s": "s",
    "finset.curry.self_s": "s",
    "finset.compose.self_s": "s",
    "statemonad.self_s": "s",
    "statemonad.unit_law.s": "s",
    "statemonad.mult_agreement.s": "s",
    "statemonad.associativity.s": "s",
    "statemonad.points.full": "count",
    "statemonad.points.reduced": "count",
    "statemonad.points.sampled": "count",
    "statemonad.full.points_per_s": "1/s",
    "statemonad.reduced.points_per_s": "1/s",
    "statemonad.sampled.points_per_s": "1/s",
    "statemonad.sampled_checks": "count",
    "algebra.self_s": "s",
    "algebra.search.self_s": "s",
    "algebra.validate.accept.s": "s",
    "algebra.validate.reject.s": "s",
    "algebra.validate.accept.calls": "count",
    "algebra.validate.reject.calls": "count",
    "algebra.validate.sampled": "count",
    "algebra.morphism_witness.s": "s",
    "algebra.morphism_witness.calls": "count",
    "algebra.structures": "count",
    "algebra.guarded": "count",
    "monadicity.self_s": "s",
    "monadicity.verify.self_s": "s",
    "monadicity.check_suite.s": "s",
    "monadicity.check_suite.calls": "count",
    "monadicity.function_algebra.self_s": "s",
    "monadicity.base_map.self_s": "s",
    "monadicity.checks": "count",
    "equational.self_s": "s",
    "equational.parse.s": "s",
    "equational.parse.calls": "count",
    "equational.normalize.s": "s",
    "equational.normalize.calls": "count",
    "equational.equal.s": "s",
    "equational.equal.calls": "count",
    "equational.free_classes.s": "s",
    "equational.free_classes.calls": "count",
    "equational.nf_agreement": "ratio",
    "equational.nf_size_ratio": "ratio",
    "equational.recursion_errors": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.top_level_share": "ratio",
}

#: Span-derived counts that must repeat exactly at a fixed seed.
SPAN_COUNTS = [k for k in PER_LAYER if k.endswith(".calls")] + [
    "algebra.validate.sampled", "trace.spans"]


def tree_digest(top: str, suffix: str = "") -> str:
    """sha256 over the relative paths and contents of the files under ``top``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
        for name in sorted(filenames):
            if not name.endswith(suffix):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": tree_digest(os.path.join(root, "src")),
        "bench_sha256": tree_digest(HERE, ".py"),
    }


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter to ``import monadlab`` done."""
    code = "import time, monadlab; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
    out = []
    cpus = os.sched_getaffinity(0)
    cpu.pin_fastest(sorted(cpus))
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"import monadlab failed: {proc.stderr.strip()}")
            out.append((int(proc.stdout) - t0) / 1e9)
    finally:
        # The worker picks its own CPU from the full set.
        os.sched_setaffinity(0, cpus)
    return out


def p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def load_ledger(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def save_json(path: str, data) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def drift_checks(raw: dict, ledger: dict, key: str) -> list[str]:
    """Stdout digests and coverage counters must repeat within this run and
    match earlier runs of the same source at the same seed."""
    problems = []
    for what, runs in (("stdout", raw["digest_runs"]), ("counters", raw["counter_runs"])):
        reason = oracles.check_repeat(what, runs)
        if reason:
            problems.append(reason)
    span_counts = [{k: r[k] for k in SPAN_COUNTS} for r in raw["layer_runs"]]
    if span_counts:
        reason = oracles.check_repeat("span counts", span_counts)
        if reason:
            problems.append(reason)
    digests = ledger.setdefault("digests", {})
    for op, digest in raw["digest_runs"][0].items():
        if digests.setdefault(op, digest) != digest:
            problems.append(f"stdout of '{op}' differs from an earlier run")
    seen = ledger.setdefault("counters", {})
    current = dict(raw["counter_runs"][0], **(span_counts[0] if span_counts else {}))
    before = seen.setdefault(key, {})
    for name, value in current.items():
        if before.setdefault(name, value) != value:
            problems.append(f"counter {name} is {value}, an earlier run had {before[name]}")
    return problems


def layer_metrics(raw: dict) -> dict:
    runs = raw["layer_runs"]
    m = {k: statistics.fmean(r[k] for r in runs) for k in runs[0]}
    jobs = len(raw["counter_runs"])
    for name, value in raw["counter_runs"][0].items():
        if name in PER_LAYER:
            m[name] = value
    m["equational.recursion_errors"] = len(raw["known_defects"]) / jobs
    # Same estimator as wall_s: the sum of each op's fastest repeat.
    m["trace.overhead_s"] = math.fsum(raw["traced_op_best"]) - math.fsum(raw["op_best"])
    return {k: m.get(k, 0) for k in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    began = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "monadlab", "__init__.py")):
        print("run from the repository root: src/monadlab is missing", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(root)}
    env = child_env(root)
    setup = [] if args.trace else measure_setup(env)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, stem + ".spans.jsonl.gz")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - began))
    except subprocess.TimeoutExpired:
        print("workload did not finish in time", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 3
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += measure_setup(env)

    ledger_path = os.path.join(out_dir, "ledger.json")
    ledger = load_ledger(ledger_path)
    # Outputs may only be compared between runs of the same program and the
    # same benchmark code.
    code = record["machine"]["src_sha256"][:16] + "-" + record["machine"]["bench_sha256"][:16]
    problems = drift_checks(raw, ledger.setdefault(code, {}), f"{args.workload}|seed={args.seed}")
    save_json(ledger_path, ledger)
    missed = [name for name, reason in raw["controls"].items() if reason is None]
    problems += [f"negative control {name} was not caught" for name in missed]

    attempted, failed = raw["attempted"], len(raw["failures"])
    if args.trace:
        metrics = layer_metrics(raw)
        units = PER_LAYER
        shares = {k: metrics[k] / statistics.median(raw["traced_walls"])
                  for k in tracing.DOMINANT[args.workload]}
        record["dominant_share"] = sum(shares.values())
    else:
        lat = raw["op_best"]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": math.fsum(lat),
            "peak_rss_mb": raw["peak_rss_mb"],
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p99_ms": p99(lat) * 1e3,
        }
        units = END_TO_END
        record["setup_runs_s"] = setup
    correct = not problems and failed == 0
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "fail_ratio_with_known_defects": (failed + len(raw["known_defects"])) / attempted,
        "known_defects": raw["known_defects"], "failures": raw["failures"][:50],
        "problems": problems, "controls": raw["controls"], "versions": raw["versions"],
        "walls_s": raw["walls"], "traced_walls_s": raw["traced_walls"],
        "slowest_ops_s": raw["slowest_ops"], "cheap_ops": raw["cheap_ops"],
        "pinned_cpus": raw["pinned_cpus"], "probe_s": raw["probe_s"],
        "ops_per_job": raw["ops_per_job"], "counters": raw["counter_runs"][0],
        "stdout_digests": raw["digest_runs"][0], "info": raw["info"], "metrics": metrics,
    })
    save_json(os.path.join(out_dir, f"{stem}-trace{args.trace}.json"), record)

    for line in raw["failures"][:20] + problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} jobs={len(raw['walls'])}"
          f"+{len(raw['traced_walls'])} traced, {raw['ops_per_job']} ops/job, "
          f"known defects {len(raw['known_defects'])}, controls caught "
          f"{len(raw['controls']) - len(missed)}/{len(raw['controls'])}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
