#!/usr/bin/env python3
"""Flow benchmark: builds the socfmea library and the flow_bench harness from
source, runs one workload, checks its results and prints the metrics.

    python3 perfbench/run.py --workload paper_flow --seed 42 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones;
the line before it carries the run's provenance.  Build output, the
self-time table and diagnostics go to standard error.  A failed check makes
the command exit 1 after printing the result.

Everything is written under the build directory: $CARGO_TARGET_DIR when set,
else .bench_build, relative to the repository root.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "reports", "memsys_sil3.golden.json")
GOLDEN_SEED = 42
WORKLOADS = ("paper_flow", "edit_loop", "search", "warm_replay")

# Exact work counts: the noise-free regression signal.  Jobs of one kind
# must repeat them within a run, and a run must repeat the previous run's
# first round at the same seed and source.
WORK_COUNTERS = (
    "inject.faults_simulated",
    "inject.cycles_simulated",
    "inject.cell_evals",
    "faultsim.bitsliced.word_cycles",
)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds flow_bench; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "flow_bench"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "flow_bench")
    if not os.path.exists(exe):
        raise RuntimeError("flow_bench was not built")
    return exe


def avoid_cpu0():
    """Keeps the measured process off CPU 0 when other CPUs are allowed: on
    the 4-vCPU development VM, CPU 0 also serves the guest's housekeeping and
    runs the same loop about 1.35x slower than CPUs 1-3, so a process the
    scheduler happened to place there read as a slow run."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1 and 0 in cpus:
        os.sched_setaffinity(0, cpus - {0})


def source_hash():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


# ---- golden check (the metrics_gate comparison) ------------------------------

def golden_mismatches(golden, actual, path="", rtol=1e-9):
    """The golden is a subset spec: every key it has must exist in `actual`
    and match; strings/bools exactly, numbers at relative tolerance rtol."""
    is_num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    where = path or "/"
    if is_num(golden):
        if not is_num(actual):
            return [where + ": expected a number"]
        diff = abs(golden - actual)
        if golden != actual and diff > max(rtol * max(abs(golden), abs(actual)), 1e-12):
            return [f"{where}: expected {golden}, got {actual}"]
        return []
    if type(golden) is not type(actual):
        return [f"{where}: expected {golden!r}, got {actual!r}"]
    if isinstance(golden, list):
        if len(golden) != len(actual):
            return [f"{where}: expected {len(golden)} elements, got {len(actual)}"]
        return [m for i, (g, a) in enumerate(zip(golden, actual))
                for m in golden_mismatches(g, a, f"{path}[{i}]", rtol)]
    if isinstance(golden, dict):
        out = []
        for k, v in golden.items():
            if k not in actual:
                out.append(f"{path}/{k}: missing")
            else:
                out.extend(golden_mismatches(v, actual[k], f"{path}/{k}", rtol))
        return out
    return [] if golden == actual else [f"{where}: expected {golden!r}, got {actual!r}"]


def check_golden(report_path):
    """Returns a list of problems: the report against the golden, plus the
    self-test that a golden perturbed from SIL3 to SIL2 is rejected."""
    with open(GOLDEN) as f:
        text = f.read()
    golden = json.loads(text)
    perturbed_text = text.replace("SIL3", "SIL2")
    if perturbed_text == text:
        return ["golden self-test: golden holds no SIL3 verdict"]
    perturbed = json.loads(perturbed_text)
    problems = []
    if golden_mismatches(golden, golden):
        problems.append("golden self-test: golden does not match itself")
    if not golden_mismatches(perturbed, golden):
        problems.append("golden self-test: SIL2-perturbed golden not rejected")
    if report_path is not None:
        with open(report_path) as f:
            report = json.load(f)
        problems += ["golden: " + m for m in golden_mismatches(golden, report)]
        if not golden_mismatches(perturbed, report):
            problems.append("golden self-test: perturbed golden accepted the report")
    return problems


# ---- exact work counts --------------------------------------------------------

def work_counts(job):
    c = {k: int(job["counters"].get(k, 0)) for k in WORK_COUNTERS}
    c["store.bytes_written"] = int(job["store_bytes"])
    c["search.candidates"] = int(job["extra"].get("candidates", 0))
    return c


def check_counts(doc, ledger_path):
    """Marks jobs whose work counts do not repeat; returns run problems."""
    problems = []
    # Within the run: jobs of one kind do the same simulation work.  (Store
    # growth of a warm replay depends on the head the previous job left.)
    first = {}
    for job in doc["jobs"]:
        counts = work_counts(job)
        if doc["workload"] == "warm_replay":
            counts.pop("store.bytes_written")
        ref = first.setdefault(job["kind"], counts)
        if counts != ref:
            job["problems"].append(f"work counts {counts} != first {job['kind']} job {ref}")
    # Across runs: the first round at this seed and source repeats exactly.
    first_round = [work_counts(j) for j in doc["jobs"][:doc["round"]]]
    if os.path.exists(ledger_path):
        with open(ledger_path) as f:
            previous = json.load(f)
        if previous != first_round:
            problems.append(f"work counts differ from the previous run at this seed: "
                            f"{first_round} != {previous}")
    else:
        with open(ledger_path, "w") as f:
            json.dump(first_round, f)
    return problems


# ---- metrics ------------------------------------------------------------------

def job_seconds(doc, key="wall_s"):
    """Median over the run's rotations of the mean job time in a rotation.
    A rotation holds every job kind of the workload once, so each sample
    covers the same work, and all of the run's work enters the median."""
    jobs, rnd = doc["jobs"], doc["round"]
    return statistics.median(
        sum(j[key] for j in jobs[i:i + rnd]) / rnd
        for i in range(0, len(jobs) - rnd + 1, rnd))


def end_to_end(doc):
    return {
        "job_s": (job_seconds(doc), "s"),
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def per_layer(doc):
    jobs = doc["jobs"]
    n = len(jobs)
    tr = doc["trace"]
    layers = tr["layers"]
    simd = doc["provenance"]["simd_width"]

    def counter(name):
        return sum(j["counters"].get(name, 0.0) for j in jobs)

    def timers(pred):
        return sum(v for j in jobs for k, v in j["timers"].items() if pred(k))

    def span_total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    campaign_s = timers(lambda k: k.startswith("inject.campaign."))
    faults = counter("inject.faults_simulated")
    word_cycles = counter("faultsim.bitsliced.word_cycles")
    hits = counter("flow.incremental.stage_hits")
    candidate_spans = layers.get("search.candidate", {}).get("spans", 0)
    store_bytes = sum(j["store_bytes"] for j in jobs)
    m = {
        "memsys.build_s": (tr["setup_build_s"], "s"),
        "core.fmea_flow_s": (span_total("core.fmea_flow") / n, "s"),
        "fmea.sensitivity_s": (span_total("fmea.sensitivity") / n, "s"),
        "core.validation_s": (span_total("core.validation") / n, "s"),
        "inject.campaign_s": (campaign_s / n, "s"),
        "inject.faults": (faults / n, "count"),
        "inject.faults_per_s": (ratio(faults, campaign_s), "1/s"),
        "inject.machine_cycles": (counter("inject.cycles_simulated") / n, "count"),
        "inject.cell_evals": (counter("inject.cell_evals") / n, "count"),
        "faultsim.word_cycles": (word_cycles / n, "count"),
        "faultsim.lane_occupancy": (
            ratio(counter("faultsim.bitsliced.lane_cycles"), word_cycles * simd), "ratio"),
        "faultsim.permanent_s": (
            timers(lambda k: k in ("faultsim.serial", "faultsim.threaded")) / n, "s"),
        "core.incremental_s": (span_total("core.incremental") / n, "s"),
        "core.delta_campaign_s": (span_total("core.delta_campaign") / n, "s"),
        "core.resim_fraction": (
            ratio(counter("flow.incremental.faults_resimulated"),
                  counter("flow.incremental.faults_total")), "ratio"),
        "core.stage_hit_ratio": (
            ratio(hits, hits + counter("flow.incremental.stage_misses")), "ratio"),
        "store.bytes_written": (store_bytes / n, "B"),
        "store.files": (sum(j["store_files"] for j in jobs) / n, "count"),
        "store_mb": (store_bytes / n / 1e6, "MB"),
        "search.candidate_s": (ratio(span_total("search.candidate"), candidate_spans), "s"),
        "search.verify_s": (span_total("search.verify") / n, "s"),
        "search.candidates": (sum(j["extra"].get("candidates", 0) for j in jobs) / n, "count"),
        "search.reuse_ratio": (
            sum(j["extra"].get("reuse_ratio", 0.0) for j in jobs) / n, "ratio"),
        "bench.self_s": (layers["job"]["self_s"] / n, "s"),
        "trace.job_s": (job_seconds(doc), "s"),
        "job_cpu_s": (job_seconds(doc, "cpu_s"), "s"),
    }
    return m


def self_time_problems(doc):
    """The layers' self times plus the benchmark's own time (the job span's
    self time) must add up to the traced job time."""
    tr = doc["trace"]
    total_self = sum(l["self_s"] for l in tr["layers"].values())
    spans = sum(l["spans"] for l in tr["layers"].values())
    if abs(total_self - tr["job_s_total"]) > 1e-6 * max(1, spans):
        return [f"self times sum to {total_self} s, traced jobs took {tr['job_s_total']} s"]
    return []


def self_time_table(doc):
    tr = doc["trace"]
    total = tr["job_s_total"] or 1.0
    lines = [f"self time per layer, workload {doc['workload']} "
             f"({tr['jobs']} traced jobs, {tr['job_s_total']:.4f} s):",
             f"  {'span':<22}{'spans':>7}{'total_s':>12}{'self_s':>12}{'self %':>9}"]
    rows = sorted(tr["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, l in rows:
        label = "job (benchmark)" if name == "job" else name
        lines.append(f"  {label:<22}{l['spans']:>7}{l['total_s']:>12.4f}"
                     f"{l['self_s']:>12.4f}{100 * l['self_s'] / total:>8.2f}%")
    return "\n".join(lines)


# ---- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(bdir, "work", tag)
    results = os.path.join(bdir, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, preexec_fn=avoid_cpu0)
    except subprocess.TimeoutExpired:
        log("run.py: flow_bench timed out")
        return 2
    if res.stderr:
        log(res.stderr.rstrip())
    if res.returncode != 0:
        log(f"run.py: flow_bench exited with {res.returncode}")
        return 2
    doc = json.loads(res.stdout.strip().splitlines()[-1])

    src = source_hash()
    problems = []
    for kind, msgs in doc["kind_problems"].items():
        for job in doc["jobs"]:
            if job["kind"] == kind:
                job["problems"].extend(msgs)
    if args.workload == "paper_flow":
        try:
            golden = check_golden(doc.get("flow_report"))
        except (OSError, ValueError) as e:
            golden = [f"golden check: {e}"]
        if args.seed == GOLDEN_SEED and "flow_report" not in doc:
            golden.append("golden check: no flow report at the golden's seed")
        if golden:
            doc["jobs"][0]["problems"].extend(golden)
    ledger = os.path.join(results, f"counts-{args.workload}-seed{args.seed}-{src[:16]}.json")
    problems += check_counts(doc, ledger)
    if args.trace:
        problems += self_time_problems(doc)

    attempted = len(doc["jobs"])
    failed = sum(1 for j in doc["jobs"] if j["problems"])
    if problems and failed == 0:
        failed = attempted  # a run-level check failed: no job counts as good
    for j in doc["jobs"]:
        for p in j["problems"]:
            log(f"check failed: {j['kind']}: {p}")
    for p in problems:
        log(f"check failed: {p}")

    provenance = dict(doc["provenance"])
    provenance.update({"commit": git_commit(), "source_sha256": src,
                       "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "jobs": attempted, "fail_frac": failed / attempted})
    if args.trace:
        table = self_time_table(doc)
        log(table)
        with open(os.path.join(results, f"{tag}-selftime.txt"), "w") as f:
            f.write(table + "\n")
        shutil.copyfile(os.path.join(work, "trace.json"),
                        os.path.join(results, f"{tag}-trace.json"))
        metrics = per_layer(doc)
    else:
        metrics = end_to_end(doc)
    doc["provenance"] = provenance
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump(doc, f)

    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
    correct = failed == 0 and not problems
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
