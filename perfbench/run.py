#!/usr/bin/env python3
"""The analyzer's benchmark: one command for three workloads.

    python3 perfbench/run.py --workload suite-cold|fuzz-check|serve-edit \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds `psa` and the in-process
harness (`perfbench/harness`) from source into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload, checks the outputs, prints one
row per end-to-end metric with its unit and sample count, and prints as its
last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
the workload once untraced and once in-process with spans around the
calls into each layer, and reports the per-layer metrics plus the tracing
overhead. A failed correctness gate makes the exit code 1. Each run also
writes `perfbench/results/<workload>-seed<N>-trace<T>.json`, stamped with
the host. See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

# The four Table 1 codes and the eight Olden codes, as the harness writes
# them (`psa bench-code` names and sizes).
CODES = ["matvec", "matmat", "lu", "barnes-hut", "treeadd", "power", "em3d",
         "bisort", "tsp", "health", "perimeter", "voronoi"]
LEVELS = ["L1", "L2", "L3"]
LIMIT_MS = 10_000
# The one job expected to stop on the limit (tsp L1 takes 33-42 s).
UNDECIDED = {("tsp", "L1")}
SERVE_LEVEL = "L2"
# Set-up timing on `suite-cold` and `fuzz-check`. One set-up lasts about a
# millisecond, so a sample times SETUP_REPS set-ups in a row. Host speed
# drifts by tens of percent over seconds, so samples taken back to back
# at the start would see another host than the jobs do: one harness
# process times the set-up again before every `suite-cold` job and before
# every FUZZ_SETUP_EVERY-th `fuzz-check` job, and `setup_s` is the median
# sample.
SETUP_REPS = 20
FUZZ_SETUP_EVERY = 10
# Jobs per second of `--seconds`: the pass length in jobs is fixed by the
# arguments, never by the clock, so every count repeats exactly.
FUZZ_PROGRAMS_PER_S = 20
SERVE_REQUESTS_PER_S = 14
MIN_SERVE_REQUESTS = 100
# Passes of an untraced `fuzz-check` or `serve-edit` run; every job's time
# is its best pass. The untraced half of a traced run makes one pass.
PASSES = 2
MIN_BEYOND = 10


class Refused(ValueError):
    """A statistic the samples cannot support."""


class GateFailure(Exception):
    """A correctness gate failed."""


# ----------------------------------------------------------------- statistics

def betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d = 1.0, 1.0 / max(abs(1.0 - (a + b) * x / (a + 1)), tiny)
    f = d
    for m in range(1, 500):
        step = 1.0
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            step = c * d
            f *= step
        if abs(step - 1.0) < 1e-13:
            break
    return front * f


def percentile(values, q):
    """The `q`-th percentile by the Harrell-Davis estimator: a weighted mean
    of all order statistics, so it does not jump when two jobs near the
    percentile swap places.

    Refused when fewer than ten samples lie beyond it: such a tail is set
    by a handful of jobs and moves with any one of them.
    """
    n = len(values)
    if n == 0 or n * (100 - q) / 100 < MIN_BEYOND:
        raise Refused(f"p{q:g} of {n} samples has fewer than {MIN_BEYOND} beyond it")
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted(values)))


def tail_quantile(n):
    """p90, or the highest percentile with ten samples beyond it when p90
    has fewer (a 36-job pass supports p72)."""
    return min(90.0, math.floor(100 * (n - MIN_BEYOND) / n))


def geomean(values):
    if not values or min(values) <= 0:
        raise Refused("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ------------------------------------------------------------ seeded inputs

def suite_jobs(seed):
    """The 36 `suite-cold` jobs (code, level) in the seed's order."""
    jobs = [(c, lvl) for c in CODES for lvl in LEVELS]
    random.Random(f"suite-cold/{seed}").shuffle(jobs)
    return jobs


def fuzz_programs(seed, count):
    """Pool indexes of the `fuzz-check` programs in the seed's order. The
    pool is fixed (the farm's CI batch and its continuation), so every seed
    runs the same programs and the seed sets their order."""
    order = list(range(count))
    random.Random(f"fuzz-check/{seed}").shuffle(order)
    return order


POINTER_DECL = re.compile(r"\*\s*([A-Za-z_]\w*)")
STORE = re.compile(r"^\s*([A-Za-z_]\w*)->([A-Za-z_]\w*) = ([A-Za-z_]\w*);", re.M)


def edit_sites(src):
    """Offsets of the right-hand sides of `a->f = b;` stores whose `b` is a
    declared pointer: rewriting `b` to `NULL` keeps the analysis universe
    and the block structure, so `reanalyze` stays incremental."""
    pointers = set(POINTER_DECL.findall(src))
    return [m.span(3) for m in STORE.finditer(src) if m.group(3) in pointers]


def edit(src, site):
    start, end = site
    return src[:start] + "NULL" + src[end:]


def serve_requests(seed, count, sources):
    """The `serve-edit` request stream, at least `count` long: `(code,
    edited store site or None)` per request, in the seed's order.

    Half the requests resubmit a code unchanged, half rewrite one store.
    Every seed sends the same requests, and the seed sets their order.
    Every code is resubmitted equally often, every editable code is edited
    equally often, and each code's edits walk its store sites in source
    order. Edits at different sites cost different amounts, so a seeded
    choice of sites made the median request time move with the seed."""
    editable = [c for c in CODES if edit_sites(sources[c])]
    g = math.gcd(len(CODES), len(editable))
    per_round = 2 * len(CODES) * len(editable) // g
    rounds = -(-count // per_round)
    stream = [(c, None) for c in CODES for _ in range(rounds * len(editable) // g)]
    for c in editable:
        n = len(edit_sites(sources[c]))
        stream += [(c, i % n) for i in range(rounds * len(CODES) // g)]
    random.Random(f"serve-edit/{seed}").shuffle(stream)
    return stream


def analyze_request(rid, method, code, source):
    return {"id": rid, "method": method,
            "params": {"source": source, "level": SERVE_LEVEL, "key": code,
                       "budget_ms": LIMIT_MS}}


def setup_lines(sources, cache):
    """Warm-up: one `analyze` per code, then the table round trip."""
    lines = [analyze_request(f"warm-{c}", "analyze", c, sources[c]) for c in CODES]
    lines.append({"id": "save", "method": "save_cache", "params": {"path": str(cache)}})
    lines.append({"id": "load", "method": "load_cache", "params": {"path": str(cache)}})
    return lines


def request_lines(stream, sources):
    lines = []
    for i, (code, site) in enumerate(stream):
        src = sources[code]
        if site is not None:
            src = edit(src, edit_sites(src)[site])
        lines.append(analyze_request(i, "reanalyze", code, src))
    return lines


# ------------------------------------------------------------- host and build

def host_stamp():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {"cores": os.cpu_count(), "cpu": cpu, "rustc": rustc,
            "python": sys.version.split()[0], "commit": commit()}


def commit():
    """The git commit, or, in an exported tree, a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates", BENCH / "harness"):
        files += sorted(p for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def calibrate():
    """Seconds for a fixed pure-Python loop: a host-speed drift diagnostic
    taken at the start and the end of every run."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "--locked", "-p", "psa-cli"],
                ["cargo", "build", "--release", "--offline", "--locked",
                 "--manifest-path", str(BENCH / "harness" / "Cargo.toml")]):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return target_dir() / "release" / "psa", target_dir() / "release" / "perfbench-harness"


def run_child(cmd, out_path, err_path):
    """Run `cmd` to completion: (seconds, exit code, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - t
    child.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, child.returncode, usage.ru_maxrss / 1024


def harness(exe, args, name):
    """Run the harness; its JSON document and peak RSS."""
    out, err = WORK / f"{name}.json", WORK / f"{name}.err"
    _, rc, rss = run_child([str(exe)] + args, out, err)
    if rc != 0:
        raise GateFailure(f"harness {args[0]} failed: {err.read_text()[-2000:]}")
    return json.loads(out.read_text()), rss


def write_codes(exe):
    """Write the twelve codes: their sources."""
    harness(exe, ["codes", "--dir", str(WORK / "codes")], "codes")
    return {c: (WORK / "codes" / f"{c}.c").read_text() for c in CODES}


# --------------------------------------------------------------- workloads

def memory_counts(report):
    """(sites proven safe, sites) of a JSON report's memory section."""
    rows = report["memory"]["counts"].values()
    return (sum(r["safe"] for r in rows),
            sum(r["safe"] + r["may_fail"] + r["violation"] for r in rows))


def parallel_loops(report):
    return sum(1 for lp in report["loops"] if lp["parallelizable"])


def suite_cli_job(psa, code, level, k):
    """One `psa analyze` process: its row, with the gate verdict. `psa`
    exits nonzero, after printing its report, on a memory `violation`
    verdict, a refuted `safe` claim or a stop on the limit."""
    out, err = WORK / f"job{k}.out", WORK / f"job{k}.err"
    cmd = [str(psa), "analyze", str(WORK / "codes" / f"{code}.c"), "--level", level,
           "--check", "memory", "--json", "--budget-ms", str(LIMIT_MS)]
    seconds, rc, rss = run_child(cmd, out, err)
    errors = err.read_text().strip()
    row = {"code": code, "level": level, "ms": seconds * 1e3, "rss_mb": rss, "rc": rc,
           "stopped": "analysis stopped early" in errors, "iterations": 0, "transfers": 0,
           "safe": 0, "sites": 0, "loops": 0, "failure": None}
    try:
        report = json.loads(out.read_text())
    except ValueError:
        row["failure"] = f"{code} {level}: exit {rc}, no report: {errors[-500:]}"
        return row
    row["iterations"] = report["stats"]["iterations"]
    row["transfers"] = report["stats"]["stmt_transfers"]
    row["safe"], row["sites"] = memory_counts(report)
    row["loops"] = parallel_loops(report)
    if row["stopped"] and (code, level) not in UNDECIDED:
        row["failure"] = f"{code} {level} stopped on the {LIMIT_MS} ms limit"
    elif rc != 0 and not row["stopped"]:
        row["failure"] = f"{code} {level}: exit {rc}: {errors[-500:]}"
    return row


def best_of(times):
    """A job's time over several passes: its fastest. Interference from
    other tenants of a shared host only ever slows a job, and comes in
    bursts of a few seconds, so passes apart in time rarely all catch one."""
    return min(times)


def suite_cold(psa, exe, seed, trace):
    jobs = suite_jobs(seed)
    # The harness writes the codes, then rewrites them, timed, whenever it
    # reads a line; it exits when its input closes.
    sampler = subprocess.Popen([str(exe), "codes", "--dir", str(WORK / "codes"),
                                "--setup-reps", str(SETUP_REPS), "--resample", "1"],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
    rows = []
    try:
        for k, (code, level) in enumerate(jobs):
            sampler.stdin.write(b"\n")
            sampler.stdin.flush()
            if not sampler.stdout.readline():
                break
            rows.append(suite_cli_job(psa, code, level, k))
    finally:
        out, _ = sampler.communicate()
    if sampler.returncode != 0 or len(rows) < len(jobs):
        raise GateFailure(f"harness codes failed (exit {sampler.returncode})")
    setups = json.loads(out.splitlines()[-1])["setup_s"]
    failures = [r["failure"] for r in rows if r["failure"]]
    decided = [r for r in rows if not r["stopped"]]
    # A stopped job's footprint measures how far the host got before the
    # limit, so peak RSS is taken over the decided jobs.
    run = {"setups": setups, "job_ms": [r["ms"] for r in rows],
           "rss_mb": max(r["rss_mb"] for r in decided),
           "decided": len(decided), "attempted": len(rows),
           "safe": sum(r["safe"] for r in decided), "sites": sum(r["sites"] for r in decided),
           "loops": sum(r["loops"] for r in decided), "failures": failures, "rows": rows}
    if trace:
        spec = ",".join(f"{c}:{lvl}" for c, lvl in jobs)
        doc, _ = harness(exe, ["suite", "--dir", str(WORK / "codes"), "--jobs", spec,
                               "--trace", str(WORK / "spans-suite-cold.json")], "trace")
        failures += [j["failure"] for j in doc["jobs"] if j["failure"]]
        run["traced"] = doc
        run["traced_ms"] = [j["ms"] for j in doc["jobs"]]
    return run


def fuzz_check(exe, seed, seconds, passes, trace):
    programs = ",".join(map(str, fuzz_programs(seed, FUZZ_PROGRAMS_PER_S * seconds)))
    args = ["fuzz", "--programs", programs, "--setup-reps", str(SETUP_REPS),
            "--setup-every", str(FUZZ_SETUP_EVERY)]
    doc, rss = harness(exe, args + ["--passes", str(passes)], "fuzz")
    rows = doc["jobs"]
    failures = [f for r in rows for f in r["failures"]]
    run = {"setups": doc["setup_s"], "job_ms": [best_of(r["ms"]) for r in rows],
           "rss_mb": rss, "attempted": len(rows),
           "decided": sum(1 for r in rows if r["inconclusive"] == 0),
           "safe": sum(r["safe"] for r in rows), "sites": sum(r["sites"] for r in rows),
           "loops": sum(r["loops"] for r in rows), "failures": failures, "rows": []}
    if trace:
        traced, _ = harness(exe, args + ["--trace", str(WORK / "spans-fuzz-check.json")], "trace")
        failures += [f for r in traced["jobs"] for f in r["failures"]]
        run["traced"] = traced
        run["traced_ms"] = [r["ms"][0] for r in traced["jobs"]]
    return run


class Daemon:
    """A `psa serve` process driven by one closed-loop client."""

    def __init__(self, psa, err_path):
        self.err = open(err_path, "wb")
        # The daemon handles each request on a new thread. With glibc's
        # default of up to 8 malloc arenas per core, whether a request's
        # thread reuses the arena of the one before depends on which of the
        # two wins a race to exit and start, and the daemon's peak RSS for
        # the same requests read 198 to 264 MB. One arena makes it repeat;
        # the closed-loop client never has two requests in flight.
        env = dict(os.environ, MALLOC_ARENA_MAX="1")
        self.proc = subprocess.Popen([str(psa), "serve"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err, cwd=ROOT, env=env)

    def call(self, request):
        """Send `request`: the response, and the seconds from sending the
        request line to reading the response line (the JSON is parsed
        after the clock stops)."""
        line = (json.dumps(request) + "\n").encode()
        start = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        took = time.perf_counter() - start
        if not line:
            raise GateFailure("psa serve exited before answering")
        return json.loads(line), took

    def close(self):
        """Shut down and reap the daemon: its peak RSS in MB."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b'{"id": "bye", "method": "shutdown"}\n')
                self.proc.stdin.close()
        except OSError:
            self.proc.kill()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss / 1024
        except ChildProcessError:
            rss = 0.0
        self.proc.stdout.close()
        self.err.close()
        return rss


def without_stats(report):
    return {k: v for k, v in report.items() if k != "stats"}


def serve_setup(psa, sources, cache):
    """Start a daemon and warm it: the daemon, the warm-up reports and the
    set-up time."""
    t = time.perf_counter()
    daemon = Daemon(psa, WORK / "serve.err")
    warm = {}
    try:
        for line in setup_lines(sources, cache):
            resp, _ = daemon.call(line)
            if "result" not in resp:
                raise GateFailure(f"set-up request {line['id']}: {resp.get('error')}")
            if line["method"] == "analyze":
                warm[line["params"]["key"]] = without_stats(resp["result"]["report"])
    except BaseException:
        daemon.close()
        raise
    return daemon, warm, time.perf_counter() - t


def check_response(line, code, edited, resp, warm):
    """The gate on one timed response; None when it passes."""
    if "result" not in resp:
        return f"request {line['id']} ({code}): error {resp.get('error')}"
    result = resp["result"]
    if result.get("incremental") is not True:
        return f"request {line['id']} ({code}): not incremental ({result.get('fallback')})"
    if not edited and without_stats(result["report"]) != warm[code]:
        return f"request {line['id']} ({code}): unchanged resubmit differs from its warm-up report"
    return None


def serve_pass(daemon, lines, stream, warm, failures):
    """One timed pass of the request stream: per-request times, and the
    report of each request that passed the gates (None for the others)."""
    times, reports = [], []
    for line, (code, site) in zip(lines, stream):
        resp, took = daemon.call(line)
        times.append(took * 1e3)
        failure = check_response(line, code, site is not None, resp, warm)
        if failure:
            failures.append(failure)
            reports.append(None)
        else:
            reports.append(resp["result"]["report"])
    return times, reports


def serve_edit(psa, exe, seed, seconds, passes, trace):
    sources = write_codes(exe)
    cache = WORK / "serve-cache.bin"
    stream = serve_requests(seed, max(MIN_SERVE_REQUESTS, SERVE_REQUESTS_PER_S * seconds),
                            sources)
    lines = request_lines(stream, sources)
    # Each pass sets up its own daemon, so every pass sees the same states.
    setups, rss, failures, times, first = [], [], [], [], None
    for _ in range(passes):
        daemon, warm, took = serve_setup(psa, sources, cache)
        setups.append(took)
        try:
            ms, reports = serve_pass(daemon, lines, stream, warm, failures)
        finally:
            rss.append(daemon.close())
        times.append(ms)
        if first is None:
            first = reports
        elif [r and without_stats(r) for r in reports] != [r and without_stats(r) for r in first]:
            failures.append("a request's report differs between passes")
    done = [r for r in first if r is not None]
    run = {"setups": setups, "job_ms": [best_of(t) for t in zip(*times)],
           "rss_mb": max(rss), "attempted": len(lines),
           "decided": sum(1 for r in done if r["stats"].get("stopped") is None),
           "safe": sum(memory_counts(r)[0] for r in done),
           "sites": sum(memory_counts(r)[1] for r in done),
           "loops": sum(parallel_loops(r) for r in done),
           "failures": failures, "rows": []}
    if trace:
        requests = WORK / "serve-requests.jsonl"
        requests.write_text("".join(json.dumps(x) + "\n"
                                    for x in setup_lines(sources, cache) + lines))
        traced, _ = harness(exe, ["serve", "--requests", str(requests),
                                  "--trace", str(WORK / "spans-serve-edit.json")], "trace")
        failures += traced["failures"]
        # The traced server's counts, read like the daemon's reports above.
        for name, count in (("memsafe.sites", lambda r: memory_counts(r)[1]),
                            ("parallel.loops", parallel_loops)):
            traced["metrics"][name]["value"] = float(sum(map(count, traced["reports"])))
        run["traced"] = traced
        run["traced_ms"] = traced["jobs"]
    return run


# ------------------------------------------------------------------ report

def end_to_end(run):
    """Every end-to-end metric: {name: (value, unit, samples)}. The pass
    time is the sum of the job times."""
    ms = run["job_ms"]
    n = len(ms)
    tail = tail_quantile(n)
    return {
        "setup_s": (statistics.median(run["setups"]), "s", len(run["setups"])),
        "pass_s": (sum(ms) / 1e3, "s", n),
        "job_geomean_ms": (geomean(ms), "ms", n),
        "job_p50_ms": (percentile(ms, 50), "ms", n),
        "job_tail_ms": (percentile(ms, tail), "ms", n, f"p{tail:g}"),
        "peak_rss_mb": (run["rss_mb"], "MB", 1),
        "decided_ratio": (run["decided"] / run["attempted"], "ratio", run["attempted"]),
        "safe_ratio": (run["safe"] / run["sites"] if run["sites"] else 0.0, "ratio",
                       run["sites"]),
        "parallel_loops": (run["loops"], "count", 1),
    }


def per_layer(run):
    """The traced run's per-layer metrics plus the tracing overhead: traced
    over untraced time of the same jobs."""
    metrics = {k: (v["value"], v["unit"], 1) for k, v in run["traced"]["metrics"].items()}
    overhead = sum(run["traced_ms"]) / sum(run["job_ms"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio", len(run["job_ms"]))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["suite-cold", "fuzz-check", "serve-edit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # Unwind on SIGTERM too, so a running daemon is shut down and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        print(f"run.py: no analyzer sources at {ROOT} (expected Cargo.toml and crates/cli)",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    psa, exe = build()
    stamp = host_stamp()
    calibration = [calibrate()]
    trace = args.trace == 1
    passes = 1 if trace else PASSES
    try:
        if args.workload == "suite-cold":
            run = suite_cold(psa, exe, args.seed, trace)
        elif args.workload == "fuzz-check":
            run = fuzz_check(exe, args.seed, args.seconds, passes, trace)
        else:
            run = serve_edit(psa, exe, args.seed, args.seconds, passes, trace)
    except GateFailure as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    calibration.append(calibrate())
    metrics = per_layer(run) if trace else end_to_end(run)

    for row in run["rows"]:
        print(f"job {row['code']:>10} {row['level']}  {row['ms']:10.1f} ms  "
              f"{row['rss_mb']:7.1f} MB  {row['iterations']:5} iterations  "
              f"{row['transfers']:6} transfers  safe {row['safe']}/{row['sites']}  "
              f"loops {row['loops']}{'  stopped' if row['stopped'] else ''}")
    for name, (value, unit, n, *note) in metrics.items():
        print(f"{name:>32} = {value:.6g} {unit} (n={n}{', ' + note[0] if note else ''})")
    print(f"host: {stamp['cores']} cores, {stamp['cpu']}, {stamp['rustc']}, {stamp['commit']}; "
          f"calibration {calibration[0]:.3f} s -> {calibration[1]:.3f} s")
    for f in run["failures"]:
        print(f"FAILED: {f}", file=sys.stderr)

    correct = not run["failures"]
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": min(len(run["failures"]), run["attempted"]),
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=stamp, calibration_s=calibration,
                  samples={k: v[2] for k, v in metrics.items()},
                  failures=run["failures"], jobs=run["rows"])
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
