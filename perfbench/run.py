#!/usr/bin/env python3
"""End-to-end benchmark of the fuzzyjoin CLIs (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository's tools and the benchmark helpers (perfbench/
CMakeLists.txt) in a fixed build type under $CARGO_TARGET_DIR (default
.bench_build), generates the workload's inputs from --seed, runs it and
checks every output with the independent checker (fjb_check). The last line
of stdout is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, measured from outside on untraced
runs of the real CLIs. --trace 1 reports the per-layer metrics of the traced
harness (fjb_trace) and writes its span file under <build dir>/traces/.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"

TAU = "0.8"
THREADS = 4              # --threads of every batch join
SELF_RECORDS = 1_000_000  # selfjoin-dblp-1m
RS_R, RS_S = 200_000, 100_000  # rsjoin-dblp-citeseerx, 30% overlap
BATCH_CHECK_SAMPLE = 200  # records whose partners are brute-forced

SERVE_CORPUS = 1_000_000  # serve-zipf-mixed
SERVE_THREADS = 2         # fuzzyjoin_serve --threads (QueryService executor)
SERVE_FLOOR = "0.5"
SERVE_KEYS = 1500         # distinct read keys, drawn Zipf(1.0)
SERVE_READS = 1500        # read-phase requests per pass
SERVE_CYCLES = 150        # mixed phase: insert, probe, remove, probe
SERVE_CHECK_SAMPLE = 60   # probe/topk replies brute-forced per run
SERVE_TAUS = ("0.5", "0.6", "0.7", "0.8", "0.9")
SERVE_TOPK = (1, 5, 10)
NEW_RID_BASE = 3_000_000_000  # rids of records the script inserts

WORKLOADS = ("selfjoin-dblp-1m", "rsjoin-dblp-citeseerx", "serve-zipf-mixed")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def require_sources():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no repository sources here ({needed} is missing)", 2)


def build(targets):
    """Configures once and builds `targets`; returns the binary directory."""
    require_sources()
    bdir = os.path.join(build_root(), "perfbench-" + BUILD_TYPE.lower())
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2),
                      "--target", *targets])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return bdir


def binary(bdir, name):
    sub = "fj_tools" if name.startswith("fuzzyjoin") else ""
    return os.path.join(bdir, sub, name)


class Proc:
    """Result of one child process run to completion."""

    def __init__(self, argv, stdout=subprocess.DEVNULL, stderr=None):
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(child.pid, 0)
        self.wall = time.perf_counter() - start
        child.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ------------------------------------------------------------ batch joins

def batch_workload(name, seed, seconds, trace, work, log):
    self_join = name.startswith("selfjoin")
    targets = ["fuzzyjoin", "fjb_gen", "fjb_check"]
    bdir = build(targets + (["fjb_trace"] if trace else []))
    gen = binary(bdir, "fjb_gen")
    if self_join:
        inputs = {"input": os.path.join(work, "input.tsv")}
        gen_argv = [gen, "dblp", f"--records={SELF_RECORDS}", f"--seed={seed}",
                    f"--out={inputs['input']}"]
    else:
        inputs = {"r": os.path.join(work, "r.tsv"),
                  "s": os.path.join(work, "s.tsv")}
        gen_argv = [gen, "rs", f"--r_records={RS_R}", f"--s_records={RS_S}",
                    f"--seed={seed}",
                    f"--r_out={inputs['r']}", f"--s_out={inputs['s']}"]
    if Proc(gen_argv, stderr=log).rc:
        fail("input generation failed")
    in_flags = [f"--{k}={v}" for k, v in inputs.items()]
    mode = "selfjoin" if self_join else "rsjoin"

    def cli(out):
        return Proc([binary(bdir, "fuzzyjoin"), mode, *in_flags, f"--out={out}",
                     f"--tau={TAU}", f"--threads={THREADS}", "--stage1=bto",
                     "--stage2=pk", "--stage3=brj"], stderr=log)

    ref_out = os.path.join(work, "ref.tsv")
    out = os.path.join(work, "out.tsv")
    attempted = failed = 0
    ref_digest = None

    def judge(proc, path):
        """Counts one join; returns True when it produced the reference."""
        nonlocal attempted, failed, ref_digest
        attempted += 1
        if proc.rc == 0 and ref_digest is None:
            shutil.copyfile(path, ref_out)
            ref_digest = digest(ref_out)
            return True
        if proc.rc == 0 and digest(path) == ref_digest:
            return True
        failed += 1
        return False

    # Set-up: the run's first, cold join, from its process's start to its
    # exit. It is also the warm-up pass: the first run after an idle gap is
    # up to 2x slow, so it is kept out of wall_s.
    setup = cli(out)
    judge(setup, out)
    walls, cpus, rss = [], [], []
    traced, untraced = [], []
    start, rounds = time.perf_counter(), 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        if trace:
            tpath = os.path.join(build_root(), "traces", f"{name}-seed{seed}.json")
            os.makedirs(os.path.dirname(tpath), exist_ok=True)
            with open(os.path.join(work, "trace.out"), "w") as tout:
                proc = Proc([binary(bdir, "fjb_trace"), mode, *in_flags,
                             f"--out={out}", f"--tau={TAU}",
                             f"--threads={THREADS}", f"--trace_out={tpath}"],
                            stdout=tout, stderr=log)
            if judge(proc, out):
                with open(os.path.join(work, "trace.out")) as tout:
                    traced.append(json.loads(tout.read().strip().splitlines()[-1]))
            proc = cli(out)
            if judge(proc, out):
                untraced.append(proc.wall)
            continue
        proc = cli(out)
        if judge(proc, out):
            walls.append(proc.wall)
            cpus.append(proc.cpu)
            rss.append(proc.rss_mb)
        print(f"pass {len(walls)}: {proc.wall:.3f} s wall, {proc.cpu:.2f} s cpu, "
              f"{proc.rss_mb:.0f} MB", file=sys.stderr)

    correct = False
    if ref_digest is not None:
        check = [binary(bdir, "fjb_check"), mode, *in_flags, f"--out={ref_out}",
                 f"--tau={TAU}", f"--sample={BATCH_CHECK_SAMPLE}", f"--seed={seed}"]
        correct = Proc(check, stdout=log, stderr=log).rc == 0
    if trace:
        metrics = layer_metrics(traced)
        wall = statistics.median(untraced) if untraced else 0.0
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.pipeline_share"] = (
            metrics.get("fuzzyjoin.pipeline_s", 0.0) / wall if wall else 0.0)
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "cpu_s": statistics.median(cpus) if cpus else 0.0,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "setup_s": setup.wall,
        }
    return correct, attempted, failed, metrics


def layer_metrics(samples):
    """Median of every traced metric over the traced runs."""
    names = sorted({k for s in samples for k in s})
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in names}


# ---------------------------------------------------------------- serving

def serve_script(corpus, seed):
    """The fixed request script of one pass, from the corpus and the seed.

    Read phase: SERVE_READS probe/topk requests over SERVE_KEYS keys drawn
    Zipf(1.0), so repeated keys hit the result cache. Mixed phase:
    SERVE_CYCLES x (insert new, probe, remove corpus record, probe), then a
    compaction. Restore: the inserted records are removed and the removed
    ones re-inserted, so every pass starts from the same live set and must
    get the same replies.
    """
    rng = random.Random(seed)
    want = SERVE_KEYS + 2 * SERVE_CYCLES
    picks = rng.sample(range(SERVE_CORPUS), want)
    rows = {}
    wanted = set(picks)
    with open(corpus) as f:
        for i, line in enumerate(f):
            if i in wanted:
                rid, title, authors, _ = line.split("\t", 3)
                rows[i] = (rid, f"{title} {authors}")
    records = [rows[i] for i in picks]
    # A key's kind follows its Zipf rank, not the seed, so the costliest
    # mix of thresholds sits at the same ranks for every seed.
    keys = []
    for rank, (_, text) in enumerate(records[:SERVE_KEYS]):
        words = text.split()
        if len(words) > 3 and rng.random() < 0.5:
            del words[rng.randrange(len(words))]
        if rank % 7 == 3:
            keys.append(f"topk {SERVE_TOPK[rank // 7 % 3]} {' '.join(words)}")
        else:
            keys.append(f"probe {SERVE_TAUS[rank % 5]} {' '.join(words)}")
    weights = [1.0 / (rank + 1) for rank in range(len(keys))]

    def draw(n):
        return rng.choices(keys, weights=weights, k=n)

    read = draw(SERVE_READS)
    mixed = []
    sources = records[SERVE_KEYS:SERVE_KEYS + SERVE_CYCLES]
    victims = records[SERVE_KEYS + SERVE_CYCLES:]
    for j, ((_, text), (vrid, _)) in enumerate(zip(sources, victims)):
        extra = rng.choice(records)[1].split()[0]
        mixed.append(f"insert {NEW_RID_BASE + j} {text} {extra}")
        mixed.append(draw(1)[0])
        mixed.append(f"remove {vrid}")
        mixed.append(draw(1)[0])
    mixed.append("compact")
    restore = []
    for j, (vrid, vtext) in enumerate(victims):
        restore.append(f"remove {NEW_RID_BASE + j}")
        restore.append(f"insert {vrid} {vtext}")
    first = f"probe 0.9 {records[0][1]}"
    return first, read, mixed, restore


class ServeSession:
    """One fuzzyjoin_serve process driven by a closed-loop client."""

    def __init__(self, server, corpus, log):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [server, f"--load={corpus}", f"--threads={SERVE_THREADS}",
             f"--tau_floor={SERVE_FLOOR}"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log)

    def ask(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            fail("fuzzyjoin_serve exited mid-session")
        return reply.decode().rstrip("\n")

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self):
        """Ends the session; returns the server's peak RSS in MB."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"quit\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


def serve_workload(name, seed, seconds, trace, work, log):
    bdir = build(["fuzzyjoin_serve", "fjb_gen", "fjb_check"] +
                 (["fjb_trace"] if trace else []))
    corpus = os.path.join(work, "corpus.tsv")
    if Proc([binary(bdir, "fjb_gen"), "dblp", f"--records={SERVE_CORPUS}",
             f"--seed={seed}", f"--out={corpus}"], stderr=log).rc:
        fail("corpus generation failed")
    first, read, mixed, restore = serve_script(corpus, seed)
    script = read + mixed + restore
    kinds = [line.split(" ", 1)[0] for line in script]

    # Read-phase requests that repeat an earlier key of the same pass. The
    # read phase has no writes, so the result cache answers exactly these.
    seen, read_repeats = set(), []
    for i, line in enumerate(read):
        if line in seen:
            read_repeats.append(i)
        seen.add(line)

    attempted = failed = 0
    compact_s = hit_s = 0.0
    session = ServeSession(binary(bdir, "fuzzyjoin_serve"), corpus, log)
    try:
        # Set-up: from the server's start to its first answered request.
        first_reply = session.ask(first)
        setup_s = time.perf_counter() - session.start
        attempted += 1
        failed += first_reply.startswith("ERR")

        def one_pass():
            nonlocal attempted, failed, compact_s, hit_s
            replies, lat = [], []
            cpu0, t0 = session.cpu_seconds(), time.perf_counter()
            for line in script:
                a = time.perf_counter()
                replies.append(session.ask(line))
                lat.append(time.perf_counter() - a)
            wall = time.perf_counter() - t0
            compact_s += sum(t for t, k in zip(lat, kinds) if k == "compact")
            hit_s += sum(lat[i] for i in read_repeats)
            attempted += len(script)
            failed += sum(r.startswith("ERR") for r in replies)
            return replies, lat, wall, session.cpu_seconds() - cpu0

        # Untimed warm-up pass; its replies are the ones the checker judges,
        # and every timed pass must repeat them exactly.
        reference = one_pass()[0]
        compact_s = hit_s = 0.0
        walls, cpu, latencies = [], 0.0, {}
        start = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        while not walls or time.perf_counter() - start < budget:
            replies, lat, wall, pass_cpu = one_pass()
            failed += sum(a != b and not a.startswith("ERR")
                          for a, b in zip(replies, reference))
            walls.append(wall)
            cpu += pass_cpu
            print(f"pass {len(walls)}: {wall:.3f} s wall, {pass_cpu:.2f} s cpu",
                  file=sys.stderr)
            for kind, t in zip(kinds, lat):
                latencies.setdefault(kind, []).append(t)
        peak_rss = session.close()
    finally:
        session.kill()

    requests = os.path.join(work, "requests.txt")
    replies_path = os.path.join(work, "replies.txt")
    with open(requests, "w") as f:
        f.write("\n".join([first] + script) + "\n")
    with open(replies_path, "w") as f:
        f.write("\n".join([first_reply] + reference) + "\n")
    correct = Proc([binary(bdir, "fjb_check"), "serve", f"--corpus={corpus}",
                    f"--requests={requests}", f"--replies={replies_path}",
                    f"--tau_floor={SERVE_FLOOR}",
                    f"--sample={SERVE_CHECK_SAMPLE}", f"--seed={seed}"],
                   stdout=log, stderr=log).rc == 0

    probe, topk = latencies["probe"], latencies["topk"]
    writes = latencies["insert"] + latencies["remove"]
    client = {
        "serve.client.probe_p50_us": percentile(probe, 0.5) * 1e6,
        "serve.client.probe_p99_us": percentile(probe, 0.99) * 1e6,
        "serve.client.topk_p50_us": percentile(topk, 0.5) * 1e6,
        "serve.client.write_p50_us": percentile(writes, 0.5) * 1e6,
        "serve.client.ops_per_s": len(script) * len(walls) / sum(walls),
        # Shares of the timed passes' wall time spent in the one compaction
        # per pass and in read-phase requests the cache answers.
        "serve.client.compact_share": compact_s / sum(walls),
        "serve.client.cache_hit_share": hit_s / sum(walls),
    }
    print("client: " + ", ".join(f"{k} {v:.1f}" for k, v in client.items()) +
          f" ({len(probe)} probes)", file=sys.stderr)
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": cpu / len(walls),
            "peak_rss_mb": peak_rss,
            "setup_s": setup_s,
        }
        return correct, attempted, failed, metrics

    script_path = os.path.join(work, "script.txt")
    with open(script_path, "w") as f:
        f.write("\n".join(script) + "\n")
    tpath = os.path.join(build_root(), "traces", f"{name}-seed{seed}.json")
    os.makedirs(os.path.dirname(tpath), exist_ok=True)
    out_path = os.path.join(work, "trace.out")
    with open(out_path, "w") as tout:
        proc = Proc([binary(bdir, "fjb_trace"), "serve", f"--corpus={corpus}",
                     f"--script={script_path}", f"--read={len(read)}",
                     f"--mixed={len(mixed)}",
                     f"--threads={SERVE_THREADS}", f"--trace_out={tpath}"],
                    stdout=tout, stderr=log)
    attempted += 4 * len(script)
    if proc.rc:
        failed += 4 * len(script)
        return correct, attempted, failed, client
    with open(out_path) as tout:
        metrics = json.loads(tout.read().strip().splitlines()[-1])
    metrics.update(client)
    return correct, attempted, failed, metrics


# ------------------------------------------------------------------- main

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(spec, trace, correct, attempted, failed, values):
    key = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec[key]}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.workload:
        parser.error("--workload is required")
    require_sources()  # fail fast, with no result, outside a checkout
    spec = load_spec()
    work = os.path.join(build_root(), "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    log_path = os.path.join(build_root(), "work", f"{args.workload}.log")
    try:
        with open(log_path, "w") as log:
            run = serve_workload if args.workload.startswith("serve") \
                else batch_workload
            result = run(args.workload, args.seed, args.seconds, args.trace,
                         work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(spec, args.trace, *result)


if __name__ == "__main__":
    main()
