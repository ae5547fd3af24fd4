"""The four workloads in their timed form (tracing off, end-to-end
metrics); traced.py has their traced form (per-layer metrics).

Every request's answer is checked: generated verdicts against the
manifest's `expect`, corpus verdicts against the corpus's
`expect_proved`, warm output against the cold output it restarts from,
and socket responses against `--batch` output on the same manifest.
"""

import json
import os
import random
import re
import signal
import subprocess
import threading
import time

import client
import layers

JOBS = 2
CONNECTIONS = 2
WINDOW = 8
GEN_PARAMS = "sccs=1-3,preds=1-3,mix=70/25/5"
GEN_COUNT = 3000
LISTEN_DUP = 50
# The timed phase alternates LISTEN_ROUNDS times between a closed-loop
# block of LISTEN_BLOCK requests and a paced segment of LISTEN_SEGMENT
# requests, so each metric samples the whole run and a slow spell of the
# shared host moves some blocks and segments, not all of them. The blocks
# hold different requests, so wall_s is their sum (~3.5 s), not a median.
LISTEN_ROUNDS = 4
LISTEN_BLOCK = 750
LISTEN_CLOSED = LISTEN_BLOCK * LISTEN_ROUNDS
# Paced segments at a rate well below saturation (600-1000 req/s here), as
# queueing amplifies a slowdown of the shared host into the latencies (at
# 250 req/s a slow spell doubled p50).
LISTEN_RATE = 100.0
LISTEN_SEGMENT = 750
LISTEN_PACED = LISTEN_SEGMENT * LISTEN_ROUNDS
# The latency percentiles are medians over windows of LISTEN_WINDOW
# consecutive paced requests (30 windows), so a host hiccup that stalls a
# few requests moves one window's p99, not the reported figure.
LISTEN_WINDOW = 100
TRACE_PREFIX = 300      # generated requests covered by a traced pass
# Set-up is repeated and its median reported; cheap set-ups more often.
SETUP_REPEATS = {"corpus_cold": 3, "gen_cold": 5, "gen_warm": 3,
                 "gen_listen": 5}
PROCESS_TIMEOUT_S = 150
# gen_listen keeps the server and its clients (this process and the
# `--connect` load client) on separate CPUs, so a request's latency does
# not depend on where the scheduler happened to put the client. Every
# other process may use every CPU.
ALL_CPUS = set(os.sched_getaffinity(0))
SERVER_CPUS = set(sorted(ALL_CPUS)[:-1]) if len(ALL_CPUS) >= 4 else ALL_CPUS
CLIENT_CPUS = {max(ALL_CPUS)} if len(ALL_CPUS) >= 4 else ALL_CPUS


def gen_spec(seed, count, dup=0):
    return "%d:count=%d,%s,dup=%d" % (seed, count, GEN_PARAMS, dup)


class Run:
    """One finished CLI process: its stdout lines with arrival times."""

    def __init__(self, lines, times, exit_s, code, rss_mb, cpu_s, stderr):
        self.lines = lines
        self.times = times
        self.exit_s = exit_s
        self.code = code
        self.rss_mb = rss_mb
        self.cpu_s = cpu_s
        self.stderr = stderr

    @property
    def wall_s(self):
        """Launch to the last verdict written."""
        return self.times[-1] if self.times else self.exit_s


def _reap(proc, start, timeout_s):
    """Waits for `proc` (killing it past `timeout_s`); returns
    (exit code, seconds since `start`, peak RSS MB, CPU seconds)."""
    deadline = time.perf_counter() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, elapsed, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def launch(ctx, args, cpus=ALL_CPUS):
    err_path = ctx.path("stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [ctx.binary] + args, stdout=subprocess.PIPE, stderr=err,
            cwd=ctx.root, preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        # A hung process is killed, which ends the read loop below.
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, os.kill,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        lines, times = [], []
        for line in proc.stdout:
            times.append(time.perf_counter() - start)
            lines.append(line)
        proc.stdout.close()
        watchdog.cancel()
        code, exit_s, rss_mb, cpu_s = _reap(proc, start, PROCESS_TIMEOUT_S)
    with open(err_path) as f:
        stderr = f.read()
    return Run(lines, times, exit_s, code, rss_mb, cpu_s, stderr)


class Context:
    def __init__(self, root, binary, work, seed, seconds):
        self.root = root
        self.binary = binary
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}  # raw per-pass figures, reported in the meta line

    def path(self, name):
        return os.path.join(self.work, name)

    def problem(self, text, failed_ops=0):
        self.failed += failed_ops
        if len(self.problems) < 20:
            self.problems.append(text)

    def check(self, condition, text):
        if not condition:
            self.problem(text)


# --------------------------------------------------------------- requests

def read_manifest(path):
    """Returns (request lines incl. newline, [(name, expect)]) of a JSONL
    manifest, skipping its header line."""
    with open(path, "rb") as f:
        lines = [l for l in f if l.strip()]
    requests = lines[1:]
    decls = []
    for line in requests:
        obj = json.loads(line)
        decls.append((obj["name"], obj["expect"]))
    return requests, decls


def corpus_entries(root):
    """(name, expect_proved) of every built-in corpus entry, in corpus
    order, read from the corpus definition in the checkout."""
    with open(os.path.join(root, "src", "corpus", "corpus.cc")) as f:
        text = f.read()
    entries = []
    for block in text.split("corpus.push_back(")[1:]:
        name = re.search(r'\.name\s*=\s*"([^"]+)"', block)
        if name:
            proved = not re.search(r"\.expect_proved\s*=\s*false", block)
            entries.append((name.group(1), proved))
    return entries


def outcome(obj):
    if not obj.get("ok"):
        return "error"
    if obj.get("resource_limited"):
        return "resource_limit"
    return "proved" if obj.get("proved") else "not_proved"


def check_answers(ctx, what, lines, decls):
    """Counts each request as attempted and each wrong, erroring or
    missing answer as failed. `decls` holds (name, expected outcome)."""
    ctx.attempted += len(decls)
    bad = 0
    for k, (name, expect) in enumerate(decls):
        if k >= len(lines):
            bad += len(decls) - k
            ctx.problem("%s: %d answers missing" % (what, len(decls) - k))
            break
        obj = json.loads(lines[k])
        got = outcome(obj)
        if obj.get("name") != name or got != expect:
            bad += 1
            ctx.problem("%s: %s answered %s, expected %s" %
                        (what, obj.get("name"), got, expect))
    if len(lines) > len(decls):
        ctx.problem("%s: %d extra lines" % (what, len(lines) - len(decls)))
    ctx.failed += bad


def check_same(ctx, what, lines, reference):
    """Byte-for-byte comparison with a reference output; each differing or
    missing line is a failed operation (already counted as attempted)."""
    differ = sum(1 for a, b in zip(lines, reference) if a != b)
    differ += abs(len(lines) - len(reference))
    if differ:
        ctx.problem("%s: %d lines differ from the reference" % (what, differ),
                    differ)


def check_exit(ctx, what, run, allowed=(0, 2, 3)):
    # Batch exit codes: 0 all proved, 2 some not proved, 3 some
    # resource-limited (docs: termilog_cli usage).
    ctx.check(run.code in allowed, "%s: exit code %d" % (what, run.code))


def time_to_verdict_ms(run, q):
    return layers.percentile(run.times, q) * 1000.0


def batch_args(manifest, *extra):
    return ["--batch", manifest, "--jobs", str(JOBS)] + list(extra)


def write_prefix(src, dst, count):
    with open(src, "rb") as f:
        lines = f.readlines()
    with open(dst, "wb") as f:
        f.writelines(lines[:count + 1])
    return dst


def generate(ctx, spec, name):
    manifest = ctx.path(name)
    run = launch(ctx, ["--gen", spec, "--out", manifest])
    check_exit(ctx, "--gen", run, (0,))
    return manifest


# ----------------------------------------------------------- batch timing

def batch_passes(ctx, args, decls, what, min_passes):
    """Repeats one batch invocation until --seconds have passed (and at
    least `min_passes` times), checking every answer. Returns the runs."""
    runs = []
    start = time.perf_counter()
    while (len(runs) < min_passes or
           time.perf_counter() - start < ctx.seconds):
        run = launch(ctx, args)
        check_exit(ctx, what, run)
        check_answers(ctx, what, run.lines, decls)
        if runs:
            check_same(ctx, what, run.lines, runs[0].lines)
        runs.append(run)
    return runs


def batch_metrics(ctx, runs, requests, setups, per_pass=1):
    """End-to-end metrics of batch passes. A pass is `per_pass`
    back-to-back invocations (consecutive entries of `runs`); its wall time
    is the sum of theirs. Latencies are per invocation."""
    walls = [sum(r.wall_s for r in runs[k:k + per_pass])
             for k in range(0, len(runs), per_pass)]
    ctx.samples["setup_s"] = [round(x, 4) for x in setups]
    ctx.samples["wall_s"] = [round(x, 4) for x in walls]
    wall = layers.median(walls)
    return {
        "setup_s": layers.median(setups),
        "wall_s": wall,
        "requests_per_s": requests * per_pass / wall,
        "latency_p50_ms": layers.median(
            [time_to_verdict_ms(r, 50) for r in runs]),
        "latency_p99_ms": layers.median(
            [time_to_verdict_ms(r, 99) for r in runs]),
        "peak_rss_mb": layers.median([r.rss_mb for r in runs]),
    }


# ----------------------------------------------------------- the workloads

PROBE_WORK_BUDGET = 2000


def corpus_setup(ctx):
    """Writes the corpus manifest and checks that the build answers every
    entry under a small work budget (entries that trip it must say so).
    Returns (manifest, decls, seconds)."""
    start = time.perf_counter()
    entries = corpus_entries(ctx.root)
    manifest = ctx.path("corpus.txt")
    with open(manifest, "w") as f:
        f.writelines("corpus:%s\n" % name for name, _ in entries)
    run = launch(ctx, batch_args(manifest, "--work-budget",
                                 str(PROBE_WORK_BUDGET)))
    elapsed = time.perf_counter() - start
    decls = [("corpus:" + name, "proved" if proved else "not_proved")
             for name, proved in entries]
    check_exit(ctx, "probe", run)
    tripped = {obj["name"] for obj in map(json.loads, run.lines)
               if obj.get("resource_limited")}
    check_answers(ctx, "probe", run.lines, [
        (name, "resource_limit" if name in tripped else expect)
        for name, expect in decls])
    return manifest, decls, elapsed


def gen_setup(ctx):
    start = time.perf_counter()
    manifest = generate(ctx, gen_spec(ctx.seed, GEN_COUNT), "gen.jsonl")
    elapsed = time.perf_counter() - start
    _, decls = read_manifest(manifest)
    return manifest, decls, elapsed


def repeat_setup(ctx, setup, repeats):
    results = [setup(ctx) for _ in range(repeats)]
    manifest, decls, _ = results[-1]
    return manifest, decls, [r[2] for r in results]


def corpus_cold(ctx):
    manifest, decls, setups = repeat_setup(
        ctx, corpus_setup, SETUP_REPEATS["corpus_cold"])
    # A pass's time depends on when the ~5.7 s nnf SCC starts on one of the
    # two workers (it is entry 33 of 47), so it varies within a run too;
    # the median is taken over 4 passes.
    runs = batch_passes(ctx, batch_args(manifest), decls, "corpus_cold", 4)
    return batch_metrics(ctx, runs, len(decls), setups)


def gen_cold(ctx):
    manifest, decls, setups = repeat_setup(
        ctx, gen_setup, SETUP_REPEATS["gen_cold"])
    runs = batch_passes(ctx, batch_args(manifest), decls, "gen_cold", 3)
    return batch_metrics(ctx, runs, len(decls), setups)


def warm_setup(ctx, index):
    """Generates the manifest and runs it cold into a fresh store (the
    store-write path). Returns (manifest, decls, store, cold run, seconds)."""
    start = time.perf_counter()
    manifest = generate(ctx, gen_spec(ctx.seed, GEN_COUNT), "gen.jsonl")
    store = ctx.path("store%d.db" % index)
    if os.path.exists(store):
        os.remove(store)
    run = launch(ctx, batch_args(manifest, "--store", store))
    elapsed = time.perf_counter() - start
    _, decls = read_manifest(manifest)
    check_exit(ctx, "gen_warm setup", run)
    check_answers(ctx, "gen_warm setup", run.lines, decls)
    return manifest, decls, store, run, elapsed


def gen_warm(ctx):
    setups = [warm_setup(ctx, k)
              for k in range(SETUP_REPEATS["gen_warm"])]
    manifest, decls, _, cold, _ = setups[-1]
    for other in setups[:-1]:
        check_same(ctx, "gen_warm setup", other[3].lines, cold.lines)
    # A timed pass restarts once from each store, back to back (~2 s),
    # so no timed unit is a single sub-second restart.
    runs = []
    start = time.perf_counter()
    while (len(runs) < 3 * len(setups) or
           time.perf_counter() - start < ctx.seconds):
        for _, _, store, _, _ in setups:
            run = launch(ctx, batch_args(manifest, "--store", store))
            check_exit(ctx, "gen_warm", run)
            check_answers(ctx, "gen_warm", run.lines, decls)
            check_same(ctx, "gen_warm vs cold", run.lines, cold.lines)
            runs.append(run)
    return batch_metrics(ctx, runs, len(decls), [s[4] for s in setups],
                         len(setups))


# ---------------------------------------------------------------- listen

class Server:
    """A `termilog_cli --listen unix:...` process and its client
    connections."""

    def __init__(self, ctx, store, extra=()):
        self.sock_path = os.path.relpath(ctx.path("listen.sock"), ctx.root)
        if os.path.exists(self.sock_path):
            os.remove(self.sock_path)
        if os.path.exists(store):
            os.remove(store)
        self.store = store
        self.err_path = ctx.path("server_stderr.txt")
        self.err = open(self.err_path, "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [ctx.binary, "--listen", "unix:" + self.sock_path,
             "--jobs", str(JOBS), "--store", store] + list(extra),
            stdout=subprocess.DEVNULL, stderr=self.err, cwd=ctx.root,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))
        os.sched_setaffinity(0, CLIENT_CPUS)  # this process is a client
        self.stopped = False
        try:
            socks = [client.connect(os.path.join(ctx.root, self.sock_path),
                                    20.0)]
            self.ready_s = time.perf_counter() - self.start
            socks += [client.connect(os.path.join(ctx.root, self.sock_path),
                                     5.0) for _ in range(CONNECTIONS - 1)]
        except OSError:
            self.stop()
            raise
        self.session = client.Session(socks)

    def stop(self):
        """SIGTERM drain; returns (exit code, RSS MB, CPU s, stderr)."""
        if self.stopped:
            return self.result
        self.stopped = True
        if hasattr(self, "session"):
            self.session.close()
        # os.kill, not Popen.send_signal: that polls, which would reap the
        # process before _reap can read its resource usage.
        os.kill(self.proc.pid, signal.SIGTERM)
        code, _, rss_mb, cpu_s = _reap(self.proc, self.start, 60)
        self.err.close()
        with open(self.err_path) as f:
            stderr = f.read()
        self.result = (code, rss_mb, cpu_s, stderr)
        return self.result


def stderr_json(stderr, key):
    """The JSON object among the stderr lines that has `key`."""
    for line in stderr.splitlines():
        if line.startswith("{") and ('"%s"' % key) in line:
            return json.loads(line)
    return {}


def listen_manifest(ctx, closed, paced):
    manifest = generate(ctx, gen_spec(ctx.seed, closed + paced, LISTEN_DUP),
                        "listen.jsonl")
    lines, decls = read_manifest(manifest)
    return manifest, lines, decls


def listen_reference(ctx, manifest, decls):
    """`--batch` output on the same manifest: what every socket response
    must equal byte for byte."""
    run = launch(ctx, batch_args(manifest))
    check_exit(ctx, "gen_listen reference", run)
    check_answers(ctx, "gen_listen reference", run.lines, decls)
    return run.lines


def check_responses(ctx, what, session, indices, reference):
    ctx.attempted += len(indices)
    missing = sum(1 for i in indices if i not in session.responses)
    wrong = sum(1 for i in indices if i in session.responses and
                session.responses[i] != reference[i])
    if missing or wrong:
        ctx.problem("%s: %d missing, %d differ from --batch" %
                    (what, missing, wrong), missing + wrong)


def closed_loop(ctx, server, lines, reference, indices):
    """One closed-loop block through the program's own load client
    (`--connect`: CONNECTIONS connections, WINDOW pipelined each), so the
    client is not what saturates. Returns the client's first-send to
    last-response seconds."""
    path = ctx.path("block.jsonl")
    with open(path, "wb") as f:
        f.writelines(lines[i] for i in indices)
    run = launch(ctx, ["--connect", "unix:" + server.sock_path,
                       "--batch", path, "--clients", str(CONNECTIONS),
                       "--window", str(WINDOW)], CLIENT_CPUS)
    check_exit(ctx, "--connect", run, (0,))
    # Responses come grouped per connection; match them by request name.
    by_name = {json.loads(line).get("name"): line for line in run.lines}
    ctx.attempted += len(indices)
    bad = sum(1 for i in indices
              if by_name.get(json.loads(lines[i])["name"]) != reference[i])
    if bad:
        ctx.problem("gen_listen closed loop: %d responses missing or "
                    "differing from --batch" % bad, bad)
    stats = stderr_json(run.stderr, "connect").get("connect", {})
    return stats.get("elapsed_ms", run.exit_s * 1000.0) / 1000.0


def drive(ctx, server, lines, reference, closed, paced, rounds=1):
    """`rounds` alternations of a closed-loop block (the first `closed`
    requests, split evenly) and a paced segment (the next `paced`, split
    evenly), every response checked against `reference`. Returns (seconds
    per closed-loop block, latencies ms per paced segment, lateness ms)."""
    block, segment = closed // rounds, paced // rounds
    rng = random.Random(ctx.seed)
    walls, segments, lateness = [], [], []
    for k in range(rounds):
        walls.append(closed_loop(ctx, server, lines, reference,
                                 range(k * block, (k + 1) * block)))
        paced_idx = list(range(closed + k * segment,
                               closed + (k + 1) * segment))
        late, behind = server.session.open_loop(
            lines, paced_idx, LISTEN_RATE, rng, 60.0)
        check_responses(ctx, "gen_listen paced", server.session, paced_idx,
                        reference)
        segments.append([x * 1000.0 for x in late])
        lateness += [x * 1000.0 for x in behind]
    return walls, segments, lateness


def stop_server(ctx, server):
    code, rss_mb, cpu_s, stderr = server.stop()
    ctx.check(code == 0, "gen_listen: server drain exit code %d" % code)
    return rss_mb, cpu_s, stderr


def listen_setup(ctx, paced, keep):
    """Manifest generation, a fresh store, and server start to first
    accept. Returns (server or None, seconds); stops the server unless
    `keep`."""
    start = time.perf_counter()
    _, lines, _ = listen_manifest(ctx, LISTEN_CLOSED, paced)
    server = Server(ctx, ctx.path("listen.db"))
    elapsed = time.perf_counter() - start
    if keep:
        return server, elapsed
    # Stop only a server that has answered a request. The program listens
    # before it installs its SIGTERM drain handler, so a SIGTERM sent as
    # soon as the socket accepts can kill it instead of draining it.
    ctx.check(server.session.round_trip(lines[0], 30.0) is not None,
              "gen_listen set-up: the server did not answer")
    stop_server(ctx, server)
    return None, elapsed


def gen_listen(ctx):
    paced = LISTEN_PACED
    manifest, lines, decls = listen_manifest(ctx, LISTEN_CLOSED, paced)
    reference = listen_reference(ctx, manifest, decls)
    setups = []
    repeats = SETUP_REPEATS["gen_listen"]
    for k in range(repeats):
        server, elapsed = listen_setup(ctx, paced, k == repeats - 1)
        setups.append(elapsed)
    try:
        walls, segments, lateness = drive(ctx, server, lines, reference,
                                          LISTEN_CLOSED, paced, LISTEN_ROUNDS)
    finally:
        rss_mb, _, _ = stop_server(ctx, server)
    ctx.samples["setup_s"] = [round(x, 4) for x in setups]
    ctx.samples["wall_s"] = [round(x, 4) for x in walls]
    paced_ms = [x for seg in segments for x in seg]
    windows = [paced_ms[k:k + LISTEN_WINDOW]
               for k in range(0, len(paced_ms), LISTEN_WINDOW)]
    ctx.samples["paced_requests"] = len(paced_ms)
    ctx.samples["pooled_p99_ms"] = round(layers.percentile(paced_ms, 99), 3)
    ctx.samples["window_p99_ms"] = [
        round(layers.percentile(w, 99), 3) for w in windows]
    ctx.samples["client_send_late_ms_p99"] = round(
        layers.percentile(lateness, 99), 3)
    return {
        "setup_s": layers.median(setups),
        "wall_s": sum(walls),
        "requests_per_s": LISTEN_CLOSED / sum(walls),
        "latency_p50_ms": layers.median(
            [layers.percentile(w, 50) for w in windows]),
        "latency_p99_ms": layers.median(
            [layers.percentile(w, 99) for w in windows]),
        "peak_rss_mb": rss_mb,
    }


TIMED = {
    "corpus_cold": corpus_cold,
    "gen_cold": gen_cold,
    "gen_warm": gen_warm,
    "gen_listen": gen_listen,
}
