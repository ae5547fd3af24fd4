"""Per-layer numbers from the program's own instrumentation.

`termilog_cli --trace FILE.jsonl` writes one span per line (name, start,
duration, and its id and parent id under "args"); `--metrics FILE` writes
the merged counters and histograms (docs/observability.md). This module
aggregates spans by name into self times and reads the counters, with the
layer names of the `src/` modules they come from.
"""

import json
import statistics

# Counters that depend only on the work requested: identical across runs of
# the same input and across --jobs (docs/observability.md). Cache hit and
# single-flight counts are timing-dependent under concurrency and are not
# among them.
EXACT_COUNTERS = [
    "simplex.solves",
    "simplex.pivots",
    "fm.rows_generated",
    "fm.rows_pruned",
    "inference.sweeps",
    "inference.widenings",
    "governor.work",
]


def read_counters(path):
    with open(path) as f:
        return json.load(f).get("counters", {})


def exact_counters(counters):
    return {name: counters.get(name, 0) for name in EXACT_COUNTERS}


def read_spans(path):
    """Returns {id: (name, start_us, dur_us, parent_id, request_name)}."""
    spans = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            event = json.loads(line)
            args = event.get("args", {})
            spans[args.get("id")] = (event["name"], event["ts"], event["dur"],
                                     args.get("parent"), args.get("name"))
    return spans


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """Per span id: its duration minus the part of its interval that its
    children cover (children may run on other threads and overlap)."""
    children = {}
    for sid, (_, ts, dur, parent, _) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append((ts, ts + dur))
    result = {}
    for sid, (_, ts, dur, _, _) in spans.items():
        kids = children.get(sid)
        result[sid] = dur - (_covered(ts, ts + dur, kids) if kids else 0)
    return result


def _has_ancestor(spans, sid, name):
    parent = spans[sid][3]
    while parent in spans:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def span_metrics(spans):
    """Self times (ms) per layer and the request-span distribution."""
    own = self_times(spans)

    def self_ms(match):
        return sum(own[sid] for sid, span in spans.items()
                   if match(span[0])) / 1000.0

    prune_us = sum(span[2] for sid, span in spans.items()
                   if span[0] == "fm.lp_prune"
                   and not _has_ancestor(spans, sid, "fm.lp_prune"))
    prune_solves = sum(1 for sid, span in spans.items()
                       if span[0] == "simplex.solve"
                       and _has_ancestor(spans, sid, "fm.lp_prune"))
    requests = [span[2] / 1000.0 for span in spans.values()
                if span[0] == "request"]
    batch_ms = sum(span[2] for span in spans.values()
                   if span[0] == "batch.run") / 1000.0
    return {
        "lp.self_ms": self_ms(lambda n: n.startswith("simplex.")),
        "fm.self_ms": self_ms(lambda n: n in ("fm.eliminate", "fm.project")),
        "fm.prune_ms": prune_us / 1000.0,
        "inference.self_ms": self_ms(lambda n: n.startswith("inference.")),
        "scc.self_ms": self_ms(lambda n: n.startswith("scc.")),
        "prep.self_ms": self_ms(
            lambda n: n.startswith("prep") or n.startswith("transform.")),
        "engine.request_self_ms": self_ms(lambda n: n == "request"),
        "engine.request_ms_p50": percentile(requests, 50),
        "engine.request_ms_p99": percentile(requests, 99),
        "_prune_solves": prune_solves,
        "_batch_ms": batch_ms,
    }


def request_span_ms(spans, names):
    """Durations (ms) of the `request` spans whose name argument is in
    `names`."""
    return [span[2] / 1000.0 for span in spans.values()
            if span[0] == "request" and span[4] in names]


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0
