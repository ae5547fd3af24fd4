"""The traced form of each workload: the per-layer metrics.

Each traced run times a few untraced passes, then one pass with `--trace`
and `--metrics`, over the same scope (the whole corpus, or a fixed prefix
of a generated manifest, since a trace of 300 generated requests is already
tens of MB). Exact work counters come from `--metrics` passes over the
whole workload, and must repeat exactly.
"""

import os

import layers
import workloads as w


def traced_launch(ctx, args, tag):
    trace = ctx.path(tag + ".trace.jsonl")
    metrics = ctx.path(tag + ".metrics.json")
    run = w.launch(ctx, args + ["--trace", trace, "--metrics", metrics])
    spans = layers.read_spans(trace)
    os.remove(trace)
    return run, spans, layers.read_counters(metrics)


def metrics_launch(ctx, args, tag):
    metrics = ctx.path(tag + ".metrics.json")
    run = w.launch(ctx, args + ["--metrics", metrics])
    return run, layers.read_counters(metrics)


def check_repeat(ctx, what, first, second):
    a, b = layers.exact_counters(first), layers.exact_counters(second)
    ctx.check(a == b, "%s: exact counters differ: %s vs %s" % (what, a, b))


def checked(ctx, what, run, decls):
    w.check_exit(ctx, what, run)
    w.check_answers(ctx, what, run.lines, decls)
    return run


def counter_metrics(full):
    return {
        "lp.solves": full.get("simplex.solves", 0),
        "lp.pivots": full.get("simplex.pivots", 0),
        "lp.pivots_per_solve": layers.ratio(full.get("simplex.pivots", 0),
                                            full.get("simplex.solves", 0)),
        "fm.rows_generated": full.get("fm.rows_generated", 0),
        "fm.rows_pruned": full.get("fm.rows_pruned", 0),
        "inference.sweeps": full.get("inference.sweeps", 0),
        "inference.widenings": full.get("inference.widenings", 0),
        "governor.work": full.get("governor.work", 0),
        "cache.hit_ratio": layers.ratio(full.get("cache.hits", 0),
                                        full.get("cache.lookups", 0)),
        "inference_cache.hit_ratio": layers.ratio(
            full.get("inference_cache.hits", 0),
            full.get("inference_cache.lookups", 0)),
        "cache.single_flight_waits": full.get("cache.single_flight_waits", 0),
    }


def span_layer_metrics(spans, traced_counters):
    spanned = layers.span_metrics(spans)
    result = {k: v for k, v in spanned.items() if not k.startswith("_")}
    result["fm.prune_yield"] = layers.ratio(
        traced_counters.get("fm.rows_pruned", 0), spanned["_prune_solves"])
    return result, spanned["_batch_ms"]


def batch_trace(ctx, scope_args, scope_decls, full_args, full_decls,
                full_passes, reference=None):
    """Untraced and traced passes over the scope, then `full_passes`
    metrics passes over the whole workload."""
    untraced = [checked(ctx, "untraced", w.launch(ctx, scope_args),
                        scope_decls) for _ in range(2)]
    run, spans, traced_counters = traced_launch(ctx, scope_args, "scope")
    checked(ctx, "traced", run, scope_decls)
    full = []
    for k in range(full_passes):
        full_run, counters = metrics_launch(ctx, full_args, "full%d" % k)
        checked(ctx, "metrics", full_run, full_decls)
        if reference is not None:
            w.check_same(ctx, "metrics vs cold", full_run.lines, reference)
        full.append((full_run, counters))
    if full_passes > 1:
        check_repeat(ctx, "metrics passes", full[0][1], full[1][1])
    else:
        check_repeat(ctx, "traced vs metrics pass", traced_counters,
                     full[0][1])
    metrics = counter_metrics(full[0][1])
    spanned, batch_ms = span_layer_metrics(spans, traced_counters)
    metrics.update(spanned)
    metrics["engine.cpu_s"] = layers.median([r.cpu_s for r, _ in full])
    metrics["cli.outside_engine_ms"] = run.exit_s * 1000.0 - batch_ms
    metrics["trace_overhead"] = layers.ratio(
        run.exit_s, layers.median([r.exit_s for r in untraced]))
    return metrics, full[0][0]


def corpus_cold(ctx):
    manifest, decls, _ = w.corpus_setup(ctx)
    args = w.batch_args(manifest)
    metrics, _ = batch_trace(ctx, args, decls, args, decls, 1)
    return metrics


def gen_cold(ctx):
    manifest, decls, _ = w.gen_setup(ctx)
    prefix = w.write_prefix(manifest, ctx.path("prefix.jsonl"),
                            w.TRACE_PREFIX)
    metrics, _ = batch_trace(ctx, w.batch_args(prefix),
                             decls[:w.TRACE_PREFIX], w.batch_args(manifest),
                             decls, 2)
    return metrics


def gen_warm(ctx):
    manifest, decls, store, cold, _ = w.warm_setup(ctx, 0)
    args = w.batch_args(manifest, "--store", store)
    metrics, full = batch_trace(ctx, args, decls, args, decls, 1,
                                reference=cold.lines)
    metrics["store.bytes"] = os.path.getsize(store)
    metrics["store.appends"] = w.stderr_json(
        cold.stderr, "store")["store"]["appends"]
    metrics["store.persisted_hits"] = w.stderr_json(
        full.stderr, "persisted_hits").get("persisted_hits", 0)
    return metrics


def listen_session(ctx, lines, reference, extra=()):
    """One server on a fresh store: closed then paced phase over
    TRACE_PREFIX requests each."""
    server = w.Server(ctx, ctx.path("listen.db"), extra)
    try:
        walls, segments, lateness = w.drive(ctx, server, lines, reference,
                                            w.TRACE_PREFIX, w.TRACE_PREFIX)
    finally:
        rss_mb, cpu_s, stderr = w.stop_server(ctx, server)
    return {"wall": walls[0], "latencies": segments[0], "lateness": lateness,
            "cpu_s": cpu_s, "stderr": stderr,
            "store_bytes": os.path.getsize(server.store)}


def gen_listen(ctx):
    manifest, lines, decls = w.listen_manifest(ctx, w.TRACE_PREFIX,
                                               w.TRACE_PREFIX)
    reference = w.listen_reference(ctx, manifest, decls)
    untraced = [listen_session(ctx, lines, reference) for _ in range(2)]
    trace = ctx.path("server.trace.jsonl")
    metrics_path = ctx.path("server.metrics.json")
    traced = listen_session(ctx, lines, reference,
                            ["--trace", trace, "--metrics", metrics_path])
    spans = layers.read_spans(trace)
    os.remove(trace)
    served = layers.read_counters(metrics_path)
    batch_run, batch_counters = metrics_launch(ctx, w.batch_args(manifest),
                                               "batch")
    checked(ctx, "metrics", batch_run, decls)
    check_repeat(ctx, "server vs batch", served, batch_counters)

    metrics = counter_metrics(served)
    spanned, _ = span_layer_metrics(spans, served)
    metrics.update(spanned)
    paced_names = {name for name, _ in
                   decls[w.TRACE_PREFIX:2 * w.TRACE_PREFIX]}
    metrics["net.transport_ms_p50"] = (
        layers.percentile(traced["latencies"], 50) -
        layers.percentile(layers.request_span_ms(spans, paced_names), 50))
    metrics["net.bytes_in"] = served.get("net.bytes.in", 0)
    metrics["net.bytes_out"] = served.get("net.bytes.out", 0)
    metrics["net.req.shed"] = served.get("net.req.shed", 0)
    metrics["engine.cpu_s"] = layers.median([s["cpu_s"] for s in untraced])
    metrics["client.send_late_ms_p99"] = layers.median(
        [layers.percentile(s["lateness"], 99) for s in untraced])
    metrics["store.bytes"] = traced["store_bytes"]
    store = w.stderr_json(traced["stderr"], "store").get("store", {})
    metrics["store.appends"] = store.get("appends", 0)
    metrics["store.persisted_hits"] = w.stderr_json(
        traced["stderr"], "persisted_hits").get("persisted_hits", 0)
    metrics["trace_overhead"] = layers.ratio(
        traced["wall"], layers.median([s["wall"] for s in untraced]))
    return metrics


TRACED = {
    "corpus_cold": corpus_cold,
    "gen_cold": gen_cold,
    "gen_warm": gen_warm,
    "gen_listen": gen_listen,
}
