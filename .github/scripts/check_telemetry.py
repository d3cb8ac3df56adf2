"""Checks a telemetry.jsonl stream with a parser independent of fiq's.

Usage: python3 check_telemetry.py TELEMETRY.jsonl

The stream is a header followed only by the end-of-run lines: counters
and histograms (engine scope, then each cell), one `worker` line per
worker, and one `summary` line. Any other line, such as an `event`
line, fails the check. Every line must carry exactly its kind's keys,
and every histogram's buckets must sum to its count. Per cell, the
reported steps must split exactly into skipped, executed and
reconstructed steps; no more tasks can early-exit than checkpoint
compares were made, since each early exit ends at a compare; and a
task is at most one of an early exit and a proven hang, so together
they are at most the tasks that ran.
"""
import json
import sys

HIST_BUCKETS = 65

path = sys.argv[1]
lines = [json.loads(l) for l in open(path)]
head, body = lines[0], lines[1:]
assert head["record"] == "telemetry" and head["version"] == 1, head
assert {"seed", "injections", "hang_factor", "workers", "cells"} <= head.keys(), head
labels = [c["label"] for c in head["cells"]]

assert body, "telemetry stream has no end-of-run lines"
for l in body:
    assert l["record"] in ("counter", "hist", "worker", "summary"), l


def scope_keys(m):
    if m["scope"] == "engine":
        return set()
    assert m["scope"] == "cell", m
    assert 0 <= m["cell"] < len(labels) and m["label"] == labels[m["cell"]], m
    return {"cell", "label"}


metrics = [l for l in body if l["record"] in ("counter", "hist")]
workers = [l for l in body if l["record"] == "worker"]
assert body == metrics + workers + body[-1:], "end-of-run lines out of order"
seen = set()
for m in metrics:
    key = (m["record"], m["scope"], m.get("cell"), m["name"])
    assert key not in seen, f"repeated metric {key}"
    seen.add(key)
    if m["record"] == "counter":
        assert m.keys() == {"record", "scope", "name", "value"} | scope_keys(m), m
        assert isinstance(m["value"], int) and m["value"] >= 0, m
    else:
        assert m.keys() == {"record", "scope", "name", "count", "sum", "buckets"} \
            | scope_keys(m), m
        idx = [b[0] for b in m["buckets"]]
        assert all(len(b) == 2 for b in m["buckets"]), m
        assert idx == sorted(set(idx)) and all(0 <= i < HIST_BUCKETS for i in idx), m
        assert sum(b[1] for b in m["buckets"]) == m["count"], m
assert [w["worker"] for w in workers] == list(range(head["workers"])), workers
for w in workers:
    assert w.keys() == {"record", "worker", "tasks"}, w
summary = body[-1]
assert summary.keys() == {"record", "total", "done", "resumed", "fast_forwarded",
                          "early_exited"} and summary["record"] == "summary", summary
cell_counters = {}
for m in metrics:
    if m["record"] == "counter" and m["scope"] == "cell":
        cell_counters.setdefault(m["cell"], {})[m["name"]] = m["value"]
for cell, c in sorted(cell_counters.items()):
    parts = [c.get(n, 0) for n in ("steps_skipped_ff", "steps_executed",
                                   "steps_reconstructed_ee")]
    assert c.get("steps_reported", 0) == sum(parts), (cell, c)
    early_exited = c.get("early_exited", 0)
    assert early_exited <= c.get("digest_compares", 0), (cell, c)
    assert early_exited + c.get("hangs_proven", 0) <= c.get("tasks", 0), (cell, c)
executed = sum(m["value"] for m in metrics
               if m["record"] == "counter" and m["scope"] == "cell" and m["name"] == "tasks")
assert executed == summary["done"] - summary["resumed"], (executed, summary)
print(f"{path}: {len(metrics)} metrics, "
      f"{len(workers)} workers, {summary['done']}/{summary['total']} tasks")
