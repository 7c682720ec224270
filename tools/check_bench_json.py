#!/usr/bin/env python3
"""Schema-drift guard for the BENCH_*.json and SLO-report artifacts.

Every bench emits one document via bench::BenchSummary with the shape

    {
      "schema": "nicbar-bench-v1",
      "bench": "<name>",
      "rows": [
        {"label": "<case>", "metrics": {"<key>": <number>, ...}},
        ...
      ]
    }

`nicbar_run workload ... --slo-report FILE` emits an SLO burn-rate report
(schema "nicbar-slo-v1"; a JSON array of such documents under --seeds):

    {
      "schema": "nicbar-slo-v1",
      "violating_jobs": <int>,
      "jobs": [
        {"job": <int>, "class": "...", "slo_us": ..., "target": ...,
         "samples": ..., "violations": ..., "compliance": ...,
         "burn_rate": ..., "max_window_burn_rate": ..., "violating": bool,
         "windows": [{"start_us", "end_us", "samples", "violations",
                      "burn_rate"}, ...],
         "critical_path": {"barriers": ..., "dominant_segment": "...",
                           "segments": [{"segment", "self_us",
                                         "queue_us"}, ...]}},
        ...
      ]
    }

bench/rma_barrier emits a crossover-study variant (schema "nicbar-rma-v1"):
the same bench/rows/label/metrics shape where every row must carry finite
positive latencies for all four families on the same axes (nic_pe_us,
nic_gb_us, host_dissem_us, host_tree_us) plus exact_match == 1 (the
contention-free NIC-PE column re-measured through an independent plan must
agree to the last bit).

bench/hier_barrier emits a crossover-study variant (schema "nicbar-hier-v1"):
the same bench/rows/label/metrics shape where every grid row must carry
finite positive latencies for all four families on the same axes (nodes,
nic_pe_us, nic_gb_us, host_dissem_us, hier_us, hier_vs_pe_improvement),
grid rows must ascend in node count, and exactly one "crossover" row must
report crossover_nodes >= 0 (the smallest N where the hierarchical family
beats flat NIC-PE; 0 = never on the measured grid).

bench/pdes_speedup emits an engine-scaling variant (schema "nicbar-pdes-v1"):
the same bench/rows/label/metrics shape with exactly one "host" row carrying
hw_threads >= 1 and sanitized (0 or 1), and grid rows (label "n<N>_w<W>")
each carrying nodes, workers, partitions, sim_total_us, wall_ms, speedup,
bit_identical. Every row must have bit_identical == 1 (the partitioned
engine reproduced the serial timeline exactly); within one node count, all
sim_total_us must be equal; and the speedup claim is conditional on the
build and the host: from an unsanitized build with hw_threads >= 4, some row
with workers >= 4 must show speedup > 1. On smaller hosts (CI containers)
the rows only document partition-count overhead, and a sanitizer build's
wall time measures its runtime and the host's load more than the engine,
so neither is held to a speedup.

bench/churn emits a lifecycle-counter variant (schema "nicbar-churn-v1"):
the same bench/rows/label/metrics shape plus a top-level "cluster_nodes",
where every row's metrics must carry the lifecycle keys (groups_created,
groups_destroyed, groups_per_sec, fallback_fraction, slot_rejections,
slot_high_water, promotions, stale_fenced, failures) with
fallback_fraction in [0, 1], groups_created == groups_destroyed (no group
may leak across a run), and failures == 0 (admission pressure degrades,
it must never fail a job).

The checker dispatches on the "schema" field. CI runs it over the artifacts
so a refactor that silently changes the serialisation (renamed keys,
string-typed numbers, empty row sets) fails the build instead of producing
trajectory files nobody can diff.

Usage: check_bench_json.py FILE [FILE...]   (exit 0 iff every file conforms)
"""

import json
import math
import sys

SCHEMA = "nicbar-bench-v1"
SLO_SCHEMA = "nicbar-slo-v1"
CHURN_SCHEMA = "nicbar-churn-v1"
RMA_SCHEMA = "nicbar-rma-v1"
HIER_SCHEMA = "nicbar-hier-v1"
PDES_SCHEMA = "nicbar-pdes-v1"

# Every rma_barrier row puts all four barrier families on the same axes.
RMA_METRICS = [
    "nic_pe_us", "nic_gb_us", "host_dissem_us", "host_tree_us", "exact_match",
]

# Every hier_barrier grid row puts all four families on the same axes; the
# final "crossover" row reports where the hierarchical family overtakes
# flat NIC-PE (0 = never on the measured grid).
HIER_METRICS = [
    "nodes", "nic_pe_us", "nic_gb_us", "host_dissem_us", "hier_us",
    "hier_vs_pe_improvement",
]

# Every pdes_speedup grid row puts one (nodes, workers) engine point on
# common axes; "host" rows carry hw_threads and sanitized only.
PDES_METRICS = [
    "nodes", "workers", "partitions", "sim_total_us", "wall_ms", "speedup",
    "bit_identical",
]

# Every churn row must carry exactly these lifecycle counters.
CHURN_METRICS = [
    "slots", "groups_created", "groups_destroyed", "groups_per_sec",
    "fallback_fraction", "slot_rejections", "slot_high_water", "promotions",
    "stale_fenced", "failures",
]

# The sim::causal segments, in enum order ("rep" marks the hierarchical
# barrier's representative hop between levels).
SEGMENTS = ["host", "sdma", "send", "wire", "switch", "recv", "firmware", "rdma", "rep"]

# Benches whose rows are improvement-factor figures (Fig. 5b/5d: host/NIC
# latency ratios). Each of their rows must carry at least one *improvement*
# metric, and any improvement factor anywhere must be a sane finite ratio —
# a NaN or 0.0 here means a division by an unmeasured (zero) latency upstream,
# which json.load would otherwise wave through (it accepts NaN/Infinity).
IMPROVEMENT_BENCHES = {"fig5b", "fig5d"}
IMPROVEMENT_MAX = 1000.0


def is_number(v):
    """A finite JSON number (bool is an int subclass; reject it)."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)


def check_slo_doc(doc, where=""):
    """Validates one nicbar-slo-v1 document. Returns a list of problems."""
    problems = []
    if doc.get("schema") != SLO_SCHEMA:
        problems.append("%sschema must be %r, got %r" % (where, SLO_SCHEMA, doc.get("schema")))
    jobs = doc.get("jobs")
    if not isinstance(jobs, list):
        problems.append("%sjobs must be an array" % where)
        return problems
    violating = 0
    for i, job in enumerate(jobs):
        jw = "%sjobs[%d]" % (where, i)
        if not isinstance(job, dict):
            problems.append("%s must be an object" % jw)
            continue
        if not isinstance(job.get("class"), str) or not job.get("class"):
            problems.append("%s.class must be a non-empty string" % jw)
        for key in ("slo_us", "target", "samples", "violations", "compliance",
                    "burn_rate", "max_window_burn_rate"):
            if not is_number(job.get(key)):
                problems.append("%s.%s must be a finite number" % (jw, key))
        if is_number(job.get("compliance")) and not 0.0 <= job["compliance"] <= 1.0:
            problems.append("%s.compliance must be in [0, 1]" % jw)
        if is_number(job.get("burn_rate")) and job["burn_rate"] < 0.0:
            problems.append("%s.burn_rate must be non-negative" % jw)
        if not isinstance(job.get("violating"), bool):
            problems.append("%s.violating must be a bool" % jw)
        elif job["violating"]:
            violating += 1
        windows = job.get("windows", [])
        if not isinstance(windows, list):
            problems.append("%s.windows must be an array" % jw)
            windows = []
        win_samples = 0
        for k, win in enumerate(windows):
            ww = "%s.windows[%d]" % (jw, k)
            if not isinstance(win, dict):
                problems.append("%s must be an object" % ww)
                continue
            for key in ("start_us", "end_us", "samples", "violations", "burn_rate"):
                if not is_number(win.get(key)):
                    problems.append("%s.%s must be a finite number" % (ww, key))
            if is_number(win.get("samples")):
                win_samples += win["samples"]
        if windows and is_number(job.get("samples")) and win_samples != job["samples"]:
            problems.append(
                "%s: window samples sum to %s, job has %s" % (jw, win_samples, job["samples"])
            )
        cp = job.get("critical_path")
        if cp is not None:
            cw = "%s.critical_path" % jw
            if not isinstance(cp, dict):
                problems.append("%s must be an object" % cw)
            else:
                segs = cp.get("segments")
                names = [s.get("segment") for s in segs] if isinstance(segs, list) else []
                if names != SEGMENTS:
                    problems.append("%s.segments must list %s in order" % (cw, SEGMENTS))
                else:
                    for s in segs:
                        if not is_number(s.get("self_us")) or not is_number(s.get("queue_us")):
                            problems.append("%s.segments entries need self_us/queue_us" % cw)
                            break
                if cp.get("dominant_segment") not in SEGMENTS:
                    problems.append(
                        "%s.dominant_segment must be one of %s" % (cw, SEGMENTS)
                    )
    if is_number(doc.get("violating_jobs")) and doc["violating_jobs"] != violating:
        problems.append(
            "%sviolating_jobs says %s but %d jobs are flagged"
            % (where, doc["violating_jobs"], violating)
        )
    elif not is_number(doc.get("violating_jobs")):
        problems.append("%sviolating_jobs must be a number" % where)
    return problems


def check_churn_doc(doc):
    """Validates one nicbar-churn-v1 document. Returns a list of problems."""
    problems = []
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append("bench must be a non-empty string")
    if not is_number(doc.get("cluster_nodes")) or doc.get("cluster_nodes") <= 0:
        problems.append("cluster_nodes must be a positive number")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty array")
        return problems
    for i, row in enumerate(rows):
        where = "rows[%d]" % i
        if not isinstance(row, dict):
            problems.append("%s must be an object" % where)
            continue
        if not isinstance(row.get("label"), str) or not row.get("label"):
            problems.append("%s.label must be a non-empty string" % where)
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            problems.append("%s.metrics must be an object" % where)
            continue
        missing = [k for k in CHURN_METRICS if not is_number(metrics.get(k))]
        if missing:
            problems.append(
                "%s.metrics missing finite numbers for %s" % (where, missing)
            )
            continue
        if not 0.0 <= metrics["fallback_fraction"] <= 1.0:
            problems.append(
                "%s.metrics.fallback_fraction must be in [0, 1], got %r"
                % (where, metrics["fallback_fraction"])
            )
        if metrics["groups_created"] != metrics["groups_destroyed"]:
            problems.append(
                "%s: %s groups created but %s destroyed (a group leaked)"
                % (where, metrics["groups_created"], metrics["groups_destroyed"])
            )
        if metrics["failures"] != 0:
            problems.append(
                "%s: churn must degrade gracefully, but %s collectives failed"
                % (where, metrics["failures"])
            )
    labels = [r.get("label") for r in rows if isinstance(r, dict)]
    if len(labels) != len(set(labels)):
        problems.append("row labels must be unique")
    return problems


def check_rma_doc(doc):
    """Validates one nicbar-rma-v1 document. Returns a list of problems."""
    problems = []
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append("bench must be a non-empty string")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty array")
        return problems
    for i, row in enumerate(rows):
        where = "rows[%d]" % i
        if not isinstance(row, dict):
            problems.append("%s must be an object" % where)
            continue
        if not isinstance(row.get("label"), str) or not row.get("label"):
            problems.append("%s.label must be a non-empty string" % where)
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            problems.append("%s.metrics must be an object" % where)
            continue
        missing = [k for k in RMA_METRICS if not is_number(metrics.get(k))]
        if missing:
            problems.append(
                "%s.metrics missing finite numbers for %s" % (where, missing)
            )
            continue
        for key in RMA_METRICS[:-1]:
            if metrics[key] <= 0.0:
                problems.append(
                    "%s.metrics[%r] must be a positive latency, got %r"
                    % (where, key, metrics[key])
                )
        if metrics["exact_match"] != 1:
            problems.append(
                "%s: NIC-PE re-measurement diverged from the fig5a grid "
                "(exact_match=%r; determinism regression)"
                % (where, metrics["exact_match"])
            )
    labels = [r.get("label") for r in rows if isinstance(r, dict)]
    if len(labels) != len(set(labels)):
        problems.append("row labels must be unique")
    return problems


def check_hier_doc(doc):
    """Validates one nicbar-hier-v1 document. Returns a list of problems."""
    problems = []
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append("bench must be a non-empty string")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty array")
        return problems
    grid_nodes = []
    crossover_rows = 0
    for i, row in enumerate(rows):
        where = "rows[%d]" % i
        if not isinstance(row, dict):
            problems.append("%s must be an object" % where)
            continue
        label = row.get("label")
        if not isinstance(label, str) or not label:
            problems.append("%s.label must be a non-empty string" % where)
            continue
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            problems.append("%s.metrics must be an object" % where)
            continue
        if label == "crossover":
            crossover_rows += 1
            if not is_number(metrics.get("crossover_nodes")) or metrics["crossover_nodes"] < 0:
                problems.append(
                    "%s.metrics.crossover_nodes must be a non-negative number" % where
                )
            continue
        missing = [k for k in HIER_METRICS if not is_number(metrics.get(k))]
        if missing:
            problems.append("%s.metrics missing finite numbers for %s" % (where, missing))
            continue
        for key in HIER_METRICS:
            if metrics[key] <= 0.0:
                problems.append(
                    "%s.metrics[%r] must be positive, got %r" % (where, key, metrics[key])
                )
        grid_nodes.append(metrics["nodes"])
    if crossover_rows != 1:
        problems.append("exactly one 'crossover' row expected, found %d" % crossover_rows)
    if not grid_nodes:
        problems.append("at least one grid row (label 'n<N>') expected")
    elif grid_nodes != sorted(grid_nodes):
        problems.append("grid rows must be in ascending node order, got %s" % grid_nodes)
    labels = [r.get("label") for r in rows if isinstance(r, dict)]
    if len(labels) != len(set(labels)):
        problems.append("row labels must be unique")
    return problems


def check_pdes_doc(doc):
    """Validates one nicbar-pdes-v1 document. Returns a list of problems."""
    problems = []
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append("bench must be a non-empty string")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty array")
        return problems
    hw_threads = None
    sanitized = None
    host_rows = 0
    sim_total_by_nodes = {}
    best_speedup_4w = 0.0
    grid_rows = 0
    for i, row in enumerate(rows):
        where = "rows[%d]" % i
        if not isinstance(row, dict):
            problems.append("%s must be an object" % where)
            continue
        label = row.get("label")
        if not isinstance(label, str) or not label:
            problems.append("%s.label must be a non-empty string" % where)
            continue
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            problems.append("%s.metrics must be an object" % where)
            continue
        if label == "host":
            host_rows += 1
            if not is_number(metrics.get("hw_threads")) or metrics["hw_threads"] < 1:
                problems.append("%s.metrics.hw_threads must be >= 1" % where)
            else:
                hw_threads = metrics["hw_threads"]
            if metrics.get("sanitized") not in (0, 1):
                problems.append("%s.metrics.sanitized must be 0 or 1" % where)
            else:
                sanitized = metrics["sanitized"]
            continue
        grid_rows += 1
        missing = [k for k in PDES_METRICS if not is_number(metrics.get(k))]
        if missing:
            problems.append("%s.metrics missing finite numbers for %s" % (where, missing))
            continue
        if metrics["bit_identical"] != 1:
            problems.append(
                "%s: the partitioned engine diverged from the serial timeline "
                "(bit_identical=%r; determinism regression)" % (where, metrics["bit_identical"])
            )
        n = metrics["nodes"]
        if n in sim_total_by_nodes and sim_total_by_nodes[n] != metrics["sim_total_us"]:
            problems.append(
                "%s: sim_total_us %r differs from an earlier n=%s row's %r "
                "(the simulated timeline must not depend on the engine)"
                % (where, metrics["sim_total_us"], n, sim_total_by_nodes[n])
            )
        sim_total_by_nodes.setdefault(n, metrics["sim_total_us"])
        if metrics["workers"] >= 4 and metrics["speedup"] > best_speedup_4w:
            best_speedup_4w = metrics["speedup"]
    if host_rows != 1:
        problems.append("exactly one 'host' row expected, found %d" % host_rows)
    if grid_rows == 0:
        problems.append("at least one grid row (label 'n<N>_w<W>') expected")
    # The speedup claim only binds where it measures the engine: an
    # unsanitized build on a host that can express it.
    if sanitized == 0 and hw_threads is not None and hw_threads >= 4 and best_speedup_4w <= 1.0:
        problems.append(
            "host has %g threads but no row with workers >= 4 shows speedup > 1 "
            "(best %g)" % (hw_threads, best_speedup_4w)
        )
    labels = [r.get("label") for r in rows if isinstance(r, dict)]
    if len(labels) != len(set(labels)):
        problems.append("row labels must be unique")
    return problems


def check(path):
    """Returns a list of problems (empty = conforming)."""
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return ["unreadable or invalid JSON: %s" % e]

    # --slo-report artifacts: one document, or an array of them under --seeds.
    if isinstance(doc, list):
        if not doc:
            return ["top-level array must not be empty"]
        for i, sub in enumerate(doc):
            if not isinstance(sub, dict):
                problems.append("[%d] must be an object" % i)
                continue
            problems.extend(check_slo_doc(sub, "[%d]." % i))
        return problems
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    if doc.get("schema") == SLO_SCHEMA:
        return check_slo_doc(doc)
    if doc.get("schema") == CHURN_SCHEMA:
        return check_churn_doc(doc)
    if doc.get("schema") == RMA_SCHEMA:
        return check_rma_doc(doc)
    if doc.get("schema") == HIER_SCHEMA:
        return check_hier_doc(doc)
    if doc.get("schema") == PDES_SCHEMA:
        return check_pdes_doc(doc)
    if doc.get("schema") != SCHEMA:
        problems.append("schema must be %r, got %r" % (SCHEMA, doc.get("schema")))
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append("bench must be a non-empty string")

    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty array")
        return problems

    for i, row in enumerate(rows):
        where = "rows[%d]" % i
        if not isinstance(row, dict):
            problems.append("%s must be an object" % where)
            continue
        if not isinstance(row.get("label"), str) or not row.get("label"):
            problems.append("%s.label must be a non-empty string" % where)
        metrics = row.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            problems.append("%s.metrics must be a non-empty object" % where)
            continue
        improvement_keys = 0
        for key, value in metrics.items():
            # bool is an int subclass in Python; reject it explicitly.
            if not isinstance(key, str) or isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                problems.append("%s.metrics[%r] must map a string to a number" % (where, key))
                continue
            if "improvement" in key:
                improvement_keys += 1
                if not math.isfinite(value):
                    problems.append("%s.metrics[%r] must be finite, got %r" % (where, key, value))
                elif not 0.0 < value < IMPROVEMENT_MAX:
                    problems.append(
                        "%s.metrics[%r] must be a ratio in (0, %g), got %r"
                        % (where, key, IMPROVEMENT_MAX, value)
                    )
            # bench/critical_path writes exact_match=0 when a per-segment
            # attribution drifts off the Eq. 2 closed form; fail the artifact
            # even when the bench's own exit code is not checked.
            if key == "exact_match" and value != 1:
                problems.append(
                    "%s.metrics[%r] must be 1 (ps-exact attribution), got %r"
                    % (where, key, value)
                )
        if doc.get("bench") in IMPROVEMENT_BENCHES and improvement_keys == 0:
            problems.append(
                "%s: bench %r rows must carry at least one *improvement* metric"
                % (where, doc.get("bench"))
            )

    labels = [r.get("label") for r in rows if isinstance(r, dict)]
    if len(labels) != len(set(labels)):
        problems.append("row labels must be unique")
    return problems


def main(argv):
    if len(argv) < 2:
        print("usage: check_bench_json.py FILE [FILE...]", file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        problems = check(path)
        if problems:
            failed = True
            for p in problems:
                print("%s: %s" % (path, p), file=sys.stderr)
        else:
            print("%s: ok" % path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
