#!/usr/bin/env bash
# Compare CI-produced bench artifacts (results/BENCH_*_ci.json) against the
# committed baselines (results/BENCH_*.json) and annotate regressions.
#
# Two kinds of check, with different severities:
#
# * Schema/provenance mismatches (missing "schema": 1 envelope, wrong
#   created_by, absent throughput fields) FAIL the job: those are code
#   bugs in the harness or a stale baseline, and are deterministic.
#
# * Throughput drops are WARN-ONLY (a ::warning:: annotation on >25%
#   regression, exit 0), and so is a missing committed baseline — a new
#   bench lane necessarily lands one commit before its first baseline
#   does. Rationale: the committed baselines were produced
#   on a developer box; shared CI runners are slower, differently shaped
#   (core count, cache sizes), and noisy run-to-run. A hard gate on a
#   wall-clock ratio would flake on runner weather rather than catch real
#   regressions. The annotation keeps the signal visible on every run —
#   and the nightly soak uploads full-size artifacts so a genuine drop
#   shows up as a trend, not a single noisy point.
#
# Usage: scripts/bench_diff.sh [results_dir]   (default: results)
set -euo pipefail

RESULTS_DIR="${1:-results}"

python3 - "$RESULTS_DIR" <<'PY'
import json
import sys
from pathlib import Path

results = Path(sys.argv[1])
THRESHOLD = 0.25  # warn when CI throughput drops >25% below baseline
failures = 0
warnings = 0


def load(path):
    """Load one artifact and hard-check the shared envelope."""
    global failures
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        print(f"::error file={path}::schema != 1 (got {doc.get('schema')!r})")
        failures += 1
    if not str(doc.get("created_by", "")).startswith("gsm-bench/"):
        print(f"::error file={path}::created_by is not a gsm-bench harness")
        failures += 1
    return doc


def throughputs(name, doc):
    """Flatten one bench document to {metric_label: elements_per_sec}."""
    global failures
    out = {}
    try:
        if name == "overlap":
            for eng in doc["engines"]:
                out[f"{eng['engine']} ingest"] = float(eng["throughput_eps"])
        elif name == "shard":
            for run in doc["runs"]:
                out[f"k={run['shards']} ingest"] = float(run["throughput_eps"])
        elif name == "obs_overhead":
            out["recorder-off ingest"] = float(doc["ingest_off_eps"])
            out["recorder-on ingest"] = float(doc["ingest_on_eps"])
            out["recorder-traced ingest"] = float(doc["ingest_traced_eps"])
        elif name == "recovery":
            out["plain ingest"] = float(doc["ingest_plain_eps"])
            out["wal-off ingest"] = float(doc["ingest_wal_off_eps"])
            out["wal-fsync ingest"] = float(doc["ingest_wal_fsync_eps"])
            out["recovery replay"] = float(doc["recovery_eps"])
    except (KeyError, TypeError, ValueError) as exc:
        print(f"::error::BENCH_{name}: malformed throughput fields ({exc})")
        failures += 1
    return out


for name in ("overlap", "shard", "obs_overhead", "recovery"):
    base_path = results / f"BENCH_{name}.json"
    ci_path = results / f"BENCH_{name}_ci.json"
    if not ci_path.exists():
        print(f"bench_diff: {ci_path} absent, skipping {name}")
        continue
    if not base_path.exists():
        # A missing baseline is a bootstrap gap (a new lane lands before
        # its first committed baseline), not a harness bug — surface it
        # without failing the job.
        print(f"::warning file={ci_path}::no committed baseline {base_path}")
        warnings += 1
        continue
    base = throughputs(name, load(base_path))
    ci = throughputs(name, load(ci_path))
    for label, base_eps in sorted(base.items()):
        if label not in ci:
            # CI runs at smoke size; a baseline config absent from the CI
            # sweep (e.g. higher shard counts) is expected, not an error.
            print(f"bench_diff: {name}/{label}: not in CI artifact, skipped")
            continue
        ratio = ci[label] / base_eps if base_eps > 0 else float("inf")
        line = (
            f"{name}/{label}: baseline {base_eps:,.0f}/s, "
            f"ci {ci[label]:,.0f}/s (x{ratio:.2f})"
        )
        if ratio < 1.0 - THRESHOLD:
            print(f"::warning file={ci_path}::{line} — below the {THRESHOLD:.0%} floor")
            warnings += 1
        else:
            print(f"bench_diff: {line}")

print(f"bench_diff: {warnings} warning(s), {failures} schema failure(s)")
sys.exit(1 if failures else 0)
PY
