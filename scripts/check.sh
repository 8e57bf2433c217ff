#!/usr/bin/env bash
# Full local gate: build, tests, formatting, and a CLI observability smoke run.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The root manifest's `default-members` makes this run every crate's
# suites, not just the umbrella package's.
echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> rustdoc (deny warnings) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
cargo test -q --doc --workspace

echo "==> CLI profile smoke"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p ft-cli -- \
    generate --benchmark moldyn --ops 5000 -o "$tmp/moldyn.ftrace"
cargo run --release -q -p ft-cli -- \
    profile "$tmp/moldyn.ftrace" --metrics "$tmp/out.json"
python3 - "$tmp/out.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert any(k.startswith("rule.") and k.endswith(".percent")
           for k in doc["detector"]["gauges"]), "missing per-rule percentages"
assert any(".on_op_ns" in k for k in doc["pipeline"]["histograms"]), \
    "missing per-stage latency histograms"
assert "online.emit_ns" in doc["online_direct"]["histograms"], \
    "missing online overhead stats"
assert "online.queue_lag_ns" in doc["online_buffered"]["histograms"], \
    "missing buffered queue stats"
print("profile smoke OK:", sys.argv[1])
EOF

echo "==> CLI diagnostics smoke (report bundle + Prometheus exposition)"
cargo run --release -q -p ft-cli -- \
    generate --random --racy 0.3 --ops 5000 --seed 7 -o "$tmp/racy.ftrace"
cargo run --release -q -p ft-cli -- \
    report "$tmp/racy.ftrace" --recorder 8 -o "$tmp/bundle.json" > /dev/null
cargo run --release -q -p ft-cli -- \
    analyze "$tmp/racy.ftrace" --metrics-format prom > "$tmp/metrics.prom"
python3 - "$tmp/bundle.json" "$tmp/metrics.prom" <<'EOF'
import json, re, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "ftrace.report/1", "unknown bundle schema"
assert doc["warnings"], "racy workload produced no warnings"
rules = {r["rule"] for r in doc["rule_breakdown"] if r["hits"] > 0}
for w in doc["warnings"]:
    p = w["provenance"]
    assert p is not None, f"warning without provenance: {w}"
    assert p["rule"] in rules, f"provenance rule {p['rule']} not counted"
    assert p["recent"], "flight recorder drained no events"
    for tail in p["recent"]:
        assert 0 < len(tail["events"]) <= 8, "tail violates ring capacity"
assert doc["recorder"]["capacity"] == 8
assert doc["tiers"]["total"] > 0, "tier counters empty"
assert "ftrace_tier_governed_hits" in doc["metrics_prom"], \
    "bundle missing embedded Prometheus text"
# Validate the standalone exposition: every sample line must be
# `name[{labels}] value` with a legal metric name, and the per-tier
# counters must be present.
name_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$')
text = open(sys.argv[2]).read()
samples = [l for l in text.splitlines() if l and not l.startswith("#")]
assert samples, "empty Prometheus exposition"
for line in samples:
    assert name_re.match(line), f"invalid exposition line: {line!r}"
    float(line.rsplit(" ", 1)[1])
assert any(l.startswith("ftrace_tier_") for l in samples), \
    "per-tier counters missing from Prometheus output"
assert any(l.startswith("ftrace_rule_") for l in samples), \
    "per-rule counters missing from Prometheus output"
print("diagnostics smoke OK: %d warning(s), %d prom sample(s)"
      % (len(doc["warnings"]), len(samples)))
EOF
# Keep the validated bundle + scrape at stable paths so CI can upload them
# as artifacts (the temp dir is removed on exit). Generated outputs live
# under results/ so smoke runs never dirty the tree.
mkdir -p results
cp "$tmp/bundle.json" results/diagnostics_bundle.json
cp "$tmp/metrics.prom" results/diagnostics_metrics.prom

echo "==> CLI ftb round-trip smoke (record -> convert -> analyze agree)"
cargo run --release -q -p ft-cli -- \
    trace record --benchmark tsp --ops 5000 -o "$tmp/tsp.ftb"
cargo run --release -q -p ft-cli -- \
    trace convert "$tmp/tsp.ftb" -o "$tmp/tsp.ftrace"
cargo run --release -q -p ft-cli -- \
    analyze "$tmp/tsp.ftb" --format ftb | grep -v '^streamed' > "$tmp/ftb.txt"
cargo run --release -q -p ft-cli -- \
    analyze "$tmp/tsp.ftrace" --format json > "$tmp/json.txt"
diff "$tmp/ftb.txt" "$tmp/json.txt"
echo "ftb smoke OK: streamed and materialized analyses agree"

echo "==> serve smoke (multi-tenant daemon: two concurrent clients, metrics, SIGTERM)"
cargo run --release -q -p ft-cli -- \
    trace record --random --racy 0.3 --ops 5000 --seed 9 -o "$tmp/alpha.ftb"
cargo run --release -q -p ft-cli -- \
    trace record --random --racy 0.3 --ops 5000 --seed 10 -o "$tmp/beta.ftb"
cargo run --release -q -p ft-cli -- \
    serve --addr 127.0.0.1:0 --mem-budget $((8 << 20)) > "$tmp/serve.log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's/^ftrace serve: listening on //p' "$tmp/serve.log")"
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "serve smoke FAILED: daemon never reported its address"
    cat "$tmp/serve.log"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# Two tenants upload concurrently with ragged chunk sizes so their frames
# interleave on the daemon side.
cargo run --release -q -p ft-cli -- \
    client upload "$tmp/alpha.ftb" --addr "$serve_addr" --tenant alpha \
    --chunk 4096 > "$tmp/report_alpha.json" 2> /dev/null &
alpha_pid=$!
cargo run --release -q -p ft-cli -- \
    client upload "$tmp/beta.ftb" --addr "$serve_addr" --tenant beta \
    --chunk 1536 > "$tmp/report_beta.json" 2> /dev/null &
beta_pid=$!
wait "$alpha_pid" "$beta_pid"
cargo run --release -q -p ft-cli -- \
    client metrics --addr "$serve_addr" > "$tmp/serve.prom"
python3 - "$tmp/report_alpha.json" "$tmp/report_beta.json" "$tmp/serve.prom" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
for doc, tenant in ((a, "alpha"), (b, "beta")):
    assert doc["schema"] == "ftrace.serve.report/1", "unknown report schema"
    assert doc["tenant"] == tenant, f"tenant mislabeled: {doc['tenant']}"
    # The generator rounds --ops up to whole structures, so >= not ==.
    assert doc["events"] >= 5000, "events lost in flight"
    assert doc["dropped_events"] == 0, "Block policy must never shed"
    assert doc["warnings"], f"racy upload for {tenant} produced no warnings"
    assert doc["precision"] == "full", doc["precision"]
# Isolation: different traces through concurrent sessions must keep their
# own warning sets — shared shadow state would bleed one into the other.
assert a["warnings"] != b["warnings"], "tenants share warning state"
assert a["session"] != b["session"], "sessions share an id"
prom = open(sys.argv[3]).read().splitlines()
samples = {l.split(" ")[0]: l.split(" ")[1] for l in prom
           if l and not l.startswith("#")}
assert samples["ftrace_serve_sessions_opened"] == "2", samples
assert samples["ftrace_serve_sessions_closed"] == "2", samples
assert samples["ftrace_serve_sessions_live"] == "0", samples
assert int(samples["ftrace_serve_events_total"]) == a["events"] + b["events"], samples
print("serve smoke OK: 2 isolated tenants, %s + %s warning(s), metrics scraped"
      % (len(a["warnings"]), len(b["warnings"])))
EOF
# SIGTERM has the default disposition (the daemon is pure-std and installs
# no handlers), so 143 is the expected exit; the in-band graceful path
# (SHUTDOWN frame -> exit 0) is exercised by the ft-serve integration tests.
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 143 ] && [ "$serve_rc" -ne 0 ]; then
    echo "serve smoke FAILED: daemon exited $serve_rc after SIGTERM"
    cat "$tmp/serve.log"
    exit 1
fi
if cargo run --release -q -p ft-cli -- client metrics --addr "$serve_addr" \
    > /dev/null 2>&1; then
    echo "serve smoke FAILED: daemon still answering after SIGTERM"
    exit 1
fi
echo "serve shutdown OK: SIGTERM exit $serve_rc, port released"

echo "==> sync fast-lane agreement property suite"
cargo test -q --release --test sync_fastpath_agreement

# The benchmark is a package of its own (outside the workspace), so the
# root `cargo test` does not build it: run its self-tests here, plus the
# buffered online monitor's mid-drain lane regression it keeps as an
# ignored test.
echo "==> perfbench self-tests + online drainer regression"
cargo test -q --release --manifest-path perfbench/Cargo.toml
cargo test -q --release --manifest-path perfbench/Cargo.toml -- --ignored online_drainer

echo "==> all checks passed"
