#!/bin/sh
# metricsmoke.sh — end-to-end smoke of pvrd's debug endpoint.
#
# Builds pvrd, runs one daemon that originates a prefix (so every plane
# does real work: engine seal, update plane, audit store, disclosure
# server, framing layer), scrapes /metrics over HTTP, and asserts the
# Prometheus exposition is well-formed and complete: at least 25 metric
# families, with at least one family from each plane. This is the check
# that the observability layer stays wired end to end — a plane whose
# Config.Obs plumbing is dropped disappears from the scrape and fails
# here, not in production.
#
# It then dials a second daemon into the first over real TCP (BGP +
# audit gossip) and asserts the distributed-tracing plane holds up
# end to end: /trace?since= serves the cursor envelope, /metrics/history
# serves sampled time series, and at least one trace identity minted on
# the originating daemon shows up in the peer's ring too — the stitched
# cross-participant chain the fleet collector is built on.
#
# Usage: scripts/metricsmoke.sh
set -eu

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pid=""
pid2=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid2" ] && kill "$pid2" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/pvrd" ./cmd/pvrd

"$workdir/pvrd" \
    -listen 127.0.0.1:0 \
    -disclose-listen 127.0.0.1:0 \
    -gossip-listen 127.0.0.1:0 \
    -originate 203.0.113.0/24 \
    -debug-listen 127.0.0.1:0 \
    -store "$workdir/state" \
    >"$workdir/pvrd.log" 2>&1 &
pid=$!

# The daemon logs its ephemeral debug address; wait for the line.
addr=""
for i in $(seq 1 50); do
    addr="$(sed -n 's!.*debug endpoint on http://\([^ ]*\).*!\1!p' "$workdir/pvrd.log" | head -n1)"
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "metricsmoke: pvrd exited before serving; log follows" >&2
        cat "$workdir/pvrd.log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "metricsmoke: no debug endpoint line in pvrd log after 10s" >&2
    cat "$workdir/pvrd.log" >&2
    exit 1
fi

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

# The scrape can race the first epoch seal; retry briefly.
metrics=""
for i in $(seq 1 25); do
    metrics="$(fetch "http://$addr/metrics" 2>/dev/null || true)"
    if [ -n "$metrics" ] && printf '%s\n' "$metrics" | grep -q '^pvr_engine_seals_total [1-9]'; then
        break
    fi
    sleep 0.2
done

families="$(printf '%s\n' "$metrics" | grep -c '^# TYPE ' || true)"
echo "metricsmoke: scraped http://$addr/metrics — ${families} metric families"
if [ "$families" -lt 25 ]; then
    echo "metricsmoke: FAIL — want >= 25 families; exposition follows" >&2
    printf '%s\n' "$metrics" >&2
    exit 1
fi

# One family per plane, plus the participant's own counters. The
# pvr_priv_* families are the privacy plane's: registered whenever a
# participant boots (ring-signed anonymous queries and ZK openings are
# always servable), so a daemon that drops the plane's Obs plumbing
# loses them from the scrape and fails here. The pvr_store_* families
# are the durable store's — daemon A runs with -store, so its appends
# and group commits are live, not just registered.
for family in \
    pvr_engine_seals_total \
    pvr_engine_leaves_hashed_total \
    pvr_upd_events_total \
    pvr_audit_rounds_total \
    pvr_disc_queries_total \
    pvr_netx_frames_out_total \
    pvr_bgp_sessions \
    pvr_routes_verified_total \
    pvr_engine_shard_seal_seconds_bucket \
    pvr_priv_ring_signs_total \
    pvr_priv_ring_verifies_total \
    pvr_priv_anon_queries_total \
    pvr_priv_proofs_built_total \
    pvr_priv_proof_verifies_total \
    pvr_priv_ring_verify_seconds_bucket \
    pvr_priv_proof_gen_seconds_bucket \
    pvr_store_appends_total \
    pvr_store_commits_total \
    pvr_store_commit_seconds_bucket \
    pvr_store_segments
do
    if ! printf '%s\n' "$metrics" | grep -q "^$family"; then
        echo "metricsmoke: FAIL — family $family missing from /metrics" >&2
        exit 1
    fi
done

# /trace must be a JSON array holding the originated prefix's lifecycle.
trace="$(fetch "http://$addr/trace")"
if ! printf '%s' "$trace" | jq -e 'type == "array" and (map(.kind) | index("ShardSealed") != null)' >/dev/null; then
    echo "metricsmoke: FAIL — /trace lacks a ShardSealed event; got:" >&2
    printf '%s\n' "$trace" >&2
    exit 1
fi

# /trace?since= must serve the cursor envelope the fleet collector
# scrapes: {"next": N, "events": [...]} with traced events inside.
if ! fetch "http://$addr/trace?since=0" | jq -e \
    '(.next > 0) and (.events | type == "array") and ([.events[].trace] | map(select(. != null and . != "")) | length > 0)' >/dev/null; then
    echo "metricsmoke: FAIL — /trace?since=0 is not a traced cursor envelope" >&2
    exit 1
fi

# /metrics/history must serve sampled time series (the daemon samples
# once per commitment window, so points accrue within a second).
history=""
for i in $(seq 1 25); do
    history="$(fetch "http://$addr/metrics/history" 2>/dev/null || true)"
    if printf '%s' "$history" | jq -e 'type == "array" and length >= 1 and (.[0].values | type == "object")' >/dev/null 2>&1; then
        break
    fi
    history=""
    sleep 0.2
done
if [ -z "$history" ]; then
    echo "metricsmoke: FAIL — /metrics/history never served a sampled point" >&2
    exit 1
fi

# --- two-daemon TCP run: the trace must cross participants ---

# The first daemon's BGP and gossip listen addresses, from its log.
bgp_addr="$(sed -n 's!.* listening on \([0-9.:]*\)$!\1!p' "$workdir/pvrd.log" | head -n1)"
gossip_addr="$(sed -n 's!.* audit gossip listening on \([0-9.:]*\)$!\1!p' "$workdir/pvrd.log" | head -n1)"
if [ -z "$bgp_addr" ] || [ -z "$gossip_addr" ]; then
    echo "metricsmoke: FAIL — daemon A's BGP/gossip addresses not in its log" >&2
    cat "$workdir/pvrd.log" >&2
    exit 1
fi

"$workdir/pvrd" \
    -asn 64501 \
    -connect "$bgp_addr" \
    -gossip-listen 127.0.0.1:0 \
    -gossip-peers "$gossip_addr" \
    -gossip-every 250ms \
    -debug-listen 127.0.0.1:0 \
    >"$workdir/pvrd2.log" 2>&1 &
pid2=$!

addr2=""
for i in $(seq 1 50); do
    addr2="$(sed -n 's!.*debug endpoint on http://\([^ ]*\).*!\1!p' "$workdir/pvrd2.log" | head -n1)"
    [ -n "$addr2" ] && break
    if ! kill -0 "$pid2" 2>/dev/null; then
        echo "metricsmoke: second pvrd exited before serving; log follows" >&2
        cat "$workdir/pvrd2.log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr2" ]; then
    echo "metricsmoke: no debug endpoint line in second pvrd log after 10s" >&2
    cat "$workdir/pvrd2.log" >&2
    exit 1
fi

# A trace identity minted on daemon A (at announce ingestion) must appear
# in daemon B's ring too, carried there over the wire (BGP seal
# attachment and/or gossip STATEMENTS extension) — a stitched chain.
stitched=""
for i in $(seq 1 50); do
    fetch "http://$addr/trace?since=0" >"$workdir/ta.json" 2>/dev/null || true
    fetch "http://$addr2/trace?since=0" >"$workdir/tb.json" 2>/dev/null || true
    if jq -n -e --slurpfile a "$workdir/ta.json" --slurpfile b "$workdir/tb.json" '
        ([$a[0].events[]?.trace] | map(select(. != null and . != "")) | unique) as $ta |
        ([$b[0].events[]?.trace] | map(select(. != null and . != "")) | unique) as $tb |
        ($ta - ($ta - $tb)) | length > 0' >/dev/null 2>&1; then
        stitched=yes
        break
    fi
    sleep 0.3
done
if [ -z "$stitched" ]; then
    echo "metricsmoke: FAIL — no trace identity shared across the two daemons" >&2
    echo "--- daemon A /trace ---" >&2; cat "$workdir/ta.json" >&2 || true
    echo "--- daemon B /trace ---" >&2; cat "$workdir/tb.json" >&2 || true
    echo "--- daemon B log ---" >&2; cat "$workdir/pvrd2.log" >&2
    exit 1
fi
echo "metricsmoke: cross-participant trace stitched across $addr and $addr2"

echo "metricsmoke: OK"
