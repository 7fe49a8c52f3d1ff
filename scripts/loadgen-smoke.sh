#!/usr/bin/env bash
# Loadgen + /metrics smoke: boots the real binaries as processes over
# loopback (authority → training server → one encrypted submission →
# prediction endpoint), then drives cryptonn-loadgen at two connection
# counts and asserts a finite training loss, non-zero throughput and a
# clean Prometheus scrape.
#
# This is the CI guard for the operational surface the Go tests cannot
# see: flag wiring, the version handshake across process boundaries, and the
# /metrics endpoint's counter names — dashboards and alerts key on those
# names, so a rename must fail CI, not a production scrape.
#
# Usage: scripts/loadgen-smoke.sh   (from the repo root; Go toolchain on PATH)
set -euo pipefail

PORT_BASE=${PORT_BASE:-17000}
AUTH=127.0.0.1:$((PORT_BASE + 1))
TRAIN=127.0.0.1:$((PORT_BASE + 2))
PREDICT=127.0.0.1:$((PORT_BASE + 3))
METRICS=127.0.0.1:$((PORT_BASE + 4))
AUTHMETRICS=127.0.0.1:$((PORT_BASE + 5))

workdir=$(mktemp -d)
pids=()
cleanup() {
    local pid
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# wait_listening <host:port> <attempts>: polls until the port accepts.
wait_listening() {
    local hp=$1 tries=$2 i
    for ((i = 0; i < tries; i++)); do
        if (exec 3<>"/dev/tcp/${hp%:*}/${hp#*:}") 2>/dev/null; then
            exec 3>&- || true
            return 0
        fi
        sleep 0.2
    done
    echo "loadgen-smoke: nothing listening on $hp" >&2
    return 1
}

echo "== building binaries"
for bin in cryptonn-authority cryptonn-server cryptonn-client cryptonn-loadgen; do
    go build -o "$workdir/$bin" "./cmd/$bin"
done

echo "== starting authority on $AUTH (metrics on $AUTHMETRICS)"
"$workdir/cryptonn-authority" -listen "$AUTH" -bits 64 -metrics-addr "$AUTHMETRICS" \
    2>"$workdir/authority.log" &
pids+=($!)
wait_listening "$AUTH" 150

echo "== starting training server on $TRAIN (predictions on $PREDICT, metrics on $METRICS)"
GOMAXPROCS=2 "$workdir/cryptonn-server" \
    -listen "$TRAIN" -authority "$AUTH" \
    -features 784 -classes 10 -hidden 2 \
    -epochs 1 -expect 1 -seed 3 \
    -predict-listen "$PREDICT" -metrics-addr "$METRICS" \
    2>"$workdir/server.log" &
pids+=($!)
wait_listening "$TRAIN" 150

echo "== submitting one encrypted batch"
"$workdir/cryptonn-client" \
    -authority "$AUTH" -server "$TRAIN" \
    -samples 16 -batch 16 -seed 5

echo "== waiting for training to finish and the prediction endpoint to come up"
wait_listening "$PREDICT" 1500

# The training run reports its loss every epoch; a NaN, an infinity or a
# missing line means the loss path through the real binaries broke.
if ! grep -E "epoch 1/1: avg loss [0-9]+\.[0-9]+$" "$workdir/server.log" >/dev/null; then
    echo "loadgen-smoke: no finite epoch-1 loss line in the server log" >&2
    cat "$workdir/server.log" >&2
    exit 1
fi

echo "== driving loadgen at two connection counts"
"$workdir/cryptonn-loadgen" \
    -authority "$AUTH" -server "$PREDICT" \
    -features 784 -classes 10 \
    -clients 4,32 -requests 3 -samples 1 \
    | tee "$workdir/loadgen.txt"

# Both sweep points must report a non-zero samples/sec figure.
for n in 4 32; do
    if ! grep -E "^clients=$n served [1-9][0-9]* samples .* [1-9][0-9.]* samples/sec" "$workdir/loadgen.txt" >/dev/null; then
        echo "loadgen-smoke: no non-zero throughput line for clients=$n" >&2
        exit 1
    fi
done

echo "== scraping $METRICS/metrics"
curl -fsS "http://$METRICS/metrics" | tee "$workdir/metrics.txt" >/dev/null

# The counter names are operational API: a rename breaks dashboards, so
# it must break this script first. The connection counter also proves
# the loadgen connections really completed the handshake, and the
# rejection counter that the port probes above were not miscounted.
for metric in \
    'cryptonn_predict_requests_total [1-9]' \
    'cryptonn_predict_samples_total [1-9]' \
    'cryptonn_predict_connections_total [1-9]' \
    'cryptonn_predict_handshake_rejected_total 0' \
    'cryptonn_predict_rejected_total ' \
    'cryptonn_predict_panics_total 0' \
    'cryptonn_predict_queue_depth ' \
    'cryptonn_predict_latency_seconds{quantile="0.99"} ' \
    'cryptonn_securemat_dlog_lookups_total [1-9]' \
    'cryptonn_securemat_dlog_rounds_total ' \
    'cryptonn_securemat_dlog_out_of_bound_total 0'; do
    if ! grep -E "^$metric" "$workdir/metrics.txt" >/dev/null; then
        echo "loadgen-smoke: /metrics missing or zero: $metric" >&2
        echo "--- scrape ---" >&2
        cat "$workdir/metrics.txt" >&2
        exit 1
    fi
done

echo "== scraping $AUTHMETRICS/metrics for the authority's counters"
# Every server answers behind the same panic barrier, so every server's
# panic counter is guarded. (The port probes above count as handshake
# rejections here, so that counter is not asserted.)
curl -fsS "http://$AUTHMETRICS/metrics" | tee "$workdir/authority-metrics.txt" >/dev/null
for metric in \
    'cryptonn_authority_served_total [1-9]' \
    'cryptonn_authority_panics_total 0'; do
    if ! grep -E "^$metric" "$workdir/authority-metrics.txt" >/dev/null; then
        echo "loadgen-smoke: authority /metrics missing or zero: $metric" >&2
        echo "--- scrape ---" >&2
        cat "$workdir/authority-metrics.txt" >&2
        exit 1
    fi
done

echo "== sparse leg: linear server, top-k loadgen"
# A second server in the bias-free linear configuration (-hidden 0): the
# loadgen drives coordinate-form top-k requests, and the scrape must show
# the top-k request counters and the masked-key counter advancing (the
# coordinate-form key path ran) — those names are the operational API
# for the sparse serving path.
SPTRAIN=127.0.0.1:$((PORT_BASE + 6))
SPPREDICT=127.0.0.1:$((PORT_BASE + 7))
SPMETRICS=127.0.0.1:$((PORT_BASE + 8))
GOMAXPROCS=2 "$workdir/cryptonn-server" \
    -listen "$SPTRAIN" -authority "$AUTH" \
    -features 784 -classes 10 -hidden 0 \
    -epochs 1 -expect 1 -seed 3 \
    -predict-listen "$SPPREDICT" -metrics-addr "$SPMETRICS" \
    2>"$workdir/sparse-server.log" &
pids+=($!)
wait_listening "$SPTRAIN" 150

"$workdir/cryptonn-client" \
    -authority "$AUTH" -server "$SPTRAIN" \
    -samples 16 -batch 16 -seed 5
wait_listening "$SPPREDICT" 1500

"$workdir/cryptonn-loadgen" \
    -authority "$AUTH" -server "$SPPREDICT" \
    -features 784 -classes 10 \
    -topk 3 -sparse-density 0.01 \
    -clients 4 -requests 3 -samples 1 \
    | tee "$workdir/sparse-loadgen.txt"
if ! grep -E "^clients=4 served [1-9][0-9]* samples .* [1-9][0-9.]* samples/sec" "$workdir/sparse-loadgen.txt" >/dev/null; then
    echo "loadgen-smoke: no non-zero throughput line for the sparse leg" >&2
    exit 1
fi

echo "== scraping $SPMETRICS/metrics for sparse counters"
curl -fsS "http://$SPMETRICS/metrics" | tee "$workdir/sparse-metrics.txt" >/dev/null
for metric in \
    'cryptonn_predict_topk_requests_total [1-9]' \
    'cryptonn_predict_topk_samples_total [1-9]' \
    'cryptonn_securemat_masked_keys_total [1-9]' \
    'cryptonn_predict_panics_total 0'; do
    if ! grep -E "^$metric" "$workdir/sparse-metrics.txt" >/dev/null; then
        echo "loadgen-smoke: sparse /metrics missing or zero: $metric" >&2
        echo "--- scrape ---" >&2
        cat "$workdir/sparse-metrics.txt" >&2
        exit 1
    fi
done

echo "loadgen-smoke: OK"
