#!/usr/bin/env bash
# Repo CI gate: build, tests, lints, and the real-concurrency stress
# tests under a timeout (they involve real threads and real files, so a
# deadlock would otherwise hang the pipeline).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> concurrency stress tests (120s timeout)"
timeout 120 cargo test -q -p lsm-kvs --test concurrency

echo "==> sharding gate: multi-threaded shard stress + sharded crash cycles"
timeout 120 cargo test -q -p lsm-kvs --test concurrency sharded_disjoint_writers_with_cross_shard_scans
timeout 120 cargo test -q -p lsm-kvs --test crash_recovery sharded_randomized_crash_cycles_sim

echo "==> sharding gate: --shards 1 must be byte-identical to no flag"
./target/release/db_bench --benchmarks fillrandom --num 20000 > /tmp/ci-noshard.txt
./target/release/db_bench --benchmarks fillrandom --num 20000 --shards 1 > /tmp/ci-shard1.txt
diff /tmp/ci-noshard.txt /tmp/ci-shard1.txt
rm -f /tmp/ci-noshard.txt /tmp/ci-shard1.txt

echo "==> memtable gate: memtable stress suite"
timeout 240 cargo test -q -p lsm-kvs --test memtable_stress

echo "==> memtable gate: prefix bloom + two-level index db_bench smoke (write + read back)"
./target/release/db_bench --benchmarks fillrandom,readrandom --num 20000 \
    --real-time --threads 4 --sync false \
    --option prefix_extractor_len=8 --option index_type=two_level \
    > /tmp/ci-memtable.txt
grep -q "^fillrandom" /tmp/ci-memtable.txt
grep -q "^readrandom" /tmp/ci-memtable.txt
rm -f /tmp/ci-memtable.txt

echo "==> crash-recovery gate: 25 wall-clock power-cut cycles (120s timeout)"
CRASH_DIR="$(mktemp -d)"
trap 'rm -rf "$CRASH_DIR"' EXIT
timeout 120 ./target/release/db_bench --crash-loop 25 --db "$CRASH_DIR"

echo "==> observability gate: stats, listeners, dump parsing"
cargo test -q -p lsm-kvs stats
cargo test -q -p lsm-kvs listener_fires_once_per_stall_transition
cargo test -q -p elmo-tune parses_stats_dump_sections
cargo test -q -p elmo-tune stats_dump

echo "==> serving gate: kv_server end-to-end (remote bench, stats RPC, clean shutdown)"
SERVE_DIR="$(mktemp -d)"
./target/release/kv_server --db "$SERVE_DIR" --listen 127.0.0.1:7491 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null; rm -rf "$CRASH_DIR" "$SERVE_DIR"' EXIT
sleep 1
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 5000 \
    --remote 127.0.0.1:7491 --threads 4 > /tmp/ci-remote.txt
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 5000 \
    --remote 127.0.0.1:7491 --threads 4 --stats_dump >> /tmp/ci-remote.txt
# Batched remote reads: MultiGet frames end-to-end against the live
# server, with the Stats RPC proving the engine's batched path ran.
timeout 120 ./target/release/db_bench --benchmarks multireadrandom --multiget_batch 32 \
    --num 5000 --remote 127.0.0.1:7491 --threads 2 --stats_dump >> /tmp/ci-remote.txt
grep -q "^fillrandom" /tmp/ci-remote.txt
grep -q "^readrandom" /tmp/ci-remote.txt
grep -q "^multireadrandom" /tmp/ci-remote.txt
grep -Eq "rocksdb.multiget_batches COUNT : [1-9]" /tmp/ci-remote.txt
grep -Eq "rocksdb.multiget_keys_read COUNT : [1-9]" /tmp/ci-remote.txt
grep -Eq "rocksdb.db.multiget.micros .* COUNT : [1-9]" /tmp/ci-remote.txt
# The Stats RPC must return a parseable dump: the engine's section plus
# the server's own counters.
grep -q "\*\* DB Stats \*\*" /tmp/ci-remote.txt
grep -q "\*\* Server Stats \*\*" /tmp/ci-remote.txt
grep -q "requests_ok" /tmp/ci-remote.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7491
wait "$SERVER_PID"
trap 'rm -rf "$CRASH_DIR" "$SERVE_DIR"' EXIT
rm -f /tmp/ci-remote.txt

echo "==> serving gate: protocol robustness + shutdown durability tests"
timeout 120 cargo test -q -p lsm-server

echo "==> live-retune gate: SetOptions mid-load, no reopen, tuned config survives restart"
RETUNE_DIR="$(mktemp -d)"
./target/release/kv_server --db "$RETUNE_DIR" --listen 127.0.0.1:7492 --load-options-file &
RETUNE_PID=$!
trap 'kill "$RETUNE_PID" 2>/dev/null; rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR"' EXIT
sleep 1
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 20000 \
    --remote 127.0.0.1:7492 --threads 2 > /tmp/ci-retune-bench.txt &
BENCH_PID=$!
timeout 30 ./target/release/kv_server --set-remote 127.0.0.1:7492 \
    --option max_background_jobs=6 --option level0_slowdown_writes_trigger=30 \
    > /tmp/ci-retune-set.txt
wait "$BENCH_PID"
grep -q "^fillrandom" /tmp/ci-retune-bench.txt
# The dump returned by --set-remote reflects the new values...
grep -q "max_background_jobs=6" /tmp/ci-retune-set.txt
# ...and so does a later independent dump from the still-running server.
timeout 30 ./target/release/kv_server --get-remote 127.0.0.1:7492 > /tmp/ci-retune-get.txt
grep -q "max_background_jobs=6" /tmp/ci-retune-get.txt
grep -q "level0_slowdown_writes_trigger=30" /tmp/ci-retune-get.txt
# An immutable option must be refused (all-or-nothing, server untouched).
if timeout 30 ./target/release/kv_server --set-remote 127.0.0.1:7492 \
    --option num_levels=3 > /dev/null 2>&1; then
    echo "immutable option was accepted over SetOptions"; exit 1
fi
# Zero protocol errors across the whole exchange.
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 1000 \
    --remote 127.0.0.1:7492 --stats_dump > /tmp/ci-retune-stats.txt
grep -q "protocol_errors: 0" /tmp/ci-retune-stats.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7492
wait "$RETUNE_PID"
# Restart over the same directory: --load-options-file must resume the
# tuned configuration from the persisted OPTIONS file.
./target/release/kv_server --db "$RETUNE_DIR" --listen 127.0.0.1:7492 --load-options-file &
RETUNE_PID=$!
sleep 1
timeout 30 ./target/release/kv_server --get-remote 127.0.0.1:7492 > /tmp/ci-retune-resume.txt
grep -q "max_background_jobs=6" /tmp/ci-retune-resume.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7492
wait "$RETUNE_PID"
trap 'rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR"' EXIT
rm -f /tmp/ci-retune-bench.txt /tmp/ci-retune-set.txt /tmp/ci-retune-get.txt \
      /tmp/ci-retune-stats.txt /tmp/ci-retune-resume.txt

echo "==> read-accounting gate: metadata re-reads and table-cache reservations"
cargo test -q -p lsm-kvs --test read_accounting

echo "==> cluster gate: range routing, WAL-shipping replication, leader-kill failover"
CL_A="$(mktemp -d)"; CL_AR="$(mktemp -d)"; CL_B="$(mktemp -d)"
./target/release/kv_server --db "$CL_A" --listen 127.0.0.1:7493 \
    --replica-listen 127.0.0.1:7495 &
CL_A_PID=$!
./target/release/kv_server --db "$CL_AR" --listen 127.0.0.1:7494 \
    --follower-of 127.0.0.1:7495 &
CL_AR_PID=$!
./target/release/kv_server --db "$CL_B" --listen 127.0.0.1:7496 &
CL_B_PID=$!
trap 'kill "$CL_A_PID" "$CL_AR_PID" "$CL_B_PID" 2>/dev/null; \
      rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR" "$CL_A" "$CL_AR" "$CL_B"' EXIT
sleep 1
# Healthy fleet: fill both ranges and read them back through the
# range-routing client (replication riding along on range A).
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 20000 \
    --cluster '127.0.0.1:7493~127.0.0.1:7494,127.0.0.1:7496' --threads 4 \
    > /tmp/ci-cluster.txt
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 20000 \
    --cluster '127.0.0.1:7493~127.0.0.1:7494,127.0.0.1:7496' --threads 4 \
    >> /tmp/ci-cluster.txt
grep -q "^fillrandom" /tmp/ci-cluster.txt
grep -Eq "^readrandom.*\([0-9]+ of [0-9]+ found\)" /tmp/ci-cluster.txt
# Kill the range-A leader while a synced fill is mid-flight. The write
# that hits the dead node surfaces an honest error (so the bench may
# abort), but the cluster client promotes the follower on the way.
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 400000 \
    --cluster '127.0.0.1:7493~127.0.0.1:7494,127.0.0.1:7496' --threads 4 \
    > /tmp/ci-cluster-kill.txt 2>&1 &
CL_BENCH_PID=$!
sleep 2
kill -9 "$CL_A_PID"
wait "$CL_BENCH_PID" || true
# Failover read-back: the promoted follower now leads range A. This
# run only succeeds if it accepts writes (readrandom preloads), i.e.
# if the Promote actually happened.
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 20000 \
    --cluster '127.0.0.1:7494,127.0.0.1:7496' --threads 4 --stats_dump \
    > /tmp/ci-cluster-failover.txt
grep -Eq "^readrandom.*\([0-9]+ of [0-9]+ found\)" /tmp/ci-cluster-failover.txt
grep -q "\*\* Cluster: 2 nodes \*\*" /tmp/ci-cluster-failover.txt
# Zero protocol errors on every surviving node across the whole drill.
if grep -E "protocol_errors: [1-9]" /tmp/ci-cluster-failover.txt; then
    echo "cluster drill left protocol errors behind"; exit 1
fi
grep -q "protocol_errors: 0" /tmp/ci-cluster-failover.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7494
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7496
wait "$CL_AR_PID" "$CL_B_PID"
trap 'rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR" "$CL_A" "$CL_AR" "$CL_B"' EXIT
rm -f /tmp/ci-cluster.txt /tmp/ci-cluster-kill.txt /tmp/ci-cluster-failover.txt

echo "==> YCSB gate: all six mixes in sim with per-op histograms, deterministic"
./target/release/db_bench --ycsb all --scale 0.002 > /tmp/ci-ycsb.txt
for m in a b c d e f; do grep -q "^ycsb_$m" /tmp/ci-ycsb.txt; done
grep -q "Microseconds per scan:" /tmp/ci-ycsb.txt
grep -q "Microseconds per read-modify-write:" /tmp/ci-ycsb.txt
./target/release/db_bench --ycsb a --scale 0.002 > /tmp/ci-ycsb-a2.txt
./target/release/db_bench --ycsb a --scale 0.002 | diff /tmp/ci-ycsb-a2.txt -
rm -f /tmp/ci-ycsb.txt /tmp/ci-ycsb-a2.txt

echo "==> YCSB gate: mix E against a live server (chunked scans over the wire)"
YCSB_DIR="$(mktemp -d)"
./target/release/kv_server --db "$YCSB_DIR" --listen 127.0.0.1:7498 &
YCSB_PID=$!
trap 'kill "$YCSB_PID" 2>/dev/null; \
     rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR" "$CL_A" "$CL_AR" "$CL_B" "$YCSB_DIR"' EXIT
sleep 1
timeout 120 ./target/release/db_bench --ycsb e --scale 0.001 \
    --remote 127.0.0.1:7498 --threads 2 --stats_dump > /tmp/ci-ycsb-remote.txt
grep -q "^ycsb_e" /tmp/ci-ycsb-remote.txt
grep -q "Microseconds per scan:" /tmp/ci-ycsb-remote.txt
grep -q "Microseconds per write:" /tmp/ci-ycsb-remote.txt
grep -q "protocol_errors: 0" /tmp/ci-ycsb-remote.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7498
wait "$YCSB_PID"
trap 'rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR" "$CL_A" "$CL_AR" "$CL_B" "$YCSB_DIR"' EXIT
rm -f /tmp/ci-ycsb-remote.txt

echo "==> TTL gate: expiry via the compaction filter + live ttl_seconds retune"
timeout 120 cargo test -q -p lsm-kvs ttl
timeout 240 cargo test -q -p elmo-tune --test live_tuning

echo "==> checkpoint gate: crash-safety sweep + online backup/restore over RPC"
timeout 240 cargo test -q -p lsm-kvs --test checkpoint
timeout 240 cargo test -q -p lsm-server checkpoint
CKPT_DIR="$(mktemp -d)"
./target/release/kv_server --db "$CKPT_DIR" --listen 127.0.0.1:7499 &
CKPT_PID=$!
trap 'kill "$CKPT_PID" 2>/dev/null; rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR" \
     "$CL_A" "$CL_AR" "$CL_B" "$YCSB_DIR" "$CKPT_DIR"' EXIT
sleep 1
# Checkpoint while a write stream is in flight, then restore by opening
# the checkpoint directory as a database of its own.
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 30000 \
    --remote 127.0.0.1:7499 --threads 2 --sync false > /dev/null &
CKPT_BENCH_PID=$!
sleep 1
timeout 30 ./target/release/kv_server --checkpoint-remote 127.0.0.1:7499 \
    --checkpoint-dir backups/ci-ckpt
wait "$CKPT_BENCH_PID"
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7499
wait "$CKPT_PID"
test -f "$CKPT_DIR/backups/ci-ckpt/CURRENT"
./target/release/kv_server --db "$CKPT_DIR/backups/ci-ckpt" --listen 127.0.0.1:7499 &
CKPT_PID=$!
sleep 1
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 5000 \
    --remote 127.0.0.1:7499 --stats_dump > /tmp/ci-ckpt.txt
grep -Eq "^readrandom.*\(5000 of 5000 found\)" /tmp/ci-ckpt.txt
grep -q "protocol_errors: 0" /tmp/ci-ckpt.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7499
wait "$CKPT_PID"
trap 'rm -rf "$CRASH_DIR" "$SERVE_DIR" "$RETUNE_DIR" "$CL_A" "$CL_AR" "$CL_B" \
     "$YCSB_DIR" "$CKPT_DIR"' EXIT
rm -f /tmp/ci-ckpt.txt

echo "==> determinism gate: repro table5 (stdout + stderr) must match results/table5.golden.txt"
# stderr carries the sim throughput line (default vs tuned ops/s), so
# both streams are compared, on each of two runs.
./target/release/repro table5 > /tmp/ci-table5-a.txt 2>&1
./target/release/repro table5 > /tmp/ci-table5-b.txt 2>&1
diff results/table5.golden.txt /tmp/ci-table5-a.txt
diff results/table5.golden.txt /tmp/ci-table5-b.txt
rm -f /tmp/ci-table5-a.txt /tmp/ci-table5-b.txt

echo "==> determinism gate: sim db_bench stats dump (stdout + stderr) must match results/db_bench_sim.golden.txt"
# Every ticker, level and histogram line of a sim run is deterministic,
# so any change to the engine's sim behavior or counters shows here.
./target/release/db_bench --benchmarks fillrandom,readrandom,mixgraph --num 100000 \
    --option write_buffer_size=262144 --option target_file_size_base=262144 \
    --option max_bytes_for_level_base=1048576 --option max_background_flushes=2 \
    --stats_dump > /tmp/ci-dbbench-sim.txt 2>&1
diff results/db_bench_sim.golden.txt /tmp/ci-dbbench-sim.txt
rm -f /tmp/ci-dbbench-sim.txt

echo "CI OK"
