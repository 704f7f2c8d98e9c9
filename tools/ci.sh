#!/bin/sh
# Full local CI: everything a reviewer would want green before
# merging, in the order that fails fastest.
#
#   1. Release build + full ctest               (correctness, and
#                                                bitwise parity of
#                                                every round-kernel
#                                                twin the host runs:
#                                                the library picks
#                                                the widest one from
#                                                cpuid)
#      + bench smoke runs of gossip_async and the multi-lane
#        packet engine (bitwise bars only; DPC_BENCH_SMOKE=1), and
#        a short run of micro_round_engine's emergency-shed bench
#        (keeps BM_SetBudgetShed and its pass counter building and
#        running; no perf gate)
#      + loopback-vs-socket + overlap parity smoke: wire_shard
#        forks 2 shard processes over 127.0.0.1 (UDP and TCP, zero
#        loss, compute/communication overlap both on and off) and
#        exits non-zero unless every reassembled result is bitwise
#        equal to the single-process transport round -- which also
#        pins the overlap schedule against the serialized one.
#        Its dense rows run at active_threshold 0 (the sharded
#        parity pin for the threshold-0 path) and its steady
#        section converges, holds, and budget-steps a 2-shard run,
#        failing unless the quiesced rounds stay under the
#        suppressed-frame byte ceiling and every steady row is
#        bitwise equal to the sparse single-process reference
#      + shard-death recovery smoke: wire_recovery SIGKILLs (and
#        SIGSTOPs) forked shards mid-run under UDP and TCP and
#        demands detection within deadline, partition-aware
#        re-federation, and bitwise survivor parity
#   2. ASan suite                               (memory safety)
#   3. UBSan suite                              (UB: shifts, casts,
#                                                signed overflow)
#   4. TSan round-engine suite                  (determinism under
#                                                real threads)
#   5. bench suite + bench_compare gate         (perf + quality
#                                                baselines)
#
# Usage: tools/ci.sh             # run everything
#        DPC_CI_SKIP_BENCH=1 ... # skip the bench gate (slow)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)

step() {
    printf '\n== ci: %s ==\n' "$1"
}

step "build + full test suite"
cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=Release
cmake --build "$repo/build" -j"$(nproc)"
ctest --test-dir "$repo/build" --output-on-failure -j"$(nproc)"

step "bench smoke (bitwise bars, no perf gate)"
bench_smoke_dir=$(mktemp -d)
(cd "$bench_smoke_dir" &&
     DPC_BENCH_SMOKE=1 "$repo/build/bench/gossip_async" &&
     DPC_BENCH_SMOKE=1 \
         "$repo/build/bench/table4_2_packet_level" &&
     "$repo/build/bench/micro_round_engine" \
         --benchmark_filter=BM_SetBudgetShed --benchmark_min_time=0.01)
rm -rf "$bench_smoke_dir"

step "loopback-vs-socket, overlap + steady-state smoke (2 shards)"
wire_smoke_dir=$(mktemp -d)
(cd "$wire_smoke_dir" &&
     DPC_BENCH_SMOKE=1 "$repo/build/bench/wire_shard")
rm -rf "$wire_smoke_dir"

step "shard-death recovery smoke (SIGKILL mid-run, UDP + TCP)"
# wire_recovery SIGKILLs a forked shard mid-run under both protos
# (plus a SIGSTOP-past-deadline hang) and exits non-zero unless
# every recovery detects within the deadline, re-federates, and
# leaves the survivors bitwise-equal to the single-process surgery
# reference with the safety invariants audited every round.
recovery_smoke_dir=$(mktemp -d)
(cd "$recovery_smoke_dir" &&
     DPC_BENCH_SMOKE=1 "$repo/build/bench/wire_recovery")
rm -rf "$recovery_smoke_dir"

step "AddressSanitizer suite"
"$repo/tools/run_ctest_asan.sh"

step "UndefinedBehaviorSanitizer suite"
"$repo/tools/run_ctest_ubsan.sh"

step "ThreadSanitizer round-engine suite"
"$repo/tools/run_ctest_tsan.sh"

if [ "${DPC_CI_SKIP_BENCH:-0}" != "1" ]; then
    step "bench suite + baseline gate"
    # The default build runs the widest round-kernel twin the host
    # supports, so it is the perf-tracking configuration.
    BUILD_DIR="$repo/build" "$repo/tools/run_bench_suite.sh"
fi

step "all green"
