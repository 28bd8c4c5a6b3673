#!/usr/bin/env sh
# Builds the test suite with ThreadSanitizer and runs the suites that
# exercise the parallel mining fan-out (plus the platform/durability
# suites that drive it through re-mines, and the serving suite whose
# async off-path re-mining hands mined state between threads).
#
#   tools/tier1_tsan.sh [build-dir]          # default: build-tsan
#
# TSan is the enforcement half of the determinism contract: the
# differential tests prove parallel output is bit-identical to serial,
# and a clean TSan run proves that is not luck (no data race decided the
# bits). Uses the same -DDEFUSE_SANITIZE cache option as
# tier1_sanitize.sh; thread and address sanitizers are mutually
# exclusive, hence the separate build tree.
set -eu

BUILD_DIR="${1:-build-tsan}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DDEFUSE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDEFUSE_BUILD_BENCHMARKS=OFF \
  -DDEFUSE_BUILD_EXAMPLES=OFF
# test_serving rides along because the server loop with async off-path
# re-mining is the one place a background thread mutates state the
# serving thread later adopts (the future handoff in Platform).
# test_router rides along for the multi-shard tier: supervisor-driven
# restarts and live handoffs move whole platform states between hosts
# while each shard's async re-mining thread may be in flight.
# test_delta rides along for the accumulator handoff: the async delta
# path hands the worker a self-contained MaterializeWindow/BuildInput
# copy, and the differential suite drives that handoff at every
# boundary.
# test_arena rides along for the league: each scenario row's mining pass
# and policy cells share one worker pool, every cell writing its own
# table slot.
cmake --build "$BUILD_DIR" -j \
  --target test_common test_mining test_core test_platform \
  test_durability test_serving test_router test_delta test_arena test_lint

for t in test_common test_mining test_core test_platform test_durability \
    test_serving test_delta test_arena; do
  echo "== $t (TSan) =="
  "$BUILD_DIR/tests/$t"
done
# The supervisor-restart and handoff suites are the shard tier's
# cross-thread surface; the fuzz/bridge suites ride in the same binary.
echo "== test_router (TSan: supervisor restart + handoff) =="
"$BUILD_DIR/tests/test_router" \
  --gtest_filter='ShardSupervisor*:Handoff*:ShardRouter*:RouterForwardingFuzz*'
# The lock-discipline rules (DL008/DL009) guard the same surface TSan
# hunts races on; run the lint suite here so a regression in either
# fails the same script.
echo "== ctest -L lint =="
ctest --test-dir "$BUILD_DIR" -L lint --output-on-failure
echo "TSan parallel-mining suite: PASS"
