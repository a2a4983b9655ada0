#!/usr/bin/env sh
# ThreadSanitizer run for the concurrent ingestion pipeline.
#
# Configures a dedicated build tree with -DWISCAPE_SANITIZE=thread, builds
# the test suite, and runs it under TSan -- the whole suite first (the
# sequential paths must stay clean too), then the dedicated multi-producer
# stress test on its own so its verdict is visible at the end of the log.
# Complements the ASan bench run recorded in bench_out/asan_fig02.txt.
#
# Usage: tools/run_tsan.sh [build-dir]   (default: build-tsan)
set -eu

build_dir="${1:-build-tsan}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure ($build_dir, WISCAPE_SANITIZE=thread) =="
cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DWISCAPE_SANITIZE=thread

echo "== build wiscape_tests =="
cmake --build "$build_dir" -j"$jobs" --target wiscape_tests

# second_deadlock_stack aids debugging lock-order reports;
# halt_on_error makes any race fail the script immediately.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export TSAN_OPTIONS

echo "== full test suite under TSan =="
"$build_dir"/tests/wiscape_tests

echo "== concurrency stress under TSan =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='ShardedCoordinatorStress.*:ReportQueue.*:ShardedCoordinator.*'

# The dense estimate store is single-writer-per-shard by design; this rerun
# pins that the interned apply path stays clean when driven through the
# sharded pipeline's threads.
echo "== apply path / estimate store under TSan =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='ApplyPath*.*:NetworkInterner.*:ZoneTableStore.*'

# The read-side serving layer: seqlock'd estimate mirrors read from
# query threads while the 4-shard pipeline ingests (randomized QUERY
# storm + concurrent ALERTS cursor drain), and a directory reserved once
# for a snapshot load filling while two readers run read/read_batch
# (EstimateMirror.ReservedDirectoryServesConcurrentReaders). The seqlock
# recipe is exactly the code TSan exists to vet -- any reordering of the
# publish protocol shows up here as a data race.
echo "== query path / estimate view under TSan =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='EstimateView.*:EstimateMirror.*:AlertRing.*:ProtoServerV2.*'

# The scenario engine drives the whole stack (wire frames -> sharded
# drain workers -> alert ring -> query path) under fault injection and
# restart; rerunning it on its own keeps any race it provokes at the end
# of the log next to the scenario name that triggered it.
echo "== scenario engine under TSan =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='Scenario.*:Invariants.*:Injector.*'

# The TCP front end: epoll event-loop threads accepting/pumping real
# sockets while client threads connect, disconnect mid-frame, overflow
# buffers and trip the shed policy. The loops are shared-nothing by
# design; any cross-loop sharing that sneaks in races here. The filter
# includes the writev-coalescing paths (per-wake reply batching and the
# REPORT micro-batch) exercised by the pipelined-session tests.
echo "== net front end under TSan =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='ByteRing.*:NetSession.*:TcpServer.*'

# Rerun the concurrent coalescing stress on its own: 64 sessions across
# client threads pipelining REPORT bursts into two event loops, so the
# batched flush path (take_queued_replies -> one writev per wake) gets a
# dedicated verdict at the end of the log.
echo "== writev coalescing under concurrency (TSan) =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='TcpServer.ConcurrentPipelinedSessionsCoalesce:TcpServer.ManyConcurrentSessions'

# Binary v3 framing (WIRE_PROTOCOL.md section 8): the codec and server
# dispatch, the session's dual text/binary pump, and the mixed-framing
# pipelined session whose replies coalesce binary frames and text lines
# into the same writev batches.
echo "== binary v3 framing under TSan =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='WireV3Codec.*:WireV3Server.*:NetSession.Binary*:NetSession.PartialBinary*:NetSession.NegotiatedV*:TcpServer.MixedTextAndBinary*:TcpServer.BinaryRequestFrame*'

# Replication (DESIGN.md section 7): a leading and two following
# replicas, puller threads pulling/catching up against the 4-shard ingest
# storm, and a wire PROMOTE mid-storm while the second puller is still in
# flight -- the epoch tap, the sequenced log, and the replica's one
# apply/promote/catch-up mutex are the cross-thread seams this vets. The
# leader_kill scenario rerun drives the same failover through the
# scenario engine's full stack; wal_restart and follower_joins_late drive
# a replica through a WAL restart and a late catch-up. The replicas pull
# and catch up through proto::client, whose suite reruns here.
echo "== replication under TSan =="
"$build_dir"/tests/wiscape_tests \
  --gtest_filter='ReplStress.PromotionMidStorm:Replication.*:EpochLog.*:ZoneTableMerge.*:ProtoClient.*:TcpServer.FollowerCatchUp*:Scenario.LeaderKill*:Scenario.WalRestart*:Scenario.FollowerJoiningLate*'

echo "TSan run clean."
