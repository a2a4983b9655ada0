// Canonical metric names for the observability layer (`obs::`).
//
// Every metric the system registers is named here, in one place, so that
// (a) call sites cannot drift apart on spelling, and (b) tools/check_docs.sh
// can mechanically verify that docs/RUNBOOK.md's metric reference table
// documents every name. Naming convention: `<layer>.<component>.<what>`,
// lower_snake_case, with the unit as a suffix where one applies (`_s` for
// seconds). Per-shard counters are the one dynamic family: they are built
// from `kShardPrefix` as `core.sharded.shard<i>.<what>` and documented as a
// pattern rather than enumerated.
#pragma once

namespace wiscape::obs::names {

// ---- core::report_queue ---------------------------------------------------
/// Records successfully enqueued by push / push_owned. [reports]
inline constexpr char kQueueEnqueued[] = "core.report_queue.enqueued";
/// Records handed to consumers by pop_batch. [reports]
inline constexpr char kQueueDequeued[] = "core.report_queue.dequeued";
/// Records refused because the queue was closed (or an injected
/// queue_push fault refused their push). [reports]
inline constexpr char kQueueRejected[] = "core.report_queue.rejected";
/// Pushes that had to block for room (backpressure events): a full queue,
/// or an owned batch (push_owned) waiting until it fits whole.
inline constexpr char kQueueBlockedProducers[] =
    "core.report_queue.producer_blocked";
/// Highest queue depth ever observed at enqueue time. [reports]
inline constexpr char kQueueHighWater[] = "core.report_queue.depth_high_water";

// ---- core::zone_table -----------------------------------------------------
/// Estimate streams (distinct (zone, network, metric) keys) created.
inline constexpr char kZoneTableStreams[] = "core.zone_table.streams";
/// Epoch rollovers that published a frozen estimate.
inline constexpr char kZoneTableRollovers[] = "core.zone_table.rollovers";
/// O(1) epoch fast-forwards taken over a gap of empty epochs (the fused
/// jump replacing the per-epoch boundary walk).
inline constexpr char kZoneTableGapFastForwards[] =
    "core.zone_table.gap_fast_forwards";

// ---- core::coordinator ----------------------------------------------------
/// Client check-ins processed (any outcome).
inline constexpr char kCoordCheckins[] = "core.coordinator.checkins";
/// Measurement tasks handed out to clients.
inline constexpr char kCoordTasksIssued[] = "core.coordinator.tasks_issued";
/// Check-ins denied because the client's daily byte budget was exhausted.
inline constexpr char kCoordBudgetExhausted[] =
    "core.coordinator.budget_exhausted";
/// Successful measurement reports folded into the zone table. [reports]
inline constexpr char kCoordReportsAccepted[] =
    "core.coordinator.reports_accepted";
/// Reports carrying a failed probe (success=false): counted, not folded.
inline constexpr char kCoordReportsRejected[] =
    "core.coordinator.reports_rejected";
/// >2-sigma change alerts raised by the zone table's epoch rollovers.
inline constexpr char kCoordAlertsRaised[] = "core.coordinator.alerts_raised";

// ---- core::sharded_coordinator --------------------------------------------
/// Reports accepted into the sharded pipeline (enqueued or applied inline).
inline constexpr char kShardedRoutedTotal[] = "core.sharded.reports_routed";
/// Reports dropped because the pipeline was stopped.
inline constexpr char kShardedDropped[] = "core.sharded.reports_dropped";
/// Records whose apply threw inside the pipeline (counted and dropped --
/// a throw escaping a drain worker would terminate the process). Boundary
/// validation keeps this at zero; nonzero means an apply-path bug.
inline constexpr char kShardedApplyErrors[] = "core.sharded.apply_errors";
/// Lock-amortised drain rounds executed by shard workers.
inline constexpr char kShardedDrainBatches[] = "core.sharded.drain_batches";
/// Wall time of one drain batch (lock + apply). [seconds]
inline constexpr char kShardedDrainLatency[] = "core.sharded.drain_latency_s";
/// Per-shard dynamic family: "core.sharded.shard<i>." + {routed, drained}.
inline constexpr char kShardPrefix[] = "core.sharded.shard";
/// Suffix under kShardPrefix: reports routed to shard i. [reports]
inline constexpr char kShardRoutedSuffix[] = "routed";
/// Suffix under kShardPrefix: reports applied by shard i's worker. [reports]
inline constexpr char kShardDrainedSuffix[] = "drained";

// ---- core::estimate_view / estimate_mirror --------------------------------
/// Serving-layer estimate lookups (any outcome).
inline constexpr char kEstimateViewLookups[] = "core.estimate_view.lookups";
/// Lookups answered "no estimate published" (stream unknown or pre-rollover).
inline constexpr char kEstimateViewMisses[] = "core.estimate_view.misses";
/// Seqlock read retries: a lookup raced an epoch publish and re-read. The
/// read path is lock-free; this counts the (bounded, publish-width) spins.
inline constexpr char kEstimateViewSeqlockRetries[] =
    "core.estimate_view.seqlock_retries";
/// Change alerts handed to clients by alerts_since drains.
inline constexpr char kEstimateViewAlertsServed[] =
    "core.estimate_view.alerts_served";
/// Change alerts reported dropped (evicted by ring wraparound before a
/// lagging client drained them).
inline constexpr char kEstimateViewAlertsDropped[] =
    "core.estimate_view.alerts_dropped";

// ---- proto::coordinator_server --------------------------------------------
/// Request lines handled (any outcome, STATS included).
inline constexpr char kServerLines[] = "proto.server.lines";
/// CHECKIN lines answered with TASK or IDLE.
inline constexpr char kServerCheckins[] = "proto.server.checkins";
/// REPORT lines answered with ACK.
inline constexpr char kServerReports[] = "proto.server.reports";
/// STATS lines answered with a metrics dump.
inline constexpr char kServerStats[] = "proto.server.stats_requests";
/// ERR replies: request line failed to decode.
inline constexpr char kServerErrParse[] = "proto.server.err_parse";
/// ERR replies: syntactically valid line of an unsupported type.
inline constexpr char kServerErrUnsupported[] = "proto.server.err_unsupported";
/// ERR replies: REPORT refused because the ingestion pipeline was stopped.
inline constexpr char kServerErrStopped[] = "proto.server.err_stopped";
/// ERR replies: an unexpected std::exception escaped request handling
/// (defense in depth -- the line protocol promises a reply per request).
inline constexpr char kServerErrInternal[] = "proto.server.err_internal";
/// Wall time to answer one CHECKIN (decode + shard lock + encode). [seconds]
inline constexpr char kServerCheckinLatency[] =
    "proto.server.checkin_latency_s";
/// Wall time to answer one REPORT (decode + enqueue/apply). [seconds]
inline constexpr char kServerReportLatency[] = "proto.server.report_latency_s";
/// REPORTB frames answered with ACK (records inside count into
/// proto.server.reports).
inline constexpr char kServerReportBatches[] = "proto.server.report_batches";
/// Wall time to answer one REPORTB frame (decode all + batch enqueue).
/// [seconds]
inline constexpr char kServerBatchLatency[] =
    "proto.server.report_batch_latency_s";
/// QUERY lines answered with EST or NONE.
inline constexpr char kServerQueries[] = "proto.server.queries";
/// QUERYB frames answered with an ESTB frame (lookups inside count into
/// proto.server.queries).
inline constexpr char kServerQueryBatches[] = "proto.server.query_batches";
/// ALERTS requests answered with an alert frame.
inline constexpr char kServerAlertsRequests[] = "proto.server.alerts_requests";
/// HELLO lines answered with a negotiated version.
inline constexpr char kServerHellos[] = "proto.server.hellos";
/// ERR replies: HELLO version below the supported minimum.
inline constexpr char kServerErrVersion[] = "proto.server.err_version";
/// Wall time to answer one QUERY (decode + mirror read + encode). [seconds]
inline constexpr char kServerQueryLatency[] = "proto.server.query_latency_s";
/// Wall time to answer one QUERYB frame (decode all + lookups + encode).
/// [seconds]
inline constexpr char kServerQueryBatchLatency[] =
    "proto.server.query_batch_latency_s";
/// Wall time to answer one ALERTS request (ring drain + encode). [seconds]
inline constexpr char kServerAlertsLatency[] = "proto.server.alerts_latency_s";
/// Requests refused by an injected fault (scenario engine's server_handle
/// seam). Zero outside scenario runs; each refusal also counts into
/// proto.server.err_internal (the reply is "ERR internal").
inline constexpr char kServerFaultsInjected[] = "proto.server.faults_injected";
/// ERR replies: request shed by the TCP front end's backpressure policy
/// before dispatch (the line handler itself never sheds).
inline constexpr char kServerErrOverload[] = "proto.server.err_overload";
/// Reply payload bytes rendered by the line handler (newline separators in
/// grouped replies excluded, so transports agree on the total). [bytes]
inline constexpr char kServerReplyBytes[] = "proto.server.reply_bytes";
/// Binary v3 frames handled (any opcode, any outcome; the frame's command
/// also counts into its per-command counter above). [frames]
inline constexpr char kServerBinaryFrames[] = "proto.server.binary_frames";

// ---- net::tcp_server ------------------------------------------------------
/// Connections accepted (sessions created). [connections]
inline constexpr char kNetAccepts[] = "net.server.accepts";
/// Accepted connections closed immediately by an injected accept_fail fault
/// (scenario engine). Zero outside scenario runs. [connections]
inline constexpr char kNetAcceptFaults[] = "net.server.accept_faults";
/// Currently open sessions, across all event loops. [gauge, sessions]
inline constexpr char kNetActiveSessions[] = "net.server.active_sessions";
/// Sessions closed for any reason (peer EOF, error, timeout, policy).
/// [sessions]
inline constexpr char kNetCloses[] = "net.server.closes";
/// Sessions closed because no complete request arrived within the idle
/// timeout. [sessions]
inline constexpr char kNetIdleTimeouts[] = "net.server.idle_timeouts";
/// Sessions disconnected because a request exceeded the read-buffer cap
/// without completing (oversized line or frame). [sessions]
inline constexpr char kNetOversizeDisconnects[] =
    "net.server.oversize_disconnects";
/// Sessions disconnected because replies overflowed the write-buffer cap
/// (the peer reads slower than it asks). [sessions]
inline constexpr char kNetSlowReaderDisconnects[] =
    "net.server.slow_reader_disconnects";
/// Sessions disconnected for sending a command before HELLO while the
/// server requires negotiation-first. [sessions]
inline constexpr char kNetHelloViolations[] = "net.server.hello_violations";
/// Connections refused at accept because max_sessions was reached.
/// [connections]
inline constexpr char kNetCapacityRejects[] = "net.server.capacity_rejects";
/// QUERY/QUERYB/ALERTS requests answered "ERR overload" by the shed rule
/// instead of being dispatched. [requests]
inline constexpr char kNetShedQueries[] = "net.server.shed_queries";
/// REPORT/REPORTB requests answered "ERR overload" by the shed rule
/// instead of being dispatched. [requests]
inline constexpr char kNetShedReports[] = "net.server.shed_reports";
/// Bytes read off client sockets. [bytes]
inline constexpr char kNetBytesIn[] = "net.server.bytes_in";
/// Bytes written to client sockets. [bytes]
inline constexpr char kNetBytesOut[] = "net.server.bytes_out";
/// Wall time from a complete request in the read buffer to its reply being
/// queued for write (dispatch latency as the session sees it). [seconds]
inline constexpr char kNetReadLatency[] = "net.server.read_latency_s";
/// Wall time one flush spends in writev/send for a session (kernel
/// send-buffer pressure as the session sees it). [seconds]
inline constexpr char kNetWriteLatency[] = "net.server.write_latency_s";
/// writev/sendmsg syscalls issued by session flushes. Compare against
/// net.server.bytes_out and proto.server.reply_bytes to judge coalescing:
/// fewer calls per reply means the wake-batched flush is working. [calls]
inline constexpr char kNetWritevCalls[] = "net.server.writev_calls";
/// Replies coalesced into one session flush, recorded scaled by 1e-3 so the
/// shared latency-style histogram edges read as reply counts: the 0.001
/// bucket is 1 reply/flush, 0.01 is 10, 0.1 is 100, 1.0 is 1000. [replies,
/// x1e-3]
inline constexpr char kNetRepliesPerFlush[] = "net.server.replies_per_flush";

// ---- core::durable_log (WAL/snapshot pair, ISSUE 10) ----------------------
/// Epoch records appended to the write-ahead log. [records]
inline constexpr char kPersistWalAppends[] = "core.persist.wal_appends";
/// WAL appends refused by an injected wal_append fault (full disk model);
/// the record is not written. Zero outside scenario runs. [records]
inline constexpr char kPersistWalAppendFailures[] =
    "core.persist.wal_append_failures";
/// Torn or corrupt WAL tails detected during replay: recovery stopped at
/// the last complete, checksum-valid record. [tails]
inline constexpr char kPersistWalTruncated[] = "core.persist.wal_truncated";
/// Epoch records replayed from the WAL into a coordinator. [records]
inline constexpr char kPersistWalReplayed[] = "core.persist.wal_replayed";
/// Snapshot checkpoints completed (written to the temp file and renamed
/// into place; the WAL is reset afterwards). [snapshots]
inline constexpr char kPersistSnapshots[] = "core.persist.snapshots";
/// Snapshot checkpoints that failed before the rename (injected
/// snapshot_torn fault or I/O error); the previous snapshot survives.
/// [snapshots]
inline constexpr char kPersistSnapshotFailures[] =
    "core.persist.snapshot_failures";

// ---- repl (epoch-stream replication, ISSUE 10) ----------------------------
/// Epoch rollovers captured into the leader's replication log. [records]
inline constexpr char kReplEpochsLogged[] = "repl.epochs_logged";
/// Log entries evicted by the bounded replication ring before any follower
/// pulled them; a joiner below the log base needs a snapshot. [records]
inline constexpr char kReplLogEvicted[] = "repl.log_evicted";
/// EPOCH pull requests served by this node. [requests]
inline constexpr char kReplPulls[] = "repl.pulls";
/// Epoch records shipped in EPOCHB replies to pulls. [records]
inline constexpr char kReplPullRecords[] = "repl.pull_records";
/// SNAPSHOT_CHUNK replies served to catching-up joiners. [chunks]
inline constexpr char kReplSnapshotChunks[] = "repl.snapshot_chunks";
/// PROMOTE requests honoured: this node became the leader. [promotions]
inline constexpr char kReplPromotions[] = "repl.promotions";
/// Epoch records applied by a follower (fresh appends via the zone_table
/// fast-forward path). [records]
inline constexpr char kReplEpochsApplied[] = "repl.epochs_applied";
/// Epoch records merged into an existing (zone, network, epoch) entry --
/// feeds from disjoint client populations converging. [records]
inline constexpr char kReplEpochsMerged[] = "repl.epochs_merged";
/// Replicated records skipped as already applied (sequence number at or
/// below the follower's high-water mark). [records]
inline constexpr char kReplDuplicates[] = "repl.duplicates";
/// Replication rounds skipped by an injected replica_lag fault. Zero
/// outside scenario runs. [rounds]
inline constexpr char kReplLagSkips[] = "repl.lag_skips";

}  // namespace wiscape::obs::names
