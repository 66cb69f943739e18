//! Request dispatch: typed request in, typed response out, against one
//! worker's long-lived [`ShardedSession`].
//!
//! The handler is deliberately transport-free (no sockets, no frames):
//! the connection layer decodes, this maps operations onto the map, and
//! the integration tests can drive it directly.

use std::path::Path;

use pnb_shard::ShardedSession;

use crate::proto::{
    BatchSubOp, BatchSubResult, ReqBody, Request, RespBody, Response, ServerStatsWire,
    MAX_RANGE_ENTRIES,
};
use crate::stats::ServerStats;

/// Execute `req` against `session`, producing the response body.
///
/// Range-shaped results are capped at [`MAX_RANGE_ENTRIES`] entries
/// (the `count` field still reports the full match count and the
/// response is flagged truncated); `count_only` requests traverse
/// without materializing entries at all.
///
/// `checkpoint_dir` is where the `Checkpoint` opcode writes its
/// generations; `None` (no `--checkpoint-dir` configured) refuses the
/// opcode with a typed error rather than inventing a location.
pub fn handle(
    req: &Request,
    session: &ShardedSession<'_, u64, u64>,
    stats: &ServerStats,
    checkpoint_dir: Option<&Path>,
) -> Response {
    let body = match &req.body {
        ReqBody::Ping => RespBody::Pong,
        ReqBody::Get { key } => RespBody::Value(session.get(key)),
        ReqBody::Contains { key } => RespBody::Bool(session.contains(key)),
        ReqBody::Insert { key, value } => RespBody::Bool(session.insert(*key, *value)),
        ReqBody::Upsert { key, value } => RespBody::Displaced(session.upsert(*key, *value)),
        ReqBody::Delete { key } => RespBody::Bool(session.delete(key)),
        ReqBody::Range { lo, hi, count_only } => scan(session.range(*lo..=*hi), *count_only),
        ReqBody::SnapshotScan { lo, hi, count_only } => {
            // One consistent cross-shard cut, then read from it: the
            // paper's wait-free snapshot, over the wire.
            let snap = session.snapshot();
            scan(snap.range(*lo..=*hi), *count_only)
        }
        ReqBody::Stats => {
            let s = stats.snapshot();
            RespBody::Stats(ServerStatsWire {
                accepted: s.accepted,
                closed: s.closed,
                requests: s.requests,
                protocol_errors: s.protocol_errors,
                shed: s.shed,
                slow_reader_disconnects: s.slow_reader_disconnects,
                shard_ops: session
                    .map()
                    .shard_stats()
                    .iter()
                    .map(pnb_shard::ShardOpStats::total)
                    .collect(),
            })
        }
        ReqBody::Batch { ops } => RespBody::BatchResults(run_batch(ops, session)),
        ReqBody::Checkpoint => match checkpoint_dir {
            // The worker's session borrows the same map; the checkpoint
            // serializes one consistent descending-capture cut while
            // the other workers keep serving updates.
            Some(dir) => match session.map().checkpoint(dir) {
                Ok(report) => RespBody::CheckpointDone {
                    generation: report.generation,
                    entries: report.entries,
                },
                Err(e) => RespBody::Error(
                    crate::proto::StatusCode::Internal,
                    format!("checkpoint failed: {e}"),
                ),
            },
            None => RespBody::Error(
                crate::proto::StatusCode::Internal,
                "no --checkpoint-dir configured".to_string(),
            ),
        },
    };
    Response { id: req.id, body }
}

/// Run one decoded batch through the map's fused `apply_batch` path.
///
/// Well-formed sub-ops are compacted into one `pnb_shard` batch (so
/// they share the lock-step search and the epoch pin exactly like a native
/// caller's would — `Contains` rides as a `Get` and keeps only the
/// presence bit); their outcomes are scattered back to submission
/// order. `Malformed` slots are answered with their typed error in
/// place, *without executing anything*, and cost nothing beyond their
/// result slot — one bad sub-op never poisons its siblings.
fn run_batch(ops: &[BatchSubOp], session: &ShardedSession<'_, u64, u64>) -> Vec<BatchSubResult> {
    let mut results: Vec<Option<BatchSubResult>> = Vec::with_capacity(ops.len());
    let mut exec: Vec<pnb_shard::BatchOp<u64, u64>> = Vec::new();
    // (result slot, answer as Contains-bool rather than Get-value)
    let mut slots: Vec<(usize, bool)> = Vec::new();
    for op in ops {
        let slot = results.len();
        match op {
            BatchSubOp::Get { key } => {
                slots.push((slot, false));
                exec.push(pnb_shard::BatchOp::Get(*key));
                results.push(None);
            }
            BatchSubOp::Contains { key } => {
                slots.push((slot, true));
                exec.push(pnb_shard::BatchOp::Get(*key));
                results.push(None);
            }
            BatchSubOp::Insert { key, value } => {
                slots.push((slot, false));
                exec.push(pnb_shard::BatchOp::Insert(*key, *value));
                results.push(None);
            }
            BatchSubOp::Upsert { key, value } => {
                slots.push((slot, false));
                exec.push(pnb_shard::BatchOp::Upsert(*key, *value));
                results.push(None);
            }
            BatchSubOp::Delete { key } => {
                slots.push((slot, false));
                exec.push(pnb_shard::BatchOp::Delete(*key));
                results.push(None);
            }
            BatchSubOp::Malformed { code, msg } => {
                results.push(Some(BatchSubResult::Error(*code, msg.clone())));
            }
        }
    }
    let outcomes = session.apply_batch(&exec);
    for ((slot, as_bool), outcome) in slots.into_iter().zip(outcomes) {
        results[slot] = Some(match outcome {
            pnb_shard::BatchOutcome::Get(v) => {
                if as_bool {
                    BatchSubResult::Bool(v.is_some())
                } else {
                    BatchSubResult::Value(v)
                }
            }
            pnb_shard::BatchOutcome::Inserted(b) => BatchSubResult::Bool(b),
            pnb_shard::BatchOutcome::Upserted(v) => BatchSubResult::Displaced(v),
            pnb_shard::BatchOutcome::Removed(v) => BatchSubResult::Bool(v.is_some()),
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("every batch slot is filled exactly once"))
        .collect()
}

/// Fold a lazy range iterator into the wire shape, honouring the entry
/// cap and `count_only`.
fn scan(iter: impl Iterator<Item = (u64, u64)>, count_only: bool) -> RespBody {
    let mut count = 0u64;
    let mut entries = Vec::new();
    for (k, v) in iter {
        if !count_only && entries.len() < MAX_RANGE_ENTRIES {
            entries.push((k, v));
        }
        count += 1;
    }
    let truncated = !count_only && (count as usize) > entries.len();
    RespBody::Entries {
        count,
        entries,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnb_shard::ShardedPnbBst;

    fn req(body: ReqBody) -> Request {
        Request { id: 1, body }
    }

    #[test]
    fn handler_covers_the_operation_set() {
        let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
        let session = map.pin();
        let stats = ServerStats::default();
        let run = |body| handle(&req(body), &session, &stats, None).body;

        assert_eq!(run(ReqBody::Ping), RespBody::Pong);
        assert_eq!(
            run(ReqBody::Insert { key: 5, value: 50 }),
            RespBody::Bool(true)
        );
        assert_eq!(
            run(ReqBody::Insert { key: 5, value: 51 }),
            RespBody::Bool(false)
        );
        assert_eq!(
            run(ReqBody::Upsert { key: 5, value: 55 }),
            RespBody::Displaced(Some(50))
        );
        assert_eq!(run(ReqBody::Get { key: 5 }), RespBody::Value(Some(55)));
        assert_eq!(run(ReqBody::Get { key: 6 }), RespBody::Value(None));
        assert_eq!(run(ReqBody::Contains { key: 5 }), RespBody::Bool(true));
        assert_eq!(run(ReqBody::Delete { key: 5 }), RespBody::Bool(true));
        assert_eq!(run(ReqBody::Delete { key: 5 }), RespBody::Bool(false));
    }

    #[test]
    fn range_and_snapshot_scan_agree_when_quiescent() {
        let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
        let session = map.pin();
        let stats = ServerStats::default();
        for k in 0..100u64 {
            session.insert(k * 10, k);
        }
        let live = handle(
            &req(ReqBody::Range {
                lo: 100,
                hi: 500,
                count_only: false,
            }),
            &session,
            &stats,
            None,
        );
        let snap = handle(
            &req(ReqBody::SnapshotScan {
                lo: 100,
                hi: 500,
                count_only: false,
            }),
            &session,
            &stats,
            None,
        );
        assert_eq!(live.body, snap.body);
        match live.body {
            RespBody::Entries {
                count,
                entries,
                truncated,
            } => {
                assert_eq!(count, 41); // 100..=500 step 10
                assert_eq!(entries.len(), 41);
                assert!(!truncated);
                assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            }
            other => panic!("expected entries, got {other:?}"),
        }
    }

    #[test]
    fn count_only_suppresses_entries() {
        let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(2);
        let session = map.pin();
        let stats = ServerStats::default();
        for k in 0..50u64 {
            session.insert(k, k);
        }
        let r = handle(
            &req(ReqBody::Range {
                lo: 0,
                hi: u64::MAX,
                count_only: true,
            }),
            &session,
            &stats,
            None,
        );
        assert_eq!(
            r.body,
            RespBody::Entries {
                count: 50,
                entries: vec![],
                truncated: false,
            }
        );
    }

    #[test]
    fn stats_reports_shard_count_totals() {
        let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(3);
        let session = map.pin();
        let stats = ServerStats::default();
        stats.request();
        stats.request();
        let r = handle(&req(ReqBody::Stats), &session, &stats, None);
        match r.body {
            RespBody::Stats(w) => {
                assert_eq!(w.requests, 2);
                assert_eq!(w.shard_ops.len(), 3);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_without_a_dir_is_a_typed_error() {
        let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(2);
        let session = map.pin();
        let stats = ServerStats::default();
        let r = handle(&req(ReqBody::Checkpoint), &session, &stats, None);
        match r.body {
            RespBody::Error(code, msg) => {
                assert_eq!(code, crate::proto::StatusCode::Internal);
                assert!(msg.contains("checkpoint-dir"), "msg: {msg}");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_writes_a_restorable_generation() {
        let dir =
            std::env::temp_dir().join(format!("pnbserver-handler-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(2);
        let session = map.pin();
        let stats = ServerStats::default();
        for k in 0..100u64 {
            session.insert(k * 3, k);
        }
        let r = handle(&req(ReqBody::Checkpoint), &session, &stats, Some(&dir));
        match r.body {
            RespBody::CheckpointDone {
                generation,
                entries,
            } => {
                assert_eq!(generation, 1);
                assert_eq!(entries, 100);
            }
            other => panic!("expected checkpoint-done, got {other:?}"),
        }
        let restored: ShardedPnbBst<u64, u64> =
            ShardedPnbBst::restore(&dir).expect("restore what the handler wrote");
        assert_eq!(restored.len(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
