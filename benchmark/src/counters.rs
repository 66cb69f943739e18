//! Counter snapshots taken at the same boundaries as the spans: the
//! trees' operation counters, the arena's and the epoch collector's.
//! All three exist only in the `trace` build (it turns the crates'
//! `stats` features on); untraced they read zero and are not reported.

use pnb_shard::ShardedPnbBst;

use crate::workloads::Layer;

#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    update_attempts: u64,
    helps: u64,
    cas_failures: u64,
    validation_failures: u64,
    handshake_aborts: u64,
    scan_helps: u64,
    arena_hits: u64,
    arena_misses: u64,
    arena_recycled_bytes: u64,
    bags_sealed: u64,
    bags_freed: u64,
    items_freed: u64,
    advance_attempts: u64,
    advance_successes: u64,
}

/// Read the process-global counters, plus `map`'s trees' when the map
/// is in reach (a served map is not: the server owns it).
pub fn snapshot(map: Option<&ShardedPnbBst<u64, u64>>) -> Counters {
    let mut c = Counters::default();
    if let Some(map) = map {
        for i in 0..map.shard_count() {
            let s = map.shard(i).stats();
            c.update_attempts += s.update_attempts;
            c.helps += s.helps;
            c.cas_failures += s.freeze_cas_failures;
            c.validation_failures += s.validation_failures;
            c.handshake_aborts += s.handshake_aborts;
            c.scan_helps += s.scan_helps;
        }
    }
    #[cfg(feature = "trace")]
    {
        let a = pnb_bst::arena_stats();
        c.arena_hits = a.pool_hits;
        c.arena_misses = a.pool_misses;
        c.arena_recycled_bytes = a.recycled_bytes;
        let e = pnb_bst::collector_stats();
        c.bags_sealed = e.bags_sealed;
        c.bags_freed = e.bags_freed;
        c.items_freed = e.items_freed;
        c.advance_attempts = e.advance_attempts;
        c.advance_successes = e.advance_successes;
    }
    c
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics the interval `before..after` yields.
/// `successful_updates` is the harness's own count of inserts and
/// deletes that took effect in that interval.
pub fn report(before: &Counters, after: &Counters, successful_updates: u64, layer: &mut Layer) {
    let d = |f: fn(&Counters) -> u64| f(after) - f(before);
    layer.set(
        "core.handle.attempts_per_update",
        ratio(d(|c| c.update_attempts), successful_updates),
    );
    layer.set("core.handle.helps", d(|c| c.helps) as f64);
    layer.set("core.handle.cas_failures", d(|c| c.cas_failures) as f64);
    layer.set(
        "core.handle.validation_failures",
        d(|c| c.validation_failures) as f64,
    );
    layer.set(
        "core.handle.handshake_aborts",
        d(|c| c.handshake_aborts) as f64,
    );
    layer.set("core.scan.helps", d(|c| c.scan_helps) as f64);
    let (hits, misses) = (d(|c| c.arena_hits), d(|c| c.arena_misses));
    layer.set("core.arena.hit_ratio", ratio(hits, hits + misses));
    layer.set(
        "core.arena.recycled_mb",
        d(|c| c.arena_recycled_bytes) as f64 / (1 << 20) as f64,
    );
    layer.set("epoch.items_freed", d(|c| c.items_freed) as f64);
    // Sealed but not yet freed when the interval ends: the backlog a
    // pinned scan leaves, not a delta.
    layer.set(
        "epoch.bags_pending",
        after.bags_sealed.saturating_sub(after.bags_freed) as f64,
    );
    layer.set(
        "epoch.advance_success_ratio",
        ratio(d(|c| c.advance_successes), d(|c| c.advance_attempts)),
    );
}
