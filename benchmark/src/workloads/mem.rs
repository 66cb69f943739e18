//! The in-process workloads: `mem-point` and `mem-scan`. No socket, no
//! codec — an embedder calling `pnb-shard` from two threads.

use std::time::{Duration, Instant};

use pnb_shard::ShardedPnbBst;

use super::{timed_setups, Layer, Outcome, RunConfig, Tally, SCAN_WIDTH, SHARDS};
use crate::check::{check_get, check_len, check_scan};
use crate::counters;
use crate::gen::{lane, point_prefill, scan_prefill, stream, Op, PointMix};
use crate::measure::{summarise, Done, Recorder, Timeline};
use crate::sys::{peak_rss_mib, Placement};
use crate::trace::{name, ThreadTrace, Tracer, KEEP};

type Map = ShardedPnbBst<u64, u64>;

/// A point session refreshes its epoch pin this often.
const POINT_REFRESH_EVERY: u64 = 256;
/// A scanner refreshes its pin this often (a scan pins for its whole
/// length, so far fewer of them fit between refreshes).
const SCAN_REFRESH_EVERY: u64 = 64;
/// In-process calls take a microsecond or three: reading the clock
/// around every one would be a tenth of what is measured, and one
/// call's tail is the box's (a run on a busier host reads a third
/// higher at p99). So the clock is read once per `BURST` calls, and the
/// request unit whose latency `mem-point` reports is one burst: an
/// embedder's request that touches `BURST` keys.
const BURST: u64 = 16;

/// Build a map holding `keys`; returns it with its size.
pub fn build_map(keys: &[u64]) -> (Map, u64) {
    let map = Map::new(SHARDS);
    let mut len = 0;
    {
        let mut session = map.pin();
        for (i, &k) in keys.iter().enumerate() {
            len += session.insert(k, k) as u64;
            if i as u64 % POINT_REFRESH_EVERY == POINT_REFRESH_EVERY - 1 {
                session.refresh();
            }
        }
    }
    (map, len)
}

/// Drop a map and hand its memory back, so the next set-up (or the
/// ladder) starts from the same allocator state as the first.
pub fn discard_map(map: Map) {
    drop(map);
    pnb_bst::collector_drain(4);
    pnb_bst::arena_trim();
}

struct ThreadResult {
    recorder: Recorder,
    trace: ThreadTrace,
    tally: Tally,
    inserted: u64,
    deleted: u64,
}

/// One `mem-point` thread: the point mix through a long-lived session.
fn point_thread(map: &Map, cfg: &RunConfig, t: &Timeline, index: usize) -> ThreadResult {
    let label = format!("load-{index}");
    let mut recorder = Recorder::new(t);
    let mut tracer = Tracer::new(&label, t.begin, t.origin, KEEP);
    let mut tally = Tally::default();
    let mut mix = PointMix::new(stream(cfg.seed, lane::LOAD + index as u64), cfg.space);
    let mut session = map.pin();
    let (mut inserted, mut deleted) = (0u64, 0u64);
    let mut pending = Done::default();
    let mut burst_start = Instant::now();
    for n in 0u64.. {
        let op = mix.next_op();
        let verdict = match op {
            Op::Insert(k) => {
                inserted += tracer.span(name::SESSION_INSERT, n, |_| session.insert(k, k)) as u64;
                Ok(())
            }
            Op::Delete(k) => {
                deleted += tracer.span(name::SESSION_DELETE, n, |_| session.delete(&k)) as u64;
                Ok(())
            }
            Op::Get(k) => check_get(k, tracer.span(name::SESSION_GET, n, |_| session.get(&k))),
        };
        tally.book(1, verdict);
        pending.add(Done::point(op.is_update()));
        if n % BURST == BURST - 1 {
            let end = Instant::now();
            if end >= t.stop {
                break;
            }
            recorder.record(end, pending, Some(end - burst_start));
            pending = Done::default();
            burst_start = end;
        }
        if n % POINT_REFRESH_EVERY == POINT_REFRESH_EVERY - 1 {
            tracer.span(name::SESSION_REFRESH, n, |_| session.refresh());
        }
    }
    ThreadResult {
        recorder,
        trace: tracer.finish(),
        tally,
        inserted,
        deleted,
    }
}

pub fn mem_point(cfg: &RunConfig) -> Outcome {
    let placement = Placement::detect();
    let ((map, prefill), setup_s) = timed_setups(
        || build_map(&point_prefill(cfg.seed, cfg.space)),
        |(map, _)| discard_map(map),
    );
    let before = counters::snapshot(Some(&map));
    let t = Timeline::start(cfg.seconds, Duration::from_secs(1));
    let results: Vec<ThreadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let (map, placement, t) = (&map, &placement, &t);
                s.spawn(move || {
                    placement.pin_load(i);
                    point_thread(map, cfg, t, i)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let peak_rss_mb = peak_rss_mib();
    let after = counters::snapshot(Some(&map));

    let mut tally = Tally::default();
    let (mut inserted, mut deleted) = (0, 0);
    let mut recorders = Vec::new();
    let mut traces = Vec::new();
    for r in results {
        tally.merge(r.tally);
        inserted += r.inserted;
        deleted += r.deleted;
        recorders.push(r.recorder);
        traces.push(r.trace);
    }
    let mut check_errors = Vec::new();
    if let Err(e) = check_len(prefill, inserted, deleted, map.len() as u64) {
        check_errors.push(e);
    }
    // Panics on a violated structural invariant; returns the key count.
    let walked = map.check_invariants() as u64;
    if let Err(e) = check_len(prefill, inserted, deleted, walked) {
        check_errors.push(format!("check_invariants: {e}"));
    }

    let mut layer = Layer::default();
    let summary = summarise(&recorders);
    if Tracer::enabled() {
        counters::report(&before, &after, inserted + deleted, &mut layer);
        layer.set(
            "shard.load_imbalance",
            pnb_shard::load_imbalance(&map.shard_stats()),
        );
    }
    Outcome {
        tally,
        check_errors,
        setup_s,
        summary,
        peak_rss_mb,
        layer,
        traces,
        notes: vec![
            format!(
                "map: {prefill} of {} keys prefilled, {SHARDS} shards; final len {walked}",
                cfg.space
            ),
            placement.note(),
        ],
    }
}

/// The `mem-scan` updater: inserts and deletes on odd keys only.
fn updater_thread(map: &Map, cfg: &RunConfig, t: &Timeline) -> ThreadResult {
    let mut recorder = Recorder::new(t);
    let mut tracer = Tracer::new("updater", t.begin, t.origin, KEEP);
    let mut tally = Tally::default();
    let mut rng = stream(cfg.seed, lane::LOAD);
    let mut session = map.pin();
    let (mut inserted, mut deleted) = (0u64, 0u64);
    let mut pending = Done::default();
    for n in 0u64.. {
        let r = rng.next_u64();
        let key = 2 * rng.below(cfg.space / 2) + 1;
        if r & 1 == 0 {
            inserted += tracer.span(name::SESSION_INSERT, n, |_| session.insert(key, key)) as u64;
        } else {
            deleted += tracer.span(name::SESSION_DELETE, n, |_| session.delete(&key)) as u64;
        }
        tally.attempted += 1;
        pending.add(Done::point(true));
        if n % BURST == BURST - 1 {
            let now = Instant::now();
            if now >= t.stop {
                break;
            }
            recorder.record(now, pending, None);
            pending = Done::default();
        }
        if n % POINT_REFRESH_EVERY == POINT_REFRESH_EVERY - 1 {
            session.refresh();
        }
    }
    ThreadResult {
        recorder,
        trace: tracer.finish(),
        tally,
        inserted,
        deleted,
    }
}

/// The `mem-scan` scanner: wait-free range scans at uniform positions,
/// every one timed and checked.
fn scanner_thread(map: &Map, cfg: &RunConfig, t: &Timeline) -> ThreadResult {
    let mut recorder = Recorder::new(t);
    let mut tracer = Tracer::new("scanner", t.begin, t.origin, KEEP);
    let mut tally = Tally::default();
    let mut rng = stream(cfg.seed, lane::LOAD + 1);
    let mut session = map.pin();
    for n in 0u64.. {
        let lo = rng.below(cfg.space - SCAN_WIDTH);
        let hi = lo + SCAN_WIDTH - 1;
        let start = Instant::now();
        let checked = tracer.span(name::REQUEST, n, |tr| {
            let range = tr.span(name::SESSION_RANGE, n, |_| session.range(lo..=hi));
            tr.span(name::MERGE_DRAIN, n, |_| check_scan(lo, hi, range))
        });
        let end = Instant::now();
        if end >= t.stop {
            break;
        }
        let entries = *checked.as_ref().unwrap_or(&0);
        tally.book(1, checked.map(drop));
        recorder.record(end, Done::scan(entries), Some(end - start));
        if n % SCAN_REFRESH_EVERY == SCAN_REFRESH_EVERY - 1 {
            tracer.span(name::SESSION_REFRESH, n, |_| session.refresh());
        }
    }
    ThreadResult {
        recorder,
        trace: tracer.finish(),
        tally,
        inserted: 0,
        deleted: 0,
    }
}

pub fn mem_scan(cfg: &RunConfig) -> Outcome {
    let placement = Placement::detect();
    let ((map, prefill), setup_s) = timed_setups(
        || build_map(&scan_prefill(cfg.seed, cfg.space)),
        |(map, _)| discard_map(map),
    );
    let before = counters::snapshot(Some(&map));
    let t = Timeline::start(cfg.seconds, Duration::from_secs(1));
    let (updater, scanner) = std::thread::scope(|s| {
        let (map, placement, t) = (&map, &placement, &t);
        let updater = s.spawn(move || {
            placement.pin_load(0);
            updater_thread(map, cfg, t)
        });
        let scanner = s.spawn(move || {
            placement.pin_load(1);
            scanner_thread(map, cfg, t)
        });
        (
            updater.join().expect("updater panicked"),
            scanner.join().expect("scanner panicked"),
        )
    });
    let peak_rss_mb = peak_rss_mib();
    let after = counters::snapshot(Some(&map));

    let mut check_errors = Vec::new();
    let walked = map.check_invariants() as u64;
    if let Err(e) = check_len(prefill, updater.inserted, updater.deleted, walked) {
        check_errors.push(e);
    }
    let mut tally = updater.tally;
    tally.merge(scanner.tally);
    let summary = summarise(&[updater.recorder, scanner.recorder]);
    let mut layer = Layer::default();
    if Tracer::enabled() {
        counters::report(
            &before,
            &after,
            updater.inserted + updater.deleted,
            &mut layer,
        );
        layer.set(
            "shard.load_imbalance",
            pnb_shard::load_imbalance(&map.shard_stats()),
        );
    }
    Outcome {
        tally,
        check_errors,
        setup_s,
        summary,
        peak_rss_mb,
        layer,
        traces: vec![updater.trace, scanner.trace],
        notes: vec![
            format!(
                "map: {prefill} of {} keys prefilled (every even key), {SHARDS} shards; \
                 scans of {SCAN_WIDTH} keys; final len {walked}",
                cfg.space
            ),
            placement.note(),
        ],
    }
}
