//! Output checks. Every operation a workload completes is checked as
//! it completes, and each run ends with the structural checks below; a
//! failed check is a failed operation and makes the run incorrect.
//!
//! The served workloads use one connection to one worker, and the
//! protocol answers a connection's requests in order, so the client
//! can keep a sequential model of the map ([`Model`]) and predict every
//! answer exactly. The two-thread in-process workloads cannot; they
//! rely on the sentinel keys and on the bookkeeping identity in
//! [`check_len`].

use pnb_server::{BatchSubResult, RespBody, ServerStatsSnapshot};

use crate::gen::{is_absent_sentinel, is_present_sentinel, Op};

/// The answer a point operation must get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Insert / Delete: whether it took effect.
    Bool(bool),
    /// Get: the value.
    Value(Option<u64>),
}

/// A set of present keys over `[0, space)`: the client-side sequential
/// model of a served map (value = key, so presence is all there is).
#[derive(Clone, Debug)]
pub struct Model {
    bits: Vec<u64>,
    len: u64,
}

impl Model {
    pub fn new(space: u64) -> Self {
        Model {
            bits: vec![0; space.div_ceil(64) as usize],
            len: 0,
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        self.bits
            .get((key / 64) as usize)
            .is_some_and(|w| w >> (key % 64) & 1 == 1)
    }

    /// Returns whether the key was absent.
    pub fn insert(&mut self, key: u64) -> bool {
        let fresh = !self.contains(key);
        if fresh {
            self.bits[(key / 64) as usize] |= 1 << (key % 64);
            self.len += 1;
        }
        fresh
    }

    /// Returns whether the key was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let had = self.contains(key);
        if had {
            self.bits[(key / 64) as usize] &= !(1 << (key % 64));
            self.len -= 1;
        }
        had
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    /// Apply `op` and say what the map must answer.
    pub fn apply(&mut self, op: Op) -> Expect {
        match op {
            Op::Insert(k) => Expect::Bool(self.insert(k)),
            Op::Delete(k) => Expect::Bool(self.remove(k)),
            Op::Get(k) => Expect::Value(self.contains(k).then_some(k)),
        }
    }

    /// Present keys of `[lo, hi]`, ascending.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        (lo..=hi).filter(|&k| self.contains(k))
    }
}

/// A response must echo the id of the oldest request in flight
/// (responses come in request order) and carry the predicted answer.
pub fn check_response(
    sent_id: u64,
    got_id: u64,
    want: Expect,
    body: &RespBody,
) -> Result<(), String> {
    if got_id != sent_id {
        return Err(format!(
            "response id {got_id}, oldest request in flight is {sent_id}"
        ));
    }
    let matches = match (want, body) {
        (Expect::Bool(w), RespBody::Bool(g)) => w == *g,
        (Expect::Value(w), RespBody::Value(g)) => w == *g,
        _ => false,
    };
    if matches {
        Ok(())
    } else {
        Err(format!("request {sent_id}: wanted {want:?}, got {body:?}"))
    }
}

/// A batch answers every sub-operation, in order, as predicted.
pub fn check_batch(want: &[Expect], got: &[BatchSubResult]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{} sub-ops sent, {} results",
            want.len(),
            got.len()
        ));
    }
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        let ok = match (w, g) {
            (Expect::Bool(w), BatchSubResult::Bool(g)) => w == g,
            (Expect::Value(w), BatchSubResult::Value(g)) => w == g,
            _ => false,
        };
        if !ok {
            return Err(format!("sub-op {i}: wanted {w:?}, got {g:?}"));
        }
    }
    Ok(())
}

/// A `Range` reply over a map nobody is writing must hold exactly the
/// model's keys of `[lo, hi]`, each with value = key, untruncated, and
/// `count` must say so.
pub fn check_range_reply(
    model: &Model,
    lo: u64,
    hi: u64,
    count: u64,
    entries: &[(u64, u64)],
    truncated: bool,
) -> Result<(), String> {
    if truncated || count != entries.len() as u64 {
        return Err(format!(
            "range [{lo}, {hi}]: count {count}, {} entries, truncated {truncated}",
            entries.len()
        ));
    }
    let mut want = model.range(lo, hi);
    for &(k, v) in entries {
        if v != k || want.next() != Some(k) {
            return Err(format!("range [{lo}, {hi}]: unexpected entry ({k}, {v})"));
        }
    }
    match want.next() {
        Some(k) => Err(format!("range [{lo}, {hi}]: key {k} is missing")),
        None => Ok(()),
    }
}

/// An in-process `get` racing other threads: the value is the key if
/// there is one, and the sentinel classes have known answers.
pub fn check_get(key: u64, got: Option<u64>) -> Result<(), String> {
    let ok = match got {
        Some(v) => v == key && !is_absent_sentinel(key),
        None => !is_present_sentinel(key),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("get({key}) answered {got:?}"))
    }
}

/// A scan of `[lo, hi]` beside an updater that only touches odd keys:
/// strictly ascending, inside its bounds, value = key, and holding
/// *every* even key of the range — those were never modified, so a scan
/// that misses one did not read a consistent version. Returns the
/// number of entries.
pub fn check_scan(
    lo: u64,
    hi: u64,
    entries: impl Iterator<Item = (u64, u64)>,
) -> Result<u64, String> {
    let (mut n, mut evens) = (0u64, 0u64);
    let mut last: Option<u64> = None;
    for (k, v) in entries {
        if k < lo || k > hi || v != k || last.is_some_and(|l| l >= k) {
            return Err(format!(
                "scan [{lo}, {hi}]: entry ({k}, {v}) after {last:?}"
            ));
        }
        last = Some(k);
        evens += (k % 2 == 0) as u64;
        n += 1;
    }
    // Ascending and distinct, so the count pins down the set.
    let want = (hi / 2 + 1) - lo.div_ceil(2);
    if evens != want {
        return Err(format!(
            "scan [{lo}, {hi}]: {evens} even keys, the range holds {want}"
        ));
    }
    Ok(n)
}

/// Every successful insert added a key and every successful delete
/// removed one, whatever the interleaving.
pub fn check_len(prefill: u64, inserted: u64, deleted: u64, actual: u64) -> Result<(), String> {
    let want = prefill + inserted - deleted;
    if actual == want {
        Ok(())
    } else {
        Err(format!(
            "len() is {actual}; prefill {prefill} + {inserted} inserts - {deleted} deletes = {want}"
        ))
    }
}

/// The server counted every frame the client sent, refused none and
/// saw no malformed one.
pub fn check_server_stats(stats: &ServerStatsSnapshot, frames_sent: u64) -> Result<(), String> {
    if stats.requests == frames_sent && stats.shed == 0 && stats.protocol_errors == 0 {
        Ok(())
    } else {
        Err(format!(
            "server counted {} requests ({} sent), shed {}, protocol errors {}",
            stats.requests, frames_sent, stats.shed, stats.protocol_errors
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each check is shown passing on a right answer and failing on a
    // doctored one: a check that cannot fail checks nothing.

    #[test]
    fn model_predicts_point_answers() {
        let mut m = Model::new(256);
        assert_eq!(m.apply(Op::Insert(5)), Expect::Bool(true));
        assert_eq!(m.apply(Op::Insert(5)), Expect::Bool(false));
        assert_eq!(m.apply(Op::Get(5)), Expect::Value(Some(5)));
        assert_eq!(m.apply(Op::Delete(5)), Expect::Bool(true));
        assert_eq!(m.apply(Op::Delete(5)), Expect::Bool(false));
        assert_eq!(m.apply(Op::Get(5)), Expect::Value(None));
        assert_eq!(m.len(), 0);
        m.insert(200);
        m.insert(3);
        assert_eq!(m.range(0, 255).collect::<Vec<_>>(), vec![3, 200]);
    }

    #[test]
    fn response_check_catches_a_swapped_id_and_a_wrong_answer() {
        let want = Expect::Value(Some(9));
        assert!(check_response(4, 4, want, &RespBody::Value(Some(9))).is_ok());
        assert!(check_response(4, 5, want, &RespBody::Value(Some(9))).is_err());
        assert!(check_response(4, 4, want, &RespBody::Value(None)).is_err());
        assert!(check_response(4, 4, want, &RespBody::Bool(true)).is_err());
        assert!(check_response(4, 4, want, &RespBody::Busy { retry_after_ms: 1 }).is_err());
    }

    #[test]
    fn batch_check_catches_a_short_reply_and_a_wrong_slot() {
        let want = [Expect::Bool(true), Expect::Value(None)];
        let good = [BatchSubResult::Bool(true), BatchSubResult::Value(None)];
        assert!(check_batch(&want, &good).is_ok());
        assert!(check_batch(&want, &good[..1]).is_err());
        let wrong = [BatchSubResult::Bool(true), BatchSubResult::Value(Some(1))];
        assert!(check_batch(&want, &wrong).is_err());
    }

    #[test]
    fn range_reply_check_catches_missing_extra_and_truncated() {
        let mut m = Model::new(128);
        for k in [2, 4, 9] {
            m.insert(k);
        }
        let good = [(2, 2), (4, 4), (9, 9)];
        assert!(check_range_reply(&m, 0, 10, 3, &good, false).is_ok());
        assert!(check_range_reply(&m, 0, 10, 2, &good[..2], false).is_err());
        assert!(check_range_reply(&m, 0, 10, 4, &[(2, 2), (3, 3), (4, 4), (9, 9)], false).is_err());
        assert!(check_range_reply(&m, 0, 10, 3, &[(2, 2), (4, 5), (9, 9)], false).is_err());
        assert!(check_range_reply(&m, 0, 10, 3, &good, true).is_err());
        assert!(check_range_reply(&m, 0, 10, 7, &good, false).is_err());
    }

    #[test]
    fn get_check_knows_the_sentinels() {
        assert!(check_get(64, Some(64)).is_ok());
        assert!(check_get(64, None).is_err(), "a present-sentinel vanished");
        assert!(check_get(65, None).is_ok());
        assert!(
            check_get(65, Some(65)).is_err(),
            "an absent-sentinel appeared"
        );
        assert!(check_get(70, None).is_ok());
        assert!(check_get(70, Some(70)).is_ok());
        assert!(check_get(70, Some(71)).is_err(), "value is not the key");
    }

    #[test]
    fn scan_check_catches_a_missing_even_key() {
        let full = |skip: Option<u64>| {
            (10..=29u64)
                .filter(move |k| (k % 2 == 0 || k % 3 == 0) && Some(*k) != skip)
                .map(|k| (k, k))
        };
        assert_eq!(check_scan(10, 29, full(None)), Ok(13));
        // Odd keys may come and go...
        assert!(check_scan(10, 29, full(Some(15))).is_ok());
        // ...a never-modified even key may not.
        assert!(check_scan(10, 29, full(Some(16))).is_err());
        // Out of order, out of bounds, wrong value.
        assert!(check_scan(10, 13, [(12, 12), (10, 10)].into_iter()).is_err());
        assert!(check_scan(10, 13, [(10, 10), (12, 12), (14, 14)].into_iter()).is_err());
        assert!(check_scan(10, 13, [(10, 10), (12, 13)].into_iter()).is_err());
        // Odd lower bound, even upper.
        assert_eq!(check_scan(11, 14, [(12, 12), (14, 14)].into_iter()), Ok(2));
    }

    #[test]
    fn len_check_catches_a_lost_update() {
        assert!(check_len(100, 30, 20, 110).is_ok());
        assert!(check_len(100, 30, 20, 109).is_err());
    }

    #[test]
    fn server_stats_check_catches_shed_and_miscount() {
        let ok = ServerStatsSnapshot {
            requests: 10,
            ..Default::default()
        };
        assert!(check_server_stats(&ok, 10).is_ok());
        assert!(check_server_stats(&ok, 11).is_err());
        let shed = ServerStatsSnapshot { shed: 1, ..ok };
        assert!(check_server_stats(&shed, 10).is_err());
        let bad = ServerStatsSnapshot {
            protocol_errors: 1,
            ..ok
        };
        assert!(check_server_stats(&bad, 10).is_err());
    }
}
