//! Launch replay: recorded launch accounting for repeated launch
//! sequences on unchanged structure.
//!
//! A launch's modeled cost — counters, time breakdown, clock advance — is
//! a function of *which* addresses its warps touch and in what pattern,
//! never of the values stored there: coalescing, texture-cache probes,
//! atomic conflicts and critical paths all read indices, and no kernel
//! branches its charges on data it loads from a caller's vectors. An
//! iterative solver that re-runs one SpMV on the same operator and the
//! same buffers therefore pays the same modeled cost every iteration,
//! and only the *values* need recomputing.
//!
//! [`crate::Device::replay_scope`] exploits that. Under a caller-chosen
//! key (the pipeline uses plan id + `x`/`y` placement):
//!
//! * the **first** run interprets normally and records every launch's
//!   assembled [`RunReport`] together with its `(name, grid, block)`
//!   signature;
//! * **later** runs execute every kernel closure in *values-only* warp
//!   mode — gathers, scatters, atomics, shuffles and reductions perform
//!   the same bounds-checked loads, stores and arithmetic, but skip the
//!   coalescing scans, sorts, texture probes and counter charges — and
//!   each launch returns its recorded report, advancing the device clock
//!   by the same cycles. A signature mismatch panics: it means the key did
//!   not capture everything the launch sequence depends on.
//!
//! The memo is a small fixed-capacity LRU ([`REPLAY_MEMO_CAP`] keys) per
//! device. Scopes do not nest (an inner scope runs as plain code under the
//! outer one), only launches from the thread that opened the scope take
//! part, and a device with a trace ledger attached never opens a scope, so
//! traced runs always interpret fully.

use crate::counters::RunReport;
use std::thread::ThreadId;

/// Keys a device memoizes. Ping-pong iteration needs two per operator
/// (`x`/`y` alternate between two buffer pairs); serving needs one per
/// (plan, wave width), and its batch policies use up to 16 widths. The
/// rest lets a few operators interleave on one device without evicting
/// each other.
pub const REPLAY_MEMO_CAP: usize = 32;

/// How one launch relates to the device's replay scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReplayRole {
    /// No scope open on this thread: interpret and charge normally.
    Off,
    /// First run under the key: interpret normally, record the report.
    Record,
    /// Later run: execute values only, return the recorded report.
    Replay,
}

/// One launch's recorded signature and assembled report.
struct Recorded {
    grid_blocks: usize,
    block_dim: usize,
    report: RunReport,
}

/// The open scope: its key and the launches recorded (or being replayed)
/// under it.
struct Active {
    owner: ThreadId,
    key: Box<[u64]>,
    replaying: bool,
    launches: Vec<Recorded>,
    /// Next launch to replay (replaying scopes only).
    next: usize,
}

/// A device's replay memo: closed keys in LRU order (most recent last)
/// plus the open scope, if any.
#[derive(Default)]
pub(crate) struct ReplayMemo {
    entries: Vec<(Box<[u64]>, Vec<Recorded>)>,
    active: Option<Active>,
    /// Launches recorded and replayed so far (see [`Self::counts`]).
    recorded: u64,
    replayed: u64,
}

impl ReplayMemo {
    /// Open a scope under `key` for the calling thread: replaying if the
    /// key is memoized, recording otherwise. Returns `false` (and opens
    /// nothing) when a scope is already open.
    pub(crate) fn open(&mut self, key: &[u64]) -> bool {
        if self.active.is_some() {
            return false;
        }
        let hit = self.entries.iter().position(|(k, _)| **k == *key);
        let (key, launches) = match hit {
            Some(i) => self.entries.remove(i),
            None => (key.into(), Vec::new()),
        };
        self.active = Some(Active {
            owner: std::thread::current().id(),
            key,
            replaying: hit.is_some(),
            launches,
            next: 0,
        });
        true
    }

    /// Drop the open scope without memoizing it (its body panicked).
    pub(crate) fn abandon(&mut self) {
        self.active = None;
    }

    /// Close the open scope and memoize it as the most recently used key,
    /// evicting the least recently used one when full. Panics when a
    /// replaying scope issued fewer launches than were recorded.
    pub(crate) fn close(&mut self) {
        let scope = self.active.take().expect("close needs an open scope");
        if scope.replaying {
            assert_eq!(
                scope.next,
                scope.launches.len(),
                "launch replay under key {:?}: {} launches replayed, {} recorded",
                scope.key,
                scope.next,
                scope.launches.len()
            );
        }
        if self.entries.len() == REPLAY_MEMO_CAP {
            self.entries.remove(0);
        }
        self.entries.push((scope.key, scope.launches));
    }

    /// The role of a launch issued now by the calling thread.
    pub(crate) fn role(&self) -> ReplayRole {
        match &self.active {
            Some(a) if a.owner == std::thread::current().id() => {
                if a.replaying {
                    ReplayRole::Replay
                } else {
                    ReplayRole::Record
                }
            }
            _ => ReplayRole::Off,
        }
    }

    /// Launches recorded and launches replayed since the memo was made.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.recorded, self.replayed)
    }

    /// Record a fully interpreted launch of a recording scope.
    pub(crate) fn record(&mut self, shape: (usize, usize), report: &RunReport) {
        self.recorded += 1;
        let scope = self.active.as_mut().expect("recording needs an open scope");
        scope.launches.push(Recorded {
            grid_blocks: shape.0,
            block_dim: shape.1,
            report: report.clone(),
        });
    }

    /// The recorded report of the next launch of a replaying scope.
    /// Panics when the launch's signature differs from the recorded one.
    pub(crate) fn replay(&mut self, name: &str, shape: (usize, usize)) -> RunReport {
        let scope = self.active.as_mut().expect("replay needs an open scope");
        let at = scope.next;
        let rec = scope.launches.get(at).unwrap_or_else(|| {
            panic!(
                "launch replay under key {:?}: launch {at} ('{name}') was never recorded",
                scope.key
            )
        });
        assert!(
            rec.report.name == name && (rec.grid_blocks, rec.block_dim) == shape,
            "launch replay under key {:?}: launch {at} is '{name}' {shape:?}, recorded '{}' {:?}",
            scope.key,
            rec.report.name,
            (rec.grid_blocks, rec.block_dim)
        );
        scope.next += 1;
        self.replayed += 1;
        rec.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, t: f64) -> RunReport {
        RunReport {
            name: name.to_string(),
            time_s: t,
            ..Default::default()
        }
    }

    #[test]
    fn second_scope_replays_what_the_first_recorded() {
        let mut m = ReplayMemo::default();
        assert!(m.open(&[1, 2]));
        assert_eq!(m.role(), ReplayRole::Record);
        m.record((4, 128), &report("k", 1.5));
        m.close();
        assert_eq!(m.role(), ReplayRole::Off);
        assert!(m.open(&[1, 2]));
        assert_eq!(m.role(), ReplayRole::Replay);
        assert_eq!(m.replay("k", (4, 128)).time_s, 1.5);
        m.close();
        assert_eq!(m.counts(), (1, 1));
    }

    #[test]
    fn scopes_do_not_nest() {
        let mut m = ReplayMemo::default();
        assert!(m.open(&[1]));
        assert!(!m.open(&[2]));
        m.close();
        assert!(m.open(&[2]));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_key() {
        let mut m = ReplayMemo::default();
        for k in 0..REPLAY_MEMO_CAP as u64 + 1 {
            m.open(&[k]);
            m.close();
        }
        m.open(&[0]);
        assert_eq!(m.role(), ReplayRole::Record, "key 0 must have been evicted");
        m.close();
        m.open(&[REPLAY_MEMO_CAP as u64]);
        assert_eq!(m.role(), ReplayRole::Replay);
        m.close();
    }

    #[test]
    fn abandoned_scopes_are_not_memoized() {
        let mut m = ReplayMemo::default();
        m.open(&[7]);
        m.record((1, 32), &report("k", 1.0));
        m.abandon();
        m.open(&[7]);
        assert_eq!(m.role(), ReplayRole::Record);
    }

    #[test]
    #[should_panic(expected = "1 recorded")]
    fn replaying_fewer_launches_than_recorded_panics() {
        let mut m = ReplayMemo::default();
        m.open(&[3]);
        m.record((1, 32), &report("k", 1.0));
        m.close();
        m.open(&[3]);
        m.close();
    }
}
