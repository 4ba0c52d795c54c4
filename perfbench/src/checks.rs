//! Output checks and the operation tally behind `attempted`, `failed`
//! and `fail_frac`.
//!
//! Every request, restore and output check of a pass is one attempted
//! operation. A failed output check makes the run incorrect. A failure
//! caused by a documented known defect is counted as failed but leaves
//! the outputs correct, so the defect shows in `fail_frac` without
//! hiding every other check.
//!
//! A pass's work is fixed by the seed, so every pass of a part makes the
//! same operations with the same outcomes. The run reports the sum of
//! each part's first-pass tally; a later pass whose tally differs from
//! its part's first fails the run. The figures therefore depend on the
//! seed alone, not on how many passes the host's speed let the run fit.

use crate::Size;

/// Failure messages kept for the report (the counts stay exact).
const KEEP: usize = 16;

/// Operations of one pass.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Of `failed`, those caused by a known defect.
    pub known: u64,
}

#[derive(Default)]
pub struct Checks {
    /// The part whose pass is being checked.
    part: usize,
    /// The pass being checked.
    current: Tally,
    /// Per part, the first pass's tally.
    first: Vec<Option<Tally>>,
    /// Per part, the first pass's outcome digest (determinism check).
    digests: Vec<Option<u64>>,
    /// Unexpected failures: any one makes the run incorrect.
    pub errors: Vec<String>,
    /// Known-defect failure messages (truncated; the counts stay exact).
    pub known: Vec<String>,
}

impl Checks {
    /// One operation that must succeed. Returns `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.current.attempted += 1;
        if !ok {
            self.current.failed += 1;
            self.error(what());
        }
        ok
    }

    /// `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.current.attempted += n;
    }

    /// One operation that failed because of a known, documented defect.
    pub fn known_defect(&mut self, what: String) {
        self.current.attempted += 1;
        self.current.failed += 1;
        self.current.known += 1;
        if self.known.len() < KEEP && !self.known.contains(&what) {
            self.known.push(what);
        }
    }

    fn error(&mut self, what: String) {
        if self.errors.len() < KEEP {
            self.errors.push(what);
        }
    }

    /// Sizes the per-part records for a workload of `n` parts.
    pub fn set_parts(&mut self, n: usize) {
        self.first = vec![None; n];
        self.digests = vec![None; n];
    }

    /// Checks from now on belong to a pass of part `k`.
    pub fn set_part(&mut self, k: usize) {
        self.part = k;
    }

    /// Closes the current pass's tally: the part's first becomes the
    /// part's figure, and a later one must equal it.
    pub fn end_pass(&mut self, pass: u32) {
        let tally = std::mem::take(&mut self.current);
        let first = *self.first[self.part].get_or_insert(tally);
        if tally != first {
            self.error(format!(
                "pass {pass} tallied {tally:?}, its part's first pass {first:?}"
            ));
        }
    }

    /// The run's tally: the sum of each part's first-pass tally.
    pub fn tally(&self) -> Tally {
        self.first
            .iter()
            .flatten()
            .fold(Tally::default(), |a, t| Tally {
                attempted: a.attempted + t.attempted,
                failed: a.failed + t.failed,
                known: a.known + t.known,
            })
    }

    /// The first pass's outcome digest of part `k`, if it has one.
    pub fn digest_of(&self, k: usize) -> Option<u64> {
        self.digests.get(k).copied().flatten()
    }

    /// Checks a pass's outcome digest: identical on every pass of its
    /// part (the simulation is deterministic), and equal to the pinned value
    /// when the seed has one at full size.
    pub fn digest(&mut self, d: u64, seed: u64, size: Size, pins: &[(u64, u64)]) {
        let first = *self.digests[self.part].get_or_insert(d);
        self.expect(first == d, || {
            format!("outcome digest {d:016x} differs from the first pass's {first:016x}")
        });
        if size == Size::Full {
            if let Some(&(_, pin)) = pins.iter().find(|(s, _)| *s == seed) {
                self.expect(pin == d, || {
                    format!("outcome digest {d:016x} differs from the pinned {pin:016x} for seed {seed}")
                });
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}
