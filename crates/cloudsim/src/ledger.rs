//! The billing ledger: an exact, lazily filled cache behind
//! [`CloudSim::native_cost`](crate::cloud::CloudSim::native_cost).
//!
//! A cost report sums every instance ever created, in id order. Computed
//! from scratch, each spot instance re-integrates its market price over
//! its whole lifetime, so one report costs O(history) and a live operator
//! polling it pays that again on every scrape. The ledger keeps one slot
//! per instance instead, filled by the first report that sees it:
//!
//! - **Terminated** instances whose termination is at or before the
//!   report instant have a final cost; it is computed once and memoised.
//! - **Live Continuous-mode spot** instances keep a resumable fold of
//!   [`PriceTrace::mean_capped_price`](spotcheck_spotmarket::trace::PriceTrace::mean_capped_price):
//!   the accumulator over completed price segments, the index of the next
//!   change point, the instant the open segment started and its price,
//!   plus the index of the market. A report walks only the change points
//!   added since the previous one, then adds the open final segment.
//! - Everything else (not started, on-demand, hourly billing) is cheap or
//!   rare and is recomputed from scratch.
//!
//! **Exactness.** The from-scratch integral is a left fold over
//! [`Segments`](spotcheck_simcore::series::Segments), which split at every
//! change point strictly inside the billed window. A change point before
//! the previous report's end is also before any later end, so the
//! completed segments of the earlier fold are a prefix of the later
//! fold's segments: resuming performs the same f64 operations in the same
//! order. The per-instance costs are then added in id order, as before,
//! so every report is bit-identical to the from-scratch one.
//!
//! **Derived state.** The ledger is a cache, never state: it is outside
//! [`CloudSim::state_digest`](crate::cloud::CloudSim::state_digest) and
//! snapshots, and a restored engine starts with an empty one. A fold is
//! only resumed for a window ending after its open segment's start, and a
//! memo only serves reports at or after the termination; any other query
//! falls back to the from-scratch computation and leaves the slot alone.

use spotcheck_simcore::metrics;
use spotcheck_simcore::time::SimTime;

/// Per-instance billing cache, indexed by instance id.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Recomputed from scratch on every report.
    Scratch,
    /// Final cost of a terminated instance (valid for every report at or
    /// after its termination).
    Final(f64),
    /// Resumable price fold of a live Continuous-mode spot instance.
    Fold(Fold),
}

impl Ledger {
    /// The slot of instance `id`, growing the table on first sight.
    pub(crate) fn slot(&mut self, id: u64) -> &mut Slot {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::Scratch);
        }
        &mut self.slots[i]
    }
}

/// `mean_capped_price(cap, start, end)` as a resumable left fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fold {
    /// Index of the market in the platform's market table.
    pub(crate) market: u32,
    /// Index of the next change point to consume.
    next: u32,
    /// Start of the open segment.
    cursor: SimTime,
    /// Price holding over the open segment.
    price: f64,
    /// Sum of `min(price, cap) * secs` over the completed segments.
    acc: f64,
}

impl Fold {
    /// A fold of `points` from `start`, or `None` when there is nothing
    /// to resume: the series starts after `start` (the from-scratch mean
    /// is undefined and the instance is billed 0), or it is too long for
    /// the compact index.
    pub(crate) fn new(market: u32, points: &[(SimTime, f64)], start: SimTime) -> Option<Fold> {
        let next = points.partition_point(|(t, _)| *t <= start);
        Some(Fold {
            market,
            next: u32::try_from(next).ok()?,
            cursor: start,
            price: points.get(next.checked_sub(1)?)?.1,
            acc: 0.0,
        })
    }

    /// True if the fold can be resumed for a window ending at `end`.
    pub(crate) fn reaches(&self, end: SimTime) -> bool {
        end > self.cursor
    }

    /// Folds the change points before `end` into the accumulator and
    /// returns the cost of `[start, end)` at `cap`: exactly
    /// `spot_cost(.., BillingMode::Continuous)`.
    ///
    /// Requires [`Fold::reaches`]`(end)` and `end > start`.
    pub(crate) fn cost(
        &mut self,
        points: &[(SimTime, f64)],
        cap: f64,
        start: SimTime,
        end: SimTime,
    ) -> f64 {
        let mut walked = 1u64;
        while let Some(&(t, v)) = points.get(self.next as usize) {
            if t >= end {
                break;
            }
            self.acc += self.price.min(cap) * t.since(self.cursor).as_secs_f64();
            self.cursor = t;
            self.price = v;
            self.next += 1;
            walked += 1;
        }
        metrics::add(walked);
        let acc = self.acc + self.price.min(cap) * end.since(self.cursor).as_secs_f64();
        let span = end.since(start);
        acc / span.as_secs_f64() * span.as_hours_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::{spot_cost, BillingMode};
    use spotcheck_simcore::series::StepSeries;
    use spotcheck_spotmarket::market::MarketId;
    use spotcheck_spotmarket::trace::PriceTrace;

    fn trace() -> PriceTrace {
        let points = (0..50u64)
            .map(|i| (SimTime::from_secs(i * 997), 0.01 + (i % 7) as f64 * 0.013))
            .collect();
        PriceTrace::new(
            MarketId::new("m3.medium", "z"),
            0.07,
            StepSeries::from_points(points),
        )
    }

    #[test]
    fn resumed_fold_matches_scratch_bit_for_bit() {
        let t = trace();
        let points = t.prices.points();
        let start = SimTime::from_secs(1_234);
        let mut fold = Fold::new(0, points, start).expect("covered");
        for end_s in [1_235, 1_994, 1_995, 1_996, 9_000, 9_000, 31_017, 60_000] {
            let end = SimTime::from_secs(end_s);
            assert!(fold.reaches(end));
            let got = fold.cost(points, 0.05, start, end);
            let want = spot_cost(&t, start, end, 0.05, false, BillingMode::Continuous);
            assert_eq!(got.to_bits(), want.to_bits(), "end {end_s}");
        }
        assert!(!fold.reaches(SimTime::from_secs(1_234)));
    }

    #[test]
    fn uncovered_start_has_no_fold() {
        let t = trace();
        let late = PriceTrace::new(
            t.market.clone(),
            0.07,
            StepSeries::from_points(vec![(SimTime::from_secs(10), 0.02)]),
        );
        assert!(Fold::new(0, late.prices.points(), SimTime::from_secs(5)).is_none());
        let cost = spot_cost(
            &late,
            SimTime::from_secs(5),
            SimTime::from_secs(50),
            1.0,
            false,
            BillingMode::Continuous,
        );
        assert_eq!(cost, 0.0);
    }
}
