//! The live leaderboard: in-flight submissions ranked by efficiency.
//!
//! The Green500 publishes a *point estimate* per machine; the paper's
//! argument is that a ranking without uncertainty is a ranking of
//! noise. This leaderboard ranks every campaign that has at least one
//! finalized node by GFLOPS/W and attaches the campaign's *current*
//! confidence interval — live campaigns shift as nodes finalize,
//! finished ones are frozen at their stopping decision.
//!
//! CI semantics: the campaign's estimator gives a CI on the **mean
//! node power** (empirical spread, the rule's quantile, with the
//! finite-population correction — see
//! [`SequentialEstimator::ci`](power_telemetry::SequentialEstimator::ci)).
//! Machine power is `N ×` that mean, and efficiency is a monotone
//! *decreasing* transform of power, so the efficiency interval comes
//! from mapping the power interval's endpoints and swapping them:
//! `[rmax / p_hi, rmax / p_lo]`. No additional approximation is
//! introduced — the coverage statement carries over exactly.

use crate::fleet::{CampaignState, Fleet};
use power_method::Methodology;
use std::cmp::Ordering;

/// One ranked leaderboard entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// 1-based rank by descending efficiency (ties break by ascending id).
    pub rank: u64,
    /// Campaign id.
    pub id: u64,
    /// Submission name.
    pub name: String,
    /// Methodology tag of the submission.
    pub level: Methodology,
    /// Whether the run executed under a GPU power cap — capped
    /// submissions trade power spread for runtime spread, so their
    /// efficiency figures are not directly comparable to uncapped ones.
    pub power_capped: bool,
    /// Campaign lifecycle state (live entries still move).
    pub state: CampaignState,
    /// Machine size.
    pub population: u64,
    /// Nodes with finalized averages backing this entry.
    pub metered_nodes: u64,
    /// Machine Rmax in GFLOPS.
    pub rmax_gflops: f64,
    /// Estimated machine power in watts.
    pub power_w: f64,
    /// Point efficiency estimate in GFLOPS/W.
    pub gflops_per_w: f64,
    /// Efficiency confidence interval `(lower, upper)`, present once
    /// the campaign has ≥ 2 nodes.
    pub ci_gflops_per_w: Option<(f64, f64)>,
    /// The campaign's current relative CI half-width on power.
    pub relative_accuracy: Option<f64>,
}

impl Fleet {
    /// Builds the leaderboard: every campaign with at least one
    /// finalized node, ranked by descending efficiency (ties by
    /// ascending id), truncated to `limit` rows (0 = no limit).
    ///
    /// A bounded top-k selection. One scan computes each campaign's
    /// sort key, `rmax / (mean × population)`, under its shard lock;
    /// a campaign whose key cannot beat the current `limit`-th row is
    /// rejected before its row — name clone, CI, relative accuracy —
    /// is built. The candidate buffer is compacted back to `limit` rows
    /// each time it doubles, so a `limit=10` poll over thousands of
    /// finished campaigns builds a few dozen rows and sorts them once.
    /// `limit = 0` runs the same loop with no cutoff and no compaction.
    /// Rows are built off the campaign runtimes (no
    /// [`CampaignStatus`](crate::CampaignStatus) snapshots, no spec
    /// clones, no plane lookups), so the query stays interactive while
    /// the fleet churns.
    pub fn leaderboard(&self, limit: usize) -> Vec<LeaderboardRow> {
        let mut rows: Vec<LeaderboardRow> = Vec::new();
        // Key of the `limit`-th row after the last compaction: a
        // campaign ranking after it cannot make the cut.
        let mut cutoff: Option<(f64, u64)> = None;
        self.for_each_runtime(|id, rt| {
            let (spec, estimator) = (rt.source(), rt.estimator());
            if estimator.count() == 0 {
                return;
            }
            let population = spec.population;
            let power_w = estimator.mean() * population as f64;
            let rmax = spec.rmax_gflops();
            let gflops_per_w = rmax / power_w;
            if cutoff.is_some_and(|c| rank_order((gflops_per_w, id), c).is_gt()) {
                return;
            }
            let ci_gflops_per_w = estimator.ci().ok().map(|ci| {
                let p_lo = ci.lower() * population as f64;
                let p_hi = ci.upper() * population as f64;
                (rmax / p_hi, rmax / p_lo)
            });
            rows.push(LeaderboardRow {
                rank: 0,
                id,
                name: spec.name.clone(),
                level: spec.level,
                power_capped: spec.power_capped,
                state: rt.state(),
                population,
                metered_nodes: estimator.count(),
                rmax_gflops: rmax,
                power_w,
                gflops_per_w,
                ci_gflops_per_w,
                relative_accuracy: estimator.relative_accuracy().ok(),
            });
            if limit > 0 && rows.len() >= limit.saturating_mul(2) {
                rows.select_nth_unstable_by(limit - 1, row_order);
                rows.truncate(limit);
                cutoff = Some(rank_key(&rows[limit - 1]));
            }
        });
        rows.sort_unstable_by(row_order);
        if limit > 0 {
            rows.truncate(limit);
        }
        for (i, row) in rows.iter_mut().enumerate() {
            row.rank = i as u64 + 1;
        }
        rows
    }
}

/// A row's position in the ranking: `(gflops_per_w, id)`.
fn rank_key(row: &LeaderboardRow) -> (f64, u64) {
    (row.gflops_per_w, row.id)
}

/// The leaderboard's one total order: descending efficiency under
/// [`f64::total_cmp`], ties by ascending id. `Less` ranks first.
fn rank_order(a: (f64, u64), b: (f64, u64)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

fn row_order(a: &LeaderboardRow, b: &LeaderboardRow) -> Ordering {
    rank_order(rank_key(a), rank_key(b))
}
