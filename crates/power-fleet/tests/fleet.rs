//! Fleet acceptance tests: scheduler fairness, shard accounting,
//! leaderboard CI semantics, and journal resume.

use power_fleet::{CampaignState, Fleet, FleetCampaignSpec, FleetConfig, LeaderboardRow};
use power_stats::ci::{mean_ci_t_finite, mean_ci_z_finite};
use power_stats::Summary;
use power_telemetry::online::CiQuantile;
use power_telemetry::plane::{IngestPlane, PlaneConfig, PlaneStats};
use power_telemetry::{CampaignReplay, FleetJournal, IngestConfig, MemJournal, Sample};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The planned-CV stopping rule is deterministic in `n` (it never looks
/// at the data), so the expected stopping node count can be computed
/// directly from Eq. 5 + the finite-population correction.
fn expected_planned_stop(confidence: f64, cv: f64, lambda: f64, population: u64) -> u64 {
    let z = power_stats::normal::z_critical(confidence).unwrap();
    for n in 2..=population {
        let fpc = (((population - n) as f64) / ((population - 1) as f64)).sqrt();
        if z * cv / (n as f64).sqrt() * fpc <= lambda {
            return n;
        }
    }
    population
}

fn spec(i: u64) -> FleetCampaignSpec {
    FleetCampaignSpec {
        name: format!("machine-{i}"),
        population: 96 + (i % 5) * 64,
        mean_node_w: 300.0 + (i % 7) as f64 * 40.0,
        cv: 0.03 + (i % 3) as f64 * 0.01,
        samples_per_node: 32,
        lateness: if i.is_multiple_of(2) { 0 } else { 4 },
        seed: 0xF1EE7 ^ i,
        ..FleetCampaignSpec::default()
    }
}

#[test]
fn concurrent_campaigns_run_to_their_stopping_rules() {
    let fleet = Fleet::new(FleetConfig {
        shards: 8,
        ..FleetConfig::default()
    })
    .unwrap();
    let n_campaigns = 200u64;
    let ids: Vec<u64> = (0..n_campaigns)
        .map(|i| fleet.create(spec(i)).unwrap())
        .collect();
    assert_eq!(fleet.live_count(), n_campaigns);
    fleet.drive_until_idle();
    assert_eq!(fleet.live_count(), 0);

    for &id in &ids {
        let status = fleet.status(id).unwrap();
        assert_eq!(status.state, CampaignState::Stopped, "campaign {id}");
        // The planned-CV rule ignores the data: the stopping node count
        // is exactly the Eq. 5 + FPC prediction.
        let s = &status.spec;
        let expected = expected_planned_stop(s.confidence, s.cv, s.lambda, s.population);
        assert_eq!(status.metered_nodes, expected, "campaign {id}");
        assert!(status.ci_node_w.is_some());
        let ra = status.relative_accuracy.unwrap();
        assert!(ra <= s.lambda, "campaign {id}: {ra} > λ");
        // The estimate tracks the declared population within a few
        // percent (noise + small n).
        let mean = status.mean_node_w.unwrap();
        assert!(
            (mean / s.mean_node_w - 1.0).abs() < 0.10,
            "campaign {id}: mean {mean} vs truth {}",
            s.mean_node_w
        );
    }

    // Plane-wide conservation holds after the whole fleet retired, and
    // per-shard stats sum exactly to the plane totals.
    let total = fleet.plane_stats();
    assert!(total.conserved(), "{total:?}");
    assert!(total.offered > 0);
    let mut sum = PlaneStats::default();
    for shard in 0..fleet.shards() {
        let s = fleet.shard_stats(shard);
        assert!(s.conserved(), "shard {shard}: {s:?}");
        sum.offered += s.offered;
        sum.pending += s.pending;
        sum.ingest += s.ingest;
    }
    assert_eq!(sum.offered, total.offered);
    assert_eq!(sum.ingest, total.ingest);
    // Nothing was lost: jitter is bounded below lateness, so every
    // offered sample was accepted.
    assert_eq!(total.ingest.accepted, total.offered);
    assert_eq!(total.ingest.late_dropped, 0);

    // The leaderboard ranks every campaign, efficiency descending, with
    // CIs bracketing the point estimates.
    let rows = fleet.leaderboard(0);
    assert_eq!(rows.len(), n_campaigns as usize);
    for pair in rows.windows(2) {
        assert!(pair[0].gflops_per_w >= pair[1].gflops_per_w);
    }
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.rank, i as u64 + 1);
        let (lo, hi) = row.ci_gflops_per_w.unwrap();
        assert!(lo <= row.gflops_per_w && row.gflops_per_w <= hi, "{row:?}");
    }
    let limited = fleet.leaderboard(10);
    assert_eq!(limited.len(), 10);
    assert_eq!(limited[9].rank, 10);
}

#[test]
fn lockstep_scheduling_never_starves_a_campaign() {
    let fleet = Fleet::new(FleetConfig {
        shards: 4,
        ..FleetConfig::default()
    })
    .unwrap();
    // One census-bound heavyweight (λ unreachable) among many quick
    // campaigns: the lockstep contract says every live campaign gains
    // exactly one node per full scheduling round.
    let heavy = fleet
        .create(FleetCampaignSpec {
            name: "census".into(),
            population: 64,
            lambda: 1e-9,
            samples_per_node: 8,
            ..FleetCampaignSpec::default()
        })
        .unwrap();
    let quick: Vec<u64> = (0..40)
        .map(|i| {
            fleet
                .create(FleetCampaignSpec {
                    name: format!("quick-{i}"),
                    population: 128,
                    cv: 0.02,
                    samples_per_node: 8,
                    seed: i,
                    ..FleetCampaignSpec::default()
                })
                .unwrap()
        })
        .collect();

    let mut rounds = 0u64;
    loop {
        let mut advanced = 0;
        for shard in 0..fleet.shards() {
            advanced += fleet.advance_shard(shard);
        }
        if advanced == 0 {
            break;
        }
        rounds += 1;
        // Lockstep: any campaign still live has exactly `rounds` nodes.
        for &id in quick.iter().chain(std::iter::once(&heavy)) {
            let st = fleet.status(id).unwrap();
            if st.state == CampaignState::Live {
                assert_eq!(st.metered_nodes, rounds, "campaign {id} fell behind");
            }
        }
        assert!(rounds <= 64 + 1, "scheduler failed to terminate");
    }

    // The heavyweight ran its census to the stopping decision at n = N
    // (the FPC sends the half-width to zero) — it was never starved by
    // the 40 quick campaigns completing first.
    let st = fleet.status(heavy).unwrap();
    assert_eq!(st.state, CampaignState::Stopped);
    assert_eq!(st.metered_nodes, 64);
    for &id in &quick {
        assert_ne!(fleet.status(id).unwrap().state, CampaignState::Live);
    }
}

/// Leaderboard CI semantics: the interval on the ranking page is the
/// batch CI machinery run over the campaign's finalized node averages —
/// same Summary, same quantile, same finite-population correction —
/// mapped through the monotone power→efficiency transform.
#[test]
fn leaderboard_ci_matches_batch_ci_on_the_same_averages() {
    for quantile in [CiQuantile::Normal, CiQuantile::StudentT] {
        let shared = Arc::new(Mutex::new(MemJournal::default()));
        let fleet = Fleet::open(
            FleetConfig::default(),
            Box::new(SharedJournal(Arc::clone(&shared))),
        )
        .unwrap();
        let id = fleet
            .create(FleetCampaignSpec {
                name: "empirical".into(),
                population: 256,
                empirical_cv: true,
                quantile,
                samples_per_node: 16,
                seed: 99,
                ..FleetCampaignSpec::default()
            })
            .unwrap();
        fleet.drive_until_idle();
        let status = fleet.status(id).unwrap();
        let spec = &status.spec;

        // Batch recomputation on the journaled averages.
        let averages: Vec<f64> = shared.lock().unwrap().replay().unwrap()[&id]
            .nodes
            .iter()
            .map(|&(_, avg)| avg)
            .collect();
        assert_eq!(averages.len() as u64, status.metered_nodes);
        let summary: Summary = averages.iter().copied().collect();
        let batch = match quantile {
            CiQuantile::Normal => mean_ci_z_finite(&summary, spec.confidence, spec.population),
            CiQuantile::StudentT => mean_ci_t_finite(&summary, spec.confidence, spec.population),
        }
        .unwrap();

        let live = status.ci_node_w.unwrap();
        assert_eq!(live.lower(), batch.lower());
        assert_eq!(live.upper(), batch.upper());

        // And the leaderboard row is that CI mapped through
        // rmax / (N · power): endpoints swap.
        let row = fleet
            .leaderboard(0)
            .into_iter()
            .find(|r| r.id == id)
            .unwrap();
        let (lo, hi) = row.ci_gflops_per_w.unwrap();
        let n = spec.population as f64;
        assert!((lo - spec.rmax_gflops() / (batch.upper() * n)).abs() < 1e-12);
        assert!((hi - spec.rmax_gflops() / (batch.lower() * n)).abs() < 1e-12);
    }
}

/// A fleet whose roster mixes exact efficiency ties (campaigns of one
/// class share spec and seed, so equal node counts give bit-identical
/// estimates), finished campaigns, live ones part-way through, and ones
/// with no finalized node yet: shard `s` is advanced `rounds[s]` times.
fn mixed_fleet(shards: usize, campaigns: u64, classes: u64, rounds: &[u8]) -> Fleet {
    let fleet = Fleet::new(FleetConfig {
        shards,
        ..FleetConfig::default()
    })
    .unwrap();
    for i in 0..campaigns {
        let c = i % classes;
        fleet
            .create(FleetCampaignSpec {
                name: format!("tie-{c}"),
                population: 32 + c * 16,
                mean_node_w: 300.0 + c as f64 * 40.0,
                cv: 0.02 + c as f64 * 0.01,
                samples_per_node: 4,
                seed: 7 + c,
                ..FleetCampaignSpec::default()
            })
            .unwrap();
    }
    for (shard, &n) in rounds.iter().enumerate().take(shards) {
        for _ in 0..n {
            fleet.advance_shard(shard);
        }
    }
    fleet
}

/// Brute-force leaderboard from status snapshots: every campaign with a
/// finalized node, sorted by descending efficiency then ascending id.
fn oracle_leaderboard(fleet: &Fleet) -> Vec<LeaderboardRow> {
    let mut rows: Vec<LeaderboardRow> = fleet
        .list()
        .into_iter()
        .filter_map(|s| {
            let power_w = s.power_w()?;
            let n = s.spec.population as f64;
            let rmax = s.spec.rmax_gflops();
            Some(LeaderboardRow {
                rank: 0,
                id: s.id,
                name: s.spec.name.clone(),
                level: s.spec.level,
                power_capped: s.spec.power_capped,
                state: s.state,
                population: s.spec.population,
                metered_nodes: s.metered_nodes,
                rmax_gflops: rmax,
                power_w,
                gflops_per_w: s.gflops_per_w()?,
                ci_gflops_per_w: s
                    .ci_node_w
                    .map(|ci| (rmax / (ci.upper() * n), rmax / (ci.lower() * n))),
                relative_accuracy: s.relative_accuracy,
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.gflops_per_w
            .partial_cmp(&a.gflops_per_w)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.rank = i as u64 + 1;
    }
    rows
}

/// Checks the top-k contract: the full board is the brute-force sort,
/// and every limited board is its prefix, field for field.
fn assert_topk_matches_oracle(fleet: &Fleet) {
    let full = fleet.leaderboard(0);
    assert_eq!(full, oracle_leaderboard(fleet));
    let n = full.len();
    for limit in [1, 2, 3, 10, 17, n.saturating_sub(1), n, n + 5] {
        if limit == 0 {
            continue;
        }
        let top = fleet.leaderboard(limit);
        assert_eq!(top, full[..limit.min(n)], "limit {limit} of {n}");
    }
}

#[test]
fn top_k_leaderboard_is_the_prefix_of_the_full_ranking() {
    let fleet = mixed_fleet(4, 120, 3, &[0, 3, 8, 40]);
    let board = fleet.leaderboard(0);
    // The fixture exercises what the selection must get right: rows
    // with no finalized node left out, live and finished rows ranked
    // together, and exact efficiency ties broken by id.
    assert!(board.len() < 120 && board.len() >= 60, "{}", board.len());
    assert!(board.iter().any(|r| r.state == CampaignState::Live));
    assert!(board.iter().any(|r| r.state != CampaignState::Live));
    assert!(board
        .windows(2)
        .any(|w| w[0].gflops_per_w == w[1].gflops_per_w && w[0].id < w[1].id));
    assert_topk_matches_oracle(&fleet);
}

/// A journal handle the test can keep while the fleet owns its half —
/// the crash seam for resume tests.
struct SharedJournal(Arc<Mutex<MemJournal>>);

impl FleetJournal for SharedJournal {
    fn replay(&mut self) -> power_telemetry::Result<BTreeMap<u64, CampaignReplay>> {
        self.0.lock().unwrap().replay()
    }
    fn record_created(&mut self, id: u64, fp: u64, spec: &[u8]) -> power_telemetry::Result<()> {
        self.0.lock().unwrap().record_created(id, fp, spec)
    }
    fn record_node(&mut self, id: u64, node: u64, average: f64) -> power_telemetry::Result<()> {
        self.0.lock().unwrap().record_node(id, node, average)
    }
    fn record_finished(&mut self, id: u64) -> power_telemetry::Result<()> {
        self.0.lock().unwrap().record_finished(id)
    }
    fn record_deleted(&mut self, id: u64) -> power_telemetry::Result<()> {
        self.0.lock().unwrap().record_deleted(id)
    }
    fn sync(&mut self) -> power_telemetry::Result<()> {
        self.0.lock().unwrap().sync()
    }
}

#[test]
fn resumed_fleet_matches_uninterrupted_run() {
    let mk_specs = || (0..30u64).map(spec).collect::<Vec<_>>();

    // Control: uninterrupted run.
    let control = Fleet::new(FleetConfig::default()).unwrap();
    let control_ids: Vec<u64> = mk_specs()
        .into_iter()
        .map(|s| control.create(s).unwrap())
        .collect();
    control.drive_until_idle();

    // Interrupted run: advance only a few rounds, then "crash" (drop
    // the fleet; the shared journal is the surviving disk state).
    let shared = Arc::new(Mutex::new(MemJournal::default()));
    let ids: Vec<u64> = {
        let fleet = Fleet::open(
            FleetConfig::default(),
            Box::new(SharedJournal(Arc::clone(&shared))),
        )
        .unwrap();
        let ids: Vec<u64> = mk_specs()
            .into_iter()
            .map(|s| fleet.create(s).unwrap())
            .collect();
        for _ in 0..5 {
            for shard in 0..fleet.shards() {
                fleet.advance_shard(shard);
            }
        }
        assert!(fleet.live_count() > 0, "crash must land mid-flight");
        ids
    };

    // Restart from the journal: every campaign resumes at its durable
    // watermark, then runs to the same answer as the control.
    let resumed = Fleet::open(
        FleetConfig::default(),
        Box::new(SharedJournal(Arc::clone(&shared))),
    )
    .unwrap();
    assert_eq!(resumed.campaign_count(), 30);
    let mut any_partial = false;
    for &id in &ids {
        let st = resumed.status(id).unwrap();
        assert_eq!(st.resumed_nodes, st.metered_nodes);
        if st.state == CampaignState::Live {
            assert!(st.metered_nodes > 0, "campaign {id} lost its prefix");
            any_partial = true;
        }
    }
    assert!(any_partial, "test should exercise mid-flight resume");
    resumed.drive_until_idle();

    for (&id, &cid) in ids.iter().zip(&control_ids) {
        let a = resumed.status(id).unwrap();
        let b = control.status(cid).unwrap();
        assert_eq!(a.state, b.state, "campaign {id}");
        assert_eq!(a.metered_nodes, b.metered_nodes);
        // Determinism: resumed estimates are bit-identical to the
        // uninterrupted run's.
        assert_eq!(a.mean_node_w, b.mean_node_w);
        assert_eq!(
            a.ci_node_w.as_ref().map(|c| (c.lower(), c.upper())),
            b.ci_node_w.as_ref().map(|c| (c.lower(), c.upper()))
        );
    }

    // Deletion is durable: a deleted campaign stays gone across reopen.
    assert!(resumed.delete(ids[0]).unwrap());
    let reopened = Fleet::open(
        FleetConfig::default(),
        Box::new(SharedJournal(Arc::clone(&shared))),
    )
    .unwrap();
    assert!(reopened.status(ids[0]).is_none());
    assert_eq!(reopened.campaign_count(), 29);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard accounting under concurrent producers: with several
    /// threads offering interleaved batches (including duplicates and
    /// stale repeats), every shard individually satisfies
    /// `accepted + dropped + duplicates + pending == offered`, and the
    /// shard snapshots sum exactly to the plane totals, which equal the
    /// producers' own ledgers.
    #[test]
    fn shard_accounting_sums_under_concurrent_producers(
        shards in 1usize..6,
        campaigns in 1u64..12,
        producers in 1usize..5,
        batches in 1usize..8,
        lateness in 0u64..4,
        dup_every in 2u64..7,
    ) {
        let plane = IngestPlane::new(PlaneConfig { shards }).unwrap();
        let cfg = IngestConfig {
            lateness,
            ring_capacity: 64,
        };
        for id in 0..campaigns {
            plane.register(id, 2, 0.0, 1.0, &cfg).unwrap();
        }
        // Each producer owns a disjoint slice of sequence space per
        // campaign so concurrent offers never race on the same lane
        // region; duplicates are injected *within* a producer's slice.
        let offered_by_producers: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let plane = &plane;
                    scope.spawn(move || {
                        let mut sent = 0u64;
                        for id in 0..campaigns {
                            for b in 0..batches {
                                let base = ((p * batches + b) * 8) as u64;
                                let mut batch: Vec<Sample> = (0..8)
                                    .map(|k| Sample {
                                        node: (k % 2) as usize,
                                        seq: (base + k) / 2,
                                        watts: 100.0 + k as f64,
                                    })
                                    .collect();
                                if base.is_multiple_of(dup_every) {
                                    let dup = batch[0];
                                    batch.push(dup);
                                }
                                plane.offer(id, &batch).unwrap();
                                sent += batch.len() as u64;
                            }
                        }
                        sent
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        let total = plane.stats();
        prop_assert_eq!(total.offered, offered_by_producers);
        prop_assert!(total.conserved(), "plane: {:?}", total);
        let mut sum = PlaneStats::default();
        for shard in 0..plane.shard_count() {
            let s = plane.shard_stats(shard);
            prop_assert!(s.conserved(), "shard {}: {:?}", shard, s);
            sum.campaigns += s.campaigns;
            sum.offered += s.offered;
            sum.pending += s.pending;
            sum.ingest += s.ingest;
        }
        prop_assert_eq!(sum, total);

        // Flushing drains pending without breaking the law.
        for id in 0..campaigns {
            plane.flush(id).unwrap();
        }
        let flushed = plane.stats();
        prop_assert_eq!(flushed.pending, 0);
        prop_assert!(flushed.conserved(), "after flush: {:?}", flushed);
    }

    /// The top-k selection agrees with a brute-force sort on any mix of
    /// ties, live and finished campaigns, shard counts and limits.
    #[test]
    fn top_k_leaderboard_matches_brute_force_sort(
        shards in 1usize..6,
        campaigns in 1u64..80,
        classes in 1u64..5,
        rounds in prop::collection::vec(0u8..30, 5..6),
    ) {
        assert_topk_matches_oracle(&mixed_fleet(shards, campaigns, classes, &rounds));
    }
}

/// A journal that refuses node records once `fail` is set — the seam
/// that turns a live campaign `Failed` mid-pass.
struct FlakyJournal {
    inner: MemJournal,
    fail: Arc<std::sync::atomic::AtomicBool>,
}

impl FleetJournal for FlakyJournal {
    fn replay(&mut self) -> power_telemetry::Result<BTreeMap<u64, CampaignReplay>> {
        self.inner.replay()
    }
    fn record_created(&mut self, id: u64, fp: u64, spec: &[u8]) -> power_telemetry::Result<()> {
        self.inner.record_created(id, fp, spec)
    }
    fn record_node(&mut self, id: u64, node: u64, average: f64) -> power_telemetry::Result<()> {
        if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(power_telemetry::TelemetryError::Journal(
                "injected node-record failure".into(),
            ));
        }
        self.inner.record_node(id, node, average)
    }
    fn record_finished(&mut self, id: u64) -> power_telemetry::Result<()> {
        self.inner.record_finished(id)
    }
    fn record_deleted(&mut self, id: u64) -> power_telemetry::Result<()> {
        self.inner.record_deleted(id)
    }
    fn sync(&mut self) -> power_telemetry::Result<()> {
        self.inner.sync()
    }
}

/// Every read the serving layer makes of a fleet; none may move
/// [`Fleet::version`].
fn assert_reads_keep_version(fleet: &Fleet) {
    let before = fleet.version();
    fleet.leaderboard(10);
    fleet.leaderboard(0);
    for id in 0..4 {
        fleet.status(id);
    }
    fleet.list();
    fleet.state_counts();
    assert_eq!(fleet.version(), before, "a read moved the version");
}

#[test]
fn version_moves_on_every_leaderboard_visible_change_and_only_then() {
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    })
    .unwrap();
    let v0 = fleet.version();
    assert_reads_keep_version(&fleet);
    for shard in 0..2 {
        assert_eq!(fleet.advance_shard(shard), 0);
    }
    assert_eq!(fleet.version(), v0, "passes over empty shards");

    let id = fleet.create(spec(0)).unwrap();
    let (home, other) = ((id % 2) as usize, ((id + 1) % 2) as usize);
    assert!(fleet.version() > v0, "create");
    assert_reads_keep_version(&fleet);
    let before = fleet.version();
    fleet.advance_shard(other);
    assert_eq!(
        fleet.version(),
        before,
        "a pass over a shard with no campaign"
    );

    // Every round meters a node, and the last one finishes the campaign.
    let mut rounds = 0;
    while fleet.status(id).unwrap().state == CampaignState::Live {
        let before = fleet.version();
        assert_eq!(fleet.advance_shard(home), 1);
        assert!(fleet.version() > before, "round {rounds}");
        rounds += 1;
    }
    assert_eq!(fleet.status(id).unwrap().state, CampaignState::Stopped);
    assert!(rounds >= 2, "the campaign must meter before it stops");
    assert_reads_keep_version(&fleet);
    let settled = fleet.version();
    for shard in 0..2 {
        assert_eq!(fleet.advance_shard(shard), 0);
    }
    assert_eq!(fleet.version(), settled, "passes over finished campaigns");

    assert!(fleet.delete(id).unwrap());
    assert!(fleet.version() > settled, "delete");
    let deleted = fleet.version();
    assert!(!fleet.delete(id).unwrap());
    assert_eq!(fleet.version(), deleted, "deleting an unknown id");
}

#[test]
fn version_moves_when_a_journal_failure_fails_a_campaign() {
    let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let fleet = Fleet::open(
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
        Box::new(FlakyJournal {
            inner: MemJournal::default(),
            fail: Arc::clone(&fail),
        }),
    )
    .unwrap();
    let id = fleet.create(spec(1)).unwrap();
    fleet.advance_shard(0);
    fail.store(true, std::sync::atomic::Ordering::SeqCst);
    let before = fleet.version();
    assert_eq!(fleet.advance_shard(0), 0, "the failing node is not metered");
    assert_eq!(fleet.status(id).unwrap().state, CampaignState::Failed);
    assert!(
        fleet.version() > before,
        "the pass that failed the campaign"
    );
    let failed = fleet.version();
    fleet.advance_shard(0);
    assert_eq!(fleet.version(), failed, "a pass over a failed campaign");
}

/// A log whose creation record is not a fleet spec (here, a live
/// campaign's 12 creation bytes) is refused naming the campaign.
#[test]
fn open_names_the_campaign_whose_spec_does_not_decode() {
    let mut journal = MemJournal::default();
    journal.record_created(0, 7, &[0; 12]).unwrap();
    let err = Fleet::open(FleetConfig::default(), Box::new(journal)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "fleet journal error: campaign 0: spec decode: record too short"
    );
}
