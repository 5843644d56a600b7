//! Live measurement campaign: pilot → sequential stop → accuracy
//! statement, the online analogue of Table 5.
//!
//! Part 1 runs planned-CV campaigns across the Table 5 (λ, σ/μ) grid and
//! shows the sequential stopping rule landing on the closed-form Eq. 5
//! node count. Part 2 runs an empirical-CV campaign with PDU-grade
//! meters, bounded arrival jitter, and two injected meter faults, and
//! prints the full live report the operator would act on.
//!
//! `--store-dir DIR` makes Part 2 durable: every finalized per-node
//! average is synced to `DIR/live_campaign.wal` (a `FleetWal` holding
//! the campaign as a fleet of one) before the campaign moves on, and a
//! rerun over the same directory resumes at the watermark instead of
//! re-metering recorded nodes. A log it cannot resume, such as one
//! written under another model revision, ends the run with a one-line
//! message naming the file and exit status 1; a usage error (an unknown
//! flag, `--store-dir` without a directory) exits 2 with the usage line.

use power_archive::FleetWal;
use power_campaign::artifacts::sim_config;
use power_meter::{MeterFault, MeterModel};
use power_repro::{paper, scale, Args, SEED};
use power_sim::cluster::Cluster;
use power_sim::engine::Simulator;
use power_sim::systems;
use power_stats::SampleSizePlan;
use power_telemetry::{
    run_live_campaign, run_live_campaign_journaled, AnomalyKind, CvAssumption, DetectorConfig,
    LiveCampaignConfig,
};
use std::path::PathBuf;

fn main() {
    // Split our own `--store-dir DIR` off before handing the rest to
    // the shared scale parser.
    const EXTRA: &str = " [--store-dir DIR]";
    let mut store_dir: Option<PathBuf> = None;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--store-dir" {
            match argv.next() {
                Some(dir) if !dir.starts_with('-') => store_dir = Some(PathBuf::from(dir)),
                _ => scale::usage("--store-dir needs a directory", EXTRA),
            }
        } else {
            rest.push(arg);
        }
    }
    let scale = Args::parse(rest, false)
        .unwrap_or_else(|e| scale::usage(&e, EXTRA))
        .scale;
    let preset = systems::calcul_quebec();
    let nodes = scale.clamp_nodes(preset.cluster_spec.total_nodes);
    let preset = preset.with_total_nodes(nodes);
    let cluster = Cluster::build(preset.cluster_spec.clone()).expect("preset cluster");
    let wl = preset.workload.workload();
    let config = sim_config(
        &scale,
        wl.phases().core(),
        SEED ^ 0x11FE,
        paper::sim_threads(),
    );
    let dt = config.dt;
    let sim = Simulator::new(&cluster, wl, preset.balance, config).expect("simulator");

    println!(
        "Live campaign on {} (N = {nodes} nodes, {} core, dt = {dt:.0} s)\n",
        preset.name,
        preset.workload.workload().name(),
    );

    println!("Part 1 — sequential stop vs. Table 5 plan (planned CV, 95%):");
    println!("  lambda   cv    plan n   live n");
    for (lambda, cv) in [
        (0.005, 0.02),
        (0.01, 0.02),
        (0.01, 0.03),
        (0.02, 0.03),
        (0.02, 0.05),
    ] {
        let plan = SampleSizePlan::new(0.95, lambda, cv)
            .and_then(|p| p.required_nodes(nodes as u64))
            .expect("plan");
        let mut cfg = LiveCampaignConfig::table5(lambda, cv, MeterModel::ideal());
        cfg.scope = preset.scope;
        cfg.seed = SEED;
        let report = run_live_campaign(&sim, &cfg).expect("campaign");
        let live = report
            .stopped_at
            .map_or_else(|| "census".to_string(), |n| n.to_string());
        println!(
            "  {:>5.1}%  {:>3.0}%  {plan:>6}   {live:>6}",
            lambda * 100.0,
            cv * 100.0,
        );
    }

    println!("\nPart 2 — empirical-CV campaign, PDU meters, 2 faulty nodes:");
    let mut cfg = LiveCampaignConfig::table5(0.01, 0.03, MeterModel::pdu_grade());
    cfg.cv = CvAssumption::Empirical;
    cfg.pilot_nodes = 8;
    cfg.scope = preset.scope;
    cfg.seed = SEED ^ 0xF00D;
    // The drift detector's trailing window must fit the run (~500
    // samples per node at this scale), and the alarm must sit above the
    // HPL profile's own ~0.07/hr power trend so only meter faults fire.
    cfg.detector = Some(DetectorConfig {
        drift_window: (1800.0 / dt) as usize,
        drift_threshold_per_hour: 0.12,
        ..DetectorConfig::default()
    });
    // Fault two nodes the campaign will actually meter: the third and
    // fifth nodes in its deterministic selection order.
    let order = cfg.selection_order(nodes).expect("selection order");
    cfg.faults = vec![
        (order[2], MeterFault::Drift { rate_per_hour: 0.2 }),
        (order[4], MeterFault::StuckAfter { after_s: 600.0 }),
    ];
    let report = match &store_dir {
        Some(dir) => {
            // A store this build cannot resume (another model revision,
            // another campaign, an unreadable log) is refused in one line.
            let path = dir.join("live_campaign.wal");
            let refuse = |e: &dyn std::fmt::Display| -> ! {
                eprintln!("live_campaign: {}: {e}", path.display());
                std::process::exit(1)
            };
            std::fs::create_dir_all(dir).unwrap_or_else(|e| refuse(&e));
            let mut wal = FleetWal::open(&path).unwrap_or_else(|e| refuse(&e));
            let report =
                run_live_campaign_journaled(&sim, &cfg, &mut wal).unwrap_or_else(|e| refuse(&e));
            println!(
                "  durable: {} of {} nodes resumed from {}",
                report.resumed_nodes,
                report.metered_nodes,
                wal.path().display(),
            );
            report
        }
        None => run_live_campaign(&sim, &cfg).expect("campaign"),
    };
    println!(
        "  metered {} of {} nodes (stopping rule fired at {})",
        report.metered_nodes,
        report.population,
        report
            .stopped_at
            .map_or_else(|| "never".to_string(), |n| format!("n = {n}")),
    );
    println!(
        "  mean node power {:.1} W, 95% CI [{:.1}, {:.1}] W",
        report.mean_node_w,
        report.ci.lower(),
        report.ci.upper(),
    );
    println!(
        "  achieved accuracy {:.2}% (target {:.2}%)",
        report.relative_accuracy * 100.0,
        cfg.lambda * 100.0,
    );
    println!(
        "  extrapolated machine power {:.1} kW over [{:.0}, {:.0}) s",
        report.reported_power_w / 1000.0,
        report.window.0,
        report.window.1,
    );
    println!("  ingest: {}", report.ingest);
    let (drift, stuck, gap) = report.anomalies.iter().fold((0, 0, 0), |mut c, e| {
        match e.kind {
            AnomalyKind::Drift { .. } => c.0 += 1,
            AnomalyKind::Stuck { .. } => c.1 += 1,
            AnomalyKind::Gap { .. } => c.2 += 1,
        }
        c
    });
    println!("  anomalies: {drift} drift, {stuck} stuck, {gap} gap");
    for e in report.anomalies.iter().take(6) {
        println!(
            "    node slot {:>3}  t = {:>7.0} s  {:?}",
            e.node, e.t, e.kind
        );
    }
}
