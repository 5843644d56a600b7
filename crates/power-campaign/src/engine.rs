//! Campaign orchestration: expand → run → write → summarize → gate.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::gate::{self, GateOutcome, GateResult};
use crate::grid::{expand, Cell};
use crate::pool::{self, PoolStats};
use crate::probe::{run_probe, Metrics, ProbeError};
use crate::scenario::Scenario;
use crate::summary::{fold, Band};
use mini_json::Json;
use power_sim::store::{TraceStore, SIMULATION_KEY_EPOCH};

/// A cell's folded results: one metric map per seed plus cross-seed bands.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell.
    pub cell: Cell,
    /// Per-seed metrics, in scenario seed order.
    pub per_seed: Vec<Metrics>,
    /// Cross-seed bands per metric.
    pub bands: BTreeMap<String, Band>,
}

/// Everything a campaign run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Seeds executed (scenario order).
    pub seeds: Vec<u64>,
    /// Folded cell results, in expansion order.
    pub cells: Vec<CellResult>,
    /// Gate outcomes.
    pub gates: Vec<GateResult>,
    /// Output directory (`<out_root>/<name>`).
    pub out_dir: PathBuf,
    /// How the pool distributed the work (diagnostic only — never
    /// serialized, so output bytes stay thread-count independent).
    pub pool: PoolStats,
}

impl CampaignReport {
    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.outcome.passed())
    }

    /// The failing gates.
    pub fn violations(&self) -> Vec<&GateResult> {
        self.gates.iter().filter(|g| !g.outcome.passed()).collect()
    }

    /// The deterministic `summary.json` document: cells in expansion
    /// order, metrics and object keys in lexicographic order, floats in
    /// shortest-round-trip form. Identical content ⇒ identical bytes.
    pub fn summary_json(&self) -> Json {
        let band_json = |b: &Band| {
            Json::object([
                ("max", Json::num(b.max)),
                ("mean", Json::num(b.mean)),
                ("min", Json::num(b.min)),
                ("seeds", Json::num(b.n as f64)),
                ("std", Json::num(b.std)),
            ])
        };
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                let metrics: BTreeMap<String, Json> = c
                    .bands
                    .iter()
                    .map(|(k, b)| (k.clone(), band_json(b)))
                    .collect();
                Json::object([
                    ("grid", Json::str(c.cell.grid.clone())),
                    ("meter", Json::str(c.cell.meter.clone())),
                    ("methodology", Json::str(c.cell.methodology.clone())),
                    ("metrics", Json::Object(metrics)),
                    ("system", Json::str(c.cell.system.label.clone())),
                    ("window", Json::str(c.cell.window.clone())),
                    ("workload", Json::str(c.cell.workload.clone())),
                ])
            })
            .collect();
        let gates: Vec<Json> = self
            .gates
            .iter()
            .map(|g| {
                let (outcome, detail) = match &g.outcome {
                    GateOutcome::Pass => ("pass", String::new()),
                    GateOutcome::Fail(m) => ("fail", m.clone()),
                    GateOutcome::NotApplicable(m) => ("not_applicable", m.clone()),
                };
                Json::object([
                    ("cell", Json::str(g.cell.clone())),
                    ("constraint", Json::str(g.constraint.clone())),
                    ("detail", Json::str(detail)),
                    ("expect", Json::num(g.expect_index as f64)),
                    ("metric", Json::str(g.metric.clone())),
                    ("outcome", Json::str(outcome)),
                ])
            })
            .collect();
        Json::object([
            ("campaign", Json::str(self.name.clone())),
            ("cells", Json::Array(cells)),
            ("gates", Json::Array(gates)),
            ("model_rev", Json::num(f64::from(SIMULATION_KEY_EPOCH))),
            ("pass", Json::Bool(self.passed())),
            (
                "seeds",
                Json::Array(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
        ])
    }
}

/// Why a campaign run failed (not a gate violation — those are reported
/// in the [`CampaignReport`]).
#[derive(Debug)]
pub enum CampaignError {
    /// A probe rejected its cell.
    Probe(ProbeError),
    /// Filesystem output failed.
    Io {
        /// Path being written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Probe(e) => write!(f, "{e}"),
            CampaignError::Io { path, source } => {
                write!(f, "writing {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ProbeError> for CampaignError {
    fn from(e: ProbeError) -> Self {
        CampaignError::Probe(e)
    }
}

/// Renders one cell's per-seed CSV: header `seed,<metrics…>` (metric
/// names sorted), one row per seed in scenario order, shortest
/// round-trip float formatting. A metric missing for a seed renders
/// empty (probes normally emit a stable key set).
fn cell_csv(seeds: &[u64], result: &CellResult) -> String {
    let columns: Vec<&String> = result.bands.keys().collect();
    let mut out = String::from("seed");
    for c in &columns {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');
    for (si, seed) in seeds.iter().enumerate() {
        out.push_str(&seed.to_string());
        for c in &columns {
            out.push(',');
            if let Some(v) = result.per_seed[si].get(c.as_str()) {
                out.push_str(&v.to_string());
            }
        }
        out.push('\n');
    }
    out
}

fn write_file(path: &Path, bytes: &str) -> Result<(), CampaignError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|source| CampaignError::Io {
            path: parent.to_path_buf(),
            source,
        })?;
    }
    let mut f = std::fs::File::create(path).map_err(|source| CampaignError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    f.write_all(bytes.as_bytes())
        .map_err(|source| CampaignError::Io {
            path: path.to_path_buf(),
            source,
        })
}

/// Runs a campaign: expands the grids, executes every (cell, seed) task
/// on a `threads`-worker stealing pool against the process-wide
/// [`TraceStore`], writes per-cell CSVs and `summary.json` under
/// `<out_root>/<scenario.name>/`, and evaluates the gates.
///
/// Output bytes are a pure function of the scenario: thread count only
/// changes wall-clock time and the returned [`PoolStats`].
pub fn run_campaign(
    scenario: &Scenario,
    threads: usize,
    out_root: &Path,
) -> Result<CampaignReport, CampaignError> {
    run_campaign_with_store(scenario, threads, out_root, TraceStore::global())
}

/// [`run_campaign`] against a caller-supplied store (isolated cache
/// accounting for tests and benchmarks).
pub fn run_campaign_with_store(
    scenario: &Scenario,
    threads: usize,
    out_root: &Path,
    store: &TraceStore,
) -> Result<CampaignReport, CampaignError> {
    let cells = expand(scenario);
    let seeds = &scenario.seeds;

    // One task per (cell, seed); cell-major so a steal takes another
    // cell's work (a different sweep) rather than a sibling seed.
    let tasks: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|ci| (0..seeds.len()).map(move |si| (ci, si)))
        .collect();
    let scale = scenario.scale;
    let (outcomes, pool) = pool::run_tasks(threads, &tasks, |_, &(ci, si)| {
        run_probe(&cells[ci], seeds[si], &scale, store)
    });

    // Fold in task (= expansion × seed) order; first error wins
    // deterministically.
    let mut per_cell: Vec<Vec<Metrics>> = vec![Vec::with_capacity(seeds.len()); cells.len()];
    for (t, outcome) in tasks.iter().zip(outcomes) {
        per_cell[t.0].push(outcome?);
    }
    let results: Vec<CellResult> = cells
        .into_iter()
        .zip(per_cell)
        .map(|(cell, per_seed)| {
            let mut names: Vec<String> = per_seed.iter().flat_map(|m| m.keys().cloned()).collect();
            names.sort_unstable();
            names.dedup();
            let bands = names
                .into_iter()
                .filter_map(|name| {
                    let values: Vec<f64> = per_seed
                        .iter()
                        .filter_map(|m| m.get(&name).copied())
                        .collect();
                    fold(&values).map(|b| (name, b))
                })
                .collect();
            CellResult {
                cell,
                per_seed,
                bands,
            }
        })
        .collect();

    let gates = gate::evaluate(&scenario.expect, &results);
    let report = CampaignReport {
        name: scenario.name.clone(),
        seeds: seeds.clone(),
        cells: results,
        gates,
        out_dir: out_root.join(&scenario.name),
        pool,
    };

    for cell in &report.cells {
        let path = report
            .out_dir
            .join(&cell.cell.grid)
            .join(format!("{}.csv", cell.cell.file_stem()));
        write_file(&path, &cell_csv(seeds, cell))?;
    }
    let mut summary = report.summary_json().render();
    summary.push('\n');
    write_file(&report.out_dir.join("summary.json"), &summary)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn out_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "power-campaign-engine-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A statistics-only scenario: runs in microseconds, exercises the
    /// whole pipeline.
    fn stats_scenario() -> Scenario {
        Scenario::parse(
            r#"{
              "name": "stats",
              "seeds": [1, 2, 3],
              "grids": [
                {"name": "pure", "methodologies": ["samplesize", "t_vs_z", "accuracy_gap"]}
              ],
              "expect": [
                {"grid": "pure", "methodology": "samplesize", "metric": "n_l1_cv2",
                 "value": 16, "tol": 0},
                {"grid": "pure", "methodology": "samplesize", "metric": "n_l0.5_cv3",
                 "value": 137, "tol": 0, "max_seed_delta": 0},
                {"grid": "pure", "methodology": "accuracy_gap", "metric": "small_n",
                 "value": 4, "tol": 0}
              ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn campaign_runs_writes_and_gates() {
        let out = out_dir("basic");
        let report = run_campaign(&stats_scenario(), 2, &out).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations());
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.cells[0].per_seed.len(), 3);
        // Files landed where documented.
        assert!(out.join("stats/summary.json").is_file());
        assert!(out
            .join("stats/pure/-__preset__pdu__samplesize__middle.csv")
            .is_file());
        let csv =
            std::fs::read_to_string(out.join("stats/pure/-__preset__pdu__t_vs_z__middle.csv"))
                .unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "seed,t_over_z_n10,t_over_z_n3,t_over_z_n50,z_crit"
        );
        assert_eq!(csv.lines().count(), 4); // header + 3 seeds
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn summary_bytes_are_thread_invariant() {
        let out1 = out_dir("t1");
        let out4 = out_dir("t4");
        run_campaign(&stats_scenario(), 1, &out1).unwrap();
        run_campaign(&stats_scenario(), 4, &out4).unwrap();
        let a = std::fs::read(out1.join("stats/summary.json")).unwrap();
        let b = std::fs::read(out4.join("stats/summary.json")).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&out1);
        let _ = std::fs::remove_dir_all(&out4);
    }

    #[test]
    fn gate_violation_is_reported_not_an_error() {
        let mut s = stats_scenario();
        s.expect[0].value = Some(999.0);
        let out = out_dir("viol");
        let report = run_campaign(&s, 2, &out).unwrap();
        assert!(!report.passed());
        assert_eq!(report.violations().len(), 1);
        // The summary records the failure, and the model revision.
        let json = report.summary_json().render();
        assert!(json.contains("\"fail\""), "{json}");
        assert!(
            json.contains(&format!("\"model_rev\":{SIMULATION_KEY_EPOCH}")),
            "{json}"
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn probe_errors_abort_the_run() {
        let s = Scenario::parse(
            r#"{"name":"bad","seeds":[1],
                "grids":[{"name":"g","methodologies":["no-such-probe"]}]}"#,
        )
        .unwrap();
        let out = out_dir("err");
        let err = run_campaign(&s, 1, &out).unwrap_err();
        assert!(err.to_string().contains("unknown probe"), "{err}");
        let _ = std::fs::remove_dir_all(&out);
    }
}
