//! Scenario-file schema and parser.
//!
//! A scenario is a JSON document:
//!
//! ```json
//! {
//!   "name": "paper",
//!   "seeds": [1, 2, 3],
//!   "scale": { "max_nodes": 512, "dt_scale": 4.0 },
//!   "grids": [
//!     {
//!       "name": "table2",
//!       "systems": ["colosse", {"preset": "l-csc", "nodes": 96}],
//!       "methodologies": ["trace"]
//!     }
//!   ],
//!   "expect": [
//!     { "grid": "table2", "system": "L-CSC", "metric": "last20_delta_pct",
//!       "min": -25.0, "max": -15.0 }
//!   ]
//! }
//! ```
//!
//! `seeds` is either an explicit array or `{"base": b, "count": k}`
//! (expands to `b, b+1, …, b+k-1`). Every grid dimension other than
//! `methodologies` is optional; omitted dimensions default to a single
//! placeholder entry so a grid can be as small as one probe name.

use mini_json::Json;

/// Scale knobs shared by every cell of a campaign (the scenario-file
/// analogue of the repro drivers' `--quick`/`--full` switch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Cap on simulated machine size; presets are scaled down to this.
    pub max_nodes: usize,
    /// Multiplier on the simulation time step.
    pub dt_scale: f64,
    /// Placements scanned by the interval-gaming probes.
    pub placements: usize,
    /// Bootstrap replications per coverage point.
    pub bootstrap_reps: usize,
    /// Simulated-machine size for the coverage study.
    pub bootstrap_population: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            max_nodes: 512,
            dt_scale: 4.0,
            placements: 101,
            bootstrap_reps: 2_000,
            bootstrap_population: 2_048,
        }
    }
}

impl Scale {
    /// Simulation time step for a run with the given core-phase duration
    /// (~2000 samples per run before `dt_scale`, never below 1 s).
    pub fn dt_for_core(&self, core_secs: f64) -> f64 {
        ((core_secs / 2000.0) * self.dt_scale).max(1.0)
    }

    /// Clamps a preset machine size to this scale.
    pub fn clamp_nodes(&self, preset_nodes: usize) -> usize {
        preset_nodes.min(self.max_nodes)
    }
}

/// One entry of a grid's `systems` dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemRef {
    /// Preset name (resolved via `SystemPreset::by_name`), or `"-"` for
    /// probes that need no machine.
    pub preset: String,
    /// Override for the machine size (before `Scale::max_nodes`).
    pub nodes: Option<usize>,
    /// Display label; defaults to the preset name (plus `@nodes` when
    /// overridden) so two sizes of one machine stay distinct cells.
    pub label: String,
}

/// One grid block: the cross product of its dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid name (directory component of the per-cell CSV paths).
    pub name: String,
    /// Machines.
    pub systems: Vec<SystemRef>,
    /// Workload names (`"preset"` = the preset's paper workload, else a
    /// `power_workload::WorkloadSpec::by_name` name).
    pub workloads: Vec<String>,
    /// Meter-model names (`power_meter::device::MeterModel::by_name`).
    pub meters: Vec<String>,
    /// Probe names (`power_method::level::Methodology::by_name` names or
    /// the paper-artifact probes) — the only mandatory dimension.
    pub methodologies: Vec<String>,
    /// Window placements: `earliest` | `middle` | `latest` | `f:<0..=1>`.
    pub windows: Vec<String>,
}

/// One `expect` block: a repeatability gate over matching cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// Optional cell filters; an omitted field matches every cell.
    pub grid: Option<String>,
    /// System label filter.
    pub system: Option<String>,
    /// Workload filter.
    pub workload: Option<String>,
    /// Meter filter.
    pub meter: Option<String>,
    /// Methodology/probe filter.
    pub methodology: Option<String>,
    /// Window filter.
    pub window: Option<String>,
    /// Metric the gate applies to.
    pub metric: String,
    /// Absolute target: the cross-seed mean must lie within
    /// `value ± tol`.
    pub value: Option<f64>,
    /// Half-width of the `value` band (defaults to 0).
    pub tol: f64,
    /// Lower bound on the cross-seed mean.
    pub min: Option<f64>,
    /// Upper bound on the cross-seed mean.
    pub max: Option<f64>,
    /// Maximum allowed cross-seed spread (`max - min` over seeds).
    pub max_seed_delta: Option<f64>,
}

impl Expect {
    /// Human-readable description of the gate's constraint.
    pub fn constraint(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = self.value {
            parts.push(format!("mean == {v} ± {}", self.tol));
        }
        if let Some(v) = self.min {
            parts.push(format!("mean >= {v}"));
        }
        if let Some(v) = self.max {
            parts.push(format!("mean <= {v}"));
        }
        if let Some(v) = self.max_seed_delta {
            parts.push(format!("seed spread <= {v}"));
        }
        parts.join(", ")
    }
}

/// A parsed scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Campaign name (output directory component).
    pub name: String,
    /// Seeds, in execution/fold order.
    pub seeds: Vec<u64>,
    /// Scale knobs.
    pub scale: Scale,
    /// Grid blocks.
    pub grids: Vec<GridSpec>,
    /// Repeatability gates.
    pub expect: Vec<Expect>,
}

/// Why a scenario failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// Dotted path of the offending field (e.g. `grids[0].systems`).
    pub field: String,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(field: impl Into<String>, reason: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError {
        field: field.into(),
        reason: reason.into(),
    })
}

fn get_str(doc: &Json, field: &str) -> Result<String, ScenarioError> {
    match doc.get(field).and_then(Json::as_str) {
        Some(s) if !s.is_empty() => Ok(s.to_string()),
        _ => err(field, "required non-empty string"),
    }
}

fn opt_str(doc: &Json, field: &str) -> Option<String> {
    doc.get(field).and_then(Json::as_str).map(str::to_string)
}

fn opt_f64(doc: &Json, field: &str, path: &str) -> Result<Option<f64>, ScenarioError> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => err(format!("{path}.{field}"), "must be a finite number"),
        },
    }
}

fn opt_usize(doc: &Json, field: &str, path: &str) -> Result<Option<usize>, ScenarioError> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(x) => Ok(Some(x as usize)),
            None => err(format!("{path}.{field}"), "must be a non-negative integer"),
        },
    }
}

fn parse_seeds(doc: &Json) -> Result<Vec<u64>, ScenarioError> {
    let seeds = match doc.get("seeds") {
        None => return err("seeds", "required: an array of seeds or {base, count}"),
        Some(s) => s,
    };
    if let Some(arr) = seeds.as_array() {
        if arr.is_empty() {
            return err("seeds", "at least one seed is required");
        }
        let mut out = Vec::with_capacity(arr.len());
        for (i, v) in arr.iter().enumerate() {
            match v.as_u64() {
                Some(s) => out.push(s),
                None => return err(format!("seeds[{i}]"), "must be a non-negative integer"),
            }
        }
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != out.len() {
            return err("seeds", "seeds must be distinct");
        }
        return Ok(out);
    }
    let base = seeds
        .get("base")
        .and_then(Json::as_u64)
        .ok_or(ScenarioError {
            field: "seeds.base".into(),
            reason: "required non-negative integer".into(),
        })?;
    let count = seeds
        .get("count")
        .and_then(Json::as_u64)
        .ok_or(ScenarioError {
            field: "seeds.count".into(),
            reason: "required positive integer".into(),
        })?;
    if count == 0 {
        return err("seeds.count", "at least one seed is required");
    }
    Ok((0..count).map(|k| base + k).collect())
}

fn parse_scale(doc: &Json) -> Result<Scale, ScenarioError> {
    let mut scale = Scale::default();
    let Some(s) = doc.get("scale") else {
        return Ok(scale);
    };
    if let Some(v) = opt_usize(s, "max_nodes", "scale")? {
        if v == 0 {
            return err("scale.max_nodes", "must be positive");
        }
        scale.max_nodes = v;
    }
    if let Some(v) = opt_f64(s, "dt_scale", "scale")? {
        if v <= 0.0 {
            return err("scale.dt_scale", "must be positive");
        }
        scale.dt_scale = v;
    }
    if let Some(v) = opt_usize(s, "placements", "scale")? {
        if v < 2 {
            return err("scale.placements", "at least two placements are required");
        }
        scale.placements = v;
    }
    if let Some(v) = opt_usize(s, "bootstrap_reps", "scale")? {
        if v == 0 {
            return err("scale.bootstrap_reps", "must be positive");
        }
        scale.bootstrap_reps = v;
    }
    if let Some(v) = opt_usize(s, "bootstrap_population", "scale")? {
        if v < 50 {
            return err("scale.bootstrap_population", "must be at least 50");
        }
        scale.bootstrap_population = v;
    }
    Ok(scale)
}

fn parse_system(v: &Json, path: &str) -> Result<SystemRef, ScenarioError> {
    if let Some(s) = v.as_str() {
        if s.is_empty() {
            return err(path, "system name must be non-empty");
        }
        return Ok(SystemRef {
            preset: s.to_string(),
            nodes: None,
            label: s.to_string(),
        });
    }
    let preset = match v.get("preset").and_then(Json::as_str) {
        Some(p) if !p.is_empty() => p.to_string(),
        _ => return err(format!("{path}.preset"), "required non-empty string"),
    };
    let nodes = opt_usize(v, "nodes", path)?;
    if nodes == Some(0) {
        return err(format!("{path}.nodes"), "must be positive");
    }
    let label = match v.get("label").and_then(Json::as_str) {
        Some(l) => l.to_string(),
        None => match nodes {
            Some(n) => format!("{preset}@{n}"),
            None => preset.clone(),
        },
    };
    Ok(SystemRef {
        preset,
        nodes,
        label,
    })
}

fn parse_string_dim(
    grid: &Json,
    field: &str,
    path: &str,
    default: &str,
) -> Result<Vec<String>, ScenarioError> {
    match grid.get(field) {
        None => Ok(vec![default.to_string()]),
        Some(v) => {
            let arr = v.as_array().ok_or(ScenarioError {
                field: format!("{path}.{field}"),
                reason: "must be an array of strings".into(),
            })?;
            if arr.is_empty() {
                return err(format!("{path}.{field}"), "must be non-empty");
            }
            let mut out = Vec::with_capacity(arr.len());
            for (i, e) in arr.iter().enumerate() {
                match e.as_str() {
                    Some(s) if !s.is_empty() => out.push(s.to_string()),
                    _ => return err(format!("{path}.{field}[{i}]"), "must be a non-empty string"),
                }
            }
            Ok(out)
        }
    }
}

fn parse_grid(v: &Json, idx: usize) -> Result<GridSpec, ScenarioError> {
    let path = format!("grids[{idx}]");
    let name = match v.get("name").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => n.to_string(),
        _ => return err(format!("{path}.name"), "required non-empty string"),
    };
    let systems = match v.get("systems") {
        None => vec![SystemRef {
            preset: "-".into(),
            nodes: None,
            label: "-".into(),
        }],
        Some(s) => {
            let arr = s.as_array().ok_or(ScenarioError {
                field: format!("{path}.systems"),
                reason: "must be an array".into(),
            })?;
            if arr.is_empty() {
                return err(format!("{path}.systems"), "must be non-empty");
            }
            arr.iter()
                .enumerate()
                .map(|(i, e)| parse_system(e, &format!("{path}.systems[{i}]")))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let grid = GridSpec {
        name,
        systems,
        workloads: parse_string_dim(v, "workloads", &path, "preset")?,
        meters: parse_string_dim(v, "meters", &path, "pdu")?,
        methodologies: match v.get("methodologies") {
            None => return err(format!("{path}.methodologies"), "required dimension"),
            Some(_) => parse_string_dim(v, "methodologies", &path, "")?,
        },
        windows: parse_string_dim(v, "windows", &path, "middle")?,
    };
    let mut labels: Vec<&str> = grid.systems.iter().map(|s| s.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    if labels.len() != grid.systems.len() {
        return err(format!("{path}.systems"), "system labels must be distinct");
    }
    for (field, dim) in [
        ("workloads", &grid.workloads),
        ("meters", &grid.meters),
        ("methodologies", &grid.methodologies),
        ("windows", &grid.windows),
    ] {
        let mut names: Vec<&str> = dim.iter().map(String::as_str).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != dim.len() {
            return err(format!("{path}.{field}"), "entries must be distinct");
        }
    }
    Ok(grid)
}

fn parse_expect(v: &Json, idx: usize) -> Result<Expect, ScenarioError> {
    let path = format!("expect[{idx}]");
    let metric = match v.get("metric").and_then(Json::as_str) {
        Some(m) if !m.is_empty() => m.to_string(),
        _ => return err(format!("{path}.metric"), "required non-empty string"),
    };
    let e = Expect {
        grid: opt_str(v, "grid"),
        system: opt_str(v, "system"),
        workload: opt_str(v, "workload"),
        meter: opt_str(v, "meter"),
        methodology: opt_str(v, "methodology"),
        window: opt_str(v, "window"),
        metric,
        value: opt_f64(v, "value", &path)?,
        tol: opt_f64(v, "tol", &path)?.unwrap_or(0.0),
        min: opt_f64(v, "min", &path)?,
        max: opt_f64(v, "max", &path)?,
        max_seed_delta: opt_f64(v, "max_seed_delta", &path)?,
    };
    if e.tol < 0.0 {
        return err(format!("{path}.tol"), "must be non-negative");
    }
    if let Some(d) = e.max_seed_delta {
        if d < 0.0 {
            return err(format!("{path}.max_seed_delta"), "must be non-negative");
        }
    }
    if e.value.is_none() && e.min.is_none() && e.max.is_none() && e.max_seed_delta.is_none() {
        return err(
            path,
            "at least one of value, min, max, max_seed_delta is required",
        );
    }
    if let (Some(lo), Some(hi)) = (e.min, e.max) {
        if lo > hi {
            return err(format!("{path}.min"), "min must not exceed max");
        }
    }
    Ok(e)
}

impl Scenario {
    /// Parses a scenario document from JSON text.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = Json::parse(text).map_err(|e| ScenarioError {
            field: "<document>".into(),
            reason: e.to_string(),
        })?;
        let name = get_str(&doc, "name")?;
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return err(
                "name",
                "must contain only ASCII alphanumerics, '-' and '_' (it names a directory)",
            );
        }
        let seeds = parse_seeds(&doc)?;
        let scale = parse_scale(&doc)?;
        let grids_json = match doc.get("grids") {
            Some(g) => g.as_array().map(<[Json]>::to_vec).ok_or(ScenarioError {
                field: "grids".into(),
                reason: "must be an array".into(),
            })?,
            None => match doc.get("grid") {
                Some(g) => vec![g.clone()],
                None => return err("grids", "required: an array of grid blocks (or `grid`)"),
            },
        };
        if grids_json.is_empty() {
            return err("grids", "at least one grid is required");
        }
        let grids = grids_json
            .iter()
            .enumerate()
            .map(|(i, g)| parse_grid(g, i))
            .collect::<Result<Vec<_>, _>>()?;
        let mut names: Vec<&str> = grids.iter().map(|g| g.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != grids.len() {
            return err("grids", "grid names must be distinct");
        }
        let expect = match doc.get("expect") {
            None => Vec::new(),
            Some(e) => {
                let arr = e.as_array().ok_or(ScenarioError {
                    field: "expect".into(),
                    reason: "must be an array".into(),
                })?;
                arr.iter()
                    .enumerate()
                    .map(|(i, b)| parse_expect(b, i))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        Ok(Scenario {
            name,
            seeds,
            scale,
            grids,
            expect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[{"name":"g","methodologies":["t_vs_z"]}]}"#,
        )
        .unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.seeds, vec![1]);
        assert_eq!(s.scale, Scale::default());
        assert_eq!(s.grids.len(), 1);
        let g = &s.grids[0];
        assert_eq!(g.systems[0].label, "-");
        assert_eq!(g.workloads, vec!["preset"]);
        assert_eq!(g.meters, vec!["pdu"]);
        assert_eq!(g.windows, vec!["middle"]);
        assert!(s.expect.is_empty());
    }

    #[test]
    fn seed_range_expands() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":{"base":7,"count":3},
                "grids":[{"name":"g","methodologies":["t_vs_z"]}]}"#,
        )
        .unwrap();
        assert_eq!(s.seeds, vec![7, 8, 9]);
    }

    #[test]
    fn system_objects_and_labels() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[{"name":"g",
                "systems":["colosse", {"preset":"lrz","nodes":9216,"label":"LRZ-full"},
                           {"preset":"lrz","nodes":100}],
                "methodologies":["nodes"]}]}"#,
        )
        .unwrap();
        let g = &s.grids[0];
        assert_eq!(g.systems[0].label, "colosse");
        assert_eq!(g.systems[1].label, "LRZ-full");
        assert_eq!(g.systems[1].nodes, Some(9216));
        assert_eq!(g.systems[2].label, "lrz@100");
    }

    #[test]
    fn expect_blocks_parse() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":[1,2],"grids":[{"name":"g","methodologies":["nodes"]}],
                "expect":[
                  {"grid":"g","metric":"mean_w","value":210.0,"tol":5.0},
                  {"metric":"cv_pct","min":2.0,"max":3.0},
                  {"metric":"mean_w","max_seed_delta":1.0}
                ]}"#,
        )
        .unwrap();
        assert_eq!(s.expect.len(), 3);
        assert_eq!(s.expect[0].value, Some(210.0));
        assert_eq!(s.expect[0].tol, 5.0);
        assert_eq!(s.expect[1].min, Some(2.0));
        assert_eq!(s.expect[2].max_seed_delta, Some(1.0));
        assert!(s.expect[0].constraint().contains("±"));
    }

    #[test]
    fn rejects_malformed_scenarios() {
        // No constraint on the expect block.
        assert!(Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[{"name":"g","methodologies":["nodes"]}],
                "expect":[{"metric":"mean_w"}]}"#
        )
        .is_err());
        // Duplicate seeds.
        assert!(Scenario::parse(
            r#"{"name":"t","seeds":[1,1],"grids":[{"name":"g","methodologies":["nodes"]}]}"#
        )
        .is_err());
        // Missing methodologies.
        assert!(Scenario::parse(r#"{"name":"t","seeds":[1],"grids":[{"name":"g"}]}"#).is_err());
        // Duplicate dimension entries.
        assert!(Scenario::parse(
            r#"{"name":"t","seeds":[1],
                "grids":[{"name":"g","methodologies":["nodes","nodes"]}]}"#
        )
        .is_err());
        // Directory-hostile campaign name.
        assert!(Scenario::parse(
            r#"{"name":"../t","seeds":[1],"grids":[{"name":"g","methodologies":["nodes"]}]}"#
        )
        .is_err());
        // Duplicate grid names.
        assert!(Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[
                {"name":"g","methodologies":["nodes"]},
                {"name":"g","methodologies":["trace"]}]}"#
        )
        .is_err());
        // min > max.
        assert!(Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[{"name":"g","methodologies":["nodes"]}],
                "expect":[{"metric":"m","min":2.0,"max":1.0}]}"#
        )
        .is_err());
    }

    #[test]
    fn single_grid_alias() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":[1],"grid":{"name":"g","methodologies":["t_vs_z"]}}"#,
        )
        .unwrap();
        assert_eq!(s.grids.len(), 1);
    }
}
