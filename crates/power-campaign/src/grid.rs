//! Grid expansion: scenario grids → the flat, ordered list of cells.

use crate::scenario::{GridSpec, Scenario, SystemRef};
use power_stats::hash::fnv1a;

/// One point of a grid's cross product. A cell is run once per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Grid the cell came from.
    pub grid: String,
    /// System dimension entry.
    pub system: SystemRef,
    /// Workload name (`"preset"` or a `WorkloadSpec::by_name` name).
    pub workload: String,
    /// Meter-model name.
    pub meter: String,
    /// Probe name.
    pub methodology: String,
    /// Window-placement name.
    pub window: String,
}

impl Cell {
    /// Stable identity string (also the CSV stem): every dimension,
    /// joined. Distinct cells have distinct ids because expansion
    /// enforces distinct dimension entries.
    pub fn id(&self) -> String {
        format!(
            "{}/{}__{}__{}__{}__{}",
            self.grid, self.system.label, self.workload, self.meter, self.methodology, self.window
        )
    }

    /// Filesystem-safe stem for the per-cell CSV file (within the grid's
    /// directory): dimension labels with non-portable characters mapped
    /// to `_`.
    pub fn file_stem(&self) -> String {
        let clean = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
        };
        format!(
            "{}__{}__{}__{}__{}",
            clean(&self.system.label),
            clean(&self.workload),
            clean(&self.meter),
            clean(&self.methodology),
            clean(&self.window)
        )
    }

    /// A 64-bit FNV-1a hash of the cell identity — the per-cell component
    /// of every probe's RNG stream, so streams follow the cell, not the
    /// scheduling order.
    pub fn stream_tag(&self) -> u64 {
        fnv1a(self.id().as_bytes())
    }

    /// Hash of the cell's *simulation* identity only (system + workload).
    /// Probes derive simulation seeds from this instead of
    /// [`Cell::stream_tag`] so cells that differ only in probe, meter or
    /// window (e.g. `trace` and `gaming` over one system) request
    /// identical sweeps and share a single [`power_sim::store::TraceStore`]
    /// entry.
    pub fn sim_tag(&self) -> u64 {
        fnv1a(format!("{}\u{1f}{}", self.system.label, self.workload).as_bytes())
    }
}

/// Expands one grid block into its full cross product, in deterministic
/// dimension-major order (systems outermost, windows innermost).
pub fn expand_grid(grid: &GridSpec) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(
        grid.systems.len()
            * grid.workloads.len()
            * grid.meters.len()
            * grid.methodologies.len()
            * grid.windows.len(),
    );
    for system in &grid.systems {
        for workload in &grid.workloads {
            for meter in &grid.meters {
                for methodology in &grid.methodologies {
                    for window in &grid.windows {
                        cells.push(Cell {
                            grid: grid.name.clone(),
                            system: system.clone(),
                            workload: workload.clone(),
                            meter: meter.clone(),
                            methodology: methodology.clone(),
                            window: window.clone(),
                        });
                    }
                }
            }
        }
    }
    cells
}

/// Expands every grid of a scenario, in scenario order.
pub fn expand(scenario: &Scenario) -> Vec<Cell> {
    scenario.grids.iter().flat_map(expand_grid).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use proptest::prelude::*;

    #[test]
    fn expansion_is_the_full_cross_product() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[{"name":"g",
                "systems":["a","b"],"workloads":["preset"],
                "meters":["pdu","ideal"],"methodologies":["level1","trace"],
                "windows":["middle","latest"]}]}"#,
        )
        .unwrap();
        let cells = expand(&s);
        // 2 systems × 1 workload × 2 meters × 2 methodologies × 2 windows.
        assert_eq!(cells.len(), 16);
        // Innermost dimension varies fastest.
        assert_eq!(cells[0].window, "middle");
        assert_eq!(cells[1].window, "latest");
        assert_eq!(cells[0].methodology, "level1");
        assert_eq!(cells[2].methodology, "trace");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Expansion covers the whole cross product exactly once:
        /// duplicate-free ids and the product cardinality, for any
        /// dimension sizes.
        #[test]
        fn expansion_is_duplicate_free_and_complete(
            n_sys in 1usize..4,
            n_wl in 1usize..3,
            n_meter in 1usize..3,
            n_meth in 1usize..4,
            n_win in 1usize..3,
        ) {
            let dim = |prefix: &str, n: usize| -> String {
                let names: Vec<String> =
                    (0..n).map(|i| format!("\"{prefix}{i}\"")).collect();
                names.join(",")
            };
            let text = format!(
                r#"{{"name":"t","seeds":[1],"grids":[{{"name":"g",
                    "systems":[{}],"workloads":[{}],"meters":[{}],
                    "methodologies":[{}],"windows":[{}]}}]}}"#,
                dim("s", n_sys),
                dim("w", n_wl),
                dim("m", n_meter),
                dim("p", n_meth),
                dim("v", n_win),
            );
            let scenario = Scenario::parse(&text).unwrap();
            let cells = expand(&scenario);
            let want = n_sys * n_wl * n_meter * n_meth * n_win;
            prop_assert_eq!(cells.len(), want);
            let mut ids: Vec<String> = cells.iter().map(Cell::id).collect();
            ids.sort();
            ids.dedup();
            prop_assert_eq!(ids.len(), want, "duplicate cell ids");
            // Every combination appears.
            for si in 0..n_sys {
                for wi in 0..n_wl {
                    for mi in 0..n_meter {
                        for pi in 0..n_meth {
                            for vi in 0..n_win {
                                let found = cells.iter().any(|c| {
                                    c.system.label == format!("s{si}")
                                        && c.workload == format!("w{wi}")
                                        && c.meter == format!("m{mi}")
                                        && c.methodology == format!("p{pi}")
                                        && c.window == format!("v{vi}")
                                });
                                prop_assert!(found, "missing combination");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stream_tags_differ_between_cells() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[{"name":"g",
                "systems":["a","b"],"methodologies":["level1","level2"]}]}"#,
        )
        .unwrap();
        let cells = expand(&s);
        let mut tags: Vec<u64> = cells.iter().map(Cell::stream_tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), cells.len());
    }

    #[test]
    fn file_stems_are_portable() {
        let s = Scenario::parse(
            r#"{"name":"t","seeds":[1],"grids":[{"name":"g",
                "systems":[{"preset":"cea_fat","label":"CEA (Fat)"}],
                "methodologies":["nodes"],"windows":["f:0.25"]}]}"#,
        )
        .unwrap();
        let stem = expand(&s)[0].file_stem();
        assert!(
            stem.chars()
                .all(|c| c.is_ascii_alphanumeric() || "-._".contains(c)),
            "{stem}"
        );
    }
}
