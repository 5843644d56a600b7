//! Shared server state: configuration, system catalog, trace store,
//! metrics.
//!
//! One [`ServeState`] is shared (via `Arc`) by every worker thread. All
//! interior mutability lives in the [`TraceStore`], the fleet, the
//! leaderboard slot and [`Metrics`] — the catalog and configuration are
//! immutable after construction, so handlers never contend except on the
//! caches they are supposed to share.
//!
//! With [`ServeConfig::store_dir`] set, the trace store gains a disk
//! tier: a crash-safe `power-archive` store that survives restarts, so a
//! sweep computed by one server process is served from disk — not
//! recomputed — by the next.

use crate::http::Response;
use crate::metrics::Metrics;
use power_archive::{Archive, FleetWal, ProductsArchive};
use power_fleet::{Fleet, FleetConfig};
use power_sim::store::{ArchiveTier, TraceStore};
use power_sim::systems::SystemPreset;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Resource and simulation-shape limits for the service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// LRU cap on cached sweeps (entries). `None` disables the bound.
    pub store_capacity: Option<usize>,
    /// Largest machine a single request may simulate. Requests naming a
    /// preset larger than this must scale it down via `nodes`.
    pub max_nodes: usize,
    /// Cap on `nodes * samples` for one sweep, bounding per-request
    /// memory and CPU.
    pub max_cells: u64,
    /// Worker threads each simulation sweep may use. Kept small by
    /// default — request-level parallelism comes from the server's worker
    /// pool, not from each sweep fanning out.
    pub sim_threads: usize,
    /// Per-node relative noise sigma for served simulations.
    pub noise_sigma: f64,
    /// Machine-wide relative noise sigma for served simulations.
    pub common_noise_sigma: f64,
    /// Directory for the on-disk sweep archive. `None` keeps the store
    /// memory-only (sweeps die with the process).
    pub store_dir: Option<PathBuf>,
    /// Pre-populate the memory tier from the archive at startup instead
    /// of faulting sweeps in lazily on first request.
    pub warm_on_start: bool,
    /// Ingest-plane shards for the campaign fleet.
    pub fleet_shards: usize,
    /// Cap on concurrently-registered fleet campaigns.
    pub max_campaigns: u64,
    /// Expose the `/debug/*` fault-injection routes (`/debug/panic`,
    /// `/debug/sleep`). Off by default; tests turn it on to exercise
    /// panic containment and worker-pool saturation deterministically.
    pub debug_routes: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store_capacity: Some(256),
            max_nodes: 4096,
            max_cells: 16_000_000,
            sim_threads: 2,
            noise_sigma: 0.01,
            common_noise_sigma: 0.004,
            store_dir: None,
            warm_on_start: true,
            fleet_shards: 16,
            max_campaigns: 10_000,
            debug_routes: false,
        }
    }
}

/// Immutable-after-construction state shared by all workers.
pub struct ServeState {
    /// Service limits.
    pub config: ServeConfig,
    /// Every queryable system preset.
    pub catalog: Vec<SystemPreset>,
    /// The sweep cache all simulation-backed endpoints share.
    pub store: TraceStore,
    /// The disk tier beneath [`ServeState::store`], when configured.
    pub archive: Option<Arc<ProductsArchive>>,
    /// Sweeps loaded from the archive into the memory tier at startup.
    pub warmed: usize,
    /// The campaign fleet behind `/v1/campaigns` and `/v1/leaderboard`.
    /// With a store directory, it is journalled to `<dir>/fleet.wal` and
    /// resumes every in-flight campaign at its watermark on restart.
    pub fleet: Arc<Fleet>,
    /// Request metrics.
    pub metrics: Metrics,
    /// Server start time, for `/healthz` uptime.
    pub started: Instant,
    /// The last `/v1/leaderboard` response a worker ranked, which the
    /// reactor replays while the fleet has not changed.
    pub(crate) leaderboard: LeaderboardSlot,
}

/// One `/v1/leaderboard` response, stamped with the
/// [`Fleet::version`] its worker read before ranking and the `limit` it
/// ranked for. The stamp makes the slot self-invalidating: once the
/// fleet changes, the current version no longer matches and every
/// lookup misses until a worker ranks again.
#[derive(Debug, Default)]
pub(crate) struct LeaderboardSlot(Mutex<Option<(u64, usize, Response)>>);

impl LeaderboardSlot {
    /// The stored response, if it was ranked at `version` for `limit`. A
    /// poisoned slot reads as a miss.
    pub(crate) fn get(&self, version: u64, limit: usize) -> Option<Response> {
        let slot = self.0.lock().ok()?;
        match &*slot {
            Some((v, l, response)) if *v == version && *l == limit => Some(response.clone()),
            _ => None,
        }
    }

    /// Stores `response`, ranked at `version` for `limit`, unless the
    /// slot already holds a newer version: a worker that ranked before
    /// a change never overwrites the answer of one that ranked after it.
    pub(crate) fn store(&self, version: u64, limit: usize, response: &Response) {
        let Ok(mut slot) = self.0.lock() else {
            return;
        };
        if slot.as_ref().is_some_and(|(v, _, _)| *v > version) {
            return;
        }
        *slot = Some((version, limit, response.clone()));
    }
}

impl ServeState {
    /// Builds the state: the full preset catalog (the four Figure 1 /
    /// Table 2 trace systems plus the six Table 3/4 variability systems)
    /// and a trace store bounded per `config`. With
    /// [`ServeConfig::store_dir`] set, opens (or creates) the on-disk
    /// archive there — recovering from any interrupted writes — and
    /// attaches it as the store's disk tier.
    pub fn try_new(config: ServeConfig) -> io::Result<Self> {
        let mut catalog = SystemPreset::trace_presets();
        catalog.extend(SystemPreset::variability_presets());
        let mut store = match config.store_capacity {
            Some(cap) => TraceStore::bounded(cap),
            None => TraceStore::new(),
        };
        let mut archive = None;
        let mut warmed = 0;
        let fleet_cfg = FleetConfig {
            shards: config.fleet_shards,
            max_campaigns: config.max_campaigns,
        };
        let fleet;
        if let Some(dir) = &config.store_dir {
            let products = Arc::new(ProductsArchive::new(Archive::open(dir)?));
            store = store.with_archive(Arc::clone(&products) as Arc<dyn ArchiveTier>);
            if config.warm_on_start {
                warmed = store.warm_from_archive();
            }
            archive = Some(products);
            // The fleet journal shares the archive directory; the
            // archive only claims MANIFEST.log and *.seg names, so the
            // WAL rides alongside without interfering with recovery.
            let wal = FleetWal::open(dir.join("fleet.wal"))?;
            fleet = Fleet::open(fleet_cfg, Box::new(wal))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        } else {
            fleet = Fleet::new(fleet_cfg)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
        Ok(ServeState {
            config,
            catalog,
            store,
            archive,
            warmed,
            fleet: Arc::new(fleet),
            metrics: Metrics::new(),
            started: Instant::now(),
            leaderboard: LeaderboardSlot::default(),
        })
    }

    /// [`ServeState::try_new`] for configurations without a disk tier,
    /// which cannot fail. Panics if `store_dir` is set and unopenable —
    /// callers wiring an archive should use `try_new`.
    pub fn new(config: ServeConfig) -> Self {
        ServeState::try_new(config).expect("archive store failed to open")
    }

    /// Looks up a preset by name (ASCII case-insensitive).
    pub fn preset(&self, name: &str) -> Option<&SystemPreset> {
        self.catalog
            .iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }
}

impl Default for ServeState {
    fn default() -> Self {
        ServeState::new(ServeConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_holds_all_ten_paper_systems() {
        let state = ServeState::default();
        assert_eq!(state.catalog.len(), 10);
        assert!(state.preset("L-CSC").is_some());
        assert!(state.preset("l-csc").is_some(), "lookup ignores case");
        assert!(state.preset("Titan").is_some());
        assert!(state.preset("HAL 9000").is_none());
    }

    #[test]
    fn store_capacity_follows_config() {
        let state = ServeState::default();
        assert_eq!(state.store.capacity(), Some(256));
        let unbounded = ServeState::new(ServeConfig {
            store_capacity: None,
            ..ServeConfig::default()
        });
        assert_eq!(unbounded.store.capacity(), None);
    }

    #[test]
    fn store_dir_attaches_the_disk_tier() {
        let dir = std::env::temp_dir().join(format!("power-serve-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServeState::try_new(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        assert!(state.store.has_archive());
        assert_eq!(state.warmed, 0, "fresh archive has nothing to warm");
        assert_eq!(state.archive.as_ref().unwrap().stats().entries, 0);
        let plain = ServeState::default();
        assert!(!plain.store.has_archive());
        assert!(plain.archive.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leaderboard_slot_keeps_the_newest_version() {
        let slot = LeaderboardSlot::default();
        let body = |text: &str| Response::text(200, text);
        assert_eq!(slot.get(0, 10), None, "an empty slot misses");
        slot.store(5, 10, &body("v5"));
        assert_eq!(slot.get(5, 10), Some(body("v5")));
        assert_eq!(slot.get(5, 1), None, "another limit misses");
        assert_eq!(slot.get(6, 10), None, "a newer fleet misses");
        assert_eq!(slot.get(4, 10), None, "an older fleet misses");
        // A worker that read an older version never replaces the slot,
        // whatever its limit.
        slot.store(4, 10, &body("v4"));
        slot.store(4, 1, &body("v4 limit 1"));
        assert_eq!(slot.get(5, 10), Some(body("v5")));
        assert_eq!(slot.get(4, 10), None);
        assert_eq!(slot.get(4, 1), None);
        // The same version replaces it (another limit), a newer one too.
        slot.store(5, 1, &body("v5 limit 1"));
        assert_eq!(slot.get(5, 1), Some(body("v5 limit 1")));
        assert_eq!(slot.get(5, 10), None, "one slot holds one limit");
        slot.store(7, 10, &body("v7"));
        assert_eq!(slot.get(7, 10), Some(body("v7")));

        // A poisoned slot misses and ignores stores instead of panicking.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = slot.0.lock().unwrap();
            panic!("poison the slot");
        }));
        assert!(poisoned.is_err());
        assert_eq!(slot.get(7, 10), None);
        slot.store(8, 10, &body("v8"));
        assert_eq!(slot.get(8, 10), None);
    }
}
