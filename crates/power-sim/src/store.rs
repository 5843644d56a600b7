//! Memoized simulation products.
//!
//! Every experiment in the reproduction pipeline ultimately asks the engine
//! for one of three products of the *same* underlying sweep: a system
//! trace, per-node window averages, or a metered-subset trace. Before this
//! module existed each call site re-ran the full node loop — the gaming
//! interval scan, `power-method::measure`, the power-meter campaigns and
//! the `power-repro` drivers all redid identical work.
//!
//! [`TraceStore`] closes that gap: it memoizes [`RunProducts`] behind a
//! [`simulation_key`] that fingerprints the complete simulation identity
//! structurally — every type in it feeds its fields into one FNV-1a hash
//! through a `fingerprint` method that destructures the type without
//! `..`, so a field added later breaks the build until it is hashed.
//! Strings and `Vec`s are length-prefixed, enum variants tagged, and
//! `f64`s hashed by bit pattern. The key covers:
//!
//! * the machine (the full [`ClusterSpec`]: name, node count, node
//!   composition, variability model, governor, fan policy, ambient
//!   gradient, build seed);
//! * the workload ([`Workload::fingerprint`]: a type tag plus every
//!   parameter its utilization and flop count read, so two HPL runs that
//!   differ only in one envelope parameter key apart);
//! * the load-balance policy;
//! * the engine configuration *except* `threads`, which leaves every
//!   product bit-identical (system traces add per-block partials in block
//!   order, see [`crate::engine`]).
//!
//! The key is a function of the spec, not of the built machine, so a
//! caller holding only a preset can compute it without running
//! [`crate::Cluster::build`] and answer warm window queries through
//! [`TraceStore::window_aggregate_keyed`]. Archive tiers file entries
//! under this key and record [`SIMULATION_KEY_EPOCH`] beside them. Any
//! change to what the key or [`request_fingerprint`] hashes bumps the
//! epoch, and an archive written under another epoch is retired whole
//! when it is opened: its entries sit under keys nothing computes.
//!
//! Within one key, a cached entry serves any request it subsumes: a
//! system-only request is satisfied by any full-sweep entry, repeated
//! window averages hit as long as the window matches, and subset requests
//! hit on an identical node set. Entries are `Arc`-shared, so serving a
//! hit costs one atomic increment.
//!
//! The key deliberately ignores anything about *how* the products will be
//! queried afterwards: O(1) window queries on the returned traces (see
//! [`crate::trace`]) make one cached sweep answer arbitrarily many
//! downstream window questions.
//!
//! # Serving-layer extensions
//!
//! Long-running servers (see the `power-serve` crate) put two additional
//! demands on the store that batch drivers never did:
//!
//! * **Single-flight coalescing** — N concurrent requests for the same
//!   uncached sweep must trigger exactly one simulation. The first caller
//!   becomes the *leader* and simulates; the rest wait on a per-request
//!   flight and are then served from cache (counted in
//!   [`CacheStats::coalesced`]). If the leader fails, a waiter takes over,
//!   so errors never strand followers.
//! * **An LRU capacity bound** — [`TraceStore::bounded`] caps the number
//!   of cached sweeps; inserting past the cap evicts the
//!   least-recently-used entry (counted in [`CacheStats::evictions`]).
//!   Eviction only ever forgets — a later request re-simulates and gets
//!   identical results — so subsumption-derived correctness is unaffected.
//!   The default remains unbounded, preserving batch behavior.
//! * **An optional disk tier** — [`TraceStore::with_archive`] attaches an
//!   [`ArchiveTier`] beneath the memory cache, making the lookup order
//!   memory LRU → disk archive → recompute. Freshly simulated products
//!   are written through to the archive ([`CacheStats::archive_writes`]);
//!   requests the memory tier cannot answer are tried against the archive
//!   before simulating ([`CacheStats::archive_hits`], a subset of `hits`),
//!   and [`TraceStore::warm_from_archive`] pre-populates the memory tier
//!   at startup. The tier is strictly opt-in: plain stores behave exactly
//!   as before, and archived products round-trip through a fixed-point
//!   quantization, so a tiered store may answer within one quantum
//!   (~1 mW) of a fresh simulation rather than bit-identically.

use crate::cluster::ClusterSpec;
use crate::engine::{MeterScope, ProductRequest, RunProducts, SimulationConfig, Simulator};
use crate::trace::err_degenerate_window;
use crate::Result;
use power_stats::hash::Fnv1a;
use power_workload::{LoadBalance, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Generation of the simulation model and of the hashing scheme behind
/// [`simulation_key`] and [`request_fingerprint`]. Archive tiers retire
/// stores written under any other epoch, and live-campaign journals
/// refuse to resume across it. It is also `power_campaign::MODEL_REV`,
/// the revision of the published numbers (`model_rev` in `summary.json`),
/// so bump it with any change to a published number or to what the key
/// or request fingerprint hashes. Epochs: 1 hashed `Debug` renderings; 2
/// is the structural key; 3 has ziggurat engine noise, table-dephased HPL
/// ripple, block-ordered system sums and closed-form meter windows; 4 (a
/// coverage-statistic revision) is unused; 5 draws every normal variate
/// with the ziggurat, walks meter instants by index in runs, and solves
/// the variability presets' spread on their realized draws.
pub const SIMULATION_KEY_EPOCH: u32 = 5;

/// Fingerprints a simulation identity from its parts — everything that
/// can change a sweep's results (see the module docs for what is
/// included). The router resolves it once per request straight from a
/// preset, without building the machine; [`TraceStore`] derives the same
/// value from a built [`Simulator`], so the two always agree.
pub fn simulation_key(
    spec: &ClusterSpec,
    workload: &dyn Workload,
    balance: LoadBalance,
    config: &SimulationConfig,
) -> u64 {
    let mut h = Fnv1a::default();
    spec.fingerprint(&mut h);
    workload.fingerprint(&mut h);
    balance.fingerprint(&mut h);
    let SimulationConfig {
        dt,
        noise_sigma,
        common_noise_sigma,
        seed,
        // Deliberately excluded: no product depends on it.
        threads: _,
    } = *config;
    h.write_f64(dt);
    h.write_f64(noise_sigma);
    h.write_f64(common_noise_sigma);
    h.write_u64(seed);
    h.finish()
}

/// [`simulation_key`] of a built simulator's parts.
fn sim_key(sim: &Simulator<'_>) -> u64 {
    simulation_key(
        sim.cluster().spec(),
        sim.workload(),
        sim.balance(),
        sim.config(),
    )
}

/// Whether a cached entry answering `have` can serve a request for `want`.
fn subsumes(have: &ProductRequest, want: &ProductRequest) -> bool {
    if want.system && !have.system {
        return false;
    }
    if let Some(w) = want.averages_window {
        if have.averages_window != Some(w) {
            return false;
        }
    }
    if let Some(s) = &want.subset {
        if have.subset.as_ref() != Some(s) {
            return false;
        }
    }
    true
}

/// A window aggregate answered without materializing a full
/// [`RunProducts`] — the result of [`TraceStore::window_aggregate`],
/// whether it came from a cached trace's prefix sums or from the archive
/// tier's pruned scan over compressed block summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowAggregate {
    /// Average power over the (clipped) window, watts.
    pub average_w: f64,
    /// Energy over the (clipped) window, joules.
    pub energy_j: f64,
    /// Time of the trace's first sample, seconds.
    pub t0: f64,
    /// Sample interval, seconds.
    pub dt: f64,
    /// Samples in the trace the window was evaluated against.
    pub steps: u64,
    /// Compressed blocks in the series (0 when answered from memory).
    pub blocks_total: u64,
    /// Boundary blocks the pruned path had to decode.
    pub blocks_decoded: u64,
    /// Blocks answered from their header summary or never read.
    pub blocks_skipped: u64,
}

impl WindowAggregate {
    /// End time of the underlying trace (one interval past the last
    /// sample), matching [`crate::SystemTrace::t_end`].
    pub fn t_end(&self) -> f64 {
        self.t0 + self.steps as f64 * self.dt
    }
}

/// A second storage tier beneath the in-memory cache: typically an
/// on-disk archive (see the `power-archive` crate), but any durable
/// keyed store works.
///
/// Implementations are best-effort: `fetch` returns `None` (and `store`
/// silently drops the write) on any internal failure, so a degraded
/// archive degrades the store to recompute-on-miss, never to an error.
/// Both methods are called outside the store's entry lock and must be
/// safe to call concurrently.
pub trait ArchiveTier: Send + Sync {
    /// Return archived products answering `request` under `key`, if the
    /// tier holds them (exactly or derivably).
    fn fetch(&self, key: u64, request: &ProductRequest) -> Option<RunProducts>;

    /// Persist freshly simulated products for `request` under `key`.
    fn store(&self, key: u64, request: &ProductRequest, products: &RunProducts);

    /// Decode every archived product for warm-on-startup, as `(key,
    /// products)` pairs in unspecified order.
    fn warm(&self) -> Vec<(u64, RunProducts)>;

    /// Answer a `[from, to)` window aggregate for `key`'s system trace at
    /// `scope` straight off archived block summaries, decoding at most
    /// the boundary blocks — without materializing the full products.
    ///
    /// `None` means the tier cannot answer (no archived series, or any
    /// internal failure — torn data degrades to the decoded path, never
    /// to an error). `Some(Err(_))` is a *semantic* verdict: the window
    /// is degenerate or does not overlap the archived trace, with the
    /// same error the in-memory trace methods return. The default
    /// implementation answers nothing.
    fn window_aggregate(
        &self,
        _key: u64,
        _scope: MeterScope,
        _from: f64,
        _to: f64,
    ) -> Option<Result<WindowAggregate>> {
        None
    }
}

/// Cache-effectiveness counters for a [`TraceStore`], as reported by
/// [`TraceStore::stats`]. Live drivers and measurement campaigns surface
/// these so "how much simulation did the cache save" is a first-class
/// output of every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from cache (including derived hits).
    pub hits: u64,
    /// Requests served by deriving from a cached full sweep's retained
    /// series instead of re-simulating (a subset of `hits`).
    pub derived: u64,
    /// Requests that had to simulate.
    pub misses: u64,
    /// Requests that waited on an identical in-flight simulation instead
    /// of starting their own (a subset of `hits`).
    pub coalesced: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Requests served by decoding from the attached archive tier
    /// instead of re-simulating (a subset of `hits`).
    pub archive_hits: u64,
    /// Freshly simulated products written through to the archive tier.
    pub archive_writes: u64,
    /// Window aggregates answered by the archive tier's pruned scan over
    /// block summaries, without materializing products in the LRU.
    pub archive_pruned_queries: u64,
    /// Compressed blocks pruned-scan queries skipped (answered from the
    /// header summary or never read) instead of decoding.
    pub blocks_skipped: u64,
    /// Cached sweeps currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of requests served without simulating; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits ({} derived, {} coalesced, {} archive) / {} misses ({:.0}% hit rate, {} entries, {} evicted, {} archived, {} pruned / {} blocks skipped)",
            self.hits,
            self.derived,
            self.coalesced,
            self.archive_hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions,
            self.archive_writes,
            self.archive_pruned_queries,
            self.blocks_skipped
        )
    }
}

/// One cached sweep plus its recency stamp for LRU eviction.
struct Entry {
    key: u64,
    products: Arc<RunProducts>,
    last_used: u64,
}

/// A single in-flight simulation other callers can wait on.
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// Removes the leader's flight from the in-flight map and wakes waiters
/// when the leader is done — on success, error, and unwind alike, so a
/// failing leader can never strand its followers.
struct FlightGuard<'a> {
    store: &'a TraceStore,
    fingerprint: u64,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.store
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.fingerprint);
        self.flight.finish();
    }
}

/// Fingerprints a `(simulation key, product request)` pair — the identity
/// single-flight coalescing groups concurrent callers by, and the stable
/// per-blob identity an [`ArchiveTier`] stores entries under.
pub fn request_fingerprint(key: u64, request: &ProductRequest) -> u64 {
    let ProductRequest {
        system,
        averages_window,
        subset,
    } = request;
    let mut h = Fnv1a::default();
    h.write_u64(key);
    h.write(&[u8::from(*system)]);
    match averages_window {
        None => h.write(&[0]),
        Some((from, to)) => {
            h.write(&[1]);
            h.write_f64(*from);
            h.write_f64(*to);
        }
    }
    match subset {
        None => h.write(&[0]),
        Some(nodes) => {
            h.write(&[1]);
            h.write_u64(nodes.len() as u64);
            for &node in nodes {
                h.write_u64(node as u64);
            }
        }
    }
    h.finish()
}

/// A keyed cache of [`RunProducts`]; see the module docs.
#[derive(Default)]
pub struct TraceStore {
    entries: Mutex<Vec<Entry>>,
    /// Entry cap; `None` is unbounded (the batch-pipeline default).
    capacity: Option<usize>,
    /// Monotonic recency clock for LRU stamps.
    clock: AtomicU64,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    /// Optional disk tier; see [`ArchiveTier`] and the module docs.
    archive: Option<Arc<dyn ArchiveTier>>,
    hits: AtomicU64,
    derived: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    archive_hits: AtomicU64,
    archive_writes: AtomicU64,
    archive_pruned_queries: AtomicU64,
    blocks_skipped: AtomicU64,
}

impl TraceStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// An empty store holding at most `max_entries` cached sweeps,
    /// evicting least-recently-used entries past the cap. Long-running
    /// servers use this so the cache cannot grow without limit.
    pub fn bounded(max_entries: usize) -> Self {
        TraceStore {
            capacity: Some(max_entries.max(1)),
            ..TraceStore::default()
        }
    }

    /// The configured entry cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Attaches a disk tier beneath the memory cache; see the module
    /// docs for the resulting lookup order and counters.
    pub fn with_archive(mut self, archive: Arc<dyn ArchiveTier>) -> Self {
        self.archive = Some(archive);
        self
    }

    /// Whether a disk tier is attached.
    pub fn has_archive(&self) -> bool {
        self.archive.is_some()
    }

    /// Pre-populates the memory tier with every product the attached
    /// archive holds (respecting the LRU capacity bound) and returns how
    /// many entries were loaded. A no-op without an archive. Warm loads
    /// are not counted as hits — they happened before any request.
    pub fn warm_from_archive(&self) -> usize {
        let Some(archive) = &self.archive else {
            return 0;
        };
        let warmed = archive.warm();
        let count = warmed.len();
        for (key, products) in warmed {
            self.insert(key, Arc::new(products));
        }
        count
    }

    /// The process-wide shared store. Drivers and library call sites that
    /// want cross-experiment sharing should use this one; tests that need
    /// isolation should construct their own with [`TraceStore::new`].
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(TraceStore::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Exact-subsumption lookup, bumping the hit entry's recency.
    fn lookup(&self, key: u64, request: &ProductRequest) -> Option<Arc<RunProducts>> {
        let stamp = self.stamp();
        let mut entries = self.lock();
        entries
            .iter_mut()
            .find(|e| e.key == key && subsumes(e.products.request(), request))
            .map(|e| {
                e.last_used = stamp;
                Arc::clone(&e.products)
            })
    }

    /// Inserts `products` under `key`, evicting LRU entries past the cap.
    /// Must be called with fresh products only (never with an Arc already
    /// in the store).
    fn insert(&self, key: u64, products: Arc<RunProducts>) {
        let stamp = self.stamp();
        let mut entries = self.lock();
        entries.push(Entry {
            key,
            products,
            last_used: stamp,
        });
        if let Some(cap) = self.capacity {
            while entries.len() > cap {
                let oldest = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("non-empty over cap");
                entries.swap_remove(oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Returns the products for `request` under `sim`, simulating only on
    /// a cache miss.
    ///
    /// Validation always runs (a cached entry is never returned for a
    /// request the engine would reject), so error behaviour is identical
    /// with and without the store.
    ///
    /// Concurrent identical requests are coalesced: one caller simulates,
    /// the rest block until the sweep lands and are then served from
    /// cache.
    pub fn products(
        &self,
        sim: &Simulator<'_>,
        request: &ProductRequest,
    ) -> Result<Arc<RunProducts>> {
        let key = sim_key(sim);
        let fingerprint = request_fingerprint(key, request);
        let mut waited = false;
        loop {
            if let Some(products) = self.lookup(key, request) {
                // Re-validate so a hit cannot mask an invalid request.
                sim.validate_request(request)?;
                self.hits.fetch_add(1, Ordering::Relaxed);
                if waited {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(products);
            }
            // Miss: join the in-flight simulation for this exact request
            // if one exists, otherwise become its leader.
            let mut lead = None;
            let follow = {
                let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                match inflight.get(&fingerprint) {
                    Some(flight) => Some(Arc::clone(flight)),
                    None => {
                        let flight = Arc::new(Flight::new());
                        inflight.insert(fingerprint, Arc::clone(&flight));
                        lead = Some(flight);
                        None
                    }
                }
            };
            if let Some(flight) = follow {
                flight.wait();
                // The leader either cached the entry (next lookup hits and
                // counts us as coalesced) or failed (we take over as
                // leader on the next iteration).
                waited = true;
                continue;
            }
            let _guard = FlightGuard {
                store: self,
                fingerprint,
                flight: lead.expect("leader holds its flight"),
            };
            // A previous leader may have cached the entry and retired its
            // flight between our lookup and taking the flight table: serve
            // that entry rather than deriving a second copy of it.
            if let Some(products) = self.lookup(key, request) {
                sim.validate_request(request)?;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(products);
            }
            return self.products_uncoalesced(sim, key, request);
        }
    }

    /// The pre-coalescing miss path: derive from a cached full sweep or
    /// simulate, then cache the result.
    fn products_uncoalesced(
        &self,
        sim: &Simulator<'_>,
        key: u64,
        request: &ProductRequest,
    ) -> Result<Arc<RunProducts>> {
        // A cached full sweep (one that retained per-sample series for
        // every node) can *derive* window averages for any window and
        // traces for any sub-subset without re-simulating. Validate first
        // so derivation cannot mask an invalid request.
        sim.validate_request(request)?;
        let derived = {
            let entries = self.lock();
            entries
                .iter()
                .filter(|e| e.key == key)
                .find_map(|e| e.products.try_derive(request))
        };
        if let Some(products) = derived {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.derived.fetch_add(1, Ordering::Relaxed);
            let products = Arc::new(products);
            // Cache the derived entry so later identical requests hit the
            // exact-subsumption fast path.
            self.insert(key, Arc::clone(&products));
            return Ok(products);
        }
        // Second tier: the disk archive, before paying for a simulation.
        if let Some(archive) = &self.archive {
            if let Some(products) = archive.fetch(key, request) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.archive_hits.fetch_add(1, Ordering::Relaxed);
                let products = Arc::new(products);
                self.insert(key, Arc::clone(&products));
                return Ok(products);
            }
        }
        let products = Arc::new(sim.run_products(request)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Write-through: only genuinely simulated products are archived
        // (derived and decoded ones are already recoverable from the
        // entries that produced them).
        if let Some(archive) = &self.archive {
            archive.store(key, request, &products);
            self.archive_writes.fetch_add(1, Ordering::Relaxed);
        }
        // A concurrent non-identical miss may have inserted a subsuming
        // entry meanwhile; prefer the existing one so repeated lookups
        // share a single allocation.
        if let Some(existing) = self.lookup(key, request) {
            return Ok(existing);
        }
        self.insert(key, Arc::clone(&products));
        Ok(products)
    }

    /// Answer a `[from, to)` window aggregate over `sim`'s system trace
    /// at `scope`: [`TraceStore::window_aggregate_keyed`] under `sim`'s
    /// key.
    pub fn window_aggregate(
        &self,
        sim: &Simulator<'_>,
        scope: MeterScope,
        from: f64,
        to: f64,
    ) -> Option<Result<WindowAggregate>> {
        self.window_aggregate_keyed(sim_key(sim), scope, from, to)
    }

    /// Answer a `[from, to)` window aggregate over the system trace at
    /// `scope` of the simulation keyed `key` (see [`simulation_key`])
    /// without materializing a full [`RunProducts`] for cold data: a
    /// cached trace answers in O(1) off its prefix sums (counted as a
    /// hit); otherwise the archive tier's pruned scan combines
    /// whole-block summaries and decodes at most the two boundary blocks
    /// (counted in [`CacheStats::archive_pruned_queries`] /
    /// [`CacheStats::blocks_skipped`]), deliberately *not* populating
    /// the LRU. Neither path needs the machine built.
    ///
    /// `None` means neither tier can answer — fall back to
    /// [`TraceStore::products`]. `Some(Err(_))` carries the same window
    /// errors [`crate::SystemTrace::window_average`] returns.
    pub fn window_aggregate_keyed(
        &self,
        key: u64,
        scope: MeterScope,
        from: f64,
        to: f64,
    ) -> Option<Result<WindowAggregate>> {
        if !(to > from) {
            // Same up-front verdict every trace method gives; answering
            // here spares an entire simulation on the fallback path.
            return Some(Err(err_degenerate_window()));
        }
        let from_memory = {
            let stamp = self.stamp();
            let mut entries = self.lock();
            entries
                .iter_mut()
                .find(|e| e.key == key && e.products.system_trace(scope).is_some())
                .map(|e| {
                    e.last_used = stamp;
                    Arc::clone(&e.products)
                })
        };
        if let Some(products) = from_memory {
            let trace = products.system_trace(scope).expect("matched above");
            let result = trace.window_average(from, to).and_then(|average_w| {
                let energy_j = trace.window_energy(from, to)?;
                Ok(WindowAggregate {
                    average_w,
                    energy_j,
                    t0: trace.t0,
                    dt: trace.dt,
                    steps: trace.len() as u64,
                    blocks_total: 0,
                    blocks_decoded: 0,
                    blocks_skipped: 0,
                })
            });
            if result.is_ok() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Some(result);
        }
        let archive = self.archive.as_ref()?;
        let result = archive.window_aggregate(key, scope, from, to)?;
        self.archive_pruned_queries.fetch_add(1, Ordering::Relaxed);
        if let Ok(agg) = &result {
            self.blocks_skipped
                .fetch_add(agg.blocks_skipped, Ordering::Relaxed);
        }
        Some(result)
    }

    /// Number of cached sweeps.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drops every cached sweep (e.g. between unrelated campaigns).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Requests served from cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to simulate since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Requests served by derivation from a cached full sweep.
    pub fn derived(&self) -> u64 {
        self.derived.load(Ordering::Relaxed)
    }

    /// Requests that waited on an identical in-flight simulation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Requests served by decoding from the attached archive tier.
    pub fn archive_hits(&self) -> u64 {
        self.archive_hits.load(Ordering::Relaxed)
    }

    /// Freshly simulated products written through to the archive tier.
    pub fn archive_writes(&self) -> u64 {
        self.archive_writes.load(Ordering::Relaxed)
    }

    /// Window aggregates answered by the archive tier's pruned scan.
    pub fn archive_pruned_queries(&self) -> u64 {
        self.archive_pruned_queries.load(Ordering::Relaxed)
    }

    /// Compressed blocks pruned-scan queries skipped instead of decoding.
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped.load(Ordering::Relaxed)
    }

    /// A consistent snapshot of the cache-effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            derived: self.derived(),
            misses: self.misses(),
            coalesced: self.coalesced(),
            evictions: self.evictions(),
            archive_hits: self.archive_hits(),
            archive_writes: self.archive_writes(),
            archive_pruned_queries: self.archive_pruned_queries(),
            blocks_skipped: self.blocks_skipped(),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MeterScope, SimulationConfig};
    use crate::systems::SystemPreset;
    use power_workload::{Firestarter, LoadBalance, RunPhases};

    fn fixture() -> (crate::Cluster, Firestarter, SimulationConfig) {
        let preset = SystemPreset::trace_presets()
            .into_iter()
            .find(|p| p.name == "L-CSC")
            .expect("L-CSC trace preset exists")
            .with_total_nodes(24);
        let cluster = crate::Cluster::build(preset.cluster_spec).unwrap();
        let phases = RunPhases::core_only(200.0).unwrap();
        let wl = Firestarter::new(phases);
        let mut cfg = SimulationConfig::one_hertz(11);
        cfg.dt = 5.0;
        (cluster, wl, cfg)
    }

    #[test]
    fn one_sweep_serves_every_product_and_scope() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();

        let full = ProductRequest::with_averages(20.0, 200.0).and_subset(&[1, 2, 3]);
        let products = store.products(&sim, &full).unwrap();
        assert_eq!(store.misses(), 1);

        // System-only, same-window averages, and same-subset requests all
        // hit the one cached sweep, for every scope.
        for scope in MeterScope::ALL {
            let p = store
                .products(&sim, &ProductRequest::system_only())
                .unwrap();
            assert!(p.system_trace(scope).is_some());
            let p = store
                .products(&sim, &ProductRequest::with_averages(20.0, 200.0))
                .unwrap();
            assert!(p.node_averages(scope).is_some());
            let p = store
                .products(&sim, &ProductRequest::subset_only(&[1, 2, 3]))
                .unwrap();
            assert!(p.subset_trace(scope).is_some());
        }
        assert_eq!(store.misses(), 1, "no further sweeps ran");
        assert_eq!(store.hits(), 9);
        assert_eq!(store.len(), 1);
        assert!(Arc::ptr_eq(
            &products,
            &store
                .products(&sim, &ProductRequest::system_only())
                .unwrap()
        ));
    }

    #[test]
    fn key_distinguishes_simulation_identity_but_not_threads() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let key = sim_key(&sim);

        let mut other_threads = cfg;
        other_threads.threads = cfg.threads + 7;
        let sim_t = Simulator::new(&cluster, &wl, LoadBalance::Balanced, other_threads).unwrap();
        assert_eq!(key, sim_key(&sim_t), "threads must not change the key");

        let mut other_seed = cfg;
        other_seed.seed += 1;
        let sim_s = Simulator::new(&cluster, &wl, LoadBalance::Balanced, other_seed).unwrap();
        assert_ne!(key, sim_key(&sim_s));

        let sim_b =
            Simulator::new(&cluster, &wl, LoadBalance::Uneven { spread: 0.2 }, cfg).unwrap();
        assert_ne!(key, sim_key(&sim_b));

        let other_wl = Firestarter::new(RunPhases::core_only(400.0).unwrap());
        let sim_w = Simulator::new(&cluster, &other_wl, LoadBalance::Balanced, cfg).unwrap();
        assert_ne!(key, sim_key(&sim_w));
    }

    #[test]
    fn different_windows_and_subsets_are_separate_entries() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        store
            .products(&sim, &ProductRequest::with_averages(0.0, 100.0))
            .unwrap();
        store
            .products(&sim, &ProductRequest::with_averages(100.0, 200.0))
            .unwrap();
        store
            .products(&sim, &ProductRequest::subset_only(&[0, 1]))
            .unwrap();
        store
            .products(&sim, &ProductRequest::subset_only(&[2, 3]))
            .unwrap();
        assert_eq!(store.misses(), 4);
        assert_eq!(store.len(), 4);
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn full_sweep_derives_window_averages_and_sub_subsets() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        let all: Vec<usize> = (0..cluster.len()).collect();
        store
            .products(&sim, &ProductRequest::subset_only(&all))
            .unwrap();
        assert_eq!(store.misses(), 1);

        // A window-average request over a window never simulated for is
        // derived from the retained series — no second sweep.
        let p = store
            .products(&sim, &ProductRequest::with_averages(50.0, 150.0))
            .unwrap();
        assert_eq!(store.misses(), 1, "derivation must not re-simulate");
        assert_eq!(store.derived(), 1);
        let fresh = sim.node_averages(50.0, 150.0, MeterScope::Wall).unwrap();
        for (a, b) in p
            .node_averages(MeterScope::Wall)
            .unwrap()
            .iter()
            .zip(&fresh)
        {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                "derived {a} vs swept {b}"
            );
        }
        // The system trace comes from aggregating the retained series.
        let derived_sys = p.system_trace(MeterScope::Dc).unwrap();
        let fresh_sys = sim.system_trace(MeterScope::Dc).unwrap();
        for (a, b) in derived_sys.watts.iter().zip(&fresh_sys.watts) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }

        // A scrambled sub-subset is sliced out of the retained rows —
        // bit-identical to simulating just those nodes.
        let p = store
            .products(&sim, &ProductRequest::subset_only(&[9, 2, 17]))
            .unwrap();
        assert_eq!(store.misses(), 1);
        assert_eq!(store.derived(), 2);
        let direct = sim.subset_trace(&[9, 2, 17], MeterScope::Dc).unwrap();
        assert_eq!(p.subset_trace(MeterScope::Dc).unwrap(), &direct);

        // Derived entries are cached: the same request again is a plain hit.
        store
            .products(&sim, &ProductRequest::subset_only(&[9, 2, 17]))
            .unwrap();
        assert_eq!(store.derived(), 2);

        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.derived, 2);
        assert_eq!(stats.hits, 3);
        assert!(stats.hit_rate() > 0.7);
        assert_eq!(stats.entries, store.len());
        let shown = format!("{stats}");
        assert!(shown.contains("derived"), "{shown}");

        // Invalid windows are rejected before derivation is attempted.
        assert!(store
            .products(&sim, &ProductRequest::with_averages(5000.0, 6000.0))
            .is_err());
    }

    #[test]
    fn prefix_subset_entry_cannot_answer_machine_wide_requests() {
        // Regression: a cached subset over node ids 0..k of a larger
        // machine used to be mistaken for a full sweep, serving k-node
        // aggregates as machine-wide system traces and window averages.
        let (cluster, wl, cfg) = fixture();
        let n = cluster.len();
        assert!(n > 3, "fixture machine must exceed the prefix subset");
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        store
            .products(&sim, &ProductRequest::subset_only(&[0, 1, 2]))
            .unwrap();
        assert_eq!(store.misses(), 1);
        let p = store
            .products(&sim, &ProductRequest::with_averages(50.0, 150.0))
            .unwrap();
        assert_eq!(store.misses(), 2, "prefix subset must not derive averages");
        assert_eq!(p.node_averages(MeterScope::Wall).unwrap().len(), n);
        let fresh_store = TraceStore::new();
        fresh_store
            .products(&sim, &ProductRequest::subset_only(&[0, 1, 2]))
            .unwrap();
        let sys = fresh_store
            .products(&sim, &ProductRequest::system_only())
            .unwrap();
        assert_eq!(
            fresh_store.misses(),
            2,
            "prefix subset must not derive a system trace"
        );
        let direct = sim.system_trace(MeterScope::Wall).unwrap();
        assert_eq!(sys.system_trace(MeterScope::Wall).unwrap(), &direct);
    }

    #[test]
    fn partial_subset_entries_serve_contained_subsets() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        store
            .products(&sim, &ProductRequest::subset_only(&[1, 2, 3, 4]))
            .unwrap();
        // Contained subset: derived. Window averages: NOT derivable from a
        // partial sweep — that needs every node's series.
        let p = store
            .products(&sim, &ProductRequest::subset_only(&[4, 2]))
            .unwrap();
        assert_eq!(store.misses(), 1);
        assert_eq!(
            p.subset_trace(MeterScope::Wall).unwrap().node_ids,
            vec![4, 2]
        );
        store
            .products(&sim, &ProductRequest::with_averages(50.0, 150.0))
            .unwrap();
        assert_eq!(store.misses(), 2, "partial sweep cannot answer averages");
        // Disjoint subset: must simulate.
        store
            .products(&sim, &ProductRequest::subset_only(&[7, 8]))
            .unwrap();
        assert_eq!(store.misses(), 3);
    }

    #[test]
    fn cached_hit_still_rejects_invalid_requests() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        store
            .products(&sim, &ProductRequest::system_only())
            .unwrap();
        // Degenerate and out-of-run windows fail even though a full-sweep
        // entry exists.
        assert!(store
            .products(&sim, &ProductRequest::with_averages(50.0, 50.0))
            .is_err());
        assert!(store
            .products(&sim, &ProductRequest::with_averages(5000.0, 6000.0))
            .is_err());
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_simulation() {
        // Satellite: 16 threads request the same uncached sweep; exactly
        // one simulation runs, the other 15 wait on the flight and are
        // served from cache.
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        let request = ProductRequest::with_averages(20.0, 200.0);
        let barrier = std::sync::Barrier::new(16);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        store.products(&sim, &request).unwrap()
                    })
                })
                .collect();
            let products: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Everyone got the same allocation.
            for p in &products[1..] {
                assert!(Arc::ptr_eq(&products[0], p));
            }
        });
        let stats = store.stats();
        assert_eq!(stats.misses, 1, "exactly one simulation ran");
        assert_eq!(stats.hits, 15);
        assert!(
            stats.coalesced <= 15,
            "coalesced counts a subset of the hits: {stats}"
        );
        assert_eq!(stats.entries, 1);
        // A sequential rerun is a plain (non-coalesced) hit.
        let before = store.coalesced();
        store.products(&sim, &request).unwrap();
        assert_eq!(store.coalesced(), before);
        assert_eq!(store.hits(), 16);
    }

    #[test]
    fn coalesced_followers_of_a_failed_leader_recover() {
        // An invalid request never caches anything; concurrent identical
        // invalid requests must all error out rather than deadlock on a
        // flight whose leader failed.
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        let bad = ProductRequest::with_averages(5000.0, 6000.0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| store.products(&sim, &bad)))
                .collect();
            for h in handles {
                assert!(h.join().unwrap().is_err());
            }
        });
        assert_eq!(store.misses(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn lru_bound_evicts_and_never_breaks_correctness() {
        // Satellite: a capacity-2 store cycling through three distinct
        // window requests must evict (counted), yet every answer must
        // stay identical to an unbounded store's.
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let bounded = TraceStore::bounded(2);
        assert_eq!(bounded.capacity(), Some(2));
        let reference = TraceStore::new();
        let windows = [(0.0, 100.0), (50.0, 150.0), (100.0, 200.0)];
        for round in 0..3 {
            for &(from, to) in &windows {
                let req = ProductRequest::with_averages(from, to);
                let b = bounded.products(&sim, &req).unwrap();
                let r = reference.products(&sim, &req).unwrap();
                for scope in MeterScope::ALL {
                    assert_eq!(
                        b.node_averages(scope).unwrap(),
                        r.node_averages(scope).unwrap(),
                        "round {round} window {from}..{to}"
                    );
                    assert_eq!(
                        b.system_trace(scope).unwrap().watts,
                        r.system_trace(scope).unwrap().watts
                    );
                }
                assert!(bounded.len() <= 2, "cap respected");
            }
        }
        let stats = bounded.stats();
        assert!(
            stats.evictions > 0,
            "cycling 3 windows through cap 2 evicts"
        );
        assert_eq!(stats.hits + stats.misses, 9);
        // The unbounded reference simulated each window exactly once; the
        // bounded store re-simulated evicted windows but never returned a
        // wrong answer.
        assert_eq!(reference.stats().evictions, 0);
        assert_eq!(reference.misses(), 3);
        assert!(bounded.misses() >= 3);
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::bounded(2);
        let a = ProductRequest::with_averages(0.0, 100.0);
        let b = ProductRequest::with_averages(50.0, 150.0);
        let c = ProductRequest::with_averages(100.0, 200.0);
        store.products(&sim, &a).unwrap();
        store.products(&sim, &b).unwrap();
        // Touch `a` so `b` is now least recently used.
        store.products(&sim, &a).unwrap();
        store.products(&sim, &c).unwrap();
        assert_eq!(store.evictions(), 1);
        let misses = store.misses();
        store.products(&sim, &a).unwrap();
        assert_eq!(store.misses(), misses, "a stayed resident");
        store.products(&sim, &b).unwrap();
        assert_eq!(store.misses(), misses + 1, "b was the LRU victim");
    }

    /// In-memory stand-in for the on-disk archive tier, exercising the
    /// tiering contract without touching a filesystem.
    #[derive(Default)]
    struct MockArchive {
        blobs: Mutex<HashMap<(u64, u64), RunProducts>>,
    }

    impl ArchiveTier for MockArchive {
        fn fetch(&self, key: u64, request: &ProductRequest) -> Option<RunProducts> {
            let fingerprint = request_fingerprint(key, request);
            self.blobs.lock().unwrap().get(&(key, fingerprint)).cloned()
        }

        fn store(&self, key: u64, request: &ProductRequest, products: &RunProducts) {
            let fingerprint = request_fingerprint(key, request);
            self.blobs
                .lock()
                .unwrap()
                .insert((key, fingerprint), products.clone());
        }

        fn warm(&self) -> Vec<(u64, RunProducts)> {
            self.blobs
                .lock()
                .unwrap()
                .iter()
                .map(|(&(key, _), p)| (key, p.clone()))
                .collect()
        }
    }

    #[test]
    fn archive_tier_serves_restarted_stores_and_warms() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let archive = Arc::new(MockArchive::default());
        let request = ProductRequest::with_averages(20.0, 200.0);

        // Cold store: simulates once, writes through to the archive.
        let store1 = TraceStore::new().with_archive(Arc::clone(&archive) as _);
        assert!(store1.has_archive());
        let p1 = store1.products(&sim, &request).unwrap();
        let s1 = store1.stats();
        assert_eq!((s1.misses, s1.archive_writes, s1.archive_hits), (1, 1, 0));
        // A repeat is a memory hit — no further archive traffic.
        store1.products(&sim, &request).unwrap();
        assert_eq!(store1.archive_hits(), 0);

        // "Restarted" store sharing the archive: served from disk tier,
        // no recompute, and the answer matches.
        let store2 = TraceStore::new().with_archive(Arc::clone(&archive) as _);
        let p2 = store2.products(&sim, &request).unwrap();
        let s2 = store2.stats();
        assert_eq!((s2.misses, s2.hits, s2.archive_hits), (0, 1, 1));
        assert_eq!(
            p1.node_averages(MeterScope::Wall).unwrap(),
            p2.node_averages(MeterScope::Wall).unwrap()
        );
        // The fetched entry landed in memory: a repeat stays local.
        store2.products(&sim, &request).unwrap();
        assert_eq!(store2.archive_hits(), 1);
        let shown = format!("{s2}");
        assert!(shown.contains("archive"), "{shown}");

        // Warm-on-startup pre-populates memory, so even the first
        // request is a plain hit.
        let store3 = TraceStore::new().with_archive(Arc::clone(&archive) as _);
        assert_eq!(store3.warm_from_archive(), 1);
        assert_eq!(store3.len(), 1);
        let p3 = store3.products(&sim, &request).unwrap();
        let s3 = store3.stats();
        assert_eq!((s3.misses, s3.hits, s3.archive_hits), (0, 1, 0));
        assert_eq!(
            p1.node_averages(MeterScope::Dc).unwrap(),
            p3.node_averages(MeterScope::Dc).unwrap()
        );

        // Plain stores are untouched by all of this.
        let plain = TraceStore::new();
        assert!(!plain.has_archive());
        assert_eq!(plain.warm_from_archive(), 0);
    }

    #[test]
    fn window_aggregate_memory_path_and_fallbacks() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let store = TraceStore::new();
        // Degenerate windows are answered up front, no tier needed and
        // no simulation spent.
        assert!(matches!(
            store.window_aggregate(&sim, MeterScope::Wall, 10.0, 10.0),
            Some(Err(_))
        ));
        // Nothing cached and no archive: the store declines.
        assert!(store
            .window_aggregate(&sim, MeterScope::Wall, 0.0, 100.0)
            .is_none());
        assert_eq!(store.stats().hits, 0);

        // With a cached system trace the aggregate is a memory hit that
        // matches the trace's own O(1) answers exactly.
        let p = store
            .products(&sim, &ProductRequest::system_only())
            .unwrap();
        let agg = store
            .window_aggregate(&sim, MeterScope::Wall, 20.0, 180.0)
            .unwrap()
            .unwrap();
        let trace = p.system_trace(MeterScope::Wall).unwrap();
        assert_eq!(agg.average_w, trace.window_average(20.0, 180.0).unwrap());
        assert_eq!(agg.energy_j, trace.window_energy(20.0, 180.0).unwrap());
        assert_eq!(agg.steps, trace.len() as u64);
        assert_eq!(agg.t_end(), trace.t_end());
        assert_eq!(agg.blocks_total, 0);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.archive_pruned_queries, 0);

        // A window outside the run errors like the trace methods do.
        assert!(matches!(
            store.window_aggregate(&sim, MeterScope::Wall, 5000.0, 6000.0),
            Some(Err(_))
        ));

        // An archive tier using the default window_aggregate keeps the
        // store declining cold windows rather than failing.
        let tiered = TraceStore::new().with_archive(Arc::new(MockArchive::default()) as _);
        assert!(tiered
            .window_aggregate(&sim, MeterScope::Wall, 0.0, 100.0)
            .is_none());
        assert_eq!(tiered.stats().archive_pruned_queries, 0);
    }

    #[test]
    fn thread_count_invariance_holds_through_the_cache() {
        // Three blocks, so eight workers split the machine differently
        // from one.
        let (_, wl, cfg) = fixture();
        let preset = SystemPreset::trace_presets()
            .into_iter()
            .find(|p| p.name == "L-CSC")
            .expect("L-CSC trace preset exists")
            .with_total_nodes(2 * crate::engine::BLOCK_WIDTH + 22);
        let cluster = crate::Cluster::build(preset.cluster_spec).unwrap();
        let mut c1 = cfg;
        c1.threads = 1;
        let mut c8 = cfg;
        c8.threads = 8;
        let sim1 = Simulator::new(&cluster, &wl, LoadBalance::Balanced, c1).unwrap();
        let sim8 = Simulator::new(&cluster, &wl, LoadBalance::Balanced, c8).unwrap();
        // Fresh store per thread count, so each genuinely simulates.
        let p1 = TraceStore::new()
            .products(&sim1, &ProductRequest::with_averages(20.0, 200.0))
            .unwrap();
        let p8 = TraceStore::new()
            .products(&sim8, &ProductRequest::with_averages(20.0, 200.0))
            .unwrap();
        for scope in MeterScope::ALL {
            let t1 = p1.system_trace(scope).unwrap();
            let t8 = p8.system_trace(scope).unwrap();
            for (a, b) in t1.watts.iter().zip(&t8.watts) {
                assert_eq!(a.to_bits(), b.to_bits(), "{scope:?}: {a} vs {b}");
            }
            assert_eq!(p1.node_averages(scope), p8.node_averages(scope));
        }
        // So the key can ignore `threads`: either simulator's products
        // serve the other's request with the same bits.
        assert_eq!(sim_key(&sim1), sim_key(&sim8));
    }
}
