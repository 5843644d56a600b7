//! No node-step allocates: the number of heap allocations a sweep makes
//! must not grow with the run length. Doubling the steps may grow the
//! output buffers, but not their count. That holds for a governor whose
//! P-state changes during the run too, which rebuilds the block's node
//! plans at every switch.
//!
//! The counting allocator is process-wide, so this file holds a single
//! test: no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use power_sim::cluster::Cluster;
use power_sim::dvfs::{Governor, PState};
use power_sim::engine::{ProductRequest, SimulationConfig, Simulator, BLOCK_WIDTH};
use power_sim::systems;
use power_workload::{Hpl, HplVariant, RunPhases};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn sweep_allocations_do_not_grow_with_steps() {
    let preset = systems::piz_daint().with_total_nodes(2 * BLOCK_WIDTH + 5);
    let nominal = Cluster::build(preset.cluster_spec.clone()).unwrap();
    // A `Schedule` governor that switches every 40 s through the longer
    // run: the long sweep rebuilds its node plans twice as often as the
    // short one, so a rebuild that allocated would show up below.
    let Governor::Static(high) = nominal.spec().governor.clone() else {
        panic!("the preset runs one static P-state");
    };
    let low = PState {
        f_mhz: high.f_mhz * 0.7,
        ..high
    };
    let switches = (0..60)
        .map(|k| (40.0 * k as f64, if k % 2 == 0 { high } else { low }))
        .collect();
    let scheduled = nominal
        .clone()
        .with_governor(Governor::Schedule(switches))
        .unwrap();
    let subset = [3usize, 0, BLOCK_WIDTH + 1, 2 * BLOCK_WIDTH + 4];
    let requests = [
        ProductRequest::system_only(),
        ProductRequest::with_averages(100.0, 900.0).and_subset(&subset),
        ProductRequest::subset_only(&subset),
    ];
    // Same run, same dt: the longer core phase doubles the step count.
    let count = |cluster: &Cluster, core: f64, threads: usize| -> Vec<usize> {
        let phases = RunPhases::new(60.0, core, 60.0).unwrap();
        let workload = Hpl::new(HplVariant::GpuInCore, phases, 1.0e15).unwrap();
        let cfg = SimulationConfig {
            dt: 2.0,
            noise_sigma: 0.01,
            common_noise_sigma: 0.003,
            seed: 5,
            threads,
        };
        let sim = Simulator::new(cluster, &workload, preset.balance, cfg).unwrap();
        requests
            .iter()
            .map(|request| {
                allocations_during(|| {
                    std::hint::black_box(sim.run_products(request).unwrap());
                })
            })
            .collect::<Vec<usize>>()
    };
    for (name, cluster) in [("static", &nominal), ("schedule", &scheduled)] {
        for threads in [1, 3] {
            // Warm up once so lazily initialised runtime state is not counted.
            count(cluster, 1_000.0, threads);
            let short = count(cluster, 1_000.0, threads);
            let long = count(cluster, 2_120.0, threads);
            assert_eq!(
                short, long,
                "allocations per sweep grew with the run length ({name} governor, \
                 {threads} threads): {short:?} at 560 steps vs {long:?} at 1,120 steps"
            );
        }
    }
}
