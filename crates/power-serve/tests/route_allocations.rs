//! A warm `/v1/trace/window` query is answered from the store by its
//! simulation key alone, so the heap bytes the reactor-inline router
//! allocates for it must not grow with the machine's node count —
//! building the cluster (one ASIC sample per processor per node) would.
//!
//! The counting allocator is process-wide, so this file holds a single
//! test: no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use power_serve::http::{read_request, HttpLimits};
use power_serve::{loadgen, route, route_fast, Request, ServeConfig, ServeState};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn parse(path: &str) -> Request {
    read_request(
        &mut Cursor::new(loadgen::get_request(path)),
        &HttpLimits::default(),
    )
    .expect("valid request")
    .expect("non-empty request")
}

/// Heap bytes one warm `route_fast` answer of `nodes` allocates.
fn warm_window_bytes(state: &ServeState, nodes: usize) -> usize {
    let req = parse(&format!(
        "/v1/trace/window?system=L-CSC&nodes={nodes}&dt=120&from=600&to=3000"
    ));
    // The worker path simulates and caches the sweep.
    let (_, cold) = route(state, &req);
    assert_eq!(cold.status, 200);
    let before = BYTES.load(Ordering::SeqCst);
    let (_, warm) = route_fast(state, &req).expect("a cached window is answered inline");
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body);
    bytes
}

#[test]
fn warm_window_allocations_do_not_grow_with_nodes() {
    let state = ServeState::new(ServeConfig {
        max_nodes: 64,
        ..ServeConfig::default()
    });
    let small = warm_window_bytes(&state, 8);
    let large = warm_window_bytes(&state, 64);
    println!("warm window: {small} bytes at 8 nodes, {large} at 64");
    assert!(
        large <= small,
        "a warm window allocated {large} bytes at 64 nodes but {small} at 8"
    );
}
