//! Measure the zero-allocation data path — the word-wise XOR kernel, the
//! pooled streaming verification in [`BlockOracle`], and the simulator's
//! steady-state cycle loop — and write the results to
//! `BENCH_datapath.json`.
//!
//! Three measurements:
//! * **XOR kernel** — MB/s of the `u64`-lane [`xor_slices`] against a
//!   byte-at-a-time scalar reference loop.
//! * **Verified deliveries** — degraded-mode deliveries per second and
//!   heap allocations per delivery, for the legacy materializing path
//!   (`block` + `reconstruct_and_check`) vs the pooled streaming path
//!   (`verify_delivery`).
//! * **Simulator cycles** — heap allocations per steady-state cycle of a
//!   degraded Streaming-RAID run under `DataMode::Verified`.
//!
//! Allocations are counted by a `#[global_allocator]` shim around the
//! system allocator, so the numbers are the real heap traffic of the
//! measured section — not an estimate.
//!
//! Usage: `bench_datapath [output.json] [--quick]`
//!
//! `--quick` shrinks every workload to a smoke-test size (used by CI to
//! prove the bin runs); the committed JSON comes from a full run.

use mms_bench::harness::{parse_args, timed, write_json, Obj};
use mms_server::disk::DiskId;
use mms_server::layout::{BandwidthClass, BlockAddr, MediaObject, ObjectId};
use mms_server::parity::xor_slices;
use mms_server::sim::{BlockOracle, DataMode, FailureEvent};
use mms_server::{Scheme, ServerBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with an allocation counter: every `alloc`/`realloc`
/// bumps [`ALLOC_COUNT`], so a section's heap traffic is the difference
/// of two counter reads.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// A real track per the paper's Table 1 (50 KB).
const TRACK_BYTES: usize = 50_000;
/// Parity-group size C = 5 ⇒ four data blocks per group.
const GROUP_C: usize = 5;

/// Byte-at-a-time XOR reference. `black_box` pins each store so the
/// optimizer cannot rewrite the loop into the very SIMD kernel it is
/// the baseline for.
fn xor_scalar_reference(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = black_box(*d ^ *s);
    }
}

fn bench_xor(quick: bool) -> Obj {
    let passes = if quick { 64 } else { 4096 };
    let mut dst = vec![0xA5u8; TRACK_BYTES];
    let src: Vec<u8> = (0..TRACK_BYTES).map(|i| (i * 131) as u8).collect();
    let mb = (passes * TRACK_BYTES) as f64 / 1e6;

    let ((), scalar_secs) = timed(|| {
        for _ in 0..passes {
            xor_scalar_reference(&mut dst, &src);
        }
    });
    let scalar_mb_per_s = mb / scalar_secs;
    black_box(&dst);

    let ((), wordwise_secs) = timed(|| {
        for _ in 0..passes {
            xor_slices(&mut dst, &src);
        }
    });
    let wordwise_mb_per_s = mb / wordwise_secs;
    black_box(&dst);

    let speedup = wordwise_mb_per_s / scalar_mb_per_s;
    println!(
        "xor kernel        scalar {scalar_mb_per_s:>8.1} MB/s  wordwise {wordwise_mb_per_s:>8.1} MB/s  \
         speedup {speedup:.1}x"
    );
    Obj::block()
        .field("passes", passes)
        .fixed("scalar_mb_per_s", scalar_mb_per_s, 1)
        .fixed("wordwise_mb_per_s", wordwise_mb_per_s, 1)
        .fixed("speedup", speedup, 2)
}

/// Degraded-mode verified deliveries: every delivery reconstructs data
/// block `i % (C−1)` of a rotating group, then confirms it against the
/// stored original — the legacy path by materializing the whole group,
/// the streaming path through pooled scratch.
fn bench_deliveries(quick: bool) -> Obj {
    let deliveries: usize = if quick { 32 } else { 2000 };
    let object = ObjectId(7);
    let tracks: u64 = 4096;
    let bpg = (GROUP_C - 1) as u32;
    let groups = tracks / u64::from(bpg);
    let mut oracle = BlockOracle::new(BTreeMap::from([(object, tracks)]), bpg, TRACK_BYTES);

    let (legacy_allocs, legacy_secs) = timed(|| {
        let allocs_before = allocations();
        for i in 0..deliveries {
            let group = (i as u64 * 17) % groups;
            let ix = (i as u32) % bpg;
            let expected = oracle.block(BlockAddr::data(object, group, ix));
            let produced = oracle.reconstruct_and_check(object, group, ix);
            assert_eq!(produced, expected, "legacy path must round-trip");
        }
        allocations() - allocs_before
    });

    // Warm the pool and fingerprint cache, then measure the steady state.
    for i in 0..4u64 {
        oracle.verify_delivery(BlockAddr::data(object, i % groups, 0), true);
    }
    let (streaming_allocs, streaming_secs) = timed(|| {
        let allocs_before = allocations();
        for i in 0..deliveries {
            let group = (i as u64 * 17) % groups;
            let ix = (i as u32) % bpg;
            oracle.verify_delivery(BlockAddr::data(object, group, ix), true);
        }
        allocations() - allocs_before
    });

    let n = deliveries as f64;
    let (legacy_per_s, legacy_allocs) = (n / legacy_secs, legacy_allocs as f64 / n);
    let (streaming_per_s, streaming_allocs) = (n / streaming_secs, streaming_allocs as f64 / n);
    println!(
        "verified delivery legacy {legacy_per_s:>8.1}/s ({legacy_allocs:.1} allocs)  \
         streaming {streaming_per_s:>8.1}/s ({streaming_allocs:.1} allocs)"
    );
    // A ratio degenerates (division by zero) precisely when the pooled
    // path wins outright; the difference stays meaningful at 0.
    let eliminated = legacy_allocs - streaming_allocs;
    Obj::block()
        .field("blocks_per_group", GROUP_C - 1)
        .field("deliveries", deliveries)
        .fixed("legacy_deliveries_per_s", legacy_per_s, 1)
        .fixed("legacy_allocs_per_delivery", legacy_allocs, 2)
        .fixed("streaming_deliveries_per_s", streaming_per_s, 1)
        .fixed("streaming_allocs_per_delivery", streaming_allocs, 2)
        .fixed("allocs_eliminated_per_delivery", eliminated, 2)
}

/// Steady-state allocations per cycle of a degraded Streaming-RAID run
/// with verified synthetic content: four viewers stream one movie while
/// one disk is down, so every cycle plans, reads, reconstructs, and
/// verifies through the hoisted plan/load/pool storage.
fn bench_sim_cycles(quick: bool) -> Obj {
    let (warmup, cycles): (u64, u64) = if quick { (8, 16) } else { (64, 256) };
    let object = ObjectId(0);
    let mut server = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(GROUP_C)
        .object(MediaObject::new(object, "m", 20_000, BandwidthClass::Mpeg1))
        .data_mode(DataMode::Verified { track_bytes: 4096 })
        .build()
        .expect("server builds");
    for _ in 0..4 {
        server.admit(object).expect("admission");
        server.step().expect("cycle");
    }
    server
        .inject(FailureEvent::fail(server.cycle(), DiskId(1)))
        .expect("fail disk");
    for _ in 0..warmup {
        server.step().expect("cycle");
    }
    let allocs_before = allocations();
    for _ in 0..cycles {
        server.step().expect("cycle");
    }
    let allocs_per_cycle = (allocations() - allocs_before) as f64 / cycles as f64;
    println!(
        "simulator         {allocs_per_cycle:.1} allocs/cycle over {cycles} degraded SR cycles"
    );
    Obj::block()
        .field("scheme", "sr")
        .field("degraded", true)
        .field("cycles", cycles)
        .fixed("allocs_per_cycle", allocs_per_cycle, 2)
}

fn main() {
    let (out, quick) = parse_args("BENCH_datapath.json");
    let doc = Obj::block()
        .field("quick", quick)
        .field("track_bytes", TRACK_BYTES)
        .field("xor_kernel", bench_xor(quick))
        .field("verified_delivery", bench_deliveries(quick))
        .field("simulator", bench_sim_cycles(quick));
    println!();
    write_json(&out, doc);
}
