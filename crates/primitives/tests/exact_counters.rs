//! Exact warp-traffic counters of the address-chasing primitives.
//!
//! The address streams of `gather`, `gather_or` and the global hash table
//! feed the coalescing and L2 models lane by lane, so the order and
//! content of each stream fix every counter below. These golden values pin
//! them: any change to how the streams are produced must reproduce them
//! exactly, not just within a tolerance.

use primitives::{gather, gather_or, GlobalHashTable, NULL_ID};
use sim::Device;

const N: usize = 1 << 12;

/// `[load_requests, sectors_requested, l2_hits, dram_read_bytes]` of what
/// `f` charges on `dev`.
fn charged(dev: &Device, f: impl FnOnce()) -> [u64; 4] {
    dev.reset_stats();
    f();
    let c = dev.counters();
    [
        c.load_requests,
        c.sectors_requested,
        c.l2_hits,
        c.dram_read_bytes,
    ]
}

fn clustered_map() -> Vec<u32> {
    (0..N as u32).collect()
}

/// A fixed permutation of `0..N` (the multiplier is odd, so it is a
/// bijection modulo the power of two `N`).
fn random_map() -> Vec<u32> {
    (0..N).map(|i| ((i * 2654435761) % N) as u32).collect()
}

/// `map` with every fifth lane null.
fn with_nulls(map: Vec<u32>) -> Vec<u32> {
    map.into_iter()
        .enumerate()
        .map(|(i, m)| if i % 5 == 0 { NULL_ID } else { m })
        .collect()
}

fn gather_counters(map: Vec<u32>) -> [u64; 4] {
    let dev = Device::a100();
    let src = dev.upload((0..N as i64).collect::<Vec<_>>(), "src");
    let map = dev.upload(map, "map");
    charged(&dev, || drop(gather(&dev, &src, &map)))
}

fn gather_or_counters(map: Vec<u32>) -> [u64; 4] {
    let dev = Device::a100();
    let src = dev.upload((0..N as i32).collect::<Vec<_>>(), "src");
    let map = dev.upload(with_nulls(map), "map");
    charged(&dev, || drop(gather_or(&dev, &src, &map, -1)))
}

#[test]
fn gather_counters_are_exact() {
    assert_eq!(gather_counters(clustered_map()), [256, 1536, 0, 49152]);
    assert_eq!(gather_counters(random_map()), [256, 4608, 3072, 49152]);
}

#[test]
fn gather_or_counters_are_exact() {
    assert_eq!(gather_or_counters(clustered_map()), [231, 1024, 0, 32768]);
    assert_eq!(gather_or_counters(random_map()), [231, 3788, 2836, 30464]);
}

#[test]
fn global_hash_table_counters_are_exact() {
    let dev = Device::a100();
    // Duplicate-heavy build keys (each value twice) and a probe side that
    // half misses, so chains of several slots occur on both passes.
    let build: Vec<i32> = random_map().iter().map(|&m| (m / 2) as i32).collect();
    let probe: Vec<i32> = (0..N as i32).map(|i| (i * 7) % N as i32).collect();
    let build = dev.upload(build, "build");
    let probe = dev.upload(probe, "probe");
    let mut ht = GlobalHashTable::<i32>::new(&dev, build.len());
    assert_eq!(
        charged(&dev, || ht.build(&dev, &build)),
        [192, 4657, 2653, 80512],
        "build"
    );
    let mut matches = 0;
    assert_eq!(
        charged(&dev, || matches = ht.probe(&dev, &probe).len()),
        [308, 5668, 5624, 17792],
        "probe"
    );
    assert_eq!(matches, N);
}
