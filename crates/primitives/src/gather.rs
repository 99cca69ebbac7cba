//! GATHER and SCATTER — the materialization primitives.
//!
//! `out[i] = in[map[i]]` (gather) and `out[map[i]] = in[i]` (scatter). The
//! efficiency of a gather is entirely determined by how *clustered* the map
//! is (Section 2.3): warps reading neighbouring `map` entries that point to
//! neighbouring source rows coalesce into few sectors and hit L2; random
//! maps touch a sector per lane. Both the map read and the data read issue
//! warp load requests — which is why Table 4 reports ~18 sectors/request
//! for the unclustered case (32 for the data + 4 for the map, averaged) and
//! ~6 for the clustered one.

use crate::GATHER_WARP_INSTR;
use columnar::Column;
use sim::{Device, DeviceBuffer, Element};

/// Gather `src[map[i]]` for every `i`, charging warp-level coalescing costs.
///
/// Panics if any map entry is out of bounds — GPU code would fault; the
/// simulator surfaces the bug eagerly.
pub fn gather<T: Element>(
    dev: &Device,
    src: &DeviceBuffer<T>,
    map: &DeviceBuffer<u32>,
) -> DeviceBuffer<T> {
    let n = map.len();
    let (src_host, map_host) = (src.as_slice(), map.as_slice());
    let mut out = Vec::with_capacity(n);
    for (i, &m) in map_host.iter().enumerate() {
        assert!(
            (m as usize) < src_host.len(),
            "gather map[{i}] = {m} out of bounds for source of {} rows",
            src_host.len()
        );
        out.push(src_host[m as usize]);
    }
    dev.kernel("gather")
        .items(n as u64, GATHER_WARP_INSTR)
        // The map itself is streamed with coalesced warp loads.
        .warp_loads(4, (0..n).map(|i| map.addr_of(i)))
        // The data reads coalesce only as well as the map is clustered.
        .warp_loads(T::SIZE, map_host.iter().map(|&m| src.addr_of(m as usize)))
        .seq_write_bytes(n as u64 * T::SIZE)
        .launch();
    dev.upload(out, "gather.out")
}

/// Scatter `src[i]` to `out[map[i]]`. The inverse access pattern of
/// [`gather`]: reads stream, writes chase the map.
pub fn scatter<T: Element>(
    dev: &Device,
    src: &DeviceBuffer<T>,
    map: &DeviceBuffer<u32>,
    out_len: usize,
) -> DeviceBuffer<T> {
    assert_eq!(src.len(), map.len(), "scatter source/map length mismatch");
    let mut out_buf = dev.alloc::<T>(out_len, "scatter.out");
    let out = out_buf.as_mut_slice();
    for (i, (&m, &v)) in map.iter().zip(src.iter()).enumerate() {
        assert!(
            (m as usize) < out_len,
            "scatter map[{i}] = {m} out of bounds for output of {out_len} rows"
        );
        out[m as usize] = v;
    }
    dev.kernel("scatter")
        .items(src.len() as u64, GATHER_WARP_INSTR)
        .seq_read_bytes(src.len() as u64 * (T::SIZE + 4))
        .warp_stores(T::SIZE, map.iter().map(|&m| out_buf.addr_of(m as usize)))
        .launch();
    out_buf
}

/// Sentinel map entry meaning "no source row": [`gather_or`] emits the
/// fallback value for these lanes. Used by outer joins for unmatched rows.
pub const NULL_ID: u32 = u32::MAX;

/// Gather with null handling: `out[i] = if map[i] == NULL_ID { fallback }
/// else { src[map[i]] }`. Null lanes issue no memory traffic.
pub fn gather_or<T: Element>(
    dev: &Device,
    src: &DeviceBuffer<T>,
    map: &DeviceBuffer<u32>,
    fallback: T,
) -> DeviceBuffer<T> {
    let n = map.len();
    let (src_host, map_host) = (src.as_slice(), map.as_slice());
    let mut out = Vec::with_capacity(n);
    for (i, &m) in map_host.iter().enumerate() {
        if m == NULL_ID {
            out.push(fallback);
        } else {
            assert!(
                (m as usize) < src_host.len(),
                "gather map[{i}] = {m} out of bounds for source of {} rows",
                src_host.len()
            );
            out.push(src_host[m as usize]);
        }
    }
    // Null lanes issue no memory traffic, so they contribute no address.
    let data_addrs = map_host
        .iter()
        .filter(|&&m| m != NULL_ID)
        .map(|&m| src.addr_of(m as usize));
    dev.kernel("gather_or")
        .items(n as u64, GATHER_WARP_INSTR)
        .warp_loads(4, (0..n).map(|i| map.addr_of(i)))
        .warp_loads(T::SIZE, data_addrs)
        .seq_write_bytes(n as u64 * T::SIZE)
        .launch();
    dev.upload(out, "gather_or.out")
}

/// [`gather_or`] lifted to [`Column`]s; the fallback is the column type's
/// null sentinel (`i32::MIN` / `i64::MIN`).
pub fn gather_column_or_null(dev: &Device, src: &Column, map: &DeviceBuffer<u32>) -> Column {
    match src {
        Column::I32(b) => Column::I32(gather_or(dev, b, map, i32::MIN)),
        Column::I64(b) => Column::I64(gather_or(dev, b, map, i64::MIN)),
    }
}

/// [`gather`] lifted to dynamically typed [`Column`]s — the form the
/// materialization phase uses, one payload column at a time (Algorithm 1,
/// lines 6 and 9).
pub fn gather_column(dev: &Device, src: &Column, map: &DeviceBuffer<u32>) -> Column {
    match src {
        Column::I32(b) => Column::I32(gather(dev, b, map)),
        Column::I64(b) => Column::I64(gather(dev, b, map)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    #[test]
    fn gather_basic() {
        let dev = Device::a100();
        let src = dev.upload(vec![10i32, 20, 30, 40], "src");
        let map = dev.upload(vec![3u32, 0, 3, 1], "map");
        let out = gather(&dev, &src, &map);
        assert_eq!(out.as_slice(), &[40, 10, 40, 20]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob_panics() {
        let dev = Device::a100();
        let src = dev.upload(vec![1i32], "src");
        let map = dev.upload(vec![1u32], "map");
        let _ = gather(&dev, &src, &map);
    }

    #[test]
    fn scatter_inverts_gather_for_permutations() {
        let dev = Device::a100();
        let src = dev.upload(vec![10i64, 20, 30, 40], "src");
        let perm = dev.upload(vec![2u32, 0, 3, 1], "perm");
        let scat = scatter(&dev, &src, &perm, 4);
        let back = gather(&dev, &scat, &perm);
        assert_eq!(back.as_slice(), src.as_slice());
    }

    #[test]
    fn clustered_map_touches_fewer_sectors_than_random() {
        let dev = Device::a100();
        let n = 1usize << 18;
        let src = dev.upload((0..n as i32).collect::<Vec<_>>(), "src");
        let clustered = dev.upload((0..n as u32).collect::<Vec<_>>(), "cmap");
        let _ = gather(&dev, &src, &clustered);
        let spr_clustered = dev.counters().sectors_per_request();
        dev.reset_stats();
        let random: Vec<u32> = (0..n).map(|i| ((i * 2654435761) % n) as u32).collect();
        let rmap = dev.upload(random, "rmap");
        let _ = gather(&dev, &src, &rmap);
        let spr_random = dev.counters().sectors_per_request();
        assert!(
            spr_random > 2.5 * spr_clustered,
            "random {spr_random} vs clustered {spr_clustered}"
        );
    }

    #[test]
    fn gather_column_dispatches_both_types() {
        let dev = Device::a100();
        let map = dev.upload(vec![1u32, 1, 0], "map");
        let c4 = Column::from_i32(&dev, vec![7, 8], "c4");
        assert_eq!(gather_column(&dev, &c4, &map).to_vec_i64(), vec![8, 8, 7]);
        let c8 = Column::from_i64(&dev, vec![70, 80], "c8");
        assert_eq!(
            gather_column(&dev, &c8, &map).to_vec_i64(),
            vec![80, 80, 70]
        );
    }

    #[test]
    fn empty_gather() {
        let dev = Device::a100();
        let src = dev.upload(vec![1i32], "src");
        let map = dev.upload(Vec::<u32>::new(), "map");
        let out = gather(&dev, &src, &map);
        assert!(out.is_empty());
    }
}

#[cfg(test)]
mod null_tests {
    use super::*;
    use sim::Device;

    #[test]
    fn gather_or_substitutes_fallback() {
        let dev = Device::a100();
        let src = dev.upload(vec![10i32, 20], "src");
        let map = dev.upload(vec![1u32, NULL_ID, 0], "map");
        let out = gather_or(&dev, &src, &map, -1);
        assert_eq!(out.as_slice(), &[20, -1, 10]);
    }

    #[test]
    fn gather_column_or_null_uses_type_min() {
        let dev = Device::a100();
        let map = dev.upload(vec![NULL_ID, 0], "map");
        let c4 = Column::from_i32(&dev, vec![5], "c");
        assert_eq!(
            gather_column_or_null(&dev, &c4, &map).to_vec_i64(),
            vec![i32::MIN as i64, 5]
        );
        let c8 = Column::from_i64(&dev, vec![7], "c");
        assert_eq!(
            gather_column_or_null(&dev, &c8, &map).to_vec_i64(),
            vec![i64::MIN, 7]
        );
    }

    #[test]
    fn all_null_map_issues_no_data_loads() {
        let dev = Device::a100();
        let src = dev.upload(vec![1i32; 64], "src");
        let map = dev.upload(vec![NULL_ID; 256], "map");
        dev.reset_stats();
        let out = gather_or(&dev, &src, &map, 9);
        assert!(out.iter().all(|&v| v == 9));
        // Only the map itself was read (8 requests of 4 sectors).
        assert_eq!(dev.counters().load_requests, 8);
    }
}
