//! Radix-partitioned grouped aggregation — the PHJ-OM analog: stable radix
//! partition by the group key so every partition's groups fit a
//! shared-memory table, then aggregate partition-locally.
//!
//! GFTR partitions every aggregate column with the keys (stability makes the
//! layouts identical) and aggregates each with a streaming pass; GFUR
//! partitions `(key, ID)` once and fetches values with unclustered gathers.

use crate::hash::{dispatch_key_column, slot_of};
use crate::{AggFn, GroupByAlgorithm, GroupByConfig, GroupByOutput, GroupByStats};
use columnar::{Column, ColumnElement, Relation};
use primitives::{gather_column, radix_partition, BUILD_WARP_INSTR, STREAM_WARP_INSTR};
use sim::{Device, DeviceBuffer, PhaseTimes};

/// Partition one payload column with the keys.
fn partition_col_with_key<K: ColumnElement>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    col: &Column,
    bits: u32,
) -> (DeviceBuffer<K>, Column, Vec<u32>) {
    match col {
        Column::I32(v) => {
            let p = radix_partition(dev, keys, v, bits);
            (p.keys, Column::I32(p.vals), p.offsets)
        }
        Column::I64(v) => {
            let p = radix_partition(dev, keys, v, bits);
            (p.keys, Column::I64(p.vals), p.offsets)
        }
    }
}

fn choose_bits(dev: &Device, n: usize, key_bytes: u64, config: &GroupByConfig) -> u32 {
    if let Some(b) = config.radix_bits {
        return b;
    }
    let target = dev.config().shared_mem_tuples(key_bytes + 8).max(64);
    let parts = (n as u64).div_ceil(target).max(1);
    (64 - (parts - 1).leading_zeros()).clamp(1, 16)
}

/// Radix-partitioned grouped aggregation; `gftr` selects the pattern.
pub fn partitioned_groupby(
    dev: &Device,
    input: &Relation,
    aggs: &[AggFn],
    config: &GroupByConfig,
    gftr: bool,
) -> GroupByOutput {
    fn typed<K: ColumnElement>(
        keys: &DeviceBuffer<K>,
        dev: &Device,
        input: &Relation,
        aggs: &[AggFn],
        config: &GroupByConfig,
        gftr: bool,
    ) -> GroupByOutput {
        dev.reset_peak_mem();
        let mut phases = PhaseTimes::default();
        let n = keys.len();
        let bits = choose_bits(dev, n.max(1), K::SIZE, config);

        // Transformation: partition keys with col_0 (GFTR) or with IDs
        // (GFUR). Offsets come from the partitioner's histogram + scan.
        let t0 = dev.elapsed();
        let (part_keys, mut first_col, part_ids, offsets) = if gftr && !input.payloads().is_empty()
        {
            let (k, c, off) = partition_col_with_key(dev, keys, input.payload(0), bits);
            (k, Some(c), None, off)
        } else {
            let ids = dev.upload((0..n as u32).collect::<Vec<u32>>(), "part_gb.ids");
            dev.kernel("iota")
                .items(n as u64, STREAM_WARP_INSTR)
                .seq_write_bytes(n as u64 * 4)
                .launch();
            let p = radix_partition(dev, keys, &ids, bits);
            (p.keys, None, Some(p.vals), p.offsets)
        };
        phases.transform = crate::phase_mark(dev, "transform", t0);

        // Group finding: per-partition shared-memory tables assign each row
        // a global group id (one streaming pass writing the group-id column
        // and the distinct keys).
        let t0 = dev.elapsed();
        let mut group_keys: Vec<K> = Vec::new();
        let mut row_group: Vec<u32> = Vec::with_capacity(n);
        {
            // Partitions are contiguous and a key's partition is its low
            // radix bits, so one reusable open-addressing table of (radix
            // key, group id), reset at each partition like the simulated
            // shared-memory table, finds every group. Ids are assigned in
            // first-seen order.
            let mut table: Vec<(u64, u32)> = Vec::new();
            let part_keys = part_keys.as_slice();
            for bounds in offsets.windows(2) {
                let rows = &part_keys[bounds[0] as usize..bounds[1] as usize];
                let slots = (rows.len() * 2).next_power_of_two();
                let mask = slots - 1;
                table.clear();
                table.resize(slots, (0, u32::MAX));
                for &pk in rows {
                    let k = pk.to_radix();
                    let mut s = slot_of(k, mask);
                    let g = loop {
                        match table[s] {
                            (_, u32::MAX) => {
                                let g = group_keys.len() as u32;
                                table[s] = (k, g);
                                group_keys.push(pk);
                                break g;
                            }
                            (key, g) if key == k => break g,
                            _ => s = (s + 1) & mask,
                        }
                    };
                    row_group.push(g);
                }
            }
            dev.kernel("part_gb.group_find")
                .items(n as u64, BUILD_WARP_INSTR)
                .seq_read_bytes(n as u64 * K::SIZE)
                .seq_write_bytes(n as u64 * 4 + group_keys.len() as u64 * K::SIZE)
                .launch();
        }
        let row_group = dev.upload(row_group, "part_gb.row_group");
        phases.match_find = crate::phase_mark(dev, "match_find", t0);
        let groups = group_keys.len();

        // Aggregation: per column. GFTR re-partitions the column (identical
        // layout by stability) and streams; GFUR gathers unclustered.
        let t0 = dev.elapsed();
        let mut aggregates = Vec::with_capacity(aggs.len());
        for (j, agg) in aggs.iter().enumerate() {
            let ordered: Column = if gftr {
                if j == 0 {
                    first_col
                        .take()
                        .expect("gftr with payloads partitions col 0")
                } else {
                    partition_col_with_key(dev, keys, input.payload(j), bits).1
                }
            } else {
                let ids = part_ids.as_ref().expect("gfur partitioned ids");
                gather_column(dev, input.payload(j), ids)
            };
            // Streaming fold into shared-memory accumulators (group ids are
            // partition-local on hardware; charged as a streaming pass).
            let mut accs = vec![agg.identity(); groups];
            for (i, &g) in row_group.iter().enumerate() {
                accs[g as usize] = agg.fold(accs[g as usize], ordered.value(i));
            }
            dev.kernel("part_gb.aggregate")
                .items(n as u64, STREAM_WARP_INSTR)
                .seq_read_bytes(n as u64 * (ordered.dtype().size() + 4))
                .seq_write_bytes(groups as u64 * 8)
                .launch();
            aggregates.push(Column::from_i64(dev, accs, "part_gb.out"));
        }
        phases.materialize = crate::phase_mark(dev, "materialize", t0);

        GroupByOutput {
            keys: K::wrap(dev.upload(group_keys, "part_gb.group_keys")),
            aggregates,
            stats: GroupByStats::new(
                if gftr {
                    GroupByAlgorithm::PartitionedGftr
                } else {
                    GroupByAlgorithm::PartitionedGfur
                },
                phases,
                groups,
                dev.mem_report().peak_bytes,
            ),
        }
    }
    dispatch_key_column(
        input.key(),
        |k| typed(k, dev, input, aggs, config, gftr),
        |k| typed(k, dev, input, aggs, config, gftr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::group_by_oracle;
    use columnar::Column;
    use sim::Device;

    fn check(dev: &Device, input: &Relation, aggs: &[AggFn], config: &GroupByConfig) {
        for gftr in [true, false] {
            let out = partitioned_groupby(dev, input, aggs, config, gftr);
            assert_eq!(
                out.rows_sorted(),
                group_by_oracle(input, aggs),
                "gftr={gftr}"
            );
        }
    }

    #[test]
    fn matches_oracle() {
        let dev = Device::a100();
        let keys: Vec<i32> = (0..4000).map(|i| (i * 17) % 257).collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, keys.clone(), "k"),
            vec![
                Column::from_i32(&dev, keys.iter().map(|&k| k * 2).collect(), "v"),
                Column::from_i64(&dev, keys.iter().map(|&k| 1000 - k as i64).collect(), "w"),
            ],
        );
        check(
            &dev,
            &input,
            &[AggFn::Sum, AggFn::Min],
            &GroupByConfig::default(),
        );
    }

    #[test]
    fn explicit_bits_partition_groups_correctly() {
        let dev = Device::a100();
        let keys: Vec<i32> = (0..2000).map(|i| (i % 700) - 350).collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, keys.clone(), "k"),
            vec![Column::from_i32(
                &dev,
                keys.iter().map(|&k| k.abs()).collect(),
                "v",
            )],
        );
        for bits in [1, 5, 9] {
            check(
                &dev,
                &input,
                &[AggFn::Max],
                &GroupByConfig {
                    radix_bits: Some(bits),
                    ..GroupByConfig::default()
                },
            );
        }
    }

    #[test]
    fn i64_keys() {
        let dev = Device::a100();
        let keys: Vec<i64> = (0..1500).map(|i| ((i % 37) as i64) << 33).collect();
        let input = Relation::new(
            "T",
            Column::from_i64(&dev, keys.clone(), "k"),
            vec![Column::from_i32(&dev, (0..1500).collect(), "v")],
        );
        check(&dev, &input, &[AggFn::Sum], &GroupByConfig::default());
    }

    #[test]
    fn empty_input() {
        let dev = Device::a100();
        let input = Relation::new("T", Column::from_i32(&dev, vec![], "k"), vec![]);
        let out = partitioned_groupby(&dev, &input, &[], &GroupByConfig::default(), true);
        assert!(out.is_empty());
    }

    #[test]
    fn partitioning_is_skew_robust_compared_to_hash() {
        // The radix partitioner gives every thread equal work regardless of
        // the key distribution; the global hash table serializes on the hot
        // group. (Figure 14's story carried over to aggregation.)
        let dev = Device::a100();
        let n = 1 << 17;
        // Wide group domain: too many groups for shared-memory
        // privatization, so the hash table pays hot-group atomics.
        let skewed: Vec<i32> = (0..n)
            .map(|i| if i % 10 == 0 { i % 65536 } else { 1 })
            .collect();
        let input = Relation::new(
            "T",
            Column::from_i32(&dev, skewed.clone(), "k"),
            vec![Column::from_i32(&dev, skewed, "v")],
        );
        let cfg = GroupByConfig::default();
        let part = partitioned_groupby(&dev, &input, &[AggFn::Sum], &cfg, true);
        let hash = crate::hash::hash_groupby(&dev, &input, &[AggFn::Sum], &cfg);
        assert_eq!(part.rows_sorted(), hash.rows_sorted());
        assert!(
            part.stats.phases.total() < hash.stats.phases.total(),
            "partitioned {} should beat contended hash {}",
            part.stats.phases.total(),
            hash.stats.phases.total()
        );
    }
}
