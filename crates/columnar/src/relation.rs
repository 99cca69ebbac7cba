//! Relations: a key column plus payload columns, per Section 2.2 of the
//! paper — `R(k, r_1, ..., r_n)`.

use crate::Column;

/// An in-memory relation with one join-key column and `n` payload columns.
///
/// The paper's classification (Section 2.2): a join is *narrow* when each
/// input has at most one payload column and *wide* otherwise; wide joins are
/// where the materialization bottleneck (and the GFTR optimization) lives.
pub struct Relation {
    name: String,
    key: Column,
    payloads: Vec<Column>,
}

impl Relation {
    /// Assemble a relation. Panics if any payload column's length differs
    /// from the key column's — a relation is rectangular by construction.
    pub fn new(name: impl Into<String>, key: Column, payloads: Vec<Column>) -> Self {
        let name = name.into();
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(
                p.len(),
                key.len(),
                "payload column {i} of relation '{name}' has {} rows, key has {}",
                p.len(),
                key.len()
            );
        }
        Relation {
            name,
            key,
            payloads,
        }
    }

    /// Relation name (for diagnostics and benchmark tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The join-key column.
    pub fn key(&self) -> &Column {
        &self.key
    }

    /// All payload (non-key) columns, in schema order.
    pub fn payloads(&self) -> &[Column] {
        &self.payloads
    }

    /// Payload column `i`.
    pub fn payload(&self, i: usize) -> &Column {
        &self.payloads[i]
    }

    /// Number of payload columns.
    pub fn num_payloads(&self) -> usize {
        self.payloads.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }

    /// Total size in bytes across key and payload columns (the paper's
    /// `1G ⋈ 2G` notation refers to this).
    pub fn size_bytes(&self) -> u64 {
        self.key.size_bytes() + self.payloads.iter().map(Column::size_bytes).sum::<u64>()
    }

    /// More than one payload column ⇒ the join is "wide" on this side.
    pub fn is_wide(&self) -> bool {
        self.payloads.len() > 1
    }

    /// Row `i` as widened values: `(key, payloads...)`. Oracle/test helper.
    pub fn row(&self, i: usize) -> (i64, Vec<i64>) {
        (
            self.key.value(i),
            self.payloads.iter().map(|p| p.value(i)).collect(),
        )
    }
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relation")
            .field("name", &self.name)
            .field("rows", &self.len())
            .field("key", &self.key.dtype())
            .field(
                "payloads",
                &self.payloads.iter().map(|p| p.dtype()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    #[test]
    fn assembles_and_reports_shape() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, vec![0, 1, 2], "k"),
            vec![
                Column::from_i32(&dev, vec![5, 6, 7], "p1"),
                Column::from_i64(&dev, vec![50, 60, 70], "p2"),
            ],
        );
        assert_eq!(r.len(), 3);
        assert_eq!(r.num_payloads(), 2);
        assert!(r.is_wide());
        assert_eq!(r.size_bytes(), 3 * 4 + 3 * 4 + 3 * 8);
        assert_eq!(r.row(1), (1, vec![6, 60]));
    }

    #[test]
    fn narrow_relation() {
        let dev = Device::a100();
        let r = Relation::new(
            "S",
            Column::from_i32(&dev, vec![0, 1], "k"),
            vec![Column::from_i32(&dev, vec![9, 8], "p")],
        );
        assert!(!r.is_wide());
    }

    #[test]
    #[should_panic(expected = "payload column 0")]
    fn ragged_relation_rejected() {
        let dev = Device::a100();
        let _ = Relation::new(
            "R",
            Column::from_i32(&dev, vec![0, 1, 2], "k"),
            vec![Column::from_i32(&dev, vec![5], "p1")],
        );
    }
}
