//! A typed column living in simulated device memory.

use crate::DType;
use sim::{Device, DeviceBuffer};

/// One column of a relation: a contiguous typed array in device memory.
///
/// Columns are immutable once built (all operators produce new columns), so
/// cheap read access is the design point. Dispatch between the two physical
/// types is done once per column per kernel, never per element.
pub enum Column {
    /// 4-byte signed integers.
    I32(DeviceBuffer<i32>),
    /// 8-byte signed integers.
    I64(DeviceBuffer<i64>),
}

impl Column {
    /// Build a 4-byte column from host data.
    pub fn from_i32(dev: &Device, data: Vec<i32>, label: &'static str) -> Self {
        Column::I32(dev.upload(data, label))
    }

    /// Build an 8-byte column from host data.
    pub fn from_i64(dev: &Device, data: Vec<i64>, label: &'static str) -> Self {
        Column::I64(dev.upload(data, label))
    }

    /// Build a column of `dtype` from `u64` radix images (values must fit).
    pub fn from_radix(dev: &Device, dtype: DType, data: &[u64], label: &'static str) -> Self {
        match dtype {
            DType::I32 => Column::from_i32(
                dev,
                data.iter().map(|&v| sim::Element::from_radix(v)).collect(),
                label,
            ),
            DType::I64 => Column::from_i64(
                dev,
                data.iter().map(|&v| sim::Element::from_radix(v)).collect(),
                label,
            ),
        }
    }

    /// The physical type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::I32(_) => DType::I32,
            Column::I64(_) => DType::I64,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::I32(b) => b.len(),
            Column::I64(b) => b.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.dtype().size()
    }

    /// Typed access to a 4-byte column. Panics if the type differs — callers
    /// dispatch on [`Column::dtype`] first.
    pub fn as_i32(&self) -> &DeviceBuffer<i32> {
        match self {
            Column::I32(b) => b,
            Column::I64(_) => panic!("column is I64, expected I32"),
        }
    }

    /// Typed access to an 8-byte column.
    pub fn as_i64(&self) -> &DeviceBuffer<i64> {
        match self {
            Column::I64(b) => b,
            Column::I32(_) => panic!("column is I32, expected I64"),
        }
    }

    /// Element `i` widened to `i64` (for oracles, checks and display — not on
    /// any hot path).
    pub fn value(&self, i: usize) -> i64 {
        match self {
            Column::I32(b) => b[i] as i64,
            Column::I64(b) => b[i],
        }
    }

    /// Iterate all values widened to `i64`.
    pub fn iter_i64(&self) -> Box<dyn Iterator<Item = i64> + '_> {
        match self {
            Column::I32(b) => Box::new(b.iter().map(|&v| v as i64)),
            Column::I64(b) => Box::new(b.iter().copied()),
        }
    }

    /// Simulated device address of row `i` (feeds the coalescing model).
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        match self {
            Column::I32(b) => b.addr_of(i),
            Column::I64(b) => b.addr_of(i),
        }
    }

    /// Collect to a host vector of widened values (test/oracle helper).
    pub fn to_vec_i64(&self) -> Vec<i64> {
        self.iter_i64().collect()
    }

    /// A zero-cost aliasing view of the column (see
    /// [`sim::DeviceBuffer::alias`]): same simulated addresses and host
    /// storage, no ledger charge. Used by the query engine to hand columns
    /// between operators without copying.
    pub fn alias(&self) -> Column {
        match self {
            Column::I32(b) => Column::I32(b.alias()),
            Column::I64(b) => Column::I64(b.alias()),
        }
    }
}

/// Statically typed view of [`Column`] for generic operator code: wraps and
/// unwraps typed device buffers so join/aggregation kernels can be written
/// once over `K: ColumnElement` and dispatched per input column type.
pub trait ColumnElement: sim::Element + Ord + Eq + std::hash::Hash {
    /// Wrap a typed buffer into a dynamically typed column.
    fn wrap(buf: DeviceBuffer<Self>) -> Column;
    /// Borrow the typed buffer out of a column; panics on type mismatch.
    fn unwrap(col: &Column) -> &DeviceBuffer<Self>;
}

impl ColumnElement for i32 {
    fn wrap(buf: DeviceBuffer<Self>) -> Column {
        Column::I32(buf)
    }
    fn unwrap(col: &Column) -> &DeviceBuffer<Self> {
        col.as_i32()
    }
}

impl ColumnElement for i64 {
    fn wrap(buf: DeviceBuffer<Self>) -> Column {
        Column::I64(buf)
    }
    fn unwrap(col: &Column) -> &DeviceBuffer<Self> {
        col.as_i64()
    }
}

impl std::fmt::Debug for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Column")
            .field("dtype", &self.dtype())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    #[test]
    fn typed_accessors() {
        let dev = Device::a100();
        let c = Column::from_i32(&dev, vec![1, -2, 3], "c");
        assert_eq!(c.dtype(), DType::I32);
        assert_eq!(c.len(), 3);
        assert_eq!(c.size_bytes(), 12);
        assert_eq!(c.value(1), -2);
        assert_eq!(c.to_vec_i64(), vec![1, -2, 3]);
        assert_eq!(c.as_i32().as_slice(), &[1, -2, 3]);
    }

    #[test]
    #[should_panic(expected = "expected I32")]
    fn wrong_type_access_panics() {
        let dev = Device::a100();
        let c = Column::from_i64(&dev, vec![1], "c");
        let _ = c.as_i32();
    }

    #[test]
    fn from_radix_roundtrips_signed_values() {
        let dev = Device::a100();
        use sim::Element;
        let vals = [-5i64, 0, 7, i32::MAX as i64];
        let radix: Vec<u64> = vals.iter().map(|&v| (v as i32).to_radix()).collect();
        let c = Column::from_radix(&dev, DType::I32, &radix, "c");
        assert_eq!(c.to_vec_i64(), vals.to_vec());
        let radix64: Vec<u64> = vals.iter().map(|&v| v.to_radix()).collect();
        let c = Column::from_radix(&dev, DType::I64, &radix64, "c");
        assert_eq!(c.to_vec_i64(), vals.to_vec());
    }

    #[test]
    fn addresses_are_stride_typed() {
        let dev = Device::a100();
        let c4 = Column::from_i32(&dev, vec![0; 8], "c4");
        let c8 = Column::from_i64(&dev, vec![0; 8], "c8");
        assert_eq!(c4.addr_of(2) - c4.addr_of(0), 8);
        assert_eq!(c8.addr_of(2) - c8.addr_of(0), 16);
    }
}
