use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sbx_simmem::{AllocError, MemEnv, MemKind, PoolVec, Priority};

use crate::{Col, EventTime, Schema};

static NEXT_BUNDLE_ID: AtomicU32 = AtomicU32::new(1);

/// Process-unique identifier of a [`RecordBundle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BundleId(pub u32);

impl fmt::Display for BundleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

/// A pointer to one record: which bundle it lives in and its row index.
///
/// `RecordRef`s pack into a single `u64`, preserving the paper's invariant
/// that all grouping primitives "operate on 64-bit value key/pointer pairs"
/// (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordRef {
    /// The bundle holding the record.
    pub bundle: BundleId,
    /// Row index within the bundle.
    pub row: u32,
}

impl RecordRef {
    /// Packs the reference into a `u64` (bundle id in the high 32 bits).
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.bundle.0 as u64) << 32) | self.row as u64
    }

    /// Unpacks a reference produced by [`RecordRef::pack`].
    #[inline]
    pub fn unpack(raw: u64) -> RecordRef {
        RecordRef {
            bundle: BundleId((raw >> 32) as u32),
            row: raw as u32,
        }
    }
}

/// An immutable, row-format batch of records living in DRAM.
///
/// Bundles are the unit of data parallelism (paper Fig. 1c): the runtime
/// divides windows into bundles and schedules tasks per bundle. A bundle is
/// never modified after construction; grouping results are expressed as Key
/// Pointer Arrays that reference bundle rows. Memory is accounted against
/// the environment's DRAM pool and returns to it when the last
/// `Arc<RecordBundle>` drops.
pub struct RecordBundle {
    id: BundleId,
    schema: Arc<Schema>,
    data: PoolVec,
    rows: usize,
    /// The allocating environment: its live-bundle count (and, with the
    /// sanitizer, its shadow entry) is released when the last
    /// `Arc<RecordBundle>` drops.
    env: MemEnv,
}

impl RecordBundle {
    /// Builds a bundle from row-major record data
    /// (`rows.len()` must be a multiple of the schema's column count).
    ///
    /// The bundle is allocated from the environment's **DRAM** pool — full
    /// records never live in HBM (paper §3).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if DRAM is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `schema.ncols()`.
    pub fn from_rows(
        env: &MemEnv,
        schema: Arc<Schema>,
        rows: &[u64],
    ) -> Result<Arc<Self>, AllocError> {
        let ncols = schema.ncols();
        assert!(
            rows.len().is_multiple_of(ncols),
            "row data length {} not a multiple of column count {}",
            rows.len(),
            ncols
        );
        let mut data = env
            .pool(MemKind::Dram)
            .alloc_u64(rows.len().max(1), Priority::Normal)?;
        data.extend_from_slice(rows);
        let nrows = rows.len() / ncols;
        env.note_bundle_alloc();
        // sbx-lint: allow(atomic-ordering, monotonic id counter; uniqueness is all that matters)
        let id = BundleId(NEXT_BUNDLE_ID.fetch_add(1, Ordering::Relaxed));
        #[cfg(feature = "sanitize")]
        env.sanitizer()
            .register(id.0 as u64, nrows as u32, MemKind::Dram.index() as u8);
        Ok(Arc::new(RecordBundle {
            id,
            schema,
            data,
            rows: nrows,
            env: env.clone(),
        }))
    }

    /// This bundle's process-unique id.
    pub fn id(&self) -> BundleId {
        self.id
    }

    /// The record schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of records.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the bundle holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bytes of record data.
    pub fn bytes(&self) -> usize {
        self.rows * self.schema.record_bytes()
    }

    /// The value at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn value(&self, row: usize, col: Col) -> u64 {
        assert!(col.0 < self.schema.ncols(), "{col} out of range");
        self.data[row * self.schema.ncols() + col.0]
    }

    /// The event timestamp of `row`.
    #[inline]
    pub fn ts(&self, row: usize) -> EventTime {
        EventTime(self.value(row, self.schema.ts_col()))
    }

    /// The full row as a slice of column values.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        let n = self.schema.ncols();
        &self.data[row * n..(row + 1) * n]
    }

    /// A [`RecordRef`] to `row`.
    #[inline]
    pub fn record_ref(&self, row: usize) -> RecordRef {
        debug_assert!(row < self.rows);
        RecordRef {
            bundle: self.id,
            row: row as u32,
        }
    }

    /// Iterates over the rows as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }
}

impl fmt::Debug for RecordBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordBundle")
            .field("id", &self.id)
            .field("rows", &self.rows)
            .field("ncols", &self.schema.ncols())
            .finish()
    }
}

impl Drop for RecordBundle {
    fn drop(&mut self) {
        self.env.note_bundle_free();
        #[cfg(feature = "sanitize")]
        self.env.sanitizer().free(self.id.0 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_simmem::MachineConfig;

    fn env() -> MemEnv {
        MemEnv::new(MachineConfig::knl().scaled(0.01))
    }

    #[test]
    fn from_rows_round_trips_values() {
        let env = env();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 10, 100, 2, 20, 200]).unwrap();
        assert_eq!(b.rows(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.value(0, Col(0)), 1);
        assert_eq!(b.value(1, Col(1)), 20);
        assert_eq!(b.ts(1), EventTime(200));
        assert_eq!(b.row(0), &[1, 10, 100]);
        assert_eq!(b.bytes(), 48);
        let rows: Vec<_> = b.iter().collect();
        assert_eq!(rows, vec![&[1u64, 10, 100][..], &[2, 20, 200][..]]);
    }

    #[test]
    fn bundle_ids_are_unique() {
        let env = env();
        let a = RecordBundle::from_rows(&env, Schema::kvt(), &[0, 0, 0]).unwrap();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[0, 0, 0]).unwrap();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn record_ref_packs_and_unpacks() {
        let r = RecordRef {
            bundle: BundleId(0xDEAD_BEEF),
            row: 0x1234_5678,
        };
        assert_eq!(RecordRef::unpack(r.pack()), r);
    }

    #[test]
    fn memory_is_accounted_against_dram_and_released() {
        let env = env();
        let before = env.pool(MemKind::Dram).used_bytes();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &vec![0u64; 3000]).unwrap();
        assert!(env.pool(MemKind::Dram).used_bytes() > before);
        assert_eq!(env.pool(MemKind::Hbm).used_bytes(), 0);
        assert_eq!(env.live_bundles(), 1);
        drop(b);
        assert_eq!(env.live_bundles(), 0);
    }

    #[test]
    fn live_count_is_per_env() {
        // Bundles of another environment (another run, another test in
        // the same process) never show in this environment's count.
        let (a, b) = (env(), env());
        let on_a = RecordBundle::from_rows(&a, Schema::kvt(), &[1, 2, 3]).unwrap();
        let on_b = RecordBundle::from_rows(&b, Schema::kvt(), &[4, 5, 6, 7, 8, 9]).unwrap();
        assert_eq!(a.live_bundles(), 1);
        assert_eq!(b.live_bundles(), 1);
        drop(on_a);
        assert_eq!(a.live_bundles(), 0);
        assert_eq!(b.live_bundles(), 1);
        drop(on_b);
        assert_eq!(b.live_bundles(), 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_rows_rejected() {
        let env = env();
        let _ = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 2]);
    }

    #[test]
    fn empty_bundle_is_valid() {
        let env = env();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[]).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
    }
}
