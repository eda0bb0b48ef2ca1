//! Per-row state materialized one block at a time.
//!
//! A DRAM bank has tens of thousands of rows, but a simulated slice
//! touches only a few of its subarrays. [`RowBlocks`] stores one value per
//! row in fixed-size blocks (one per subarray, in practice) and allocates a
//! block only when one of its rows is first written. Rows of an absent
//! block read as `T::default()`, so callers whose "never touched" state is
//! the default never observe the difference.

/// One `T` per row, in blocks of `block_rows` rows that are allocated on
/// first write.
#[derive(Debug, Clone)]
pub struct RowBlocks<T> {
    rows: u32,
    block_rows: u32,
    blocks: Vec<Option<Box<[T]>>>,
}

impl<T: Copy + Default> RowBlocks<T> {
    /// Creates `rows` rows in blocks of `block_rows`, none allocated. The
    /// last block is short when `block_rows` does not divide `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `block_rows == 0`.
    pub fn new(rows: u32, block_rows: u32) -> Self {
        assert!(block_rows > 0, "blocks need rows");
        RowBlocks {
            rows,
            block_rows,
            blocks: vec![None; rows.div_ceil(block_rows) as usize],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Rows per block.
    pub fn block_rows(&self) -> u32 {
        self.block_rows
    }

    /// Number of blocks allocated so far.
    pub fn allocated_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// The value of `row` (`T::default()` in an absent block).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn get(&self, row: u32) -> T {
        assert!(row < self.rows, "row {row} out of range");
        let (b, i) = self.split(row);
        self.blocks[b]
            .as_ref()
            .map_or_else(T::default, |blk| blk[i])
    }

    /// Mutable access to `row`, allocating its block if absent.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn get_mut(&mut self, row: u32) -> &mut T {
        assert!(row < self.rows, "row {row} out of range");
        let (b, i) = self.split(row);
        &mut self.block_mut(b)[i]
    }

    /// Block `b`'s rows, allocating the block if absent.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_mut(&mut self, b: usize) -> &mut [T] {
        let len = self.block_len(b);
        self.blocks[b].get_or_insert_with(|| vec![T::default(); len].into_boxed_slice())
    }

    /// Block `b`'s rows, or `None` if the block is absent.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn existing_block_mut(&mut self, b: usize) -> Option<&mut [T]> {
        self.blocks[b].as_deref_mut()
    }

    /// Allocates every block (a dense reference layout).
    pub fn allocate_all(&mut self) {
        for b in 0..self.blocks.len() {
            self.block_mut(b);
        }
    }

    /// The allocated blocks in ascending order, each with its first row.
    pub fn allocated(&self) -> impl Iterator<Item = (u32, &[T])> + '_ {
        let per = self.block_rows;
        self.blocks
            .iter()
            .enumerate()
            .filter_map(move |(b, blk)| blk.as_deref().map(|blk| (b as u32 * per, blk)))
    }

    /// Mutable [`allocated`](Self::allocated) without the row offsets.
    pub fn allocated_mut(&mut self) -> impl Iterator<Item = &mut [T]> + '_ {
        self.blocks.iter_mut().filter_map(|blk| blk.as_deref_mut())
    }

    #[inline]
    fn split(&self, row: u32) -> (usize, usize) {
        (
            (row / self.block_rows) as usize,
            (row % self.block_rows) as usize,
        )
    }

    fn block_len(&self, b: usize) -> usize {
        let start = b as u32 * self.block_rows;
        assert!(start < self.rows, "block {b} out of range");
        self.block_rows.min(self.rows - start) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_rows_read_default_without_allocating() {
        let b: RowBlocks<u32> = RowBlocks::new(64, 16);
        assert_eq!(b.get(0), 0);
        assert_eq!(b.get(63), 0);
        assert_eq!(b.allocated_blocks(), 0);
    }

    #[test]
    fn first_write_allocates_one_block() {
        let mut b: RowBlocks<u32> = RowBlocks::new(64, 16);
        *b.get_mut(20) += 3;
        assert_eq!(b.allocated_blocks(), 1);
        assert_eq!(b.get(20), 3);
        assert_eq!(b.get(21), 0);
        let allocated: Vec<(u32, usize)> = b.allocated().map(|(r, s)| (r, s.len())).collect();
        assert_eq!(allocated, vec![(16, 16)]);
        assert!(b.existing_block_mut(0).is_none());
        assert!(b.existing_block_mut(1).is_some());
    }

    #[test]
    fn short_last_block() {
        let mut b: RowBlocks<u8> = RowBlocks::new(40, 16);
        b.allocate_all();
        let lens: Vec<usize> = b.allocated().map(|(_, s)| s.len()).collect();
        assert_eq!(lens, vec![16, 16, 8]);
        *b.get_mut(39) = 1;
        assert_eq!(b.get(39), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_panics() {
        let b: RowBlocks<u32> = RowBlocks::new(64, 16);
        let _ = b.get(64);
    }
}
