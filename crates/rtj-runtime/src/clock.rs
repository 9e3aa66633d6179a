//! Virtual clock and the cost model.
//!
//! All costs are in abstract *cycles*. The model mirrors the cost structure
//! of the authors' RTSJ platform: LT allocation is linear in object size
//! (pointer slide + zeroing), VT allocation pays an extra variable-cost
//! component when a fresh chunk is needed, heap allocation is the most
//! expensive (and accrues garbage-collector debt), and the RTSJ dynamic
//! checks add a fixed cost to every checked reference load/store.

/// Cycle costs for the simulated platform. All fields are public so
/// experiments can ablate individual costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of a basic interpreter step (arithmetic, variable access).
    pub step: u64,
    /// Cost of an (unchecked) field load or store.
    pub field_access: u64,
    /// RTSJ assignment check on a reference store (scope-stack walk).
    pub store_check: u64,
    /// RTSJ reference check on a reference load by a real-time thread /
    /// heap-reference test.
    pub load_check: u64,
    /// Fixed part of any allocation.
    pub alloc_base: u64,
    /// Per-8-bytes zeroing cost (applies to every allocation: all bytes
    /// are zeroed).
    pub zero_per_word: u64,
    /// Extra cost when a VT region must grab a fresh chunk.
    pub vt_chunk: u64,
    /// VT chunk size in bytes.
    pub vt_chunk_bytes: u64,
    /// Extra cost of a heap allocation (synchronization with the GC).
    pub heap_alloc: u64,
    /// Cost of creating a region (bookkeeping; LT adds zeroed capacity).
    pub region_create: u64,
    /// Cost of entering or exiting a (shared) region, including the
    /// reference-count critical section.
    pub region_enter_exit: u64,
    /// Cost of a method call frame.
    pub call: u64,
    /// Garbage collector: bytes of heap allocation that trigger one
    /// collection.
    pub gc_threshold_bytes: u64,
    /// Garbage collector: pause length in cycles per collection.
    pub gc_pause: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            step: 1,
            field_access: 1,
            store_check: 42,
            load_check: 10,
            alloc_base: 24,
            zero_per_word: 1,
            vt_chunk: 160,
            vt_chunk_bytes: 4096,
            heap_alloc: 40,
            region_create: 60,
            region_enter_exit: 12,
            call: 4,
            gc_threshold_bytes: 1 << 20,
            gc_pause: 200_000,
        }
    }
}

impl CostModel {
    /// The zeroing cost for `bytes` bytes.
    pub fn zeroing(&self, bytes: u64) -> u64 {
        self.zero_per_word * bytes.div_ceil(8)
    }
}

/// A monotone virtual clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    now: u64,
}

impl Clock {
    /// Creates a clock at cycle 0.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current cycle count.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances by `cycles`, pinning at `u64::MAX`: a program can ask
    /// for more work than the count holds, and saturating sums of
    /// non-negative costs agree in any order.
    pub fn advance(&mut self, cycles: u64) {
        self.now = self.now.saturating_add(cycles);
    }

    /// Advances the clock to at least `target`.
    pub fn advance_to(&mut self, target: u64) {
        self.now = self.now.max(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), 0);
        c.advance(10);
        assert_eq!(c.now(), 10);
        c.advance_to(5);
        assert_eq!(c.now(), 10, "advance_to never goes backwards");
        c.advance_to(25);
        assert_eq!(c.now(), 25);
    }

    #[test]
    fn zeroing_rounds_up_to_words() {
        let m = CostModel::default();
        assert_eq!(m.zeroing(0), 0);
        assert_eq!(m.zeroing(1), 1);
        assert_eq!(m.zeroing(8), 1);
        assert_eq!(m.zeroing(9), 2);
        assert_eq!(m.zeroing(64), 8);
    }
}
