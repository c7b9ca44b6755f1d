use std::collections::VecDeque;

use crate::Cycle;

/// One pending LHS non-zero waiting for an in-flight RHS row (an entry of
/// the LHS-ID table of Figure 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waiter {
    /// The O-BUF output row this non-zero accumulates into.
    pub output_row: u32,
    /// The LHS sparse value to multiply with the returning RHS row.
    pub lhs_value: f64,
}

/// Outcome of trying to issue an HDN-cache-missed RHS row request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// A new LDN-table entry was allocated; the caller must start the DRAM
    /// fetch and then call [`RunaheadTables::set_completion`].
    Allocated,
    /// The row was already in flight; the waiter piggy-backs on the
    /// existing LDN entry (MSHR-style coalescing).
    Coalesced,
    /// The LDN table is full: runahead must stall until a fetch returns.
    LdnFull,
    /// The LHS-ID table is full: runahead must stall until a fetch returns.
    LhsFull,
}

/// One LDN-table slot's storage, recycled across occupancies.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Position of this slot's row in the CAM while the slot is live.
    cam: u32,
    /// Whether the current occupancy's completion cycle is known.
    completed: bool,
    /// Cleared (not dropped) when the slot is re-allocated, so
    /// steady-state issue/drain traffic allocates nothing.
    waiters: Vec<Waiter>,
}

/// The runahead-execution bookkeeping of Section V-D: an `M`-entry LDN
/// table tracking HDN-cache-missed RHS rows in flight, and an `N`-entry
/// LHS-ID table holding the sparse values waiting on them (Figure 16;
/// defaults `M = 16`, `N = 64`).
///
/// Every operation but the row lookup is O(1):
/// - the live rows sit densely packed in a flat `u32` array (the CAM),
///   so a lookup compares at most `M` words and touches no slot;
/// - free slots come off a stack;
/// - entries whose completion is known wait in a ring sorted by
///   `(completion cycle, row id)`, so the earliest completion is its
///   front. A FIFO channel completes fetches in issue order, so
///   [`RunaheadTables::set_completion`] inserts at the back; an
///   out-of-order completion walks back to its place;
/// - the last allocated slot is remembered, so the usual
///   `issue` → `set_completion` pair looks the row up once, and so is
///   the row a full LDN table last turned away, so its retry after a
///   drain skips the lookup.
///
/// Slot storage — waiter lists included — is recycled, so steady-state
/// operation performs no heap allocation. [`RunaheadTables::reset`]
/// recycles the whole table for the next cluster.
///
/// ```
/// use grow_sim::{IssueOutcome, RunaheadTables, Waiter};
///
/// let mut t = RunaheadTables::new(16, 64);
/// let w = Waiter { output_row: 0, lhs_value: 1.5 };
/// assert_eq!(t.issue(7, w), IssueOutcome::Allocated);
/// t.set_completion(7, 120);
/// // Same row again from another output row: coalesced, no new fetch.
/// assert_eq!(t.issue(7, Waiter { output_row: 2, lhs_value: -0.5 }), IssueOutcome::Coalesced);
/// let (done, row, waiters) = t.pop_earliest().unwrap();
/// assert_eq!((done, row, waiters.len()), (120, 7, 2));
/// ```
#[derive(Debug, Clone)]
pub struct RunaheadTables {
    ldn_capacity: usize,
    lhs_capacity: usize,
    slots: Vec<Slot>,
    /// The CAM: the live rows, densely packed, and the slot of each.
    rows: Vec<u32>,
    row_slots: Vec<u32>,
    /// Slots not currently live.
    free: Vec<u32>,
    /// `(completion cycle, row, slot)` of every live entry whose
    /// completion is known, ascending by `(cycle, row)`.
    ready: VecDeque<(Cycle, u32, u32)>,
    /// `(row, slot)` of the most recent allocation while it is live.
    last_alloc: Option<(u32, u32)>,
    /// A row the last `LdnFull` found absent; pops only remove rows, so
    /// it stays absent until the next allocation.
    absent: Option<u32>,
    lhs_used: usize,
    peak_ldn: usize,
    peak_lhs: usize,
}

impl Default for RunaheadTables {
    /// Minimal 1/1-entry tables; call [`RunaheadTables::reset`] to size
    /// them before use.
    fn default() -> Self {
        RunaheadTables::new(1, 1)
    }
}

impl RunaheadTables {
    /// Creates empty tables with the given capacities (Table III defaults
    /// are 16 and 64).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(ldn_capacity: usize, lhs_capacity: usize) -> Self {
        let mut tables = RunaheadTables {
            ldn_capacity: 1,
            lhs_capacity: 1,
            slots: Vec::new(),
            rows: Vec::new(),
            row_slots: Vec::new(),
            free: Vec::new(),
            ready: VecDeque::new(),
            last_alloc: None,
            absent: None,
            lhs_used: 0,
            peak_ldn: 0,
            peak_lhs: 0,
        };
        tables.reset(ldn_capacity, lhs_capacity);
        tables
    }

    /// Recycles the tables: as if freshly constructed with
    /// `new(ldn_capacity, lhs_capacity)`, but reusing the slot storage and
    /// the waiter lists inside it.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn reset(&mut self, ldn_capacity: usize, lhs_capacity: usize) {
        assert!(
            ldn_capacity > 0 && lhs_capacity > 0,
            "table capacities must be positive"
        );
        self.ldn_capacity = ldn_capacity;
        self.lhs_capacity = lhs_capacity;
        self.rows.clear();
        self.row_slots.clear();
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        self.ready.clear();
        self.last_alloc = None;
        self.absent = None;
        self.lhs_used = 0;
        self.peak_ldn = 0;
        self.peak_lhs = 0;
    }

    /// LDN-table entries currently allocated.
    pub fn ldn_used(&self) -> usize {
        self.rows.len()
    }

    /// LHS-ID-table entries currently allocated.
    pub fn lhs_used(&self) -> usize {
        self.lhs_used
    }

    /// Largest simultaneous LDN occupancy observed.
    pub fn peak_ldn(&self) -> usize {
        self.peak_ldn
    }

    /// Largest simultaneous LHS occupancy observed.
    pub fn peak_lhs(&self) -> usize {
        self.peak_lhs
    }

    /// True if no fetches are in flight.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The slot holding live row `rhs_row`, if any.
    #[inline]
    fn find(&self, rhs_row: u32) -> Option<usize> {
        let at = self.rows.iter().position(|&r| r == rhs_row)?;
        Some(self.row_slots[at] as usize)
    }

    /// Attempts to register `waiter` for RHS row `rhs_row`.
    ///
    /// On [`IssueOutcome::Allocated`] the caller must perform the DRAM read
    /// and report its completion via [`RunaheadTables::set_completion`].
    /// On `LdnFull`/`LhsFull` nothing is recorded; the caller should drain
    /// one completion ([`RunaheadTables::pop_earliest`]) and retry.
    pub fn issue(&mut self, rhs_row: u32, waiter: Waiter) -> IssueOutcome {
        if self.lhs_used >= self.lhs_capacity {
            return IssueOutcome::LhsFull;
        }
        let live = match self.absent {
            Some(row) if row == rhs_row => None,
            _ => self.find(rhs_row),
        };
        let outcome = if let Some(s) = live {
            self.slots[s].waiters.push(waiter);
            IssueOutcome::Coalesced
        } else if self.rows.len() >= self.ldn_capacity {
            self.absent = Some(rhs_row);
            return IssueOutcome::LdnFull;
        } else {
            let s = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Slot::default());
                self.slots.len() as u32 - 1
            });
            let slot = &mut self.slots[s as usize];
            slot.cam = self.rows.len() as u32;
            slot.completed = false;
            slot.waiters.clear();
            slot.waiters.push(waiter);
            self.rows.push(rhs_row);
            self.row_slots.push(s);
            self.last_alloc = Some((rhs_row, s));
            self.absent = None;
            self.peak_ldn = self.peak_ldn.max(self.rows.len());
            IssueOutcome::Allocated
        };
        self.lhs_used += 1;
        self.peak_lhs = self.peak_lhs.max(self.lhs_used);
        outcome
    }

    /// Records the DRAM completion cycle of a newly allocated entry.
    ///
    /// # Panics
    ///
    /// Panics if `rhs_row` has no allocated entry or already has a
    /// completion time.
    pub fn set_completion(&mut self, rhs_row: u32, complete_at: Cycle) {
        let s = match self.last_alloc {
            Some((row, s)) if row == rhs_row => s as usize,
            _ => self.find(rhs_row).expect("entry must be allocated"),
        };
        let slot = &mut self.slots[s];
        assert!(!slot.completed, "completion already set");
        slot.completed = true;
        let key = (complete_at, rhs_row);
        let mut at = self.ready.len();
        while at > 0 && (self.ready[at - 1].0, self.ready[at - 1].1) > key {
            at -= 1;
        }
        self.ready.insert(at, (complete_at, rhs_row, s as u32));
    }

    /// Removes the in-flight row with the earliest completion and returns
    /// `(completion cycle, rhs row, waiters)`, borrowing the waiter list
    /// out of the recycled slot — the allocation-free form engines drain
    /// with. Returns `None` when no completed fetch is in flight.
    ///
    /// Ties on the completion cycle resolve to the smallest RHS row id
    /// (the same total order the paper's FIFO channel produces).
    pub fn pop_earliest_slice(&mut self) -> Option<(Cycle, u32, &[Waiter])> {
        let (done, row, s) = self.ready.pop_front()?;
        // Close the CAM's gap with its last entry.
        let at = self.slots[s as usize].cam as usize;
        self.rows.swap_remove(at);
        self.row_slots.swap_remove(at);
        if let Some(&moved) = self.row_slots.get(at) {
            self.slots[moved as usize].cam = at as u32;
        }
        self.free.push(s);
        if self.last_alloc.is_some_and(|(_, last)| last == s) {
            self.last_alloc = None;
        }
        let waiters = &self.slots[s as usize].waiters;
        self.lhs_used -= waiters.len();
        Some((done, row, waiters))
    }

    /// Like [`RunaheadTables::pop_earliest_slice`], returning the waiters
    /// by value.
    pub fn pop_earliest(&mut self) -> Option<(Cycle, u32, Vec<Waiter>)> {
        self.pop_earliest_slice()
            .map(|(done, row, waiters)| (done, row, waiters.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(row: u32) -> Waiter {
        Waiter {
            output_row: row,
            lhs_value: 1.0,
        }
    }

    #[test]
    fn allocate_then_drain() {
        let mut t = RunaheadTables::new(4, 8);
        assert_eq!(t.issue(10, w(0)), IssueOutcome::Allocated);
        t.set_completion(10, 50);
        assert_eq!(t.ldn_used(), 1);
        let (done, row, waiters) = t.pop_earliest().unwrap();
        assert_eq!((done, row), (50, 10));
        assert_eq!(waiters.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.lhs_used(), 0);
    }

    #[test]
    fn coalescing_shares_one_fetch() {
        // Figure 16's example: LDN nodes 1 and 2 miss; output rows 0, 2, 3
        // wait on them via three LHS-ID entries but only two LDN entries.
        let mut t = RunaheadTables::new(16, 64);
        assert_eq!(t.issue(1, w(0)), IssueOutcome::Allocated);
        t.set_completion(1, 100);
        assert_eq!(t.issue(2, w(2)), IssueOutcome::Allocated);
        t.set_completion(2, 110);
        assert_eq!(t.issue(1, w(3)), IssueOutcome::Coalesced);
        assert_eq!(t.ldn_used(), 2, "two LDN entries as in Figure 16");
        assert_eq!(t.lhs_used(), 3, "three LHS-ID entries as in Figure 16");
    }

    #[test]
    fn completions_drain_in_time_order() {
        let mut t = RunaheadTables::new(4, 8);
        t.issue(1, w(0));
        t.set_completion(1, 200);
        t.issue(2, w(1));
        t.set_completion(2, 150);
        assert_eq!(t.pop_earliest().unwrap().1, 2);
        assert_eq!(t.pop_earliest().unwrap().1, 1);
        assert!(t.pop_earliest().is_none());
    }

    #[test]
    fn completion_ties_resolve_by_row_id() {
        let mut t = RunaheadTables::new(4, 8);
        t.issue(9, w(0));
        t.set_completion(9, 100);
        t.issue(4, w(1));
        t.set_completion(4, 100);
        assert_eq!(t.pop_earliest().unwrap().1, 4, "smaller row id first");
        assert_eq!(t.pop_earliest().unwrap().1, 9);
    }

    #[test]
    fn ldn_capacity_blocks_new_rows() {
        let mut t = RunaheadTables::new(2, 8);
        t.issue(1, w(0));
        t.issue(2, w(0));
        assert_eq!(t.issue(3, w(0)), IssueOutcome::LdnFull);
        // Existing rows can still coalesce.
        assert_eq!(t.issue(1, w(1)), IssueOutcome::Coalesced);
    }

    #[test]
    fn lhs_capacity_blocks_everything() {
        let mut t = RunaheadTables::new(4, 2);
        t.issue(1, w(0));
        t.issue(1, w(1));
        assert_eq!(t.issue(1, w(2)), IssueOutcome::LhsFull);
        assert_eq!(t.issue(9, w(2)), IssueOutcome::LhsFull);
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut t = RunaheadTables::new(4, 8);
        t.issue(1, w(0));
        t.issue(2, w(0));
        t.issue(2, w(1));
        t.set_completion(1, 10);
        t.set_completion(2, 20);
        while t.pop_earliest().is_some() {}
        assert_eq!(t.peak_ldn(), 2);
        assert_eq!(t.peak_lhs(), 3);
    }

    #[test]
    fn reset_recycles_slots_without_stale_state() {
        let mut t = RunaheadTables::new(2, 4);
        t.issue(1, w(0));
        t.issue(2, w(1));
        t.set_completion(1, 10);
        t.reset(3, 6);
        assert!(t.is_empty());
        assert_eq!(t.lhs_used(), 0);
        assert_eq!(t.peak_ldn(), 0);
        // Rows in flight before the reset are gone; re-issuing allocates.
        assert_eq!(t.issue(1, w(5)), IssueOutcome::Allocated);
        t.set_completion(1, 99);
        let (done, row, waiters) = t.pop_earliest().unwrap();
        assert_eq!((done, row), (99, 1));
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].output_row, 5, "no waiters from a prior epoch");
    }

    #[test]
    fn pop_slice_matches_owned_pop() {
        let mut a = RunaheadTables::new(4, 8);
        let mut b = RunaheadTables::new(4, 8);
        for t in [&mut a, &mut b] {
            t.issue(3, w(0));
            t.issue(3, w(1));
            t.set_completion(3, 40);
        }
        let owned = a.pop_earliest().unwrap();
        let (done, row, slice) = b.pop_earliest_slice().unwrap();
        assert_eq!((owned.0, owned.1), (done, row));
        assert_eq!(owned.2.as_slice(), slice);
    }

    /// The linear-scan CAM these tables replaced: every lookup, slot
    /// search and earliest-completion search scans all slots. Kept as
    /// the reference for the differential test below.
    #[derive(Default)]
    struct LinearTables {
        ldn_capacity: usize,
        lhs_capacity: usize,
        /// `(row, live, completion, waiters)` per slot.
        slots: Vec<(u32, bool, Option<Cycle>, Vec<Waiter>)>,
        lhs_used: usize,
        peak_ldn: usize,
        peak_lhs: usize,
    }

    impl LinearTables {
        fn reset(&mut self, ldn_capacity: usize, lhs_capacity: usize) {
            *self = LinearTables {
                ldn_capacity,
                lhs_capacity,
                ..LinearTables::default()
            };
        }

        fn live(&self) -> usize {
            self.slots.iter().filter(|s| s.1).count()
        }

        fn find(&self, row: u32) -> Option<usize> {
            self.slots.iter().position(|s| s.1 && s.0 == row)
        }

        fn issue(&mut self, row: u32, waiter: Waiter) -> IssueOutcome {
            if self.lhs_used >= self.lhs_capacity {
                return IssueOutcome::LhsFull;
            }
            if let Some(i) = self.find(row) {
                self.slots[i].3.push(waiter);
                self.lhs_used += 1;
                self.peak_lhs = self.peak_lhs.max(self.lhs_used);
                return IssueOutcome::Coalesced;
            }
            if self.live() >= self.ldn_capacity {
                return IssueOutcome::LdnFull;
            }
            let entry = (row, true, None, vec![waiter]);
            match self.slots.iter().position(|s| !s.1) {
                Some(i) => self.slots[i] = entry,
                None => self.slots.push(entry),
            }
            self.lhs_used += 1;
            self.peak_ldn = self.peak_ldn.max(self.live());
            self.peak_lhs = self.peak_lhs.max(self.lhs_used);
            IssueOutcome::Allocated
        }

        fn set_completion(&mut self, row: u32, at: Cycle) {
            let i = self.find(row).expect("entry must be allocated");
            assert!(self.slots[i].2.is_none(), "completion already set");
            self.slots[i].2 = Some(at);
        }

        fn pop_earliest(&mut self) -> Option<(Cycle, u32, Vec<Waiter>)> {
            let i = (0..self.slots.len())
                .filter(|&i| self.slots[i].1 && self.slots[i].2.is_some())
                .min_by_key(|&i| (self.slots[i].2, self.slots[i].0))?;
            let slot = &mut self.slots[i];
            slot.1 = false;
            self.lhs_used -= slot.3.len();
            Some((slot.2.unwrap(), slot.0, std::mem::take(&mut slot.3)))
        }
    }

    #[test]
    fn random_sequences_match_the_linear_scan_tables() {
        let mut state = 0x5eed_u64;
        let mut next = move |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let mut fast = RunaheadTables::new(1, 1);
        let mut oracle = LinearTables::default();
        // Allocated rows still waiting for their completion cycle.
        let mut uncompleted: Vec<u32> = Vec::new();
        let mut clock: Cycle = 0;
        let (mut pops, mut outcomes) = (0, [0usize; 4]);
        for step in 0..200_000u32 {
            if step % 5_000 == 0 {
                let (ldn, lhs) = (1 + next(20) as usize, 1 + next(70) as usize);
                fast.reset(ldn, lhs);
                oracle.reset(ldn, lhs);
                uncompleted.clear();
            }
            match next(10) {
                // Issue: few distinct rows, so rows coalesce.
                0..=4 => {
                    let row = next(24) as u32;
                    let w = Waiter {
                        output_row: step,
                        lhs_value: next(7) as f64 - 3.0,
                    };
                    let outcome = fast.issue(row, w);
                    assert_eq!(outcome, oracle.issue(row, w), "step {step}");
                    outcomes[outcome as usize] += 1;
                    if outcome == IssueOutcome::Allocated {
                        uncompleted.push(row);
                    }
                }
                // Complete the newest or an older allocation, mostly in
                // channel order but sometimes earlier, often tied.
                5..=7 if !uncompleted.is_empty() => {
                    let pick = if next(4) == 0 {
                        next(uncompleted.len() as u64) as usize
                    } else {
                        uncompleted.len() - 1
                    };
                    let row = uncompleted.swap_remove(pick);
                    clock += next(4);
                    let at = clock.saturating_sub(next(3) * next(6));
                    fast.set_completion(row, at);
                    oracle.set_completion(row, at);
                }
                _ => {
                    let expected = oracle.pop_earliest();
                    assert_eq!(fast.pop_earliest(), expected, "step {step}");
                    pops += expected.is_some() as usize;
                }
            }
            assert_eq!(fast.ldn_used(), oracle.live(), "step {step}");
            assert_eq!(fast.lhs_used(), oracle.lhs_used, "step {step}");
            assert_eq!(fast.peak_ldn(), oracle.peak_ldn, "step {step}");
            assert_eq!(fast.peak_lhs(), oracle.peak_lhs, "step {step}");
            assert_eq!(fast.is_empty(), oracle.live() == 0, "step {step}");
        }
        // Every path was taken many times.
        assert!(pops > 10_000, "{pops} pops");
        assert!(outcomes.iter().all(|&n| n > 1_000), "{outcomes:?}");
    }

    #[test]
    #[should_panic(expected = "completion already set")]
    fn completion_is_set_once() {
        let mut t = RunaheadTables::new(2, 2);
        t.issue(5, w(0));
        t.issue(6, w(0));
        t.set_completion(5, 10);
        t.set_completion(5, 11);
    }

    #[test]
    #[should_panic(expected = "entry must be allocated")]
    fn completion_requires_allocation() {
        let mut t = RunaheadTables::new(2, 2);
        t.set_completion(5, 10);
    }
}
