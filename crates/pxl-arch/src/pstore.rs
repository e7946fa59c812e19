//! The pending-task store (P-Store).
//!
//! Each FlexArch tile has a P-Store holding tasks that are waiting for
//! arguments (Section III-A). "Its function is analogous to the reservation
//! stations in an out-of-order processor." The structure consists of a free
//! list, a join-counter array, a metadata array and argument arrays; here
//! one [`pxl_model::PendingTask`] per entry plays all of those roles. The
//! P-Store is *distributed*: one per tile, addressable from remote tiles
//! through the continuation's tile field.
//!
//! Protocol violations (an argument addressed to a freed entry, an
//! out-of-range slot) are *recoverable errors*, not panics: the fault
//! injector deliberately provokes them, and a simulated hardware bug must
//! surface as a failed run, never a crashed process. The store also models
//! an ECC scrubber: [`PStore::corrupt`] flips bits in a live entry's
//! argument words, and the next [`PStore::fill`] touching that entry
//! detects and repairs the damage before applying the new argument.

use pxl_model::{PendingTask, Task, MAX_ARGS};
use pxl_sim::snapshot::malformed;
use pxl_sim::{Codec, Persist, SnapshotError};

/// A protocol violation detected by the P-Store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PStoreError {
    /// An argument arrived for an entry outside the store.
    OutOfBounds {
        /// The offending entry index.
        entry: u32,
    },
    /// An argument arrived for a freed or never-allocated entry.
    DeadEntry {
        /// The offending entry index.
        entry: u32,
    },
    /// An argument named a slot past the argument array.
    BadSlot {
        /// The targeted entry.
        entry: u32,
        /// The out-of-range slot.
        slot: u8,
    },
    /// An allocation carried an impossible join counter.
    BadJoin {
        /// The rejected join counter.
        join: u8,
    },
}

impl std::fmt::Display for PStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PStoreError::OutOfBounds { entry } => {
                write!(f, "P-Store entry {entry} is out of bounds")
            }
            PStoreError::DeadEntry { entry } => {
                write!(f, "argument delivered to dead P-Store entry {entry}")
            }
            PStoreError::BadSlot { entry, slot } => {
                write!(f, "argument slot {slot} out of range for entry {entry}")
            }
            PStoreError::BadJoin { join } => {
                write!(f, "join counter {join} outside 1..={MAX_ARGS}")
            }
        }
    }
}

impl std::error::Error for PStoreError {}

/// Result of a successful [`PStore::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The completed task, when this argument was the last of the join.
    pub ready: Option<Task>,
    /// Whether the scrubber repaired injected corruption on the way in.
    pub repaired: bool,
}

/// One tile's pending-task storage.
///
/// # Examples
///
/// ```
/// use pxl_arch::PStore;
/// use pxl_model::{Continuation, PendingTask, TaskTypeId};
///
/// let mut ps = PStore::new(4);
/// let p = PendingTask::new(TaskTypeId(1), Continuation::host(0), 2);
/// let entry = ps.alloc(p).expect("store has space").expect("valid join");
/// assert!(ps.fill(entry, 0, 10).unwrap().ready.is_none());
/// let ready = ps.fill(entry, 1, 20).unwrap().ready.expect("join complete");
/// assert_eq!(ready.args[..2], [10, 20]);
/// assert_eq!(ps.occupancy(), 0); // entry freed on completion
/// // Filling the freed entry again is an error, not a panic.
/// assert!(ps.fill(entry, 0, 0).is_err());
/// ```
/// Storage is *lazy*: `entries`/`taint` only cover the high-water mark of
/// slots ever allocated, so an engine with the default 8192-entry stores
/// pays for the handful of slots a run actually touches, not megabytes of
/// zeroed arrays at construction. The eager equivalent's free list is
/// always `[capacity-1, ..., high_water]` (virgin slots, descending)
/// followed by the recycled LIFO stack, so `recycled` plus the high-water
/// mark represent it exactly — allocation order is identical to the eager
/// layout.
#[derive(Debug, Clone)]
pub struct PStore {
    entries: Vec<Option<PendingTask>>,
    /// Outstanding corruption per entry: the XOR mask the scrubber must
    /// undo on next access (0 = clean).
    taint: Vec<u64>,
    /// Freed slots below the high-water mark, in dealloc order; allocation
    /// pops its tail before touching a virgin slot.
    recycled: Vec<u32>,
    capacity: usize,
    peak: usize,
    total_allocs: u64,
    full_events: u64,
    repairs: u64,
}

impl PStore {
    /// Creates a P-Store with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        PStore {
            entries: Vec::new(),
            taint: Vec::new(),
            recycled: Vec::new(),
            capacity,
            peak: 0,
            total_allocs: 0,
            full_events: 0,
            repairs: 0,
        }
    }

    /// Number of live pending tasks.
    pub fn occupancy(&self) -> usize {
        self.entries.len() - self.recycled.len()
    }

    /// Peak number of simultaneously pending tasks.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total successful allocations.
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Number of allocation attempts rejected for lack of space.
    pub fn full_events(&self) -> u64 {
        self.full_events
    }

    /// Number of corrupted entries the scrubber has repaired.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Allocates an entry for `pending`, returning its index, `None` if
    /// the store is full.
    ///
    /// # Errors
    ///
    /// [`PStoreError::BadJoin`] if the pending task's join counter is
    /// outside `1..=MAX_ARGS` (allocation misuse: a ready task should be
    /// spawned, not parked).
    pub fn alloc(&mut self, pending: PendingTask) -> Result<Option<u32>, PStoreError> {
        if pending.join == 0 || pending.join as usize > MAX_ARGS {
            return Err(PStoreError::BadJoin { join: pending.join });
        }
        let slot = match self.recycled.pop() {
            Some(e) => {
                self.entries[e as usize] = Some(pending);
                self.taint[e as usize] = 0;
                Some(e)
            }
            None if self.entries.len() < self.capacity => {
                self.entries.push(Some(pending));
                self.taint.push(0);
                Some((self.entries.len() - 1) as u32)
            }
            None => None,
        };
        match slot {
            Some(e) => {
                self.total_allocs += 1;
                self.peak = self.peak.max(self.occupancy());
                Ok(Some(e))
            }
            None => {
                self.full_events += 1;
                Ok(None)
            }
        }
    }

    /// Delivers an argument to `slot` of `entry`, repairing any injected
    /// corruption first. When the join counter reaches zero the entry is
    /// deallocated and the ready task returned in the outcome.
    ///
    /// # Errors
    ///
    /// [`PStoreError`] on any protocol violation: an out-of-bounds or dead
    /// entry (the argument outlived its join), or an out-of-range slot.
    pub fn fill(&mut self, entry: u32, slot: u8, value: u64) -> Result<FillOutcome, PStoreError> {
        if entry as usize >= self.capacity {
            return Err(PStoreError::OutOfBounds { entry });
        }
        if slot as usize >= MAX_ARGS {
            return Err(PStoreError::BadSlot { entry, slot });
        }
        // A slot past the high-water mark was never allocated — dead, like
        // a freed one.
        let taint = match self.taint.get_mut(entry as usize) {
            Some(t) => std::mem::take(t),
            None => return Err(PStoreError::DeadEntry { entry }),
        };
        let cell = self.entries[entry as usize]
            .as_mut()
            .ok_or(PStoreError::DeadEntry { entry })?;
        let repaired = taint != 0;
        if repaired {
            // The ECC scrubber detects the upset on access and restores the
            // stored words (XOR masks are self-inverse).
            for arg in cell.args.iter_mut() {
                *arg ^= taint;
            }
            self.repairs += 1;
        }
        let ready = cell.fill(slot, value);
        if ready.is_some() {
            self.entries[entry as usize] = None;
            self.recycled.push(entry);
        }
        Ok(FillOutcome { ready, repaired })
    }

    /// Injects corruption: XORs `mask` into every argument word of the
    /// lowest-indexed live entry, returning that entry, or `None` when the
    /// store holds no live entry (nothing to corrupt). The damage is
    /// repaired by the scrubber on the entry's next [`PStore::fill`].
    pub fn corrupt(&mut self, mask: u64) -> Option<u32> {
        let (entry, cell) = self
            .entries
            .iter_mut()
            .enumerate()
            .find_map(|(i, c)| c.as_mut().map(|c| (i, c)))?;
        for arg in cell.args.iter_mut() {
            *arg ^= mask;
        }
        self.taint[entry] ^= mask;
        Some(entry as u32)
    }

    /// Whether `entry` currently carries unrepaired injected corruption.
    pub fn tainted(&self, entry: u32) -> bool {
        self.taint.get(entry as usize).is_some_and(|t| *t != 0)
    }

    /// The task instance id of the pending task in `entry`, or `None` when
    /// the entry is out of bounds or dead. Used by the tracer to label join
    /// events with the successor they feed.
    pub fn pending_id(&self, entry: u32) -> Option<u64> {
        self.entries
            .get(entry as usize)
            .and_then(|c| c.as_ref())
            .map(|c| c.id)
    }
}

/// The lazy layout as is: entries and taint masks up to the high-water
/// mark, the recycled free stack (order matters: allocation pops its
/// tail) and the counters. Loading requires the snapshot's capacity to
/// equal the configured one, the layout to fit it, and the free stack to
/// cover exactly the dead entries, each once.
impl Persist for PStore {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.expect(self.capacity as u64, "P-Store entries")?;
        self.entries.persist(c)?;
        self.taint.persist(c)?;
        self.recycled.persist(c)?;
        self.peak.persist(c)?;
        self.total_allocs.persist(c)?;
        self.full_events.persist(c)?;
        self.repairs.persist(c)?;
        if C::LOADING {
            let mut dead: Vec<bool> = self.entries.iter().map(Option::is_none).collect();
            let covered = self.recycled.iter().all(|&e| {
                dead.get_mut(e as usize)
                    .is_some_and(|d| std::mem::replace(d, false))
            });
            if self.entries.len() > self.capacity
                || self.taint.len() != self.entries.len()
                || !covered
                || dead.contains(&true)
            {
                return Err(malformed(format!(
                    "pstore state with {} entries does not fit a {}-entry store",
                    self.entries.len(),
                    self.capacity
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_model::{Continuation, TaskTypeId};

    fn pending(join: u8) -> PendingTask {
        PendingTask::new(TaskTypeId(7), Continuation::host(0), join)
    }

    fn must_alloc(ps: &mut PStore, join: u8) -> u32 {
        ps.alloc(pending(join)).unwrap().unwrap()
    }

    #[test]
    fn alloc_fill_free_cycle() {
        let mut ps = PStore::new(2);
        let a = must_alloc(&mut ps, 1);
        let b = must_alloc(&mut ps, 2);
        assert_ne!(a, b);
        assert_eq!(ps.occupancy(), 2);
        assert!(ps.alloc(pending(1)).unwrap().is_none(), "store is full");
        assert_eq!(ps.full_events(), 1);
        let ready = ps.fill(a, 0, 42).unwrap().ready.unwrap();
        assert_eq!(ready.args[0], 42);
        assert_eq!(ps.occupancy(), 1);
        // Freed entry is reusable.
        assert!(ps.alloc(pending(1)).unwrap().is_some());
    }

    #[test]
    fn peak_occupancy() {
        let mut ps = PStore::new(8);
        let ids: Vec<u32> = (0..5).map(|_| must_alloc(&mut ps, 1)).collect();
        for id in &ids {
            let _ = ps.fill(*id, 0, 0);
        }
        assert_eq!(ps.peak(), 5);
        assert_eq!(ps.total_allocs(), 5);
        assert_eq!(ps.occupancy(), 0);
    }

    #[test]
    fn partial_join_keeps_entry_live() {
        let mut ps = PStore::new(1);
        let e = must_alloc(&mut ps, 3);
        assert!(ps.fill(e, 0, 1).unwrap().ready.is_none());
        assert!(ps.fill(e, 2, 3).unwrap().ready.is_none());
        assert_eq!(ps.occupancy(), 1);
        let ready = ps.fill(e, 1, 2).unwrap().ready.unwrap();
        assert_eq!(ready.args[..3], [1, 2, 3]);
    }

    #[test]
    fn filling_freed_entry_is_a_recoverable_error() {
        let mut ps = PStore::new(1);
        let e = must_alloc(&mut ps, 1);
        assert!(ps.fill(e, 0, 0).is_ok());
        assert_eq!(ps.fill(e, 0, 0), Err(PStoreError::DeadEntry { entry: e }));
        // The store stays usable after the violation.
        assert!(ps.alloc(pending(1)).unwrap().is_some());
    }

    #[test]
    fn bad_addresses_are_recoverable_errors() {
        let mut ps = PStore::new(2);
        let e = must_alloc(&mut ps, 2);
        assert_eq!(ps.fill(9, 0, 0), Err(PStoreError::OutOfBounds { entry: 9 }));
        assert_eq!(
            ps.fill(e, MAX_ARGS as u8, 0),
            Err(PStoreError::BadSlot {
                entry: e,
                slot: MAX_ARGS as u8
            })
        );
        // Misuse left the entry intact.
        assert_eq!(ps.occupancy(), 1);
    }

    #[test]
    fn bad_join_is_rejected_at_alloc() {
        let mut ps = PStore::new(2);
        let mut p = pending(1);
        p.join = 0;
        assert_eq!(ps.alloc(p), Err(PStoreError::BadJoin { join: 0 }));
        let mut p = pending(1);
        p.join = (MAX_ARGS + 1) as u8;
        assert!(ps.alloc(p).is_err());
        assert_eq!(ps.occupancy(), 0, "rejected allocs hold no entry");
    }

    #[test]
    fn corruption_is_repaired_on_next_fill() {
        let mut ps = PStore::new(4);
        let e = must_alloc(&mut ps, 2);
        let _ = ps.fill(e, 0, 0xAAAA).unwrap();
        let hit = ps.corrupt(0xFF00).expect("a live entry exists");
        assert_eq!(hit, e);
        let out = ps.fill(e, 1, 0x5555).unwrap();
        assert!(out.repaired, "scrubber must flag the repair");
        let ready = out.ready.expect("join of two complete");
        assert_eq!(ready.args[..2], [0xAAAA, 0x5555], "values restored");
        assert_eq!(ps.repairs(), 1);
    }

    #[test]
    fn pending_id_tracks_live_entries() {
        let mut ps = PStore::new(2);
        let e = ps.alloc(pending(1).with_id(55)).unwrap().unwrap();
        assert_eq!(ps.pending_id(e), Some(55));
        let _ = ps.fill(e, 0, 0);
        assert_eq!(ps.pending_id(e), None, "freed entries have no id");
        assert_eq!(ps.pending_id(99), None, "out of bounds has no id");
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut a = PStore::new(4);
        let e0 = must_alloc(&mut a, 2);
        let e1 = must_alloc(&mut a, 1);
        let _ = a.fill(e0, 0, 7).unwrap();
        let _ = a.fill(e1, 0, 9).unwrap(); // frees e1
        a.corrupt(0xF0F0);
        let state = pxl_sim::persist::save(&mut a);
        let mut b = PStore::new(4);
        pxl_sim::persist::load(&mut b, &state).unwrap();
        assert_eq!(b.occupancy(), a.occupancy());
        assert_eq!(b.tainted(e0), a.tainted(e0));
        // Identical future behavior: same allocation order, same repair.
        let (na, nb) = (must_alloc(&mut a, 1), must_alloc(&mut b, 1));
        assert_eq!(na, nb, "free-list order survives the round trip");
        let (oa, ob) = (a.fill(e0, 1, 3).unwrap(), b.fill(e0, 1, 3).unwrap());
        assert_eq!(oa, ob);
        assert!(ob.repaired, "taint mask survives the round trip");
        assert_eq!(ob.ready.unwrap().args[..2], [7, 3]);
        assert_eq!(b.repairs(), a.repairs());
        // Capacity mismatch is rejected, larger or smaller.
        for capacity in [8, 1] {
            let mut wrong = PStore::new(capacity);
            let err = pxl_sim::persist::load(&mut wrong, &state).unwrap_err();
            assert!(err.to_string().contains("P-Store entries"), "{err}");
        }
    }

    #[test]
    fn corrupting_an_empty_store_is_a_no_op() {
        let mut ps = PStore::new(2);
        assert_eq!(ps.corrupt(0xFF), None);
        assert_eq!(ps.repairs(), 0);
    }

    #[test]
    fn double_corruption_cancels_and_accumulates_correctly() {
        let mut ps = PStore::new(2);
        let e = must_alloc(&mut ps, 2);
        let _ = ps.fill(e, 0, 7).unwrap();
        ps.corrupt(0b1100);
        ps.corrupt(0b1010);
        let out = ps.fill(e, 1, 8).unwrap();
        assert!(out.repaired);
        assert_eq!(out.ready.unwrap().args[..2], [7, 8]);
    }
}
