//! Task, continuation and pending-task types — the hardware message formats.
//!
//! These types mirror the messages that flow over the accelerator's intra-
//! tile buses and inter-tile networks: task messages (`task_in`/`task_out`
//! ports), argument messages (`arg_out` port), and the P-Store entries that
//! pending tasks occupy. [`Continuation`] has an exact 64-bit encoding
//! ([`Continuation::encode`]) because it travels inside task and argument
//! messages in hardware.

use std::fmt;

use pxl_sim::snapshot::malformed;
use pxl_sim::{Codec, Persist, SnapshotError};

/// Maximum number of argument words a task message carries.
///
/// The paper's Fibonacci task type carries four payload words; we provision
/// six so that the widest benchmark task (cilksort's parallel merge) fits in
/// one message.
pub const MAX_ARGS: usize = 6;

/// Identifies the function *f* of a task tuple *(f, args, k)* — the `type`
/// field of the task message that the worker dispatches on.
///
/// # Examples
///
/// ```
/// use pxl_model::TaskTypeId;
///
/// const FIB: TaskTypeId = TaskTypeId(0);
/// const SUM: TaskTypeId = TaskTypeId(1);
/// assert_ne!(FIB, SUM);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskTypeId(pub u8);

impl fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A continuation: where a task's return value goes.
///
/// Points at one argument slot of a pending task, either in a tile's P-Store
/// or in the host interface block (for the computation's final results).
///
/// # Examples
///
/// ```
/// use pxl_model::Continuation;
///
/// let k = Continuation::pstore(2, 17, 0);
/// let k1 = k.with_slot(1);
/// assert_eq!(Continuation::decode(k1.encode()), k1);
/// assert_ne!(k, k1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Continuation {
    /// The value is a final result, delivered to the host interface block's
    /// result register `slot`.
    Host {
        /// Result register index in the interface block.
        slot: u8,
    },
    /// The value fills argument `slot` of P-Store entry `entry` on tile
    /// `tile`.
    PStore {
        /// Tile whose P-Store holds the pending task.
        tile: u16,
        /// Entry index within that P-Store.
        entry: u32,
        /// Argument slot to fill.
        slot: u8,
    },
}

impl Continuation {
    /// A continuation delivering to host result register `slot`.
    pub const fn host(slot: u8) -> Self {
        Continuation::Host { slot }
    }

    /// A continuation delivering to a P-Store entry's argument slot.
    pub const fn pstore(tile: u16, entry: u32, slot: u8) -> Self {
        Continuation::PStore { tile, entry, slot }
    }

    /// Returns this continuation retargeted at a different argument slot of
    /// the same pending task. Used after `make_successor` to point each
    /// spawned child at its own slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below [`MAX_ARGS`].
    pub fn with_slot(self, slot: u8) -> Self {
        assert!((slot as usize) < MAX_ARGS, "slot {slot} out of range");
        match self {
            Continuation::Host { .. } => Continuation::Host { slot },
            Continuation::PStore { tile, entry, .. } => Continuation::PStore { tile, entry, slot },
        }
    }

    /// The argument slot this continuation targets.
    pub fn slot(self) -> u8 {
        match self {
            Continuation::Host { slot } => slot,
            Continuation::PStore { slot, .. } => slot,
        }
    }

    /// Packs the continuation into the 64-bit field it occupies in hardware
    /// task/argument messages.
    ///
    /// Layout: bit 63 = P-Store flag; bits 55..40 = tile; bits 39..8 = entry;
    /// bits 7..0 = slot.
    pub fn encode(self) -> u64 {
        match self {
            Continuation::Host { slot } => slot as u64,
            Continuation::PStore { tile, entry, slot } => {
                (1u64 << 63) | ((tile as u64) << 40) | ((entry as u64) << 8) | slot as u64
            }
        }
    }

    /// Inverse of [`Continuation::encode`].
    pub fn decode(bits: u64) -> Self {
        if bits >> 63 == 0 {
            Continuation::Host { slot: bits as u8 }
        } else {
            Continuation::PStore {
                tile: (bits >> 40) as u16,
                entry: ((bits >> 8) & 0xFFFF_FFFF) as u32,
                slot: bits as u8,
            }
        }
    }
}

/// Host result register 0, the root task's usual destination.
impl Default for Continuation {
    fn default() -> Self {
        Continuation::host(0)
    }
}

impl fmt::Display for Continuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Continuation::Host { slot } => write!(f, "k(host:{slot})"),
            Continuation::PStore { tile, entry, slot } => {
                write!(f, "k(t{tile}.e{entry}.s{slot})")
            }
        }
    }
}

/// A ready task: the message a worker receives on its `task_in` port.
///
/// # Examples
///
/// ```
/// use pxl_model::{Continuation, Task, TaskTypeId};
///
/// let t = Task::new(TaskTypeId(3), Continuation::host(0), &[10, 20]);
/// assert_eq!(t.args[0], 10);
/// assert_eq!(t.args[2], 0); // unused slots read zero
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Task {
    /// The function this task runs.
    pub ty: TaskTypeId,
    /// Where the task's result goes.
    pub k: Continuation,
    /// Argument words (unused slots are zero).
    pub args: [u64; MAX_ARGS],
    /// Run-unique task instance id, stamped by the engine at spawn time
    /// (zero until stamped). Workers never read it; it only feeds tracing,
    /// so profilers can reconstruct the spawn/join DAG.
    pub id: u64,
}

impl Task {
    /// Creates a task; unspecified argument slots are zeroed and the
    /// instance id starts at zero (the engine stamps it on spawn).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_ARGS`] arguments are given.
    pub fn new(ty: TaskTypeId, k: Continuation, args: &[u64]) -> Self {
        assert!(args.len() <= MAX_ARGS, "too many task arguments");
        let mut a = [0u64; MAX_ARGS];
        a[..args.len()].copy_from_slice(args);
        Task {
            ty,
            k,
            args: a,
            id: 0,
        }
    }

    /// Returns the task with its instance id set. Engines stamp ids from a
    /// per-run counter so every dispatched task is distinguishable in the
    /// trace.
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Argument word `i` reinterpreted as `i64` (two's complement).
    pub fn arg_i64(&self, i: usize) -> i64 {
        self.args[i] as i64
    }

    /// Flattens the task into its [`TASK_WORDS`] word message encoding
    /// (`[ty, k, id, args...]`) for engine snapshots.
    pub fn to_words(&self) -> [u64; TASK_WORDS] {
        let mut w = [0u64; TASK_WORDS];
        w[0] = self.ty.0 as u64;
        w[1] = self.k.encode();
        w[2] = self.id;
        w[3..].copy_from_slice(&self.args);
        w
    }

    /// Inverse of [`Task::to_words`].
    ///
    /// # Errors
    ///
    /// Returns a message when `words` is not exactly [`TASK_WORDS`] long or
    /// the type word overflows a `u8`.
    pub fn from_words(words: &[u64]) -> Result<Task, String> {
        if words.len() != TASK_WORDS {
            return Err(format!(
                "task encoding holds {} words, expected {TASK_WORDS}",
                words.len()
            ));
        }
        let ty = u8::try_from(words[0]).map_err(|_| format!("task type {} overflows", words[0]))?;
        let mut args = [0u64; MAX_ARGS];
        args.copy_from_slice(&words[3..]);
        Ok(Task {
            ty: TaskTypeId(ty),
            k: Continuation::decode(words[1]),
            args,
            id: words[2],
        })
    }
}

/// Number of words in [`Task::to_words`]'s flat encoding.
pub const TASK_WORDS: usize = 3 + MAX_ARGS;

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?})->{}", self.ty, &self.args, self.k)
    }
}

/// An argument message: the payload of the worker's `arg_out` port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Argument {
    /// Destination continuation (pending task slot or host register).
    pub k: Continuation,
    /// The value being returned.
    pub value: u64,
}

impl Argument {
    /// Creates an argument message.
    pub fn new(k: Continuation, value: u64) -> Self {
        Argument { k, value }
    }
}

/// A pending task: one P-Store entry.
///
/// Holds the task's type, its own continuation, the argument words collected
/// so far, and the join counter of missing arguments. Created by
/// `make_successor`; becomes a ready [`Task`] when the counter hits zero.
///
/// # Examples
///
/// ```
/// use pxl_model::{Continuation, PendingTask, TaskTypeId};
///
/// let mut p = PendingTask::new(TaskTypeId(1), Continuation::host(0), 2);
/// assert!(p.fill(0, 10).is_none());
/// let ready = p.fill(1, 20).expect("second argument completes the join");
/// assert_eq!(ready.args[0], 10);
/// assert_eq!(ready.args[1], 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PendingTask {
    /// Task type to run once ready.
    pub ty: TaskTypeId,
    /// Continuation the ready task will carry.
    pub k: Continuation,
    /// Number of arguments still missing.
    pub join: u8,
    /// Argument words (preset + received).
    pub args: [u64; MAX_ARGS],
    /// Instance id the ready task inherits (see [`Task::id`]).
    pub id: u64,
}

impl PendingTask {
    /// Creates a pending task awaiting `join` arguments.
    ///
    /// # Panics
    ///
    /// Panics if `join` is zero (a ready task should be spawned directly) or
    /// exceeds [`MAX_ARGS`].
    pub fn new(ty: TaskTypeId, k: Continuation, join: u8) -> Self {
        assert!(
            join >= 1 && (join as usize) <= MAX_ARGS,
            "join counter must be in 1..={MAX_ARGS}"
        );
        PendingTask {
            ty,
            k,
            join,
            args: [0; MAX_ARGS],
            id: 0,
        }
    }

    /// Returns the pending task with its instance id set (see
    /// [`Task::with_id`]); the ready task produced by [`PendingTask::fill`]
    /// inherits it.
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Presets argument slot `slot` (does not decrement the join counter);
    /// used for loop bounds or pointers the successor needs in addition to
    /// the joined values.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn preset(mut self, slot: u8, value: u64) -> Self {
        assert!((slot as usize) < MAX_ARGS, "slot {slot} out of range");
        self.args[slot as usize] = value;
        self
    }

    /// Delivers an argument to `slot`, decrementing the join counter.
    /// Returns the ready task when the last argument arrives.
    ///
    /// # Panics
    ///
    /// Panics if the join counter is already zero or `slot` is out of range.
    pub fn fill(&mut self, slot: u8, value: u64) -> Option<Task> {
        assert!((slot as usize) < MAX_ARGS, "slot {slot} out of range");
        assert!(self.join > 0, "argument delivered to a completed join");
        self.args[slot as usize] = value;
        self.join -= 1;
        if self.join == 0 {
            Some(Task {
                ty: self.ty,
                k: self.k,
                args: self.args,
                id: self.id,
            })
        } else {
            None
        }
    }
}

impl Persist for Continuation {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut bits = self.encode();
        bits.persist(c)?;
        *self = Continuation::decode(bits);
        Ok(())
    }
}

impl Persist for Task {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.ty.0.persist(c)?;
        self.k.persist(c)?;
        self.args.persist(c)?;
        self.id.persist(c)
    }
}

impl Persist for PendingTask {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.ty.0.persist(c)?;
        self.k.persist(c)?;
        self.join.persist(c)?;
        self.args.persist(c)?;
        self.id.persist(c)?;
        // A parked task always awaits at least one argument.
        if self.join == 0 || self.join as usize > MAX_ARGS {
            return Err(malformed(format!(
                "join counter {} outside 1..={MAX_ARGS}",
                self.join
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuation_encode_roundtrip() {
        let cases = [
            Continuation::host(0),
            Continuation::host(7),
            Continuation::pstore(0, 0, 0),
            Continuation::pstore(65_535, 0xFFFF_FFFF, 5),
            Continuation::pstore(3, 1234, 2),
        ];
        for k in cases {
            assert_eq!(Continuation::decode(k.encode()), k, "roundtrip {k}");
        }
    }

    #[test]
    fn with_slot_preserves_target() {
        let k = Continuation::pstore(1, 2, 0);
        match k.with_slot(3) {
            Continuation::PStore { tile, entry, slot } => {
                assert_eq!((tile, entry, slot), (1, 2, 3));
            }
            _ => panic!("must stay a P-Store continuation"),
        }
        assert_eq!(Continuation::host(0).with_slot(2).slot(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_slot_validates() {
        let _ = Continuation::host(0).with_slot(MAX_ARGS as u8);
    }

    #[test]
    fn task_construction() {
        let t = Task::new(TaskTypeId(1), Continuation::host(0), &[1, 2, 3]);
        assert_eq!(t.args, [1, 2, 3, 0, 0, 0]);
        let neg = Task::new(TaskTypeId(1), Continuation::host(0), &[(-5i64) as u64]);
        assert_eq!(neg.arg_i64(0), -5);
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn task_arg_overflow_panics() {
        let _ = Task::new(TaskTypeId(0), Continuation::host(0), &[0; MAX_ARGS + 1]);
    }

    #[test]
    fn pending_join_counts_down() {
        let mut p = PendingTask::new(TaskTypeId(2), Continuation::host(1), 3).preset(3, 99);
        assert!(p.fill(2, 30).is_none());
        assert!(p.fill(0, 10).is_none());
        let ready = p.fill(1, 20).unwrap();
        assert_eq!(ready.ty, TaskTypeId(2));
        assert_eq!(ready.k, Continuation::host(1));
        assert_eq!(ready.args, [10, 20, 30, 99, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "completed join")]
    fn overfilling_panics() {
        let mut p = PendingTask::new(TaskTypeId(0), Continuation::host(0), 1);
        let _ = p.fill(0, 1);
        let _ = p.fill(1, 2);
    }

    #[test]
    #[should_panic(expected = "join counter")]
    fn zero_join_panics() {
        let _ = PendingTask::new(TaskTypeId(0), Continuation::host(0), 0);
    }

    #[test]
    fn task_ids_propagate_through_joins() {
        let t = Task::new(TaskTypeId(0), Continuation::host(0), &[]);
        assert_eq!(t.id, 0, "unstamped tasks carry id zero");
        assert_eq!(t.with_id(42).id, 42);
        let mut p = PendingTask::new(TaskTypeId(1), Continuation::host(0), 1).with_id(7);
        let ready = p.fill(0, 0).unwrap();
        assert_eq!(ready.id, 7, "ready task inherits the pending id");
    }

    #[test]
    fn task_word_codec_round_trips() {
        let t = Task::new(TaskTypeId(5), Continuation::pstore(3, 1234, 2), &[1, 2, 3]).with_id(77);
        assert_eq!(Task::from_words(&t.to_words()).unwrap(), t);
        assert!(Task::from_words(&[0; TASK_WORDS - 1]).is_err());
        let mut bad = t.to_words();
        bad[0] = 300;
        assert!(Task::from_words(&bad).is_err(), "type word overflow");
    }

    #[test]
    fn persist_round_trips_and_rejects_bad_joins() {
        let mut t =
            Task::new(TaskTypeId(5), Continuation::pstore(3, 1234, 2), &[1, 2, 3]).with_id(77);
        let mut back = Task::default();
        pxl_sim::persist::load(&mut back, &pxl_sim::persist::save(&mut t)).unwrap();
        assert_eq!(back, t);
        let mut p = PendingTask::new(TaskTypeId(9), Continuation::host(1), 2)
            .preset(3, 42)
            .with_id(8);
        let bytes = pxl_sim::persist::save(&mut p);
        let mut back = PendingTask::default();
        pxl_sim::persist::load(&mut back, &bytes).unwrap();
        assert_eq!(back, p);
        // [ty, k, join, ...]: a parked task never has a zero join counter.
        let mut bad = bytes.clone();
        bad[2] = 0;
        let err = pxl_sim::persist::load(&mut back, &bad).unwrap_err();
        assert!(err.to_string().contains("join counter"), "{err}");
    }

    #[test]
    fn display_formats() {
        let t = Task::new(TaskTypeId(1), Continuation::pstore(0, 5, 1), &[7]);
        let s = t.to_string();
        assert!(s.contains("T1") && s.contains("e5"), "got {s}");
        assert_eq!(Continuation::host(2).to_string(), "k(host:2)");
    }
}
