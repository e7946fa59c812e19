//! Set-associative cache arrays with MOESI line states.
//!
//! [`CacheArray`] is the tag/state half of a cache (the data half lives in
//! the shared functional [`crate::Memory`]). One array models each
//! accelerator-tile L1, each CPU-core L1, and the shared L2. The coherence
//! controller in [`crate::system`] drives the per-line [`LineState`] machine.

use pxl_sim::config::CacheParams;
use pxl_sim::snapshot::malformed;
use pxl_sim::{Codec, Persist, SnapshotError};

/// MOESI coherence state of one cache line.
///
/// The paper's platform (Table III) keeps accelerator L1s, CPU L1s and the
/// shared L2 coherent with a MOESI snooping protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified: exclusive and dirty.
    Modified,
    /// Owned: shared and dirty; this cache supplies data on snoops.
    Owned,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly multiple copies, clean in this cache.
    Shared,
}

impl LineState {
    /// Whether this cache must write the line back when evicting it.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// Whether a store may proceed without a bus upgrade.
    pub fn can_write_silently(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// The tag/state array of one set-associative cache with true-LRU
/// replacement.
///
/// # Examples
///
/// ```
/// use pxl_mem::cache::{CacheArray, LineState};
/// use pxl_sim::config::CacheParams;
///
/// let mut c = CacheArray::new(&CacheParams::accel_l1_32k());
/// assert!(c.lookup(0x1000).is_none());
/// c.install(0x1000, LineState::Exclusive);
/// assert_eq!(c.lookup(0x1000), Some(LineState::Exclusive));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// Tag of each way of each set, `assoc` consecutive entries per set:
    /// `line + 1`, with 0 marking an invalid way. Struct-of-arrays so a set
    /// probe compares `assoc` adjacent `u64`s (one or two cache lines)
    /// instead of striding over wider records, and so construction is a
    /// zeroed (lazily mapped) allocation rather than an eager pattern fill.
    lines: Vec<u64>,
    /// Coherence state per way, encoded so 0 = `Shared` (the all-zero
    /// fresh array matches the eager initializer this replaced).
    states: Vec<u8>,
    /// LRU timestamp per way (monotone per-array counter).
    last_use: Vec<u64>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    use_counter: u64,
}

/// Internal `states` byte for a [`LineState`]; inverse of [`dec_state`].
/// `Shared == 0`, so a fresh all-zero array needs no pattern fill.
#[inline]
fn enc_state(s: LineState) -> u8 {
    match s {
        LineState::Shared => 0,
        LineState::Exclusive => 1,
        LineState::Owned => 2,
        LineState::Modified => 3,
    }
}

#[inline]
fn dec_state(b: u8) -> LineState {
    match b {
        0 => LineState::Shared,
        1 => LineState::Exclusive,
        2 => LineState::Owned,
        _ => LineState::Modified,
    }
}

impl CacheArray {
    /// Builds an array from cache geometry parameters.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not realizable (see
    /// [`CacheParams::num_sets`]).
    pub fn new(params: &CacheParams) -> Self {
        let num_sets = params.num_sets();
        let line_shift = params.line_bytes.trailing_zeros();
        assert_eq!(
            1usize << line_shift,
            params.line_bytes,
            "line size must be a power of two"
        );
        CacheArray {
            lines: vec![0; num_sets * params.ways],
            states: vec![0; num_sets * params.ways],
            last_use: vec![0; num_sets * params.ways],
            assoc: params.ways,
            line_shift,
            set_mask: (num_sets - 1) as u64,
            use_counter: 0,
        }
    }

    /// Index into the flat per-way arrays of way `way` of the set holding
    /// `line`, or of the set's first way when searching.
    #[inline]
    fn base(&self, line: u64) -> usize {
        self.set_index(line) * self.assoc
    }

    /// Way index (flat) of `line` if resident: a linear compare over the
    /// set's `assoc` adjacent tags.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.base(line);
        self.lines[base..base + self.assoc]
            .iter()
            .position(|&l| l == line + 1)
            .map(|i| base + i)
    }

    /// Converts a byte address to a line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up a byte address; on hit returns the line state and refreshes
    /// LRU.
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let line = self.line_of(addr);
        self.use_counter += 1;
        let w = self.find(line)?;
        self.last_use[w] = self.use_counter;
        Some(dec_state(self.states[w]))
    }

    /// Peeks at a line's state without touching LRU (for snoops).
    pub fn peek(&self, addr: u64) -> Option<LineState> {
        self.find(self.line_of(addr))
            .map(|w| dec_state(self.states[w]))
    }

    /// Sets the state of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        let w = self
            .find(self.line_of(addr))
            .expect("set_state on a non-resident line");
        self.states[w] = enc_state(state);
    }

    /// Installs a line (choosing an LRU victim) and returns the evicted
    /// line's byte address and state, if a valid line was displaced.
    pub fn install(&mut self, addr: u64, state: LineState) -> Option<(u64, LineState)> {
        let line = self.line_of(addr);
        self.use_counter += 1;
        let tick = self.use_counter;
        // Re-installing an already-resident line just updates it.
        if let Some(w) = self.find(line) {
            self.states[w] = enc_state(state);
            self.last_use[w] = tick;
            return None;
        }
        let base = self.base(line);
        let victim = (base..base + self.assoc)
            .min_by_key(|&w| {
                if self.lines[w] == 0 {
                    0
                } else {
                    self.last_use[w] + 1
                }
            })
            .expect("cache set has at least one way");
        let evicted = match self.lines[victim] {
            0 => None,
            l => Some(((l - 1) << self.line_shift, dec_state(self.states[victim]))),
        };
        self.lines[victim] = line + 1;
        self.states[victim] = enc_state(state);
        self.last_use[victim] = tick;
        evicted
    }

    /// Removes a line if resident, returning its state.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let w = self.find(self.line_of(addr))?;
        self.lines[w] = 0;
        Some(dec_state(self.states[w]))
    }

    /// Number of valid lines currently resident (O(size); for tests/stats).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != 0).count()
    }

    /// Invalidates everything (e.g. between benchmark phases).
    pub fn flush_all(&mut self) {
        self.lines.fill(0);
    }
}

/// The valid ways as `(way, tag, state, LRU stamp)`: an invalid way's
/// state and stamp are never read, so they are not captured, and a
/// restore zeroes them. The way count and associativity come from the
/// restoring cache's parameters and must both match.
impl Persist for CacheArray {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.expect(self.lines.len() as u64, "cache ways")?;
        c.expect(self.assoc as u64, "cache associativity")?;
        self.use_counter.persist(c)?;
        let mut valid: Vec<(usize, u64, u8, u64)> = if C::LOADING {
            Vec::new()
        } else {
            (0..self.lines.len())
                .filter(|&w| self.lines[w] != 0)
                .map(|w| (w, self.lines[w], self.states[w], self.last_use[w]))
                .collect()
        };
        valid.persist(c)?;
        if C::LOADING {
            // Fresh zeroed (lazily mapped) arrays, as at construction.
            let ways = self.lines.len();
            self.lines = vec![0; ways];
            self.states = vec![0; ways];
            self.last_use = vec![0; ways];
            for (w, line, state, last_use) in valid {
                if w >= self.lines.len() || line == 0 || state > 3 {
                    return Err(malformed(format!(
                        "cache way {w} holds tag {line} in state {state}"
                    )));
                }
                self.lines[w] = line;
                self.states[w] = state;
                self.last_use[w] = last_use;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways x 64B lines = 256 B.
        let params = CacheParams {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
            next_line_prefetch: false,
            clock: pxl_sim::Clock::ghz1("t"),
        };
        CacheArray::new(&params)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = tiny();
        assert_eq!(c.lookup(0), None);
        c.install(0, LineState::Exclusive);
        assert_eq!(c.lookup(0), Some(LineState::Exclusive));
        assert_eq!(c.lookup(63), Some(LineState::Exclusive)); // same line
        assert_eq!(c.lookup(64), None); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even line numbers).
        c.install(0, LineState::Shared); // line 0
        c.install(2 * 64, LineState::Shared);
        // Touch line 0 so line 2 becomes LRU.
        assert!(c.lookup(0).is_some());
        let evicted = c.install(4 * 64, LineState::Shared);
        assert_eq!(evicted, Some((2 * 64, LineState::Shared)));
        assert!(c.peek(0).is_some());
        assert!(c.peek(4 * 64).is_some());
        assert!(c.peek(2 * 64).is_none());
    }

    #[test]
    fn install_prefers_invalid_ways() {
        let mut c = tiny();
        c.install(0, LineState::Modified);
        // Second install in the same set must use the empty way, not evict.
        assert_eq!(c.install(2 * 64, LineState::Shared), None);
    }

    #[test]
    fn reinstall_updates_state_in_place() {
        let mut c = tiny();
        c.install(0, LineState::Shared);
        assert_eq!(c.install(0, LineState::Modified), None);
        assert_eq!(c.peek(0), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        c.install(0, LineState::Owned);
        assert_eq!(c.invalidate(0), Some(LineState::Owned));
        assert_eq!(c.invalidate(0), None);
        c.install(0, LineState::Shared);
        c.install(64, LineState::Shared);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn state_round_trip_keeps_lru_behavior() {
        let mut a = tiny();
        a.install(0, LineState::Modified);
        a.install(2 * 64, LineState::Shared);
        a.install(64, LineState::Owned);
        assert!(a.lookup(0).is_some()); // refresh LRU on line 0
        let state = pxl_sim::persist::save(&mut a);
        let mut b = tiny();
        pxl_sim::persist::load(&mut b, &state).unwrap();
        assert_eq!(b.peek(0), Some(LineState::Modified));
        assert_eq!(b.peek(64), Some(LineState::Owned));
        // Same LRU victim choice after restore.
        assert_eq!(
            a.install(4 * 64, LineState::Shared),
            b.install(4 * 64, LineState::Shared)
        );
        assert_eq!(
            pxl_sim::persist::save(&mut a),
            pxl_sim::persist::save(&mut b)
        );
        // Geometry mismatch is refused.
        let params = CacheParams {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
            next_line_prefetch: false,
            clock: pxl_sim::Clock::ghz1("t"),
        };
        let mut wrong = CacheArray::new(&params);
        let err = pxl_sim::persist::load(&mut wrong, &state).unwrap_err();
        assert!(err.to_string().contains("cache ways"), "{err}");
        // Same total ways in a different shape (1 set x 4 ways) is refused.
        let params = CacheParams {
            size_bytes: 256,
            ways: 4,
            line_bytes: 64,
            hit_latency_cycles: 1,
            next_line_prefetch: false,
            clock: pxl_sim::Clock::ghz1("t"),
        };
        let mut reshaped = CacheArray::new(&params);
        let err = pxl_sim::persist::load(&mut reshaped, &state).unwrap_err();
        assert!(err.to_string().contains("cache associativity"), "{err}");
    }

    #[test]
    fn state_predicates() {
        assert!(LineState::Modified.is_dirty());
        assert!(LineState::Owned.is_dirty());
        assert!(!LineState::Exclusive.is_dirty());
        assert!(!LineState::Shared.is_dirty());
        assert!(LineState::Modified.can_write_silently());
        assert!(LineState::Exclusive.can_write_silently());
        assert!(!LineState::Owned.can_write_silently());
        assert!(!LineState::Shared.can_write_silently());
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_missing_line_panics() {
        let mut c = tiny();
        c.set_state(0, LineState::Shared);
    }
}
