//! The coherent memory-hierarchy timing model.
//!
//! [`MemorySystem`] is a latency/bandwidth *oracle*: each requester (an
//! accelerator tile's L1 port or a CPU core's L1 port) asks "an access to
//! byte address `a` of kind `k` starts at time `t`; when does it complete?"
//! The oracle walks the hierarchy of the paper's Table III — private L1s
//! kept coherent with a MOESI snooping protocol, an inclusive shared L2, and
//! a bandwidth-limited DDR3 channel — updating tag/state arrays and
//! contention trackers as it goes.
//!
//! Contention is modelled with epoch-bucketed bandwidth metering
//! ([`crate::bandwidth::BandwidthMeter`]): the snoop bus, the L2 port and
//! the DRAM channel each commit service time into fixed epochs, so
//! aggregate throughput is limited exactly even though requesters present
//! their accesses out of global time order. This is the deliberate
//! simplification documented in `DESIGN.md`: no MSHR pipeline, but faithful
//! queueing delay and bandwidth saturation — the effects that shape the
//! paper's memory-bound results (spmvcrs, bfsqueue, stencil2d).

use pxl_sim::config::{CacheParams, DramParams, MemoryConfig};
use pxl_sim::{Codec, CounterId, Metrics, Persist, SnapshotError, Time, TraceEvent, Tracer};

use crate::bandwidth::BandwidthMeter;
use crate::cache::{CacheArray, LineState};

/// Identifies one L1 port on the memory system (one accelerator tile or one
/// CPU core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub usize);

/// The kind of memory access a requester performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (write-allocate, write-back).
    Write,
    /// An atomic read-modify-write (acquires exclusive ownership and pays an
    /// extra bus serialization penalty).
    Amo,
}

impl AccessKind {
    fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Amo)
    }
}

/// Interconnect timing parameters (the snooping bus between L1s and L2).
#[derive(Debug, Clone, PartialEq)]
pub struct BusParams {
    /// One-way request latency across the bus.
    pub latency: Time,
    /// Time one transaction occupies the bus (serialization quantum).
    pub occupancy: Time,
    /// Additional latency for a cache-to-cache transfer from an owning L1.
    pub cache_to_cache: Time,
    /// Time one access occupies the L2 port.
    pub l2_occupancy: Time,
}

impl Default for BusParams {
    fn default() -> Self {
        BusParams {
            latency: Time::from_ns(2),
            occupancy: Time::from_ps(500),
            cache_to_cache: Time::from_ns(8),
            l2_occupancy: Time::from_ns(1),
        }
    }
}

/// The full coherent hierarchy: N private L1s, a shared inclusive L2, DRAM.
///
/// # Examples
///
/// ```
/// use pxl_mem::{AccessKind, MemorySystem, PortId};
/// use pxl_sim::config::{CacheParams, MemoryConfig};
/// use pxl_sim::Time;
///
/// let cfg = MemoryConfig::micro2018();
/// let mut sys = MemorySystem::new(vec![cfg.accel_l1.clone(); 2], &cfg);
/// let t0 = Time::ZERO;
/// let t1 = sys.access(PortId(0), 0x1000, AccessKind::Read, t0); // cold miss
/// let t2 = sys.access(PortId(0), 0x1000, AccessKind::Read, t1); // hit
/// assert!(t1 - t0 > t2 - t1);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1s: Vec<CacheArray>,
    l1_params: Vec<CacheParams>,
    l2: CacheArray,
    l2_params: CacheParams,
    dram: DramParams,
    bus: BusParams,
    bus_meter: BandwidthMeter,
    l2_meter: BandwidthMeter,
    dram_meter: BandwidthMeter,
    stats: Metrics,
    ids: MemIds,
    trace: Tracer,
}

/// Typed handles for the per-access counters. The cache path increments a
/// counter on every lookup, so these skip the string lookup a name-keyed
/// update would pay; they must be re-registered whenever `stats` is
/// replaced (construction, [`MemorySystem::take_stats`],
/// a snapshot restore keeps them: see `Metrics`' `Persist`) because the
/// handles index the registry they were registered in.
#[derive(Debug, Clone, Copy)]
struct MemIds {
    l1_hits: CounterId,
    l1_misses: CounterId,
    l1_writebacks: CounterId,
    l2_hits: CounterId,
    l2_misses: CounterId,
    l2_evictions: CounterId,
    l2_writebacks: CounterId,
    bus_txns: CounterId,
    upgrades: CounterId,
    remote_invalidations: CounterId,
    dirty_transfers: CounterId,
    c2c_transfers: CounterId,
    dram_lines: CounterId,
    dram_bytes: CounterId,
    dram_sat_events: CounterId,
    prefetches: CounterId,
}

impl MemIds {
    fn register(m: &mut Metrics) -> Self {
        MemIds {
            l1_hits: m.register_counter("mem.l1_hits"),
            l1_misses: m.register_counter("mem.l1_misses"),
            l1_writebacks: m.register_counter("mem.l1_writebacks"),
            l2_hits: m.register_counter("mem.l2_hits"),
            l2_misses: m.register_counter("mem.l2_misses"),
            l2_evictions: m.register_counter("mem.l2_evictions"),
            l2_writebacks: m.register_counter("mem.l2_writebacks"),
            bus_txns: m.register_counter("mem.bus_txns"),
            upgrades: m.register_counter("mem.upgrades"),
            remote_invalidations: m.register_counter("mem.remote_invalidations"),
            dirty_transfers: m.register_counter("mem.dirty_transfers"),
            c2c_transfers: m.register_counter("mem.c2c_transfers"),
            dram_lines: m.register_counter("mem.dram_lines"),
            dram_bytes: m.register_counter("mem.dram_bytes"),
            dram_sat_events: m.register_counter("mem.dram_sat_events"),
            prefetches: m.register_counter("mem.prefetches"),
        }
    }
}

impl MemorySystem {
    /// Builds a hierarchy with one private L1 per entry of `l1_params`, all
    /// sharing the L2/DRAM described by `config`.
    pub fn new(l1_params: Vec<CacheParams>, config: &MemoryConfig) -> Self {
        let l1s = l1_params.iter().map(CacheArray::new).collect();
        let mut stats = Metrics::new();
        let ids = MemIds::register(&mut stats);
        MemorySystem {
            l1s,
            l1_params,
            l2: CacheArray::new(&config.l2),
            l2_params: config.l2.clone(),
            dram: config.dram.clone(),
            bus: BusParams::default(),
            bus_meter: BandwidthMeter::default_epoch(),
            l2_meter: BandwidthMeter::default_epoch(),
            dram_meter: BandwidthMeter::default_epoch(),
            stats,
            ids,
            trace: Tracer::disabled(),
        }
    }

    /// Number of L1 ports.
    pub fn num_ports(&self) -> usize {
        self.l1s.len()
    }

    /// Line size in bytes (uniform across the hierarchy).
    pub fn line_bytes(&self) -> usize {
        self.l2.line_bytes()
    }

    /// Borrow the accumulated statistics.
    pub fn stats(&self) -> &Metrics {
        &self.stats
    }

    /// Takes the statistics out, leaving an empty registry.
    pub fn take_stats(&mut self) -> Metrics {
        let taken = std::mem::take(&mut self.stats);
        self.ids = MemIds::register(&mut self.stats);
        taken
    }

    /// Enables structured event tracing with a bounded buffer of `capacity`
    /// records (zero disables).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Tracer::bounded(capacity);
    }

    /// Takes the accumulated event trace out, leaving a disabled tracer.
    pub fn take_trace(&mut self) -> Tracer {
        std::mem::take(&mut self.trace)
    }

    fn l1_hit_time(&self, port: usize) -> Time {
        let p = &self.l1_params[port];
        p.clock.cycles_to_time(p.hit_latency_cycles)
    }

    fn l2_hit_time(&self) -> Time {
        self.l2_params
            .clock
            .cycles_to_time(self.l2_params.hit_latency_cycles)
    }

    fn acquire_bus(&mut self, t: Time) -> Time {
        let start = self.bus_meter.acquire(t, self.bus.occupancy.as_ps());
        self.stats.inc(self.ids.bus_txns);
        start + self.bus.latency
    }

    fn acquire_l2(&mut self, t: Time) -> Time {
        let start = self.l2_meter.acquire(t, self.bus.l2_occupancy.as_ps());
        start + self.l2_hit_time()
    }

    fn acquire_dram(&mut self, t: Time) -> Time {
        let line_bytes = self.line_bytes() as u64;
        let transfer_ps = self.dram.line_transfer_ps(self.line_bytes());
        let start = self.dram_meter.acquire(t, transfer_ps);
        self.stats.inc(self.ids.dram_lines);
        self.stats.add_to(self.ids.dram_bytes, line_bytes);
        // Starting in a later epoch than requested means the natural epoch
        // was already full: the channel is saturated.
        if self.dram_meter.epoch_of(start) > self.dram_meter.epoch_of(t) {
            self.stats.inc(self.ids.dram_sat_events);
            self.trace.emit(
                t,
                TraceEvent::DramSaturated {
                    epoch: self.dram_meter.epoch_of(t),
                    committed_ps: self.dram_meter.total_committed_ps(),
                },
            );
        }
        start + Time::from_ns(self.dram.access_latency_ns) + Time::from_ps(transfer_ps)
    }

    /// Consumes DRAM bandwidth for a background transfer (writeback or
    /// prefetch) without delaying the requester.
    fn dram_background(&mut self, at: Time) {
        let line_bytes = self.line_bytes() as u64;
        let transfer_ps = self.dram.line_transfer_ps(self.line_bytes());
        let _ = self.dram_meter.acquire(at, transfer_ps);
        self.stats.add_to(self.ids.dram_bytes, line_bytes);
    }

    /// Finds a remote L1 (not `port`) holding the line in an owning state
    /// (M, O or E) — the cache that would supply data on a snoop.
    fn snoop_owner(&self, port: usize, addr: u64) -> Option<usize> {
        self.l1s.iter().enumerate().find_map(|(i, c)| {
            if i == port {
                return None;
            }
            match c.peek(addr) {
                Some(LineState::Modified) | Some(LineState::Owned) | Some(LineState::Exclusive) => {
                    Some(i)
                }
                _ => None,
            }
        })
    }

    /// Whether any remote L1 holds the line in any state.
    fn any_remote_copy(&self, port: usize, addr: u64) -> bool {
        self.l1s
            .iter()
            .enumerate()
            .any(|(i, c)| i != port && c.peek(addr).is_some())
    }

    /// Invalidates the line in every remote L1; writebacks of dirty copies
    /// consume DRAM bandwidth in the background (they actually merge into the
    /// L2, but the occupancy cost is what matters for the model).
    fn invalidate_remotes(&mut self, port: usize, addr: u64) {
        for i in 0..self.l1s.len() {
            if i == port {
                continue;
            }
            if let Some(state) = self.l1s[i].invalidate(addr) {
                self.stats.inc(self.ids.remote_invalidations);
                if state.is_dirty() {
                    // Dirty data moves to the requester with the transfer;
                    // no extra DRAM traffic needed under MOESI.
                    self.stats.inc(self.ids.dirty_transfers);
                }
            }
        }
    }

    /// Downgrades remote copies for a read: M -> O, E -> S.
    fn downgrade_remotes(&mut self, port: usize, addr: u64) {
        for i in 0..self.l1s.len() {
            if i == port {
                continue;
            }
            match self.l1s[i].peek(addr) {
                Some(LineState::Modified) => self.l1s[i].set_state(addr, LineState::Owned),
                Some(LineState::Exclusive) => self.l1s[i].set_state(addr, LineState::Shared),
                _ => {}
            }
        }
    }

    /// Installs a line into the L2 (inclusive), handling victim
    /// back-invalidation of L1 copies and dirty writebacks.
    fn install_l2(&mut self, port: usize, addr: u64, state: LineState, at: Time) {
        if let Some((victim_addr, victim_state)) = self.l2.install(addr, state) {
            self.stats.inc(self.ids.l2_evictions);
            self.trace.emit(
                at,
                TraceEvent::CacheEvict {
                    port: port as u32,
                    level: 2,
                },
            );
            // Inclusive L2: evicting a line must remove all L1 copies.
            let mut dirty = victim_state.is_dirty();
            for c in &mut self.l1s {
                if let Some(s) = c.invalidate(victim_addr) {
                    dirty |= s.is_dirty();
                }
            }
            if dirty {
                self.stats.inc(self.ids.l2_writebacks);
                self.dram_background(at);
            }
        }
    }

    /// Installs a line into an L1, handling dirty-victim writeback to L2.
    fn install_l1(&mut self, port: usize, addr: u64, state: LineState, at: Time) {
        if let Some((victim_addr, victim_state)) = self.l1s[port].install(addr, state) {
            self.trace.emit(
                at,
                TraceEvent::CacheEvict {
                    port: port as u32,
                    level: 1,
                },
            );
            if victim_state.is_dirty() {
                self.stats.inc(self.ids.l1_writebacks);
                // Write back into L2 (data plane is functional memory; here
                // we only ensure the L2 still tracks the line as dirty).
                if self.l2.peek(victim_addr).is_some() {
                    self.l2.set_state(victim_addr, LineState::Modified);
                } else {
                    self.install_l2(port, victim_addr, LineState::Modified, at);
                }
            }
        }
    }

    /// Fetches a line into `port`'s L1 after an L1 miss, returning the
    /// completion time. `t` is the time the miss leaves the L1.
    fn fill_from_below(&mut self, port: usize, addr: u64, kind: AccessKind, t: Time) -> Time {
        let mut t = self.acquire_bus(t);
        if kind == AccessKind::Amo {
            // AMOs pay a second bus serialization for the locked phase.
            t = self.acquire_bus(t);
        }
        let install_state;
        if let Some(_owner) = self.snoop_owner(port, addr) {
            // Cache-to-cache transfer from the owning L1.
            self.stats.inc(self.ids.c2c_transfers);
            t += self.bus.cache_to_cache;
            if kind.is_write() {
                self.invalidate_remotes(port, addr);
                install_state = LineState::Modified;
            } else {
                self.downgrade_remotes(port, addr);
                install_state = LineState::Shared;
            }
            // Inclusive: line is already tracked in L2. Mark dirty ownership
            // transfer conservatively.
            if self.l2.peek(addr).is_none() {
                self.install_l2(port, addr, LineState::Modified, t);
            }
        } else {
            t = self.acquire_l2(t);
            let l2_hit = self.l2.lookup(addr).is_some();
            if l2_hit {
                self.stats.inc(self.ids.l2_hits);
                self.trace.emit(
                    t,
                    TraceEvent::CacheHit {
                        port: port as u32,
                        level: 2,
                    },
                );
            } else {
                self.stats.inc(self.ids.l2_misses);
                self.trace.emit(
                    t,
                    TraceEvent::CacheMiss {
                        port: port as u32,
                        level: 2,
                    },
                );
                t = self.acquire_dram(t);
                self.install_l2(port, addr, LineState::Shared, t);
            }
            if kind.is_write() {
                self.invalidate_remotes(port, addr);
                install_state = LineState::Modified;
            } else if self.any_remote_copy(port, addr) {
                install_state = LineState::Shared;
            } else {
                install_state = LineState::Exclusive;
            }
        }
        self.install_l1(port, addr, install_state, t);
        t
    }

    /// Issues a next-line prefetch in the background after a demand miss.
    fn maybe_prefetch(&mut self, port: usize, addr: u64, at: Time) {
        if !self.l1_params[port].next_line_prefetch {
            return;
        }
        let next = addr + self.line_bytes() as u64;
        if self.l1s[port].peek(next).is_some() {
            return;
        }
        // A prefetch must not steal ownership from a remote dirty copy —
        // skip if any remote cache owns the line.
        if self.snoop_owner(port, next).is_some() {
            return;
        }
        self.stats.inc(self.ids.prefetches);
        if self.l2.lookup(next).is_none() {
            self.dram_background(at);
            self.install_l2(port, next, LineState::Shared, at);
        }
        let state = if self.any_remote_copy(port, next) {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        self.install_l1(port, next, state, at);
    }

    /// Performs one access of up to a cache line and returns its completion
    /// time.
    ///
    /// The access must not cross a line boundary in a way that matters: the
    /// model operates on the line containing `addr`. Use
    /// [`MemorySystem::access_bytes`] for multi-line transfers.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn access(&mut self, port: PortId, addr: u64, kind: AccessKind, now: Time) -> Time {
        let p = port.0;
        assert!(p < self.l1s.len(), "port {p} out of range");
        let t = now + self.l1_hit_time(p);
        match self.l1s[p].lookup(addr) {
            Some(state) => {
                self.stats.inc(self.ids.l1_hits);
                self.trace.emit(
                    now,
                    TraceEvent::CacheHit {
                        port: p as u32,
                        level: 1,
                    },
                );
                if kind.is_write() {
                    if state.can_write_silently() {
                        self.l1s[p].set_state(addr, LineState::Modified);
                        t
                    } else {
                        // S or O: upgrade via bus invalidation.
                        self.stats.inc(self.ids.upgrades);
                        let t = self.acquire_bus(t);
                        self.invalidate_remotes(p, addr);
                        self.l1s[p].set_state(addr, LineState::Modified);
                        t
                    }
                } else {
                    t
                }
            }
            None => {
                self.stats.inc(self.ids.l1_misses);
                self.trace.emit(
                    now,
                    TraceEvent::CacheMiss {
                        port: p as u32,
                        level: 1,
                    },
                );
                let done = self.fill_from_below(p, addr, kind, t);
                self.maybe_prefetch(p, addr, done);
                done
            }
        }
    }

    /// Checks the MOESI invariants over a set of line addresses (testing
    /// hook): at most one owner (M/O/E) per line; M and E imply no other
    /// copies; every L1-resident line is also in the inclusive L2.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_coherence(&self, addrs: &[u64]) -> Result<(), String> {
        for &addr in addrs {
            let states: Vec<(usize, LineState)> = self
                .l1s
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.peek(addr).map(|s| (i, s)))
                .collect();
            let owners = states
                .iter()
                .filter(|(_, s)| {
                    matches!(
                        s,
                        LineState::Modified | LineState::Owned | LineState::Exclusive
                    )
                })
                .count();
            if owners > 1 {
                return Err(format!("line {addr:#x}: {owners} owners ({states:?})"));
            }
            let exclusive = states
                .iter()
                .any(|(_, s)| matches!(s, LineState::Modified | LineState::Exclusive));
            if exclusive && states.len() > 1 {
                return Err(format!(
                    "line {addr:#x}: M/E coexists with other copies ({states:?})"
                ));
            }
            if !states.is_empty() && self.l2.peek(addr).is_none() {
                return Err(format!(
                    "line {addr:#x}: L1 copy without inclusive L2 entry"
                ));
            }
        }
        Ok(())
    }

    /// Performs a burst access of `bytes` bytes starting at `addr`,
    /// line by line, each issued when the previous completes (a simple
    /// streaming DMA). Returns the completion time of the last line.
    pub fn access_bytes(
        &mut self,
        port: PortId,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        now: Time,
    ) -> Time {
        if bytes == 0 {
            return now;
        }
        let line = self.line_bytes() as u64;
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let mut t = now;
        let mut a = first;
        loop {
            t = self.access(port, a, kind, t);
            if a == last {
                break;
            }
            a += line;
        }
        t
    }
}

/// Builds the port list for an accelerator with `tiles` tiles plus a CPU
/// host port, all using Table III parameters.
pub fn accel_ports(tiles: usize, config: &MemoryConfig) -> Vec<CacheParams> {
    vec![config.accel_l1.clone(); tiles]
}

/// Builds the port list for a CPU with `cores` cores.
pub fn cpu_ports(cores: usize, config: &MemoryConfig) -> Vec<CacheParams> {
    vec![config.cpu_l1.clone(); cores]
}

/// The complete hierarchy state — cache tag/state arrays, bandwidth
/// meters, statistics and the event trace. Timing parameters are *not*
/// captured; they come from the configuration the restoring system was
/// built with.
impl Persist for MemorySystem {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.exact(&mut self.l1s, "L1 ports")?;
        self.l2.persist(c)?;
        self.bus_meter.persist(c)?;
        self.l2_meter.persist(c)?;
        self.dram_meter.persist(c)?;
        self.stats.persist(c)?;
        self.trace.persist(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxl_sim::config::MemoryConfig;

    fn sys(ports: usize) -> MemorySystem {
        let cfg = MemoryConfig::micro2018();
        MemorySystem::new(vec![cfg.accel_l1.clone(); ports], &cfg)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = sys(1);
        let t1 = m.access(PortId(0), 0x40, AccessKind::Read, Time::ZERO);
        assert!(t1 > Time::from_ns(50), "cold miss must pay DRAM latency");
        let t2 = m.access(PortId(0), 0x40, AccessKind::Read, t1);
        assert_eq!(t2 - t1, Time::from_ps(2_500), "hit = 1 cycle at 400MHz");
        assert_eq!(m.stats().get("mem.l1_hits"), 1);
        assert_eq!(m.stats().get("mem.l1_misses"), 1);
    }

    #[test]
    fn l2_hit_is_cheaper_than_dram() {
        let mut m = sys(2);
        // Port 0 pulls the line in (fills L2), then evict-free read by port 1
        // hits in L2 after port 0's copy is downgraded... use a read so both share.
        let t1 = m.access(PortId(0), 0x80, AccessKind::Read, Time::ZERO);
        let t2 = m.access(PortId(1), 0x1000, AccessKind::Read, t1); // another cold miss
        let dram_miss = t2 - t1;
        // Invalidate port 0's copy so port 1's access to 0x80 is an L2 hit,
        // not a c2c transfer.
        m.l1s[0].flush_all();
        let t3 = m.access(PortId(1), 0x80, AccessKind::Read, t2);
        assert!(t3 - t2 < dram_miss, "L2 hit must beat DRAM access");
        assert!(m.stats().get("mem.l2_hits") >= 1);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut m = sys(2);
        let t1 = m.access(PortId(0), 0x40, AccessKind::Read, Time::ZERO);
        let t2 = m.access(PortId(1), 0x40, AccessKind::Read, t1);
        // Both hold S now; port 0 was downgraded from E to S.
        let t3 = m.access(PortId(0), 0x40, AccessKind::Write, t2);
        assert!(m.stats().get("mem.remote_invalidations") >= 1);
        // Port 1 must now miss.
        let before = m.stats().get("mem.l1_misses");
        let _ = m.access(PortId(1), 0x40, AccessKind::Read, t3);
        assert_eq!(m.stats().get("mem.l1_misses"), before + 1);
    }

    #[test]
    fn dirty_line_supplied_cache_to_cache() {
        let mut m = sys(2);
        let t1 = m.access(PortId(0), 0x40, AccessKind::Write, Time::ZERO);
        let _ = m.access(PortId(1), 0x40, AccessKind::Read, t1);
        assert_eq!(m.stats().get("mem.c2c_transfers"), 1);
        // MOESI: writer downgraded to Owned, not invalidated.
        assert_eq!(m.l1s[0].peek(0x40), Some(LineState::Owned));
        assert_eq!(m.l1s[1].peek(0x40), Some(LineState::Shared));
    }

    #[test]
    fn exclusive_read_upgrades_silently() {
        let mut m = sys(2);
        let t1 = m.access(PortId(0), 0x40, AccessKind::Read, Time::ZERO);
        assert_eq!(m.l1s[0].peek(0x40), Some(LineState::Exclusive));
        let bus_before = m.stats().get("mem.bus_txns");
        let _ = m.access(PortId(0), 0x40, AccessKind::Write, t1);
        assert_eq!(
            m.stats().get("mem.bus_txns"),
            bus_before,
            "E->M must not use the bus"
        );
        assert_eq!(m.l1s[0].peek(0x40), Some(LineState::Modified));
    }

    #[test]
    fn dram_bandwidth_is_limited() {
        let mut m = sys(2);
        // A burst of cold misses issued at t=0 from two ports: aggregate
        // completion cannot beat the DRAM line rate (5 ns per 64 B line at
        // 12.8 GB/s). Use strided lines so the next-line prefetcher does not
        // serve any of them.
        let n = 200u64;
        let mut last = Time::ZERO;
        for i in 0..n {
            let t = m.access(
                PortId((i % 2) as usize),
                i * 0x10000,
                AccessKind::Read,
                Time::ZERO,
            );
            last = last.max(t);
        }
        let min_transfer = Time::from_ps(5_000 * n);
        assert!(
            last >= min_transfer,
            "{n} lines finished at {last}, faster than the 12.8 GB/s bound {min_transfer}"
        );
    }

    #[test]
    fn prefetch_makes_next_line_hit() {
        let mut m = sys(1);
        let t1 = m.access(PortId(0), 0x0, AccessKind::Read, Time::ZERO);
        assert!(m.stats().get("mem.prefetches") >= 1);
        let t2 = m.access(PortId(0), 0x40, AccessKind::Read, t1);
        assert_eq!(t2 - t1, Time::from_ps(2_500), "prefetched line must hit");
    }

    #[test]
    fn burst_access_covers_all_lines() {
        let mut m = sys(1);
        let t = m.access_bytes(PortId(0), 0x100, 256, AccessKind::Read, Time::ZERO);
        assert!(t > Time::ZERO);
        // 256 bytes from 0x100 = lines 0x100..0x1C0 -> 4 line accesses.
        assert_eq!(
            m.stats().get("mem.l1_hits") + m.stats().get("mem.l1_misses"),
            4
        );
        assert_eq!(
            m.access_bytes(PortId(0), 0x100, 0, AccessKind::Read, t),
            t,
            "zero-byte burst is free"
        );
    }

    #[test]
    fn amo_costs_more_than_write_hit() {
        let mut m = sys(1);
        let t1 = m.access(PortId(0), 0x40, AccessKind::Write, Time::ZERO);
        let t2 = m.access(PortId(0), 0x40, AccessKind::Write, t1);
        let write_hit = t2 - t1;
        let mut m2 = sys(1);
        let u1 = m2.access(PortId(0), 0x40, AccessKind::Write, Time::ZERO);
        let u2 = m2.access(PortId(0), 0x40, AccessKind::Amo, u1);
        // AMO on an M-state line is a silent hit in this model (already
        // exclusive); it only pays extra on misses. Check the miss path:
        let mut m3 = sys(2);
        let v1 = m3.access(PortId(0), 0x40, AccessKind::Write, Time::ZERO);
        let v2 = m3.access(PortId(1), 0x40, AccessKind::Write, v1);
        let plain_transfer = v2 - v1;
        let mut m4 = sys(2);
        let w1 = m4.access(PortId(0), 0x40, AccessKind::Write, Time::ZERO);
        let w2 = m4.access(PortId(1), 0x40, AccessKind::Amo, w1);
        assert!(w2 - w1 > plain_transfer, "AMO miss pays extra bus phase");
        let _ = (u2, write_hit);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        let cfg = MemoryConfig::micro2018();
        // Tiny L2 (4 KB, 2-way) to force evictions quickly; L1 32 KB.
        let mut small = cfg.clone();
        small.l2 = cfg.l2.clone().with_size(4 * 1024);
        small.l2.ways = 2;
        let mut m = MemorySystem::new(vec![cfg.accel_l1.clone()], &small);
        // Touch enough distinct lines mapping across L2 sets to evict line 0.
        let mut t = m.access(PortId(0), 0, AccessKind::Read, Time::ZERO);
        let sets = small.l2.num_sets() as u64;
        let line = 64u64;
        for i in 1..=2 * sets {
            t = m.access(PortId(0), i * sets * line, AccessKind::Read, t);
        }
        assert!(m.stats().get("mem.l2_evictions") > 0);
        // Line 0 must have been back-invalidated from the L1 (inclusive).
        assert_eq!(m.l1s[0].peek(0), None);
    }

    #[test]
    fn trace_records_cache_events_and_dram_bytes() {
        let mut m = sys(1);
        m.enable_trace(1024);
        let t1 = m.access(PortId(0), 0x40, AccessKind::Read, Time::ZERO);
        let _ = m.access(PortId(0), 0x40, AccessKind::Read, t1);
        assert_eq!(
            m.stats().get("mem.dram_bytes"),
            m.stats().get("mem.dram_lines") * 64 + m.stats().get("mem.prefetches") * 64
        );
        let trace = m.take_trace();
        let kinds: Vec<&str> = trace.records().iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"cache_miss"));
        assert!(kinds.contains(&"cache_hit"));
        // Tracing is off by default: a fresh system records nothing.
        let mut quiet = sys(1);
        let _ = quiet.access(PortId(0), 0x40, AccessKind::Read, Time::ZERO);
        assert!(quiet.take_trace().is_empty());
    }

    #[test]
    fn saturated_dram_counts_events() {
        let mut m = sys(2);
        m.enable_trace(100_000);
        // Hammer cold misses at t=0 until the first 100 ns epoch overflows.
        for i in 0..200u64 {
            let _ = m.access(
                PortId((i % 2) as usize),
                i * 0x10000,
                AccessKind::Read,
                Time::ZERO,
            );
        }
        assert!(m.stats().get("mem.dram_sat_events") > 0);
        let trace = m.take_trace();
        assert!(trace
            .records()
            .iter()
            .any(|r| r.event.kind() == "dram_saturated"));
    }

    #[test]
    fn bounded_trace_drops_overflow() {
        let mut m = sys(1);
        m.enable_trace(4);
        let mut t = Time::ZERO;
        for i in 0..32u64 {
            t = m.access(PortId(0), i * 0x10000, AccessKind::Read, t);
        }
        let trace = m.take_trace();
        assert_eq!(trace.records().len(), 4);
        assert!(trace.dropped() > 0, "bounded buffer must drop overflow");
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut a = sys(2);
        a.enable_trace(256);
        let mut t = Time::ZERO;
        for i in 0..40u64 {
            let port = PortId((i % 2) as usize);
            let kind = if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            t = a.access(port, (i % 7) * 0x940, kind, t);
        }
        let state = pxl_sim::persist::save(&mut a);
        let mut b = sys(2);
        b.enable_trace(256);
        pxl_sim::persist::load(&mut b, &state).unwrap();
        assert_eq!(b.stats().to_json(), a.stats().to_json());
        // Identical future behavior: same timing, same stats, same trace.
        for i in 0..40u64 {
            let port = PortId(((i + 1) % 2) as usize);
            let ta = a.access(port, (i % 11) * 0x400, AccessKind::Read, t);
            let tb = b.access(port, (i % 11) * 0x400, AccessKind::Read, t);
            assert_eq!(ta, tb, "access {i} diverged after restore");
            t = ta;
        }
        assert_eq!(b.stats().to_json(), a.stats().to_json());
        assert_eq!(
            b.take_trace().to_jsonl(),
            a.take_trace().to_jsonl(),
            "trace streams diverged after restore"
        );
        // Geometry mismatch is refused.
        let mut wrong = sys(3);
        let err = pxl_sim::persist::load(&mut wrong, &state).unwrap_err();
        assert!(err.to_string().contains("ports"), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_port_panics() {
        let mut m = sys(1);
        let _ = m.access(PortId(5), 0, AccessKind::Read, Time::ZERO);
    }
}
