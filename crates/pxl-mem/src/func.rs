//! Functional memory: the data plane of the simulation.
//!
//! Every simulated engine (FlexArch, LiteArch, the CPU baseline) executes
//! benchmarks *for real* against a shared [`Memory`], while the timing
//! hierarchy separately answers how long each access takes. The split is the
//! standard timing-directed simulation structure and is what lets the test
//! suite verify that, e.g., a 32-PE work-stealing run of quicksort actually
//! sorts.

use std::collections::HashMap;

use pxl_sim::hash::Mix64Build;
use pxl_sim::{Codec, Persist, SnapshotError};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse, byte-addressable, zero-initialized 64-bit memory.
///
/// Backed by 4 KiB pages allocated on first touch, so simulations can use
/// realistic (sparse) address-space layouts without host cost.
///
/// # Examples
///
/// ```
/// use pxl_mem::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u32(0x1000, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u32(0x1000), 0xDEAD_BEEF);
/// assert_eq!(mem.read_u32(0x2000), 0); // untouched memory reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, Mix64Build>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_page = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let in_page = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            self.page_mut(a)[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            off += n;
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_bytes(addr, &[v]);
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `i32`.
    pub fn read_i32(&self, addr: u64) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Writes a little-endian `i32`.
    pub fn write_i32(&mut self, addr: u64, v: i32) {
        self.write_u32(addr, v as u32);
    }

    /// Reads an `f32` from its bit pattern.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` as its bit pattern.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its bit pattern.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Convenience: reads `n` consecutive `u32` values starting at `addr`.
    pub fn read_u32_slice(&self, addr: u64, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u64)).collect()
    }

    /// Convenience: writes consecutive `u32` values starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, vals: &[u32]) {
        for (i, &v) in vals.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, v);
        }
    }

    /// Convenience: reads `n` consecutive `i32` values starting at `addr`.
    pub fn read_i32_slice(&self, addr: u64, n: usize) -> Vec<i32> {
        (0..n).map(|i| self.read_i32(addr + 4 * i as u64)).collect()
    }

    /// Convenience: writes consecutive `i32` values starting at `addr`.
    pub fn write_i32_slice(&mut self, addr: u64, vals: &[i32]) {
        for (i, &v) in vals.iter().enumerate() {
            self.write_i32(addr + 4 * i as u64, v);
        }
    }
}

/// Every resident page in index order, each as its index followed by the
/// raw 4 KiB. Loading replaces the entire contents, so pages the restoring
/// engine's input setup touched but the snapshot lacks read zero again.
impl Persist for Memory {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        indices.persist(c)?;
        if C::LOADING {
            self.pages.clear();
        }
        for idx in indices {
            let page = self
                .pages
                .entry(idx)
                .or_insert_with(|| Box::new([0; PAGE_SIZE]));
            c.raw(&mut page[..])?;
        }
        Ok(())
    }
}

/// A bump allocator for laying out benchmark data in the simulated address
/// space.
///
/// Mirrors what the host program's `malloc` would do before offloading to the
/// accelerator. Never frees; each benchmark run uses a fresh allocator.
///
/// # Examples
///
/// ```
/// use pxl_mem::Allocator;
///
/// let mut alloc = Allocator::new(0x1000);
/// let a = alloc.alloc(100, 64);
/// let b = alloc.alloc(8, 8);
/// assert_eq!(a % 64, 0);
/// assert!(b >= a + 100);
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    next: u64,
}

impl Allocator {
    /// Creates an allocator whose first allocation is at or after `base`.
    pub fn new(base: u64) -> Self {
        Allocator { next: base }
    }

    /// Allocates `size` bytes aligned to `align` and returns the address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        self.next = addr + size;
        addr
    }

    /// Allocates room for `n` elements of `elem_size` bytes, cache-line
    /// aligned (the layout HLS buffers use).
    pub fn alloc_array(&mut self, n: u64, elem_size: u64) -> u64 {
        self.alloc(n * elem_size, 64)
    }

    /// Address the next allocation would start searching from.
    pub fn watermark(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(0xFFFF_FFFF), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn typed_roundtrips() {
        let mut mem = Memory::new();
        mem.write_u8(10, 0xAB);
        mem.write_u16(20, 0xBEEF);
        mem.write_u32(30, 0xDEAD_BEEF);
        mem.write_u64(40, 0x0123_4567_89AB_CDEF);
        mem.write_i32(50, -42);
        mem.write_f32(60, 3.5);
        mem.write_f64(70, -2.25);
        assert_eq!(mem.read_u8(10), 0xAB);
        assert_eq!(mem.read_u16(20), 0xBEEF);
        assert_eq!(mem.read_u32(30), 0xDEAD_BEEF);
        assert_eq!(mem.read_u64(40), 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_i32(50), -42);
        assert_eq!(mem.read_f32(60), 3.5);
        assert_eq!(mem.read_f64(70), -2.25);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles a page boundary
        mem.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        mem.write_bytes(123, &data);
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(123, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn slice_helpers() {
        let mut mem = Memory::new();
        mem.write_i32_slice(0x100, &[-1, 2, -3]);
        assert_eq!(mem.read_i32_slice(0x100, 3), vec![-1, 2, -3]);
        mem.write_u32_slice(0x200, &[7, 8]);
        assert_eq!(mem.read_u32_slice(0x200, 2), vec![7, 8]);
    }

    #[test]
    fn state_round_trip_replaces_everything() {
        let mut mem = Memory::new();
        mem.write_u64(0x40, 0x0123_4567_89AB_CDEF);
        mem.write_bytes(3 * PAGE_SIZE as u64 - 2, &[1, 2, 3, 4]);
        let bytes = pxl_sim::persist::save(&mut mem);
        // Restoring over a dirtied memory must drop the extra page and
        // reproduce the original bytes exactly.
        let mut other = Memory::new();
        other.write_u64(0x40, 999);
        other.write_u64(0x9000, 7);
        pxl_sim::persist::load(&mut other, &bytes).unwrap();
        assert_eq!(other.read_u64(0x40), 0x0123_4567_89AB_CDEF);
        assert_eq!(other.read_u64(0x9000), 0, "stale page must vanish");
        assert_eq!(other.resident_pages(), mem.resident_pages());
        assert_eq!(
            pxl_sim::persist::save(&mut other),
            bytes,
            "round trip is byte-stable"
        );
        // A page cut short is an error, not a zero-filled page.
        assert!(pxl_sim::persist::load(&mut other, &bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn allocator_alignment_and_progress() {
        let mut a = Allocator::new(1);
        let x = a.alloc(10, 16);
        assert_eq!(x, 16);
        let y = a.alloc(1, 1);
        assert_eq!(y, 26);
        let z = a.alloc_array(4, 4);
        assert_eq!(z % 64, 0);
        assert!(a.watermark() >= z + 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn allocator_bad_alignment() {
        let mut a = Allocator::new(0);
        a.alloc(1, 3);
    }
}
