//! One symmetric binary codec for engine snapshots.
//!
//! A type opts into checkpointing by implementing [`Persist`]: one
//! `persist` method that hands each piece of mutable state to a
//! [`Codec`]. The same method both captures and restores, because the
//! codec decides the direction — [`Writer`] appends every visited value to
//! a byte buffer, [`Reader`] overwrites every visited value from a
//! bounds-checked slice. A type's field list therefore appears exactly
//! once, and save and load cannot drift apart.
//!
//! Wire format: unsigned integers are LEB128 varints, sequences carry a
//! varint length prefix, and raw byte blocks (memory pages) are copied
//! verbatim. There are no field names or type tags; the `persist` walk is
//! the schema, and [`crate::SNAPSHOT_VERSION`] is bumped when it changes
//! incompatibly.
//!
//! Restores land in an engine freshly built from the same configuration,
//! so configuration-shaped state (per-PE arrays, tile counts, capacities)
//! is checked against what the engine already holds — [`Codec::expect`],
//! [`Codec::exact`] and [`Codec::optional`] — rather than trusted. A
//! length prefix larger than the bytes left is rejected before anything is
//! allocated (every element occupies at least one byte).
//!
//! # Examples
//!
//! ```
//! use pxl_sim::persist::{self, Codec, Persist};
//! use pxl_sim::{SnapshotError, Time};
//!
//! #[derive(Debug, Default, PartialEq)]
//! struct Unit {
//!     busy_until: Time,
//!     queue: Vec<u64>,
//! }
//!
//! impl Persist for Unit {
//!     fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
//!         self.busy_until.persist(c)?;
//!         self.queue.persist(c)
//!     }
//! }
//!
//! let mut unit = Unit { busy_until: Time::from_ps(7), queue: vec![1, u64::MAX] };
//! let bytes = persist::save(&mut unit);
//! let mut back = Unit::default();
//! persist::load(&mut back, &bytes).unwrap();
//! assert_eq!(back, unit);
//! assert!(persist::load(&mut back, &bytes[..3]).is_err());
//! ```

use std::collections::{BTreeMap, VecDeque};

use crate::snapshot::{malformed, SnapshotError};
use crate::time::Time;

/// Direction-agnostic access to a snapshot byte stream; see the
/// [module docs](self).
pub trait Codec: Sized {
    /// Whether this codec restores state ([`Reader`]) rather than captures
    /// it ([`Writer`]). `persist` bodies branch on it only to rebuild
    /// derived structures after loading.
    const LOADING: bool;

    /// A LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when loading from truncated or
    /// overlong bytes.
    fn varint(&mut self, value: &mut u64) -> Result<(), SnapshotError>;

    /// `bytes.len()` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when loading past the end.
    fn raw(&mut self, bytes: &mut [u8]) -> Result<(), SnapshotError>;

    /// A sequence length: writes `len`, or reads one and returns it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when a loaded length exceeds the bytes
    /// left (each element occupies at least one byte).
    fn len(&mut self, len: usize) -> Result<usize, SnapshotError>;

    /// A value the restoring engine's configuration already fixes: written
    /// as-is, and on load rejected unless the snapshot holds `have` too.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming `what` on a mismatch.
    fn expect(&mut self, have: u64, what: &str) -> Result<(), SnapshotError> {
        let mut found = have;
        self.varint(&mut found)?;
        if found == have {
            Ok(())
        } else {
            Err(malformed(format!(
                "snapshot has {found} {what}, this engine has {have}"
            )))
        }
    }

    /// A configuration-sized sequence: its length must match `items`'.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming `what` on a length mismatch, or
    /// any element's error.
    fn exact<T: Persist>(&mut self, items: &mut [T], what: &str) -> Result<(), SnapshotError> {
        self.expect(items.len() as u64, what)?;
        items.iter_mut().try_for_each(|item| item.persist(self))
    }

    /// State present only under some configurations (fault plans,
    /// telemetry, cluster links): the snapshot must carry it exactly when
    /// the restoring engine does.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming `what` when presence differs, or
    /// the inner value's error.
    fn optional<T: Persist>(
        &mut self,
        value: &mut Option<T>,
        what: &str,
    ) -> Result<(), SnapshotError> {
        let have = value.is_some();
        let mut found = have;
        found.persist(self)?;
        match (found, value) {
            (true, Some(inner)) => inner.persist(self),
            (false, None) => Ok(()),
            (true, None) => Err(malformed(format!(
                "the snapshot carries {what}, this engine has none"
            ))),
            (false, Some(_)) => Err(malformed(format!(
                "this engine carries {what}, the snapshot does not"
            ))),
        }
    }
}

/// State that can be captured into and restored from a [`Codec`] by one
/// walk over its fields.
pub trait Persist {
    /// Visits every piece of mutable state through `c`.
    ///
    /// # Errors
    ///
    /// Only when loading: [`SnapshotError::Malformed`] for bytes that are
    /// truncated or describe a different configuration.
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError>;
}

/// The capturing [`Codec`]: appends to a byte buffer. Never fails.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Codec for Writer {
    const LOADING: bool = false;

    fn varint(&mut self, value: &mut u64) -> Result<(), SnapshotError> {
        let mut v = *value;
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
        Ok(())
    }

    fn raw(&mut self, bytes: &mut [u8]) -> Result<(), SnapshotError> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn len(&mut self, len: usize) -> Result<usize, SnapshotError> {
        self.varint(&mut (len as u64))?;
        Ok(len)
    }
}

/// The restoring [`Codec`]: consumes a byte slice, bounds-checking every
/// read.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Succeeds when every byte has been consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for trailing bytes.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(malformed(format!("{} trailing bytes", self.rest.len())))
        }
    }
}

impl Codec for Reader<'_> {
    const LOADING: bool = true;

    fn varint(&mut self, value: &mut u64) -> Result<(), SnapshotError> {
        let mut v = 0u64;
        for (i, &byte) in self.rest.iter().enumerate().take(10) {
            // The tenth byte may only carry the top bit of a u64.
            if i == 9 && byte > 1 {
                return Err(malformed("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                self.rest = &self.rest[i + 1..];
                *value = v;
                return Ok(());
            }
        }
        Err(malformed("truncated varint"))
    }

    fn raw(&mut self, bytes: &mut [u8]) -> Result<(), SnapshotError> {
        if bytes.len() > self.rest.len() {
            return Err(malformed(format!(
                "{} raw bytes wanted, {} left",
                bytes.len(),
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(bytes.len());
        bytes.copy_from_slice(head);
        self.rest = tail;
        Ok(())
    }

    fn len(&mut self, _len: usize) -> Result<usize, SnapshotError> {
        let mut n = 0;
        self.varint(&mut n)?;
        if n > self.rest.len() as u64 {
            return Err(malformed(format!(
                "length prefix {n} exceeds the {} bytes left",
                self.rest.len()
            )));
        }
        Ok(n as usize)
    }
}

/// Captures `value` into a fresh byte buffer.
pub fn save<T: Persist + ?Sized>(value: &mut T) -> Vec<u8> {
    let mut w = Writer::default();
    value
        .persist(&mut w)
        .expect("capturing into a Writer cannot fail");
    w.into_bytes()
}

/// Restores `value` from `bytes`, which must be consumed exactly.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] for truncated, trailing or mis-shaped
/// bytes.
pub fn load<T: Persist + ?Sized>(value: &mut T, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = Reader::new(bytes);
    value.persist(&mut r)?;
    r.finish()
}

impl Persist for u64 {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.varint(self)
    }
}

macro_rules! persist_narrow {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
                let mut wide = *self as u64;
                c.varint(&mut wide)?;
                *self = <$t>::try_from(wide).map_err(|_| {
                    malformed(format!("{wide} overflows {}", stringify!($t)))
                })?;
                Ok(())
            }
        }
    )*};
}

persist_narrow!(u8, u16, u32, usize);

impl Persist for bool {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut byte = u8::from(*self);
        byte.persist(c)?;
        *self = match byte {
            0 => false,
            1 => true,
            b => return Err(malformed(format!("{b} is not a bool"))),
        };
        Ok(())
    }
}

impl Persist for Time {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut ps = self.as_ps();
        c.varint(&mut ps)?;
        *self = Time::from_ps(ps);
        Ok(())
    }
}

impl Persist for String {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut bytes = std::mem::take(self).into_bytes();
        let n = c.len(bytes.len())?;
        bytes.resize(n, 0);
        c.raw(&mut bytes)?;
        *self = String::from_utf8(bytes).map_err(|_| malformed("string is not UTF-8"))?;
        Ok(())
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut some = self.is_some();
        some.persist(c)?;
        if C::LOADING {
            *self = some.then(T::default);
        }
        match self {
            Some(value) => value.persist(c),
            None => Ok(()),
        }
    }
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let n = c.len(self.len())?;
        if C::LOADING {
            self.clear();
            self.resize_with(n, T::default);
        }
        self.iter_mut().try_for_each(|item| item.persist(c))
    }
}

impl<T: Persist + Default> Persist for VecDeque<T> {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let n = c.len(self.len())?;
        if C::LOADING {
            self.clear();
            self.resize_with(n, T::default);
        }
        self.iter_mut().try_for_each(|item| item.persist(c))
    }
}

impl<K: Persist + Default + Ord + Clone, V: Persist + Default> Persist for BTreeMap<K, V> {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let n = c.len(self.len())?;
        if C::LOADING {
            self.clear();
            for _ in 0..n {
                let mut entry = (K::default(), V::default());
                entry.persist(c)?;
                self.insert(entry.0, entry.1);
            }
            return Ok(());
        }
        for (key, value) in self.iter_mut() {
            key.clone().persist(c)?;
            value.persist(c)?;
        }
        Ok(())
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.iter_mut().try_for_each(|item| item.persist(c))
    }
}

impl<T: Persist + ?Sized> Persist for &mut T {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        (**self).persist(c)
    }
}

/// Tuples persist their members in order, so `(unit, ty, task).persist(c)` walks
/// the borrowed fields of an enum variant in one line.
macro_rules! persist_tuple {
    ($($name:ident)+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            #[allow(non_snake_case)]
            fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
                let ($($name,)+) = self;
                $($name.persist(c)?;)+
                Ok(())
            }
        }
    };
}

persist_tuple!(T0 T1);
persist_tuple!(T0 T1 T2);
persist_tuple!(T0 T1 T2 T3);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + Default + PartialEq + std::fmt::Debug>(mut value: T) {
        let bytes = save(&mut value);
        let mut back = T::default();
        load(&mut back, &bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn values_round_trip_exactly() {
        round_trip(u64::MAX);
        round_trip(vec![0u64, 1, 127, 128, 300, u64::MAX]);
        round_trip(vec![Some(3u32), None, Some(u32::MAX)]);
        round_trip((String::from("pe0.tasks"), true));
        round_trip([Time::from_ps(5), Time::ZERO]);
        round_trip(VecDeque::from(vec![1u8, 2, 3]));
        round_trip(BTreeMap::from([
            (String::from("a"), 1u64),
            (String::from("b"), 2),
        ]));
    }

    #[test]
    fn varints_are_leb128() {
        assert_eq!(save(&mut 0u64), [0]);
        assert_eq!(save(&mut 300u64), [0xac, 0x02]);
        assert_eq!(save(&mut { u64::MAX }).len(), 10);
    }

    #[test]
    fn bad_bytes_are_typed_errors() {
        let mut x = 0u64;
        assert!(load(&mut x, &[0x80]).is_err(), "truncated");
        assert!(load(&mut x, &[0xff; 10]).is_err(), "overflow");
        assert!(load(&mut x, &[1, 2]).is_err(), "trailing");
        let mut narrow = 0u8;
        assert!(load(&mut narrow, &[0xac, 0x02]).is_err(), "overflows u8");
        let mut flag = false;
        assert!(load(&mut flag, &[2]).is_err());
        let mut s = String::new();
        assert!(load(&mut s, &[1, 0xff]).is_err(), "not UTF-8");
    }

    #[test]
    fn huge_length_prefixes_are_rejected_before_allocating() {
        let mut prefix = save(&mut { u64::MAX });
        prefix.push(0);
        let mut v: Vec<u64> = Vec::new();
        let err = load(&mut v, &prefix).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert_eq!(v.capacity(), 0);
    }

    #[test]
    fn configuration_checks_name_the_mismatch() {
        let bytes = save(&mut vec![1u64, 2, 3]);
        let mut r = Reader::new(&bytes);
        let err = r.exact(&mut [0u64; 2], "PEs").unwrap_err();
        assert!(err.to_string().contains("3 PEs"), "{err}");

        let bytes = save(&mut Some(1u64));
        let mut none: Option<u64> = None;
        let err = Reader::new(&bytes).optional(&mut none, "telemetry state");
        assert!(err.unwrap_err().to_string().contains("telemetry"));
        let mut some = Some(0u64);
        let mut r = Reader::new(&bytes);
        r.optional(&mut some, "telemetry state").unwrap();
        r.finish().unwrap();
        assert_eq!(some, Some(1));
    }
}
