//! Binary snapshot (checkpoint/restore) support.
//!
//! DIABLO's FPGA platform pays cluster warm-up once and then explores
//! parameter variations at hardware speed; the software reproduction gets
//! the same economy by serializing the *entire* deterministic simulation
//! state — event queues, per-component sequence counters, every
//! component's mutable state — into a versioned binary snapshot that
//! restores bit-identically. Two traits split the work:
//!
//! * [`Snap`] — value-oriented serialization for plain data (integers,
//!   times, RNG states, containers). `save`/`load` round-trip a value
//!   exactly; the format is little-endian, length-prefixed, and free of
//!   any platform- or allocation-dependent detail.
//! * [`Persist`] — object-safe, *in-place* state overwrite for trait
//!   objects (components, guest processes). `load_state` overwrites only
//!   the listed *state* fields of an already-constructed object;
//!   configuration fields are rebuilt from the experiment spec by the
//!   restore path and deliberately stay out of the snapshot, which is
//!   what lets a sweep restore one warmed checkpoint under many
//!   parameter variations.
//!
//! # What is deliberately not serialized
//!
//! * Configuration (topology shape, profiles, rate plans) — rebuilt from
//!   the experiment spec; the snapshot carries a structural fingerprint
//!   so a mismatched spec is rejected instead of silently diverging.
//! * Flight-recorder rings — they hold `&'static str` trace labels and
//!   are diagnostic-only; checkpointed runs must not enable tracing.
//! * Executor scheduling state (worker pools, lanes, barriers) — results
//!   are executor-independent, so a serial snapshot restores into a
//!   partition-parallel host and vice versa.
//!
//! Maps and sets are serialized with sorted keys so the byte stream is a
//! pure function of model state, never of hash seeds or insertion order.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// Snapshot format errors: truncated input, unknown enum tags, header
/// mismatches (magic, version, configuration fingerprint), or a checksum
/// that does not match the file's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value was complete.
    Eof,
    /// An enum tag byte had no matching variant.
    Tag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A structural invariant failed (bad magic, impossible length, a
    /// count that disagrees with the restored model).
    Malformed(String),
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The snapshot's structural fingerprint does not match the model it
    /// is being restored into (different topology, component count, or
    /// workload shape).
    Fingerprint {
        /// Fingerprint recorded in the snapshot header.
        found: u64,
        /// Fingerprint of the model being restored into.
        expected: u64,
    },
    /// The snapshot's trailing checksum does not match its contents: the
    /// file was corrupted or truncated after it was written.
    Checksum {
        /// Checksum recorded in the snapshot trailer.
        stored: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated"),
            SnapError::Tag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            SnapError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapError::Version { found, expected } => {
                write!(f, "snapshot version {found} unsupported (expected {expected})")
            }
            SnapError::Fingerprint { found, expected } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match this configuration \
                 ({expected:#018x}); restore requires the same structural spec it was saved from"
            ),
            SnapError::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: trailer says {stored:#018x}, contents hash to \
                 {computed:#018x}; the file is corrupt or truncated"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Little-endian binary snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length as `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends a length-prefixed sub-blob (used for per-component state so
    /// a reader can skip or validate blob boundaries).
    pub fn put_blob(&mut self, blob: &[u8]) {
        self.put_len(blob.len());
        self.put_bytes(blob);
    }
}

/// Little-endian binary snapshot decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on a truncated stream.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a collection length, bounded by the remaining byte count so a
    /// corrupt length cannot trigger an enormous allocation.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation, [`SnapError::Malformed`] when the
    /// length exceeds what the stream could possibly hold.
    pub fn take_len(&mut self) -> Result<usize, SnapError> {
        let n = self.take_u64()?;
        if n > self.buf.len() as u64 {
            return Err(SnapError::Malformed(format!(
                "length {n} exceeds snapshot size {}",
                self.buf.len()
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed sub-blob written by [`SnapWriter::put_blob`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] / [`SnapError::Malformed`] on truncation.
    pub fn take_blob(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.take_len()?;
        self.take_bytes(n)
    }
}

/// Value-oriented exact serialization. See the module docs for the split
/// between [`Snap`] (values) and [`Persist`] (in-place trait objects).
pub trait Snap: Sized {
    /// Encodes `self` into the writer.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes a value written by [`Snap::save`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on a truncated, corrupt, or mismatched stream.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Object-safe in-place snapshot hook for trait objects (components and
/// guest processes). `load_state` overwrites the object's *state* fields;
/// configuration fields are rebuilt from the spec and left untouched.
pub trait Persist {
    /// Appends this object's mutable state to the writer.
    fn save_state(&self, w: &mut SnapWriter);
    /// Overwrites this object's mutable state from the reader.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on a truncated or corrupt stream.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

macro_rules! snap_int {
    ($($ty:ty),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let b = r.take_bytes(core::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(b.try_into().expect("sized int")))
            }
        }
    )*};
}

snap_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64);

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.take_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed(format!("usize overflow: {v}")))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_bytes(&[u8::from(*self)]);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_bytes(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::Tag { what: "bool", tag: t as u64 }),
        }
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

impl Snap for () {
    fn save(&self, _w: &mut SnapWriter) {}
    fn load(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_blob(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let b = r.take_blob()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapError::Malformed("non-UTF-8 string".to_string()))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => false.save(w),
            Some(v) => {
                true.save(w);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if bool::load(r)? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::load(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::load(r)?.into())
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into().map_err(|_| SnapError::Eof)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord> Snap for BTreeSet<K> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for k in self {
            k.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(K::load(r)?);
        }
        Ok(out)
    }
}

/// Hash maps are written with *sorted* keys so the byte stream depends
/// only on contents, never on hasher state or insertion order.
impl<K: Snap + Ord + Hash + Eq, V: Snap> Snap for HashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort_unstable();
        w.put_len(keys.len());
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord + Hash + Eq> Snap for HashSet<K> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort_unstable();
        w.put_len(keys.len());
        for k in keys {
            k.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = HashSet::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.insert(K::load(r)?);
        }
        Ok(out)
    }
}

impl Snap for crate::time::SimTime {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_picos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::time::SimTime::from_picos(r.take_u64()?))
    }
}

impl Snap for crate::time::SimDuration {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_picos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::time::SimDuration::from_picos(r.take_u64()?))
    }
}

impl Snap for crate::time::Frequency {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.hz());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::time::Frequency::from_hz(r.take_u64()?))
    }
}

impl Snap for crate::time::Bandwidth {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.bits_per_sec());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u64()? {
            0 => Err(SnapError::Malformed("Bandwidth: zero bits/s".into())),
            bps => Ok(crate::time::Bandwidth::from_bps(bps)),
        }
    }
}

crate::impl_snap_struct!(crate::event::ComponentId { 0 });
crate::impl_snap_struct!(crate::event::PortNo { 0 });

impl Snap for crate::rng::DetRng {
    fn save(&self, w: &mut SnapWriter) {
        self.state().save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::rng::DetRng::from_state(<[u64; 4]>::load(r)?))
    }
}

impl Snap for crate::stats::Counter {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.get());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut c = crate::stats::Counter::new();
        c.add(r.take_u64()?);
        Ok(c)
    }
}

/// Implements [`Snap`] for a struct by listing *every* field, in wire
/// order. Tuple-struct fields are listed by index (`{ 0 }`), and a
/// leading `<T, ..>` list makes the impl generic over `T: Snap`.
///
/// ```
/// use diablo_engine::impl_snap_struct;
/// #[derive(Debug, PartialEq)]
/// struct P { x: u64, y: Option<u32> }
/// impl_snap_struct!(P { x, y });
/// struct Id(u32);
/// impl_snap_struct!(Id { 0 });
/// ```
#[macro_export]
macro_rules! impl_snap_struct {
    (@impl [$($bounds:tt)*] $ty:ty { $($field:tt),* }) => {
        impl<$($bounds)*> $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::Snap::save(&self.$field, w);)*
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self { $($field: $crate::snap::Snap::load(r)?,)* })
            }
        }
    };
    (<$($g:ident),+> $ty:ty { $($field:tt),* $(,)? }) => {
        $crate::impl_snap_struct!(@impl [$($g: $crate::snap::Snap),+] $ty { $($field),* });
    };
    ($ty:ty { $($field:tt),* $(,)? }) => {
        $crate::impl_snap_struct!(@impl [] $ty { $($field),* });
    };
}

/// Implements [`Snap`] for an enum from one table of `tag => variant`
/// entries. Each variant is written as `put_u64(tag)` followed by its
/// fields in the order listed; tuple fields are named by the binding in
/// the entry. An unknown tag on load is a [`SnapError::Tag`] naming the
/// enum by module path. A `<T, ..>` list after the enum name makes the
/// impl generic over `T: Snap`.
///
/// ```
/// use diablo_engine::impl_snap_enum;
/// enum Shape { Dot, Circle(u64), Rect { w: u32, h: u32 } }
/// impl_snap_enum!(Shape {
///     0 => Dot,
///     1 => Circle(radius),
///     2 => Rect { w, h },
/// });
/// ```
#[macro_export]
macro_rules! impl_snap_enum {
    ($ty:ident $(<$($g:ident),+>)? {
        $($tag:literal => $variant:ident $(($($tf:ident),+))? $({ $($sf:ident),+ })?),+ $(,)?
    }) => {
        impl$(<$($g: $crate::snap::Snap),+>)? $crate::snap::Snap for $ty$(<$($g),+>)? {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(Self::$variant $(($($tf),+))? $({ $($sf),+ })? => {
                        w.put_u64($tag);
                        $($($crate::snap::Snap::save($tf, w);)+)?
                        $($($crate::snap::Snap::save($sf, w);)+)?
                    })+
                }
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(match r.take_u64()? {
                    $($tag => {
                        $($(let $tf = $crate::snap::Snap::load(r)?;)+)?
                        $($(let $sf = $crate::snap::Snap::load(r)?;)+)?
                        Self::$variant $(($($tf),+))? $({ $($sf),+ })?
                    })+
                    tag => {
                        return Err($crate::snap::SnapError::Tag {
                            what: concat!(module_path!(), "::", stringify!($ty)),
                            tag,
                        })
                    }
                })
            }
        }
    };
}

/// Implements [`Persist`] for a type by listing its *state* fields (the
/// ones a snapshot overwrites in place); configuration fields are simply
/// omitted and keep the values the restore path rebuilt them with. A
/// field marked `field: Persist` is itself a [`Persist`] object and is
/// overwritten in place rather than replaced.
#[macro_export]
macro_rules! impl_persist_fields {
    (@save $f:expr, $w:ident) => {
        $crate::snap::Snap::save(&$f, $w)
    };
    (@save $f:expr, $w:ident, Persist) => {
        $crate::snap::Persist::save_state(&$f, $w)
    };
    (@load $f:expr, $r:ident) => {
        $f = $crate::snap::Snap::load($r)?
    };
    (@load $f:expr, $r:ident, Persist) => {
        $crate::snap::Persist::load_state(&mut $f, $r)?
    };
    ($ty:ty { $($field:ident $(: $nested:ident)?),* $(,)? }) => {
        impl $crate::snap::Persist for $ty {
            fn save_state(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::impl_persist_fields!(@save self.$field, w $(, $nested)?);)*
            }
            fn load_state(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                $($crate::impl_persist_fields!(@load self.$field, r $(, $nested)?);)*
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::time::{SimDuration, SimTime};

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0, "trailing bytes after load");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0xDEAD_BEEF_u64);
        round_trip(u128::MAX - 7);
        round_trip(-42i64);
        round_trip(true);
        round_trip(3.25f64);
        round_trip("snapshot".to_string());
        round_trip(SimTime::from_picos(123_456_789));
        round_trip(SimDuration::from_picos(987));
        round_trip(Some((1u64, 2u32)));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip(VecDeque::from(vec![9u64, 8]));
        round_trip([5u64, 6, 7]);
    }

    #[test]
    fn containers_round_trip_sorted() {
        let mut m = HashMap::new();
        m.insert(9u64, "nine".to_string());
        m.insert(1u64, "one".to_string());
        let mut w1 = SnapWriter::new();
        m.save(&mut w1);
        // Same contents inserted in the opposite order must serialize
        // byte-identically (sorted keys).
        let mut m2 = HashMap::new();
        m2.insert(1u64, "one".to_string());
        m2.insert(9u64, "nine".to_string());
        let mut w2 = SnapWriter::new();
        m2.save(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
        round_trip(m);
        round_trip(HashSet::from([3u64, 1, 2]));
        round_trip(BTreeMap::from([(1u64, 2u64), (3, 4)]));
        round_trip(BTreeSet::from([1u64, 5]));
    }

    #[test]
    fn rng_round_trip_preserves_sequence() {
        let mut rng = DetRng::new(42);
        let _ = rng.next_u64();
        let mut w = SnapWriter::new();
        rng.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = DetRng::load(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(Vec::<u64>::load(&mut r), Err(SnapError::Eof));
    }

    #[test]
    fn corrupt_length_is_rejected_without_allocating() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(Vec::<u64>::load(&mut r), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(bool::load(&mut r), Err(SnapError::Tag { what: "bool", tag: 7 }));
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Circle(u64),
        Segment(i32, Option<u32>),
        Rect { w: u32, h: u32 },
    }
    impl_snap_enum!(Shape {
        0 => Dot,
        1 => Circle(radius),
        2 => Segment(from, to),
        7 => Rect { w, h },
    });

    #[derive(Debug, PartialEq)]
    struct Pair(u64, Shape);
    impl_snap_struct!(Pair { 0, 1 });

    #[test]
    fn enum_macro_round_trips_every_variant_kind() {
        round_trip(Shape::Dot);
        round_trip(Shape::Circle(9));
        round_trip(Shape::Segment(-3, Some(4)));
        round_trip(Shape::Rect { w: 2, h: 5 });
        round_trip(vec![Shape::Dot, Shape::Rect { w: 0, h: u32::MAX }]);
    }

    #[test]
    fn enum_macro_writes_tag_then_fields_in_listed_order() {
        let mut w = SnapWriter::new();
        Shape::Rect { w: 1, h: 2 }.save(&mut w);
        let mut want = SnapWriter::new();
        want.put_u64(7);
        1u32.save(&mut want);
        2u32.save(&mut want);
        assert_eq!(w.into_bytes(), want.into_bytes());
    }

    #[test]
    fn enum_macro_rejects_unknown_tag_naming_the_module_path() {
        let mut w = SnapWriter::new();
        w.put_u64(3);
        let bytes = w.into_bytes();
        let err = Shape::load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapError::Tag { what: "diablo_engine::snap::tests::Shape", tag: 3 });
    }

    #[test]
    fn enum_macro_reports_truncation_as_eof() {
        let mut w = SnapWriter::new();
        Shape::Segment(1, Some(2)).save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert_eq!(Shape::load(&mut r), Err(SnapError::Eof), "cut at {cut}");
        }
    }

    #[test]
    fn tuple_struct_macro_round_trips() {
        round_trip(Pair(11, Shape::Circle(3)));
        round_trip(crate::event::ComponentId(42));
    }

    struct Widget {
        tunable: u64,
        count: u64,
        log: Vec<u64>,
    }
    impl_persist_fields!(Widget { count, log });

    struct Holder {
        widget: Widget,
        epoch: u64,
    }
    impl_persist_fields!(Holder { epoch, widget: Persist });

    #[test]
    fn persist_overwrites_nested_objects_in_place() {
        let old = Holder { widget: Widget { tunable: 1, count: 7, log: vec![3] }, epoch: 9 };
        let mut w = SnapWriter::new();
        old.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh =
            Holder { widget: Widget { tunable: 2, count: 0, log: Vec::new() }, epoch: 0 };
        let mut r = SnapReader::new(&bytes);
        fresh.load_state(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!((fresh.epoch, fresh.widget.count, fresh.widget.log), (9, 7, vec![3]));
        assert_eq!(fresh.widget.tunable, 2, "nested config fields stay rebuilt");
    }

    #[test]
    fn persist_overwrites_state_and_keeps_config() {
        let old = Widget { tunable: 1, count: 41, log: vec![4, 5] };
        let mut w = SnapWriter::new();
        old.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = Widget { tunable: 2, count: 0, log: Vec::new() };
        fresh.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(fresh.tunable, 2, "config fields stay rebuilt");
        assert_eq!(fresh.count, 41);
        assert_eq!(fresh.log, vec![4, 5]);
    }
}
