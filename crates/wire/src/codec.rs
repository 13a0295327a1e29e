//! Compact binary encoding of [`Value`] trees.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::WireError;
use crate::id::CompletId;
use crate::map::{Key, ValueMap};
use crate::refdesc::RefDescriptor;
use crate::value::Value;
use crate::varint::{get_uvarint, put_uvarint, unzigzag, zigzag};

/// Maximum permitted nesting depth when decoding (stack-safety bound).
pub(crate) const MAX_DEPTH: usize = 128;

/// Hard cap on a single decoded string or byte blob. Declared lengths are
/// also bounded by the remaining input, but a transport frame can be tens
/// of megabytes — this keeps one corrupt length prefix from turning into
/// one allocation of that entire budget.
pub const MAX_BLOB_BYTES: u64 = 1 << 26; // 64 MiB

/// Hard cap on one list's or map's declared element count. Without it a
/// hostile prefix could declare (input-length) elements and trigger a
/// `Vec` pre-allocation dozens of times larger than the input itself.
pub const MAX_COLLECTION_ITEMS: u64 = 1 << 20;

/// Pre-allocation hint clamp: a *declared* count is attacker-controlled
/// until the elements actually parse, so reserve at most this many slots
/// up front and let the vector grow normally past it.
const PREALLOC_HINT: usize = 4096;

/// How many distinct map keys one [`WireReader`] remembers in order to
/// hand an equal key read later the same allocation. A message of
/// records repeats a handful of field names; past this many distinct
/// keys the oldest slot is reused, so a hostile message costs a bounded
/// scan per key and shares nothing.
const SHARED_KEYS: usize = 8;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_MAP: u8 = 8;
const TAG_REF: u8 = 9;
/// A map whose keys are those of a shape its top-level value registered
/// before: then a one-byte shape index, then only the values.
const TAG_SHAPED: u8 = 10;
/// `FIXLIST | n`: a list of `n` < 16 items, then the items.
const FIXLIST: u8 = 0x10;
/// `FIXSTR | len`: a string of `len` < 32 bytes, then the bytes.
const FIXSTR: u8 = 0x20;

/// Bounds per top-level value, past which maps are written literally.
const MAX_SHAPES: usize = 8;
const MAX_SHAPE_KEYS: usize = 32;
const MAX_SHAPE_LEN: usize = 16;

/// Whether a literal map of `n` keys, once written or read in full,
/// becomes the next shape of its top-level value, after `shapes` shapes
/// holding `keys` keys — the one rule both sides apply.
fn registers(shapes: usize, keys: usize, n: usize) -> bool {
    (1..=MAX_SHAPE_LEN).contains(&n) && shapes < MAX_SHAPES && keys + n <= MAX_SHAPE_KEYS
}

/// The literal maps one [`WireWriter::put_value`] call has registered as
/// shapes, in order; on the stack, so splicing encoded sections with
/// [`WireWriter::put_raw`] stays safe.
#[derive(Default)]
struct Shapes<'v> {
    maps: [Option<&'v ValueMap>; MAX_SHAPES],
    len: usize,
    keys: usize,
}

impl<'v> Shapes<'v> {
    /// The index of the shape with `m`'s keys, in order.
    fn find(&self, m: &ValueMap) -> Option<usize> {
        self.maps[..self.len].iter().flatten().position(|s| {
            s.len() == m.len() && s.iter().zip(m.iter()).all(|((a, _), (b, _))| a == b)
        })
    }

    fn register(&mut self, m: &'v ValueMap) {
        if registers(self.len, self.keys, m.len()) {
            self.maps[self.len] = Some(m);
            self.len += 1;
            self.keys += m.len();
        }
    }
}

/// Encodes a single [`Value`] into a fresh buffer.
pub fn encode_value(v: &Value) -> Bytes {
    let mut w = WireWriter::new();
    w.put_value(v);
    w.finish()
}

/// Decodes a single [`Value`], requiring the input to be fully consumed.
///
/// Copies `bytes` once; a caller that already owns a [`Bytes`] buffer
/// uses [`decode_value_from_bytes`] instead.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed, truncated, or over-deep input,
/// or when bytes trail the top-level value.
pub fn decode_value(bytes: &[u8]) -> Result<Value, WireError> {
    decode_value_from_bytes(Bytes::copy_from_slice(bytes))
}

/// [`decode_value`] over an owned buffer: the reader walks `bytes` in
/// place, so the input is never copied first.
///
/// # Errors
///
/// As for [`decode_value`].
pub fn decode_value_from_bytes(bytes: Bytes) -> Result<Value, WireError> {
    let mut r = WireReader::new(bytes);
    let v = r.get_value()?;
    r.expect_end()?;
    Ok(v)
}

/// Incremental encoder for wire messages.
///
/// Higher layers (the Core's peer protocol) compose messages out of
/// primitive puts and whole [`Value`] trees.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Creates an empty writer with `cap` bytes reserved up front.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Appends an unsigned varint.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        put_uvarint(&mut self.buf, v);
        self
    }

    /// Appends a 32-bit unsigned varint (node indices, small counters).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.put_u64(u64::from(v))
    }

    /// Appends a signed (zigzag) varint.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        put_uvarint(&mut self.buf, zigzag(v));
        self
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Appends a boolean as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u8(u8::from(v))
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Appends a length-prefixed string.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_u64(s.len() as u64);
        self.buf.put_slice(s.as_bytes());
        self
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.put_u64(b.len() as u64);
        self.buf.put_slice(b);
        self
    }

    /// Appends a [`CompletId`].
    pub fn put_complet_id(&mut self, id: CompletId) -> &mut Self {
        self.put_u32(id.origin).put_u64(id.seq)
    }

    /// Appends an already encoded section as it is (no length prefix).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    /// Appends a [`RefDescriptor`].
    pub fn put_ref(&mut self, r: &RefDescriptor) -> &mut Self {
        self.put_complet_id(r.target);
        self.put_str(&r.target_type);
        self.put_str(&r.relocator);
        self.put_u32(r.last_known)
    }

    /// Appends a whole [`Value`] tree. A map with the keys of one written
    /// earlier in the same tree is written as a shape index and its
    /// values; nothing is remembered across calls.
    pub fn put_value(&mut self, v: &Value) -> &mut Self {
        self.put_tree(v, false, &mut Shapes::default())
    }

    /// [`put_value`](Self::put_value) with every reference written
    /// [`degraded`](RefDescriptor::degraded) to `link` (§3.1), without
    /// building the degraded tree.
    pub fn put_value_degraded(&mut self, v: &Value) -> &mut Self {
        self.put_tree(v, true, &mut Shapes::default())
    }

    fn put_tree<'v>(&mut self, v: &'v Value, degrade: bool, shapes: &mut Shapes<'v>) -> &mut Self {
        match v {
            Value::Null => {
                self.put_u8(TAG_NULL);
            }
            Value::Bool(false) => {
                self.put_u8(TAG_FALSE);
            }
            Value::Bool(true) => {
                self.put_u8(TAG_TRUE);
            }
            Value::I64(x) => {
                self.put_u8(TAG_I64).put_i64(*x);
            }
            Value::F64(x) => {
                self.put_u8(TAG_F64).put_f64(*x);
            }
            Value::Str(s) => {
                // Its bytes, unchecked: they were UTF-8 when the text was made.
                let s = s.as_bytes();
                if s.len() < 32 {
                    self.put_u8(FIXSTR | s.len() as u8).put_raw(s);
                } else {
                    self.put_u8(TAG_STR).put_bytes(s);
                }
            }
            Value::Bytes(b) => {
                self.put_u8(TAG_BYTES).put_bytes(b);
            }
            Value::List(items) => {
                match items.len() {
                    n @ 0..16 => self.put_u8(FIXLIST | n as u8),
                    n => self.put_u8(TAG_LIST).put_u64(n as u64),
                };
                for item in items {
                    self.put_tree(item, degrade, shapes);
                }
            }
            Value::Map(m) => match shapes.find(m) {
                Some(i) => {
                    self.put_u8(TAG_SHAPED).put_u8(i as u8);
                    for val in m.values() {
                        self.put_tree(val, degrade, shapes);
                    }
                }
                None => {
                    self.put_u8(TAG_MAP).put_u64(m.len() as u64);
                    for (k, val) in m.iter() {
                        self.put_str(k);
                        self.put_tree(val, degrade, shapes);
                    }
                    shapes.register(m);
                }
            },
            Value::Ref(r) if degrade && !r.is_link() => {
                self.put_u8(TAG_REF).put_ref(&r.degraded());
            }
            Value::Ref(r) => {
                self.put_u8(TAG_REF).put_ref(r);
            }
        }
        self
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and yields the encoded bytes: its buffer,
    /// taken over with its capacity, not copied.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Consumes the writer and yields its buffer as it is, for a caller
    /// that patches bytes it reserved at the front or trims the buffer
    /// before sharing it.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into()
    }
}

/// Incremental decoder, the counterpart of [`WireWriter`].
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
    /// Map keys read so far, see [`SHARED_KEYS`].
    keys: [Option<Key>; SHARED_KEYS],
    /// The slot the next unseen key takes.
    next_key: usize,
    /// The keys of the shapes the value being read registered, shape
    /// after shape; `shapes` holds each one's `(start, len)` in it.
    shape_keys: [Option<Key>; MAX_SHAPE_KEYS],
    shapes: [(u8, u8); MAX_SHAPES],
    shape_count: usize,
}

impl WireReader {
    /// Wraps a byte buffer for decoding.
    pub fn new(buf: Bytes) -> Self {
        WireReader {
            buf,
            keys: Default::default(),
            next_key: 0,
            shape_keys: Default::default(),
            shapes: [(0, 0); MAX_SHAPES],
            shape_count: 0,
        }
    }

    /// Reads an unsigned varint.
    ///
    /// # Errors
    ///
    /// Fails on truncated or overlong input.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        get_uvarint(&mut self.buf)
    }

    /// Reads an unsigned varint that must fit 32 bits.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or with [`WireError::VarintOverflow`] on
    /// a value past `u32::MAX` (never a silent truncation).
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.get_u64()?).map_err(|_| WireError::VarintOverflow)
    }

    /// Reads a signed (zigzag) varint.
    ///
    /// # Errors
    ///
    /// Fails on truncated or overlong input.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(unzigzag(self.get_u64()?))
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Fails at end of input.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        if !self.buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        Ok(self.buf.get_u8())
    }

    /// Reads a boolean written by [`WireWriter::put_bool`].
    ///
    /// # Errors
    ///
    /// Fails at end of input or on any byte other than `0` / `1`.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadTag(b)),
        }
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Fails when fewer than eight bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        if self.buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        Ok(self.buf.get_f64_le())
    }

    /// Reads a collection's declared element count, bounded by the
    /// remaining input (every element takes at least one byte) and by
    /// [`MAX_COLLECTION_ITEMS`] — the one check every list, map and typed
    /// sequence goes through, so a hostile count is refused before
    /// anything is allocated for it.
    ///
    /// # Errors
    ///
    /// Fails with [`WireError::BadLength`] when the count exceeds either
    /// bound.
    pub fn get_count(&mut self) -> Result<usize, WireError> {
        let n = self.get_u64()?;
        if n > self.buf.remaining() as u64 || n > MAX_COLLECTION_ITEMS {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Reads a counted sequence: [`get_count`](Self::get_count), then
    /// `item` once per element. The declared count is untrusted until the
    /// elements actually parse, so at most [`PREALLOC_HINT`] slots are
    /// reserved up front and the vector grows normally past that; what
    /// the doubling left over is given back once they all have.
    ///
    /// # Errors
    ///
    /// Fails on a hostile count or on the first element that fails.
    pub fn get_seq<T, E: From<WireError>>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.get_count()?;
        self.get_items(n, item)
    }

    /// [`get_seq`](Self::get_seq) with the count `n` already read.
    fn get_items<T, E>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(n.min(PREALLOC_HINT));
        for _ in 0..n {
            out.push(item(self)?);
        }
        out.shrink_to_fit();
        Ok(out)
    }

    /// Reads a length-prefixed string.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        self.get_utf8()
    }

    /// Reads a length-prefixed string into `T`: checked as UTF-8 where
    /// it lies, then copied once.
    fn get_utf8<T: for<'a> From<&'a str>>(&mut self) -> Result<T, WireError> {
        let len = self.get_blob_len()?;
        self.take_utf8(len)
    }

    /// The next `len` bytes, known to be there, as a string `T`.
    fn take_utf8<T: for<'a> From<&'a str>>(&mut self, len: usize) -> Result<T, WireError> {
        let s = T::from(utf8(&self.buf[..len])?);
        self.buf.advance(len);
        Ok(s)
    }

    /// Reads a map key: a length-prefixed string, shared with an equal
    /// key this reader returned before.
    fn get_key(&mut self) -> Result<Key, WireError> {
        let len = self.get_blob_len()?;
        let s = utf8(&self.buf[..len])?;
        let key = match self.keys.iter().flatten().find(|k| &***k == s) {
            Some(seen) => seen.clone(),
            None => {
                let key = Key::from(s);
                self.keys[self.next_key] = Some(key.clone());
                self.next_key = (self.next_key + 1) % SHARED_KEYS;
                key
            }
        };
        self.buf.advance(len);
        Ok(key)
    }

    /// Reads a length-prefixed byte vector.
    ///
    /// # Errors
    ///
    /// Fails when the declared length exceeds the remaining input or the
    /// [`MAX_BLOB_BYTES`] bound.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_blob_len()?;
        let out = self.buf[..len].to_vec();
        self.buf.advance(len);
        Ok(out)
    }

    /// Reads a blob's or string's declared length, bounded by the
    /// remaining input and [`MAX_BLOB_BYTES`]; the content is the next
    /// that many bytes of `buf`.
    fn get_blob_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_u64()?;
        if len > self.buf.remaining() as u64 || len > MAX_BLOB_BYTES {
            return Err(WireError::BadLength(len));
        }
        Ok(len as usize)
    }

    /// A length or count a tag carried, which at one byte an element
    /// must fit the remaining input.
    fn fits(&self, n: usize) -> Result<usize, WireError> {
        if n > self.buf.remaining() {
            return Err(WireError::BadLength(n as u64));
        }
        Ok(n)
    }

    /// Reads a [`CompletId`].
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_complet_id(&mut self) -> Result<CompletId, WireError> {
        let origin = self.get_u32()?;
        let seq = self.get_u64()?;
        Ok(CompletId::new(origin, seq))
    }

    /// Reads a [`RefDescriptor`].
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    pub fn get_ref(&mut self) -> Result<RefDescriptor, WireError> {
        Ok(RefDescriptor {
            target: self.get_complet_id()?,
            target_type: self.get_str()?,
            relocator: self.get_str()?,
            last_known: self.get_u32()?,
        })
    }

    /// Reads a whole [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Fails on malformed, truncated, or over-deep input.
    pub fn get_value(&mut self) -> Result<Value, WireError> {
        // Shapes are the writer's per `put_value` call: none carry over.
        self.shape_count = 0;
        self.get_value_at(0)
    }

    fn get_value_at(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth >= MAX_DEPTH {
            return Err(WireError::DepthExceeded);
        }
        match self.get_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_I64 => Ok(Value::I64(self.get_i64()?)),
            TAG_F64 => Ok(Value::F64(self.get_f64()?)),
            TAG_STR => Ok(Value::Str(self.get_utf8()?)),
            tag @ FIXSTR..=0x3f => {
                let len = self.fits(usize::from(tag & 0x1f))?;
                Ok(Value::Str(self.take_utf8(len)?))
            }
            TAG_BYTES => Ok(Value::Bytes(self.get_bytes()?)),
            TAG_LIST => Ok(Value::List(self.get_seq(|r| r.get_value_at(depth + 1))?)),
            tag @ FIXLIST..=0x1f => {
                let n = self.fits(usize::from(tag & 0x0f))?;
                Ok(Value::List(
                    self.get_items(n, |r| r.get_value_at(depth + 1))?,
                ))
            }
            // Entries are kept in wire order — sorted when our encoder
            // wrote them; `from_entries` repairs a peer's that are not.
            TAG_MAP => {
                let entries = self
                    .get_seq(|r| Ok::<_, WireError>((r.get_key()?, r.get_value_at(depth + 1)?)))?;
                self.register(&entries);
                Ok(Value::Map(ValueMap::from_entries(entries)))
            }
            TAG_SHAPED => {
                let i = self.get_u8()?;
                let shape = self.shapes[..self.shape_count].get(usize::from(i));
                let (start, len) = shape
                    .map(|&(at, n)| (usize::from(at), usize::from(n)))
                    .ok_or(WireError::BadTag(i))?;
                let mut entries = Vec::with_capacity(self.fits(len)?);
                for slot in start..start + len {
                    let key = self.shape_keys[slot].clone().expect("registered");
                    entries.push((key, self.get_value_at(depth + 1)?));
                }
                Ok(Value::Map(ValueMap::from_entries(entries)))
            }
            TAG_REF => Ok(Value::from(self.get_ref()?)),
            tag => Err(WireError::BadTag(tag)),
        }
    }

    /// Registers the keys of a literal map just read, in wire order, as
    /// the next shape if [`registers`] says so.
    fn register(&mut self, entries: &[(Key, Value)]) {
        let shapes = &self.shapes[..self.shape_count];
        let start = shapes.last().map_or(0, |&(at, n)| usize::from(at + n));
        if registers(self.shape_count, start, entries.len()) {
            for (slot, (key, _)) in self.shape_keys[start..].iter_mut().zip(entries) {
                *slot = Some(key.clone());
            }
            self.shapes[self.shape_count] = (start as u8, entries.len() as u8);
            self.shape_count += 1;
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Asserts that the input was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if input remains.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.has_remaining() {
            Err(WireError::TrailingBytes(self.buf.remaining()))
        } else {
            Ok(())
        }
    }
}

/// The input slice as a string, before anything is allocated for it.
fn utf8(bytes: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        decode_value(&encode_value(v)).expect("roundtrip must succeed")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(-1234567),
            Value::I64(i64::MAX),
            Value::F64(3.5),
            Value::Str("héllo".into()),
            Value::Bytes(vec![0, 255, 3]),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::map([
            ("list", Value::list([Value::I64(1), Value::Null])),
            (
                "ref",
                Value::from(RefDescriptor::link(CompletId::new(3, 9), "Printer", 2)),
            ),
            ("inner", Value::map([("x", Value::F64(-0.5))])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_value(&Value::Null).to_vec();
        bytes.push(0);
        assert_eq!(decode_value(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_value(&Value::Str("hello world".into()));
        for cut in 0..bytes.len() {
            assert!(decode_value(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(decode_value(&[99]), Err(WireError::BadTag(99)));
    }

    #[test]
    fn absurd_length_rejected_without_allocation() {
        // TAG_BYTES followed by a huge declared length.
        let mut w = WireWriter::new();
        w.put_u8(TAG_BYTES).put_u64(u64::MAX / 2);
        assert!(matches!(
            decode_value(&w.finish()),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn depth_limit_enforced() {
        let mut v = Value::Null;
        for _ in 0..(MAX_DEPTH + 4) {
            v = Value::list([v]);
        }
        let bytes = encode_value(&v);
        assert_eq!(decode_value(&bytes), Err(WireError::DepthExceeded));
    }

    #[test]
    fn writer_primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.put_i64(-42)
            .put_str("abc")
            .put_complet_id(CompletId::new(7, 8));
        assert!(!w.is_empty());
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_str().unwrap(), "abc");
        assert_eq!(r.get_complet_id().unwrap(), CompletId::new(7, 8));
        r.expect_end().unwrap();
    }

    // --- randomized tests (deterministic seeded generator, shared with
    // --- the fargo-net framing property tests via crate::testgen) -------

    use crate::testgen::{gen_value, TestRng};

    #[test]
    fn hostile_collection_count_rejected_without_allocation() {
        // TAG_LIST declaring more elements than MAX_COLLECTION_ITEMS but
        // fewer than the (padded) remaining bytes: before the cap this
        // would pre-allocate a Vec<Value> far larger than the input.
        let mut w = WireWriter::new();
        w.put_u8(TAG_LIST).put_u64(MAX_COLLECTION_ITEMS + 1);
        let mut bytes = w.finish().to_vec();
        bytes.resize(bytes.len() + (MAX_COLLECTION_ITEMS as usize + 2), 0);
        assert!(matches!(decode_value(&bytes), Err(WireError::BadLength(_))));

        let mut w = WireWriter::new();
        w.put_u8(TAG_MAP).put_u64(MAX_COLLECTION_ITEMS + 1);
        let mut bytes = w.finish().to_vec();
        bytes.resize(bytes.len() + (MAX_COLLECTION_ITEMS as usize + 2), 0);
        assert!(matches!(decode_value(&bytes), Err(WireError::BadLength(_))));
    }

    #[test]
    fn typed_sequences_share_the_collection_bounds() {
        // A count past the remaining input, or past the hard cap, is
        // refused before `get_seq` reserves anything for it.
        let mut w = WireWriter::new();
        w.put_u64(3).put_u32(7).put_u32(8);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_count(), Err(WireError::BadLength(3)));

        let mut w = WireWriter::new();
        w.put_u64(MAX_COLLECTION_ITEMS + 1);
        let mut bytes = w.finish().to_vec();
        bytes.resize(bytes.len() + MAX_COLLECTION_ITEMS as usize + 2, 0);
        let mut r = WireReader::new(bytes.into());
        assert!(matches!(
            r.get_seq(WireReader::get_u8),
            Err(WireError::BadLength(_))
        ));

        // A count that fits reads exactly that many items.
        let mut w = WireWriter::new();
        w.put_u64(2).put_u32(7).put_u32(u32::MAX).put_bool(true);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_seq(WireReader::get_u32), Ok(vec![7, u32::MAX]));
        assert_eq!(r.get_bool(), Ok(true));
        r.expect_end().unwrap();
    }

    #[test]
    fn narrow_fields_reject_wide_values() {
        let mut w = WireWriter::new();
        w.put_u64(u64::from(u32::MAX) + 1).put_u8(2).put_u8(0);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u32(), Err(WireError::VarintOverflow));
        assert_eq!(r.get_bool(), Err(WireError::BadTag(2)));
        assert_eq!(r.get_f64(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn owned_buffers_decode_in_place() {
        let v = Value::list([Value::I64(1), Value::from("two"), Value::F64(2.5)]);
        let bytes = encode_value(&v);
        assert_eq!(decode_value_from_bytes(bytes.clone()), Ok(v));
        // A window into a larger buffer decodes without re-slicing it.
        let mut padded = vec![0xee];
        padded.extend_from_slice(&bytes);
        let window = Bytes::from(padded).slice(1..);
        assert_eq!(decode_value_from_bytes(window), decode_value(&bytes));
    }

    #[test]
    fn hostile_blob_length_rejected() {
        // A declared blob length over MAX_BLOB_BYTES errors even when the
        // buffer claims to contain that many bytes.
        let mut w = WireWriter::new();
        w.put_u8(TAG_BYTES).put_u64(MAX_BLOB_BYTES + 1);
        let bytes = w.finish();
        assert!(matches!(decode_value(&bytes), Err(WireError::BadLength(_))));
    }

    #[test]
    fn random_values_roundtrip() {
        let mut rng = TestRng(0xc0dec);
        let mut shaped = 0;
        for _ in 0..256 {
            let v = gen_value(&mut rng, 4);
            let bytes = encode_value(&v);
            let back = decode_value(&bytes).expect("roundtrip must succeed");
            assert_eq!(back, v);
            assert_eq!(encode_value(&back), bytes);
            shaped += usize::from(shaped_maps(&v, &mut Shapes::default()) > 0);
        }
        assert!(shaped >= 64, "only {shaped} of 256 trees repeat a shape");
    }

    /// How many maps of `v` the writer writes as a shape index.
    fn shaped_maps<'v>(v: &'v Value, shapes: &mut Shapes<'v>) -> usize {
        match v {
            Value::List(items) => items.iter().map(|i| shaped_maps(i, shapes)).sum(),
            Value::Map(m) => {
                let hit = shapes.find(m).is_some();
                let inner: usize = m.values().map(|i| shaped_maps(i, shapes)).sum();
                if !hit {
                    shapes.register(m);
                }
                inner + usize::from(hit)
            }
            _ => 0,
        }
    }

    /// A map as a peer may send it: `entries` in the given order.
    fn raw_map<'a>(entries: impl ExactSizeIterator<Item = (&'a str, i64)>) -> Bytes {
        let mut w = WireWriter::new();
        w.put_u8(TAG_MAP).put_u64(entries.len() as u64);
        for (k, v) in entries {
            w.put_str(k).put_u8(TAG_I64).put_i64(v);
        }
        w.finish()
    }

    #[test]
    fn reverse_sorted_map_decodes_with_one_sort() {
        // 65,536 keys, each smaller than every key before it: a shifting
        // insert per entry would move 2^31 entries; this takes
        // milliseconds. Re-encoding writes them sorted.
        let mut entries: Vec<(String, i64)> =
            (0..65_536).map(|i| (format!("{i:05x}"), i)).collect();
        let sorted = raw_map(entries.iter().map(|(k, i)| (k.as_str(), *i)));
        entries.reverse();
        let hostile = raw_map(entries.iter().map(|(k, i)| (k.as_str(), *i)));
        let v = decode_value_from_bytes(hostile).unwrap();
        assert_eq!(v.as_map().map(ValueMap::len), Some(65_536));
        assert_eq!(v.get("00000"), Some(&Value::I64(0)));
        assert_eq!(v.get("0ffff"), Some(&Value::I64(65_535)));
        assert_eq!(encode_value(&v), sorted);
    }

    #[test]
    fn duplicate_map_keys_decode_last_wins() {
        let hostile = raw_map([("b", 1), ("a", 2), ("b", 3), ("a", 4), ("b", 5)].into_iter());
        let v = decode_value_from_bytes(hostile).unwrap();
        assert_eq!(v, Value::map([("a", Value::I64(4)), ("b", Value::I64(5))]));
        assert_eq!(encode_value(&v), raw_map([("a", 4), ("b", 5)].into_iter()));
        // Sorted but repeated is still repaired.
        let v = decode_value_from_bytes(raw_map([("a", 1), ("a", 2)].into_iter())).unwrap();
        assert_eq!(v, Value::map([("a", Value::I64(2))]));
    }

    #[test]
    fn equal_keys_of_one_message_share_an_allocation() {
        use std::sync::Arc;
        let record = |i: i64| Value::map([("k", Value::I64(i)), ("v", Value::Null)]);
        let v = roundtrip(&Value::list((0..4).map(record)));
        let keys: Vec<_> = v
            .as_list()
            .unwrap()
            .iter()
            .map(|r| r.as_map().unwrap().iter().next().unwrap().0)
            .collect();
        assert!(keys.iter().all(|k| Arc::ptr_eq(k, keys[0])));
        assert_eq!(Arc::strong_count(keys[0]), 4, "the reader's table is gone");

        // More distinct keys than slots: every key still decodes, the
        // table stays bounded (nothing to observe but the result).
        let wide =
            Value::list((0..4).map(|_| {
                Value::map((0..3 * SHARED_KEYS).map(|i| (format!("f{i:02}"), Value::Null)))
            }));
        assert_eq!(roundtrip(&wide), wide);
    }

    #[test]
    fn degrading_encoder_writes_the_degraded_tree() {
        let mut rng = TestRng(0xde64);
        for _ in 0..256 {
            let v = gen_value(&mut rng, 4);
            let mut w = WireWriter::new();
            w.put_value_degraded(&v);
            let degraded = v.transform_refs(&mut |r| r.degraded());
            assert_eq!(w.finish(), encode_value(&degraded));
        }
    }

    #[test]
    fn random_bytes_never_panic_decoder() {
        let mut rng = TestRng(0xdec0de);
        for _ in 0..512 {
            let len = rng.below(256) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = decode_value(&bytes);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut rng = TestRng(0x5eed);
        for _ in 0..128 {
            let v = gen_value(&mut rng, 4);
            assert_eq!(encode_value(&v), encode_value(&v));
        }
    }

    // --- compact forms: shapes, fixstr, fixlist --------------------------

    /// Two records of the benchmark's shape, byte by byte: the first
    /// names its fields and registers its shape, the second is shape 0.
    #[test]
    fn a_two_record_batch_encodes_to_these_bytes() {
        let batch = Value::List(crate::testgen::graph_records(2, 0));
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0x12, // fixlist: 2 records
            TAG_MAP, 3,
            1, b'k', 0x30, b'k', b'0', b'0', b'0', b'0', b'0', b'0', b'0',
            b'0', b'0', b'0', b'0', b'0', b'0', b'0', b'0', // fixstr: 16 bytes
            4, b't', b'a', b'g', b's', 0x13, // fixlist: 3 tags
            0x26, b't', b'0', b'0', b'0', b'0', b'0',
            0x26, b't', b'0', b'0', b'0', b'0', b'1',
            0x26, b't', b'0', b'0', b'0', b'0', b'2',
            1, b'v', TAG_I64, 0,
            TAG_SHAPED, 0,
            0x30, b'k', b'0', b'0', b'0', b'0', b'0', b'0', b'0',
            b'0', b'0', b'0', b'0', b'0', b'0', b'0', b'1',
            0x13,
            0x26, b't', b'0', b'0', b'0', b'0', b'3',
            0x26, b't', b'0', b'0', b'0', b'0', b'4',
            0x26, b't', b'0', b'0', b'0', b'0', b'5',
            TAG_I64, 0x80, 0x80, 0x80, 0x80, 0x20, // zigzag(1 << 32)
        ];
        assert_eq!(&encode_value(&batch)[..], golden);
        assert_eq!(decode_value(golden), Ok(batch));
    }

    #[test]
    fn a_shape_index_past_the_registered_shapes_is_refused() {
        assert_eq!(decode_value(&[TAG_SHAPED, 0]), Err(WireError::BadTag(0)));
        // One shape registered: index 0 reads, index 1 does not.
        let two = |i: u8| [0x12, TAG_MAP, 1, 1, b'a', TAG_NULL, TAG_SHAPED, i, TAG_TRUE];
        let a = |v: Value| Value::map([("a", v)]);
        assert_eq!(
            decode_value(&two(0)),
            Ok(Value::list([a(Value::Null), a(Value::Bool(true))]))
        );
        for i in [1, 7, 8, 255] {
            assert_eq!(decode_value(&two(i)), Err(WireError::BadTag(i)));
        }
    }

    #[test]
    fn every_cut_of_a_shaped_value_is_refused() {
        let v = Value::List(crate::testgen::graph_records(3, 9));
        let bytes = encode_value(&v);
        assert!(bytes.contains(&TAG_SHAPED));
        for cut in 0..bytes.len() {
            assert!(decode_value(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn a_cut_or_invalid_fixstr_is_refused() {
        assert_eq!(
            decode_value(&[FIXSTR | 3, b'a', b'b']),
            Err(WireError::BadLength(3))
        );
        assert_eq!(decode_value(&[FIXSTR | 31]), Err(WireError::BadLength(31)));
        // `é` is 0xc3 0xa9: a tag length of 2 ends between them.
        assert_eq!(
            decode_value(&[FIXSTR | 2, b'a', 0xc3]),
            Err(WireError::InvalidUtf8)
        );
        assert_eq!(
            decode_value(&[FIXSTR | 2, 0xff, b'a']),
            Err(WireError::InvalidUtf8)
        );
        assert_eq!(
            decode_value(&[FIXLIST | 2, TAG_NULL]),
            Err(WireError::BadLength(2))
        );
    }

    /// A map past the shape bounds is written literally, every time.
    fn literal_repeat_of(maps: Vec<Value>) {
        let last = maps.last().unwrap().clone();
        let v = Value::list(maps.into_iter().chain([last.clone()]));
        let bytes = encode_value(&v);
        assert_eq!(decode_value(&bytes), Ok(v));
        let alone = encode_value(&last);
        assert_eq!(alone[0], TAG_MAP);
        assert!(bytes.ends_with(&alone), "the repeat is literal");
    }

    #[test]
    fn past_eight_shapes_or_32_keys_maps_are_written_literally() {
        let one_key = |i: usize| Value::map([(format!("f{i}"), Value::Null)]);
        // Shapes 0–7 repeat as indices; the 9th map registers none.
        literal_repeat_of((0..9).map(one_key).collect());
        let eight = (0..8).map(one_key).collect::<Vec<_>>();
        let again = encode_value(&Value::list(eight.iter().chain(&eight).cloned()));
        assert!(again.ends_with(&[TAG_SHAPED, 7, TAG_NULL]));

        // Two 16-key shapes fill the 32 keys: a 1-key map is the 33rd.
        let wide = |tag: &str| Value::map((0..16).map(|i| (format!("{tag}{i:02}"), Value::Null)));
        literal_repeat_of(vec![wide("a"), wide("b"), one_key(0)]);
        // And a 17-key map is never a shape.
        literal_repeat_of(vec![Value::map(
            (0..17).map(|i| (format!("g{i:02}"), Value::Null)),
        )]);
    }

    #[test]
    fn shapes_are_scoped_to_one_top_level_value() {
        let a = Value::list((0..3).map(|i| crate::testgen::graph_record(i, 1)));
        let b = Value::map([("meta", crate::testgen::graph_record(9, 2))]);
        // Two values of one writer: the second names its fields again.
        let mut w = WireWriter::new();
        w.put_value(&a).put_value_degraded(&b);
        let both = w.finish();
        assert_eq!(both, [&encode_value(&a)[..], &encode_value(&b)].concat());
        let mut r = WireReader::new(both);
        assert_eq!(r.get_value(), Ok(a.clone()));
        assert_eq!(r.get_value(), Ok(b.clone()));
        r.expect_end().unwrap();

        // A value encoded alone, spliced after a shaped one.
        let mut w = WireWriter::new();
        w.put_value(&a).put_raw(&encode_value(&b));
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_value(), Ok(a));
        assert_eq!(r.get_value(), Ok(b));
        r.expect_end().unwrap();
    }

    #[test]
    fn literal_forms_of_every_length_still_decode() {
        // What a writer without the short forms and shapes wrote.
        let mut w = WireWriter::new();
        w.put_u8(TAG_LIST).put_u64(3);
        w.put_u8(TAG_STR).put_str("ab");
        w.put_u8(TAG_MAP).put_u64(1).put_str("k").put_u8(TAG_NULL);
        w.put_u8(TAG_MAP).put_u64(1).put_str("k").put_u8(TAG_TRUE);
        let v = Value::list([
            Value::from("ab"),
            Value::map([("k", Value::Null)]),
            Value::map([("k", Value::Bool(true))]),
        ]);
        let old = w.finish();
        assert_eq!(decode_value(&old), Ok(v.clone()));
        assert!(encode_value(&v).len() < old.len());
    }
}
