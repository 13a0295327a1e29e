//! The payload of [`Value::Str`](crate::Value::Str): a string that lives
//! in its node when it is short.

use std::fmt;
use std::ops::Deref;

/// Longest string (in bytes) kept inside the node.
const INLINE: usize = 22;

/// An immutable UTF-8 string, 24 bytes: up to 22 bytes of text sit in the
/// value itself, a longer one is one exactly-sized heap allocation. Keys,
/// tags and names — most strings of a record — are short, so a record's
/// strings cost no allocation to decode, clone or drop.
///
/// ```
/// use fargo_wire::Text;
///
/// let tag = Text::from("t0002a");
/// assert_eq!(&*tag, "t0002a");
/// assert_eq!(String::from(tag), "t0002a");
/// ```
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `buf` are a whole UTF-8 string: the only
    /// constructor copies them out of a `&str`.
    Inline {
        len: u8,
        buf: [u8; INLINE],
    },
    Heap(Box<str>),
}

// A `Value` is 32 bytes with this as its widest payload.
const _: () = assert!(std::mem::size_of::<Text>() == 24);

impl Text {
    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Validated again on every read rather than trusted through
            // `unsafe`: at most 22 bytes to check.
            Repr::Inline { len, buf } => std::str::from_utf8(&buf[..usize::from(*len)])
                .expect("inline text was copied from a str"),
            Repr::Heap(s) => s,
        }
    }

    /// The string's bytes, not checked again: comparing, measuring and
    /// encoding a text need no UTF-8 check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Length in bytes (what `str::len` through `Deref` says, without
    /// its check).
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        if s.len() > INLINE {
            return Text(Repr::Heap(s.into()));
        }
        let mut buf = [0; INLINE];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Text(Repr::Inline {
            len: s.len() as u8,
            buf,
        })
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        if s.len() > INLINE {
            Text(Repr::Heap(s.into_boxed_str()))
        } else {
            Text::from(s.as_str())
        }
    }
}

impl From<Text> for String {
    fn from(t: Text) -> String {
        match t.0 {
            Repr::Heap(s) => s.into(),
            Repr::Inline { .. } => t.as_str().to_owned(),
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_inline(t: &Text) -> bool {
        matches!(t.0, Repr::Inline { .. })
    }

    #[test]
    fn short_strings_are_inline_and_long_ones_are_not() {
        for len in [0, 1, 21, 22, 23, 24, 100] {
            let s = "x".repeat(len);
            for t in [Text::from(s.as_str()), Text::from(s.clone())] {
                assert_eq!(is_inline(&t), len <= INLINE, "{len}");
                assert_eq!(t.as_str(), s);
                assert_eq!(t.len(), len);
                assert_eq!(t.as_bytes(), s.as_bytes());
                assert_eq!(t.is_empty(), len == 0);
                assert!(
                    t.starts_with(&s[..len / 2]),
                    "`str` methods through `Deref`"
                );
                assert_eq!(t.clone(), t);
                assert_eq!(String::from(t), s);
            }
        }
    }

    #[test]
    fn a_character_straddling_the_inline_bound_moves_the_string_out() {
        // 21 ASCII bytes and a two-byte character: 23 bytes, whole or
        // not at all.
        let s = format!("{}é", "a".repeat(21));
        assert_eq!(s.len(), 23);
        let t = Text::from(s.as_str());
        assert!(!is_inline(&t));
        assert_eq!(t.as_str(), s);
        // Ending exactly at the bound, it fits.
        let s = format!("{}é", "a".repeat(20));
        assert!(is_inline(&Text::from(s.as_str())));
        assert_eq!(Text::from(s.as_str()).as_str(), s);
    }

    #[test]
    fn it_compares_and_prints_as_the_string_it_holds() {
        let t = Text::from("a\"b");
        assert_eq!(format!("{t:?}"), format!("{:?}", "a\"b"));
        assert_eq!(t, Text::from("a\"b".to_owned()));
        assert_ne!(t, Text::from("a"));
        // Equal whatever the representation: not reachable through the
        // constructors, which pick it by length alone, but `eq` does not
        // depend on that.
        assert_eq!(Text(Repr::Heap("ab".into())), Text::from("ab"));
    }
}
