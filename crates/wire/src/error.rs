//! Marshal/unmarshal error type.

use std::error::Error;
use std::fmt;

/// Errors produced while encoding or decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input ended before a complete value was read.
    UnexpectedEof,
    /// An unknown type tag was encountered.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A varint was wider than its field permits (64 bits, or 32 for
    /// node indices and other `u32` fields).
    VarintOverflow,
    /// Value nesting exceeded the decoder's depth bound (128 levels).
    DepthExceeded,
    /// Input remained after the top-level value was decoded.
    TrailingBytes(usize),
    /// A declared length exceeds the remaining input (corrupt stream).
    BadLength(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::BadTag(t) => write!(f, "unknown wire tag 0x{t:02x}"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::VarintOverflow => write!(f, "varint exceeds its field's width"),
            WireError::DepthExceeded => write!(f, "value nesting too deep"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadLength(n) => write!(f, "declared length {n} exceeds input"),
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(WireError::BadTag(0xab).to_string().contains("0xab"));
        assert!(WireError::TrailingBytes(3).to_string().contains('3'));
    }
}
