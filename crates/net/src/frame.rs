//! Length-prefixed framing of `fargo-wire` envelopes on a byte stream.
//!
//! Every frame is `[version: u8][len: u32 big-endian][payload: len bytes]`.
//! The version byte lets a future incompatible layout be rejected at the
//! first byte instead of desynchronising the stream; the length prefix is
//! validated against [`MAX_FRAME`] *before* any allocation, so a corrupt
//! or hostile prefix errors instead of attempting a multi-gigabyte
//! buffer.

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use bytes::Bytes;

/// Current frame-layout version.
pub const FRAME_VERSION: u8 = 1;

/// Upper bound on one frame's payload. Far above any envelope the runtime
/// produces (complet state streams included); anything larger is treated
/// as corruption.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Errors produced by [`read_frame`] and [`write_frame`].
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// Underlying stream failure (includes EOF mid-frame).
    Io(std::io::Error),
    /// The stream's first byte was not a known frame version.
    BadVersion(u8),
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u64),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::BadVersion(v) => write!(f, "unknown frame version {v:#04x}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte bound")
            }
        }
    }
}

impl Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame. `write_all` underneath, so short writes by the sink
/// are retried until the frame is fully flushed out.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when `payload` exceeds [`MAX_FRAME`];
/// otherwise any error of the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len() as u64));
    }
    let mut header = [0u8; 5];
    header[0] = FRAME_VERSION;
    header[1..5].copy_from_slice(
        &u32::try_from(payload.len())
            .expect("bounded above")
            .to_be_bytes(),
    );
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, tolerating arbitrarily fragmented reads (the header
/// and payload may arrive one byte at a time).
///
/// # Errors
///
/// [`FrameError::BadVersion`] on an unknown version byte,
/// [`FrameError::TooLarge`] on a length prefix over [`MAX_FRAME`]
/// (checked before allocating), or the underlying reader's error — an EOF
/// mid-frame surfaces as [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Bytes, FrameError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    if header[0] != FRAME_VERSION {
        return Err(FrameError::BadVersion(header[0]));
    }
    let len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len as u64));
    }
    // The prefix is only a claim: the buffer grows with the bytes that
    // arrive, and a frame up to 64 KiB fills one buffer of its length.
    let mut payload = Vec::with_capacity(len.min(64 * 1024));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(Bytes::from(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf.len(), 5 + 5);
        assert_eq!(buf[0], FRAME_VERSION);
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got.as_ref(), b"hello");
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn bad_version_rejected() {
        let buf = [0x7fu8, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadVersion(0x7f))
        ));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(7); // header + 2 of 5 payload bytes
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn oversized_writes_refused() {
        struct NullSink;
        impl Write for NullSink {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut NullSink, &payload),
            Err(FrameError::TooLarge(_))
        ));
    }
}
