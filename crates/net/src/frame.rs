//! Length-prefixed framing of `fargo-wire` envelopes on a byte stream.
//!
//! Every frame is `[version: u8][len: u32 big-endian][payload: len bytes]`.
//! The version byte lets a future incompatible layout be rejected at the
//! first byte instead of desynchronising the stream; the length prefix is
//! validated against [`MAX_FRAME`] *before* any allocation, so a corrupt
//! or hostile prefix errors instead of attempting a multi-gigabyte
//! buffer.
//!
//! A frame costs one write on the way out (header and payload in one
//! vectored call) and, behind a buffered reader, a share of one read on
//! the way in; the payload's buffer becomes the [`Bytes`] the reader
//! returns, not copied again.

use std::error::Error;
use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};

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

/// Writes one frame: the header and the payload in one vectored write —
/// on a socket one syscall, and under `TCP_NODELAY` one segment, where
/// two writes sent two. A short write is retried from where it stopped
/// until the frame is fully flushed out.
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
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut left = &mut bufs[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(FrameError::Io(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame, tolerating arbitrarily fragmented reads (the header
/// and payload may arrive one byte at a time). Give it a buffered reader
/// on a stream: then a burst of frames costs one read of the stream, not
/// two per frame.
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
    // arrive, and a frame up to 64 KiB fills one buffer of its length —
    // the buffer the returned `Bytes` takes over.
    let mut payload = Vec::with_capacity(len.min(64 * 1024));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::Io(ErrorKind::UnexpectedEof.into()));
    }
    // A larger frame grew its buffer by doubling: give the spare back,
    // or whatever keeps a window into the payload keeps it too.
    payload.shrink_to_fit();
    Ok(Bytes::from(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    /// Frames of 0 to 99 bytes, each byte naming its frame.
    fn payloads() -> Vec<Vec<u8>> {
        (0..100u8).map(|i| vec![i; usize::from(i)]).collect()
    }

    /// The framing before vectored writes: header, then payload.
    fn write_frame_in_two(w: &mut impl Write, payload: &[u8]) {
        let mut header = [FRAME_VERSION, 0, 0, 0, 0];
        header[1..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        w.write_all(&header).unwrap();
        w.write_all(payload).unwrap();
    }

    /// A socket-like sink: counts its write calls and takes at most
    /// `chunk` bytes per call.
    struct Sink {
        out: Vec<u8>,
        calls: usize,
        chunk: usize,
    }

    impl Write for Sink {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(b)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.chunk;
            for b in bufs {
                let n = b.len().min(room);
                self.out.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.chunk - room)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that counts its read calls.
    struct Counted<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut sink = Sink {
            out: Vec::new(),
            calls: 0,
            chunk: usize::MAX,
        };
        for (i, p) in payloads().iter().enumerate() {
            write_frame(&mut sink, p).unwrap();
            assert_eq!(sink.calls, i + 1, "frame {i}");
        }
    }

    #[test]
    fn short_writes_still_deliver_every_frame_whole() {
        let mut sink = Sink {
            out: Vec::new(),
            calls: 0,
            chunk: 3,
        };
        for p in payloads() {
            write_frame(&mut sink, &p).unwrap();
        }
        let mut wire = Cursor::new(sink.out);
        for p in payloads() {
            assert_eq!(read_frame(&mut wire).unwrap().as_ref(), p.as_slice());
        }
        assert_eq!(wire.position(), wire.get_ref().len() as u64);
    }

    #[test]
    fn a_burst_of_frames_costs_a_few_reads() {
        let mut wire = Vec::new();
        for p in payloads() {
            write_frame(&mut wire, &p).unwrap();
        }
        let mut r = BufReader::new(Counted {
            inner: Cursor::new(wire),
            reads: 0,
        });
        for p in payloads() {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), p.as_slice());
        }
        // 5.5 KB of frames, under one buffer: unbuffered, 200 reads.
        assert!(r.get_ref().reads <= 2, "{} reads", r.get_ref().reads);
    }

    /// The bytes are the framing's as it was, so peers built before and
    /// after vectored writes and buffered reads read each other.
    #[test]
    fn two_write_framing_and_this_one_read_each_other() {
        let (mut old, mut new) = (Vec::new(), Vec::new());
        for p in payloads() {
            write_frame_in_two(&mut old, &p);
            write_frame(&mut new, &p).unwrap();
        }
        assert_eq!(old, new);
        let mut unbuffered = Cursor::new(&new);
        let mut buffered = BufReader::new(Cursor::new(&old));
        for p in payloads() {
            assert_eq!(read_frame(&mut unbuffered).unwrap().as_ref(), p.as_slice());
            assert_eq!(read_frame(&mut buffered).unwrap().as_ref(), p.as_slice());
        }
    }

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
