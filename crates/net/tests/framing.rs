//! Framing edge cases over adversarial byte streams (ISSUE 8, satellite 4).
//!
//! The unit tests in `frame.rs` cover the happy paths; these tests attack
//! the codec the way a real TCP stack does — fragmented reads, short
//! writes, a length prefix split across reads, hostile prefixes — and
//! close with a round-trip property over the `fargo-wire` value
//! generators, so the exact bytes the runtime puts on the wire are what
//! gets framed here.

use std::io::{self, Cursor, Read, Write};

use fargo_net::{read_frame, write_frame, FrameError, FRAME_VERSION, MAX_FRAME};
use fargo_wire::testgen::{gen_value, TestRng};
use fargo_wire::{decode_value_from_bytes, encode_value};

/// A reader that hands out at most `chunk` bytes per `read` call —
/// models a socket delivering a frame in arbitrary fragments.
struct Trickle<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

/// A writer that accepts at most `chunk` bytes per `write` call —
/// models a full socket buffer forcing short writes.
struct Dribble {
    out: Vec<u8>,
    chunk: usize,
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn partial_reads_reassemble_the_frame() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"fragmented delivery").unwrap();
    // Every fragment size from one byte up: the frame must reassemble
    // identically no matter how the stream slices it.
    for chunk in 1..=wire.len() {
        let mut r = Trickle {
            inner: Cursor::new(&wire),
            chunk,
        };
        let got = read_frame(&mut r).unwrap();
        assert_eq!(got.as_ref(), b"fragmented delivery", "chunk={chunk}");
    }
}

#[test]
fn short_writes_still_emit_a_whole_frame() {
    for chunk in 1..=8 {
        let mut w = Dribble {
            out: Vec::new(),
            chunk,
        };
        write_frame(&mut w, b"short-write payload").unwrap();
        let got = read_frame(&mut Cursor::new(&w.out)).unwrap();
        assert_eq!(got.as_ref(), b"short-write payload", "chunk={chunk}");
    }
}

#[test]
fn length_prefix_split_across_reads() {
    let mut wire = Vec::new();
    write_frame(&mut wire, &[0xabu8; 300]).unwrap();
    // One byte per read: the u32 length prefix itself arrives in four
    // separate reads, straddling the version byte and the payload.
    let mut r = Trickle {
        inner: Cursor::new(&wire),
        chunk: 1,
    };
    let got = read_frame(&mut r).unwrap();
    assert_eq!(got.len(), 300);
    assert!(got.iter().all(|&b| b == 0xab));
}

#[test]
fn oversized_length_prefix_rejected_before_allocation() {
    // Hand-build a header declaring just over MAX_FRAME. No payload
    // follows; the reader must refuse on the prefix alone rather than
    // trying to allocate and then failing on EOF.
    let declared = (MAX_FRAME as u32) + 1;
    let mut wire = vec![FRAME_VERSION];
    wire.extend_from_slice(&declared.to_be_bytes());
    match read_frame(&mut Cursor::new(&wire)) {
        Err(FrameError::TooLarge(n)) => assert_eq!(n, u64::from(declared)),
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn max_size_frame_is_accepted() {
    // The bound is inclusive: exactly MAX_FRAME bytes round-trips.
    let payload = vec![0x5au8; MAX_FRAME];
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let got = read_frame(&mut Cursor::new(&wire)).unwrap();
    assert_eq!(got.len(), MAX_FRAME);
}

#[test]
fn eof_inside_split_prefix_is_io_error() {
    // Stream dies after 3 of the 5 header bytes.
    let wire = [FRAME_VERSION, 0x00, 0x00];
    assert!(matches!(
        read_frame(&mut Cursor::new(&wire)),
        Err(FrameError::Io(_))
    ));
}

#[test]
fn wire_values_round_trip_through_fragmented_frames() {
    // Property: encode_value → frame → fragmented stream → deframe →
    // decode (in place, from the frame's own buffer) is the identity, for
    // the same randomized value trees the codec's own tests use.
    let mut rng = TestRng(0xf2a3e);
    for i in 0..128 {
        let v = gen_value(&mut rng, 4);
        let encoded = encode_value(&v);
        let mut wire = Vec::new();
        // Alternate short writes and whole writes.
        if i % 2 == 0 {
            let mut w = Dribble {
                out: Vec::new(),
                chunk: 3,
            };
            write_frame(&mut w, &encoded).unwrap();
            wire = w.out;
        } else {
            write_frame(&mut wire, &encoded).unwrap();
        }
        let chunk = 1 + (i % 7);
        let mut r = Trickle {
            inner: Cursor::new(&wire),
            chunk,
        };
        let payload = read_frame(&mut r).unwrap();
        assert_eq!(
            decode_value_from_bytes(payload).unwrap(),
            v,
            "iteration {i}"
        );
    }
}

#[test]
fn back_to_back_frames_deframe_in_order() {
    // Several frames on one stream — the reader must consume exactly one
    // frame per call and leave the stream positioned at the next.
    let payloads: Vec<Vec<u8>> = (0u8..16).map(|i| vec![i; i as usize * 7]).collect();
    let mut wire = Vec::new();
    for p in &payloads {
        write_frame(&mut wire, p).unwrap();
    }
    let mut r = Trickle {
        inner: Cursor::new(&wire),
        chunk: 5,
    };
    for p in &payloads {
        let got = read_frame(&mut r).unwrap();
        assert_eq!(got.as_ref(), p.as_slice());
    }
    // Stream exhausted: the next read is a clean EOF-as-Io error.
    assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
}
