//! The delivery scheduler: a thread that holds in-flight packets in a
//! time-ordered heap and delivers each into its destination queue when its
//! delivery instant arrives.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};

use crate::message::Incoming;
use crate::network::{deliver, Links};

/// A packet scheduled for future delivery.
#[derive(Debug)]
pub(crate) struct Scheduled {
    pub deliver_at: Instant,
    pub msg: Incoming,
    pub to: Sender<Incoming>,
}

/// Heap entry ordered so the *earliest* delivery is the heap maximum
/// (`BinaryHeap` is a max-heap), ties broken by submission sequence.
#[derive(Debug)]
struct Entry {
    at: Instant,
    seq: u64,
    item: Box<Scheduled>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earlier instants compare greater.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Handle to the scheduler thread.
#[derive(Debug)]
pub(crate) struct Scheduler {
    tx: Sender<Scheduled>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns the delivery thread. `in_flight` is decremented once per
    /// packet after it lands in its destination queue (including the
    /// shutdown flush), pairing with the increment the sender performs at
    /// submission time. A delivery into a full queue counts on `links`.
    pub fn spawn(in_flight: Arc<AtomicU64>, links: Links) -> Self {
        let (tx, rx) = channel::unbounded::<Scheduled>();
        let handle = thread::Builder::new()
            .name("simnet-scheduler".into())
            .spawn(move || run(rx, &in_flight, &links))
            .expect("failed to spawn simnet scheduler thread");
        Scheduler {
            tx,
            handle: Some(handle),
        }
    }

    /// Enqueues a packet for delivery. Returns `false` if the scheduler has
    /// shut down.
    pub fn submit(&self, item: Scheduled) -> bool {
        self.tx.send(item).is_ok()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // Closing the channel makes `run` drain and exit.
        let (closed_tx, _) = channel::unbounded();
        self.tx = closed_tx;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run(rx: Receiver<Scheduled>, in_flight: &AtomicU64, links: &Links) {
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Deliver everything that is due.
        let now = Instant::now();
        while heap.peek().is_some_and(|e| e.at <= now) {
            let entry = heap.pop().expect("peeked entry must exist");
            // A closed receiver just means the endpoint is gone.
            deliver(links, &entry.item.to, entry.item.msg);
            in_flight.fetch_sub(1, AtomicOrdering::SeqCst);
        }
        // Wait for the next due time or a new submission.
        let wait = heap
            .peek()
            .map(|e| e.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_secs(3600));
        match rx.recv_timeout(wait) {
            Ok(item) => {
                seq += 1;
                heap.push(Entry {
                    at: item.deliver_at,
                    seq,
                    item: Box::new(item),
                });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Waiting out the due times would block shutdown;
                // flush remaining packets immediately, earliest first.
                while let Some(entry) = heap.pop() {
                    deliver(links, &entry.item.to, entry.item.msg);
                    in_flight.fetch_sub(1, AtomicOrdering::SeqCst);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::NodeId;
    use bytes::Bytes;

    fn msg(seq: u64) -> Incoming {
        Incoming {
            src: NodeId(0),
            dst: NodeId(1),
            payload: Bytes::from_static(b"x"),
            delivered_at: Instant::now(),
            seq,
        }
    }

    fn counter(n: u64) -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(n))
    }

    #[test]
    fn delivers_in_time_order() {
        let sched = Scheduler::spawn(counter(2), Links::default());
        let (tx, rx) = channel::unbounded();
        let now = Instant::now();
        sched.submit(Scheduled {
            deliver_at: now + Duration::from_millis(30),
            msg: msg(2),
            to: tx.clone(),
        });
        sched.submit(Scheduled {
            deliver_at: now + Duration::from_millis(5),
            msg: msg(1),
            to: tx,
        });
        let first = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first.seq, 1);
        assert_eq!(second.seq, 2);
    }

    #[test]
    fn immediate_delivery() {
        let sched = Scheduler::spawn(counter(1), Links::default());
        let (tx, rx) = channel::unbounded();
        sched.submit(Scheduled {
            deliver_at: Instant::now(),
            msg: msg(7),
            to: tx,
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap().seq, 7);
    }

    #[test]
    fn drop_flushes_pending() {
        let (tx, rx) = channel::unbounded();
        let pending = counter(1);
        {
            let sched = Scheduler::spawn(pending.clone(), Links::default());
            sched.submit(Scheduled {
                deliver_at: Instant::now() + Duration::from_secs(30),
                msg: msg(9),
                to: tx,
            });
            // Dropping the scheduler must not hang and must flush.
        }
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().seq, 9);
        assert_eq!(pending.load(AtomicOrdering::SeqCst), 0);
    }
}
