//! A minimal unbounded MPMC channel (the communication fabric of the
//! Master/Worker farm), built on `Mutex` + `Condvar` only.
//!
//! The original implementation used `crossbeam::channel`; this workspace
//! builds without external dependencies, so the subset the farm needs is
//! implemented here: unbounded `send`, blocking `recv`, cloneable senders
//! *and* receivers, and disconnect semantics (a `recv` on a channel whose
//! senders are all gone errors out, ending the worker loops; a `send` with
//! no receivers left errors out, ending a worker whose master is gone).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`] when every receiver is gone; the
/// unsent value is handed back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Manual impl so `Result::expect` works without `T: Debug`.
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

/// The sending half. Cloning registers another producer.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half. Cloning registers another consumer (workers share
/// one task receiver).
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueues `value`; never blocks. Errors when all receivers dropped.
    // lint: allow(panic) — channel lock poisoning only follows a worker panic; amplifying it is the pool's designed failure mode
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.inner.state.lock().expect("channel lock poisoned");
        if state.receivers == 0 {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        drop(state);
        self.inner.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    // lint: allow(panic) — channel lock poisoning only follows a worker panic; amplifying it is the pool's designed failure mode
    fn clone(&self) -> Self {
        self.inner
            .state
            .lock()
            .expect("channel lock poisoned")
            .senders += 1;
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("channel lock poisoned");
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            // Wake every blocked receiver so it can observe the disconnect.
            self.inner.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value arrives or every sender is gone.
    // lint: allow(panic) — channel lock poisoning only follows a worker panic; amplifying it is the pool's designed failure mode
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.inner.state.lock().expect("channel lock poisoned");
        loop {
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.inner.ready.wait(state).expect("channel lock poisoned");
        }
    }
}

impl<T> Clone for Receiver<T> {
    // lint: allow(panic) — channel lock poisoning only follows a worker panic; amplifying it is the pool's designed failure mode
    fn clone(&self) -> Self {
        self.inner
            .state
            .lock()
            .expect("channel lock poisoned")
            .receivers += 1;
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner
            .state
            .lock()
            .expect("channel lock poisoned")
            .receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_single_consumer() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn cloned_receivers_share_the_stream() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx1.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut got = [a, b];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42u32).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn many_producers_many_consumers() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..4)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
