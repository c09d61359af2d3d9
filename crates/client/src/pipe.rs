//! In-memory byte pipes over `std::sync::mpsc`: connect a [`Client`] to a
//! `serve` loop running in another thread of the same process, with the
//! exact `Read`/`Write` semantics a socket would have.
//!
//! [`duplex`] returns the two ends of one unidirectional byte stream;
//! build two for a request/response pair. Writes never block (the channel
//! is unbounded), reads block until bytes or disconnect arrive — so a
//! serve loop on the far end behaves exactly as it would over stdin/
//! stdout, and dropping a writer cleanly EOFs the reader (the serve
//! loop's EOF-implies-drain path).
//!
//! [`Client`]: crate::Client

use std::io::{self, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};

/// The write end of an in-memory pipe. Cloning gives another writer into
/// the same stream (writes are chunk-atomic: each `write` call arrives
/// contiguously, so writers that emit whole lines per call can share a
/// pipe without interleaving mid-line).
#[derive(Clone)]
pub struct PipeWriter {
    tx: Sender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe reader disconnected"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The read end of an in-memory pipe. Blocking; returns `Ok(0)` (EOF)
/// once every writer is dropped and the buffered bytes are consumed.
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.pending.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // every writer dropped: EOF
            }
        }
        let mut rest = self.pending.get(self.pos..).unwrap_or_default();
        let n = rest.read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

/// One unidirectional in-memory byte stream: `(writer, reader)`.
pub fn duplex() -> (PipeWriter, PipeReader) {
    let (tx, rx) = channel();
    (
        PipeWriter { tx },
        PipeReader {
            rx,
            pending: Vec::new(),
            pos: 0,
        },
    )
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the pipe tests drive each end from its own thread"
)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn lines_cross_the_pipe_and_eof_on_writer_drop() {
        let (mut w, r) = duplex();
        let handle = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(r).lines() {
                lines.push(line.expect("clean utf-8 line"));
            }
            lines
        });
        w.write_all(b"alpha\nbe").unwrap();
        w.write_all(b"ta\n").unwrap();
        drop(w);
        assert_eq!(handle.join().unwrap(), vec!["alpha", "beta"]);
    }

    #[test]
    fn cloned_writers_share_the_stream_chunk_atomically() {
        let (w, r) = duplex();
        let mut handles = Vec::new();
        for i in 0..4 {
            let mut w = w.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..50 {
                    let line = format!("{i}:{j}\n");
                    w.write_all(line.as_bytes()).unwrap();
                }
            }));
        }
        drop(w);
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        for line in BufReader::new(r).lines() {
            let line = line.unwrap();
            assert!(line.split_once(':').is_some(), "interleaved line {line:?}");
            count += 1;
        }
        assert_eq!(count, 200);
    }
}
