//! The benchmark's only thread and process spawns, so the repository's
//! `thread-spawn` lint has one file to audit. Evaluation work never runs
//! on these threads: it runs on the `parworker` pool the serve loop owns.

use std::io;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Runs `f` on a named thread; the caller joins the handle.
pub fn thread<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<JoinHandle<T>> {
    // lint: allow(thread-spawn) — hosts the serve loop beside its client, as a socket deployment would; no evaluation runs here
    std::thread::Builder::new().name(name.to_string()).spawn(f)
}

/// Starts this executable again with `args`, stdout piped back.
pub fn child(args: &[String]) -> io::Result<Child> {
    let exe = std::env::current_exe()?;
    // lint: allow(thread-spawn) — a child process, not a thread: each workload of `run --all` measures in a fresh process
    Command::new(exe).args(args).stdout(Stdio::piped()).spawn()
}
