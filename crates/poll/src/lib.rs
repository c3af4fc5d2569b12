//! **lhrs-poll** — the workspace's one `unsafe` binding: `poll(2)`.
//!
//! A `TcpTransport` host reads its inbound sockets on its own thread, so it
//! must sleep until *any* of them (or a timer) is due. std has no call that
//! waits on several sockets, and the workspace takes no external crate, so
//! this crate declares glibc's `poll` — already linked by std — and wraps it
//! in one safe function. Every other crate is `forbid(unsafe_code)`; this one
//! denies `unsafe_op_in_unsafe_fn` and undocumented `unsafe` blocks, and has
//! exactly one, in [`wait`] (DESIGN §8.2).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
// The panic audit: no aborts outside tests (DESIGN §8.2).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
    )
)]

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `nfds_t`: `unsigned long` in glibc and musl.
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
/// `nfds_t`: `unsigned int` on the BSDs and macOS.
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// `POLLIN`: there is data to read.
const POLLIN: c_short = 0x001;
/// `POLLOUT`: writing will not block.
const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// One entry of the array [`wait`] watches: C's `struct pollfd`.
///
/// An entry holds a descriptor's *number*, not the descriptor: keep the
/// socket open while the entry is waited on. A number that is not open is
/// reported [`PollFd::ready`] (`POLLNVAL`), never undefined.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for bytes to read (or EOF, or an error).
    pub fn readable(fd: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Watch `fd` for room to write (or an error).
    pub fn writable(fd: &impl AsRawFd) -> PollFd {
        PollFd {
            events: POLLOUT,
            ..PollFd::readable(fd)
        }
    }

    /// Whether the last [`wait`] found that the awaited `read` (or
    /// `write`) on this entry will not block: bytes are buffered (or there
    /// is room), the peer closed, or the socket failed.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Sleep until an entry of `fds` is ready or `timeout` has passed; returns
/// how many are ready (0 on timeout). A wait shorter than a millisecond is
/// rounded up to one — a zero wait does not block — and a signal that
/// interrupts the wait counts as nothing ready.
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
    let nfds =
        Nfds::try_from(fds.len()).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd`s and `nfds` is its length, so the kernel reads and
    // writes exactly those entries (`revents`) and keeps no pointer past
    // the call. Descriptor numbers are only compared, never dereferenced.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    match usize::try_from(ready) {
        Ok(n) => Ok(n),
        Err(_) => match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            e => Err(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn a_readable_socket_is_reported_ready() {
        let (mut a, b) = UnixStream::pair().expect("a socket pair");
        let (quiet, _quiet_peer) = UnixStream::pair().expect("a socket pair");
        a.write_all(b"x").expect("write");
        let mut fds = [PollFd::readable(&quiet), PollFd::readable(&b)];
        assert_eq!(wait(&mut fds, Duration::from_secs(30)).expect("poll"), 1);
        assert!(!fds[0].ready() && fds[1].ready());
    }

    #[test]
    fn a_socket_with_room_is_reported_writable() {
        let (a, _b) = UnixStream::pair().expect("a socket pair");
        let mut fds = [PollFd::writable(&a)];
        assert_eq!(wait(&mut fds, Duration::from_secs(30)).expect("poll"), 1);
        assert!(fds[0].ready());
    }

    #[test]
    fn a_timeout_returns_zero() {
        let (_a, b) = UnixStream::pair().expect("a socket pair");
        let mut fds = [PollFd::readable(&b)];
        let started = Instant::now();
        assert_eq!(
            wait(&mut fds, Duration::from_micros(1500)).expect("poll"),
            0
        );
        assert!(!fds[0].ready());
        assert!(
            started.elapsed() >= Duration::from_millis(2),
            "1.5 ms rounds up to 2"
        );
        assert_eq!(wait(&mut fds, Duration::ZERO).expect("poll"), 0);
    }

    #[test]
    fn a_closed_peer_is_ready_and_reads_eof() {
        let (a, mut b) = UnixStream::pair().expect("a socket pair");
        drop(a);
        let mut fds = [PollFd::readable(&b)];
        assert_eq!(wait(&mut fds, Duration::from_secs(30)).expect("poll"), 1);
        assert!(fds[0].ready());
        assert_eq!(b.read(&mut [0u8; 8]).expect("read"), 0, "EOF");
    }
}
