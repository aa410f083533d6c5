//! The readiness wait the IO shards block in: `poll(2)`, declared here
//! against the C library std already links, so no crate dependency is
//! added. This is the workspace's only foreign call.

use std::ffi::c_int;
use std::time::Duration;

/// Readable (or at EOF / in error) — `<poll.h>` `POLLIN`.
pub(crate) const POLLIN: i16 = 0x1;
/// Writable without blocking — `<poll.h>` `POLLOUT`.
pub(crate) const POLLOUT: i16 = 0x4;

/// `struct pollfd`: one socket and the readiness it waits for.
#[repr(C)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits on `fd` for `events` (`POLLIN` and/or `POLLOUT`).
    pub(crate) fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// Blocks until one of `fds` is ready or `timeout` (rounded up to the
/// next whole millisecond; `None` waits indefinitely) passes. Errors,
/// `EINTR` included, just return: the caller's next pass re-checks
/// every socket anyway.
#[allow(unsafe_code)]
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
    let nfds = NfdsT::try_from(fds.len()).expect("a shard's socket count fits nfds_t");
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: the pointer and length come from a live `&mut [PollFd]`
    // whose layout is `struct pollfd`, so the kernel reads and writes
    // only inside it. The fds are sockets the caller holds open for the
    // call; an fd that were not open would only come back as
    // `POLLNVAL`, so no fd value makes the call unsound.
    unsafe {
        poll(fds.as_mut_ptr(), nfds, timeout_ms);
    }
}
