//! The few raw libc calls the shell needs, bound by hand so the crate
//! carries no libc dependency, each behind a safe function: signal
//! handlers that raise a flag, the fd-flag call that lets a listener
//! survive `exec`, and `kill`.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

pub(crate) const SIGINT: i32 = 2;
pub(crate) const SIGKILL: i32 = 9;
pub(crate) const SIGUSR1: i32 = 10;
pub(crate) const SIGTERM: i32 = 15;
/// `fcntl` command that sets the descriptor flags (`FD_CLOEXEC`).
const F_SETFD: i32 = 2;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Sends `sig` to process `pid`. A process that already exited is no
/// error here: the callers reap their children separately.
pub(crate) fn send_signal(pid: i32, sig: i32) {
    // SAFETY: `kill` takes two integers and touches no memory of ours.
    unsafe {
        let _ = kill(pid, sig);
    }
}

/// Clears `FD_CLOEXEC` on `fd`, so the descriptor survives `exec` into
/// a child process (std sets the flag on every descriptor it creates).
pub(crate) fn keep_across_exec(fd: i32) -> std::io::Result<()> {
    // SAFETY: `F_SETFD` with a zero argument only rewrites the flags of
    // `fd`; an invalid `fd` fails with `EBADF`, which is returned.
    match unsafe { fcntl(fd, F_SETFD, 0) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// The flag each signal number raises; null for unhandled signals.
static FLAGS: [AtomicPtr<AtomicBool>; 32] = [const { AtomicPtr::new(ptr::null_mut()) }; 32];

extern "C" fn raise_flag(signum: i32) {
    let slot = usize::try_from(signum).ok().and_then(|i| FLAGS.get(i));
    if let Some(flag) = slot.map(|s| s.load(Ordering::SeqCst)) {
        // SAFETY: every stored pointer comes from a `&'static AtomicBool`.
        if let Some(flag) = unsafe { flag.as_ref() } {
            flag.store(true, Ordering::SeqCst);
        }
    }
}

/// Makes each signal in `signums` set `flag`. The handler only loads
/// and stores atomics, which is async-signal-safe.
pub(crate) fn on_signals(signums: &[i32], flag: &'static AtomicBool) {
    for &signum in signums {
        let Some(slot) = usize::try_from(signum).ok().and_then(|i| FLAGS.get(i)) else {
            continue;
        };
        slot.store(ptr::from_ref(flag).cast_mut(), Ordering::SeqCst);
        // SAFETY: `raise_flag` has the C handler signature and touches
        // nothing but atomics.
        unsafe {
            let _ = signal(signum, raise_flag as *const () as usize);
        }
    }
}
