//! Worker-side panic capture.
//!
//! A worker runs each validation attempt under
//! [`std::panic::catch_unwind`]; the unwind payload alone often carries
//! only a bare message, so a process-wide panic hook (installed once,
//! chaining to the previous hook) records message *and* source location
//! into a thread-local slot — but only for threads that armed capture, so
//! panics everywhere else keep their normal stderr report.
//!
//! Message and location stay **separate fields** ([`PanicInfo`]) all the
//! way into [`CorpusResult::Crashed`](crate::CorpusResult::Crashed) and
//! the trace journal, so reports can render, group, and grep them
//! independently instead of re-parsing a formatted string.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// A captured panic: the payload message and, when the hook saw the panic,
/// its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicInfo {
    /// The panic payload rendered as a string.
    pub message: String,
    /// `file:line:column` of the panic site, when available.
    pub location: Option<String>,
}

impl PanicInfo {
    /// One-line human rendering (`message at file:line:col`).
    pub fn render(&self) -> String {
        match &self.location {
            Some(at) => format!("{} at {at}", self.message),
            None => self.message.clone(),
        }
    }
}

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static CAPTURED: RefCell<Option<PanicInfo>> = const { RefCell::new(None) };
}

static INSTALL: Once = Once::new();

/// Installs the capturing hook (idempotent, chains the previous hook for
/// threads that have not armed capture).
pub fn install_hook() {
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(Cell::get) {
                let message = payload_message(info.payload());
                let location =
                    info.location().map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
                CAPTURED.with(|m| *m.borrow_mut() = Some(PanicInfo { message, location }));
            } else {
                prev(info);
            }
        }));
    });
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(PanicInfo)` with the panic's
/// source location when available. Unwind safety is asserted: callers pass
/// closures whose captured state is discarded on the error path.
pub fn run_caught<T>(f: impl FnOnce() -> T) -> Result<T, PanicInfo> {
    install_hook();
    CAPTURING.with(|c| c.set(true));
    CAPTURED.with(|m| *m.borrow_mut() = None);
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(false));
    match out {
        Ok(v) => Ok(v),
        Err(payload) => Err(CAPTURED.with(|m| m.borrow_mut().take()).unwrap_or_else(|| {
            PanicInfo { message: payload_message(payload.as_ref()), location: None }
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_message_and_location_separately() {
        let err = run_caught(|| panic!("kaboom {}", 7)).expect_err("panics");
        assert_eq!(err.message, "kaboom 7");
        let at = err.location.as_deref().expect("hook sees the location");
        assert!(at.contains("panic_capture.rs"), "got: {at}");
        assert!(err.render().contains(" at "), "got: {}", err.render());
    }

    /// `panic_any` with a non-`&str`/non-`String` payload: nothing can be
    /// downcast, so the message falls back to the placeholder — but the
    /// hook still saw the `panic!` site, so the location survives. (The
    /// untyped-payload path matters to the harness because validated code
    /// is arbitrary: a dependency's `panic_any(ExitCode)` must still
    /// produce a classified, located `Crashed` row.)
    #[test]
    fn non_string_payload_falls_back_but_keeps_location() {
        let err = run_caught(|| std::panic::panic_any(42_i32)).expect_err("panics");
        assert_eq!(err.message, "<non-string panic payload>");
        let at = err.location.as_deref().expect("location flows through the hook");
        assert!(at.contains("panic_capture.rs"), "got: {at}");
        assert_eq!(err.render(), format!("<non-string panic payload> at {at}"));
    }

    #[test]
    fn non_panicking_closures_pass_through() {
        assert_eq!(run_caught(|| 41 + 1), Ok(42));
    }

    #[test]
    fn capture_is_rearmed_per_call() {
        let a = run_caught(|| panic!("first")).expect_err("panics");
        let b = run_caught(|| panic!("second")).expect_err("panics");
        assert_eq!(a.message, "first");
        assert_eq!(b.message, "second");
    }
}
