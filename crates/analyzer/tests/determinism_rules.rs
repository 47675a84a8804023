//! Canaries for the determinism bans in the workspace's `clippy.toml`.
//!
//! Each function uses exactly one banned path, under an `#[expect]` of
//! the lint that ban raises. `ci.sh` runs clippy on every target with
//! `-D warnings`, so a ban that is dropped from `clippy.toml`, or whose
//! path stops resolving to the item, leaves its expectation unfulfilled
//! and fails that step. The `rand::thread_rng` ban has no canary: the
//! workspace has no `rand` crate, so its path cannot resolve.
//!
//! The functions run as ordinary tests; the check itself is clippy's.
//! `static mut` has no canary: `-F unsafe-code` rejects every access to
//! one, and under `forbid` an `#[expect(unsafe_code)]` is itself an
//! error.

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn hash_map() {
    assert!(std::collections::HashMap::<u8, u8>::new().is_empty());
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn hash_set() {
    assert!(std::collections::HashSet::<u8>::new().is_empty());
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn random_state() {
    let _ = std::hash::RandomState::new();
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn default_hasher() {
    let _ = std::hash::DefaultHasher::new();
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn instant() {
    let _ = std::time::Instant::now();
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn system_time() {
    let _ = std::time::SystemTime::now();
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn cell() {
    assert_eq!(std::cell::Cell::new(1u8).get(), 1);
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn ref_cell() {
    assert_eq!(std::cell::RefCell::new(1u8).into_inner(), 1);
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn unsafe_cell() {
    assert_eq!(std::cell::UnsafeCell::new(1u8).into_inner(), 1);
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn mpsc_sender() {
    let tx: Option<std::sync::mpsc::Sender<u8>> = None;
    assert!(tx.is_none());
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn mpsc_sync_sender() {
    let tx: Option<std::sync::mpsc::SyncSender<u8>> = None;
    assert!(tx.is_none());
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn mpsc_receiver() {
    let rx: Option<std::sync::mpsc::Receiver<u8>> = None;
    assert!(rx.is_none());
}

/// `let (tx, rx) = channel()` names no type, so the channel
/// constructors need bans of their own.
#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn mpsc_channel() {
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(1u8).unwrap();
    assert_eq!(rx.recv(), Ok(1));
}

#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn mpsc_sync_channel() {
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    tx.send(1u8).unwrap();
    assert_eq!(rx.recv(), Ok(1));
}

#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn thread_spawn() {
    assert_eq!(std::thread::spawn(|| 1u8).join().unwrap(), 1);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn thread_scope() {
    assert_eq!(std::thread::scope(thread_builder_spawn_scoped), 1);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn thread_builder_spawn() {
    let handle = std::thread::Builder::new().spawn(|| 1u8).unwrap();
    assert_eq!(handle.join().unwrap(), 1);
}

/// Takes the scope from [`thread_scope`], so that this function's
/// expectation rests on the `spawn_scoped` ban alone.
#[expect(clippy::disallowed_methods, reason = "canary")]
fn thread_builder_spawn_scoped<'scope>(s: &'scope std::thread::Scope<'scope, '_>) -> u8 {
    let handle = std::thread::Builder::new().spawn_scoped(s, || 1u8).unwrap();
    handle.join().unwrap()
}
