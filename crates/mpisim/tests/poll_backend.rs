//! Poll-backend guard rails: the cooperative scheduler runs only async
//! rank bodies (`Universe::run_poll`), so the synchronous entry point must
//! reject `Backend::Poll` loudly instead of wedging a worker thread.

use mpisim::{Backend, SimConfig, Universe};

#[test]
fn sync_run_rejects_poll_backend() {
    let err = std::panic::catch_unwind(|| {
        Universe::run(
            2,
            SimConfig::cooperative().with_backend(Backend::Poll),
            |_env| 0u64,
        )
    })
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("run_poll"),
        "panic should point at run_poll: {msg}"
    );
}
