//! The owner tears the runtime down; a pool worker never does.
//!
//! An incremental runtime installs an idle hook that lets pool workers drain an
//! open collection window. If that hook could keep the runtime's shared state
//! alive past the handle's drop, the worker running it would end up dropping
//! the pool from inside the pool — joining its own thread, which panics
//! ("failed to join thread: Resource deadlock avoided") and leaves the other
//! workers unjoined. The runtime handle now owns the pool and drops it first,
//! so every worker is joined on the owner's thread.
//!
//! This is its own test binary because it watches every panic in the process:
//! a panic hook shared with other tests would count theirs too.

use hh_api::{ParCtx, Runtime};
use hh_runtime::{HhConfig, HhRuntime};
use std::sync::{Arc, Mutex};

/// Builds, runs once and drops 120 one-worker incremental runtimes; any panic,
/// on any thread, fails the test.
#[test]
fn dropping_incremental_runtimes_never_panics_a_worker() {
    let panics: Arc<Mutex<Vec<String>>> = Arc::default();
    {
        let panics = Arc::clone(&panics);
        std::panic::set_hook(Box::new(move |info| {
            let thread = std::thread::current().name().unwrap_or("?").to_owned();
            panics.lock().unwrap().push(format!("{thread}: {info}"));
        }));
    }
    for i in 0..120u64 {
        let rt = HhRuntime::new(HhConfig::incremental(1));
        let v = rt.run(|ctx| {
            let o = ctx.alloc_ref_data(i);
            ctx.read_mut(o, 0)
        });
        assert_eq!(v, i);
        drop(rt);
    }
    let _ = std::panic::take_hook();
    let panics = panics.lock().unwrap();
    assert!(
        panics.is_empty(),
        "{} panic(s): {:#?}",
        panics.len(),
        *panics
    );
}
