//! Shared machinery for the benchmark harnesses that regenerate every
//! table and figure of the paper's evaluation (§V).
//!
//! | Artifact | Harness | What it reports |
//! |---|---|---|
//! | Fig 6(a) | `cargo run -p sg-bench --release --bin fig6` (+ `cargo bench -p sg-bench --bench fig6a_tracking`) | per-service descriptor-tracking overhead, SuperGlue vs C³ |
//! | Fig 6(b) | same binary (+ `--bench fig6b_recovery`) | per-descriptor recovery overhead |
//! | Fig 6(c) | same binary | LOC: SuperGlue IDL vs generated vs hand-written C³ |
//! | Table II | `cargo run -p sg-bench --release --bin table2` | the SWIFI campaign |
//! | Fig 7 | `cargo run -p sg-bench --release --bin fig7` | web-server throughput, 4 systems ± faults |
//! | Ablations | `cargo run -p sg-bench --release --bin ablations` | design-choice deltas (DESIGN.md §5) |

pub mod modelck;
pub mod stat;

use composite::{ComponentId, InterfaceCall as _, Priority, ThreadId, Value};
use sg_c3::FtRuntime;
use superglue::testbed::{Testbed, Variant};

/// The hand-written C³ stub sources, embedded so Fig 6(c) counts the
/// exact committed code.
pub const C3_STUB_SOURCES: [(&str, &str); 6] = [
    ("sched", include_str!("../../c3/src/stubs/sched.rs")),
    ("mm", include_str!("../../c3/src/stubs/mm.rs")),
    ("fs", include_str!("../../c3/src/stubs/fs.rs")),
    ("lock", include_str!("../../c3/src/stubs/lock.rs")),
    ("evt", include_str!("../../c3/src/stubs/evt.rs")),
    ("tmr", include_str!("../../c3/src/stubs/tmr.rs")),
];

/// Count the non-test, non-comment lines of a hand-written stub source
/// (everything above the `#[cfg(test)]` marker).
#[must_use]
pub fn handwritten_loc(source: &str) -> usize {
    let body = source.split("#[cfg(test)]").next().unwrap_or(source);
    superglue_compiler::count_loc(body)
}

/// A per-service micro-rig: a built system plus one worker thread.
#[derive(Debug)]
pub struct Rig {
    /// The system under test.
    pub tb: Testbed,
    /// A runnable worker thread in `app1`.
    pub thread: ThreadId,
    /// A second worker (cross-component cases).
    pub thread2: ThreadId,
}

/// Build a rig for a protection variant.
///
/// # Panics
///
/// Panics if the shipped IDL fails to compile (covered by tests).
#[must_use]
pub fn rig(variant: Variant) -> Rig {
    rig_elided(variant, false)
}

/// [`rig`] with certified tracking elision toggled (the `--elide`
/// fast-path stubs; no-op for non-SuperGlue variants).
///
/// # Panics
///
/// Panics if the shipped IDL fails to compile or an `sm_elide` request
/// cannot be proven (covered by tests).
#[must_use]
pub fn rig_elided(variant: Variant, elide: bool) -> Rig {
    let mut tb = Testbed::build_elided(variant, elide).expect("testbed builds");
    let thread = tb.spawn_thread(tb.ids.app1, Priority(5));
    let thread2 = tb.spawn_thread(tb.ids.app2, Priority(5));
    Rig {
        tb,
        thread,
        thread2,
    }
}

impl Rig {
    /// The target component for a paper row label.
    #[must_use]
    pub fn component_of(&self, iface: &str) -> ComponentId {
        match iface {
            "sched" => self.tb.ids.sched,
            "mm" => self.tb.ids.mm,
            "fs" => self.tb.ids.fs,
            "lock" => self.tb.ids.lock,
            "evt" => self.tb.ids.evt,
            "tmr" => self.tb.ids.tmr,
            other => panic!("unknown interface {other:?}"),
        }
    }

    /// Run one non-blocking iteration of the §V-B micro-workload for a
    /// service, returning the number of interface calls made. Used by
    /// the Fig 6(a) tracking-overhead measurements (real wall-clock
    /// timing wraps this).
    ///
    /// # Panics
    ///
    /// Panics when the system under test rejects the workload (covered
    /// by tests for every variant).
    pub fn run_iteration(&mut self, iface: &str, seq: u64) -> u32 {
        let rt: &mut FtRuntime = &mut self.tb.runtime;
        let app = self.tb.ids.app1;
        let t = self.thread;
        let compid = Value::from(app.0);
        match iface {
            "sched" => {
                let svc = self.tb.ids.sched;
                let d = Value::from(t.0);
                rt.interface_call(app, t, svc, "sched_setup", &[compid.clone(), d.clone()])
                    .expect("setup");
                rt.interface_call(app, t, svc, "sched_wakeup", &[compid.clone(), d.clone()])
                    .expect("wakeup");
                // The pending wakeup makes this blk non-blocking.
                rt.interface_call(app, t, svc, "sched_blk", &[compid.clone(), d.clone()])
                    .expect("blk");
                rt.interface_call(app, t, svc, "sched_exit", &[compid, d])
                    .expect("exit");
                4
            }
            "lock" => {
                let svc = self.tb.ids.lock;
                let id = rt
                    .interface_call(app, t, svc, "lock_alloc", std::slice::from_ref(&compid))
                    .expect("alloc")
                    .int()
                    .expect("id");
                rt.interface_call(app, t, svc, "lock_take", &[compid.clone(), Value::Int(id)])
                    .expect("take");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "lock_release",
                    &[compid.clone(), Value::Int(id)],
                )
                .expect("release");
                rt.interface_call(app, t, svc, "lock_free", &[compid, Value::Int(id)])
                    .expect("free");
                4
            }
            "evt" => {
                let svc = self.tb.ids.evt;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "evt_split",
                        &[compid.clone(), Value::Int(0), Value::Int(1)],
                    )
                    .expect("split")
                    .int()
                    .expect("id");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "evt_trigger",
                    &[compid.clone(), Value::Int(id)],
                )
                .expect("trigger");
                // Pending trigger: the wait returns immediately.
                rt.interface_call(app, t, svc, "evt_wait", &[compid.clone(), Value::Int(id)])
                    .expect("wait");
                rt.interface_call(app, t, svc, "evt_free", &[compid, Value::Int(id)])
                    .expect("free");
                4
            }
            "tmr" => {
                let svc = self.tb.ids.tmr;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tmr_create",
                        &[compid.clone(), Value::Int(1_000_000)],
                    )
                    .expect("create")
                    .int()
                    .expect("id");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "tmr_period",
                    &[compid.clone(), Value::Int(id), Value::Int(2_000_000)],
                )
                .expect("period");
                rt.interface_call(app, t, svc, "tmr_free", &[compid, Value::Int(id)])
                    .expect("free");
                3
            }
            "mm" => {
                let svc = self.tb.ids.mm;
                let vaddr = 0x1000 + (seq % 512) * 0x1000;
                let root = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "mman_get_page",
                        &[compid.clone(), Value::Int(vaddr as i64)],
                    )
                    .expect("get")
                    .int()
                    .expect("key");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "mman_alias_page",
                    &[
                        compid.clone(),
                        Value::Int(root),
                        Value::from(self.tb.ids.app2.0),
                        Value::Int(0x8_0000_0000u64 as i64 + vaddr as i64),
                    ],
                )
                .expect("alias");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "mman_release_page",
                    &[compid, Value::Int(root)],
                )
                .expect("release");
                3
            }
            "fs" => {
                let svc = self.tb.ids.fs;
                let path = format!("bench-{}.dat", seq % 8);
                let fd = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tsplit",
                        &[compid.clone(), Value::Int(0), Value::from(path.as_str())],
                    )
                    .expect("split")
                    .int()
                    .expect("fd");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "twrite",
                    &[compid.clone(), Value::Int(fd), Value::from(vec![0x42])],
                )
                .expect("write");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "tseek",
                    &[compid.clone(), Value::Int(fd), Value::Int(0)],
                )
                .expect("seek");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "tread",
                    &[compid.clone(), Value::Int(fd), Value::Int(1)],
                )
                .expect("read");
                rt.interface_call(app, t, svc, "trelease", &[compid, Value::Int(fd)])
                    .expect("release");
                5
            }
            other => panic!("unknown interface {other:?}"),
        }
    }

    /// Create one descriptor in a recoverable state and return the call
    /// that triggers on-demand recovery: (client, thread, component,
    /// function, args). For the event manager the recovering caller is
    /// the *foreign* client, so the measured path includes the G0
    /// storage lookup and the U0 upcall into the creator's edge — the
    /// reason Fig 6(b) shows events as the most expensive descriptors.
    ///
    /// # Panics
    ///
    /// Panics when setup calls fail.
    pub fn setup_recovery_victim(
        &mut self,
        iface: &str,
    ) -> (ComponentId, ThreadId, ComponentId, &'static str, Vec<Value>) {
        let rt = &mut self.tb.runtime;
        let app = self.tb.ids.app1;
        let t = self.thread;
        let compid = Value::from(app.0);
        match iface {
            "sched" => {
                let svc = self.tb.ids.sched;
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "sched_setup",
                    &[compid.clone(), Value::from(t.0)],
                )
                .expect("setup");
                (app, t, svc, "sched_wakeup", vec![compid, Value::from(t.0)])
            }
            "lock" => {
                let svc = self.tb.ids.lock;
                let id = rt
                    .interface_call(app, t, svc, "lock_alloc", std::slice::from_ref(&compid))
                    .expect("alloc")
                    .int()
                    .expect("id");
                rt.interface_call(app, t, svc, "lock_take", &[compid.clone(), Value::Int(id)])
                    .expect("take");
                // lock_take is idempotent for the owner, so the victim
                // call is repeatable across fault/recover cycles.
                (app, t, svc, "lock_take", vec![compid, Value::Int(id)])
            }
            "evt" => {
                let svc = self.tb.ids.evt;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "evt_split",
                        &[compid.clone(), Value::Int(0), Value::Int(1)],
                    )
                    .expect("split")
                    .int()
                    .expect("id");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "evt_trigger",
                    &[compid.clone(), Value::Int(id)],
                )
                .expect("trigger");
                // Recover from the foreign client: G0 lookup + U0 upcall.
                let app2 = self.tb.ids.app2;
                (
                    app2,
                    self.thread2,
                    svc,
                    "evt_trigger",
                    vec![Value::from(app2.0), Value::Int(id)],
                )
            }
            "tmr" => {
                let svc = self.tb.ids.tmr;
                let id = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tmr_create",
                        &[compid.clone(), Value::Int(1_000_000)],
                    )
                    .expect("create")
                    .int()
                    .expect("id");
                (
                    app,
                    t,
                    svc,
                    "tmr_period",
                    vec![compid, Value::Int(id), Value::Int(1_000_000)],
                )
            }
            "mm" => {
                let svc = self.tb.ids.mm;
                let root = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "mman_get_page",
                        &[compid.clone(), Value::Int(0x4000)],
                    )
                    .expect("get")
                    .int()
                    .expect("key");
                // Re-aliasing the same destination is idempotent, and the
                // call exercises the D1 parent-first recovery of the root
                // mapping on every cycle.
                (
                    app,
                    t,
                    svc,
                    "mman_alias_page",
                    vec![
                        compid,
                        Value::Int(root),
                        Value::from(self.tb.ids.app2.0),
                        Value::Int(0x9000),
                    ],
                )
            }
            "fs" => {
                let svc = self.tb.ids.fs;
                let fd = rt
                    .interface_call(
                        app,
                        t,
                        svc,
                        "tsplit",
                        &[compid.clone(), Value::Int(0), Value::from("victim.dat")],
                    )
                    .expect("split")
                    .int()
                    .expect("fd");
                rt.interface_call(
                    app,
                    t,
                    svc,
                    "twrite",
                    &[compid.clone(), Value::Int(fd), Value::from(vec![1, 2, 3])],
                )
                .expect("write");
                (
                    app,
                    t,
                    svc,
                    "tseek",
                    vec![compid, Value::Int(fd), Value::Int(0)],
                )
            }
            other => panic!("unknown interface {other:?}"),
        }
    }
}

/// The six services in the paper's presentation order.
pub const SERVICES: [&str; 6] = ["sched", "mm", "fs", "lock", "evt", "tmr"];

/// Write flight-recorder shards to `path` as the JSON-lines format
/// `sgtrace` consumes, plus a Chrome `trace_event` rendering at
/// `path.chrome.json` (load in Perfetto / `chrome://tracing`). Both are
/// streamed to disk event by event, never held whole in memory.
///
/// # Errors
///
/// The first error creating or writing either file; an error on the
/// Chrome file names that file.
pub fn write_trace(path: &str, shards: &[composite::TraceShard]) -> std::io::Result<()> {
    use std::io::{BufWriter, Write as _};
    type Out = BufWriter<std::fs::File>;
    fn stream(
        path: &str,
        render: impl FnOnce(&mut Out) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        render(&mut out)?;
        out.flush()
    }
    stream(path, |w| composite::write_jsonl(shards, w))?;
    let chrome = format!("{path}.chrome.json");
    stream(&chrome, |w| composite::write_chrome(shards, w))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{chrome}: {e}")))?;
    println!("trace written to {path} (+ {chrome} for Perfetto)");
    Ok(())
}

/// The toolchain identifier recorded in `--bench-json` dumps.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Render windowed-telemetry sections as the `--series` JSON-lines
/// format `sgstat` consumes: one header line carrying the window width,
/// then each section's rows under its context label. Deterministic for
/// deterministic inputs — sections in caller order, rows in snapshot
/// (component, window) order.
#[must_use]
pub fn series_to_jsonl(
    window_ns: u64,
    sections: &[(String, &composite::SeriesSnapshot)],
) -> String {
    let mut out = composite::series_header(window_ns);
    for (context, snapshot) in sections {
        out.push_str(&snapshot.to_json_lines(context));
    }
    out
}

/// Write windowed-telemetry sections to `path` via [`series_to_jsonl`].
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_series(path: &str, window_ns: u64, sections: &[(String, &composite::SeriesSnapshot)]) {
    std::fs::write(path, series_to_jsonl(window_ns, sections)).expect("write series");
    println!("series written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_run_under_all_variants() {
        for variant in [Variant::Bare, Variant::C3, Variant::SuperGlue] {
            let mut r = rig(variant);
            for iface in SERVICES {
                for seq in 0..3 {
                    r.run_iteration(iface, seq);
                }
            }
        }
    }

    #[test]
    fn recovery_victims_recover_under_both_ft_variants() {
        for variant in [Variant::C3, Variant::SuperGlue] {
            for iface in SERVICES {
                let mut r = rig(variant);
                let (client, thread, svc, fname, args) = r.setup_recovery_victim(iface);
                r.tb.runtime.inject_fault(svc);
                r.tb.runtime
                    .interface_call(client, thread, svc, fname, &args)
                    .unwrap_or_else(|e| panic!("{variant:?}/{iface}: {e}"));
                assert!(
                    r.tb.runtime.stats().faults_handled >= 1,
                    "{variant:?}/{iface}"
                );
            }
        }
    }

    #[test]
    fn handwritten_loc_counts_code_not_tests() {
        for (iface, src) in C3_STUB_SOURCES {
            let loc = handwritten_loc(src);
            assert!(loc > 50, "{iface}: {loc}");
            assert!(
                loc < superglue_compiler::count_loc(src),
                "{iface}: tests excluded"
            );
        }
    }
}
