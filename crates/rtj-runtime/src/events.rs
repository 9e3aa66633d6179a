//! Structured trace events.
//!
//! Once [`Runtime::capture_events`](crate::Runtime::capture_events) has
//! started a trace, the runtime records a typed [`TraceEvent`], as one
//! JSONL line in its own buffer, at every observable transition:
//! region create/enter/exit/flush/delete, object allocation, portal
//! access, thread start/stop, GC, real-time lock waits, and — the point
//! of the exercise — **every dynamic-check site**, tagged with which RTSJ
//! check fired ([`CheckKind`]), whether it was charged, audited, or
//! elided ([`CheckOutcome`]), and its virtual-clock cost.
//!
//! # Zero cost when disabled
//!
//! With no trace started (the default), the emission paths reduce to a
//! single `Option` discriminant test; no event is constructed and no
//! string is formatted. Every run the benchmark in `perfbench/` times
//! untraced takes this path.
//!
//! # Determinism
//!
//! Events carry **virtual** timestamps only ([`TraceEvent::at`] is the
//! clock's cycle count), never wall time, and the cooperative scheduler
//! serializes all runtime transitions — so the event stream for a given
//! program and seed is byte-identical across runs and across `--jobs`
//! settings. The observability test-suite asserts this.

use crate::json::Json;
use crate::metrics::{CheckKind, CheckOutcome};
use crate::value::{ObjId, RegionId, ThreadClass, ThreadId};

fn class_name(c: ThreadClass) -> &'static str {
    match c {
        ThreadClass::Regular => "regular",
        ThreadClass::RealTime => "real_time",
    }
}

/// One observable runtime transition, stamped with virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread began running (including threads already alive when the
    /// trace started).
    ThreadStart {
        /// Virtual time in cycles.
        at: u64,
        /// The thread.
        thread: ThreadId,
        /// Regular or real-time.
        class: ThreadClass,
    },
    /// A thread finished.
    ThreadStop {
        /// Virtual time in cycles.
        at: u64,
        /// The thread.
        thread: ThreadId,
    },
    /// A region (plus `count - 1` nested subregion instances) was created.
    RegionCreate {
        /// Virtual time in cycles.
        at: u64,
        /// The creating thread.
        thread: ThreadId,
        /// The new region.
        region: RegionId,
        /// Region records created (1 + nested subregions).
        count: u64,
    },
    /// A thread entered a region (pushed it on its region stack).
    RegionEnter {
        /// Virtual time in cycles.
        at: u64,
        /// The entering thread.
        thread: ThreadId,
        /// The entered region.
        region: RegionId,
        /// Whether a fresh subregion instance replaced the member.
        fresh: bool,
    },
    /// A thread exited a region.
    RegionExit {
        /// Virtual time in cycles.
        at: u64,
        /// The exiting thread.
        thread: ThreadId,
        /// The exited region.
        region: RegionId,
    },
    /// An empty subregion instance was flushed (objects freed, memory
    /// retained).
    RegionFlush {
        /// Virtual time in cycles.
        at: u64,
        /// The flushed region.
        region: RegionId,
    },
    /// A region was deleted.
    RegionDelete {
        /// Virtual time in cycles.
        at: u64,
        /// The deleted region.
        region: RegionId,
    },
    /// An object was allocated.
    Alloc {
        /// Virtual time in cycles.
        at: u64,
        /// The allocating thread.
        thread: ThreadId,
        /// The region allocated into.
        region: RegionId,
        /// The new object.
        object: ObjId,
        /// The object's class name.
        class: String,
        /// Object size in bytes (header + fields).
        bytes: u64,
        /// Allocation cost charged, in cycles.
        cycles: u64,
    },
    /// A portal field was read.
    PortalRead {
        /// Virtual time in cycles.
        at: u64,
        /// The reading thread.
        thread: ThreadId,
        /// The region whose portal was read.
        region: RegionId,
        /// The portal name.
        name: String,
    },
    /// A portal field was written.
    PortalWrite {
        /// Virtual time in cycles.
        at: u64,
        /// The writing thread.
        thread: ThreadId,
        /// The region whose portal was written.
        region: RegionId,
        /// The portal name.
        name: String,
    },
    /// A dynamic-check site was reached.
    Check {
        /// Virtual time in cycles (after the check's cost, if charged).
        at: u64,
        /// The thread that hit the site.
        thread: ThreadId,
        /// Which RTSJ check.
        kind: CheckKind,
        /// Charged, audited, or elided.
        outcome: CheckOutcome,
        /// Cost charged on the virtual clock.
        cycles: u64,
        /// `false` if the check failed (an error was raised).
        ok: bool,
    },
    /// A garbage collection started.
    Gc {
        /// Virtual time in cycles.
        at: u64,
        /// Pause imposed on regular threads, in cycles.
        pause_cycles: u64,
    },
    /// A real-time thread finished waiting on a region bookkeeping lock
    /// (the priority-inversion window).
    RtLockWait {
        /// Virtual time in cycles.
        at: u64,
        /// Cycles spent waiting.
        cycles: u64,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp.
    pub fn at(&self) -> u64 {
        match self {
            TraceEvent::ThreadStart { at, .. }
            | TraceEvent::ThreadStop { at, .. }
            | TraceEvent::RegionCreate { at, .. }
            | TraceEvent::RegionEnter { at, .. }
            | TraceEvent::RegionExit { at, .. }
            | TraceEvent::RegionFlush { at, .. }
            | TraceEvent::RegionDelete { at, .. }
            | TraceEvent::Alloc { at, .. }
            | TraceEvent::PortalRead { at, .. }
            | TraceEvent::PortalWrite { at, .. }
            | TraceEvent::Check { at, .. }
            | TraceEvent::Gc { at, .. }
            | TraceEvent::RtLockWait { at, .. } => *at,
        }
    }

    /// Stable snake-case tag used as the `ev` field in JSONL.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::ThreadStart { .. } => "thread_start",
            TraceEvent::ThreadStop { .. } => "thread_stop",
            TraceEvent::RegionCreate { .. } => "region_create",
            TraceEvent::RegionEnter { .. } => "region_enter",
            TraceEvent::RegionExit { .. } => "region_exit",
            TraceEvent::RegionFlush { .. } => "region_flush",
            TraceEvent::RegionDelete { .. } => "region_delete",
            TraceEvent::Alloc { .. } => "alloc",
            TraceEvent::PortalRead { .. } => "portal_read",
            TraceEvent::PortalWrite { .. } => "portal_write",
            TraceEvent::Check { .. } => "check",
            TraceEvent::Gc { .. } => "gc",
            TraceEvent::RtLockWait { .. } => "rt_lock_wait",
        }
    }

    /// Serializes the event as a JSON object (`ev` and `at` first, then
    /// the payload, in a stable field order).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ev", Json::Str(self.tag().into())),
            ("at", Json::from(self.at())),
        ];
        match self {
            TraceEvent::ThreadStart { thread, class, .. } => {
                pairs.push(("thread", Json::from(thread.0)));
                pairs.push(("class", Json::Str(class_name(*class).into())));
            }
            TraceEvent::ThreadStop { thread, .. } => {
                pairs.push(("thread", Json::from(thread.0)));
            }
            TraceEvent::RegionCreate {
                thread,
                region,
                count,
                ..
            } => {
                pairs.push(("thread", Json::from(thread.0)));
                pairs.push(("region", Json::from(region.0)));
                pairs.push(("count", Json::from(*count)));
            }
            TraceEvent::RegionEnter {
                thread,
                region,
                fresh,
                ..
            } => {
                pairs.push(("thread", Json::from(thread.0)));
                pairs.push(("region", Json::from(region.0)));
                pairs.push(("fresh", Json::Bool(*fresh)));
            }
            TraceEvent::RegionExit { thread, region, .. } => {
                pairs.push(("thread", Json::from(thread.0)));
                pairs.push(("region", Json::from(region.0)));
            }
            TraceEvent::RegionFlush { region, .. } | TraceEvent::RegionDelete { region, .. } => {
                pairs.push(("region", Json::from(region.0)));
            }
            TraceEvent::Alloc {
                thread,
                region,
                object,
                class,
                bytes,
                cycles,
                ..
            } => {
                pairs.push(("thread", Json::from(thread.0)));
                pairs.push(("region", Json::from(region.0)));
                pairs.push(("object", Json::from(object.0)));
                pairs.push(("class", Json::Str(class.clone())));
                pairs.push(("bytes", Json::from(*bytes)));
                pairs.push(("cycles", Json::from(*cycles)));
            }
            TraceEvent::PortalRead {
                thread,
                region,
                name,
                ..
            }
            | TraceEvent::PortalWrite {
                thread,
                region,
                name,
                ..
            } => {
                pairs.push(("thread", Json::from(thread.0)));
                pairs.push(("region", Json::from(region.0)));
                pairs.push(("name", Json::Str(name.clone())));
            }
            TraceEvent::Check {
                thread,
                kind,
                outcome,
                cycles,
                ok,
                ..
            } => {
                pairs.push(("thread", Json::from(thread.0)));
                pairs.push(("kind", Json::Str(kind.name().into())));
                pairs.push(("outcome", Json::Str(outcome.name().into())));
                pairs.push(("cycles", Json::from(*cycles)));
                pairs.push(("ok", Json::Bool(*ok)));
            }
            TraceEvent::Gc { pause_cycles, .. } => {
                pairs.push(("pause_cycles", Json::from(*pause_cycles)));
            }
            TraceEvent::RtLockWait { cycles, .. } => {
                pairs.push(("cycles", Json::from(*cycles)));
            }
        }
        Json::obj(pairs)
    }

    /// Serializes the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent::Check {
            at,
            thread: ThreadId(1),
            kind: CheckKind::Assignment,
            outcome: CheckOutcome::Charged,
            cycles: 42,
            ok: true,
        }
    }

    #[test]
    fn check_event_jsonl_shape() {
        let line = ev(120).to_jsonl();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("check"));
        assert_eq!(v.get("at").and_then(Json::as_u64), Some(120));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("assignment"));
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("charged"));
        assert_eq!(v.get("cycles").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn every_event_renders_valid_json_with_tag_and_time() {
        let events = vec![
            TraceEvent::ThreadStart {
                at: 0,
                thread: ThreadId(0),
                class: ThreadClass::Regular,
            },
            TraceEvent::ThreadStop {
                at: 1,
                thread: ThreadId(0),
            },
            TraceEvent::RegionCreate {
                at: 2,
                thread: ThreadId(0),
                region: RegionId(2),
                count: 2,
            },
            TraceEvent::RegionEnter {
                at: 3,
                thread: ThreadId(0),
                region: RegionId(2),
                fresh: true,
            },
            TraceEvent::RegionExit {
                at: 4,
                thread: ThreadId(0),
                region: RegionId(2),
            },
            TraceEvent::RegionFlush {
                at: 5,
                region: RegionId(3),
            },
            TraceEvent::RegionDelete {
                at: 6,
                region: RegionId(2),
            },
            TraceEvent::Alloc {
                at: 7,
                thread: ThreadId(0),
                region: RegionId(2),
                object: ObjId(5),
                class: "Frame".into(),
                bytes: 24,
                cycles: 34,
            },
            TraceEvent::PortalRead {
                at: 8,
                thread: ThreadId(1),
                region: RegionId(3),
                name: "f".into(),
            },
            TraceEvent::PortalWrite {
                at: 9,
                thread: ThreadId(1),
                region: RegionId(3),
                name: "f".into(),
            },
            ev(10),
            TraceEvent::Gc {
                at: 11,
                pause_cycles: 50_000,
            },
            TraceEvent::RtLockWait { at: 12, cycles: 7 },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.at(), i as u64);
            let v = Json::parse(&e.to_jsonl())
                .unwrap_or_else(|err| panic!("event {} renders invalid JSON: {err}", e.tag()));
            assert_eq!(v.get("ev").and_then(Json::as_str), Some(e.tag()));
            assert_eq!(v.get("at").and_then(Json::as_u64), Some(e.at()));
        }
    }
}
