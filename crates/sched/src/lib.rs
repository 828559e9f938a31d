//! # mms-sched — cycle-based scheduling substrate
//!
//! Implements the scheduling disciplines of *Berson, Golubchik & Muntz
//! (SIGMOD 1995)* on top of the layout, parity, and buffer substrates:
//!
//! | Scheduler | Paper section | `k` | `k'` | Normal-mode parity reads |
//! |---|---|---|---|---|
//! | [`GroupedScheduler`] as Streaming RAID | §2 (Tobagi et al.'s Streaming RAID) | `C−1` | `C−1` | yes, every cycle |
//! | [`GroupedScheduler`] as Staggered-group | §2 (Staggered-group) | `C−1` | `1` | yes, at each read cycle |
//! | [`NonClusteredScheduler`] | §3 | `1` | `1` | no (degraded mode only) |
//! | [`ImprovedScheduler`] | §4 | `C−1` | `C−1` | no (parity on next cluster) |
//!
//! Streaming RAID and Staggered-group are the endpoints of one cycle
//! model (Figure 2), so one scheduler implements both and every
//! `k′ | C−1` between them (the GSS-style continuum of the paper's
//! reference \[3\]); the scheme it is built as decides only when a
//! group's parity buffer is released. [`BaselineScheduler`] is the
//! unprotected striped server of Section 1 — no parity at all — the
//! quantitative foil ("without some form of fault tolerance, such a
//! system is not likely to be acceptable").
//!
//! All four share the cycle model of Section 2: during each time period
//! data for each active stream is read into memory while the data read in
//! the previous cycle is transmitted; reads within a cycle are unordered so
//! one maximum seek bounds the cycle's disk time (`T(r) = τ_seek +
//! r·τ_trk`), which yields the per-disk, per-cycle **slot** capacity used
//! for admission control.
//!
//! They also share one stream book (`streams.rs`): a stream reads a group
//! every `period` cycles, so its admission class (read phase × cluster
//! trajectory), the stream capacity (Eqs. 8/9), the cut point of an early
//! release, the event-horizon stability window and fast-forward are the
//! same functions of the period, `N_C` and the slots per class for every
//! scheme. The book owns the catalog, the streams and those rules; each
//! scheduler keeps only its own per-stream planning state and failure
//! handling. Grouped and Improved-bandwidth streams hold their class
//! slot until they finish; Non-clustered and baseline streams return it
//! with their last read.
//!
//! Each scheduler exposes the same [`SchemeScheduler`] interface: admit
//! streams, plan one cycle's reads/deliveries, and react to disk failures
//! and repairs. Failure reactions implement the paper's mechanisms
//! exactly — Streaming RAID and Staggered-group mask failures with the
//! already-read parity; the Non-clustered scheduler performs the Figure 6
//! *simple* or Figure 7 *delayed* transition to degraded mode (losing the
//! exact track sets shown in those figures); the Improved-bandwidth
//! scheduler performs Section 4's cascading "shift to the right".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod cycle;
mod grouped;
mod improved;
mod nonclustered;
mod plan;
mod streams;
mod traits;

pub use baseline::BaselineScheduler;
pub use cycle::CycleConfig;
pub use grouped::GroupedScheduler;
pub use improved::ImprovedScheduler;
pub use nonclustered::{NonClusteredScheduler, TransitionPolicy};
pub use plan::{CyclePlan, Delivery, LossReason, LostBlock, PlannedRead, ReadPurpose};
pub use streams::{StreamId, StreamInfo};
pub use traits::{
    emit_mode_transition, AdmissionError, FailureReport, PlanStability, RetireError, SchemeKind,
    SchemeScheduler,
};
