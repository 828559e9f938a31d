//! Scenario execution: run declarative fault-injection scripts
//! ([`mms_sim::scenario`]) against full servers, for any scheme.
//!
//! * [`ScenarioTopology`] — the server shape a scenario runs on (disks,
//!   parity-group size, object set, per-scheme knobs).
//! * [`ScenarioCase`] — a [`Scenario`] bound to a topology and the
//!   schemes it applies to.
//! * [`ScenarioRunner`] — executes a case for one scheme, or fans out
//!   over all of its schemes on the `mms-exec` worker pool; either way
//!   the reports are bit-identical at every thread count.
//! * [`corpus`] — the named scenario corpus behind
//!   `mms-ctl scenario <name|all>`: the paper's failure drills as
//!   checked, repeatable scripts.
//!
//! ```
//! use mms_server::scenario::{corpus, ScenarioRunner};
//! use mms_server::Parallelism;
//!
//! let case = corpus(true).into_iter().find(|c| c.scenario.name == "single-fault").unwrap();
//! let reports = ScenarioRunner::new(Parallelism::Sequential).run_case(&case);
//! assert!(reports.iter().all(|r| r.passed()));
//! ```

use crate::builder::ServerBuilder;
use crate::error::ServerError;
use crate::server::MultimediaServer;
use mms_disk::{DiskId, ReliabilityParams, Time};
use mms_exec::{par_map_indexed_min, Parallelism, SeedSequence};
use mms_layout::{BandwidthClass, MediaObject, ObjectId};
use mms_sched::{SchemeKind, TransitionPolicy};
use mms_sim::scenario::{
    degraded_cycles, transitions_from_events, Check, DataLossRecord, Expectation, Horizon,
    Scenario, ScenarioEvent, ScenarioReport, StochasticFaults,
};
use mms_sim::{DataMode, FailureEvent, FailureSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The object catalog a scenario topology registers.
#[derive(Debug, Clone)]
pub enum ObjectSet {
    /// Movies by `(name, minutes, class)`, as [`ServerBuilder::movie`].
    Movies(Vec<(String, f64, BandwidthClass)>),
    /// The Figures 5–7 corpus: eight 4-track objects (one parity group
    /// each) at 1 MB/s, so one cluster of five disks runs exactly one
    /// read slot per disk per cycle.
    FigureCorpus,
}

/// The server shape a scenario runs against.
#[derive(Debug, Clone)]
pub struct ScenarioTopology {
    /// Disks for the clustered schemes (SR/SG/NC; a multiple of `c`).
    pub disks: usize,
    /// Disks for Improved-bandwidth (a multiple of `c − 1`).
    pub ib_disks: usize,
    /// Parity-group size `C`.
    pub c: usize,
    /// Registered objects.
    pub objects: ObjectSet,
    /// Non-clustered transition policy.
    pub nc_policy: TransitionPolicy,
    /// Non-clustered buffer servers (`K_NC`).
    pub nc_buffer_servers: usize,
    /// Improved-bandwidth reserved slots per disk.
    pub ib_reserved_slots: usize,
    /// Improved-bandwidth adaptive parity prefetch.
    pub ib_parity_prefetch: bool,
    /// Synthetic track payload bytes (verified end to end).
    pub track_bytes: usize,
}

impl ScenarioTopology {
    /// The standard drill topology: 10 disks (8 for IB), `C = 5`, a
    /// 1-minute feature and a 0.3-minute short (MPEG-1), verified
    /// 128-byte tracks.
    #[must_use]
    pub fn standard() -> Self {
        ScenarioTopology {
            disks: 10,
            ib_disks: 8,
            c: 5,
            objects: ObjectSet::Movies(vec![
                ("feature".to_string(), 1.0, BandwidthClass::Mpeg1),
                ("short".to_string(), 0.3, BandwidthClass::Mpeg1),
            ]),
            nc_policy: TransitionPolicy::Delayed,
            nc_buffer_servers: 3,
            ib_reserved_slots: 1,
            ib_parity_prefetch: false,
            track_bytes: 128,
        }
    }

    /// The Figures 6/7 topology: one cluster of five disks, one read
    /// slot per disk per cycle, one buffer server, and the figures'
    /// eight single-group objects.
    #[must_use]
    pub fn figure(policy: TransitionPolicy) -> Self {
        ScenarioTopology {
            disks: 5,
            ib_disks: 8,
            c: 5,
            objects: ObjectSet::FigureCorpus,
            nc_policy: policy,
            nc_buffer_servers: 1,
            ib_reserved_slots: 1,
            ib_parity_prefetch: false,
            track_bytes: 128,
        }
    }

    /// Build a server of this shape for `scheme`.
    pub fn build(&self, scheme: SchemeKind) -> Result<MultimediaServer, ServerError> {
        let disks = if scheme == SchemeKind::ImprovedBandwidth {
            self.ib_disks
        } else {
            self.disks
        };
        let mut b = ServerBuilder::new(scheme)
            .disks(disks)
            .parity_group(self.c)
            .transition_policy(self.nc_policy)
            .buffer_servers(self.nc_buffer_servers)
            .reserved_slots(self.ib_reserved_slots)
            .parity_prefetch(self.ib_parity_prefetch)
            .data_mode(DataMode::Verified {
                track_bytes: self.track_bytes,
            })
            .parallelism(Parallelism::Sequential);
        match &self.objects {
            ObjectSet::Movies(movies) => {
                for (name, minutes, class) in movies {
                    b = b.movie(name.clone(), *minutes, *class);
                }
            }
            ObjectSet::FigureCorpus => {
                for oid in 0..8u64 {
                    b = b.object(MediaObject::new(
                        ObjectId(oid),
                        format!("obj{oid}"),
                        4,
                        BandwidthClass::Custom(mms_disk::Bandwidth::from_megabytes(1.0)),
                    ));
                }
            }
        }
        Ok(b.build()?)
    }
}

/// A scenario bound to its topology and the schemes it applies to.
#[derive(Debug, Clone)]
pub struct ScenarioCase {
    /// The script and its invariants.
    pub scenario: Scenario,
    /// The server shape.
    pub topology: ScenarioTopology,
    /// Schemes the scenario is defined for.
    pub schemes: Vec<SchemeKind>,
}

/// Executes [`ScenarioCase`]s deterministically.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner {
    parallelism: Parallelism,
    fast_forward: bool,
}

impl ScenarioRunner {
    /// A runner fanning scheme runs out over `parallelism` workers.
    #[must_use]
    pub fn new(parallelism: Parallelism) -> Self {
        ScenarioRunner {
            parallelism,
            fast_forward: false,
        }
    }

    /// Fast-forward quiescent stretches between scripted events with
    /// [`mms_sim::Simulator::advance_quiescent`]. Reports are observably
    /// identical to per-cycle execution — the event-horizon equivalence
    /// suite pins this — the run is just faster.
    #[must_use]
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Run `case` for every scheme it names, in scheme order. Reports
    /// are bit-identical for every [`Parallelism`] setting.
    #[must_use]
    pub fn run_case(&self, case: &ScenarioCase) -> Vec<ScenarioReport> {
        par_map_indexed_min(self.parallelism, case.schemes.len(), 2, |i| {
            self.run(case, case.schemes[i])
        })
    }

    /// Run `case` for one scheme. Unexpected execution errors (a script
    /// naming a bad object, a simulation failure) are reported as
    /// violations rather than panics, so a corpus sweep always yields a
    /// full set of reports.
    #[must_use]
    pub fn run(&self, case: &ScenarioCase, scheme: SchemeKind) -> ScenarioReport {
        let scenario = &case.scenario;
        let mut report = ScenarioReport::new(scenario.name, scheme);
        let mut server = match case.topology.build(scheme) {
            Ok(s) => s,
            Err(e) => {
                report.violations.push(format!("build failed: {e}"));
                return report;
            }
        };

        // Expand the stochastic overlay deterministically: the master
        // seed is split per scheme (SplitMix64), so each scheme sees
        // its own reproducible fault process regardless of thread
        // count or which other schemes run.
        if let Some(st) = scenario.stochastic {
            let scheme_index = SchemeKind::ALL
                .iter()
                .position(|&s| s == scheme)
                .expect("scheme in ALL") as u64;
            let mut rng =
                StdRng::seed_from_u64(SeedSequence::new(scenario.seed).seed(scheme_index));
            let t_cyc = server.cycle_config().t_cyc();
            let rel = ReliabilityParams {
                mttf: ReliabilityParams::paper().mttf,
                mttr: Time::from_secs(t_cyc.as_secs() * st.mttr_cycles as f64),
            };
            let schedule = FailureSchedule::stochastic(
                &mut rng,
                server.simulator().disks().len(),
                rel,
                t_cyc,
                st.horizon_cycles,
                st.acceleration,
            );
            server.simulator_mut().set_failures(schedule);
        }

        let mut events = scenario.events.clone();
        events.sort_by_key(ScenarioEvent::cycle);
        let objects = server.objects().to_vec();

        // The internal recorder needs Info to harvest mode transitions;
        // if an ambient collector wants more (e.g. Debug cycle spans for
        // a flight recording), match it so nothing is lost in transit.
        let level = mms_telemetry::current_max_level().map_or(mms_telemetry::Level::Info, |l| {
            l.max(mms_telemetry::Level::Info)
        });
        let recorder = mms_telemetry::Recorder::new(level);
        let guard = recorder.install();
        let max_cycles = scenario.horizon.max_cycles();
        let mut ev_ix = 0;
        let mut rebuild_started_at: Option<u64> = None;
        let mut last_rebuild_done: Option<u64> = None;
        loop {
            let now = server.cycle();
            while ev_ix < events.len() && events[ev_ix].cycle() <= now {
                self.dispatch(&events[ev_ix], &mut server, &objects, &mut report);
                if matches!(
                    events[ev_ix],
                    ScenarioEvent::RebuildParity { .. } | ScenarioEvent::RebuildTertiary { .. }
                ) {
                    rebuild_started_at.get_or_insert(now);
                }
                ev_ix += 1;
            }
            if now >= max_cycles {
                break;
            }
            if matches!(scenario.horizon, Horizon::Drain { .. })
                && ev_ix == events.len()
                && server.active_streams() == 0
                && server.simulator().rebuilds().active().is_empty()
                && server.simulator().metrics().cycles > 0
            {
                break;
            }
            // Between scripted events nothing external can perturb the
            // schedule, so the stretch up to the next event (or the
            // horizon) is a fast-forward candidate. Tertiary staging
            // advances one tape cycle per server step, so the fast path
            // stays off while the librarian has work.
            if self.fast_forward && server.staging().queue().is_empty() {
                let next_event = events
                    .get(ev_ix)
                    .map_or(max_cycles, |e| e.cycle().min(max_cycles));
                match server.simulator_mut().advance_quiescent(next_event) {
                    Ok(n) if n > 0 => continue,
                    Ok(_) => {}
                    Err(e) => {
                        report.violations.push(format!("cycle {now}: {e}"));
                        break;
                    }
                }
            }
            let rebuilds_before = server.simulator().metrics().rebuilds_completed;
            if let Err(e) = server.step() {
                report.violations.push(format!("cycle {now}: {e}"));
                break;
            }
            if server.simulator().metrics().rebuilds_completed > rebuilds_before {
                last_rebuild_done = Some(server.cycle());
            }
            if let Some(ib) = server.simulator().scheduler().as_improved() {
                for c in ib.last_shift_path() {
                    let c = u64::from(c.0);
                    if !report.shift_clusters.contains(&c) {
                        report.shift_clusters.push(c);
                    }
                }
            }
        }
        drop(guard);

        let m = server.metrics();
        report.cycles = m.cycles;
        report.finished = m.streams_finished;
        report.dropped = m.service_degradations;
        report.active_at_end = server.active_streams() as u64;
        report.tracks_lost = m.total_hiccups();
        report.reconstructed = m.reconstructed;
        // `fail_disk_now` counts catastrophes for immediate injections
        // too; subtract the typed losses so `catastrophes` covers only
        // scheduled (step-path) faults, as documented on the report.
        report.catastrophes = m.catastrophes.saturating_sub(report.data_loss.len() as u64);
        report.rebuilds_completed = m.rebuilds_completed;
        let (events, registry) = recorder.into_parts();
        report.transitions = transitions_from_events(&events);
        report.degraded_cycles = degraded_cycles(&report.transitions, report.cycles);
        report.rebuild_duration = match (rebuild_started_at, last_rebuild_done) {
            (Some(s), Some(e)) => Some(e.saturating_sub(s)),
            _ => None,
        };
        report.violations.extend(scenario.evaluate(&report));
        // Forward the run's telemetry to any ambient collector (the
        // guard is already dropped, so this reaches e.g. mms-ctl's
        // recorder). Absorption happens whole-run at a time, in the
        // caller's invocation order, so the combined stream stays
        // byte-identical at every thread count.
        mms_telemetry::dispatch_absorb(events, &registry);
        for violation in &report.violations {
            mms_telemetry::event!(
                mms_telemetry::Level::Error,
                "check_violation",
                scenario = scenario.name,
                scheme = scheme.abbrev(),
                message = violation.clone(),
            );
        }
        report
    }

    fn dispatch(
        &self,
        event: &ScenarioEvent,
        server: &mut MultimediaServer,
        objects: &[ObjectId],
        report: &mut ScenarioReport,
    ) {
        match *event {
            ScenarioEvent::Admit { object, cycle } => {
                let Some(&oid) = objects.get(object) else {
                    report
                        .violations
                        .push(format!("cycle {cycle}: no object at index {object}"));
                    return;
                };
                match server.admit(oid) {
                    Ok(_) => report.admitted += 1,
                    Err(ServerError::Admission(_)) => report.rejected += 1,
                    Err(e) => report.violations.push(format!("cycle {cycle}: {e}")),
                }
            }
            ScenarioEvent::Fault(fe) => match server.inject(fe) {
                Ok(_) => {}
                Err(ServerError::DataLoss { tracks }) => report.data_loss.push(DataLossRecord {
                    cycle: fe.cycle(),
                    disk: fe.disk(),
                    tracks,
                }),
                Err(e) => report.violations.push(format!("cycle {}: {e}", fe.cycle())),
            },
            ScenarioEvent::RebuildParity { cycle, disk } => {
                if let Err(e) = server.start_parity_rebuild(disk) {
                    report.violations.push(format!("cycle {cycle}: {e}"));
                } else {
                    report.rebuilds_started += 1;
                }
            }
            ScenarioEvent::RebuildTertiary {
                cycle,
                disk,
                tracks_per_cycle,
            } => {
                if let Err(e) = server.start_tertiary_rebuild(disk, tracks_per_cycle) {
                    report.violations.push(format!("cycle {cycle}: {e}"));
                } else {
                    report.rebuilds_started += 1;
                }
            }
        }
    }
}

/// All four schemes, for corpus cases with no scheme restriction.
fn all_schemes() -> Vec<SchemeKind> {
    SchemeKind::ALL.to_vec()
}

fn admit(cycle: u64, object: usize) -> ScenarioEvent {
    ScenarioEvent::Admit { cycle, object }
}

fn fail(cycle: u64, disk: u32) -> ScenarioEvent {
    ScenarioEvent::Fault(FailureEvent::fail(cycle, DiskId(disk)))
}

fn fail_mid(cycle: u64, disk: u32) -> ScenarioEvent {
    ScenarioEvent::Fault(FailureEvent::fail_mid_cycle(cycle, DiskId(disk)))
}

fn repair(cycle: u64, disk: u32) -> ScenarioEvent {
    ScenarioEvent::Fault(FailureEvent::repair(cycle, DiskId(disk)))
}

/// The NC figure-transition case (Figures 6/7): the exact admission
/// pattern of `crates/sched/tests/figures_nc.rs` driven through the
/// full simulator, losing exactly `tracks` tracks.
fn nc_figure_case(policy: TransitionPolicy, tracks: u64) -> ScenarioCase {
    let (name, summary) = match policy {
        TransitionPolicy::Simple => (
            "nc-transition-simple",
            "Fig. 6: NC simple transition loses exactly 6 tracks",
        ),
        TransitionPolicy::Delayed => (
            "nc-transition-delayed",
            "Fig. 7: NC delayed transition loses exactly 3 tracks",
        ),
    };
    let mut s = Scenario::new(name, summary);
    s.seed = 6 + tracks;
    s.horizon = Horizon::Drain { max_cycles: 60 };
    s.events = vec![
        admit(1, 0), // U
        admit(2, 1), // W
        admit(3, 2), // Y
        admit(4, 3), // A starts at the failure cycle itself
        fail(4, 2),  // disk 2 dies just before cycle 4 (figure cycle 1)
        admit(5, 4), // C
        admit(6, 5), // E
        admit(7, 6), // G
        admit(8, 7), // I
    ];
    s.expectations = vec![
        Expectation::all(Check::LostTracksExactly(tracks)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    ScenarioCase {
        scenario: s,
        topology: ScenarioTopology::figure(policy),
        schemes: vec![SchemeKind::NonClustered],
    }
}

/// The named scenario corpus (the `mms-ctl scenario` registry).
///
/// `quick` shortens the stochastic soak so CI smoke runs stay fast;
/// every deterministic scenario is identical in both modes.
#[must_use]
pub fn corpus(quick: bool) -> Vec<ScenarioCase> {
    let mut cases = Vec::new();
    let std_topo = ScenarioTopology::standard;

    // 1. No faults at all: every scheme plays clean.
    let mut s = Scenario::new("baseline-clean", "no faults; every stream plays losslessly");
    s.events = vec![admit(0, 0)];
    s.expectations = vec![
        Expectation::all(Check::NoLostTracks),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::NoDroppedStreams),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 2. One cycle-boundary failure mid-movie.
    let mut s = Scenario::new(
        "single-fault",
        "one disk dies mid-movie; SR/SG/IB mask it, NC loses its bounded transition set",
    );
    s.events = vec![admit(0, 0), fail(3, 1)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::NoDroppedStreams),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 3. The mid-cycle (unmaskable for IB) variant.
    let mut s = Scenario::new(
        "mid-cycle-fault",
        "failure after the read schedule committed; only IB takes the one unmaskable hiccup",
    );
    s.events = vec![admit(0, 0), fail_mid(4, 1)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::LostTracksExactly(1)),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 4. Section 4's adaptive parity prefetch masks even the mid-cycle
    //    case under light load.
    let mut s = Scenario::new(
        "ib-prefetch-mid-cycle",
        "parity prefetch on: IB masks even a mid-cycle failure",
    );
    s.events = vec![admit(0, 0), fail_mid(4, 1)];
    s.expectations = vec![
        Expectation::all(Check::NoLostTracks),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    let mut topo = std_topo();
    topo.ib_parity_prefetch = true;
    cases.push(ScenarioCase {
        scenario: s,
        topology: topo,
        schemes: vec![SchemeKind::ImprovedBandwidth],
    });

    // 5. Failure followed by repair: degraded mode ends, no residue.
    let mut s = Scenario::new(
        "fail-and-repair",
        "fail one disk, repair it 40 cycles later; service recovers fully",
    );
    s.events = vec![admit(0, 0), fail(3, 1), repair(43, 1)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 6–7. The NC transition figures, through the full simulator.
    cases.push(nc_figure_case(TransitionPolicy::Simple, 6));
    cases.push(nc_figure_case(TransitionPolicy::Delayed, 3));

    // 8. Second failure inside one parity group: typed data loss,
    //    never a panic.
    let mut s = Scenario::new(
        "double-fault-same-group",
        "two failures in one parity group; every scheme reports typed data loss",
    );
    s.events = vec![admit(0, 0), fail(3, 1), fail(6, 2)];
    s.expectations = vec![Expectation::all(Check::DataLoss)];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 9. Two failures in different clusters: safe for the clustered
    //    schemes, catastrophic for IB whose 8-disk ring has only two
    //    (hence mutually adjacent) clusters.
    let mut s = Scenario::new(
        "double-fault-cross-group",
        "failures in two clusters; SR/SG/NC survive, IB's adjacency rule loses data",
    );
    s.events = vec![admit(0, 0), fail(3, 1), fail(6, 6)];
    s.expectations = vec![
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoCatastrophe),
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoCatastrophe),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::NoCatastrophe),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(4)),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::DataLoss),
    ];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 10. NC buffer-server exhaustion: the Eq. 6 degradation of
    //     service.
    let mut s = Scenario::new(
        "buffer-exhaustion",
        "K_NC = 1 and failures in two clusters; the second degraded cluster sheds streams",
    );
    s.events = vec![admit(0, 0), admit(1, 0), fail(6, 1), fail(6, 6)];
    s.expectations = vec![
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::DroppedStreams),
    ];
    let mut topo = std_topo();
    topo.nc_buffer_servers = 1;
    cases.push(ScenarioCase {
        scenario: s,
        topology: topo,
        schemes: vec![SchemeKind::NonClustered],
    });

    // 11. A second failure landing during a (slow, tertiary) rebuild.
    let mut s = Scenario::new(
        "fail-during-rebuild",
        "disk fails during another disk's tape rebuild; same group, typed data loss",
    );
    s.events = vec![
        admit(0, 0),
        fail(3, 1),
        ScenarioEvent::RebuildTertiary {
            cycle: 6,
            disk: DiskId(1),
            tracks_per_cycle: 1,
        },
        fail(12, 2),
    ];
    s.expectations = vec![Expectation::all(Check::DataLoss)];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 12. Background parity rebuild under live delivery load.
    let mut s = Scenario::new(
        "rebuild-under-load",
        "parity rebuild from idle slots while a stream plays; completes without slowing it",
    );
    s.events = vec![
        admit(0, 0),
        fail(3, 1),
        ScenarioEvent::RebuildParity {
            cycle: 6,
            disk: DiskId(1),
        },
    ];
    s.expectations = vec![
        Expectation::all(Check::RebuildCompletes),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
        Expectation::for_scheme(SchemeKind::StreamingRaid, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::StaggeredGroup, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::ImprovedBandwidth, Check::NoLostTracks),
        Expectation::for_scheme(SchemeKind::NonClustered, Check::LostTracksAtMost(2)),
    ];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    // 13. IB's "shift to the right" cascade is observable.
    let mut s = Scenario::new(
        "shift-cascade",
        "IB degraded mode shifts displaced load through the cluster ring",
    );
    s.events = vec![admit(0, 0), admit(0, 1), fail(4, 1)];
    s.expectations = vec![
        Expectation::all(Check::ShiftCascade),
        Expectation::all(Check::NoLostTracks),
        Expectation::all(Check::NoCatastrophe),
        Expectation::all(Check::AllStreamsFinish),
    ];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: vec![SchemeKind::ImprovedBandwidth],
    });

    // 14. Stochastic soak: accelerated failure/repair processes from
    //     the pre-split seed; exercises every mode without asserting a
    //     specific loss (the deterministic scenarios do that).
    let mut s = Scenario::new(
        "stochastic-soak",
        "seeded stochastic failure/repair storm; bit-identical at any thread count",
    );
    let horizon = if quick { 120 } else { 400 };
    s.seed = 0xdecade;
    s.horizon = Horizon::Fixed(horizon);
    s.stochastic = Some(StochasticFaults {
        acceleration: 1.5e6,
        mttr_cycles: 20,
        horizon_cycles: horizon,
    });
    s.events = vec![admit(0, 0), admit(1, 1), admit(40, 1), admit(60, 0)];
    cases.push(ScenarioCase {
        scenario: s,
        topology: std_topo(),
        schemes: all_schemes(),
    });

    cases
}

/// Look up one corpus case by scenario name.
#[must_use]
pub fn find(name: &str, quick: bool) -> Option<ScenarioCase> {
    corpus(quick).into_iter().find(|c| c.scenario.name == name)
}

/// Run the whole corpus (or one named scenario) and render every
/// report, returning the rendered text and whether every invariant
/// held. The text is bit-identical for every thread count, and —
/// because fast-forwarded runs are observably identical — for either
/// value of `fast_forward`.
#[must_use]
pub fn run_corpus_rendered(
    parallelism: Parallelism,
    quick: bool,
    only: Option<&str>,
    fast_forward: bool,
) -> (String, bool) {
    let cases: Vec<ScenarioCase> = corpus(quick)
        .into_iter()
        .filter(|c| only.is_none_or(|n| c.scenario.name == n))
        .collect();
    let jobs: Vec<(usize, SchemeKind)> = cases
        .iter()
        .enumerate()
        .flat_map(|(i, c)| c.schemes.iter().map(move |&s| (i, s)))
        .collect();
    let runner = ScenarioRunner::new(parallelism).with_fast_forward(fast_forward);
    let reports = par_map_indexed_min(parallelism, jobs.len(), 2, |j| {
        let (case_ix, scheme) = jobs[j];
        runner.run(&cases[case_ix], scheme)
    });
    let mut out = String::new();
    let mut all_passed = true;
    let mut last_case = usize::MAX;
    for (report, &(case_ix, _)) in reports.iter().zip(&jobs) {
        if case_ix != last_case {
            out.push_str(&format!(
                "== {} — {}\n",
                cases[case_ix].scenario.name, cases[case_ix].scenario.summary
            ));
            last_case = case_ix;
        }
        out.push_str(&report.render());
        all_passed &= report.passed();
    }
    let verdict = if all_passed {
        "corpus: all invariants held"
    } else {
        "corpus: INVARIANT VIOLATIONS"
    };
    out.push_str(verdict);
    out.push('\n');
    (out, all_passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_nonempty() {
        let cases = corpus(true);
        assert!(cases.len() >= 12, "corpus shrank to {}", cases.len());
        let mut names: Vec<&str> = cases.iter().map(|c| c.scenario.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names");
        assert!(find("single-fault", true).is_some());
        assert!(find("no-such-scenario", true).is_none());
    }

    #[test]
    fn every_topology_builds_for_its_schemes() {
        for case in corpus(true) {
            for &scheme in &case.schemes {
                case.topology
                    .build(scheme)
                    .unwrap_or_else(|e| panic!("{}/{scheme:?}: {e}", case.scenario.name));
            }
        }
    }
}
