//! The scenario engine end to end: typed data loss on double faults,
//! the paper's loss invariants through the full corpus, bit-identical
//! corpus output at any thread count, and a reliability cross-check of
//! the simulated catastrophe condition against `mms-reliability`'s
//! closed-form rule.

use ft_media_server::disk::DiskId;
use ft_media_server::reliability::CatastropheRule;
use ft_media_server::scenario::{corpus, find, run_corpus_rendered, ScenarioRunner};
use ft_media_server::sched::SchemeKind;
use ft_media_server::sim::FailureEvent;
use ft_media_server::{Parallelism, Scheme, ServerBuilder, ServerError};
use std::num::NonZeroUsize;

fn threads(n: usize) -> Parallelism {
    Parallelism::Threads(NonZeroUsize::new(n).unwrap())
}

#[test]
fn second_fault_in_degraded_group_is_typed_data_loss_for_every_scheme() {
    for scheme in Scheme::ALL {
        let disks = if scheme == Scheme::ImprovedBandwidth {
            8
        } else {
            10
        };
        let mut s = ServerBuilder::new(scheme)
            .disks(disks)
            .parity_group(5)
            .movie(
                "feature",
                1.0,
                ft_media_server::layout::BandwidthClass::Mpeg1,
            )
            .build()
            .unwrap();
        let movie = s.objects()[0];
        s.admit(movie).unwrap();
        s.run(3).unwrap();
        s.inject(FailureEvent::fail(s.cycle(), DiskId(1))).unwrap();
        s.run(3).unwrap();
        // Disk 2 shares disk 1's parity group (cluster 0) in every
        // scheme at these geometries.
        let err = s
            .inject(FailureEvent::fail(s.cycle(), DiskId(2)))
            .unwrap_err();
        match err {
            ServerError::DataLoss { tracks } => {
                assert!(tracks > 0, "{scheme:?}: loss must count real data tracks");
            }
            other => panic!("{scheme:?}: expected DataLoss, got {other}"),
        }
        // The failure was still applied: the server is in catastrophic
        // mode but alive, and stepping never panics.
        s.run(3).unwrap();
        assert_eq!(s.metrics().catastrophes, 1, "{scheme:?}");
    }
}

#[test]
fn corpus_invariants_hold_for_every_scheme() {
    let (text, ok) = run_corpus_rendered(Parallelism::Sequential, true, None, false);
    assert!(ok, "corpus violations:\n{text}");
}

/// Fast-forwarded corpus runs render bit-identically to per-cycle runs
/// — every loss count (including the exact Figures 6/7 NC transition
/// losses), every metric line, every verdict.
#[test]
fn corpus_output_is_bit_identical_with_fast_forward() {
    let (slow, ok) = run_corpus_rendered(Parallelism::Sequential, true, None, false);
    assert!(ok);
    let (fast, ok) = run_corpus_rendered(Parallelism::Sequential, true, None, true);
    assert!(ok);
    assert_eq!(slow, fast, "fast-forward changed the corpus output");
}

#[test]
fn nc_figure_scenarios_reproduce_exact_transition_losses() {
    for (name, expected) in [("nc-transition-simple", 6), ("nc-transition-delayed", 3)] {
        let case = find(name, true).unwrap();
        let runner = ScenarioRunner::new(Parallelism::Sequential);
        let report = runner.run(&case, SchemeKind::NonClustered);
        assert!(report.passed(), "{name}: {:?}", report.violations);
        assert_eq!(report.tracks_lost, expected, "{name}");
    }
}

#[test]
fn corpus_output_is_bit_identical_across_thread_counts() {
    let (seq, ok) = run_corpus_rendered(Parallelism::Sequential, true, None, false);
    assert!(ok);
    for n in [2, 8] {
        let (par, ok) = run_corpus_rendered(threads(n), true, None, false);
        assert!(ok);
        assert_eq!(seq, par, "corpus diverged at {n} threads");
    }
}

/// The simulated catastrophe condition agrees with the closed-form
/// [`CatastropheRule`] that `mms-reliability`'s Monte-Carlo layer uses:
/// for every ordered pair of distinct disks, injecting both faults is a
/// typed `DataLoss` exactly when the rule says the pair is terminal.
#[test]
fn simulated_catastrophes_match_the_reliability_rule() {
    let c = 5;
    for scheme in Scheme::ALL {
        let (disks, rule) = match scheme {
            // 16 disks = 4 IB clusters: both adjacent (catastrophic) and
            // alternating (safe) pairs exist.
            Scheme::ImprovedBandwidth => (16, CatastropheRule::SameOrAdjacentCluster { c }),
            _ => (10, CatastropheRule::SameCluster { c }),
        };
        for first in 0..disks {
            for second in 0..disks {
                if first == second {
                    continue;
                }
                let predicted = rule.is_catastrophic([first], second, disks);
                let mut s = ServerBuilder::new(scheme)
                    .disks(disks)
                    .parity_group(c)
                    .movie("m", 0.2, ft_media_server::layout::BandwidthClass::Mpeg1)
                    .build()
                    .unwrap();
                s.inject(FailureEvent::fail(0, DiskId(first as u32)))
                    .unwrap();
                let outcome = s.inject(FailureEvent::fail(0, DiskId(second as u32)));
                let observed = matches!(outcome, Err(ServerError::DataLoss { .. }));
                assert_eq!(
                    predicted, observed,
                    "{scheme:?}: disks {first},{second} predicted {predicted}"
                );
            }
        }
    }
}

#[test]
fn every_corpus_scenario_runs_for_each_of_its_schemes() {
    let runner = ScenarioRunner::new(Parallelism::Sequential);
    for case in corpus(true) {
        let reports = runner.run_case(&case);
        assert_eq!(reports.len(), case.schemes.len());
        for report in reports {
            assert!(
                report.passed(),
                "{}/{:?}: {:?}",
                case.scenario.name,
                report.scheme,
                report.violations
            );
            assert!(report.cycles > 0, "{}", case.scenario.name);
        }
    }
}

/// The unified `inject(FailureEvent)` surface covers everything the
/// old per-method fault API did: immediate faults (with the typed
/// `DataLoss` verdict on the second fault in a degraded group),
/// repair, and scheduled future failures.
#[test]
fn inject_covers_immediate_scheduled_and_repair_faults() {
    let mut s = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(5)
        .movie("m", 0.2, ft_media_server::layout::BandwidthClass::Mpeg1)
        .build()
        .unwrap();
    let movie = s.objects()[0];
    s.admit(movie).unwrap();
    let report = s.inject(FailureEvent::fail(s.cycle(), DiskId(1))).unwrap();
    assert!(!report.catastrophic);
    // The second fault in the degraded group is the typed verdict.
    assert!(matches!(
        s.inject(FailureEvent::fail(s.cycle(), DiskId(2))),
        Err(ServerError::DataLoss { .. })
    ));
    s.inject(FailureEvent::repair(s.cycle(), DiskId(1)))
        .unwrap();
    let mut s2 = ServerBuilder::new(Scheme::StreamingRaid)
        .disks(10)
        .parity_group(5)
        .movie("m", 0.2, ft_media_server::layout::BandwidthClass::Mpeg1)
        .build()
        .unwrap();
    // A future-dated event queues (empty report) and fires during `run`.
    let report = s2.inject(FailureEvent::fail(2, DiskId(0))).unwrap();
    assert!(!report.catastrophic && report.lost.is_empty());
    let movie = s2.objects()[0];
    s2.admit(movie).unwrap();
    s2.run(4).unwrap();
    assert!(s2.metrics().reconstructed > 0);
}
