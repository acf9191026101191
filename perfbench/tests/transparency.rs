//! The measurement must not change what it measures, and the simulator's
//! count metrics must repeat exactly for a seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cupft_core::{ProtocolMode, RuntimeKind};
use cupft_graph::GraphFamily;
use cupft_perfbench::metrics::{end_to_end, per_layer, Metric, Sample, TracedSample};
use cupft_perfbench::trace::{Span, Tracing};
use cupft_perfbench::workload::{input_seed, Spec, Workload};

/// A small known-threshold Erdős–Rényi input: discovery, detection,
/// committee and learning all run, in well under a second.
fn small_er() -> Spec {
    Spec {
        family: GraphFamily::erdos_renyi(40, 1),
        mode: ProtocolMode::KnownThreshold(1),
        substrate: RuntimeKind::Sim,
        silent_leader: false,
        inputs: 2,
        cycles: 1,
    }
}

/// The view-change workload's input on the simulator: a silent view-0
/// leader, so the committee's timeout path runs too.
fn leaderfail_on_sim() -> Spec {
    Spec {
        substrate: RuntimeKind::Sim,
        ..Workload::LeaderfailThreaded.spec()
    }
}

#[test]
fn traced_runs_behave_exactly_like_untraced_runs() {
    for spec in [small_er(), leaderfail_on_sim()] {
        for index in 0..spec.inputs {
            let seed = input_seed(7, index);
            let plain = spec.run(seed, RuntimeKind::Sim, Tracing::Off);
            let traced = spec.run(seed, RuntimeKind::Sim, Tracing::SpansAndCodec);
            let (a, b) = (&plain.outcome, &traced.outcome);
            assert!(a.check().consensus_solved(), "{spec:?} seed {seed}");
            assert_eq!(a.decisions, b.decisions, "decisions, seed {seed}");
            assert_eq!(a.stats, b.stats, "NetStats, seed {seed}");
            assert_eq!(a.last_decision_time(), b.last_decision_time());
            assert_eq!(a.final_views, b.final_views, "final views, seed {seed}");
            assert_eq!(plain.report.events, traced.report.events);

            // The wrappers were really in place.
            assert_eq!(plain.spans.total_seconds(), 0.0);
            assert!(traced.spans.calls(Span::Discovery) > 0);
            assert!(traced.spans.calls(Span::Committee) > 0);
            assert_eq!(
                traced.spans.calls(Span::WireEncode),
                b.stats.messages_delivered
            );
            assert!(traced.spans.wire_bytes > 0);
            assert!(traced.verify_calls > 0);
            assert!(b.obs.is_some() && a.obs.is_none());
        }
    }
    let leaderfail = leaderfail_on_sim().run(input_seed(7, 0), RuntimeKind::Sim, Tracing::Spans);
    assert!(
        leaderfail.spans.timeout_calls > 0,
        "the silent leader forces timeouts"
    );
    assert!(leaderfail.outcome.stats.label_count("VIEWCHANGE") > 0);
}

fn value(metrics: &[Metric], name: &str) -> u64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
        .to_bits()
}

/// One untraced and one traced pass over the spec's input set, as the
/// benchmark runs them on the simulator.
fn measure(spec: &Spec) -> (Vec<Metric>, Vec<Metric>) {
    let mut samples = Vec::new();
    let mut traced = Vec::new();
    for index in 0..spec.inputs {
        let seed = input_seed(11, index);
        let untraced = spec.run(seed, RuntimeKind::Sim, Tracing::Off);
        samples.push(Sample::new(index as usize, &untraced, None));
        traced.push(TracedSample {
            input: index as usize,
            untraced,
            traced: spec.run(seed, RuntimeKind::Sim, Tracing::SpansAndCodec),
            twin: None,
        });
    }
    (end_to_end(&samples), per_layer(&traced, true))
}

#[test]
fn simulator_count_metrics_repeat_exactly() {
    let spec = small_er();
    let (e2e_a, layers_a) = measure(&spec);
    let (e2e_b, layers_b) = measure(&spec);
    for name in ["msgs_per_decided", "cert_units_per_decided", "decide_vt"] {
        assert_eq!(value(&e2e_a, name), value(&e2e_b, name), "{name}");
    }
    for name in [
        "wire.bytes_per_decided",
        "discovery.cert_redundancy",
        "detector.attempts",
    ] {
        assert_eq!(value(&layers_a, name), value(&layers_b, name), "{name}");
    }
    assert!(f64::from_bits(value(&layers_a, "detector.attempts")) > 0.0);
}

#[test]
fn every_workload_name_round_trips() {
    for workload in Workload::ALL {
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
        assert!(workload.spec().inputs > 0);
    }
    assert_eq!(Workload::from_name("nope"), None);
}
