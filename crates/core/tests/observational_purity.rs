//! Observers never change what they observe. Every opt-in layer — the
//! consistency observatory, frame provenance, the wall-clock profiler,
//! a JSONL flight recorder and the windowed metrics registry behind
//! `--metrics-out` — must leave the simulated run untouched:
//! across strategies × fault presets, a run with one layer on must
//! serialise the same report as the bare run once that layer's own
//! section (`consistency`, `perf`) is removed.

use std::io::Write;
use std::sync::{Arc, Mutex};

use mp2p_net::FaultPlan;
use mp2p_rpcc::{ObservatoryConfig, ProvenanceConfig, RunReport, Strategy, World, WorldConfig};
use mp2p_sim::SimDuration;
use mp2p_trace::bridge::{RegistrySink, DEFAULT_WINDOW};
use mp2p_trace::JsonlSink;

/// Journal target that keeps the byte count only.
#[derive(Clone, Default)]
struct CountingWriter(Arc<Mutex<u64>>);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        *self.0.lock().unwrap() += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Layer {
    Bare,
    Observatory,
    Provenance,
    Profiler,
    Journal,
    Registry,
}

fn config(strategy: Strategy, preset: &str) -> WorldConfig {
    let mut cfg = WorldConfig::small_test(11);
    cfg.sim_time = SimDuration::from_mins(6);
    cfg.warmup = SimDuration::from_mins(1);
    cfg.strategy = strategy;
    cfg.faults = FaultPlan::preset(preset, cfg.sim_time).expect("known preset");
    cfg
}

/// Runs the world with `layer` on and returns the report JSON without
/// that layer's own section.
fn report_without_layer(strategy: Strategy, preset: &str, layer: Layer) -> String {
    let mut cfg = config(strategy, preset);
    match layer {
        Layer::Observatory => cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30)),
        Layer::Provenance => cfg.provenance = ProvenanceConfig::full(),
        Layer::Bare | Layer::Profiler | Layer::Journal | Layer::Registry => {}
    }
    let warmup = cfg.warmup;
    let mut world = World::new(cfg);
    let mut report: RunReport = match layer {
        Layer::Profiler => {
            world.enable_profiling();
            world.run()
        }
        Layer::Journal => {
            let bytes = CountingWriter::default();
            let sink = JsonlSink::new_v4_with_warmup(Box::new(bytes.clone()), warmup);
            world.set_tracer(Box::new(sink));
            let (report, sink) = world.run_traced();
            drop(sink);
            assert!(*bytes.0.lock().unwrap() > 0, "the journal was written");
            report
        }
        Layer::Registry => {
            world.set_tracer(Box::new(RegistrySink::new(DEFAULT_WINDOW, warmup)));
            let (report, sink) = world.run_traced();
            let registry = sink
                .as_any()
                .downcast_ref::<RegistrySink>()
                .expect("the registry sink installed above")
                .registry();
            assert!(
                registry
                    .counter("queries_issued_total")
                    .is_some_and(|c| c.total() > 0),
                "the registry saw the run"
            );
            report
        }
        Layer::Bare | Layer::Observatory | Layer::Provenance => world.run(),
    };
    match layer {
        Layer::Observatory => {
            assert!(report.consistency.is_some(), "observatory section present");
            report.consistency = None;
        }
        Layer::Profiler => {
            assert!(report.perf.is_some(), "profiler section present");
            report.perf = None;
        }
        Layer::Bare | Layer::Provenance | Layer::Journal | Layer::Registry => {}
    }
    report.to_json()
}

#[test]
fn observational_purity() {
    let layers = [
        Layer::Observatory,
        Layer::Provenance,
        Layer::Profiler,
        Layer::Journal,
        Layer::Registry,
    ];
    for strategy in [
        Strategy::Rpcc,
        Strategy::Push,
        Strategy::Pull,
        Strategy::PushAdaptivePull,
    ] {
        for preset in ["none", "bursty", "partition"] {
            let bare = report_without_layer(strategy, preset, Layer::Bare);
            for layer in layers {
                assert_eq!(
                    report_without_layer(strategy, preset, layer),
                    bare,
                    "{strategy}/{preset}: {layer:?} changed the run it observes"
                );
            }
        }
    }
}
