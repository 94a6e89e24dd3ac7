//! The four benchmark workloads. Every `WorldConfig` is built here from
//! `WorldConfig::paper_default`, so the workloads do not depend on the
//! repository's own perf or matrix runners. Why each workload exists is
//! written up in `perfbench/README.md`.

use mp2p_mobility::Terrain;
use mp2p_net::FaultPlan;
use mp2p_rpcc::{LevelMix, ProvenanceConfig, RecoveryConfig, Strategy, WorldConfig};
use mp2p_sim::SimDuration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper-50", "scale-5000", "churn-write-100", "recorded-50"];

/// Terrain area per peer for the scaled workloads (m²): the density of
/// the repository's large-n perf points.
const AREA_PER_PEER_M2: f64 = 45_000.0;

/// One simulation cell: a full world run.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub cfg: WorldConfig,
    /// Run with the schema-4 flight recorder writing into a
    /// [`crate::util::DiscardWriter`].
    pub recorded: bool,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub cells: Vec<Cell>,
}

fn strategy_token(s: Strategy) -> &'static str {
    match s {
        Strategy::Rpcc => "rpcc",
        Strategy::Push => "push",
        Strategy::Pull => "pull",
        Strategy::PushAdaptivePull => "push-ap",
    }
}

fn scaled_terrain(peers: usize) -> Terrain {
    let side = (peers as f64 * AREA_PER_PEER_M2).sqrt();
    Terrain::new(side, side)
}

/// Table 1's world with the hybrid level mix over `horizon`, measured
/// after `warmup`.
fn paper(seed: u64, strategy: Strategy, horizon: SimDuration, warmup: SimDuration) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.strategy = strategy;
    cfg.level_mix = LevelMix::hybrid();
    cfg.sim_time = horizon;
    cfg.warmup = warmup;
    cfg
}

fn cell(cfg: WorldConfig, recorded: bool) -> Cell {
    Cell {
        label: strategy_token(cfg.strategy).to_string(),
        cfg,
        recorded,
    }
}

/// Seed of world `k` of a run with `seed` (splitmix64).
fn world_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Rpcc,
    Strategy::Push,
    Strategy::Pull,
    Strategy::PushAdaptivePull,
];

/// Builds workload `name` for `seed`, or `None` for an unknown name.
///
/// A run pools several independent worlds (seeds derived from `seed`),
/// each run under every strategy of the workload. Several short worlds
/// vary far less from seed to seed than one long one: measured over ten
/// seeds, `paper-50`'s pooled query-failure ratio spread (IQR/median)
/// 0.13 with 3 one-hour worlds and 0.04 with 9 twenty-minute ones. One
/// pass over all cells takes 7–12 host seconds on a 2-vCPU 2.1 GHz Xeon
/// VM, so a 30-second run makes two or three.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    type Make = fn(u64, Strategy) -> Cell;
    let (name, worlds, strategies, make): (_, u64, &[Strategy], Make) = match name {
        "paper-50" => (NAMES[0], 15, &ALL_STRATEGIES, |seed, s| {
            let cfg = paper(
                seed,
                s,
                SimDuration::from_mins(20),
                SimDuration::from_mins(5),
            );
            cell(cfg, false)
        }),
        "scale-5000" => (NAMES[1], 6, &[Strategy::Rpcc], |seed, s| {
            let mut cfg = paper(
                seed,
                s,
                SimDuration::from_secs(20),
                SimDuration::from_secs(10),
            );
            cfg.n_peers = 5000;
            cfg.terrain = scaled_terrain(cfg.n_peers);
            cell(cfg, false)
        }),
        "churn-write-100" => (
            NAMES[2],
            6,
            &[Strategy::Rpcc, Strategy::PushAdaptivePull],
            |seed, s| {
                // Warm-up ends before the hostile plan's first crash
                // (at a quarter of the horizon).
                let horizon = SimDuration::from_mins(15);
                let mut cfg = paper(seed, s, horizon, SimDuration::from_mins(3));
                cfg.n_peers = 100;
                cfg.terrain = scaled_terrain(cfg.n_peers);
                cfg.i_write = Some(SimDuration::from_mins(2));
                cfg.i_update = SimDuration::from_mins(1);
                cfg.faults = FaultPlan::preset("hostile", horizon).expect("hostile is a preset");
                cfg.proto = cfg.proto.hardened();
                cfg.proto.recovery = RecoveryConfig::on();
                cell(cfg, false)
            },
        ),
        "recorded-50" => (NAMES[3], 32, &[Strategy::Rpcc], |seed, s| {
            let mut cfg = paper(
                seed,
                s,
                SimDuration::from_mins(15),
                SimDuration::from_mins(5),
            );
            cfg.provenance = ProvenanceConfig::full();
            cell(cfg, true)
        }),
        _ => return None,
    };
    let cells = (0..worlds)
        .flat_map(|k| {
            strategies.iter().map(move |&s| {
                let mut c = make(world_seed(seed, k), s);
                c.label = format!("{}/w{k}", c.label);
                c
            })
        })
        .collect();
    Some(Workload { name, cells })
}
