//! Shared command-line parsing for the experiment binaries.
//!
//! Every binary under `src/bin/` historically hand-rolled the same
//! `--flag value` scanning and the same token tables (strategy names,
//! level mixes, fault presets). This module is the single home for all
//! of it: [`Args`] checks the raw argument vector against a binary's
//! flag vocabulary and offers typed accessors, and the `parse_*`
//! functions map the CLI token vocabularies onto the core types. `run`,
//! `compare` and `matrix` all parse through here, so a token accepted by
//! one binary is accepted — with the same spelling and the same error
//! message — by all of them.

use mp2p_net::FaultPlan;
use mp2p_rpcc::{LevelMix, MobilityKind, Strategy};
use mp2p_sim::SimDuration;

/// The checked argument vector with typed, flag-oriented accessors.
///
/// Flags are scanned positionally (`--flag value`): a repeated flag
/// resolves to its first occurrence.
#[derive(Debug, Clone)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Captures the process arguments (program name skipped) and checks
    /// them with [`Args::parse`].
    pub fn from_env(value_flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        Args::parse(std::env::args().skip(1).collect(), value_flags, switches)
    }

    /// Checks an argument vector against a binary's vocabulary: every
    /// token must be one of `switches`, or one of `value_flags` followed
    /// by its value. An unknown flag, a stray positional argument, or a
    /// value flag with no value after it (end of input, or another
    /// `--flag`) is an error, so a typo can never silently drop a knob.
    pub fn parse(
        argv: Vec<String>,
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut i = 0;
        while let Some(arg) = argv.get(i).map(String::as_str) {
            if value_flags.contains(&arg) {
                match argv.get(i + 1) {
                    Some(value) if !value.starts_with("--") => i += 2,
                    _ => return Err(format!("{arg} expects a value")),
                }
            } else if switches.contains(&arg) {
                i += 1;
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(Args { argv })
    }

    /// True when the bare flag is present anywhere.
    pub fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// The value following `--name`, if any.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    /// The value following `--name` parsed as `f64`.
    pub fn f64_of(&self, name: &str) -> Result<Option<f64>, String> {
        match self.value_of(name) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} expects a number, got {text:?}")),
        }
    }

    /// The value following `--name` parsed as `u64`.
    pub fn u64_of(&self, name: &str) -> Result<Option<u64>, String> {
        match self.value_of(name) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} expects a non-negative integer, got {text:?}")),
        }
    }

    /// The value following `--name` parsed as `usize`.
    pub fn usize_of(&self, name: &str) -> Result<Option<usize>, String> {
        match self.value_of(name) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} expects a non-negative integer, got {text:?}")),
        }
    }
}

/// CLI token of a strategy (`rpcc`, `push`, `pull`, `push-ap`) — also
/// the stem of matrix cell file names, so it is lowercase and path-safe.
pub fn strategy_token(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Rpcc => "rpcc",
        Strategy::Push => "push",
        Strategy::Pull => "pull",
        Strategy::PushAdaptivePull => "push-ap",
    }
}

/// Parses a strategy token; the inverse of [`strategy_token`].
pub fn parse_strategy(token: &str) -> Result<Strategy, String> {
    match token {
        "rpcc" => Ok(Strategy::Rpcc),
        "push" => Ok(Strategy::Push),
        "pull" => Ok(Strategy::Pull),
        "push-ap" => Ok(Strategy::PushAdaptivePull),
        _ => Err(format!(
            "unknown strategy {token:?} (rpcc|push|pull|push-ap)"
        )),
    }
}

/// Parses a comma-separated strategy list (`rpcc,push,pull`).
pub fn parse_strategies(list: &str) -> Result<Vec<Strategy>, String> {
    let strategies: Vec<Strategy> = list
        .split(',')
        .filter(|t| !t.is_empty())
        .map(parse_strategy)
        .collect::<Result<_, _>>()?;
    if strategies.is_empty() {
        return Err("empty strategy list".into());
    }
    Ok(strategies)
}

/// Parses a level-mix token (`sc`, `dc`, `wc`, `hy`).
pub fn parse_mix(token: &str) -> Result<LevelMix, String> {
    match token {
        "sc" => Ok(LevelMix::strong_only()),
        "dc" => Ok(LevelMix::delta_only()),
        "wc" => Ok(LevelMix::weak_only()),
        "hy" => Ok(LevelMix::hybrid()),
        other => Err(format!("unknown mix {other:?} (sc|dc|wc|hy)")),
    }
}

/// Parses a mobility-model token into a [`MobilityKind`].
///
/// The token is the model name with optional colon-separated numeric
/// parameters; omitted parameters take the documented defaults:
///
/// | token | parameters | defaults |
/// |---|---|---|
/// | `waypoint[:MIN:MAX:PAUSE]` | speeds m/s, max pause s | `0.5:2.5:30` (Table 1) |
/// | `walk[:MIN:MAX:EPOCH]` | speeds m/s, epoch s | `0.5:2.5:60` |
/// | `manhattan[:BLOCK:SPEED]` | block m, speed m/s | `150:8` |
/// | `stationary` | — | — |
pub fn parse_mobility(token: &str) -> Result<MobilityKind, String> {
    let mut parts = token.split(':');
    let model = parts.next().unwrap_or("");
    let nums: Vec<f64> = parts
        .map(|p| {
            p.parse()
                .map_err(|_| format!("mobility parameter {p:?} is not a number"))
        })
        .collect::<Result<_, _>>()?;
    let num = |i: usize, default: f64| nums.get(i).copied().unwrap_or(default);
    let expect_at_most = |n: usize| -> Result<(), String> {
        if nums.len() > n {
            Err(format!(
                "mobility model {model:?} takes at most {n} parameters, got {}",
                nums.len()
            ))
        } else {
            Ok(())
        }
    };
    match model {
        "waypoint" => {
            expect_at_most(3)?;
            Ok(MobilityKind::Waypoint {
                speed_min: num(0, 0.5),
                speed_max: num(1, 2.5),
                max_pause: SimDuration::from_secs_f64(num(2, 30.0)),
            })
        }
        "walk" => {
            expect_at_most(3)?;
            Ok(MobilityKind::Walk {
                speed_min: num(0, 0.5),
                speed_max: num(1, 2.5),
                epoch: SimDuration::from_secs_f64(num(2, 60.0)),
            })
        }
        "manhattan" => {
            expect_at_most(2)?;
            Ok(MobilityKind::Manhattan {
                block: num(0, 150.0),
                speed: num(1, 8.0),
            })
        }
        "stationary" => {
            expect_at_most(0)?;
            Ok(MobilityKind::Stationary)
        }
        other => Err(format!(
            "unknown mobility model {other:?} (waypoint|walk|manhattan|stationary)"
        )),
    }
}

/// Parses a fault-preset name into a plan scaled to `sim_time`.
pub fn parse_faults(name: &str, sim_time: SimDuration) -> Result<FaultPlan, String> {
    FaultPlan::preset(name, sim_time).ok_or_else(|| {
        format!(
            "unknown fault plan {name:?} (none|{})",
            FaultPlan::PRESETS.join("|")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, prop_assert, proptest};

    const VALUES: &[&str] = &["--peers", "--loss", "--trace", "--mobility", "--faults"];
    const SWITCHES: &[&str] = &["--profile", "--hardened"];

    fn parse(list: &[&str]) -> Result<Args, String> {
        Args::parse(
            list.iter().map(|s| s.to_string()).collect(),
            VALUES,
            SWITCHES,
        )
    }

    fn args(list: &[&str]) -> Args {
        parse(list).expect("valid argv")
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_refused() {
        let err = parse(&["--peers", "50", "--basline", "x.json"]).unwrap_err();
        assert!(err.contains("unknown flag \"--basline\""), "{err}");
        assert!(parse(&["-x"]).unwrap_err().contains("unknown flag"));
        let err = parse(&["--profile", "extra"]).unwrap_err();
        assert!(err.contains("unexpected argument \"extra\""), "{err}");
        assert!(parse(&[]).is_ok());
    }

    #[test]
    fn a_value_flag_without_its_value_is_refused() {
        let err = parse(&["--peers", "10", "--trace"]).unwrap_err();
        assert_eq!(err, "--trace expects a value");
        let err = parse(&["--trace", "--profile"]).unwrap_err();
        assert_eq!(err, "--trace expects a value");
        // A negative number is a value, not a flag.
        assert_eq!(
            args(&["--loss", "-0.5"]).f64_of("--loss").unwrap(),
            Some(-0.5)
        );
    }

    #[test]
    fn typed_accessors_parse_and_reject() {
        let a = args(&["--peers", "50", "--loss", "0.05", "--profile"]);
        assert_eq!(a.usize_of("--peers").unwrap(), Some(50));
        assert_eq!(a.f64_of("--loss").unwrap(), Some(0.05));
        assert!(a.flag("--profile"));
        assert!(!a.flag("--missing"));
        assert_eq!(a.u64_of("--missing").unwrap(), None);
        let bad = args(&["--peers", "many"]);
        assert!(bad.usize_of("--peers").is_err());
    }

    #[test]
    fn strategy_tokens_roundtrip() {
        for strategy in [
            Strategy::Rpcc,
            Strategy::Push,
            Strategy::Pull,
            Strategy::PushAdaptivePull,
        ] {
            assert_eq!(parse_strategy(strategy_token(strategy)), Ok(strategy));
        }
    }

    #[test]
    fn strategy_and_mix_tokens() {
        assert_eq!(parse_strategy("rpcc").unwrap(), Strategy::Rpcc);
        assert_eq!(
            parse_strategy("push-ap").unwrap(),
            Strategy::PushAdaptivePull
        );
        assert!(parse_strategy("gossip").is_err());
        assert_eq!(
            parse_strategies("rpcc,push,pull").unwrap(),
            vec![Strategy::Rpcc, Strategy::Push, Strategy::Pull]
        );
        assert!(parse_strategies("").is_err());
        assert_eq!(parse_mix("hy").unwrap(), LevelMix::hybrid());
        assert!(parse_mix("zz").is_err());
    }

    #[test]
    fn mobility_tokens_with_and_without_parameters() {
        assert_eq!(
            parse_mobility("manhattan").unwrap(),
            MobilityKind::Manhattan {
                block: 150.0,
                speed: 8.0
            }
        );
        assert_eq!(
            parse_mobility("manhattan:100:12.5").unwrap(),
            MobilityKind::Manhattan {
                block: 100.0,
                speed: 12.5
            }
        );
        assert_eq!(
            parse_mobility("waypoint:1:3:10").unwrap(),
            MobilityKind::Waypoint {
                speed_min: 1.0,
                speed_max: 3.0,
                max_pause: SimDuration::from_secs(10),
            }
        );
        assert_eq!(
            parse_mobility("stationary").unwrap(),
            MobilityKind::Stationary
        );
        assert!(parse_mobility("stationary:1").is_err());
        assert!(parse_mobility("manhattan:1:2:3").is_err());
        assert!(parse_mobility("manhattan:fast").is_err());
        assert!(parse_mobility("teleport").is_err());
    }

    #[test]
    fn fault_preset_tokens() {
        let sim = SimDuration::from_mins(10);
        assert_eq!(parse_faults("none", sim).unwrap().label, "none");
        for preset in FaultPlan::PRESETS {
            assert_eq!(parse_faults(preset, sim).unwrap().label, preset);
        }
        assert!(parse_faults("meteor", sim).is_err());
    }

    /// Flag names, flag-like typos and values the argv generator mixes
    /// with arbitrary byte strings.
    const POOL: &[&str] = &[
        "--peers",
        "--loss",
        "--trace",
        "--mobility",
        "--faults",
        "--profile",
        "--hardened",
        "--basline",
        "-h",
        "--",
        "-",
        "",
        "50",
        "-1",
        "0.05",
        "nan",
        "manhattan:1:x",
        "hostile",
        "/tmp/x.jsonl",
    ];

    proptest! {
        #[test]
        fn arbitrary_argv_never_panics(
            picks in proptest::collection::vec(
                (0usize..POOL.len() + 1, proptest::collection::vec(any::<u8>(), 0..6)),
                0..8,
            )
        ) {
            let argv: Vec<String> = picks
                .into_iter()
                .map(|(i, bytes)| match POOL.get(i) {
                    Some(token) => (*token).to_owned(),
                    None => String::from_utf8_lossy(&bytes).into_owned(),
                })
                .collect();
            if let Ok(a) = Args::parse(argv, VALUES, SWITCHES) {
                for flag in VALUES {
                    // An accepted value flag always carries its value.
                    if a.flag(flag) {
                        prop_assert!(a.value_of(flag).is_some_and(|v| !v.starts_with("--")));
                    }
                    let _ = a.f64_of(flag);
                    let _ = a.u64_of(flag);
                    let _ = a.usize_of(flag);
                }
                if let Some(v) = a.value_of("--mobility") {
                    let _ = parse_mobility(v);
                }
                if let Some(v) = a.value_of("--faults") {
                    let _ = parse_faults(v, SimDuration::from_mins(10));
                }
            }
        }
    }
}
