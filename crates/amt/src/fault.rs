//! Deterministic, seedable fault plans.
//!
//! A [`FaultPlan`] describes which faults a run injects into the parcel
//! plane: per-frame drop / duplicate / corrupt / delay / reorder
//! probabilities, plus an optional locality kill or stall at a chosen
//! time.  The plan lives here (next to [`CoalesceConfig`]) because the
//! real transport (`dashmm-net`) and the simulator's network model
//! (`dashmm-sim`) consume the *same* plan: every per-frame decision is a
//! pure hash of `(seed, fault kind, src, dst, seq)`, no RNG state, so the
//! two layers agree on what happens to a given frame and their retransmit
//! counts can be compared (the sim/runtime parity check).
//!
//! Plans are written as compact spec strings so they survive the
//! environment crossing into re-executed rank processes:
//!
//! ```text
//! seed=7,drop=0.01,dup=0.005,corrupt=0.002,delay=0.01:500,reorder=0.01,kill=1@200,stall=1@100+250
//! ```
//!
//! `kill=R@MS` kills rank `R` dead `MS` milliseconds into the run (no
//! goodbye, no flush — a crash).  `stall=R@MS+DUR` freezes rank `R`'s
//! progress thread for `DUR` ms starting at `MS` (a GC-pause-like brownout
//! the run must ride out).  Both clocks start when the first evaluation
//! hands the transport its progress ledger, as it builds its LCO network.
//!
//! [`CoalesceConfig`]: crate::transport::CoalesceConfig

use std::fmt;

/// Environment variable carrying the fault-plan spec into rank processes.
pub const ENV_FAULTS: &str = "DASHMM_FAULTS";

/// Kill one rank at a chosen time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// Victim rank.
    pub rank: u32,
    /// Milliseconds after transport start.
    pub at_ms: u64,
}

/// Stall one rank's progress thread for a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallSpec {
    /// Victim rank.
    pub rank: u32,
    /// Milliseconds after transport start.
    pub at_ms: u64,
    /// Stall duration in milliseconds.
    pub dur_ms: u64,
}

/// What the plan decided for one outbound frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameFate {
    /// The frame never reaches the peer (a retransmission must recover it).
    pub drop: bool,
    /// The frame arrives twice (duplicate suppression must absorb it).
    pub dup: bool,
    /// The frame body arrives bit-flipped (the checksum must catch it; the
    /// header is left intact so the stream can resynchronise).
    pub corrupt: bool,
    /// Extra in-flight delay in microseconds (0 = none).
    pub delay_us: u64,
    /// The frame is held back behind the next frame to the same peer.
    pub reorder: bool,
}

impl FrameFate {
    /// Whether any fault applies.
    pub fn any(&self) -> bool {
        self.drop || self.dup || self.corrupt || self.delay_us > 0 || self.reorder
    }

    /// Whether the receiver never gets a usable copy of this transmission
    /// (dropped outright, or corrupted so the checksum rejects it).
    pub fn lost(&self) -> bool {
        self.drop || self.corrupt
    }
}

/// A deterministic fault-injection plan (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-frame hash decisions.
    pub seed: u64,
    /// P(frame dropped in flight).
    pub drop: f64,
    /// P(frame duplicated).
    pub dup: f64,
    /// P(frame body corrupted).
    pub corrupt: f64,
    /// P(frame delayed by [`FaultPlan::delay_us`]).
    pub delay: f64,
    /// Injected delay in microseconds when the delay fault fires.
    pub delay_us: u64,
    /// P(frame held back behind its successor — adjacent reorder).
    pub reorder: f64,
    /// Kill schedule.
    pub kill: Option<KillSpec>,
    /// Stall schedule.
    pub stall: Option<StallSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_us: 500,
            reorder: 0.0,
            kill: None,
            stall: None,
        }
    }
}

/// splitmix64 finalizer: the stateless hash behind every decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fault-kind discriminants folded into the hash so the same frame rolls
/// independently per fault.
#[repr(u64)]
enum Kind {
    Drop = 1,
    Dup = 2,
    Corrupt = 3,
    Delay = 4,
    Reorder = 5,
}

impl FaultPlan {
    /// Whether the plan injects anything at all.  A `None`/inactive plan
    /// must cost nothing on the hot path; callers gate on this.
    pub fn active(&self) -> bool {
        self.drop > 0.0
            || self.dup > 0.0
            || self.corrupt > 0.0
            || self.delay > 0.0
            || self.reorder > 0.0
            || self.kill.is_some()
            || self.stall.is_some()
    }

    fn roll(&self, kind: u64, src: u32, dst: u32, seq: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = mix(self.seed
            ^ kind.wrapping_mul(0xa076_1d64_78bd_642f)
            ^ ((src as u64) << 32 | dst as u64).wrapping_mul(0xe703_7ed1_a0b4_28db)
            ^ seq.wrapping_mul(0x8ebc_6af0_9c88_c6e3));
        // Compare against p scaled into the u64 range.
        (h as f64) < p * (u64::MAX as f64)
    }

    /// The (deterministic) fate of transmission `seq` from `src` to `dst`.
    /// `seq` is the reliability-layer sequence number for parcel frames —
    /// the *same* identifier the simulator rolls with, which is what makes
    /// the parity check meaningful.  Retransmissions pass `attempt > 0` so
    /// a frame is not doomed forever.
    pub fn fate(&self, src: u32, dst: u32, seq: u64, attempt: u32) -> FrameFate {
        let seq = seq ^ ((attempt as u64) << 48);
        FrameFate {
            drop: self.roll(Kind::Drop as u64, src, dst, seq, self.drop),
            dup: self.roll(Kind::Dup as u64, src, dst, seq, self.dup),
            corrupt: self.roll(Kind::Corrupt as u64, src, dst, seq, self.corrupt),
            delay_us: if self.roll(Kind::Delay as u64, src, dst, seq, self.delay) {
                self.delay_us
            } else {
                0
            },
            reorder: self.roll(Kind::Reorder as u64, src, dst, seq, self.reorder),
        }
    }

    /// Parse a spec string (see module docs).  Unknown keys and malformed
    /// values are errors — a chaos run must not silently drop its faults.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("`{key}` expects a probability, got `{v}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("`{key}` probability {p} outside [0,1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("seed `{value}` is not an integer"))?
                }
                "drop" => plan.drop = prob(value)?,
                "dup" => plan.dup = prob(value)?,
                "corrupt" => plan.corrupt = prob(value)?,
                "reorder" => plan.reorder = prob(value)?,
                "delay" => match value.split_once(':') {
                    Some((p, us)) => {
                        plan.delay = prob(p)?;
                        plan.delay_us = us
                            .parse()
                            .map_err(|_| format!("delay microseconds `{us}` unparsable"))?;
                    }
                    None => plan.delay = prob(value)?,
                },
                "kill" => {
                    let (rank, at) = value
                        .split_once('@')
                        .ok_or_else(|| format!("kill `{value}` is not RANK@MS"))?;
                    plan.kill = Some(KillSpec {
                        rank: rank
                            .parse()
                            .map_err(|_| "kill rank unparsable".to_string())?,
                        at_ms: at.parse().map_err(|_| "kill time unparsable".to_string())?,
                    });
                }
                "stall" => {
                    let (rank, rest) = value
                        .split_once('@')
                        .ok_or_else(|| format!("stall `{value}` is not RANK@MS+DUR"))?;
                    let (at, dur) = rest
                        .split_once('+')
                        .ok_or_else(|| format!("stall `{value}` is not RANK@MS+DUR"))?;
                    plan.stall = Some(StallSpec {
                        rank: rank
                            .parse()
                            .map_err(|_| "stall rank unparsable".to_string())?,
                        at_ms: at
                            .parse()
                            .map_err(|_| "stall time unparsable".to_string())?,
                        dur_ms: dur
                            .parse()
                            .map_err(|_| "stall duration unparsable".to_string())?,
                    });
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The plan from [`ENV_FAULTS`], if set.  A malformed spec aborts the
    /// process — misconfigured chaos must not masquerade as a clean run.
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var(ENV_FAULTS).ok()?;
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("fatal: {ENV_FAULTS}={spec}: {e}");
                std::process::exit(2);
            }
        }
    }
}

impl fmt::Display for FaultPlan {
    /// The canonical spec string (round-trips through [`FaultPlan::parse`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if self.drop > 0.0 {
            write!(f, ",drop={}", self.drop)?;
        }
        if self.dup > 0.0 {
            write!(f, ",dup={}", self.dup)?;
        }
        if self.corrupt > 0.0 {
            write!(f, ",corrupt={}", self.corrupt)?;
        }
        if self.delay > 0.0 {
            write!(f, ",delay={}:{}", self.delay, self.delay_us)?;
        }
        if self.reorder > 0.0 {
            write!(f, ",reorder={}", self.reorder)?;
        }
        if let Some(k) = self.kill {
            write!(f, ",kill={}@{}", k.rank, k.at_ms)?;
        }
        if let Some(s) = self.stall {
            write!(f, ",stall={}@{}+{}", s.rank, s.at_ms, s.dur_ms)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec_round_trips() {
        let spec = "seed=7,drop=0.01,dup=0.005,corrupt=0.002,delay=0.01:500,reorder=0.01,kill=1@200,stall=0@100+250";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop, 0.01);
        assert_eq!(plan.delay_us, 500);
        assert_eq!(
            plan.kill,
            Some(KillSpec {
                rank: 1,
                at_ms: 200
            })
        );
        assert_eq!(
            plan.stall,
            Some(StallSpec {
                rank: 0,
                at_ms: 100,
                dur_ms: 250
            })
        );
        assert!(plan.active());
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("drop=-0.1").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("kill=1").is_err());
        assert!(FaultPlan::parse("stall=1@2").is_err());
    }

    #[test]
    fn empty_spec_is_inactive() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(!plan.active());
        assert!(!plan.fate(0, 1, 42, 0).any());
    }

    #[test]
    fn decisions_are_deterministic_and_frame_keyed() {
        let plan = FaultPlan {
            drop: 0.5,
            ..FaultPlan::parse("seed=3").unwrap()
        };
        // Same inputs, same fate.
        assert_eq!(plan.fate(0, 1, 10, 0), plan.fate(0, 1, 10, 0));
        // Retransmission attempts roll fresh.
        let dooms: Vec<bool> = (0..8).map(|a| plan.fate(0, 1, 10, a).drop).collect();
        assert!(
            dooms.iter().any(|d| !d),
            "some attempt must survive: {dooms:?}"
        );
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan {
            drop: 0.1,
            ..FaultPlan::default()
        };
        let n = 20_000;
        let dropped = (0..n).filter(|&s| plan.fate(0, 1, s, 0).drop).count();
        let rate = dropped as f64 / n as f64;
        assert!(
            (rate - 0.1).abs() < 0.01,
            "empirical drop rate {rate} far from 0.1"
        );
    }

    #[test]
    fn independent_streams_per_link() {
        let plan = FaultPlan {
            drop: 0.3,
            ..FaultPlan::default()
        };
        let a: Vec<bool> = (0..64).map(|s| plan.fate(0, 1, s, 0).drop).collect();
        let b: Vec<bool> = (0..64).map(|s| plan.fate(1, 0, s, 0).drop).collect();
        assert_ne!(a, b, "links must roll independent streams");
    }
}
