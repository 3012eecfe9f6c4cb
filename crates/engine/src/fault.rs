//! Fault injection and adversarial scheduling.
//!
//! The paper's headline trade-off — accepting a small failure probability
//! buys small state — raises the follow-up question of what the protocols
//! do under *adversarial execution*: transient state corruption
//! (self-stabilisation in the spirit of the shuffling/load-balancing
//! consensus line), mid-run opinion injection, crash-and-rejoin churn, and
//! biased pair schedulers. This module is the engine-level vocabulary for
//! those experiments:
//!
//! * [`FaultSpec`] — one scheduled strike (a parallel time, a fraction of
//!   agents, a [`Replacement`]). The engines' `run_faulted` methods take a
//!   list of them.
//! * [`SchedulerSpec`] — a pair-selection bias honored by both engines:
//!   per-opinion participation weights (the opinion-starving adversary)
//!   and assortativity (the pair-biased, like-with-like adversary).
//! * [`AdversarySpec`] — a Byzantine interaction adversary, static or
//!   aimed at the live [`OpinionCensus`].
//! * [`ChurnSpec`] — a steady-state join/leave process, driven by
//!   [`ChurnProcess`](crate::ChurnProcess).
//! * [`FaultRecord`] — the recovery bookkeeping attached to
//!   [`RunResult`](crate::RunResult) by `run_faulted`: output before the
//!   strike, time to reconverge, output after.
//!
//! Every spec is `Copy + FromStr + Display`, and the value the experiment
//! CLI parses is the value the engines run, so a configuration
//! round-trips through `--faults`/`--scheduler`/`--adversary`/`--churn`
//! flags and JSON manifests losslessly.
//!
//! All fault and scheduler randomness is drawn from the engine's own RNG
//! stream, so a (seed, faults, scheduler) triple replays byte-identically —
//! the same determinism contract the clean engines already honor.

use std::fmt;
use std::str::FromStr;

use crate::batch::multinomial::{binomial, multinomial_into};
use crate::batch::TableProtocol;
use crate::protocol::SimRng;

/// What a struck agent's state is replaced with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Replacement {
    /// A uniformly random protocol state (transient corruption).
    Random,
    /// A fresh agent holding the given opinion (mid-run injection).
    Opinion(u32),
    /// A fresh agent re-drawn from the initial configuration (an agent
    /// crashes, loses its state, and rejoins as if newly arrived).
    Rejoin,
}

/// Recovery bookkeeping for one fired fault, attached to
/// [`RunResult::faults`](crate::RunResult).
///
/// `recovery_time` is `NaN` when the run never reconverged after the
/// strike (either the budget ran out or a later fault struck first —
/// strikes supersede: only the most recent one is tracked for recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Parallel time at which the fault actually fired.
    pub at: f64,
    /// The fault's [`FaultSpec`] spelling.
    pub hook: String,
    /// Converged output immediately before the strike (`None`: the run had
    /// not converged when the fault hit).
    pub output_before: Option<u32>,
    /// Output at the first reconvergence after the strike (`None`: never
    /// reconverged).
    pub output_after: Option<u32>,
    /// Parallel time from the strike to the first reconvergence (`NaN` if
    /// the run never reconverged).
    pub recovery_time: f64,
}

impl FaultRecord {
    /// Whether the run reconverged after this strike.
    pub fn recovered(&self) -> bool {
        self.recovery_time.is_finite()
    }

    /// Whether the pre-strike winner survived the strike: the run was
    /// converged when the fault hit and reconverged to the same output.
    pub fn winner_survived(&self) -> bool {
        self.output_before.is_some() && self.output_before == self.output_after
    }

    /// Close the record at the first reconvergence after the strike.
    pub(crate) fn reconverged(&mut self, t: f64, output: u32) {
        self.recovery_time = t - self.at;
        self.output_after = Some(output);
    }
}

// ---------------------------------------------------------------------------
// Byzantine interaction adversaries.

/// A live opinion tally, the snapshot an adaptive adversary's forgery
/// choice sees once per batch/stride.
///
/// Built from `(opinion, support)` pairs by the engines — the sequential
/// engine tallies its state vector through
/// [`Protocol::opinion_of`](crate::Protocol::opinion_of), the batched
/// engine folds its counts vector through [`TableProtocol::opinion`] —
/// so one census type serves both. Helper/undecided states (no opinion)
/// are not represented.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpinionCensus {
    tallies: Vec<(u32, u64)>,
}

impl OpinionCensus {
    /// A census from `(opinion, support)` pairs. Duplicate opinions are
    /// merged; zero-support entries are dropped.
    pub fn from_tallies(tallies: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut merged: Vec<(u32, u64)> = Vec::new();
        for (op, c) in tallies {
            if c == 0 {
                continue;
            }
            match merged.iter_mut().find(|(o, _)| *o == op) {
                Some((_, total)) => *total += c,
                None => merged.push((op, c)),
            }
        }
        merged.sort_unstable();
        Self { tallies: merged }
    }

    /// The surviving `(opinion, support)` pairs, sorted by opinion.
    pub fn tallies(&self) -> &[(u32, u64)] {
        &self.tallies
    }

    /// The plurality opinion: maximum support, ties broken toward the
    /// smaller opinion id. `None` on an opinion-free census.
    pub fn leader(&self) -> Option<u32> {
        self.tallies
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|&(op, _)| op)
    }

    /// The strongest opinion that is not the leader (ties toward the
    /// smaller id). `None` unless at least two opinions survive.
    pub fn runner_up(&self) -> Option<u32> {
        let leader = self.leader()?;
        self.tallies
            .iter()
            .filter(|&&(op, _)| op != leader)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|&(op, _)| op)
    }

    /// The weakest surviving opinion: minimum support, ties broken toward
    /// the smaller opinion id. `None` on an opinion-free census.
    pub fn weakest(&self) -> Option<u32> {
        self.tallies
            .iter()
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|&(op, _)| op)
    }

    /// The weakest surviving opinion that is not the leader (ties toward
    /// the smaller id) — the one an anti-elimination adversary props up.
    /// `None` unless at least two opinions survive.
    pub fn weakest_non_leader(&self) -> Option<u32> {
        let leader = self.leader()?;
        self.tallies
            .iter()
            .filter(|&&(op, _)| op != leader)
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|&(op, _)| op)
    }
}

/// What liars claim this batch/stride, as an [`AdversarySpec`] chooses it
/// against the live census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forgery {
    /// A uniformly random protocol state per lie.
    Random,
    /// Every lie claims this opinion.
    Opinion(u32),
    /// Each lie claims one of the two opinions with probability ½ — the
    /// polarizing forgery that feeds both sides of a near-tie.
    Split(u32, u32),
}

/// How an adaptive adversary aims its lies at the live census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveStrategy {
    /// Every lie claims the current runner-up opinion — pumping the
    /// strongest rival to overturn the true plurality.
    BoostRunnerUp,
    /// Every lie claims the *weakest* surviving non-leader opinion — the
    /// anti-elimination attack that keeps insignificant opinions alive,
    /// directly targeting the paper's elimination phase.
    SuppressLeader,
    /// Lies split 50/50 between leader and runner-up, feeding both sides
    /// of the race to hold it at a tie.
    Split,
}

impl AdaptiveStrategy {
    /// The CLI/manifest spelling (`boost-runnerup`, `suppress-leader`,
    /// `split`).
    pub fn name(self) -> &'static str {
        match self {
            AdaptiveStrategy::BoostRunnerUp => "boost-runnerup",
            AdaptiveStrategy::SuppressLeader => "suppress-leader",
            AdaptiveStrategy::Split => "split",
        }
    }
}

impl FromStr for AdaptiveStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "boost-runnerup" => Ok(AdaptiveStrategy::BoostRunnerUp),
            "suppress-leader" => Ok(AdaptiveStrategy::SuppressLeader),
            "split" => Ok(AdaptiveStrategy::Split),
            _ => Err(format!(
                "adaptive strategy '{s}' is not boost-runnerup, suppress-leader or split"
            )),
        }
    }
}

/// A Byzantine interaction adversary: intercepts *individual*
/// interactions and makes a bounded fraction of participants lie about
/// their state.
///
/// A liar reports a forged state to its partner while keeping its own
/// state; the honest partner transitions against the forgery. When both
/// participants lie, neither learns anything and the interaction is a
/// no-op. The sequential engine flips a per-agent coin for each
/// participant; the batched engine realizes the same distribution through
/// an `O(S²)`-bounded binomial perturbation of the multinomial tally, so
/// the `n = 10⁸` fast path stays fast. Like [`SchedulerSpec`], an
/// adversary is declarative — a lying probability plus what the forgery
/// is — so one adversary drives a per-agent state vector and a counts
/// vector alike.
///
/// As CLI flag and manifest entry: `byz:FRAC` (random forgeries),
/// `byz:FRAC:OPINION` (fixed forged opinion) or `adaptive:FRAC[:STRATEGY]`
/// (census-aware forgeries; the strategy defaults to `boost-runnerup`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarySpec {
    /// The standard liar: each participant independently lies with
    /// probability `frac`, reporting either a fixed opinion or a uniformly
    /// random state.
    Byzantine {
        /// Probability that any given participant lies.
        frac: f64,
        /// Forged opinion (`None` = uniformly random state per lie).
        opinion: Option<u32>,
    },
    /// The census-aware liar: the same bounded lie fraction, but the
    /// forged opinion is re-aimed at the live census once per
    /// batch/stride according to an [`AdaptiveStrategy`].
    ///
    /// Every strategy degrades gracefully as opinions die out: with a
    /// single surviving opinion the runner-up/weakest targets vanish and
    /// the adversary falls back to boosting that opinion
    /// ([`AdaptiveStrategy::Split`]) or to random forgeries (the targeted
    /// strategies); with no opinions at all every strategy forges random
    /// states.
    Adaptive {
        /// Probability that any given participant lies.
        frac: f64,
        /// How lies are aimed at the live census.
        strategy: AdaptiveStrategy,
    },
}

impl AdversarySpec {
    /// Probability in `[0, 1]` that any given participant lies.
    pub(crate) fn lie_frac(self) -> f64 {
        match self {
            AdversarySpec::Byzantine { frac, .. } | AdversarySpec::Adaptive { frac, .. } => {
                frac.clamp(0.0, 1.0)
            }
        }
    }

    /// Whether the forgery depends on the live census. Engines skip the
    /// per-batch/per-stride census and refresh entirely when this is
    /// `false`, so static adversaries keep their exact cost (and RNG
    /// stream) from before adaptivity existed.
    pub(crate) fn adaptive(self) -> bool {
        matches!(self, AdversarySpec::Adaptive { .. })
    }

    /// The forgery for the coming batch/stride, chosen against the live
    /// census (a static forgery ignores it). Draws no randomness — the
    /// engines' replay contract assumes the census refresh is RNG-silent.
    pub(crate) fn forgery(self, census: &OpinionCensus) -> Forgery {
        let aimed = |op: Option<u32>| op.map_or(Forgery::Random, Forgery::Opinion);
        match self {
            AdversarySpec::Byzantine { opinion, .. } => aimed(opinion),
            AdversarySpec::Adaptive { strategy, .. } => match strategy {
                AdaptiveStrategy::BoostRunnerUp => aimed(census.runner_up()),
                AdaptiveStrategy::SuppressLeader => aimed(census.weakest_non_leader()),
                AdaptiveStrategy::Split => match (census.leader(), census.runner_up()) {
                    (Some(a), Some(b)) => Forgery::Split(a, b),
                    (Some(a), None) => Forgery::Opinion(a),
                    _ => Forgery::Random,
                },
            },
        }
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AdversarySpec::Byzantine {
                frac,
                opinion: Some(op),
            } => write!(f, "byz:{frac}:{op}"),
            AdversarySpec::Byzantine {
                frac,
                opinion: None,
            } => write!(f, "byz:{frac}"),
            // The strategy always prints, so the manifest spelling is
            // lossless even for the default.
            AdversarySpec::Adaptive { frac, strategy } => {
                write!(f, "adaptive:{frac}:{}", strategy.name())
            }
        }
    }
}

impl FromStr for AdversarySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || {
            format!("adversary '{s}' is not byz:FRAC, byz:FRAC:OPINION or adaptive:FRAC[:STRATEGY]")
        };
        let parts: Vec<&str> = s.split(':').collect();
        let frac_of = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|f| (0.0..=1.0).contains(f))
                .ok_or_else(err)
        };
        match parts.as_slice() {
            ["byz", frac] => Ok(AdversarySpec::Byzantine {
                frac: frac_of(frac)?,
                opinion: None,
            }),
            ["byz", frac, op] => Ok(AdversarySpec::Byzantine {
                frac: frac_of(frac)?,
                opinion: Some(op.parse::<u32>().map_err(|_| err())?),
            }),
            ["adaptive", frac] => Ok(AdversarySpec::Adaptive {
                frac: frac_of(frac)?,
                strategy: AdaptiveStrategy::BoostRunnerUp,
            }),
            ["adaptive", frac, strat] => Ok(AdversarySpec::Adaptive {
                frac: frac_of(frac)?,
                strategy: strat.parse().map_err(|_| err())?,
            }),
            _ => Err(err()),
        }
    }
}

/// Which agents a targeted churn process removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ChurnTarget {
    /// Uniformly random departures — the classic churn model.
    #[default]
    Uniform,
    /// Departures drawn from agents advocating the current plurality
    /// opinion — the adversary bleeds the winner.
    Plurality,
    /// Departures drawn from agents advocating the weakest surviving
    /// opinion — accelerated elimination pressure.
    Minority,
}

impl ChurnTarget {
    /// The CLI/manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            ChurnTarget::Uniform => "uniform",
            ChurnTarget::Plurality => "plurality",
            ChurnTarget::Minority => "minority",
        }
    }
}

/// A steady-state churn process as CLI flag and manifest entry:
/// `churn:JOIN` (leave rate = join rate), `churn:JOIN:LEAVE`, or
/// `churn:JOIN:LEAVE:TARGET` (`plurality` / `minority` departure
/// targeting), rates in expected events per agent per unit of parallel
/// time.
///
/// Distinct from the one-shot [`FaultSpec::Churn`] epoch strike
/// (`churn@AT:FRAC`, note the `@`): this spec describes a *continuous*
/// Poisson join/leave process driven by
/// [`ChurnProcess`](crate::ChurnProcess).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChurnSpec {
    /// Expected joins per agent per unit of parallel time.
    pub join: f64,
    /// Expected leaves per agent per unit of parallel time.
    pub leave: f64,
    /// Which agents the departures hit.
    pub target: ChurnTarget,
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Uniform spellings are unchanged from before targeting existed
        // (manifest stability); targeted churn always prints the 4-part
        // form.
        match self.target {
            ChurnTarget::Uniform if self.join == self.leave => write!(f, "churn:{}", self.join),
            ChurnTarget::Uniform => write!(f, "churn:{}:{}", self.join, self.leave),
            t => write!(f, "churn:{}:{}:{}", self.join, self.leave, t.name()),
        }
    }
}

impl FromStr for ChurnSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || {
            format!(
                "churn '{s}' is not churn:JOIN, churn:JOIN:LEAVE or churn:JOIN:LEAVE:TARGET \
                 (target: plurality or minority)"
            )
        };
        let rate_of = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r >= 0.0)
                .ok_or_else(err)
        };
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["churn", join] => {
                let join = rate_of(join)?;
                Ok(ChurnSpec {
                    join,
                    leave: join,
                    target: ChurnTarget::Uniform,
                })
            }
            ["churn", join, leave] => Ok(ChurnSpec {
                join: rate_of(join)?,
                leave: rate_of(leave)?,
                target: ChurnTarget::Uniform,
            }),
            ["churn", join, leave, target] => {
                let target = match *target {
                    "plurality" => ChurnTarget::Plurality,
                    "minority" => ChurnTarget::Minority,
                    // `uniform` is not accepted here: the uniform spelling
                    // is the 2-/3-part form, keeping Display∘FromStr
                    // canonical.
                    _ => return Err(err()),
                };
                Ok(ChurnSpec {
                    join: rate_of(join)?,
                    leave: rate_of(leave)?,
                    target,
                })
            }
            _ => Err(err()),
        }
    }
}

// ---------------------------------------------------------------------------
// Faults and schedulers.

/// A fault: fires once, at a scheduled parallel time, striking a random
/// fraction of the population. As CLI flag and manifest entry:
/// `corrupt@AT:FRAC`, `inject@AT:FRAC:OPINION` or `churn@AT:FRAC`.
///
/// Faults are deliberately *declarative* (a time, a fraction and a
/// [`Replacement`]) rather than closures over engine state: the same fault
/// applies to a
/// per-agent state vector (sequential engine) and to a counts vector
/// (batched engine) without knowing which it runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Transient state corruption: each agent is flipped to a uniformly
    /// random protocol state with probability `frac`.
    Corrupt {
        /// Parallel time of the strike.
        at: f64,
        /// Fraction of agents struck.
        frac: f64,
    },
    /// Mid-run opinion injection: each agent is replaced by a fresh agent
    /// holding `opinion` with probability `frac` — the adversary floods
    /// the population with a chosen (typically runner-up) opinion.
    Inject {
        /// Parallel time of the strike.
        at: f64,
        /// Fraction of agents struck.
        frac: f64,
        /// The injected opinion.
        opinion: u32,
    },
    /// Crash-and-rejoin churn: each agent crashes with probability
    /// `frac`, losing all protocol state, and rejoins immediately as a
    /// fresh agent in an initial-configuration state.
    Churn {
        /// Parallel time of the strike.
        at: f64,
        /// Fraction of agents churned.
        frac: f64,
    },
}

impl FaultSpec {
    /// Parallel time at which the fault fires.
    pub(crate) fn at(self) -> f64 {
        match self {
            FaultSpec::Corrupt { at, .. }
            | FaultSpec::Inject { at, .. }
            | FaultSpec::Churn { at, .. } => at,
        }
    }

    /// The strike: the independent probability, clamped to `[0, 1]`, that
    /// an agent is hit, and what a struck agent becomes.
    pub(crate) fn strike(self) -> (f64, Replacement) {
        let (frac, replacement) = match self {
            FaultSpec::Corrupt { frac, .. } => (frac, Replacement::Random),
            FaultSpec::Inject { frac, opinion, .. } => (frac, Replacement::Opinion(opinion)),
            FaultSpec::Churn { frac, .. } => (frac, Replacement::Rejoin),
        };
        (frac.clamp(0.0, 1.0), replacement)
    }

    /// Parse a comma-separated fault list (the `--faults` flag value).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry.
    pub fn parse_list(s: &str) -> Result<Vec<FaultSpec>, String> {
        s.split(',')
            .filter(|p| !p.is_empty())
            .map(str::parse)
            .collect()
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultSpec::Corrupt { at, frac } => write!(f, "corrupt@{at}:{frac}"),
            FaultSpec::Inject { at, frac, opinion } => write!(f, "inject@{at}:{frac}:{opinion}"),
            FaultSpec::Churn { at, frac } => write!(f, "churn@{at}:{frac}"),
        }
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || {
            format!("fault '{s}' is not corrupt@AT:FRAC, inject@AT:FRAC:OPINION or churn@AT:FRAC")
        };
        let (kind, rest) = s.split_once('@').ok_or_else(err)?;
        let parts: Vec<&str> = rest.split(':').collect();
        let num = |v: &str| v.parse::<f64>().map_err(|_| err());
        let frac_ok = |frac: f64| (0.0..=1.0).contains(&frac);
        let at_ok = |at: f64| at.is_finite() && at >= 0.0;
        match (kind, parts.as_slice()) {
            ("corrupt", [at, frac]) => {
                let (at, frac) = (num(at)?, num(frac)?);
                (frac_ok(frac) && at_ok(at))
                    .then_some(FaultSpec::Corrupt { at, frac })
                    .ok_or_else(err)
            }
            ("inject", [at, frac, opinion]) => {
                let (at, frac) = (num(at)?, num(frac)?);
                let opinion = opinion.parse::<u32>().map_err(|_| err())?;
                (frac_ok(frac) && at_ok(at))
                    .then_some(FaultSpec::Inject { at, frac, opinion })
                    .ok_or_else(err)
            }
            ("churn", [at, frac]) => {
                let (at, frac) = (num(at)?, num(frac)?);
                (frac_ok(frac) && at_ok(at))
                    .then_some(FaultSpec::Churn { at, frac })
                    .ok_or_else(err)
            }
            _ => Err(err()),
        }
    }
}

/// A pair-selection bias, honored by both engines.
///
/// Schedulers are expressed over *opinions* (via
/// [`Protocol::opinion_of`](crate::Protocol::opinion_of) /
/// [`TableProtocol::opinion`]) so one scheduler applies uniformly to
/// per-agent protocols and transition tables. Two knobs compose: a
/// per-opinion participation weight in `[0, 1]` (the sequential engine
/// realizes it by bounded rejection sampling, the batched engine by
/// weighted multinomial tallies), and an assortativity — the probability
/// that the responder is forced to share the initiator's opinion
/// (like-with-like pairing), starving the cross-opinion interactions most
/// protocols rely on.
///
/// As CLI flag and manifest entry: `uniform`, `pairbias:A` or
/// `starve:OPINION:WEIGHT`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerSpec {
    /// The uniform scheduler — identical to passing no scheduler at all:
    /// the engines install nothing for it.
    Uniform,
    /// The pair-biased adversary: with probability `assort` the responder
    /// is forced to share the initiator's opinion.
    PairBias {
        /// Probability of a forced like-with-like pairing.
        assort: f64,
    },
    /// The opinion-starving adversary: agents advocating `opinion`
    /// participate with relative weight `weight < 1`, slowing every
    /// interaction the opinion is part of.
    Starve {
        /// The starved opinion.
        opinion: u32,
        /// Relative participation weight in `(0, 1)`.
        weight: f64,
    },
}

impl SchedulerSpec {
    /// Relative weight in `[0, 1]` with which an agent advocating
    /// `opinion` is drawn (`None` = undecided/helper agents).
    pub(crate) fn opinion_weight(self, opinion: Option<u32>) -> f64 {
        match self {
            // Weight 0 is meaningful: it makes saturation (the starved
            // opinion is the only one left, so every candidate is vetoed)
            // reachable. The engines detect that case, degrade to uniform
            // sampling and record `RunNote::SchedulerSaturated`.
            SchedulerSpec::Starve {
                opinion: starved,
                weight,
            } if opinion == Some(starved) => weight.clamp(0.0, 1.0),
            _ => 1.0,
        }
    }

    /// Probability that the responder is forced to share the initiator's
    /// opinion.
    pub(crate) fn assortativity(self) -> f64 {
        match self {
            SchedulerSpec::PairBias { assort } => assort.clamp(0.0, 1.0),
            _ => 0.0,
        }
    }
}

/// Bound on rejection-sampling retries in biased pair draws. Adversarial
/// weights degrade the bias rather than livelock the engine: after this
/// many rejected draws the last candidate is accepted unconditionally.
pub const SCHEDULER_RETRIES: u32 = 16;

/// Consecutive fully-exhausted rejection loops after which the sequential
/// engine declares the scheduler saturated (every candidate vetoed — e.g.
/// the starved opinion is the only one left at weight 0), degrades to
/// uniform sampling for the rest of the run, and records
/// [`RunNote::SchedulerSaturated`](crate::RunNote).
pub const SCHEDULER_SATURATION_STREAK: u32 = 3;

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchedulerSpec::Uniform => write!(f, "uniform"),
            SchedulerSpec::PairBias { assort } => write!(f, "pairbias:{assort}"),
            SchedulerSpec::Starve { opinion, weight } => write!(f, "starve:{opinion}:{weight}"),
        }
    }
}

impl FromStr for SchedulerSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err =
            || format!("scheduler '{s}' is not uniform, pairbias:ASSORT or starve:OPINION:WEIGHT");
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["uniform"] => Ok(SchedulerSpec::Uniform),
            ["pairbias", a] => {
                let assort = a.parse::<f64>().map_err(|_| err())?;
                (0.0..=1.0)
                    .contains(&assort)
                    .then_some(SchedulerSpec::PairBias { assort })
                    .ok_or_else(err)
            }
            ["starve", op, w] => {
                let opinion = op.parse::<u32>().map_err(|_| err())?;
                let weight = w.parse::<f64>().map_err(|_| err())?;
                (weight > 0.0 && weight <= 1.0)
                    .then_some(SchedulerSpec::Starve { opinion, weight })
                    .ok_or_else(err)
            }
            _ => Err(err()),
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration-level strike (the batched engine's).

/// A [`Forgery`] resolved to the batched engine's state space: what state
/// index (or pair of indices) liars report this batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LieTarget {
    /// A uniformly random state per lie.
    Random,
    /// Every lie reports this state.
    Fixed(usize),
    /// Each lie reports one of the two states with probability ½.
    Pair(usize, usize),
}

/// Resolve an opinion-level [`Forgery`] to the table's state space via
/// [`TableProtocol::opinion_state`]. Mirrors the sequential engine's
/// `fault_state` contract: an unmappable fixed opinion degrades to
/// honesty (`None`), a split with one unmappable side degrades to the
/// other side alone, and a fully unmappable split degrades to honesty.
pub fn resolve_forgery<P: TableProtocol + ?Sized>(
    protocol: &P,
    forgery: Forgery,
) -> Option<LieTarget> {
    match forgery {
        Forgery::Random => Some(LieTarget::Random),
        Forgery::Opinion(op) => protocol.opinion_state(op).map(LieTarget::Fixed),
        Forgery::Split(a, b) => match (protocol.opinion_state(a), protocol.opinion_state(b)) {
            (Some(a), Some(b)) => Some(LieTarget::Pair(a, b)),
            (Some(s), None) | (None, Some(s)) => Some(LieTarget::Fixed(s)),
            (None, None) => None,
        },
    }
}

/// Apply `fault`'s strike to a configuration-space population: victims are drawn
/// by per-state binomial thinning (statistically identical to independent
/// per-agent coin flips, `O(S)` at any `n` — the reason the `n = 10⁸`
/// fast path stays fast), then re-inserted according to the replacement.
///
/// * [`Replacement::Random`] — victims scatter uniformly over the state
///   space.
/// * [`Replacement::Opinion`] — victims enter
///   [`TableProtocol::opinion_state`]; tables without a state for that
///   opinion degrade to a no-op strike (victims keep their states).
/// * [`Replacement::Rejoin`] — victims are re-drawn from the *initial*
///   configuration's distribution.
pub fn strike_counts<P: TableProtocol + ?Sized>(
    protocol: &P,
    counts: &mut [u64],
    initial: &[u64],
    fault: FaultSpec,
    rng: &mut SimRng,
) {
    let (frac, replacement) = fault.strike();
    if frac <= 0.0 {
        return;
    }
    let mut victims = vec![0u64; counts.len()];
    let mut total = 0u64;
    for (c, v) in counts.iter_mut().zip(victims.iter_mut()) {
        *v = binomial(rng, *c, frac);
        *c -= *v;
        total += *v;
    }
    if total == 0 {
        return;
    }
    let mut out = Vec::new();
    match replacement {
        Replacement::Random => {
            let uniform = vec![1u64; counts.len()];
            multinomial_into(rng, total, &uniform, counts.len() as u64, &mut out);
        }
        Replacement::Opinion(op) => match protocol.opinion_state(op) {
            Some(s) => out.push((s, total)),
            None => out.extend(victims.iter().enumerate().map(|(s, &v)| (s, v))),
        },
        Replacement::Rejoin => {
            let initial_total: u64 = initial.iter().sum();
            multinomial_into(rng, total, initial, initial_total, &mut out);
        }
    }
    for (s, c) in out {
        counts[s] += c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Minimal 3-state table with opinions 1 and 2 on states 1 and 2.
    #[derive(Debug)]
    struct T3;
    impl TableProtocol for T3 {
        fn states(&self) -> usize {
            3
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            (a, b)
        }
        fn output(&self, _counts: &[u64]) -> Option<u32> {
            None
        }
        fn opinion(&self, s: usize) -> Option<u32> {
            (s > 0).then_some(s as u32)
        }
        fn opinion_state(&self, opinion: u32) -> Option<usize> {
            (1..=2).contains(&opinion).then_some(opinion as usize)
        }
    }

    #[test]
    fn specs_round_trip_through_display_and_parse() {
        let specs = [
            FaultSpec::Corrupt {
                at: 50.0,
                frac: 0.1,
            },
            FaultSpec::Inject {
                at: 12.5,
                frac: 0.25,
                opinion: 3,
            },
            FaultSpec::Churn {
                at: 80.0,
                frac: 0.05,
            },
        ];
        for s in specs {
            let printed = s.to_string();
            assert_eq!(printed.parse::<FaultSpec>(), Ok(s), "{printed}");
        }
        let joined = specs.map(|s| s.to_string()).join(",");
        assert_eq!(FaultSpec::parse_list(&joined), Ok(specs.to_vec()));

        for s in [
            SchedulerSpec::Uniform,
            SchedulerSpec::PairBias { assort: 0.3 },
            SchedulerSpec::Starve {
                opinion: 1,
                weight: 0.5,
            },
        ] {
            let printed = s.to_string();
            assert_eq!(printed.parse::<SchedulerSpec>(), Ok(s), "{printed}");
        }

        for s in [
            AdversarySpec::Byzantine {
                frac: 0.1,
                opinion: None,
            },
            AdversarySpec::Byzantine {
                frac: 0.25,
                opinion: Some(2),
            },
            AdversarySpec::Adaptive {
                frac: 0.05,
                strategy: AdaptiveStrategy::BoostRunnerUp,
            },
            AdversarySpec::Adaptive {
                frac: 0.1,
                strategy: AdaptiveStrategy::SuppressLeader,
            },
            AdversarySpec::Adaptive {
                frac: 0.0,
                strategy: AdaptiveStrategy::Split,
            },
        ] {
            let printed = s.to_string();
            assert_eq!(printed.parse::<AdversarySpec>(), Ok(s), "{printed}");
        }
        // The strategy-free spelling defaults to boost-runnerup.
        assert_eq!(
            "adaptive:0.1".parse::<AdversarySpec>(),
            Ok(AdversarySpec::Adaptive {
                frac: 0.1,
                strategy: AdaptiveStrategy::BoostRunnerUp,
            })
        );

        for s in [
            ChurnSpec {
                join: 0.01,
                leave: 0.01,
                target: ChurnTarget::Uniform,
            },
            ChurnSpec {
                join: 0.02,
                leave: 0.005,
                target: ChurnTarget::Uniform,
            },
            ChurnSpec {
                join: 0.01,
                leave: 0.01,
                target: ChurnTarget::Plurality,
            },
            ChurnSpec {
                join: 0.0,
                leave: 0.02,
                target: ChurnTarget::Minority,
            },
        ] {
            let printed = s.to_string();
            assert_eq!(printed.parse::<ChurnSpec>(), Ok(s), "{printed}");
        }
        // Uniform spellings are byte-identical to before targeting
        // existed; targeted churn always prints the 4-part form.
        assert_eq!(
            ChurnSpec {
                join: 0.01,
                leave: 0.01,
                target: ChurnTarget::Uniform,
            }
            .to_string(),
            "churn:0.01"
        );
        assert_eq!(
            ChurnSpec {
                join: 0.01,
                leave: 0.02,
                target: ChurnTarget::Plurality,
            }
            .to_string(),
            "churn:0.01:0.02:plurality"
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "corrupt",
            "corrupt@x:0.1",
            "corrupt@10:1.5",
            "corrupt@-5:0.1",
            "corrupt@inf:0.1",
            "inject@10:0.1",
            "inject@-1:0.1:2",
            "meteor@10:0.1",
            "",
        ] {
            assert!(bad.parse::<FaultSpec>().is_err(), "{bad:?} should fail");
        }
        for bad in ["warp", "pairbias:2.0", "starve:1:0", "starve:1"] {
            assert!(bad.parse::<SchedulerSpec>().is_err(), "{bad:?} should fail");
        }
        for bad in [
            "byz",
            "byz:1.5",
            "byz:-0.1",
            "byz:0.1:x",
            "lie:0.1",
            "",
            "adaptive",
            "adaptive:1.5",
            "adaptive:0.1:warp",
            "adaptive:0.1:boost-runnerup:2",
        ] {
            assert!(bad.parse::<AdversarySpec>().is_err(), "{bad:?} should fail");
        }
        for bad in [
            "churn",
            "churn:-1",
            "churn:0.1:-2",
            "churn:inf",
            "x:0.1",
            "churn:0.1:0.1:everyone",
            // `uniform` is not a valid 4th field — the uniform spelling is
            // the 2-/3-part form.
            "churn:0.1:0.1:uniform",
            "churn:0.1:0.1:plurality:9",
        ] {
            assert!(bad.parse::<ChurnSpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn byzantine_adversary_semantics() {
        let a = AdversarySpec::Byzantine {
            frac: 0.2,
            opinion: Some(1),
        };
        assert_eq!(a.lie_frac(), 0.2);
        assert_eq!(a.to_string(), "byz:0.2:1");
        let random = AdversarySpec::Byzantine {
            frac: 1.5,
            opinion: None,
        };
        assert_eq!(random.lie_frac(), 1.0, "frac clamps into [0, 1]");
        assert_eq!(random.to_string(), "byz:1.5");
        // Static adversaries are non-adaptive and their forgery ignores
        // the census.
        assert!(!a.adaptive());
        let census = OpinionCensus::from_tallies([(1, 10), (2, 90)]);
        assert_eq!(a.forgery(&census), Forgery::Opinion(1));
        assert_eq!(random.forgery(&census), Forgery::Random);
    }

    #[test]
    fn census_extremes_and_tie_breaks() {
        let c = OpinionCensus::from_tallies([(3, 50), (1, 200), (2, 200), (4, 10), (5, 0)]);
        assert_eq!(c.leader(), Some(1), "support tie breaks to the smaller id");
        assert_eq!(c.runner_up(), Some(2));
        assert_eq!(c.weakest_non_leader(), Some(4), "zero-support entries drop");
        assert_eq!(c.tallies().len(), 4);

        let unanimous = OpinionCensus::from_tallies([(7, 100)]);
        assert_eq!(unanimous.leader(), Some(7));
        assert_eq!(unanimous.runner_up(), None);
        assert_eq!(unanimous.weakest_non_leader(), None);

        let empty = OpinionCensus::default();
        assert_eq!(empty.leader(), None);

        // Duplicate tallies merge (the sequential engine can emit one pair
        // per agent).
        let merged = OpinionCensus::from_tallies([(1, 5), (2, 3), (1, 5)]);
        assert_eq!(merged.tallies(), &[(1, 10), (2, 3)]);
    }

    #[test]
    fn adaptive_strategies_aim_at_the_census() {
        let census = OpinionCensus::from_tallies([(1, 500), (2, 300), (3, 50)]);
        let strat = |strategy| AdversarySpec::Adaptive {
            frac: 0.1,
            strategy,
        };
        assert_eq!(
            strat(AdaptiveStrategy::BoostRunnerUp).forgery(&census),
            Forgery::Opinion(2)
        );
        assert_eq!(
            strat(AdaptiveStrategy::SuppressLeader).forgery(&census),
            Forgery::Opinion(3),
            "suppress-leader props up the weakest rival"
        );
        assert_eq!(
            strat(AdaptiveStrategy::Split).forgery(&census),
            Forgery::Split(1, 2)
        );

        // Degradation as opinions die out.
        let unanimous = OpinionCensus::from_tallies([(2, 100)]);
        assert_eq!(
            strat(AdaptiveStrategy::BoostRunnerUp).forgery(&unanimous),
            Forgery::Random
        );
        assert_eq!(
            strat(AdaptiveStrategy::Split).forgery(&unanimous),
            Forgery::Opinion(2)
        );
        let empty = OpinionCensus::default();
        for s in [
            AdaptiveStrategy::BoostRunnerUp,
            AdaptiveStrategy::SuppressLeader,
            AdaptiveStrategy::Split,
        ] {
            assert_eq!(strat(s).forgery(&empty), Forgery::Random);
        }

        let a = strat(AdaptiveStrategy::Split);
        assert!(a.adaptive());
        assert_eq!(a.to_string(), "adaptive:0.1:split");
    }

    #[test]
    fn forgeries_resolve_to_table_states_with_graceful_degradation() {
        assert_eq!(
            resolve_forgery(&T3, Forgery::Random),
            Some(LieTarget::Random)
        );
        assert_eq!(
            resolve_forgery(&T3, Forgery::Opinion(2)),
            Some(LieTarget::Fixed(2))
        );
        assert_eq!(resolve_forgery(&T3, Forgery::Opinion(9)), None);
        assert_eq!(
            resolve_forgery(&T3, Forgery::Split(1, 2)),
            Some(LieTarget::Pair(1, 2))
        );
        assert_eq!(
            resolve_forgery(&T3, Forgery::Split(1, 9)),
            Some(LieTarget::Fixed(1)),
            "half-unmappable split degrades to the mappable side"
        );
        assert_eq!(resolve_forgery(&T3, Forgery::Split(8, 9)), None);
    }

    #[test]
    fn fault_specs_resolve_to_their_strikes() {
        let strikes: Vec<_> = FaultSpec::parse_list("corrupt@20:0.2,inject@30:0.5:2,churn@80:1")
            .expect("specs parse")
            .into_iter()
            .map(|s| (s.at(), s.strike()))
            .collect();
        assert_eq!(
            strikes,
            [
                (20.0, (0.2, Replacement::Random)),
                (30.0, (0.5, Replacement::Opinion(2))),
                (80.0, (1.0, Replacement::Rejoin)),
            ]
        );
    }

    #[test]
    fn strike_counts_conserves_population() {
        let mut rng = SimRng::seed_from_u64(7);
        let initial = [0u64, 700, 300];
        for fault in
            FaultSpec::parse_list("corrupt@0:0.3,inject@0:0.3:2,churn@0:0.3").expect("specs parse")
        {
            let mut counts = vec![0u64, 900, 100];
            strike_counts(&T3, &mut counts, &initial, fault, &mut rng);
            assert_eq!(counts.iter().sum::<u64>(), 1000, "{fault} must conserve n");
        }
    }

    #[test]
    fn opinion_strike_moves_mass_to_the_target_state() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut counts = vec![0u64, 1000, 0];
        let inject = "inject@0:0.5:2".parse().expect("spec parses");
        strike_counts(&T3, &mut counts, &[0, 1000, 0], inject, &mut rng);
        assert!(counts[2] > 300, "injected mass: {counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn unsupported_opinion_strike_is_a_noop() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut counts = vec![10u64, 500, 490];
        let inject = "inject@0:0.4:9".parse().expect("spec parses");
        strike_counts(&T3, &mut counts, &[10, 500, 490], inject, &mut rng);
        assert_eq!(counts, vec![10, 500, 490]);
    }

    #[test]
    fn scheduler_weights_and_assortativity() {
        let starve = SchedulerSpec::Starve {
            opinion: 2,
            weight: 0.25,
        };
        assert_eq!(starve.opinion_weight(Some(2)), 0.25);
        assert_eq!(starve.opinion_weight(Some(1)), 1.0);
        assert_eq!(starve.opinion_weight(None), 1.0);
        assert_eq!(starve.assortativity(), 0.0);

        let pair = SchedulerSpec::PairBias { assort: 0.4 };
        assert_eq!(pair.assortativity(), 0.4);
        assert_eq!(pair.opinion_weight(Some(1)), 1.0);
        assert_eq!(SchedulerSpec::Uniform.opinion_weight(None), 1.0);
        assert_eq!(SchedulerSpec::Uniform.assortativity(), 0.0);
    }

    #[test]
    fn fault_record_survival_semantics() {
        let r = FaultRecord {
            at: 50.0,
            hook: "corrupt@50:0.1".into(),
            output_before: Some(1),
            output_after: Some(1),
            recovery_time: 4.2,
        };
        assert!(r.recovered() && r.winner_survived());
        let flipped = FaultRecord {
            output_after: Some(2),
            ..r.clone()
        };
        assert!(flipped.recovered() && !flipped.winner_survived());
        let never = FaultRecord {
            output_after: None,
            recovery_time: f64::NAN,
            ..r.clone()
        };
        assert!(!never.recovered() && !never.winner_survived());
        let unconverged_before = FaultRecord {
            output_before: None,
            ..r
        };
        assert!(!unconverged_before.winner_survived());
    }
}
