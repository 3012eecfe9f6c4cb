//! Stream pins: every engine's observable trajectory, hashed and compared
//! against digests recorded once.
//!
//! The determinism suites compare two runs of the *same* code, so a
//! refactor that moves every run onto a consistently different RNG stream
//! passes them. These pins do not: each digest folds a run's final
//! configuration, raw RNG state, interaction count and every field of its
//! fault records and churn series (floats by their bit patterns) into one
//! FNV-1a hash. A digest changes only when an output does; such a change
//! must be deliberate and stated, never re-recorded to make a refactor
//! pass.
//!
//! Coverage: the sequential engine at `n = 1,000` on `SeqTable` over
//! 3-state majority, 4-state majority and USD k = 3, and the batched
//! engine at `n = 10⁴` on `ThreeState` and on `UsdTable::new(4)` (which
//! takes the lumped tally), each in a clean run, a faulted run, under two
//! schedulers, under two adversaries and under a scheduler and an
//! adversary on a faulted run (sequential USD skips the two faulted
//! runs); 3-state majority on the sequential engine at `n = 10⁶`, clean
//! and under `pairbias:0.3`; two churned runs on each batched table, the
//! only engine that churns; the `ppckpt` bytes a churned segment run
//! writes; adversarial runs of `ThreeState` and `UsdTable::new(2)` at
//! `n = 4·10⁶`, whose batches (`ℓ ≈ 1,250` interactions, against about
//! 63 at `n = 10⁴`) split over initiators with many interactions per
//! subtree; and clean runs of `ThreeState` and `UsdTable::new(64)` at
//! `n = 10⁸`, the benchmark's regime, whose lumped batches (`ℓ ≈ 6,300`)
//! draw most of their cells with the large-mean binomial sampler. The
//! paper's three protocols are pinned on the sequential engine at
//! `n = 400`, each in a clean run to consensus and in a faulted, a
//! scheduled and an adversarial run, `Algorithm::Improved` also on
//! `one_large(1000, 4, 400)`, clean to consensus, and each algorithm on
//! `bias_one(2000, 8)`, clean to consensus at its own seed.

use exact_plurality::baselines::UsdTable;
use exact_plurality::core::tournament::Milestones;
use exact_plurality::engine::{AdversarySpec, ChurnProcess, RunResult, SegmentRunner, TallyPaths};
use exact_plurality::majority::{four_state_counts, FourState, ThreeState};
use exact_plurality::prelude::*;

// The engine entry points the pins drive.

const FAULTS: &str = "corrupt@20:0.2,churn@40:0.1,inject@60:0.2:2";

fn faults() -> Vec<FaultSpec> {
    FaultSpec::parse_list(FAULTS).expect("faults parse")
}

fn scheduler(spec: &str) -> SchedulerSpec {
    spec.parse().expect("scheduler parses")
}

fn adversary(spec: &str) -> AdversarySpec {
    spec.parse().expect("adversary parses")
}

// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn raw(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<u32>) {
        self.u64(v.map_or(u64::MAX, u64::from));
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.raw(b);
    }

    fn result(&mut self, r: &RunResult) {
        self.u64(u64::from(r.status == RunStatus::Converged));
        self.opt(r.output);
        self.u64(r.interactions);
        self.f64(r.parallel_time);
        self.u64(r.faults.len() as u64);
        for f in &r.faults {
            self.f64(f.at);
            self.bytes(f.hook.as_bytes());
            self.opt(f.output_before);
            self.opt(f.output_after);
            self.f64(f.recovery_time);
        }
        self.u64(r.series.len() as u64);
        for s in &r.series {
            self.f64(s.t);
            self.u64(s.population);
            self.f64(s.plurality_frac);
            self.opt(s.output);
        }
        self.u64(r.notes.len() as u64);
    }
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Clean,
    Faulted,
    Churned(&'static str),
    Scheduler(&'static str),
    Adversary(&'static str),
    /// A faulted run under `pairbias:0.3` and `byz:0.05:2` together.
    Hostile,
    /// A run under the given fault plan.
    FaultPlan(&'static str),
}

const MODES: [Mode; 9] = [
    Mode::Clean,
    Mode::Faulted,
    Mode::Churned("churn:0.004:0.006"),
    Mode::Churned("churn:0:0.05:plurality"),
    Mode::Scheduler("starve:1:0.5"),
    Mode::Scheduler("pairbias:0.3"),
    Mode::Adversary("byz:0.05:1"),
    Mode::Adversary("adaptive:0.05:split"),
    Mode::Hostile,
];

const SEED: u64 = 5;
const BUDGET: f64 = 200.0;
const CHURN_STOP: f64 = 40.0;

/// The large-population pins: three adversaries, two parallel-time
/// units. On the 60/40 start the runner-up stays opinion 2, so
/// `adaptive:0.05` aims every batch where `byz:0.05:2` does and draws the
/// same stream; `split` forges a pair of opinions instead.
const LARGE_N: usize = 4_000_000;
const LARGE_BUDGET: f64 = 2.0;
const LARGE_MODES: [Mode; 3] = [
    Mode::Adversary("byz:0.05:2"),
    Mode::Adversary("adaptive:0.05"),
    Mode::Adversary("adaptive:0.05:split"),
];

/// Drive one engine (anything with the shared run/knob methods) in one
/// mode and return its run result. Churned modes run only on the batched
/// engine, in [`batch_digest`].
macro_rules! drive {
    ($sim:expr, $mode:expr, $opts:expr) => {{
        let sim = &mut $sim;
        match $mode {
            Mode::Clean => sim.run(&$opts),
            Mode::Faulted => sim.run_faulted(&$opts, &faults()),
            Mode::Churned(_) => unreachable!("only the batched engine churns"),
            Mode::Scheduler(spec) => {
                sim.set_scheduler(scheduler(spec));
                sim.run(&$opts)
            }
            Mode::Adversary(spec) => {
                sim.set_adversary(adversary(spec));
                sim.run(&$opts)
            }
            Mode::Hostile => {
                sim.set_scheduler(scheduler("pairbias:0.3"));
                sim.set_adversary(adversary("byz:0.05:2"));
                sim.run_faulted(&$opts, &faults())
            }
            Mode::FaultPlan(spec) => {
                sim.run_faulted(&$opts, &FaultSpec::parse_list(spec).expect("faults parse"))
            }
        }
    }};
}

/// Fold a sequential run of `table` from `init` (agents contiguous by
/// state): its result, clock, RNG state and each agent's table-state
/// index.
fn seq_digest<P: TableProtocol>(table: P, init: &[u64], mode: Mode, budget: f64) -> u64 {
    let n: u64 = init.iter().sum();
    let states = SeqTable::<P>::initial_states(init);
    let mut sim = Simulation::new(SeqTable::new(table), states.clone(), SEED);
    let opts = RunOptions::with_parallel_time_budget(n as usize, budget);
    let r = drive!(sim, mode, opts);
    let mut h = Fnv::new();
    h.result(&r);
    h.u64(sim.interactions());
    for w in sim.rng_state() {
        h.u64(w);
    }
    h.u64(sim.states().len() as u64);
    for &s in sim.states() {
        h.u64(u64::from(s));
    }
    h.0
}

fn batch_digest<P: TableProtocol>(table: P, init: Vec<u64>, mode: Mode, budget: f64) -> u64 {
    let n: u64 = init.iter().sum();
    let mut sim = BatchSimulation::new(table, init.clone(), SEED);
    let opts = RunOptions::with_parallel_time_budget(n as usize, budget);
    let r = match mode {
        Mode::Churned(spec) => {
            let churn = ChurnProcess::new(spec.parse().expect("churn parses"));
            sim.run_churned(&opts, &churn, &init, CHURN_STOP)
        }
        mode => drive!(sim, mode, opts),
    };
    batch_hash(&r, &sim)
}

/// Fold a batched run's result, clock, RNG state and final counts.
fn batch_hash<P: TableProtocol>(r: &RunResult, sim: &BatchSimulation<P>) -> u64 {
    let mut h = Fnv::new();
    h.result(r);
    h.u64(sim.interactions());
    for w in sim.rng_state() {
        h.u64(w);
    }
    h.u64(sim.counts().len() as u64);
    for &c in sim.counts() {
        h.u64(c);
    }
    h.0
}

fn usd_init() -> Vec<u64> {
    UsdTable::new(4).initial_counts(&[4_000, 3_000, 2_000, 1_000])
}

/// The `ppckpt` text of a churned segment run after two segments.
fn checkpoint_digest<P: TableProtocol>(table: P, init: Vec<u64>) -> u64 {
    let churn = ChurnProcess::new("churn:0.004:0.006".parse().expect("churn parses"));
    let sim = BatchSimulation::new(table, init.clone(), SEED);
    let mut runner = SegmentRunner::new(sim, churn, init);
    runner.advance_to(10.0);
    runner.advance_to(20.0);
    let mut h = Fnv::new();
    h.bytes(runner.checkpoint().to_text().as_bytes());
    h.0
}

/// Compare computed digests against the recorded ones, listing every
/// mismatch at once.
fn assert_pinned(label: &str, got: &[u64], want: &[u64]) {
    let bad: Vec<String> = got
        .iter()
        .zip(want)
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("  #{i}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert_eq!(got.len(), want.len(), "{label}: digest count");
    assert!(
        bad.is_empty(),
        "{label}: streams moved\n{}\n(all: {:#018x?})",
        bad.join("\n"),
        got
    );
}

/// `MODES` without the churned runs, which only the batched engine has.
fn seq_modes() -> impl Iterator<Item = Mode> {
    MODES.into_iter().filter(|m| !matches!(m, Mode::Churned(_)))
}

#[test]
fn sequential_table_streams_are_pinned() {
    let got: Vec<u64> = seq_modes()
        .map(|m| seq_digest(ThreeState, &[0, 600, 400], m, BUDGET))
        .collect();
    assert_pinned("seq three-state n=1e3", &got, &SEQ);
}

#[test]
fn sequential_four_state_streams_are_pinned() {
    let got: Vec<u64> = seq_modes()
        .map(|m| seq_digest(FourState, &four_state_counts(600, 400), m, BUDGET))
        .collect();
    assert_pinned("seq four-state n=1e3", &got, &SEQ_FOUR_STATE);
}

/// These digests were recorded on a per-agent USD that refused random
/// replacement states, so the two modes with a `corrupt@` strike are left
/// out.
#[test]
fn sequential_usd_streams_are_pinned() {
    let usd = UsdTable::new(3);
    let init = usd.initial_counts(Counts::bias_one(1_000, 3).supports());
    let got: Vec<u64> = seq_modes()
        .filter(|m| !matches!(m, Mode::Faulted | Mode::Hostile))
        .map(|m| seq_digest(usd.clone(), &init, m, BUDGET))
        .collect();
    assert_pinned("seq usd k=3 n=1e3", &got, &SEQ_USD);
}

/// The large sequential pins: `SeqTable<ThreeState>` on a 60/40 start at
/// `n = 10⁶` for two parallel-time units, uniform and under
/// `pairbias:0.3` (whose draws also go through the uniform pair sampler).
/// At `n = 1,000` the initiator index `⌊x·n/2⁶⁴⌋` of a pair draw takes
/// only 10 bits; here it takes 20.
const SEQ_LARGE_N: u64 = 1_000_000;
const SEQ_LARGE_BUDGET: f64 = 2.0;

#[test]
fn sequential_streams_at_large_n_are_pinned() {
    let init = [0, SEQ_LARGE_N * 3 / 5, SEQ_LARGE_N * 2 / 5];
    let got = [Mode::Clean, Mode::Scheduler("pairbias:0.3")]
        .map(|m| seq_digest(ThreeState, &init, m, SEQ_LARGE_BUDGET));
    assert_pinned("seq three-state n=1e6", &got, &SEQ_LARGE);
}

#[test]
fn batch_three_state_streams_are_pinned() {
    let got: Vec<u64> = MODES
        .iter()
        .map(|&m| batch_digest(ThreeState, vec![0, 6_000, 4_000], m, BUDGET))
        .collect();
    assert_pinned("batch three-state n=1e4", &got, &BATCH_THREE_STATE);
}

#[test]
fn batch_lumped_usd_streams_are_pinned() {
    let got: Vec<u64> = MODES
        .iter()
        .map(|&m| batch_digest(UsdTable::new(4), usd_init(), m, BUDGET))
        .collect();
    assert_pinned("batch usd k=4 n=1e4", &got, &BATCH_USD);
}

#[test]
fn batch_adversarial_streams_at_large_n_are_pinned() {
    let supports = [LARGE_N * 3 / 5, LARGE_N * 2 / 5];
    let three_state = vec![0, supports[0] as u64, supports[1] as u64];
    let usd = UsdTable::new(2);
    let got: Vec<u64> = LARGE_MODES
        .iter()
        .flat_map(|&m| {
            [
                batch_digest(ThreeState, three_state.clone(), m, LARGE_BUDGET),
                batch_digest(usd.clone(), usd.initial_counts(&supports), m, LARGE_BUDGET),
            ]
        })
        .collect();
    assert_pinned("batch adversarial n=4e6", &got, &BATCH_ADVERSARIAL_LARGE);
}

/// The clean large-population pins: 0.1 parallel-time units at `n = 10⁸`.
const HUGE_N: u64 = 100_000_000;
const HUGE_BUDGET: f64 = 0.1;

#[test]
fn batch_clean_streams_at_huge_n_are_pinned() {
    let usd = UsdTable::new(64);
    let got = [
        batch_digest(
            ThreeState,
            vec![0, HUGE_N * 3 / 5, HUGE_N * 2 / 5],
            Mode::Clean,
            HUGE_BUDGET,
        ),
        batch_digest(
            usd.clone(),
            usd.initial_counts(Counts::bias_one(HUGE_N as usize, 64).supports()),
            Mode::Clean,
            HUGE_BUDGET,
        ),
    ];
    assert_pinned("batch clean n=1e8", &got, &BATCH_CLEAN_HUGE);
}

#[test]
fn segment_checkpoint_bytes_are_pinned() {
    let got = [
        checkpoint_digest(ThreeState, vec![0, 6_000, 4_000]),
        checkpoint_digest(UsdTable::new(4), usd_init()),
    ];
    assert_pinned("segment checkpoints", &got, &CHECKPOINTS);
}

/// The per-pair fallback pins: a churned run of four or two agents to
/// parallel time 2,000. With so few agents most batches can overdraw a
/// state, and some draw eight infeasible tallies in a row and fall back
/// to pair-by-pair application from the live configuration.
const FALLBACK_STOP: f64 = 2_000.0;

fn fallback_digest<P: TableProtocol>(table: P, init: Vec<u64>, churn: &str) -> (u64, TallyPaths) {
    let churn = ChurnProcess::new(churn.parse().expect("churn parses"));
    let mut sim = BatchSimulation::new(table, init.clone(), SEED);
    let r = sim.run_churned(&RunOptions::default(), &churn, &init, FALLBACK_STOP);
    (batch_hash(&r, &sim), sim.tally_paths())
}

#[test]
fn batch_pairwise_fallback_streams_are_pinned() {
    let runs = [
        fallback_digest(ThreeState, vec![0, 2, 2], "churn:0.3"),
        fallback_digest(UsdTable::new(2), vec![0, 1, 1], "churn:0.5"),
    ];
    for (i, (_, paths)) in runs.iter().enumerate() {
        assert!(paths.pairwise > 0, "run #{i} never fell back: {paths:?}");
    }
    let got = runs.map(|(digest, _)| digest);
    assert_pinned("batch per-pair fallback", &got, &BATCH_PAIRWISE_FALLBACK);
}

/// The paper-protocol pins: a clean run to consensus, then a faulted,
/// a scheduled and an adversarial run capped at `PAPER_BUDGET`.
const PAPER_MODES: [Mode; 4] = [
    Mode::Clean,
    Mode::Faulted,
    Mode::Scheduler("pairbias:0.3"),
    Mode::Adversary("byz:0.05:1"),
];
const PAPER_CLEAN_BUDGET: f64 = 100_000.0;
const PAPER_BUDGET: f64 = 600.0;

/// The budget of a paper-protocol pin in `mode`.
fn paper_budget(mode: Mode) -> f64 {
    match mode {
        Mode::Clean => PAPER_CLEAN_BUDGET,
        _ => PAPER_BUDGET,
    }
}

/// Fold a run of one of the paper's protocols on `counts` from `seed`,
/// capped at `budget` parallel time: its result, clock, RNG state,
/// milestones and each agent's `Debug` text (`Agent` has no `Hash`, and
/// `encode` is not injective). Returns the digest, the run's result and
/// its milestones.
fn paper_digest(
    algorithm: Algorithm,
    counts: &Counts,
    mode: Mode,
    seed: u64,
    budget: f64,
) -> (u64, RunResult, Milestones) {
    let assignment = counts.assignment();
    let (machine, states) = Machine::start(algorithm, &assignment, Tuning::default());
    let mut sim = Simulation::new(machine, states.clone(), seed);
    let opts = RunOptions::with_parallel_time_budget(assignment.n(), budget);
    let r = drive!(sim, mode, opts);
    let mut h = Fnv::new();
    h.result(&r);
    h.u64(sim.interactions());
    for w in sim.rng_state() {
        h.u64(w);
    }
    let ms = sim.protocol().milestones;
    for t in [ms.init_end, ms.le_done, ms.fin, ms.first_winner] {
        h.u64(u64::from(t.is_some()));
        h.u64(t.unwrap_or(0));
    }
    h.u64(sim.states().len() as u64);
    for s in sim.states() {
        h.bytes(format!("{s:?}").as_bytes());
    }
    (h.0, r, ms)
}

#[test]
fn paper_protocol_streams_are_pinned() {
    let got: Vec<u64> = PAPER_MODES
        .iter()
        .flat_map(|&m| {
            [Algorithm::Simple, Algorithm::Unordered, Algorithm::Improved].map(|algorithm| {
                let counts = Counts::bias_one(400, 3);
                paper_digest(algorithm, &counts, m, SEED, paper_budget(m)).0
            })
        })
        .collect();
    assert_pinned("paper protocols n=400", &got, &PAPER);
}

/// The pruning pin: `Algorithm::Improved` on `one_large(1000, 4, 400)`,
/// clean to consensus. One large opinion among small ones is the input
/// shape of the benchmark's `paper-improved` workload, whose phase-0
/// broadcast prunes agents; `bias_one(400, 3)` has no large opinion.
#[test]
fn improved_pruning_stream_is_pinned() {
    let counts = Counts::one_large(1_000, 4, 400);
    let clean = Mode::Clean;
    let got = [paper_digest(
        Algorithm::Improved,
        &counts,
        clean,
        SEED,
        paper_budget(clean),
    )
    .0];
    assert_pinned("paper improved one_large n=1e3", &got, &PAPER_PRUNING);
}

/// The many-tournament pins: each algorithm on `bias_one(2000, 8)`
/// (supports 251, 250×6, 249; the plurality is opinion 1), clean to
/// consensus from its own seed. These runs play up to seven tournaments,
/// and the `Unordered` and `Improved` runs take the failure-containment
/// path (two defender opinions meeting outside phases 8 and 9). Those two
/// answer wrong, runner-ups of the plurality; ROADMAP item 1's fix is
/// expected to move them.
#[test]
fn paper_protocols_at_eight_opinions_are_pinned() {
    let counts = Counts::bias_one(2_000, 8);
    let runs = [
        (Algorithm::Simple, 5, 1, 21_626_000),
        (Algorithm::Unordered, 13, 2, 25_686_000),
        (Algorithm::Improved, 12, 5, 26_376_000),
    ];
    let got = runs.map(|(algorithm, seed, output, interactions)| {
        let (digest, r, _) =
            paper_digest(algorithm, &counts, Mode::Clean, seed, PAPER_CLEAN_BUDGET);
        let name = algorithm.name();
        assert_eq!(r.status, RunStatus::Converged, "{name}");
        assert_eq!(r.output, Some(output), "{name}");
        assert_eq!(r.interactions, interactions, "{name}");
        digest
    });
    assert_pinned("paper protocols bias_one(2000, 8)", &got, &PAPER_EIGHT);
}

/// The deep-tournament pins: each algorithm on `bias_one(1000, 4)` for
/// `DEEP_BUDGET` parallel time under a `starve` scheduler, an adaptive
/// adversary and a fault plan. The unordered variants release their
/// clocks (`le_done`) near 2,100 parallel time here, so these runs reach
/// the tournaments' non-uniform paths that the `n = 400` pins, capped at
/// 600, mostly stop short of; every strike of `DEEP_FAULTS` lands after
/// that release.
const DEEP_MODES: [Mode; 3] = [
    Mode::Scheduler("starve:1:0.5"),
    Mode::Adversary("adaptive:0.05"),
    Mode::FaultPlan(DEEP_FAULTS),
];
const DEEP_FAULTS: &str = "corrupt@2500:0.05,churn@2600:0.05,inject@2700:0.05:2";
const DEEP_BUDGET: f64 = 3_000.0;

#[test]
fn paper_protocols_deep_in_the_tournament_are_pinned() {
    let counts = Counts::bias_one(1_000, 4);
    let n = counts.n() as u64;
    let got: Vec<u64> = DEEP_MODES
        .iter()
        .flat_map(|&mode| {
            [Algorithm::Simple, Algorithm::Unordered, Algorithm::Improved].map(|algorithm| {
                let (digest, _, ms) = paper_digest(algorithm, &counts, mode, SEED, DEEP_BUDGET);
                if matches!(mode, Mode::FaultPlan(_)) && algorithm != Algorithm::Simple {
                    let released = ms.le_done.map(|t| t / n);
                    assert!(
                        released.is_some_and(|t| t < 2_500),
                        "{}: clocks released at {released:?}, after the first strike",
                        algorithm.name()
                    );
                }
                digest
            })
        })
        .collect();
    assert_pinned("paper protocols deep, bias_one(1000, 4)", &got, &PAPER_DEEP);
}

// Recorded digests, in `seq_modes()` order for the sequential engine and
// `MODES` order for the batched one.

const SEQ: [u64; 7] = [
    0xc57a_39a3_54ea_bcda,
    0x26e5_16b5_17be_ec4d,
    0xd125_c123_c41b_0458,
    0xc89c_10e3_2300_d0b3,
    0x71b1_71b6_e5da_be65,
    0x7e97_212e_faf8_163f,
    0xa19e_efdb_84c9_8022,
];

/// 4-state majority on a 60/40 start of strong tokens.
const SEQ_FOUR_STATE: [u64; 7] = [
    0xd593_b85d_bb4c_7a77,
    0xab6c_83ed_dc48_0b2a,
    0x9a21_c0cb_1322_1aa1,
    0x308c_4854_419a_1a44,
    0x586c_e759_e130_cf6e,
    0xaa23_45a3_c8cb_2366,
    0x6e3f_1c72_949b_d6a1,
];

/// USD k = 3 on `bias_one(1000, 3)`, in `seq_modes()` order without
/// `Faulted` and `Hostile`.
const SEQ_USD: [u64; 5] = [
    0x6c4c_d3fc_596c_cdf4,
    0x108d_a1c6_0116_e534,
    0x2465_1808_df03_045c,
    0x266e_f3ef_c8f2_78d3,
    0xc4dc_a48b_16ec_9771,
];

/// `ThreeState` on a 60/40 start at `n = 10⁶`, clean then under
/// `pairbias:0.3`.
const SEQ_LARGE: [u64; 2] = [0x838c_a3b8_ba55_7392, 0x2e36_e046_9690_fe81];

const BATCH_THREE_STATE: [u64; 9] = [
    0xe24d_da17_1ff9_15dc,
    0x8b05_3c87_9474_f4e3,
    0x8d72_fbc1_b933_ffc6,
    0xb1e3_d95b_885e_2bbd,
    0x26d5_a765_e2d0_4def,
    0x49cd_e15c_459e_6cd9,
    0xc67f_c0a9_25b1_5b1f,
    0x4320_466e_047e_4e29,
    0x64b7_4d30_2dda_36cd,
];

const BATCH_USD: [u64; 9] = [
    0xb040_2a4b_7a82_dc7c,
    0x08f4_b63b_5195_e2d2,
    0x9250_21b4_7673_a261,
    0x040b_6f45_ac97_8da3,
    0x5eb6_660d_b50d_fec0,
    0xeb72_8a85_455e_f487,
    0x2411_cdc4_5340_54a4,
    0x75f2_5163_1a94_f0d2,
    0x7b8a_90a2_39a1_b6f3,
];

const CHECKPOINTS: [u64; 2] = [0x554e_687c_adfb_eb06, 0xe003_b42e_486e_b947];

/// `LARGE_MODES` order, `ThreeState` then `UsdTable::new(2)` in each.
const BATCH_ADVERSARIAL_LARGE: [u64; 6] = [
    0x8c7a_8c6a_4648_60ff,
    0x6632_fdd7_6332_e367,
    0x8c7a_8c6a_4648_60ff,
    0x6632_fdd7_6332_e367,
    0xe6e5_2de8_9a2d_023a,
    0x2cbc_0bc2_f5f1_f1ec,
];

/// `ThreeState` on a 60/40 start, then `UsdTable::new(64)` on
/// `bias_one(10⁸, 64)`.
const BATCH_CLEAN_HUGE: [u64; 2] = [0x739a_35b2_d1de_32e0, 0x3690_82df_2ddd_e238];

/// `ThreeState` on `[0, 2, 2]` under `churn:0.3`, then `UsdTable::new(2)`
/// on `[0, 1, 1]` under `churn:0.5`.
const BATCH_PAIRWISE_FALLBACK: [u64; 2] = [0x0b85_4c6b_2175_2989, 0x4897_8d12_90f3_3589];

/// `PAPER_MODES` order; simple, unordered, then improved in each.
const PAPER: [u64; 12] = [
    0x9263_95cb_18f7_699d,
    0x5d6b_0eda_f8c4_5dca,
    0xf1ec_3b94_85f7_93af,
    0x6791_b221_fb10_a249,
    0x6f94_b383_a3f1_0053,
    0x512f_2341_08aa_3644,
    0x45a3_33bf_0177_1f96,
    0xc202_28f8_66b5_49e7,
    0xb33f_ef2c_c838_be5c,
    0x6159_4e66_71b6_307a,
    0x1cb5_d016_ac6d_2ab6,
    0x11b3_e7e9_5766_a269,
];

/// `Algorithm::Improved` on `one_large(1000, 4, 400)`, clean.
const PAPER_PRUNING: [u64; 1] = [0x7471_ea52_c16d_62d4];

/// `DEEP_MODES` order; simple, unordered, then improved in each.
const PAPER_DEEP: [u64; 9] = [
    0x8223_07ea_b703_96b4,
    0x5743_c664_593b_eb7c,
    0x43e4_3103_df41_456c,
    0xa24e_ec1a_c7a0_15bc,
    0x1d93_915d_2b55_0e1a,
    0x417e_fbef_ea63_9306,
    0xff2e_42a1_1bb3_eddf,
    0xeb20_9b12_b564_086e,
    0xac52_d677_953f_c3a6,
];

/// Simple (seed 5), unordered (seed 13), then improved (seed 12) on
/// `bias_one(2000, 8)`, clean.
const PAPER_EIGHT: [u64; 3] = [
    0xf07e_a18a_2775_1d7c,
    0xde63_5486_e36f_237e,
    0x0a7d_38c1_45c3_fc96,
];
