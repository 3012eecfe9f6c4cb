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
//! Coverage: the sequential engine on `SeqTable<ThreeState>` at
//! `n = 1,000`, the batched engine at `n = 10⁴` on `ThreeState` and on
//! `UsdTable::new(4)` (which takes the lumped tally), each in a clean run,
//! a faulted run, two churned runs, under two schedulers, under two
//! adversaries and under a scheduler and an adversary on a faulted run;
//! the `ppckpt` bytes a churned segment run writes; and adversarial runs
//! of `ThreeState` and `UsdTable::new(2)` at `n = 4·10⁶`, whose batches
//! (`ℓ ≈ 1,250` interactions, against about 63 at `n = 10⁴`) split over
//! initiators with many interactions per subtree.

use exact_plurality::baselines::UsdTable;
use exact_plurality::engine::{AdversarySpec, ChurnProcess, RunResult, SegmentRunner};
use exact_plurality::majority::ThreeState;
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
/// mode and return its run result.
macro_rules! drive {
    ($sim:expr, $mode:expr, $opts:expr, $initial:expr) => {{
        let sim = &mut $sim;
        match $mode {
            Mode::Clean => sim.run(&$opts),
            Mode::Faulted => sim.run_faulted(&$opts, &faults()),
            Mode::Churned(spec) => {
                let churn = ChurnProcess::new(spec.parse().expect("churn parses"));
                sim.run_churned(&$opts, &churn, $initial, CHURN_STOP)
            }
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
        }
    }};
}

fn seq_digest(mode: Mode) -> u64 {
    let init = [0u64, 600, 400];
    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut sim = Simulation::new(SeqTable::new(ThreeState), states.clone(), SEED);
    let opts = RunOptions::with_parallel_time_budget(1_000, BUDGET);
    let r = drive!(sim, mode, opts, &states);
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
    let r = drive!(sim, mode, opts, &init);
    let mut h = Fnv::new();
    h.result(&r);
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

#[test]
fn sequential_table_streams_are_pinned() {
    let got: Vec<u64> = MODES.iter().map(|&m| seq_digest(m)).collect();
    assert_pinned("seq three-state n=1e3", &got, &SEQ);
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

#[test]
fn segment_checkpoint_bytes_are_pinned() {
    let got = [
        checkpoint_digest(ThreeState, vec![0, 6_000, 4_000]),
        checkpoint_digest(UsdTable::new(4), usd_init()),
    ];
    assert_pinned("segment checkpoints", &got, &CHECKPOINTS);
}

// Recorded digests, in `MODES` order.

const SEQ: [u64; 9] = [
    0xc57a_39a3_54ea_bcda,
    0x26e5_16b5_17be_ec4d,
    0x6baf_3aa3_a2bc_7384,
    0xb47a_0300_6826_9f45,
    0xd125_c123_c41b_0458,
    0xc89c_10e3_2300_d0b3,
    0x71b1_71b6_e5da_be65,
    0x7e97_212e_faf8_163f,
    0xa19e_efdb_84c9_8022,
];

const BATCH_THREE_STATE: [u64; 9] = [
    0x1507_0633_2862_6b5d,
    0x3ecc_a023_8db2_59d2,
    0x72c8_8410_4cfe_aee9,
    0x575a_b7ce_2a79_4739,
    0x0018_5332_f7e6_e285,
    0x00bc_e913_6ad4_c688,
    0x0da8_cc4a_644a_b946,
    0x3881_a940_ff6c_eda3,
    0x3189_108c_b8dc_16fd,
];

const BATCH_USD: [u64; 9] = [
    0xe73f_3c96_c3cf_7eb3,
    0xbf6d_00e0_8c83_3c37,
    0x3ea2_7095_0f15_469b,
    0xca81_e368_8c8c_840d,
    0x407d_4540_752d_f5fe,
    0x424c_2203_a782_4a99,
    0x6195_5457_d70e_e0c3,
    0xb717_64c8_d874_3f5f,
    0xf4af_4bc4_d658_19c6,
];

const CHECKPOINTS: [u64; 2] = [0x9ac7_3978_34cb_e92a, 0x20bc_489e_a638_4678];

/// `LARGE_MODES` order, `ThreeState` then `UsdTable::new(2)` in each.
const BATCH_ADVERSARIAL_LARGE: [u64; 6] = [
    0xd412_9c08_4e9c_3c28,
    0x6759_269d_7cca_40e8,
    0xd412_9c08_4e9c_3c28,
    0x6759_269d_7cca_40e8,
    0xe301_3a0a_d0bc_af30,
    0x195c_cfa8_c2ba_2c66,
];
