//! The adversarial-runtime layer: Byzantine lying adversaries, steady-state
//! churn, and crash-safe checkpoint/restore must honor two contracts. First,
//! *identity*: an empty adversary (zero lying fraction, or a forged opinion
//! the protocol cannot materialize) and an absent churn process leave both
//! engines on the exact RNG trajectory of a plain `run()`. Second,
//! *determinism*: the same seed and the same `byz:` spec produce the same
//! structural fault records on the sequential and batched engines, and the
//! batched engine's median recovery time stays within 15% of the
//! sequential engine's.

use exact_plurality::baselines::UsdTable;
use exact_plurality::engine::{
    AdversarySpec, Checkpoint, ChurnProcess, ChurnSpec, RunNote, RunResult, TallyPaths,
};
use exact_plurality::majority::ThreeState;
use exact_plurality::prelude::*;

fn byz(spec: &str) -> AdversarySpec {
    spec.parse().expect("spec parses")
}

// ---------------------------------------------------------------------------
// Identity: an adversary that never lies is no adversary at all.

#[test]
fn zero_fraction_adversary_keeps_rng_identity_on_all_engines() {
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let init = vec![0u64, 700, 300];

    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut plain = Simulation::new(SeqTable::new(ThreeState), states.clone(), 11);
    let mut byzed = Simulation::new(SeqTable::new(ThreeState), states, 11);
    byzed.set_adversary(byz("byz:0"));
    let (rp, rb) = (plain.run(&opts), byzed.run(&opts));
    assert_eq!(rp.interactions, rb.interactions);
    assert_eq!(rp.output, rb.output);
    assert_eq!(plain.states(), byzed.states());

    let mut plain = BatchSimulation::new(ThreeState, init.clone(), 11);
    let mut byzed = BatchSimulation::new(ThreeState, init, 11);
    byzed.set_adversary(byz("byz:0"));
    let (rp, rb) = (plain.run(&opts), byzed.run(&opts));
    assert_eq!(rp.interactions, rb.interactions);
    assert_eq!(plain.counts(), byzed.counts());
    assert_eq!(plain.rng_state(), byzed.rng_state());
}

#[test]
fn unmappable_forged_opinion_degrades_to_honesty_on_batch_engines() {
    // Opinion 9 has no state in ThreeState's table: the snapshot disables
    // the perturbation entirely rather than panicking mid-batch.
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let init = vec![0u64, 700, 300];
    let mut plain = BatchSimulation::new(ThreeState, init.clone(), 4);
    let mut byzed = BatchSimulation::new(ThreeState, init, 4);
    byzed.set_adversary(byz("byz:0.3:9"));
    plain.run(&opts);
    byzed.run(&opts);
    assert_eq!(plain.counts(), byzed.counts());
    assert_eq!(plain.rng_state(), byzed.rng_state());
}

// ---------------------------------------------------------------------------
// Cross-engine determinism of the adversary layer.

#[test]
fn fault_records_match_across_seq_and_batch_under_byzantine_lies() {
    // Weak directed lying (5%, forging the majority opinion — a random
    // forgery would re-inject minority states forever and block ThreeState's
    // *exact* absorption predicate on every engine) around a mid-run
    // corruption: both engines converge to A before and after the strike,
    // so the structural record content — epoch, hook label, surrounding
    // outputs — must agree exactly. (The recovery *durations* differ: the
    // engines consume randomness differently.)
    let faults = FaultSpec::parse_list("corrupt@40:0.4").expect("faults parse");
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let init = vec![0u64, 700, 300];

    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut seq = Simulation::new(SeqTable::new(ThreeState), states, 21);
    seq.set_adversary(byz("byz:0.05:1"));
    let rs = seq.run_faulted(&opts, &faults);

    let mut batch = BatchSimulation::new(ThreeState, init, 21);
    batch.set_adversary(byz("byz:0.05:1"));
    let rb = batch.run_faulted(&opts, &faults);

    assert_eq!(rs.faults.len(), 1);
    assert_eq!(rb.faults.len(), 1);
    for (a, b) in rs.faults.iter().zip(&rb.faults) {
        assert_eq!(a.at.to_bits(), b.at.to_bits(), "strike epochs must agree");
        assert_eq!(a.hook, b.hook);
        assert_eq!(a.output_before, b.output_before);
        assert_eq!(a.output_after, b.output_after);
    }
    assert_eq!(rs.output, rb.output);
    assert_eq!(
        rs.output,
        Some(1),
        "directed lies must not block absorption"
    );
}

#[test]
fn batch_recovery_times_match_seq_within_tolerance_under_lies() {
    // The batched engine perturbs whole tallies (binomial lie splits)
    // rather than flipping per-interaction coins; its recovery-time
    // *median* over trials must stay within 15% of the sequential
    // engine's. The sequential engine checks convergence every n/16
    // interactions, so its recovery times are not quantised to whole
    // parallel-time units (the batched engine checks every batch).
    let faults = FaultSpec::parse_list("corrupt@20:0.5").expect("faults parse");
    let n = 10_000;
    let opts = RunOptions::with_parallel_time_budget(n, 5_000.0);
    let seq_opts = RunOptions {
        check_every: n as u64 / 16,
        ..opts
    };
    let init = vec![0u64, 7_000, 3_000];
    let trials = 25u64;

    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let mut batch_times = Vec::new();
    let mut seq_times = Vec::new();
    for seed in 0..trials {
        let mut sim = BatchSimulation::new(ThreeState, init.clone(), seed);
        sim.set_adversary(byz("byz:0.05:1"));
        let r = sim.run_faulted(&opts, &faults);
        batch_times.push(r.faults[0].recovery_time);

        let states = SeqTable::<ThreeState>::initial_states(&init);
        let mut sim = Simulation::new(SeqTable::new(ThreeState), states, seed);
        sim.set_adversary(byz("byz:0.05:1"));
        let r = sim.run_faulted(&seq_opts, &faults);
        seq_times.push(r.faults[0].recovery_time);
    }
    assert!(batch_times.iter().all(|t| t.is_finite()), "{batch_times:?}");
    assert!(seq_times.iter().all(|t| t.is_finite()), "{seq_times:?}");
    let (mb, ms) = (median(batch_times), median(seq_times));
    assert!(
        (mb - ms).abs() / ms < 0.15,
        "batch median {mb} vs seq median {ms}"
    );
}

// ---------------------------------------------------------------------------
// Adaptive adversaries: frac = 0 is RNG-identical to clean, and a live
// fraction actually steers its lies by the census.

#[test]
fn zero_fraction_adaptive_adversary_keeps_rng_identity_on_all_engines() {
    // `adaptive:0[:any]` installs nothing: the census is never even read,
    // so both engines stay on the clean RNG trajectory byte for byte.
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let init = vec![0u64, 700, 300];
    for spec in [
        "adaptive:0",
        "adaptive:0:suppress-leader",
        "adaptive:0:split",
    ] {
        let states = SeqTable::<ThreeState>::initial_states(&init);
        let mut plain = Simulation::new(SeqTable::new(ThreeState), states.clone(), 13);
        let mut adv = Simulation::new(SeqTable::new(ThreeState), states, 13);
        adv.set_adversary(byz(spec));
        let (rp, ra) = (plain.run(&opts), adv.run(&opts));
        assert_eq!(rp.interactions, ra.interactions, "{spec} seq");
        assert_eq!(plain.states(), adv.states(), "{spec} seq");

        let mut plain = BatchSimulation::new(ThreeState, init.clone(), 13);
        let mut adv = BatchSimulation::new(ThreeState, init.clone(), 13);
        adv.set_adversary(byz(spec));
        let (rp, ra) = (plain.run(&opts), adv.run(&opts));
        assert_eq!(rp.interactions, ra.interactions, "{spec} batch");
        assert_eq!(plain.counts(), adv.counts(), "{spec} batch");
        assert_eq!(plain.rng_state(), adv.rng_state(), "{spec} batch");
    }
}

#[test]
fn adaptive_lies_delay_absorption_at_least_as_much_as_fixed_lies() {
    // Head-to-head at the same fraction: a runner-up-boosting adaptive
    // adversary re-aims at whichever opinion is trailing *now*, so across
    // seeds it must block ThreeState's exact-absorption predicate at least
    // as often as a fixed minority-opinion lie.
    let opts = RunOptions::with_parallel_time_budget(1000, 2_000.0);
    let init = vec![0u64, 700, 300];
    let trials = 20u64;
    let blocked = |spec: &str| -> usize {
        (0..trials)
            .filter(|&seed| {
                let mut sim = BatchSimulation::new(ThreeState, init.clone(), seed);
                sim.set_adversary(byz(spec));
                sim.run(&opts).output.is_none()
            })
            .count()
    };
    let fixed = blocked("byz:0.05:2");
    let adaptive = blocked("adaptive:0.05:boost-runnerup");
    assert!(
        adaptive >= fixed,
        "adaptive lies blocked {adaptive}/{trials}, fixed lies {fixed}/{trials}"
    );
    assert!(
        adaptive > 0,
        "a 5% adaptive lie stream should block exact absorption sometimes"
    );
}

#[test]
fn adaptive_adversary_runs_deterministically_per_seed_on_all_engines() {
    let opts = RunOptions::with_parallel_time_budget(1000, 2_000.0);
    let init = vec![0u64, 600, 400];
    for spec in [
        "adaptive:0.1",
        "adaptive:0.1:suppress-leader",
        "adaptive:0.1:split",
    ] {
        let run_batch = |seed| {
            let mut sim = BatchSimulation::new(ThreeState, init.clone(), seed);
            sim.set_adversary(byz(spec));
            sim.run(&opts);
            (sim.counts().to_vec(), sim.rng_state())
        };
        assert_eq!(run_batch(5), run_batch(5), "{spec} batch");

        let run_seq = |seed| {
            let states = SeqTable::<ThreeState>::initial_states(&init);
            let mut sim = Simulation::new(SeqTable::new(ThreeState), states, seed);
            sim.set_adversary(byz(spec));
            sim.run(&opts);
            sim.states().to_vec()
        };
        assert_eq!(run_seq(5), run_seq(5), "{spec} seq");
    }
}

// ---------------------------------------------------------------------------
// Targeted churn: the uniform spelling keeps RNG identity, and plurality
// targeting visibly erodes the leader relative to uniform departures.

#[test]
fn uniform_target_churn_is_rng_identical_to_pr4_churn_on_all_engines() {
    // `churn:J:L` (no target) must stay byte-identical to the pre-target
    // implementation: same draws, same series, same final state.
    let init = vec![0u64, 700, 300];
    let spec: ChurnSpec = "churn:0.004:0.006".parse().expect("spec parses");
    assert_eq!(spec.target, exact_plurality::engine::ChurnTarget::Uniform);
    let churn = ChurnProcess::new(spec);
    let legacy = ChurnProcess::new(ChurnSpec {
        join: 0.004,
        leave: 0.006,
        ..ChurnSpec::default()
    });
    let opts = RunOptions {
        max_interactions: u64::MAX,
        check_every: 0,
    };

    let mut a = BatchSimulation::new(ThreeState, init.clone(), 17);
    let mut b = BatchSimulation::new(ThreeState, init.clone(), 17);
    let (ra, rb) = (
        a.run_churned(&opts, &churn, &init, 50.0),
        b.run_churned(&opts, &legacy, &init, 50.0),
    );
    assert_eq!(ra.interactions, rb.interactions);
    assert_eq!(a.counts(), b.counts());
    assert_eq!(a.rng_state(), b.rng_state());

    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut a = Simulation::new(SeqTable::new(ThreeState), states.clone(), 17);
    let mut b = Simulation::new(SeqTable::new(ThreeState), states.clone(), 17);
    a.run_churned(&opts, &churn, &states, 50.0);
    b.run_churned(&opts, &legacy, &states, 50.0);
    assert_eq!(a.states(), b.states());
}

/// Two frozen opinion classes: interactions change nothing, so any drift
/// in the class split is attributable to churn alone.
#[derive(Debug, Clone)]
struct Frozen;
impl TableProtocol for Frozen {
    fn states(&self) -> usize {
        2
    }
    fn is_deterministic(&self) -> bool {
        true
    }
    fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        (a, b)
    }
    fn output(&self, _counts: &[u64]) -> Option<u32> {
        None
    }
    fn opinion(&self, s: usize) -> Option<u32> {
        Some(s as u32 + 1)
    }
}

#[test]
fn plurality_targeted_churn_erodes_the_leader_faster_than_uniform() {
    // Join-free, leave-only processes on a frozen 70/30 split: uniform
    // departures preserve the split in expectation, while plurality
    // targeting culls whichever class currently leads, dragging the
    // leader's share toward one half — on both engines. Minority
    // targeting does the opposite and purifies the leader.
    let init = vec![700u64, 300];
    let opts = RunOptions {
        max_interactions: u64::MAX,
        check_every: 0,
    };
    let horizon = 20.0;
    let targeted = ChurnProcess::new("churn:0:0.05:plurality".parse().expect("spec parses"));
    let uniform = ChurnProcess::new("churn:0:0.05".parse().expect("spec parses"));
    let minority = ChurnProcess::new("churn:0:0.05:minority".parse().expect("spec parses"));

    let share_batch = |churn: &ChurnProcess| {
        let mut sim = BatchSimulation::new(Frozen, init.clone(), 9);
        sim.run_churned(&opts, churn, &init, horizon);
        sim.counts()[0] as f64 / sim.counts().iter().sum::<u64>() as f64
    };
    let share_seq = |churn: &ChurnProcess| {
        let states = SeqTable::<Frozen>::initial_states(&init);
        let mut sim = Simulation::new(SeqTable::new(Frozen), states.clone(), 9);
        sim.run_churned(&opts, churn, &states, horizon);
        let n = sim.states().len() as f64;
        sim.states().iter().filter(|&&s| s == 0).count() as f64 / n
    };
    for (engine, share) in [
        ("batch", &share_batch as &dyn Fn(&ChurnProcess) -> f64),
        ("seq", &share_seq),
    ] {
        let (t, u, m) = (share(&targeted), share(&uniform), share(&minority));
        assert!(
            t < u - 0.05,
            "{engine}: plurality-targeted share {t} not below uniform {u}"
        );
        assert!(
            m > u + 0.05,
            "{engine}: minority-targeted share {m} not above uniform {u}"
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore: a killed-and-resumed churned run replays exactly.

#[test]
fn checkpoint_resume_reproduces_uninterrupted_churned_run_on_batch_engine() {
    let init = vec![0u64, 7_000, 3_000];
    let churn = ChurnProcess::new(ChurnSpec {
        join: 0.002,
        leave: 0.002,
        ..ChurnSpec::default()
    });
    let opts = RunOptions {
        max_interactions: u64::MAX,
        check_every: 0,
    };

    let mut full = BatchSimulation::new(ThreeState, init.clone(), 33);
    let rf = full.run_churned(&opts, &churn, &init, 60.0);

    let mut first = BatchSimulation::new(ThreeState, init.clone(), 33);
    let r1 = first.run_churned(&opts, &churn, &init, 30.0);
    let ck = Checkpoint::of_batch(&first, &init, &r1.series);
    // Round-trip through the on-disk text format, as a real resume would.
    let ck = Checkpoint::from_text(&ck.to_text()).expect("checkpoint parses");
    let mut resumed = ck.restore_batch(ThreeState).expect("restore");
    let r2 = resumed.run_churned(&opts, &churn, &init, 60.0);

    assert_eq!(full.counts(), resumed.counts());
    assert_eq!(full.rng_state(), resumed.rng_state());
    assert_eq!(rf.interactions, r2.interactions);
    let stitched: Vec<_> = ck.series.iter().chain(&r2.series).collect();
    assert_eq!(rf.series.len(), stitched.len());
    for (a, b) in rf.series.iter().zip(stitched) {
        assert_eq!(a.t.to_bits(), b.t.to_bits());
        assert_eq!(a.population, b.population);
        assert_eq!(a.plurality_frac.to_bits(), b.plurality_frac.to_bits());
        assert_eq!(a.output, b.output);
    }
}

#[test]
fn churn_never_drains_the_population_below_two() {
    // A leave-heavy process must cap at the two-agent floor instead of
    // underflowing the engine's pair sampler.
    let init = vec![0u64, 30, 20];
    let churn = ChurnProcess::new(ChurnSpec {
        join: 0.0,
        leave: 0.5,
        ..ChurnSpec::default()
    });
    let opts = RunOptions {
        max_interactions: u64::MAX,
        check_every: 0,
    };
    let mut sim = BatchSimulation::new(ThreeState, init.clone(), 2);
    let r = sim.run_churned(&opts, &churn, &init, 200.0);
    assert!(sim.n() >= 2, "population drained to {}", sim.n());
    assert!(r.series.iter().all(|s| s.population >= 2));
}

// ---------------------------------------------------------------------------
// Scheduler saturation is surfaced, not silently spun.

/// Two states, both opinion 1, never converging: the only population a
/// weight-0 starve scheduler can fully veto.
#[derive(Debug, Clone)]
struct Monotone;
impl TableProtocol for Monotone {
    fn states(&self) -> usize {
        2
    }
    fn is_deterministic(&self) -> bool {
        true
    }
    fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        (a, b)
    }
    fn output(&self, _counts: &[u64]) -> Option<u32> {
        None
    }
    fn opinion(&self, _s: usize) -> Option<u32> {
        Some(1)
    }
}

#[test]
fn weight_zero_starvation_saturates_with_a_note_on_all_engines() {
    // Built directly: the parser rejects weight 0, so this is the only way
    // to reach the saturation path.
    let sched = SchedulerSpec::Starve {
        opinion: 1,
        weight: 0.0,
    };
    let opts = RunOptions {
        max_interactions: 2_000,
        check_every: 0,
    };

    let states = SeqTable::<Monotone>::initial_states(&[5, 5]);
    let mut seq = Simulation::new(SeqTable::new(Monotone), states, 1);
    seq.set_scheduler(sched);
    let r = seq.run(&opts);
    assert_eq!(r.status, RunStatus::Exhausted);
    assert!(r.notes.contains(&RunNote::SchedulerSaturated), "{r:?}");

    let mut batch = BatchSimulation::new(Monotone, vec![5, 5], 1);
    batch.set_scheduler(sched);
    let r = batch.run(&opts);
    assert_eq!(r.status, RunStatus::Exhausted);
    assert!(r.notes.contains(&RunNote::SchedulerSaturated), "{r:?}");
}

/// Run `f` on its own thread and fail the test, instead of hanging it,
/// when `f` has not returned within `secs` seconds. A panic in `f`
/// propagates.
fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let r = f();
        let _ = tx.send(());
        r
    });
    // A hung worker cannot be joined; it is left behind with the failure.
    if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        panic!("no result within {secs} s");
    }
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// A run to 20 parallel-time units of one agent of opinion 2 against
/// 1,000 agents of opinion 1 starved to `weight`, on its own thread with
/// a 10-s bound. Every scheduled tally overdraws the lone weighted agent,
/// and the per-pair fallback's weighted redraws of its responder keep
/// landing on that agent too.
fn starved_lone_initiator(weight: f64) -> (RunResult, TallyPaths) {
    within(10, move || {
        let mut sim = BatchSimulation::new(UsdTable::new(2), vec![0, 1_000, 1], 5);
        sim.set_scheduler(SchedulerSpec::Starve { opinion: 1, weight });
        let r = sim.run(&RunOptions {
            max_interactions: 20_000,
            check_every: 0,
        });
        assert_eq!(sim.counts().iter().sum::<u64>(), 1_001);
        (r, sim.tally_paths())
    })
}

#[test]
fn weight_zero_fallback_draws_another_responder_and_saturates() {
    // No other agent carries weight: the responder is drawn uniformly
    // among them, and the run says the scheduler saturated.
    let (r, paths) = starved_lone_initiator(0.0);
    assert!(paths.pairwise > 0, "{paths:?}");
    assert!(r.notes.contains(&RunNote::SchedulerSaturated), "{r:?}");
}

#[test]
fn near_zero_weight_fallback_bounds_its_redraws() {
    // The CLI-legal `starve:1:1e-12` leaves the others 10⁻⁹ of the mass.
    let (_, paths) = starved_lone_initiator(1e-12);
    assert!(paths.pairwise > 0, "{paths:?}");
}

#[test]
fn partial_starvation_stays_unsaturated() {
    // A survivable weight must never flip the saturation note: the run
    // converges and the notes stay empty.
    let sched: SchedulerSpec = "starve:2:0.25".parse().expect("scheduler parses");
    let init = vec![0u64, 700, 300];
    let mut sim = BatchSimulation::new(ThreeState, init, 6);
    sim.set_scheduler(sched);
    let r = sim.run(&RunOptions::with_parallel_time_budget(1000, 5_000.0));
    assert!(r.notes.is_empty(), "{r:?}");
}
