//! Criterion micro-benchmarks: raw interaction throughput of the engine
//! and of each protocol's transition function.
//!
//! These are *performance* benchmarks (interactions per second), not
//! reproduction experiments; the paper's tables come from the `xp`
//! scenarios. The `configuration_space` group times the batched engine on
//! 3-state majority and on USD at `k = 64` (see `BENCH_engine.json` for
//! the recorded snapshot).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use plurality_core::{ImprovedAlgorithm, SimpleAlgorithm, Tuning, UnorderedAlgorithm};
use pp_baselines::{Usd, UsdTable};
use pp_dynamics::{Epidemic, LoadBalance};
use pp_engine::{BatchSimulation, Protocol, Simulation};
use pp_majority::cancel_split::CancelSplitRun;
use pp_majority::ThreeState;
use pp_workloads::Counts;

const STEPS: u64 = 100_000;

fn bench_steps<P: Protocol>(c: &mut Criterion, name: &str, make: impl Fn() -> (P, Vec<P::State>)) {
    let mut group = c.benchmark_group("interactions");
    group.throughput(Throughput::Elements(STEPS));
    group.sample_size(10);
    group.bench_function(name, |b| {
        b.iter_batched(
            || {
                let (proto, states) = make();
                Simulation::new(proto, states, 42)
            },
            |mut sim| {
                for _ in 0..STEPS {
                    sim.step();
                }
                sim
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Throughput of a configuration-space engine: interactions/sec while
/// advancing `target` interactions from a fresh configuration.
fn bench_config_engine<S>(
    c: &mut Criterion,
    name: &str,
    target: u64,
    make: impl Fn() -> S,
    step: impl Fn(&mut S) -> u64 + Copy,
) {
    let mut group = c.benchmark_group("configuration_space");
    group.throughput(Throughput::Elements(target));
    group.sample_size(10);
    group.bench_function(name, |b| {
        b.iter_batched(
            &make,
            |mut sim| {
                let mut done = 0;
                while done < target {
                    done += step(&mut sim);
                }
                sim
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn config_space_benches(c: &mut Criterion) {
    let n = 1_000_000u64;
    let majority = || vec![0u64, n * 3 / 5, n * 2 / 5];
    bench_config_engine(
        c,
        "majority3_multinomial_n1e6",
        1_000_000,
        || BatchSimulation::new(ThreeState, majority(), 42),
        BatchSimulation::step_batch,
    );
    // USD at k = 64: 65 states, every one occupied.
    let k = 64usize;
    let usd_counts = || {
        let table = UsdTable::new(k);
        table.initial_counts(&vec![(n as usize) / k; k])
    };
    bench_config_engine(
        c,
        "usd_k64_multinomial_n1e6",
        1_000_000,
        || BatchSimulation::new(UsdTable::new(k), usd_counts(), 42),
        BatchSimulation::step_batch,
    );
}

fn benches(c: &mut Criterion) {
    let n = 10_000;

    bench_steps(c, "epidemic", || (Epidemic, Epidemic::initial_states(n, 1)));
    bench_steps(c, "load_balance", || {
        let mut states = vec![0i64; n];
        states[0] = n as i64;
        (LoadBalance, states)
    });
    bench_steps(c, "usd_k8", || {
        let counts = Counts::bias_one(n, 8);
        (Usd, Usd::initial_states(counts.assignment().opinions()))
    });
    bench_steps(c, "cancel_split", || {
        CancelSplitRun::new(n / 2 + 1, n / 2 - 1, 0, 12)
    });
    bench_steps(c, "simple_k8", || {
        let counts = Counts::bias_one(n, 8);
        SimpleAlgorithm::new(&counts.assignment(), Tuning::default())
    });
    bench_steps(c, "unordered_k8", || {
        let counts = Counts::bias_one(n, 8);
        UnorderedAlgorithm::new(&counts.assignment(), Tuning::default())
    });
    bench_steps(c, "improved_k8", || {
        let counts = Counts::bias_one(n, 8);
        ImprovedAlgorithm::new(&counts.assignment(), Tuning::default())
    });
}

criterion_group!(micro, benches, config_space_benches);
criterion_main!(micro);
