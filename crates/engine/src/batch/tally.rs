//! The per-initiator tally kernel.
//!
//! A uniform batch tally is a two-level conditional-binomial split tree:
//! the root multinomial splits the batch's `ℓ` interactions over
//! initiator states, and each initiator state's subtree resolves its
//! responders (a responder multinomial above the split threshold, one
//! Fenwick draw per interaction below it, in
//! [`BatchSimulation`](crate::batch::BatchSimulation)) and folds the
//! resulting transitions into per-state `delta`/`usage` accumulators
//! ([`fold_subtree`]).
//!
//! **Streams.** The root split is drawn from the main simulation stream;
//! each subtree then runs on a *counter-based* substream seeded
//! `derive(key, subtree_index)`, where `key` is one word drawn from the
//! main stream per tally attempt. A subtree's output is therefore a pure
//! function of `(key, subtree_index, configuration)`, and the main stream
//! advances by the root draw plus one key word per attempt, however many
//! draws the subtrees make.
//!
//! The accumulation helpers ([`accumulate`] and friends) are free
//! functions so the adversarial-scheduler path in
//! [`sim`](crate::batch::BatchSimulation), which draws its real-valued
//! class weighting from the main stream, shares the exact transition
//! semantics.

use crate::batch::multinomial::{binomial, binomial_batch, multinomial_into};
use crate::batch::TableProtocol;
use crate::fault::LieTarget;
use crate::protocol::SimRng;

/// The batch-invariant context a tally needs: protocol semantics plus the
/// adversary snapshot.
pub(crate) struct TallyCtx<'a, P: TableProtocol> {
    pub protocol: &'a P,
    pub deterministic: bool,
    /// `(lie probability, what liars report)` for the current batch.
    pub lie: Option<(f64, LieTarget)>,
    pub states: usize,
}

/// Kernel scratch reused across subtrees and batches.
#[derive(Debug, Default)]
pub(crate) struct TallyScratch {
    /// Responder cells `(b, multiplicity)` of the current subtree.
    pub cells: Vec<(usize, u64)>,
    // Lanes for the Byzantine array passes.
    ms: Vec<u64>,
    a_lies: Vec<u64>,
    both: Vec<u64>,
    rest: Vec<u64>,
    b_lies: Vec<u64>,
}

/// Fold one initiator subtree — initiator state `a` against the responder
/// cells in `scratch.cells`, drawn on the subtree's substream `rng` — into
/// `delta`/`usage`. Adds (never overwrites), so per-subtree outputs merge
/// by plain summation.
pub(crate) fn fold_subtree<P: TableProtocol>(
    ctx: &TallyCtx<'_, P>,
    rng: &mut SimRng,
    a: usize,
    scratch: &mut TallyScratch,
    delta: &mut [i64],
    usage: &mut [u64],
) {
    let TallyScratch {
        cells,
        ms,
        a_lies,
        both,
        rest,
        b_lies,
    } = scratch;
    match ctx.lie {
        None => {
            for &(b, m) in cells.iter() {
                usage[a] += m;
                usage[b] += m;
                honest_delta(ctx, rng, delta, a, b, m);
            }
        }
        Some((frac, forged)) => {
            // Byzantine split as array passes: every cell's liar shares
            // come from three batch binomials over the cell
            // multiplicities (each participant lies independently with
            // probability `frac`), then the per-cell transitions apply.
            ms.clear();
            ms.extend(cells.iter().map(|&(_, m)| m));
            binomial_batch(rng, ms, frac, a_lies);
            binomial_batch(rng, a_lies, frac, both);
            rest.clear();
            rest.extend(ms.iter().zip(a_lies.iter()).map(|(&m, &l)| m - l));
            binomial_batch(rng, rest, frac, b_lies);
            for (i, &(b, m)) in cells.iter().enumerate() {
                usage[a] += m;
                usage[b] += m;
                let m_honest = m - a_lies[i] - b_lies[i];
                if m_honest > 0 {
                    honest_delta(ctx, rng, delta, a, b, m_honest);
                }
                one_sided(ctx, rng, delta, a, b, a_lies[i] - both[i], forged, true);
                one_sided(ctx, rng, delta, a, b, b_lies[i], forged, false);
            }
        }
    }
}

/// Fold one ordered pair `(a, b)` with multiplicity `m` into the
/// accumulators, resolving the Byzantine split per pair (interleaved
/// binomials) — the semantics the adversarial-scheduler path keeps.
pub(crate) fn accumulate<P: TableProtocol>(
    ctx: &TallyCtx<'_, P>,
    rng: &mut SimRng,
    delta: &mut [i64],
    usage: &mut [u64],
    a: usize,
    b: usize,
    m: u64,
) {
    usage[a] += m;
    usage[b] += m;
    match ctx.lie {
        None => honest_delta(ctx, rng, delta, a, b, m),
        Some((frac, forged)) => {
            let m_a_lies = binomial(rng, m, frac);
            let m_both = binomial(rng, m_a_lies, frac);
            let m_b_lies = binomial(rng, m - m_a_lies, frac);
            let m_honest = m - m_a_lies - m_b_lies;
            if m_honest > 0 {
                honest_delta(ctx, rng, delta, a, b, m_honest);
            }
            one_sided(ctx, rng, delta, a, b, m_a_lies - m_both, forged, true);
            one_sided(ctx, rng, delta, a, b, m_b_lies, forged, false);
        }
    }
}

/// The honest two-sided transition for `m` interactions of `(a, b)`:
/// one delta evaluation for deterministic protocols, one coin-consuming
/// evaluation per interaction otherwise. Usage is charged by the caller.
pub(crate) fn honest_delta<P: TableProtocol>(
    ctx: &TallyCtx<'_, P>,
    rng: &mut SimRng,
    delta: &mut [i64],
    a: usize,
    b: usize,
    m: u64,
) {
    if ctx.deterministic {
        let (a2, b2) = ctx.protocol.delta(a, b, rng);
        if (a2, b2) == (a, b) {
            return;
        }
        let m = m as i64;
        delta[a] -= m;
        delta[b] -= m;
        delta[a2] += m;
        delta[b2] += m;
    } else {
        for _ in 0..m {
            let (a2, b2) = ctx.protocol.delta(a, b, rng);
            if (a2, b2) == (a, b) {
                continue;
            }
            delta[a] -= 1;
            delta[b] -= 1;
            delta[a2] += 1;
            delta[b2] += 1;
        }
    }
}

/// `m` interactions where exactly one participant of the ordered pair
/// `(a, b)` lies: `a` when `a_lies`, else `b`. Random forgeries spread
/// the mass multinomially over the `S` uniform forged states; a
/// [`LieTarget::Pair`] (the polarizing split forgery) halves the mass
/// binomially between its two states.
#[allow(clippy::too_many_arguments)]
pub(crate) fn one_sided<P: TableProtocol>(
    ctx: &TallyCtx<'_, P>,
    rng: &mut SimRng,
    delta: &mut [i64],
    a: usize,
    b: usize,
    m: u64,
    forged: LieTarget,
    a_lies: bool,
) {
    if m == 0 {
        return;
    }
    match forged {
        LieTarget::Fixed(f) => one_sided_fixed(ctx, rng, delta, a, b, m, f, a_lies),
        LieTarget::Random => {
            let uniform = vec![1u64; ctx.states];
            let mut shares = Vec::new();
            multinomial_into(rng, m, &uniform, ctx.states as u64, &mut shares);
            for (f, mf) in shares {
                one_sided_fixed(ctx, rng, delta, a, b, mf, f, a_lies);
            }
        }
        LieTarget::Pair(x, y) => {
            let mx = binomial(rng, m, 0.5);
            if mx > 0 {
                one_sided_fixed(ctx, rng, delta, a, b, mx, x, a_lies);
            }
            if m - mx > 0 {
                one_sided_fixed(ctx, rng, delta, a, b, m - mx, y, a_lies);
            }
        }
    }
}

/// One-sided share with a fixed forged state `f`: only the honest
/// partner's half of the transition is applied.
#[allow(clippy::too_many_arguments)]
fn one_sided_fixed<P: TableProtocol>(
    ctx: &TallyCtx<'_, P>,
    rng: &mut SimRng,
    delta: &mut [i64],
    a: usize,
    b: usize,
    m: u64,
    f: usize,
    a_lies: bool,
) {
    if ctx.deterministic {
        if a_lies {
            let (_, b2) = ctx.protocol.delta(f, b, rng);
            if b2 != b {
                delta[b] -= m as i64;
                delta[b2] += m as i64;
            }
        } else {
            let (a2, _) = ctx.protocol.delta(a, f, rng);
            if a2 != a {
                delta[a] -= m as i64;
                delta[a2] += m as i64;
            }
        }
    } else {
        for _ in 0..m {
            if a_lies {
                let (_, b2) = ctx.protocol.delta(f, b, rng);
                if b2 != b {
                    delta[b] -= 1;
                    delta[b2] += 1;
                }
            } else {
                let (a2, _) = ctx.protocol.delta(a, f, rng);
                if a2 != a {
                    delta[a] -= 1;
                    delta[a2] += 1;
                }
            }
        }
    }
}
