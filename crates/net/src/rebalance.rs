//! Heat-driven rebalancing for a [`NodePool`]: watch pool-wide load, and
//! when one node runs meaningfully hotter than the mean, migrate its
//! hottest key to the coolest node — pre-warming the destination's plan
//! cache *before* the cutover. The pre-warmed plan is the key's brick grid
//! and an empty brick store, so the first migrated frame skips preparing
//! the plan but still stages every brick.
//!
//! ```text
//!   pass ─► node_stats() ──► frames/node ──► imbalance = max / mean
//!                │                               │ > band?
//!                │                               ▼
//!                │            hottest key on the hottest node (key_heat)
//!                │                               │
//!                │            PREWARM(last request) ► coolest node
//!                │                               │ plan built (grid + empty store)
//!                │                               ▼
//!                └──────────  migrate(key → dest): epoch bump, cutover
//! ```
//!
//! The decision is deliberately *client-side*: nodes stay simple (they
//! only answer `STATS` and `PREWARM`), and whichever process owns the
//! [`NodePool`] owns placement — mirroring how the in-process
//! `ShardedService` owns its shard map. There is no background thread:
//! [`rebalance_once`] is one pass, and the pool's owner runs it on its own
//! schedule. Every pass is traced (span `rebalance` with
//! `rebalance.prewarm` / `rebalance.cutover` stages) and counted
//! (`pool.rebalance.*`), so `obs_top` shows the control loop breathing
//! next to the data plane it steers.

use mgpu_obs::names;

use mgpu_volren::RequestKey;

use crate::pool::NodePool;

/// When and how hard the rebalancer acts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Imbalance tolerance: act only when the hottest node's completed
    /// frames exceed `band ×` the per-node mean. 1.0 would chase noise;
    /// the default 1.5 moves keys only for a sustained skew.
    pub band: f64,
    /// Ignore pools that have served fewer total frames than this — early
    /// traffic is too sparse to distinguish skew from startup order.
    pub min_frames: u64,
}

/// Most migrations per pass: each one bumps the epoch, and one move lets
/// the previous settle before the next is judged.
const MAX_MOVES: usize = 1;

impl Default for RebalanceConfig {
    fn default() -> RebalanceConfig {
        RebalanceConfig {
            band: 1.5,
            min_frames: 16,
        }
    }
}

/// One key moved by a rebalance pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    pub key: RequestKey,
    /// Directory index the key routed to before the move.
    pub from: usize,
    /// Directory index it routes to now.
    pub to: usize,
    /// Whether the destination actually built a plan during pre-warm
    /// (`false` = its cache was already warm — the move is still safe).
    pub prewarmed: bool,
    /// The placement epoch after the cutover.
    pub epoch: u64,
}

/// What one rebalance pass saw and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceOutcome {
    /// Hottest node's frames over the per-node mean (1.0 = perfectly
    /// even; 0.0 when no node was reachable or no frames were seen).
    pub imbalance: f64,
    pub moves: Vec<MigrationReport>,
    /// The placement epoch when the pass finished.
    pub epoch: u64,
}

/// Run one rebalance pass over the pool: measure imbalance from every
/// reachable node's STATS, and if it exceeds the band, migrate the hottest
/// node's hottest key to the coolest node, with a pre-warm before the
/// cutover. Draining and unreachable nodes are
/// never chosen as destinations.
pub fn rebalance_once(pool: &NodePool, config: &RebalanceConfig) -> RebalanceOutcome {
    let obs = mgpu_obs::global();
    obs.counter(names::POOL_REBALANCE_TICKS).inc();
    // Publishes into the trace ring on drop, under a locally minted id.
    let trace = mgpu_obs::Trace::local();
    let pass = trace.span("rebalance");

    // Per-node completed-frame counts; unreachable nodes drop out of both
    // the mean and the destination candidates.
    let frames: Vec<Option<u64>> = pool
        .node_stats()
        .into_iter()
        .map(|stats| stats.ok().map(|s| s.merged().frames_completed))
        .collect();
    let reachable: Vec<(usize, u64)> = frames
        .iter()
        .enumerate()
        .filter_map(|(node, f)| f.map(|f| (node, f)))
        .collect();
    let total = (reachable.iter()).fold(0u64, |sum, (_, f)| sum.saturating_add(*f));
    let mut outcome = RebalanceOutcome {
        imbalance: 0.0,
        moves: Vec::new(),
        epoch: pool.epoch(),
    };
    if reachable.len() < 2 || total < config.min_frames {
        drop(pass);
        return outcome;
    }
    let mean = total as f64 / reachable.len() as f64;
    let &(hot, hot_frames) = reachable
        .iter()
        .max_by_key(|(_, f)| *f)
        .expect("reachable checked non-empty");
    outcome.imbalance = if mean > 0.0 {
        hot_frames as f64 / mean
    } else {
        0.0
    };
    if outcome.imbalance <= config.band {
        drop(pass);
        return outcome;
    }

    // Destination: the coolest reachable node that is not draining.
    let dest = reachable
        .iter()
        .filter(|(node, _)| *node != hot && !pool.draining(*node))
        .min_by_key(|(_, f)| *f)
        .map(|(node, _)| *node);
    let Some(dest) = dest else {
        drop(pass);
        return outcome;
    };

    // Hot keys actually owned by the hot node, hottest first.
    let directory = pool.directory();
    let candidates: Vec<RequestKey> = pool
        .key_heat()
        .into_iter()
        .filter(|(key, _)| directory.node_for(key) == hot)
        .map(|(key, _)| key)
        .take(MAX_MOVES)
        .collect();
    for key in candidates {
        let Some(request) = pool.last_request(&key) else {
            continue;
        };
        // Pre-warm the destination *before* the cutover: the first frame
        // routed there must find its plan already built.
        let span = trace.span("rebalance.prewarm");
        let prewarmed = match pool.prewarm(dest, &request) {
            Ok((_, built)) => built,
            Err(_) => continue, // destination unreachable — don't move the key
        };
        drop(span);
        let span = trace.span("rebalance.cutover");
        let moved = pool.migrate(&key, dest).unwrap_or(false);
        drop(span);
        if moved {
            obs.counter(names::POOL_REBALANCE_MIGRATIONS).inc();
            let epoch = pool.epoch();
            // Announce the new epoch to the destination (the prewarm
            // above carried the pre-cutover epoch); a second prewarm is
            // an idempotent no-op for the cache but updates the echoed
            // epoch, making the cutover observable in STATS.
            let _ = pool.prewarm(dest, &request);
            outcome.moves.push(MigrationReport {
                key,
                from: hot,
                to: dest,
                prewarmed,
                epoch,
            });
        }
    }
    outcome.epoch = pool.epoch();
    drop(pass);
    outcome
}
