//! Property tests: sharded parallel ingest followed by the paper's
//! `merge` fold is equivalent to single-tree ingest of the same trace.
//!
//! The sharded tree takes keys already canonicalized and hashed (the
//! pipeline hashes each record once at decode time); the tests do that
//! step themselves in [`prehashed`].

use flowdist::ShardedTree;
use flowkey::{key_hash, FlowKey, Schema};
use flowtree_core::{Config, Estimator, FlowTree, Popularity};
use proptest::prelude::*;

fn arb_host_key() -> impl Strategy<Value = FlowKey> {
    (0u8..4, 0u8..8, 0u8..24, 0u8..2, 1u16..6).prop_map(|(a, b, c, d, port)| {
        format!(
            "src=10.{a}.{b}.{c}/32 dst=192.0.2.{d}/32 sport={} dport=443 proto=tcp",
            40000 + port
        )
        .parse()
        .unwrap()
    })
}

fn arb_pop() -> impl Strategy<Value = Popularity> {
    (1i64..50, 1i64..2000).prop_map(|(p, b)| Popularity::new(p, b, 1))
}

/// Canonicalizes and hashes a trace the way the pipeline does.
fn prehashed(inserts: &[(FlowKey, Popularity)]) -> Vec<(u64, FlowKey, Popularity)> {
    let schema = Schema::five_feature();
    inserts
        .iter()
        .map(|(k, p)| {
            let k = schema.canonicalize(k);
            (key_hash(&k), k, *p)
        })
        .collect()
}

fn ingest(tree: &mut ShardedTree, inserts: &[(FlowKey, Popularity)]) {
    tree.par_insert_prehashed_iter(prehashed(inserts).into_iter(), inserts.len());
}

/// What `shards` shards compute without any worker thread: per-shard
/// trees with the split budget, each sub-batch routed by the
/// multiply-shift of its key hash and applied on this thread, folded
/// into one full-budget tree with the paper's `merge`.
struct SequentialShards {
    shards: Vec<FlowTree>,
    schema: Schema,
    cfg: Config,
}

impl SequentialShards {
    fn new(schema: Schema, cfg: Config, shards: usize) -> SequentialShards {
        let mut per_shard = cfg;
        per_shard.node_budget = (cfg.node_budget / shards).max(Config::MIN_BUDGET);
        SequentialShards {
            shards: (0..shards)
                .map(|_| FlowTree::new(schema, per_shard))
                .collect(),
            schema,
            cfg,
        }
    }

    fn insert_batch(&mut self, inserts: &[(FlowKey, Popularity)]) {
        let n = self.shards.len();
        let mut buckets = vec![Vec::new(); n];
        for item in prehashed(inserts) {
            buckets[((item.0 as u128 * n as u128) >> 64) as usize].push(item);
        }
        for (tree, bucket) in self.shards.iter_mut().zip(&mut buckets) {
            tree.insert_batch_prehashed(bucket);
        }
    }

    fn total(&self) -> Popularity {
        self.shards
            .iter()
            .fold(Popularity::ZERO, |acc, t| acc + t.total())
    }

    fn fold(&self) -> FlowTree {
        let mut out = FlowTree::new(self.schema, self.cfg);
        for tree in &self.shards {
            out.merge(tree).unwrap();
        }
        out
    }
}

fn masses(tree: &FlowTree) -> Vec<(FlowKey, Popularity)> {
    let mut out: Vec<_> = tree
        .iter()
        .filter(|v| !v.comp.is_zero())
        .map(|v| (*v.key, v.comp))
        .collect();
    out.sort_by_key(|(k, _)| *k);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With room for every key (no compaction anywhere), the folded
    /// sharded tree is *exactly* the single tree: same node masses.
    #[test]
    fn sharded_fold_is_exact_without_budget_pressure(
        inserts in proptest::collection::vec((arb_host_key(), arb_pop()), 1..300),
        shards in 1usize..6,
    ) {
        let schema = Schema::five_feature();
        let cfg = Config::with_budget(1_000_000);
        let mut single = FlowTree::new(schema, cfg);
        for (k, p) in &inserts {
            single.insert(k, *p);
        }
        let mut sharded = ShardedTree::new(schema, cfg, shards);
        ingest(&mut sharded, &inserts);
        sharded.validate();
        let folded = sharded.fold();
        folded.validate();
        prop_assert_eq!(folded.total(), single.total());
        prop_assert_eq!(masses(&folded), masses(&single));
    }

    /// Persistent-worker ingest: the batch stream is chopped into
    /// arbitrary sub-batches queued to the long-lived shard workers
    /// (with reads interleaved to force drains mid-stream), and the
    /// drained fold on window close is *byte-identical* in shape to
    /// the same shards applied sequentially over the same sub-batches.
    #[test]
    fn worker_pool_drain_on_close_matches_sequential(
        inserts in proptest::collection::vec((arb_host_key(), arb_pop()), 1..300),
        shards in 2usize..6,
        chunk in 1usize..64,
        budget in 128usize..4096,
    ) {
        let schema = Schema::five_feature();
        let cfg = Config::with_budget(budget);
        let mut par = ShardedTree::new(schema, cfg, shards);
        let mut seq = SequentialShards::new(schema, cfg, shards);
        for (i, batch) in inserts.chunks(chunk).enumerate() {
            ingest(&mut par, batch);
            seq.insert_batch(batch);
            if i % 3 == 0 {
                // A mid-stream read must drain the queues and observe
                // exactly the sequential state.
                prop_assert_eq!(par.total(), seq.total());
            }
        }
        // "Window close": fold after a clean drain + worker join.
        let folded_par = par.into_tree();
        let folded_seq = seq.fold();
        folded_par.validate();
        prop_assert_eq!(folded_par.total(), folded_seq.total());
        prop_assert_eq!(folded_par.len(), folded_seq.len());
        prop_assert_eq!(masses(&folded_par), masses(&folded_seq));
        prop_assert_eq!(
            folded_par.encode(),
            folded_seq.encode(),
            "worker-pool fold is byte-identical on the wire"
        );
    }

    /// Under budget pressure: totals are conserved exactly, structural
    /// invariants hold, and per-key estimates stay within the
    /// budget-induced error bound — the Conservative estimator is a
    /// guaranteed lower bound and the Optimistic estimator a guaranteed
    /// upper bound, for the sharded fold exactly as for a single tree.
    #[test]
    fn sharded_fold_respects_budget_error_bounds(
        inserts in proptest::collection::vec((arb_host_key(), arb_pop()), 50..400),
        shards in 1usize..5,
        budget in 64usize..256,
    ) {
        let schema = Schema::five_feature();
        let cfg = Config::with_budget(budget);
        let mut sharded = ShardedTree::new(schema, cfg, shards);
        ingest(&mut sharded, &inserts);
        sharded.validate();
        let folded = sharded.into_tree();
        folded.validate();

        let expect = inserts.iter().fold(Popularity::ZERO, |acc, (_, p)| acc + *p);
        prop_assert_eq!(folded.total(), expect);
        prop_assert!(folded.len() <= budget.max(Config::MIN_BUDGET));

        // Exact per-key truth of the trace.
        let mut truth: std::collections::HashMap<FlowKey, i64> = Default::default();
        for (k, p) in &inserts {
            *truth.entry(schema.canonicalize(k)).or_insert(0) += p.packets;
        }

        let mut lower_cfg = folded.clone();
        let mut upper_cfg = folded.clone();
        lower_cfg.set_estimator(Estimator::Conservative);
        upper_cfg.set_estimator(Estimator::Optimistic);
        for (k, &exact) in &truth {
            let lo = lower_cfg.popularity(k).est.packets;
            let hi = upper_cfg.popularity(k).est.packets;
            prop_assert!(
                lo <= exact as f64 + 1e-6,
                "conservative bound violated for {k}: {lo} > {exact}"
            );
            prop_assert!(
                hi >= exact as f64 - 1e-6,
                "optimistic bound violated for {k}: {hi} < {exact}"
            );
        }
    }
}

/// A tight-budget end-to-end check on a realistic Zipf trace: folding
/// shards keeps total mass and the budget, and the merge operator keeps
/// every retained key's complementary mass non-negative on pure ingest.
#[test]
fn sharded_zipf_trace_folds_cleanly() {
    let mut cfg = flowtrace::profile::backbone(7);
    cfg.packets = 30_000;
    cfg.flows = 5_000;
    let schema = Schema::five_feature();
    let tree_cfg = Config::with_budget(2_048);

    let batch: Vec<(FlowKey, Popularity)> = flowtrace::TraceGen::new(cfg)
        .map(|p| (p.flow_key(), Popularity::packet(p.wire_len)))
        .collect();

    let mut single = FlowTree::new(schema, tree_cfg);
    for (k, p) in &batch {
        single.insert(k, *p);
    }
    for shards in [2usize, 4] {
        let mut st = ShardedTree::new(schema, tree_cfg, shards);
        ingest(&mut st, &batch);
        st.validate();
        let folded = st.into_tree();
        folded.validate();
        assert_eq!(folded.total(), single.total());
        assert!(folded.len() <= tree_cfg.node_budget);
    }
}
