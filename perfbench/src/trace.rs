//! The outside-in trace: a timing wrapper around the language model and
//! the decode-counter totals, both read from the benchmark's own code. The
//! program itself carries no tracing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lejit_core::DecodeStats;
use lejit_lm::{LanguageModel, TokenId, Vocab};

use crate::report::Report;
use crate::stats::ratio;

/// A [`LanguageModel`] that counts forward calls and the nanoseconds spent
/// in them. Atomics keep it `Sync`, so the server's shards can share it.
pub struct TimedLm<M> {
    inner: M,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<M> TimedLm<M> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: M) -> Self {
        TimedLm {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// `(calls, nanoseconds)` so far. The counters publish no other data,
    /// so relaxed loads suffice.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }

    fn note(&self, calls: u64, since: Instant) {
        let nanos = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl<M: LanguageModel> LanguageModel for TimedLm<M> {
    fn vocab(&self) -> &Vocab {
        self.inner.vocab()
    }

    fn next_logits(&self, context: &[TokenId]) -> Vec<f32> {
        let t = Instant::now();
        let out = self.inner.next_logits(context);
        self.note(1, t);
        out
    }

    fn forward_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f32>> {
        let t = Instant::now();
        let out = self.inner.forward_batch(contexts);
        self.note(contexts.len() as u64, t);
        out
    }
}

/// Deterministic decode counters, summed over records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Records decoded successfully.
    pub records: u64,
    /// Characters the model generated (emitted minus schema literals).
    pub generated_chars: u64,
    /// Language-model forward calls (one row per call).
    pub lm_calls: u64,
    /// Solver satisfiability checks issued by the lookahead.
    pub checks: u64,
    /// Lookahead queries answered without a solver check.
    pub saved: u64,
    /// Lookahead queries answered from the exact-result memo.
    pub memo_hits: u64,
    /// Simplex pivots.
    pub pivots: u64,
    /// Branch-and-bound nodes.
    pub bnb_nodes: u64,
    /// Theory propagations.
    pub theory_props: u64,
    /// Theory verdicts answered from the solver's memo.
    pub theory_memo_hits: u64,
    /// Tseitin encode-cache hits.
    pub encode_hits: u64,
    /// Tseitin encode-cache misses.
    pub encode_misses: u64,
    /// Warm sessions taken from a session pool.
    pub pool_hits: u64,
    /// Sessions a pool had to build.
    pub pool_misses: u64,
    /// Sessions a pool dropped for lack of shelf space.
    pub pool_evictions: u64,
}

impl Counters {
    /// Adds one record's per-decode stats (already rebased if the session
    /// was reused) and its LM call count.
    pub fn add(&mut self, s: &DecodeStats, lm_calls: u64) {
        self.records += 1;
        self.generated_chars += s.tokens - s.forced_tokens;
        self.lm_calls += lm_calls;
        self.checks += s.solver_checks;
        self.saved += s.solver_checks_saved;
        self.memo_hits += s.cache_hits;
        self.pivots += s.solver_pivots;
        self.bnb_nodes += s.solver_bnb_nodes;
        self.theory_props += s.theory_propagations;
        self.theory_memo_hits += s.theory_memo_hits;
        self.encode_hits += s.encode_cache_hits;
        self.encode_misses += s.encode_cache_misses;
        self.pool_hits += s.pool_hits;
        self.pool_misses += s.pool_misses;
        self.pool_evictions += s.pool_evictions;
    }
}

impl Counters {
    /// Records the lookahead and solver work per generated character.
    pub fn record_rates(&self, r: &mut Report) {
        let per_char = |n: u64| ratio(n as f64, self.generated_chars as f64);
        r.metric("lookahead.checks_per_char", per_char(self.checks), "count");
        r.metric("lookahead.saved_per_char", per_char(self.saved), "count");
        r.metric(
            "lookahead.memo_hits_per_char",
            per_char(self.memo_hits),
            "count",
        );
        r.metric("smt.pivots_per_char", per_char(self.pivots), "count");
        r.metric("smt.bnb_nodes_per_char", per_char(self.bnb_nodes), "count");
        r.metric(
            "smt.theory_props_per_char",
            per_char(self.theory_props),
            "count",
        );
        r.metric(
            "smt.theory_memo_hits_per_char",
            per_char(self.theory_memo_hits),
            "count",
        );
        let encodes = (self.encode_hits + self.encode_misses) as f64;
        r.metric(
            "smt.encode_hit_rate",
            ratio(self.encode_hits as f64, encodes),
            "frac",
        );
    }
}

/// Rebases the lifetime totals a reused session reports after each draw
/// into per-draw deltas ([`DecodeStats::rebase_against`]), carrying the
/// previous draw's totals as the next baseline.
#[derive(Default)]
pub struct Rebaser {
    last: DecodeStats,
}

impl Rebaser {
    /// The per-draw delta of `lifetime` (this draw's reported stats).
    pub fn draw(&mut self, lifetime: DecodeStats) -> DecodeStats {
        let mut delta = lifetime;
        delta.rebase_against(&self.last);
        self.last = lifetime;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lejit_core::{record_seed, Synthesizer, TaskConfig};
    use lejit_lm::NgramLm;
    use lejit_rules::parse_rules;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> NgramLm {
        let corpus = "T=120;E=8;R=0;G=70;C=12;D=0.\nT=90;E=0;R=3;G=40;C=9;D=1.\n";
        let vocab = Vocab::from_corpus(&(corpus.to_string() + "0123456789,.;=|TERGCD"));
        let seqs: Vec<_> = corpus
            .lines()
            .map(|l| vocab.encode(l).expect("corpus characters"))
            .collect();
        NgramLm::train(vocab, &seqs, 3)
    }

    /// The per-draw deltas of a reused synthesis session sum to the
    /// session's final lifetime totals, so per-char rates are not inflated
    /// by earlier draws.
    #[test]
    fn rebased_draws_sum_to_session_totals() {
        let lm = model();
        let rules = parse_rules(
            "rule s1: total_ingress >= ecn_bytes + retrans_bytes;
             rule s2: egress_total <= total_ingress + 10;",
        )
        .expect("valid rules");
        let syn = Synthesizer::new(&lm, rules, [300, 60, 50, 60, 40, 20], TaskConfig::default());
        let (mut session, schema) = syn.build_session();
        let mut rebaser = Rebaser::default();
        let (mut summed, mut naive) = (Counters::default(), Counters::default());
        let mut last = DecodeStats::default();
        for i in 0..12 {
            let mut rng = StdRng::seed_from_u64(record_seed(7, i));
            let (_, out) = syn
                .synthesize_in(&mut session, &schema, &mut rng)
                .expect("satisfiable rules");
            let delta = rebaser.draw(out.stats);
            summed.add(&delta, 0);
            naive.add(&out.stats, 0);
            last = out.stats;
        }
        let mut lifetime = Counters::default();
        lifetime.add(&last, 0);
        assert!(summed.checks > 0, "the rules make the solver work");
        assert_eq!(summed.checks, lifetime.checks);
        assert_eq!(summed.saved, lifetime.saved);
        assert_eq!(summed.memo_hits, lifetime.memo_hits);
        assert_eq!(summed.pivots, lifetime.pivots);
        assert_eq!(summed.bnb_nodes, lifetime.bnb_nodes);
        assert_eq!(summed.theory_props, lifetime.theory_props);
        assert_eq!(summed.theory_memo_hits, lifetime.theory_memo_hits);
        assert_eq!(summed.encode_hits, lifetime.encode_hits);
        assert_eq!(summed.encode_misses, lifetime.encode_misses);
        // Without rebasing, every draw would count its predecessors' work
        // again.
        assert!(naive.checks > summed.checks);
    }
}
