//! The paper's two tasks, built on one engine — and, crucially, on the
//! *same* trained model.
//!
//! "A key side benefit of applying rules at inference time is that
//! modifying the rules enables repurposing an existing LLM … for a
//! different task, without retraining or fine-tuning." The [`Imputer`]
//! conditions the model on coarse signals and generates the fine series
//! under the imputation rule set; the [`Synthesizer`] generates coarse
//! records unconditionally under the synthesis rule set. Both expose the
//! same four decoding modes used throughout the evaluation:
//! JIT (LeJIT), vanilla, rejection sampling, and post-hoc repair.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lejit_lm::LanguageModel;
use lejit_lm::SamplerConfig;
use lejit_rules::{ground_rule, GroundCtx, RuleSet};
use lejit_smt::TermId;
use lejit_telemetry::{encode_prompt, CoarseField, CoarseSignals, PROMPT_SEPARATOR};

use crate::batch::{par_batches_with, record_seed};
use crate::decoder::{DecodeError, DecodedOutput, JitDecoder};
use crate::pool::{fnv1a64, PooledSession, SessionPool};
use crate::repair::{repair_nearest, RepairError};
use crate::schema::DecodeSchema;
use crate::session::JitSession;
use crate::transition::Lookahead;
use crate::vanilla::{RejectionOutcome, RejectionSampler, VanillaDecoder};

/// Shared task configuration.
#[derive(Clone, Copy, Debug)]
pub struct TaskConfig {
    /// Sampling hyperparameters.
    pub sampler: SamplerConfig,
    /// Lookahead policy for the JIT decoder.
    ///
    /// Defaults to [`Lookahead::IntervalGuided`], which answers every query
    /// identically to [`Lookahead::Full`] with ~5× fewer solver checks;
    /// `Full` stays selectable for ablations and debugging.
    pub lookahead: Lookahead,
    /// Attempt budget for rejection sampling.
    pub rejection_budget: u32,
    /// Worker threads for record-level parallel decoding
    /// ([`crate::batch::par_records`]); `0` means "use the process-global
    /// default" ([`minipool::global_threads`]). Output is byte-identical
    /// for every value — this is purely a throughput knob.
    pub threads: usize,
    /// Records decoded lock-step per batched forward pass
    /// ([`crate::batch::par_batches_with`] →
    /// [`JitDecoder::decode_batch`]); `0` or `1` means unbatched (one
    /// record per model call). Like `threads`, purely a throughput knob:
    /// output is byte-identical for every value.
    pub batch_size: usize,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            sampler: SamplerConfig::default(),
            lookahead: Lookahead::IntervalGuided,
            rejection_budget: 10_000,
            threads: 0,
            batch_size: 1,
        }
    }
}

/// Errors from task-level pipelines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// Decoding failed.
    Decode(DecodeError),
    /// Post-hoc repair failed.
    Repair(RepairError),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Decode(e) => write!(f, "{e}"),
            TaskError::Repair(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TaskError {}

impl From<DecodeError> for TaskError {
    fn from(e: DecodeError) -> Self {
        TaskError::Decode(e)
    }
}

impl From<RepairError> for TaskError {
    fn from(e: RepairError) -> Self {
        TaskError::Repair(e)
    }
}

// ---------------------------------------------------------------------------
// Imputation
// ---------------------------------------------------------------------------

/// Network telemetry imputation (§4.1): recover the fine-grained ingress
/// series from coarse window aggregates.
pub struct Imputer<'m, M: LanguageModel> {
    model: &'m M,
    rules: RuleSet,
    window_len: usize,
    bandwidth: i64,
    config: TaskConfig,
}

impl<'m, M: LanguageModel> Imputer<'m, M> {
    /// Creates an imputer for the given rule set and window geometry.
    pub fn new(
        model: &'m M,
        rules: RuleSet,
        window_len: usize,
        bandwidth: i64,
        config: TaskConfig,
    ) -> Self {
        Imputer {
            model,
            rules,
            window_len,
            bandwidth,
            config,
        }
    }

    /// The imputation rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The decode schema this imputer's windows follow.
    pub fn schema(&self) -> DecodeSchema {
        DecodeSchema::fine_series(self.window_len, self.bandwidth)
    }

    /// Builds a fresh session with the rules grounded against this window's
    /// coarse signals (constants) and the fine series (solver variables).
    pub fn build_session(&self, coarse: &CoarseSignals) -> (JitSession, DecodeSchema) {
        let schema = self.schema();
        let mut session = JitSession::new(&schema);
        self.ground_in(&mut session, coarse);
        (session, schema)
    }

    /// Grounds this imputer's rules against `coarse` into `session`'s
    /// *current solver frame* — the session must declare this imputer's
    /// schema variables (i.e. come from [`JitSession::new`] on
    /// [`Self::schema`]).
    ///
    /// When the session is a reused one (pooled, or otherwise carrying
    /// state from earlier epochs), ground inside a
    /// [`JitSession::checkpoint`] frame and call
    /// [`JitSession::invalidate_derived`] afterwards: grounding
    /// strengthens the system outside [`JitSession::fix`], so the carried
    /// witness model and epoch-keyed caches must not keep answering.
    pub fn ground_in(&self, session: &mut JitSession, coarse: &CoarseSignals) {
        let solver = session.solver_mut();
        let coarse_terms: Vec<TermId> = CoarseField::ALL
            .into_iter()
            .map(|f| solver.int(coarse.get(f)))
            .collect();
        let fine_terms: Vec<TermId> = (0..self.window_len)
            .map(|t| {
                let v = solver
                    .pool()
                    .find_var(&format!("fine{t}"))
                    .expect("schema declared fine variables");
                solver.var(v)
            })
            .collect();
        let ctx = GroundCtx {
            coarse: coarse_terms.try_into().expect("six coarse fields"),
            fine: fine_terms,
        };
        for rule in &self.rules.rules {
            let g = ground_rule(solver.pool_mut(), &ctx, rule);
            solver.assert(g);
        }
    }

    /// The session-pool fingerprint for this imputer: everything that
    /// shapes a pooled session's warm caches (the rule set and the schema
    /// geometry). Imputers with equal keys produce interchangeable pooled
    /// sessions; a collision is harmless (shelved sessions carry no rules —
    /// see [`SessionPool`]'s soundness protocol).
    pub fn pool_key(&self) -> u64 {
        let desc = format!(
            "{:?}|w={}|b={}",
            self.rules, self.window_len, self.bandwidth
        );
        fnv1a64(desc.as_bytes())
    }

    /// The conditioning prompt for a window (coarse text plus separator) —
    /// what every `impute*` method feeds the decoder.
    pub fn prompt(&self, coarse: &CoarseSignals) -> String {
        let mut p = encode_prompt(coarse);
        p.push(PROMPT_SEPARATOR);
        p
    }

    /// LeJIT imputation: guaranteed rule-compliant output.
    pub fn impute<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        let (mut session, schema) = self.build_session(coarse);
        self.impute_in(&mut session, &schema, coarse, rng)
    }

    /// LeJIT imputation against a caller-provided session for this window
    /// (from [`Self::build_session`]).
    ///
    /// The decode runs inside a [`JitSession::checkpoint`] frame and rolls
    /// back before returning, so one grounded session serves repeated draws
    /// and retries on the same window without re-grounding the rules —
    /// and its interval/memo caches stay warm across calls. The decoded
    /// output is identical to [`Self::impute`] on a fresh session.
    pub fn impute_in<R: Rng>(
        &self,
        session: &mut JitSession,
        schema: &DecodeSchema,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        let decoder =
            JitDecoder::new(self.model, self.config.sampler).with_lookahead(self.config.lookahead);
        let cp = session.checkpoint();
        let out = decoder.decode(session, schema, &self.prompt(coarse), rng);
        session.rollback(cp);
        out
    }

    /// LeJIT imputation against a warm session from `pool` (the serving
    /// path): acquire under [`Self::pool_key`], ground this window's rules
    /// into a checkpoint frame, invalidate derived state, decode, roll
    /// back, release.
    ///
    /// Decoded bytes are identical to [`Self::impute`] on a fresh session —
    /// every lookahead tier is exact, so pooling changes cost, not answers.
    /// The returned stats are rebased to this request
    /// ([`DecodeStats::rebase_against`]): per-request solver work plus this
    /// acquisition's pool events, rather than the session's lifetime
    /// totals.
    ///
    /// [`DecodeStats::rebase_against`]: crate::DecodeStats::rebase_against
    pub fn impute_pooled<R: Rng>(
        &self,
        pool: &mut SessionPool,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        let schema = self.schema();
        let PooledSession {
            mut session,
            baseline,
        } = pool.acquire(self.pool_key(), || JitSession::new(&schema));
        let cp = session.checkpoint();
        self.ground_in(&mut session, coarse);
        session.invalidate_derived();
        let decoder =
            JitDecoder::new(self.model, self.config.sampler).with_lookahead(self.config.lookahead);
        let out = decoder.decode(&mut session, &schema, &self.prompt(coarse), rng);
        session.rollback(cp);
        pool.release(self.pool_key(), session);
        out.map(|mut o| {
            o.stats.rebase_against(&baseline);
            o
        })
    }

    /// LeJIT imputation of a group of windows, lock-step through batched
    /// forward passes ([`JitDecoder::decode_batch`]).
    ///
    /// Each window gets its own freshly grounded session and its own RNG;
    /// window `i`'s result is byte-identical to
    /// `self.impute(&windows[i], &mut rngs[i])`.
    ///
    /// # Panics
    /// Panics unless `rngs.len() == windows.len()`.
    pub fn impute_group<R: Rng>(
        &self,
        windows: &[CoarseSignals],
        rngs: &mut [R],
    ) -> Vec<Result<DecodedOutput, DecodeError>> {
        assert_eq!(rngs.len(), windows.len(), "one RNG per window");
        let mut sessions = Vec::with_capacity(windows.len());
        let mut schema = None;
        for w in windows {
            let (s, sc) = self.build_session(w);
            sessions.push(s);
            schema = Some(sc);
        }
        let Some(schema) = schema else {
            return Vec::new();
        };
        let prompts: Vec<String> = windows.iter().map(|w| self.prompt(w)).collect();
        let prompt_refs: Vec<&str> = prompts.iter().map(|p| p.as_str()).collect();
        let decoder =
            JitDecoder::new(self.model, self.config.sampler).with_lookahead(self.config.lookahead);
        // Checkpoint/rollback framing keeps each lane's solver trajectory
        // exactly the serial `impute`'s.
        let cps: Vec<_> = sessions.iter_mut().map(|s| s.checkpoint()).collect();
        let out = decoder.decode_batch(&mut sessions, &schema, &prompt_refs, rngs);
        for (s, cp) in sessions.iter_mut().zip(cps) {
            s.rollback(cp);
        }
        out
    }

    /// LeJIT imputation of a whole window set: groups of
    /// [`TaskConfig::batch_size`] windows are decoded lock-step
    /// ([`Self::impute_group`]) and distributed over
    /// [`TaskConfig::threads`] workers, with window `i` drawing from a
    /// fresh `StdRng` seeded by [`record_seed`]`(base_seed, i)`.
    ///
    /// Output is byte-identical for every `(threads, batch_size)` pair —
    /// `(1, 1)` runs serial `impute` calls in a plain loop. Note the model
    /// is shared across workers, so model-level batching needs an `M`
    /// that is both `Sync` and overrides
    /// [`LanguageModel::forward_batch`]; interior-mutability wrappers like
    /// `lejit_lm::BatchedGpt` are not `Sync` and belong in worker-local
    /// state (see the bench crate's pipelines for that pattern).
    pub fn impute_batch(
        &self,
        windows: &[CoarseSignals],
        base_seed: u64,
    ) -> Vec<Result<DecodedOutput, DecodeError>>
    where
        M: Sync,
    {
        par_batches_with(
            self.config.threads,
            windows.len(),
            self.config.batch_size,
            || (),
            |(), span| {
                let mut rngs: Vec<StdRng> = span
                    .clone()
                    .map(|i| StdRng::seed_from_u64(record_seed(base_seed, i as u64)))
                    .collect();
                self.impute_group(&windows[span], &mut rngs)
            },
        )
    }

    /// Vanilla imputation: structural masking only, rules ignored.
    pub fn impute_vanilla<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<DecodedOutput, DecodeError> {
        let schema = DecodeSchema::fine_series(self.window_len, self.bandwidth);
        VanillaDecoder::new(self.model, self.config.sampler).decode(
            &schema,
            &self.prompt(coarse),
            rng,
        )
    }

    /// Rejection sampling: vanilla draws until the rules hold or the budget
    /// is exhausted.
    pub fn impute_rejection<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<RejectionOutcome, DecodeError> {
        let schema = DecodeSchema::fine_series(self.window_len, self.bandwidth);
        let sampler = RejectionSampler::new(
            self.model,
            self.config.sampler,
            self.config.rejection_budget,
        );
        sampler.sample(
            &schema,
            &self.prompt(coarse),
            |vals| self.rules.compliant(coarse, vals),
            rng,
        )
    }

    /// Post-hoc repair: vanilla draw, then nearest-L1 SMT correction.
    /// Returns `(repaired_values, raw_output)`.
    pub fn impute_repaired<R: Rng>(
        &self,
        coarse: &CoarseSignals,
        rng: &mut R,
    ) -> Result<(Vec<i64>, DecodedOutput), TaskError> {
        let raw = self.impute_vanilla(coarse, rng)?;
        if self.rules.compliant(coarse, &raw.values) {
            let vals = raw.values.clone();
            return Ok((vals, raw));
        }
        let (mut session, _) = self.build_session(coarse);
        let clamped: Vec<i64> = raw
            .values
            .iter()
            .map(|&v| v.clamp(0, self.bandwidth))
            .collect();
        let repaired = repair_nearest(&mut session, &clamped)?;
        Ok((repaired, raw))
    }
}

// ---------------------------------------------------------------------------
// Synthesis
// ---------------------------------------------------------------------------

/// Synthetic network data generation (§4.2): unconditional generation of
/// coarse-signal records under the synthesis rule set.
pub struct Synthesizer<'m, M: LanguageModel> {
    model: &'m M,
    rules: RuleSet,
    coarse_hi: [i64; 6],
    config: TaskConfig,
}

impl<'m, M: LanguageModel> Synthesizer<'m, M> {
    /// Creates a synthesizer. `coarse_hi` bounds each field's generated
    /// value (typically the training maxima).
    ///
    /// # Panics
    /// Panics if any rule references the fine series (synthesis rules are
    /// coarse-only by construction).
    pub fn new(model: &'m M, rules: RuleSet, coarse_hi: [i64; 6], config: TaskConfig) -> Self {
        for r in &rules.rules {
            assert!(
                !r.pred.uses_fine(),
                "synthesis rule `{}` references the fine series",
                r.name
            );
        }
        Synthesizer {
            model,
            rules,
            coarse_hi,
            config,
        }
    }

    /// The synthesis rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    fn schema(&self) -> DecodeSchema {
        let fields: Vec<(char, String, i64)> = CoarseField::ALL
            .into_iter()
            .map(|f| (f.key(), f.name().to_string(), self.coarse_hi[f.index()]))
            .collect();
        DecodeSchema::coarse_record(&fields)
    }

    /// Builds a session with the rules grounded over coarse variables.
    pub fn build_session(&self) -> (JitSession, DecodeSchema) {
        let schema = self.schema();
        let mut session = JitSession::new(&schema);
        let solver = session.solver_mut();
        let coarse_terms: Vec<TermId> = CoarseField::ALL
            .into_iter()
            .map(|f| {
                let v = solver
                    .pool()
                    .find_var(f.name())
                    .expect("schema declared coarse variables");
                solver.var(v)
            })
            .collect();
        let ctx = GroundCtx {
            coarse: coarse_terms.try_into().expect("six coarse fields"),
            fine: Vec::new(),
        };
        for rule in &self.rules.rules {
            let g = ground_rule(solver.pool_mut(), &ctx, rule);
            solver.assert(g);
        }
        (session, schema)
    }

    fn signals_from(values: &[i64]) -> CoarseSignals {
        let mut out = CoarseSignals::default();
        for (f, &v) in CoarseField::ALL.into_iter().zip(values) {
            out.set(f, v);
        }
        out
    }

    /// LeJIT synthesis: a guaranteed rule-compliant record.
    pub fn synthesize<R: Rng>(
        &self,
        rng: &mut R,
    ) -> Result<(CoarseSignals, DecodedOutput), DecodeError> {
        let (mut session, schema) = self.build_session();
        self.synthesize_in(&mut session, &schema, rng)
    }

    /// LeJIT synthesis against a caller-provided session (from
    /// [`Self::build_session`]).
    ///
    /// Synthesis sessions are window-independent, so one session can serve
    /// an entire sample loop: each call decodes inside a
    /// [`JitSession::checkpoint`] frame and rolls back, keeping the
    /// grounded rules and the epoch-0 interval/memo caches warm instead of
    /// rebuilding the session per sample. Rollback physically retracts the
    /// frame's clauses from the solver, so the clause database stays
    /// bounded no matter how long the loop runs — no periodic rebuild is
    /// needed. Output is identical to [`Self::synthesize`] on a fresh
    /// session.
    pub fn synthesize_in<R: Rng>(
        &self,
        session: &mut JitSession,
        schema: &DecodeSchema,
        rng: &mut R,
    ) -> Result<(CoarseSignals, DecodedOutput), DecodeError> {
        let decoder =
            JitDecoder::new(self.model, self.config.sampler).with_lookahead(self.config.lookahead);
        let cp = session.checkpoint();
        let out = decoder.decode(session, schema, "", rng);
        session.rollback(cp);
        let out = out?;
        Ok((Self::signals_from(&out.values), out))
    }

    /// LeJIT synthesis of a group of records, lock-step through batched
    /// forward passes ([`JitDecoder::decode_batch`]).
    ///
    /// Each record gets its own freshly grounded session and its own RNG;
    /// record `i`'s decoded text and values are byte-identical to
    /// `self.synthesize(&mut rngs[i])`. Because every lane is grounded
    /// from the same [`Self::build_session`], the batch decodes with
    /// [`JitDecoder::with_shared_lanes`]: lanes at the same schema
    /// position with the same values so far share one interval analysis,
    /// so per-lane `solver_checks` can come in below the serial run's
    /// (the answers — and hence the bytes — are unchanged).
    pub fn synthesize_group<R: Rng>(
        &self,
        rngs: &mut [R],
    ) -> Vec<Result<(CoarseSignals, DecodedOutput), DecodeError>> {
        let count = rngs.len();
        let mut sessions = Vec::with_capacity(count);
        let mut schema = None;
        for _ in 0..count {
            let (s, sc) = self.build_session();
            sessions.push(s);
            schema = Some(sc);
        }
        let Some(schema) = schema else {
            return Vec::new();
        };
        let prompts = vec![""; count];
        let decoder = JitDecoder::new(self.model, self.config.sampler)
            .with_lookahead(self.config.lookahead)
            .with_shared_lanes(true);
        let cps: Vec<_> = sessions.iter_mut().map(|s| s.checkpoint()).collect();
        let outs = decoder.decode_batch(&mut sessions, &schema, &prompts, rngs);
        for (s, cp) in sessions.iter_mut().zip(cps) {
            s.rollback(cp);
        }
        outs.into_iter()
            .map(|r| r.map(|out| (Self::signals_from(&out.values), out)))
            .collect()
    }

    /// LeJIT synthesis of `count` records: groups of
    /// [`TaskConfig::batch_size`] records decode lock-step
    /// ([`Self::synthesize_group`]) across [`TaskConfig::threads`]
    /// workers, record `i` drawing from a fresh `StdRng` seeded by
    /// [`record_seed`]`(base_seed, i)`.
    ///
    /// Output is byte-identical for every `(threads, batch_size)` pair.
    /// The same `Sync`/`forward_batch` note as [`Imputer::impute_batch`]
    /// applies to the shared model.
    pub fn synthesize_batch(
        &self,
        count: usize,
        base_seed: u64,
    ) -> Vec<Result<(CoarseSignals, DecodedOutput), DecodeError>>
    where
        M: Sync,
    {
        par_batches_with(
            self.config.threads,
            count,
            self.config.batch_size,
            || (),
            |(), span| {
                let mut rngs: Vec<StdRng> = span
                    .map(|i| StdRng::seed_from_u64(record_seed(base_seed, i as u64)))
                    .collect();
                self.synthesize_group(&mut rngs)
            },
        )
    }

    /// Vanilla synthesis: structural masking only.
    pub fn synthesize_vanilla<R: Rng>(
        &self,
        rng: &mut R,
    ) -> Result<(CoarseSignals, DecodedOutput), DecodeError> {
        let out =
            VanillaDecoder::new(self.model, self.config.sampler).decode(&self.schema(), "", rng)?;
        Ok((Self::signals_from(&out.values), out))
    }

    /// Rejection-sampled synthesis.
    pub fn synthesize_rejection<R: Rng>(
        &self,
        rng: &mut R,
    ) -> Result<(CoarseSignals, RejectionOutcome), DecodeError> {
        let sampler = RejectionSampler::new(
            self.model,
            self.config.sampler,
            self.config.rejection_budget,
        );
        let rules = &self.rules;
        let outcome = sampler.sample(
            &self.schema(),
            "",
            |vals| rules.compliant(&Self::signals_from(vals), &[]),
            rng,
        )?;
        let signals = Self::signals_from(&outcome.output().values);
        Ok((signals, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lejit_lm::{NgramLm, Vocab};
    use lejit_rules::parse_rules;
    use lejit_telemetry::{
        encode_imputation_example, encode_synthesis_example, generate, TelemetryConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> lejit_telemetry::Dataset {
        generate(TelemetryConfig {
            racks_train: 6,
            racks_test: 2,
            windows_per_rack: 40,
            ..TelemetryConfig::default()
        })
    }

    /// n-gram model trained on real imputation-example text.
    fn imputation_model(d: &lejit_telemetry::Dataset) -> NgramLm {
        let texts: Vec<String> = d.train.iter().map(encode_imputation_example).collect();
        let mut corpus = texts.join("\n");
        corpus.push_str("0123456789,;|=.TERGCD");
        let vocab = Vocab::from_corpus(&corpus);
        let seqs: Vec<Vec<_>> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
        NgramLm::train(vocab, &seqs, 5)
    }

    fn synthesis_model(d: &lejit_telemetry::Dataset) -> NgramLm {
        let texts: Vec<String> = d
            .train
            .iter()
            .map(|w| encode_synthesis_example(&w.coarse))
            .collect();
        let mut corpus = texts.join("\n");
        corpus.push_str("0123456789,;|=.TERGCD");
        let vocab = Vocab::from_corpus(&corpus);
        let seqs: Vec<Vec<_>> = texts.iter().map(|t| vocab.encode(t).unwrap()).collect();
        NgramLm::train(vocab, &seqs, 5)
    }

    fn paper_ruleset() -> RuleSet {
        parse_rules(
            "rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
             rule r2: sum(fine) == total_ingress;
             rule r3: ecn_bytes > 0 => max(fine) >= 45;",
        )
        .unwrap()
    }

    #[test]
    fn imputation_outputs_are_compliant() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        for w in d.test.iter().take(5) {
            let out = imputer.impute(&w.coarse, &mut rng).unwrap();
            assert!(
                imputer.rules().compliant(&w.coarse, &out.values),
                "violation on {:?}: {:?}",
                w.coarse,
                out.values
            );
            assert_eq!(
                out.values.iter().sum::<i64>(),
                w.coarse.get(CoarseField::TotalIngress)
            );
        }
    }

    #[test]
    fn pooled_imputation_is_byte_identical_to_fresh() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut pool = SessionPool::new(2);
        for (i, w) in d.test.iter().take(8).enumerate() {
            let seed = record_seed(77, i as u64);
            let fresh = imputer
                .impute(&w.coarse, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let pooled = imputer
                .impute_pooled(&mut pool, &w.coarse, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(pooled.text, fresh.text, "window {i}: bytes must match");
            assert_eq!(pooled.values, fresh.values);
            assert_eq!(pooled.stats.tokens, fresh.stats.tokens);
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "one cold build, then warm reuse");
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.evictions, 0);
        assert_eq!(pool.shelved(), 1);
    }

    #[test]
    fn pooled_imputation_stats_are_per_request() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut pool = SessionPool::new(2);
        let w = &d.test[0];
        let a = imputer
            .impute_pooled(&mut pool, &w.coarse, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let b = imputer
            .impute_pooled(&mut pool, &w.coarse, &mut StdRng::seed_from_u64(5))
            .unwrap();
        // Same window, same seed, same bytes — so the second request's
        // rebased counters must not include the first's work.
        assert_eq!(a.text, b.text);
        assert_eq!(a.stats.pool_misses, 1);
        assert_eq!(a.stats.pool_hits, 0);
        assert_eq!(b.stats.pool_hits, 1);
        assert_eq!(b.stats.pool_misses, 0);
        assert!(
            b.stats.solver_checks <= a.stats.solver_checks,
            "a warm session never does more checks than a cold one \
             (warm: {}, cold: {})",
            b.stats.solver_checks,
            a.stats.solver_checks
        );
    }

    #[test]
    fn vanilla_imputation_violates_sometimes() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut violations = 0;
        for w in d.test.iter().take(20) {
            let out = imputer.impute_vanilla(&w.coarse, &mut rng).unwrap();
            if !imputer.rules().compliant(&w.coarse, &out.values) {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "an n-gram model should violate sum-consistency"
        );
    }

    #[test]
    fn rejection_imputation_when_accepted_is_compliant() {
        let d = dataset();
        let model = imputation_model(&d);
        // Small windows with low totals are acceptable quickly; use a
        // generous budget and only assert on accepted outcomes.
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig {
                rejection_budget: 2000,
                ..TaskConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let w = &d.test[0];
        let outcome = imputer.impute_rejection(&w.coarse, &mut rng).unwrap();
        if outcome.accepted() {
            assert!(imputer
                .rules()
                .compliant(&w.coarse, &outcome.output().values));
        }
        assert!(outcome.attempts() >= 1);
    }

    #[test]
    fn repaired_imputation_is_compliant() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        for w in d.test.iter().take(5) {
            let (repaired, _raw) = imputer.impute_repaired(&w.coarse, &mut rng).unwrap();
            assert!(imputer.rules().compliant(&w.coarse, &repaired));
        }
    }

    #[test]
    fn synthesis_outputs_are_compliant() {
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules(
            "rule a: egress_total <= total_ingress;
             rule b: drops <= total_ingress;
             rule c: conn_count >= 1;",
        )
        .unwrap();
        let hi = [
            d.train_max(CoarseField::TotalIngress),
            d.train_max(CoarseField::EcnBytes),
            d.train_max(CoarseField::RetransBytes),
            d.train_max(CoarseField::EgressTotal),
            d.train_max(CoarseField::ConnCount),
            d.train_max(CoarseField::Drops),
        ];
        let synth = Synthesizer::new(&model, rules, hi, TaskConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let (signals, out) = synth.synthesize(&mut rng).unwrap();
            assert!(synth.rules().compliant(&signals, &[]), "{signals:?}");
            // Output text parses back to the same record.
            let parsed = lejit_telemetry::parse_coarse(&out.text).unwrap();
            assert_eq!(parsed, signals);
        }
    }

    #[test]
    fn synthesizer_rejects_fine_rules() {
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules("rule bad: sum(fine) == total_ingress;").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Synthesizer::new(&model, rules, [100; 6], TaskConfig::default())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reused_session_synthesis_matches_fresh() {
        // One session serving a whole sample loop (checkpoint/rollback per
        // draw) must produce exactly what per-sample fresh sessions would.
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules(
            "rule a: egress_total <= total_ingress;
             rule b: drops <= total_ingress;",
        )
        .unwrap();
        let hi = [
            d.train_max(CoarseField::TotalIngress),
            d.train_max(CoarseField::EcnBytes),
            d.train_max(CoarseField::RetransBytes),
            d.train_max(CoarseField::EgressTotal),
            d.train_max(CoarseField::ConnCount),
            d.train_max(CoarseField::Drops),
        ];
        let synth = Synthesizer::new(&model, rules, hi, TaskConfig::default());
        let (mut session, schema) = synth.build_session();
        for i in 0..4u64 {
            let mut rng_reused = StdRng::seed_from_u64(900 + i);
            let mut rng_fresh = StdRng::seed_from_u64(900 + i);
            let (s_reused, o_reused) = synth
                .synthesize_in(&mut session, &schema, &mut rng_reused)
                .unwrap();
            let (s_fresh, o_fresh) = synth.synthesize(&mut rng_fresh).unwrap();
            assert_eq!(o_reused.text, o_fresh.text, "sample {i}");
            assert_eq!(s_reused, s_fresh, "sample {i}");
        }
    }

    #[test]
    fn reused_session_imputation_matches_fresh() {
        let d = dataset();
        let model = imputation_model(&d);
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let w = &d.test[0];
        let (mut session, schema) = imputer.build_session(&w.coarse);
        for i in 0..3u64 {
            let mut rng_reused = StdRng::seed_from_u64(910 + i);
            let mut rng_fresh = StdRng::seed_from_u64(910 + i);
            let reused = imputer
                .impute_in(&mut session, &schema, &w.coarse, &mut rng_reused)
                .unwrap();
            let fresh = imputer.impute(&w.coarse, &mut rng_fresh).unwrap();
            assert_eq!(reused.text, fresh.text, "draw {i}");
            assert!(imputer.rules().compliant(&w.coarse, &reused.values));
        }
    }

    #[test]
    fn batched_imputation_is_byte_identical_to_serial() {
        let d = dataset();
        let model = imputation_model(&d);
        let windows: Vec<CoarseSignals> = d.test.iter().take(6).map(|w| w.coarse).collect();
        let serial = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let reference: Vec<String> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let mut rng = StdRng::seed_from_u64(record_seed(77, i as u64));
                serial.impute(w, &mut rng).unwrap().text
            })
            .collect();
        for (threads, batch_size) in [(1, 1), (1, 4), (2, 3), (4, 8)] {
            let imputer = Imputer::new(
                &model,
                paper_ruleset(),
                d.window_len,
                d.bandwidth,
                TaskConfig {
                    threads,
                    batch_size,
                    ..TaskConfig::default()
                },
            );
            let texts: Vec<String> = imputer
                .impute_batch(&windows, 77)
                .into_iter()
                .map(|r| r.unwrap().text)
                .collect();
            assert_eq!(texts, reference, "threads={threads} batch={batch_size}");
        }
    }

    #[test]
    fn batched_synthesis_is_byte_identical_to_serial() {
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules(
            "rule a: egress_total <= total_ingress;
             rule b: drops <= total_ingress;",
        )
        .unwrap();
        let hi = [
            d.train_max(CoarseField::TotalIngress),
            d.train_max(CoarseField::EcnBytes),
            d.train_max(CoarseField::RetransBytes),
            d.train_max(CoarseField::EgressTotal),
            d.train_max(CoarseField::ConnCount),
            d.train_max(CoarseField::Drops),
        ];
        let serial = Synthesizer::new(&model, rules.clone(), hi, TaskConfig::default());
        let reference: Vec<String> = (0..6u64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(record_seed(88, i));
                serial.synthesize(&mut rng).unwrap().1.text
            })
            .collect();
        for (threads, batch_size) in [(1, 1), (1, 8), (2, 4)] {
            let synth = Synthesizer::new(
                &model,
                rules.clone(),
                hi,
                TaskConfig {
                    threads,
                    batch_size,
                    ..TaskConfig::default()
                },
            );
            let texts: Vec<String> = synth
                .synthesize_batch(6, 88)
                .into_iter()
                .map(|r| r.unwrap().1.text)
                .collect();
            assert_eq!(texts, reference, "threads={threads} batch={batch_size}");
        }
    }

    #[test]
    fn session_rebuild_interval_is_output_invisible() {
        // Regression guard from the periodic-rebuild era: a session rebuilt
        // mid-run answers exactly like a rolled-back one, so forcing a
        // rebuild in the middle of a sample loop must not change a single
        // byte. Rollback now physically retracts frames and no layer
        // rebuilds periodically anymore, but rebuild-equivalence is still
        // the contract that makes session reuse sound at all.
        let d = dataset();
        let model = synthesis_model(&d);
        let rules = parse_rules(
            "rule a: egress_total <= total_ingress;
             rule b: drops <= total_ingress;",
        )
        .unwrap();
        let hi = [
            d.train_max(CoarseField::TotalIngress),
            d.train_max(CoarseField::EcnBytes),
            d.train_max(CoarseField::RetransBytes),
            d.train_max(CoarseField::EgressTotal),
            d.train_max(CoarseField::ConnCount),
            d.train_max(CoarseField::Drops),
        ];
        let synth = Synthesizer::new(&model, rules, hi, TaskConfig::default());
        let draws = 6u64;
        let (mut session, schema) = synth.build_session();
        let reference: Vec<String> = (0..draws)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(2000 + i);
                synth
                    .synthesize_in(&mut session, &schema, &mut rng)
                    .unwrap()
                    .1
                    .text
            })
            .collect();
        let (mut session, schema) = synth.build_session();
        let mut got = Vec::new();
        for i in 0..draws {
            if i == 3 {
                // Forced mid-run rebuild: must be invisible in the output.
                session = synth.build_session().0;
            }
            let mut rng = StdRng::seed_from_u64(2000 + i);
            got.push(
                synth
                    .synthesize_in(&mut session, &schema, &mut rng)
                    .unwrap()
                    .1
                    .text,
            );
        }
        assert_eq!(got, reference, "rebuild at draw 3 changed output");
    }

    #[test]
    fn same_model_serves_both_tasks() {
        // The paper's headline property: one model, two tasks, swapped rules.
        let d = dataset();
        let model = imputation_model(&d); // trained once, on imputation text
        let imputer = Imputer::new(
            &model,
            paper_ruleset(),
            d.window_len,
            d.bandwidth,
            TaskConfig::default(),
        );
        let synth_rules = parse_rules("rule a: egress_total <= total_ingress;").unwrap();
        let hi = [300, 120, 300, 300, 99, 300];
        let synth = Synthesizer::new(&model, synth_rules, hi, TaskConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let w = &d.test[0];
        let imp = imputer.impute(&w.coarse, &mut rng).unwrap();
        assert!(imputer.rules().compliant(&w.coarse, &imp.values));
        let (signals, _) = synth.synthesize(&mut rng).unwrap();
        assert!(synth.rules().compliant(&signals, &[]));
    }
}
