//! Environment set-up, pinned inside the benchmark: the quick-scale
//! telemetry dataset, mined rules and a GPT trained in every run (no model
//! cache), and the n-gram serving model `lejit-serve` ships with.
//!
//! Every constant here is a copy, not a reference: a change to the
//! repository's own scale presets must not silently change what this
//! benchmark measures.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_lm::optim::AdamConfig;
use lejit_lm::{GptConfig, NgramLm, TinyGpt, Vocab};
use lejit_rules::{manual_rules, mine_rules, paper_rules, MinedRules, MinerConfig, RuleSet};
use lejit_telemetry::{
    encode_imputation_example, generate, vocab_corpus_sample, CoarseField, Dataset, TelemetryConfig,
};

use crate::report::Report;
use crate::stats::median;

/// Wall time of each set-up phase, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Telemetry generation (`lejit-telemetry`).
    pub generate_s: f64,
    /// Rule mining or construction (`lejit-rules`).
    pub mine_s: f64,
    /// Model training (`lejit-lm`).
    pub train_s: f64,
    /// Server bind, start and first `ping` round trip (serve only).
    pub start_s: f64,
}

impl SetupTimes {
    /// The end-to-end set-up time.
    pub fn total(&self) -> f64 {
        self.generate_s + self.mine_s + self.train_s + self.start_s
    }
}

/// The median over a run's set-ups of one phase (or of their total).
pub fn median_of(setups: &[SetupTimes], phase: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(phase).collect::<Vec<_>>())
}

/// Records the per-phase set-up medians.
pub fn record_phases(setups: &[SetupTimes], r: &mut Report) {
    r.metric("setup.generate_s", median_of(setups, |s| s.generate_s), "s");
    r.metric("setup.mine_s", median_of(setups, |s| s.mine_s), "s");
    r.metric("setup.train_s", median_of(setups, |s| s.train_s), "s");
}

/// The quick-scale offline environment: the imputation/synthesis inputs.
pub struct OfflineEnv {
    /// Train/test telemetry (quick scale: 20 + 4 racks x 40 windows).
    pub dataset: Dataset,
    /// The char-level GPT, trained from scratch in this run.
    pub gpt: TinyGpt,
    /// NetNomos-style mined rule sets.
    pub mined: MinedRules,
    /// Per-field training maxima (synthesis variable bounds).
    pub coarse_hi: [i64; 6],
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds the offline environment, timing each phase.
pub fn build_offline() -> (OfflineEnv, SetupTimes) {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let dataset = generate(TelemetryConfig {
        racks_train: 20,
        racks_test: 4,
        windows_per_rack: 40,
        ..TelemetryConfig::default()
    });
    times.generate_s = secs_since(t);

    let t = Instant::now();
    let mined = mine_rules(&dataset.train, dataset.bandwidth, MinerConfig::default());
    let mut coarse_hi = [0i64; 6];
    for f in CoarseField::ALL {
        coarse_hi[f.index()] = dataset.train_max(f).max(1);
    }
    times.mine_s = secs_since(t);

    let t = Instant::now();
    let texts: Vec<String> = dataset
        .train
        .iter()
        .map(encode_imputation_example)
        .collect();
    let vocab = Vocab::from_corpus(&(texts.join("\n") + &vocab_corpus_sample()));
    let sequences: Vec<Vec<_>> = texts
        .iter()
        .map(|t| vocab.encode(t).expect("corpus built from these texts"))
        .collect();
    let mut gpt = TinyGpt::new(
        GptConfig {
            d_model: 48,
            n_layers: 2,
            n_heads: 2,
            max_seq_len: 96,
        },
        vocab,
        0x6E71,
    );
    let steps = 200;
    let adam = AdamConfig {
        lr: 3e-3,
        warmup_steps: 30,
        total_steps: steps,
        ..AdamConfig::default()
    };
    gpt.train(
        &sequences,
        steps,
        4,
        adam,
        &mut StdRng::seed_from_u64(0x7EA1),
    );
    times.train_s = secs_since(t);

    (
        OfflineEnv {
            dataset,
            gpt,
            mined,
            coarse_hi,
        },
        times,
    )
}

/// The serving environment, as the `lejit-serve` binary builds it.
pub struct ServeEnv {
    /// The serving dataset; its test windows are the request pool.
    pub dataset: Dataset,
    /// Character 5-gram model.
    pub model: NgramLm,
    /// The server's default rule set (Zoom2Net's manual rules).
    pub manual: RuleSet,
    /// The inline override one request in four carries (paper R1-R3).
    pub paper: RuleSet,
}

/// Builds the serving model and rule sets, timing each phase.
pub fn build_serve() -> (ServeEnv, SetupTimes) {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let dataset = generate(TelemetryConfig {
        racks_train: 12,
        racks_test: 2,
        windows_per_rack: 40,
        window_len: 5,
        bandwidth: 60,
        ..TelemetryConfig::default()
    });
    times.generate_s = secs_since(t);

    let t = Instant::now();
    let manual = manual_rules(dataset.bandwidth);
    let paper = paper_rules(dataset.bandwidth);
    times.mine_s = secs_since(t);

    let t = Instant::now();
    let texts: Vec<String> = dataset
        .train
        .iter()
        .map(encode_imputation_example)
        .collect();
    let vocab = Vocab::from_corpus(&(texts.join("\n") + &vocab_corpus_sample()));
    let seqs: Vec<_> = texts.iter().filter_map(|t| vocab.encode(t).ok()).collect();
    let model = NgramLm::train(vocab, &seqs, 5);
    times.train_s = secs_since(t);

    (
        ServeEnv {
            dataset,
            model,
            manual,
            paper,
        },
        times,
    )
}
