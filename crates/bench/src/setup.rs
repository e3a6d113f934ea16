//! Shared benchmark environment: dataset generation, model training, rule
//! mining — the "once per run" setup every figure shares.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_lm::optim::AdamConfig;
use lejit_lm::{GptConfig, LanguageModel, TinyGpt, Vocab};
use lejit_rules::{manual_rules, mine_rules, paper_rules, MinedRules, MinerConfig, RuleSet};
use lejit_telemetry::{
    encode_imputation_example, generate, vocab_corpus_sample, CoarseField, Dataset, TelemetryConfig,
};

/// Benchmark scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Minimal: used by the criterion benches so figure pipelines fit in a
    /// measurement loop (seconds per iteration).
    Tiny,
    /// Small: suitable for CI and iteration (minutes end to end).
    Quick,
    /// The scale used to produce EXPERIMENTS.md.
    Full,
}

/// Reads `LEJIT_THREADS` (worker threads for record-level parallel
/// decoding), defaulting to the machine's available parallelism.
///
/// Decoded outputs are byte-identical for every value — the knob trades
/// wall time only. The value also becomes the process-global pool default
/// ([`minipool::set_global_threads`]) when [`BenchEnv::build`] runs, so the
/// blocked matmul kernels scale with it too.
pub fn threads_from_env() -> usize {
    std::env::var("LEJIT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Reads `LEJIT_BATCH` (records decoded lock-step per batched forward
/// pass, [`lejit_core::TaskConfig::batch_size`]), defaulting to `1`
/// (unbatched).
///
/// Like `LEJIT_THREADS`, decoded outputs are byte-identical for every
/// value — batching only changes how many KV-cache lanes share each
/// GEMM-shaped weight sweep.
pub fn batch_from_env() -> usize {
    std::env::var("LEJIT_BATCH")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl Scale {
    /// Reads `LEJIT_SCALE` (`tiny`/`quick`/`full`), defaulting to `Quick`.
    pub fn from_env() -> Scale {
        match std::env::var("LEJIT_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            Ok("tiny") | Ok("TINY") => Scale::Tiny,
            _ => Scale::Quick,
        }
    }

    /// The lower-case name used in result paths and JSON artifacts
    /// (matches the `LEJIT_SCALE` values).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Number of held-out test windows to evaluate per method.
    pub fn eval_windows(self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Quick => 40,
            Scale::Full => 200,
        }
    }

    /// Number of synthetic records to draw per generator (paper: 30 K).
    pub fn synth_samples(self) -> usize {
        match self {
            Scale::Tiny => 40,
            Scale::Quick => 300,
            Scale::Full => 2000,
        }
    }

    fn train_steps(self) -> u64 {
        match self {
            Scale::Tiny => 40,
            Scale::Quick => 200,
            Scale::Full => 700,
        }
    }

    fn telemetry(self) -> TelemetryConfig {
        match self {
            Scale::Tiny => TelemetryConfig {
                racks_train: 6,
                racks_test: 2,
                windows_per_rack: 30,
                ..TelemetryConfig::default()
            },
            Scale::Quick => TelemetryConfig {
                racks_train: 20,
                racks_test: 4,
                windows_per_rack: 40,
                ..TelemetryConfig::default()
            },
            Scale::Full => TelemetryConfig {
                racks_train: 80,
                racks_test: 10,
                windows_per_rack: 60,
                ..TelemetryConfig::default()
            },
        }
    }
}

/// Everything the experiments share: data, the one trained model, and the
/// task rule sets.
pub struct BenchEnv {
    /// The scale this environment was built at.
    pub scale: Scale,
    /// The synthetic telemetry dataset (train/test split by rack).
    pub dataset: Dataset,
    /// The single char-level GPT trained from scratch on the training text
    /// (reused by *both* tasks, as in the paper).
    pub gpt: TinyGpt,
    /// Mined rule sets (NetNomos-style): imputation + synthesis.
    pub mined: MinedRules,
    /// The manual rules C4–C7 (Zoom2Net's).
    pub manual: RuleSet,
    /// The paper's illustrative R1–R3.
    pub paper: RuleSet,
    /// Per-field training maxima (variable bounds for synthesis).
    pub coarse_hi: [i64; 6],
    /// Worker threads for record-level parallel decoding
    /// ([`threads_from_env`]). Outputs are byte-identical for every value.
    pub threads: usize,
    /// Records per batched forward pass ([`batch_from_env`]). Outputs are
    /// byte-identical for every value.
    pub batch: usize,
}

impl BenchEnv {
    /// Builds the environment: generate data, train the GPT, mine rules.
    /// Output-deterministic for a given scale (the thread count only
    /// changes wall time).
    pub fn build(scale: Scale) -> BenchEnv {
        let threads = threads_from_env();
        let batch = batch_from_env();
        minipool::set_global_threads(threads);
        let dataset = generate(scale.telemetry());

        // Train the char-level GPT from scratch on imputation-example text
        // (each example embeds the full record: coarse prefix + fine series).
        let texts: Vec<String> = dataset
            .train
            .iter()
            .map(encode_imputation_example)
            .collect();
        let mut corpus_sample = texts.join("\n");
        corpus_sample.push_str(&vocab_corpus_sample());
        let vocab = Vocab::from_corpus(&corpus_sample);
        let sequences: Vec<Vec<_>> = texts
            .iter()
            .map(|t| vocab.encode(t).expect("corpus built from these texts"))
            .collect();

        // Trained-model cache, keyed by everything that shapes the model
        // (see `model_cache_path`), so a change to the corpus or to any
        // training hyper-parameter trains afresh instead of silently
        // reusing a stale model. Disable with LEJIT_NO_MODEL_CACHE=1.
        let spec = TrainSpec::for_scale(scale);
        let cache_path = model_cache_path(scale, &texts, &spec);
        let cache_enabled = std::env::var("LEJIT_NO_MODEL_CACHE").is_err();
        let cached = if cache_enabled {
            TinyGpt::load_from_path(&cache_path)
                .ok()
                .filter(|m| m.vocab().chars() == vocab.chars())
        } else {
            None
        };
        let gpt = match cached {
            Some(m) => m,
            None => {
                let mut gpt = TinyGpt::new(spec.gpt, vocab, spec.init_seed);
                let mut rng = StdRng::seed_from_u64(spec.data_seed);
                gpt.train(&sequences, spec.steps, spec.batch, spec.adam, &mut rng);
                if cache_enabled {
                    if let Err(e) = save_model_atomically(&gpt, &cache_path) {
                        eprintln!("warning: could not cache model: {e}");
                    }
                }
                gpt
            }
        };

        let mined = mine_rules(&dataset.train, dataset.bandwidth, MinerConfig::default());
        let manual = manual_rules(dataset.bandwidth);
        let paper = paper_rules(dataset.bandwidth);

        let mut coarse_hi = [0i64; 6];
        for f in CoarseField::ALL {
            coarse_hi[f.index()] = dataset.train_max(f).max(1);
        }

        BenchEnv {
            scale,
            dataset,
            gpt,
            mined,
            manual,
            paper,
            coarse_hi,
            threads,
            batch,
        }
    }

    /// The test windows used for evaluation (first `eval_windows()`).
    pub fn eval_windows(&self) -> &[lejit_telemetry::Window] {
        let n = self.scale.eval_windows().min(self.dataset.test.len());
        &self.dataset.test[..n]
    }
}

/// Version of the model-cache key. Bump it when the training code changes
/// in a way the hashed inputs below cannot see.
const MODEL_CACHE_VERSION: u32 = 1;

/// Everything besides the corpus that shapes the trained model:
/// architecture, seeds and optimizer schedule. Hashed into the cache key.
#[derive(Clone, Copy, Debug)]
struct TrainSpec {
    gpt: GptConfig,
    init_seed: u64,
    data_seed: u64,
    steps: u64,
    batch: usize,
    adam: AdamConfig,
}

impl TrainSpec {
    fn for_scale(scale: Scale) -> TrainSpec {
        let steps = scale.train_steps();
        TrainSpec {
            gpt: GptConfig {
                d_model: 48,
                n_layers: 2,
                n_heads: 2,
                max_seq_len: 96,
            },
            init_seed: 0x6E71,
            data_seed: 0x7EA1,
            steps,
            batch: 4,
            adam: AdamConfig {
                lr: 3e-3,
                warmup_steps: 30,
                total_steps: steps,
                ..AdamConfig::default()
            },
        }
    }
}

/// The cache file for a model trained on `texts` under `spec`:
/// `$TMPDIR/lejit-bench-model-<scale>-<key>.bin`, where `key` is a 64-bit
/// FNV-1a hash of the cache version, the corpus and the training spec.
fn model_cache_path(scale: Scale, texts: &[String], spec: &TrainSpec) -> PathBuf {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(&MODEL_CACHE_VERSION.to_le_bytes());
    for t in texts {
        feed(t.as_bytes());
        feed(b"\n");
    }
    feed(format!("{spec:?}").as_bytes());
    std::env::temp_dir().join(format!("lejit-bench-model-{}-{h:016x}.bin", scale.name()))
}

/// Writes `gpt` to `path` by way of a temporary file in the same
/// directory that is flushed, synced and then renamed over `path`, so a
/// concurrent reader sees either no file or a complete one.
fn save_model_atomically(gpt: &TinyGpt, path: &Path) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let write = || -> io::Result<()> {
        let mut w = io::BufWriter::new(fs::File::create(&tmp)?);
        gpt.save(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        fs::rename(&tmp, path)
    };
    let result = write();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changing_a_training_input_misses_the_model_cache() {
        let texts = vec!["T=120;E=8.".to_string(), "T=90;E=0.".to_string()];
        let spec = TrainSpec::for_scale(Scale::Tiny);
        let base = model_cache_path(Scale::Tiny, &texts, &spec);
        assert_eq!(base, model_cache_path(Scale::Tiny, &texts, &spec));

        let mut lr = spec;
        lr.adam.lr *= 2.0;
        let mut steps = spec;
        steps.steps += 1;
        let mut width = spec;
        width.gpt.d_model += 8;
        let mut corpus = texts.clone();
        corpus[1].push('1');
        for other in [
            model_cache_path(Scale::Tiny, &texts, &lr),
            model_cache_path(Scale::Tiny, &texts, &steps),
            model_cache_path(Scale::Tiny, &texts, &width),
            model_cache_path(Scale::Tiny, &corpus, &spec),
            model_cache_path(Scale::Quick, &texts, &spec),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn atomic_save_round_trips_and_leaves_no_temp_file() {
        let vocab = Vocab::from_corpus("T=0123456789;.");
        let cfg = GptConfig {
            d_model: 8,
            n_layers: 1,
            n_heads: 1,
            max_seq_len: 8,
        };
        let gpt = TinyGpt::new(cfg, vocab, 1);
        let path =
            std::env::temp_dir().join(format!("lejit-bench-model-test-{}.bin", std::process::id()));
        save_model_atomically(&gpt, &path).unwrap();
        let back = TinyGpt::load_from_path(&path).unwrap();
        assert_eq!(back.vocab().chars(), gpt.vocab().chars());
        assert!(!path
            .with_extension(format!("tmp{}", std::process::id()))
            .exists());
        fs::remove_file(&path).unwrap();
    }
}
