//! The Bayesian-optimization tuner — the paper's primary contribution.
//!
//! CherryPick-style pipeline:
//!
//! 1. **Initial design** — a Latin-hypercube batch (default `3·d` points,
//!    capped) to seed the surrogate with space-filling coverage.
//! 2. **Surrogate** — a Gaussian process over the space's unit-hypercube
//!    encoding, fit to `log₁₀(objective)` (systems objectives span
//!    decades; the log transform makes the GP's Gaussian noise model
//!    honest). Kernel hyperparameters are re-optimized by marginal
//!    likelihood every third trial, from 4 random Nelder–Mead restarts
//!    of up to 75 likelihood evaluations each.
//! 3. **Failures as penalties** — OOM/unmappable trials carry real
//!    information (the cliffs are exactly what the tuner must avoid);
//!    they enter the GP with a penalized target above the worst observed
//!    success.
//! 4. **Acquisition** — EI (default), PI, or LCB, maximized by random +
//!    Halton candidates plus Nelder–Mead refinement, anchored at the
//!    best observed configurations.
//! 5. **Feasibility repair** — the chosen point is decoded onto the
//!    nearest feasible configuration; exact duplicates of evaluated
//!    configurations fall back to exploration.
//!
//! **Transfer as prior data.** [`BoTuner::with_prior`] attaches source
//! workloads' histories ([`SourceHistory`]). A non-empty prior changes
//! exactly three things: the initial design opens with each source's two
//! best configurations and defaults to 3 points; the target trials are
//! z-scored (as the sources are) and the source points appended to the
//! training data; and the GP's noise floor rises from 1e-4 to 0.25.
//! Everything else is the same loop.

use mlconf_gp::acquisition::{maximize_acquisition, Acquisition};
use mlconf_gp::gp::GaussianProcess;
use mlconf_gp::hyperopt::{fit_optimized, HyperoptOptions};
use mlconf_gp::kernel::{Kernel, KernelFamily};
use mlconf_gp::sparse::{SparseConfig, SparseGaussianProcess};
use mlconf_gp::surrogate::Surrogate;
use mlconf_space::config::Configuration;
use mlconf_space::space::ConfigSpace;
use mlconf_util::rng::Pcg64;
use mlconf_util::sampling::latin_hypercube;

use crate::transfer::{mean_std, SourceHistory};
use crate::tuner::{
    StateError, StateValue, TrialHistory, Tuner, TunerDiagnostics, TunerError, TunerState,
};

/// Which surrogate implementation [`BoTuner`] fits each suggest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateMode {
    /// Always the exact GP on the full history (O(n³) per refit).
    Exact,
    /// Always the subset-of-data sparse GP, even for short histories.
    Sparse,
    /// Exact below [`BoConfig::sparse_threshold`] trials, sparse at or
    /// above it. Below the threshold this is *bit-identical* to
    /// [`SurrogateMode::Exact`] — same fits, same RNG consumption, same
    /// suggestions.
    #[default]
    Auto,
}

impl SurrogateMode {
    /// Short name, as spelled in tuner specs (`bo:surrogate=auto`).
    pub fn name(&self) -> &'static str {
        match self {
            SurrogateMode::Exact => "exact",
            SurrogateMode::Sparse => "sparse",
            SurrogateMode::Auto => "auto",
        }
    }

    /// Parses a spec-string value (the inverse of [`Self::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(SurrogateMode::Exact),
            "sparse" => Some(SurrogateMode::Sparse),
            "auto" => Some(SurrogateMode::Auto),
            _ => None,
        }
    }
}

/// Configuration of the BO tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct BoConfig {
    /// Number of initial space-filling trials (0 = auto: `3·d`, capped
    /// to 12, or 3 with a prior).
    pub init_design: usize,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Kernel family for the surrogate.
    pub kernel: KernelFamily,
    /// Treat right-censored (timed-out) trials as lower-bound
    /// observations: they enter the GP at `censored_at ×`
    /// [`CENSORED_INFLATION`] instead of the blanket failure penalty.
    /// Disabling this reproduces the naive penalty-on-failure baseline
    /// the E9 robustness experiment compares against.
    pub censored_as_bound: bool,
    /// Which surrogate to fit each round (see [`SurrogateMode`]).
    pub surrogate: SurrogateMode,
    /// History length at which [`SurrogateMode::Auto`] flips from the
    /// exact GP to the sparse subset model. Deliberately above any
    /// committed experiment's trial budget so defaults reproduce the
    /// exact-GP results bit-for-bit.
    pub sparse_threshold: usize,
    /// Subset-selection policy used on the sparse path.
    pub sparse: SparseConfig,
}

/// Multiplier applied to a censored trial's lower bound when it enters
/// the surrogate: "at least the bound, probably somewhat worse". Modest
/// on purpose — the blanket failure penalty is the thing censoring is
/// meant to avoid.
pub const CENSORED_INFLATION: f64 = 1.5;

/// Kernel hyperparameters are re-optimized every this many trials.
const HYPEROPT_EVERY: usize = 3;

/// Likelihood evaluations per hyperopt restart: half the one-shot
/// default ([`HyperoptOptions::default`]), since the next hyperopt is
/// only [`HYPEROPT_EVERY`] trials away. Fewer restarts or warm starts
/// cost regret; this budget kept it within the reseed-only spread at
/// budgets 40 and 60, but costs about 3% at budget 30 (EXPERIMENTS.md,
/// "Hyperopt budget").
const HYPEROPT_EVALS: usize = 75;

/// Acquisition candidate-set size per suggest.
pub const CANDIDATES: usize = 256;

/// Failed trials enter the GP at `worst_success ×` this factor (in
/// objective space).
const FAILURE_PENALTY_FACTOR: f64 = 2.0;

/// Default initial-design size with a prior: the sources' best
/// configurations replace most of the space-filling exploration.
const PRIOR_INIT_DESIGN: usize = 3;

/// Noise-variance search range (standardized units) with a prior. The
/// raised floor stands in for source/target mismatch, so fresh target
/// observations quickly outweigh source points; refits between
/// hyperopts use the floor.
const PRIOR_NOISE: (f64, f64) = (0.25, 1.5);

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            init_design: 0,
            acquisition: Acquisition::default_ei(),
            kernel: KernelFamily::Matern52,
            censored_as_bound: true,
            surrogate: SurrogateMode::Auto,
            sparse_threshold: 512,
            sparse: SparseConfig::default(),
        }
    }
}

/// The Bayesian-optimization tuner.
#[derive(Debug, Clone)]
pub struct BoTuner {
    space: ConfigSpace,
    config: BoConfig,
    name: String,
    /// Source histories transferred in as prior data (see the module
    /// docs); empty for plain BO.
    prior: Vec<SourceHistory>,
    pending_init: Option<Vec<Configuration>>,
    /// Kernel carried between refits (warm start).
    kernel: Option<Kernel>,
    /// Last fitted surrogate; when the new training data is a strict
    /// extension of what this GP saw, the next fit appends via an O(n²)
    /// incremental Cholesky update instead of refitting from scratch.
    cached_gp: Option<GaussianProcess>,
    /// Last fitted sparse surrogate (above the sparse threshold); kept
    /// for its learned noise between hyperopt rounds. At most one of
    /// `cached_gp` / `cached_sparse` is live at a time.
    cached_sparse: Option<SparseGaussianProcess>,
    /// History length the cached surrogate was fitted at; lets a restored
    /// process rebuild the cache from the same history prefix.
    cached_at: usize,
    trials_at_last_hyperopt: usize,
    last_acquisition: Option<f64>,
    hyperopt_rng: Pcg64,
}

impl BoTuner {
    /// Creates a BO tuner with the given options.
    pub fn new(space: ConfigSpace, config: BoConfig, seed: u64) -> Self {
        let name = format!("bo-{}-{}", config.acquisition.name(), config.kernel.name());
        BoTuner {
            space,
            config,
            name,
            prior: Vec::new(),
            pending_init: None,
            kernel: None,
            cached_gp: None,
            cached_sparse: None,
            cached_at: 0,
            trials_at_last_hyperopt: 0,
            last_acquisition: None,
            hyperopt_rng: Pcg64::with_stream(seed, 0xb0),
        }
    }

    /// Creates a BO tuner with default (paper) settings: EI + Matérn 5/2.
    pub fn with_defaults(space: ConfigSpace, seed: u64) -> Self {
        Self::new(space, BoConfig::default(), seed)
    }

    /// Attaches source histories as prior data (see the module docs).
    /// An empty prior leaves the tuner plain BO, bit for bit. A tuner
    /// with a prior does not checkpoint: a snapshot would drop the
    /// sources.
    pub fn with_prior(mut self, prior: Vec<SourceHistory>) -> Self {
        self.prior = prior;
        self
    }

    fn init_design_size(&self) -> usize {
        if self.config.init_design > 0 {
            self.config.init_design
        } else if !self.prior.is_empty() {
            PRIOR_INIT_DESIGN
        } else {
            (3 * self.space.dims()).clamp(4, 12)
        }
    }

    /// Builds GP training data from the history: encoded configurations
    /// and log-transformed objectives with failures penalized, plus the
    /// incumbent on the same scale. With a prior the target values are
    /// z-scored and the source points appended.
    fn training_data(&self, history: &TrialHistory) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
        let successes: Vec<f64> = history
            .successes()
            .filter_map(|t| t.outcome.objective)
            .collect();
        let worst = successes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let penalty = if worst.is_finite() {
            (worst * FAILURE_PENALTY_FACTOR).max(worst + 1e-9)
        } else {
            1.0 // no successes yet: any constant works
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in history.trials() {
            let Ok(enc) = self.space.encode(&t.config) else {
                continue; // foreign configuration (shouldn't happen)
            };
            let y = match (t.outcome.objective, t.outcome.censored_at) {
                (Some(v), _) => v,
                // A timed-out trial is not evidence of a cliff — it is a
                // lower bound. Observe it just above the bound so the
                // surrogate learns "slow here" without the cliff-sized
                // penalty reserved for genuine failures.
                (None, Some(bound)) if self.config.censored_as_bound => bound * CENSORED_INFLATION,
                (None, _) => penalty,
            };
            xs.push(enc);
            ys.push(y.max(1e-12).log10());
        }
        let mut best = history.best_value().max(1e-12).log10();
        if !self.prior.is_empty() {
            // Sources carry z-scores, so only their shape transfers;
            // put the target trials on the same scale.
            let (mean, std) = mean_std(&ys);
            let std = std.max(1e-6);
            for y in &mut ys {
                *y = (*y - mean) / std;
            }
            best = (best - mean) / std;
            for source in &self.prior {
                xs.extend(source.encoded.iter().cloned());
                ys.extend(&source.z_scores);
            }
        }
        (xs, ys, best)
    }

    /// The noise variance for refits between hyperopts, and the hyperopt
    /// options: the defaults at [`HYPEROPT_EVALS`] per restart, with a
    /// prior also the [`PRIOR_NOISE`] range.
    fn noise_model(&self) -> (f64, HyperoptOptions) {
        let defaults = HyperoptOptions {
            max_evals_per_restart: HYPEROPT_EVALS,
            ..HyperoptOptions::default()
        };
        if self.prior.is_empty() {
            return (1e-4, defaults);
        }
        let (floor, ceiling) = PRIOR_NOISE;
        let options = HyperoptOptions {
            log_noise_bounds: (floor.ln(), ceiling.ln()),
            ..defaults
        };
        (floor, options)
    }

    /// Appends the tail of `(xs, ys)` to the cached surrogate when the
    /// cache's training set is an exact prefix of the new one and the
    /// kernel is unchanged. Failure penalties can rewrite *old* targets
    /// (the penalty tracks the worst observed success), which breaks the
    /// prefix check and correctly forces a full refit.
    fn try_extend_cached(
        &self,
        kernel: &Kernel,
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Option<GaussianProcess> {
        let cached = self.cached_gp.as_ref()?;
        let n = cached.n_train();
        if cached.kernel() != kernel || n > xs.len() {
            return None;
        }
        if cached.x_train() != &xs[..n] || cached.y_train() != &ys[..n] {
            return None;
        }
        cached.extend(&xs[n..], &ys[n..]).ok()
    }

    fn hyperopt_due(&self, history_len: usize) -> bool {
        self.kernel.is_none() || history_len >= self.trials_at_last_hyperopt + HYPEROPT_EVERY
    }

    /// Re-optimizes the kernel by marginal likelihood from random
    /// restarts and carries the result forward. The carried kernel only
    /// supplies the family and the fallback fit (see [`fit_optimized`]).
    fn hyperopt(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        history_len: usize,
    ) -> Option<GaussianProcess> {
        let template = self
            .kernel
            .clone()
            .unwrap_or_else(|| Kernel::new(self.config.kernel, self.space.dims()));
        let (_, options) = self.noise_model();
        let gp = fit_optimized(&template, xs, ys, &options, &mut self.hyperopt_rng).ok()?;
        self.kernel = Some(gp.kernel().clone());
        self.trials_at_last_hyperopt = history_len;
        Some(gp)
    }

    /// Fits this round's surrogate into the cache: the exact GP, or —
    /// when the mode and history length call for it — the sparse subset
    /// model; read it back with [`Self::model`]. `None` when the fit
    /// failed (the cache is then left as it was). The exact branch is
    /// byte-for-byte the pre-sparse implementation (including its
    /// `hyperopt_rng` consumption), so configurations that never cross
    /// the threshold reproduce historical results exactly.
    fn fit_surrogate(&mut self, xs: &[Vec<f64>], ys: &[f64], history_len: usize) -> Option<()> {
        let use_sparse = match self.config.surrogate {
            SurrogateMode::Exact => false,
            SurrogateMode::Sparse => true,
            SurrogateMode::Auto => history_len >= self.config.sparse_threshold,
        };
        if use_sparse {
            self.cached_sparse = Some(self.fit_sparse(xs, ys, history_len)?);
            self.cached_gp = None;
        } else {
            let gp = if self.hyperopt_due(history_len) {
                self.hyperopt(xs, ys, history_len)?
            } else {
                let kernel = self.kernel.clone().expect("checked by hyperopt_due");
                match self.try_extend_cached(&kernel, xs, ys) {
                    Some(gp) => gp,
                    None => {
                        let (noise, _) = self.noise_model();
                        GaussianProcess::fit(kernel, xs.to_vec(), ys.to_vec(), noise).ok()?
                    }
                }
            };
            self.cached_gp = Some(gp);
            self.cached_sparse = None;
        }
        self.cached_at = history_len;
        Some(())
    }

    /// The sparse path: select the conditioning subset, then fit (with
    /// hyperopt on the subset when due — so hyperopt cost is O(m³), not
    /// O(n³)). Non-hyperopt rounds refit at the last learned noise.
    fn fit_sparse(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        history_len: usize,
    ) -> Option<SparseGaussianProcess> {
        let selected = self.config.sparse.select(xs, ys);
        let sub_x: Vec<Vec<f64>> = selected.iter().map(|&i| xs[i].clone()).collect();
        let sub_y: Vec<f64> = selected.iter().map(|&i| ys[i]).collect();
        let gp = if self.hyperopt_due(history_len) {
            self.hyperopt(&sub_x, &sub_y, history_len)?
        } else {
            let kernel = self.kernel.clone().expect("checked by hyperopt_due");
            // Carry the learned noise forward; crossing the threshold
            // mid-stride inherits it from the exact cache.
            let noise = self
                .cached_sparse
                .as_ref()
                .map(Surrogate::noise_variance)
                .or_else(|| self.cached_gp.as_ref().map(|g| g.noise_variance()))
                .unwrap_or_else(|| self.noise_model().0);
            GaussianProcess::fit(kernel, sub_x, sub_y, noise).ok()?
        };
        Some(SparseGaussianProcess::from_fitted(gp, selected, xs.len()))
    }

    /// The surrogate the last successful fit cached, exact or sparse.
    fn model(&self) -> Option<&(dyn Surrogate + Sync)> {
        match (&self.cached_gp, &self.cached_sparse) {
            (Some(gp), _) => Some(gp),
            (None, Some(sparse)) => Some(sparse),
            (None, None) => None,
        }
    }
}

impl Tuner for BoTuner {
    fn name(&self) -> &str {
        &self.name
    }

    fn suggest(
        &mut self,
        history: &TrialHistory,
        rng: &mut Pcg64,
    ) -> Result<Configuration, TunerError> {
        // Phase 1: initial design, opened by a prior's best sources.
        let init_n = self.init_design_size();
        if history.len() < init_n {
            if self.pending_init.is_none() {
                let mut configs = Vec::with_capacity(init_n);
                for source in &self.prior {
                    configs.extend(source.best_configs(&self.space, 2, rng));
                }
                for p in latin_hypercube(init_n, self.space.dims(), rng) {
                    if let Ok(cfg) = self.space.decode_feasible(&p, rng) {
                        configs.push(cfg);
                    }
                }
                configs.truncate(init_n);
                configs.reverse();
                self.pending_init = Some(configs);
            }
            if let Some(cfg) = self.pending_init.as_mut().and_then(Vec::pop) {
                return Ok(cfg);
            }
            // LHS produced nothing feasible; fall through to random.
            return Ok(self.space.sample(rng)?);
        }

        // Phase 2: model-based suggestion.
        let (xs, ys, best) = self.training_data(history);
        if xs.len() < 2 {
            return Ok(self.space.sample(rng)?);
        }
        let Some(gp) = self
            .fit_surrogate(&xs, &ys, history.len())
            .and(self.model())
        else {
            return Ok(self.space.sample(rng)?);
        };
        // Anchor local exploration at the best observed configurations.
        let mut ranked: Vec<(f64, &Vec<f64>)> = xs.iter().zip(&ys).map(|(x, &y)| (y, x)).collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let anchors: Vec<Vec<f64>> = ranked.iter().take(3).map(|(_, x)| (*x).clone()).collect();

        let choice = maximize_acquisition(
            gp,
            self.config.acquisition,
            best,
            self.space.dims(),
            CANDIDATES,
            &anchors,
            rng,
        );

        // The continuous maximizer struggles with thin feasible slices
        // created by conditional constraints (e.g. high thread counts
        // only exist on big machine types). Score the incumbent's
        // *feasible config-space neighbours* under the same acquisition
        // and take the overall argmax — a discrete local-search arm that
        // costs one batch of GP predictions.
        let mut best_cfg = self
            .space
            .decode_feasible(&choice.point, rng)
            .or_else(|_| self.space.sample(rng))?;
        let neighbors = match history.best() {
            Some(incumbent) => self.space.neighbors(&incumbent.config)?,
            None => Vec::new(),
        };
        // Re-score the decoded (repaired) point, since repair may have
        // moved it, in one batch with the neighbours that encode.
        let repaired = self.space.encode(&best_cfg).ok();
        let (encoded, candidates): (Vec<Vec<f64>>, Vec<Configuration>) = neighbors
            .into_iter()
            .filter_map(|c| Some((self.space.encode(&c).ok()?, c)))
            .unzip();
        let queries: Vec<Vec<f64>> = repaired.iter().cloned().chain(encoded).collect();
        let mut scores = gp
            .predict_many(&queries)
            .into_iter()
            .map(|p| self.config.acquisition.score(p.mean, p.std_dev(), best));
        let mut best_score = match repaired {
            Some(_) => scores.next().expect("one score per query"),
            None => choice.value,
        };
        for (score, neighbor) in scores.zip(candidates) {
            if score > best_score {
                best_score = score;
                best_cfg = neighbor;
            }
        }
        self.last_acquisition = Some(best_score);
        let cfg = best_cfg;
        // Avoid exact duplicates: re-running a config the tuner has seen
        // is occasionally useful for noise, but a repeated *suggestion*
        // of the incumbent wastes the budget, so nudge to a neighbour.
        if history.evaluations_of(&cfg) >= 2 {
            let neighbors = self.space.neighbors(&cfg)?;
            if !neighbors.is_empty() {
                use rand::Rng;
                return Ok(neighbors[rng.gen_range(0..neighbors.len())].clone());
            }
        }
        Ok(cfg)
    }

    fn diagnostics(&self) -> TunerDiagnostics {
        TunerDiagnostics {
            last_acquisition: self.last_acquisition,
        }
    }

    fn checkpoint(&self) -> Option<TunerState> {
        // The sources are not part of the state: a snapshot would
        // silently resume as plain BO.
        if !self.prior.is_empty() {
            return None;
        }
        let mut state = TunerState::new();
        if let Some(pending) = &self.pending_init {
            state.set("pending_init", StateValue::ConfigList(pending.clone()));
        }
        if let Some(kernel) = &self.kernel {
            state.set(
                "kernel_family",
                StateValue::Str(kernel.family().name().to_owned()),
            );
            state.set(
                "kernel_signal_variance",
                StateValue::F64(kernel.signal_variance()),
            );
            state.set(
                "kernel_lengthscales",
                StateValue::F64List(kernel.lengthscales().to_vec()),
            );
        }
        // The cached surrogate is not serialized: a GP fit is a pure
        // function of (kernel, training prefix, noise), `extend` is
        // bit-identical to a fresh fit, and sparse subset selection is a
        // pure function of the training data — so `(noise, cached_at)`
        // plus a kind marker suffice to rebuild either cache from the
        // replayed history. The marker is only written on the sparse
        // path, keeping exact-GP checkpoints identical to those of
        // builds that predate the sparse surrogate.
        if let Some(gp) = &self.cached_gp {
            state.set("cached_noise", StateValue::F64(gp.noise_variance()));
            state.set("cached_at", StateValue::U64(self.cached_at as u64));
        } else if let Some(sp) = &self.cached_sparse {
            state.set("cached_kind", StateValue::Str("sparse".to_owned()));
            state.set(
                "cached_noise",
                StateValue::F64(Surrogate::noise_variance(sp)),
            );
            state.set("cached_at", StateValue::U64(self.cached_at as u64));
        }
        state.set(
            "trials_at_last_hyperopt",
            StateValue::U64(self.trials_at_last_hyperopt as u64),
        );
        if let Some(acq) = self.last_acquisition {
            state.set("last_acquisition", StateValue::F64(acq));
        }
        state.set_rng("hyperopt_rng", &self.hyperopt_rng);
        Some(state)
    }

    fn restore(&mut self, state: &TunerState, history: &TrialHistory) -> Result<(), StateError> {
        self.pending_init = if state.has("pending_init") {
            Some(state.config_list("pending_init")?.to_vec())
        } else {
            None
        };
        self.kernel = if state.has("kernel_family") {
            let name = state.str("kernel_family")?;
            let family = KernelFamily::all()
                .into_iter()
                .find(|f| f.name() == name)
                .ok_or_else(|| StateError::new(format!("unknown kernel family '{name}'")))?;
            Some(Kernel::with_params(
                family,
                state.f64("kernel_signal_variance")?,
                state.f64_list("kernel_lengthscales")?.to_vec(),
            ))
        } else {
            None
        };
        self.cached_gp = None;
        self.cached_sparse = None;
        self.cached_at = 0;
        if state.has("cached_noise") {
            let kernel = self
                .kernel
                .clone()
                .ok_or_else(|| StateError::new("cached surrogate without a kernel"))?;
            let noise = state.f64("cached_noise")?;
            let cached_at = state.u64("cached_at")? as usize;
            if cached_at > history.len() {
                return Err(StateError::new(format!(
                    "surrogate cached at {cached_at} trials but history has {}",
                    history.len()
                )));
            }
            let mut prefix = TrialHistory::new();
            for t in history.trials().iter().take(cached_at) {
                prefix.push(t.config.clone(), t.outcome.clone());
            }
            let (xs, ys, _) = self.training_data(&prefix);
            // Absent marker means exact — the only kind older
            // checkpoints could hold.
            let kind = if state.has("cached_kind") {
                state.str("cached_kind")?.to_owned()
            } else {
                "exact".to_owned()
            };
            match kind.as_str() {
                "exact" => {
                    let gp = GaussianProcess::fit(kernel, xs, ys, noise)
                        .map_err(|e| StateError::new(format!("surrogate rebuild failed: {e}")))?;
                    self.cached_gp = Some(gp);
                }
                "sparse" => {
                    // Subset selection is deterministic in the data, so
                    // the rebuilt sparse model is bit-identical to the
                    // one checkpointed.
                    let sp =
                        SparseGaussianProcess::fit(kernel, &xs, &ys, noise, &self.config.sparse)
                            .map_err(|e| {
                                StateError::new(format!("surrogate rebuild failed: {e}"))
                            })?;
                    self.cached_sparse = Some(sp);
                }
                other => {
                    return Err(StateError::new(format!(
                        "unknown cached surrogate kind '{other}'"
                    )));
                }
            }
            self.cached_at = cached_at;
        }
        self.trials_at_last_hyperopt = state.u64("trials_at_last_hyperopt")? as usize;
        self.last_acquisition = if state.has("last_acquisition") {
            Some(state.f64("last_acquisition")?)
        } else {
            None
        };
        self.hyperopt_rng = state.rng("hyperopt_rng")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_space::space::ConfigSpaceBuilder;
    use mlconf_workloads::objective::TrialOutcome;

    pub(super) fn space() -> ConfigSpace {
        ConfigSpaceBuilder::new()
            .int("x", 0, 50)
            .unwrap()
            .int("y", 0, 50)
            .unwrap()
            .build()
            .unwrap()
    }

    pub(super) fn outcome(v: f64) -> TrialOutcome {
        TrialOutcome {
            objective: Some(v),
            failure: None,
            tta_secs: v,
            cost_usd: v,
            throughput: 1.0,
            staleness_steps: 0.0,
            search_cost_machine_secs: 1.0,
            censored_at: None,
            attempts: 1,
        }
    }

    /// Smooth objective with minimum 10 at (20, 30).
    pub(super) fn f(cfg: &Configuration) -> f64 {
        let x = cfg.get_int("x").unwrap() as f64;
        let y = cfg.get_int("y").unwrap() as f64;
        10.0 + 0.5 * (x - 20.0).powi(2) + 0.3 * (y - 30.0).powi(2)
    }

    fn run_bo(seed: u64, trials: usize) -> TrialHistory {
        let mut t = BoTuner::with_defaults(space(), seed);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(seed);
        for _ in 0..trials {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            let out = outcome(f(&cfg));
            t.observe(&cfg, &out);
            h.push(cfg, out);
        }
        h
    }

    #[test]
    fn finds_near_optimal_quickly() {
        let h = run_bo(1, 30);
        // Optimum is 10; within 30 trials of a 51×51 space BO should be
        // very close.
        assert!(
            h.best_value() < 15.0,
            "BO best after 30 trials: {}",
            h.best_value()
        );
    }

    #[test]
    fn beats_random_on_average() {
        use crate::random::RandomSearch;
        let trials = 25;
        let mut bo_wins = 0;
        for seed in 0..5 {
            let bo = run_bo(seed, trials).best_value();
            let mut rt = RandomSearch::new(space());
            let mut h = TrialHistory::new();
            let mut rng = Pcg64::seed(seed);
            for _ in 0..trials {
                let cfg = rt.suggest(&h, &mut rng).unwrap();
                let out = outcome(f(&cfg));
                h.push(cfg, out);
            }
            if bo <= h.best_value() {
                bo_wins += 1;
            }
        }
        assert!(bo_wins >= 4, "BO won only {bo_wins}/5 seeds against random");
    }

    #[test]
    fn initial_design_is_space_filling() {
        let mut t = BoTuner::with_defaults(space(), 2);
        let h = TrialHistory::new();
        let mut rng = Pcg64::seed(2);
        let n = t.init_design_size();
        let mut xs = Vec::new();
        for _ in 0..n {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            xs.push(cfg.get_int("x").unwrap());
        }
        let spread = xs.iter().max().unwrap() - xs.iter().min().unwrap();
        assert!(spread > 25, "init design spread only {spread}");
    }

    #[test]
    fn failures_are_penalized_not_fatal() {
        // Objective fails (OOM) whenever x > 40: BO must keep working and
        // concentrate in the feasible region.
        let mut t = BoTuner::with_defaults(space(), 3);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(3);
        for _ in 0..30 {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            let out = if cfg.get_int("x").unwrap() > 40 {
                TrialOutcome::failed("oom", 1.0)
            } else {
                outcome(f(&cfg))
            };
            t.observe(&cfg, &out);
            h.push(cfg, out);
        }
        assert!(h.best_value() < 25.0, "best {}", h.best_value());
        // Late-phase suggestions should mostly avoid the failure zone.
        let late_failures = h.trials()[20..]
            .iter()
            .filter(|t| !t.outcome.is_ok())
            .count();
        assert!(late_failures <= 3, "{late_failures} late failures");
    }

    #[test]
    fn all_failures_still_suggests() {
        let mut t = BoTuner::with_defaults(space(), 4);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(4);
        for _ in 0..15 {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            let out = TrialOutcome::failed("oom", 1.0);
            t.observe(&cfg, &out);
            h.push(cfg, out);
        }
        assert_eq!(h.len(), 15);
    }

    #[test]
    fn diagnostics_expose_acquisition_after_model_phase() {
        let mut t = BoTuner::with_defaults(space(), 5);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(5);
        let n = t.init_design_size();
        for i in 0..n + 2 {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            if i < n {
                assert_eq!(t.diagnostics().last_acquisition, None);
            }
            let out = outcome(f(&cfg));
            h.push(cfg, out);
        }
        assert!(t.diagnostics().last_acquisition.is_some());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_bo(7, 20);
        let b = run_bo(7, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn surrogate_refits_extend_cached_gp_between_hyperopts() {
        // After a hyperopt fit, appending trials without touching the
        // earlier targets must take the incremental-extend path: the
        // result is bit-identical to calling `extend` on the cached GP
        // (in particular it keeps the learned noise, not the 1e-4
        // default of a cold fit).
        let mut t = BoTuner::with_defaults(space(), 11);
        let mut rng = Pcg64::seed(11);
        let pts = latin_hypercube(8, 2, &mut rng);
        let xs: Vec<Vec<f64>> = pts;
        let ys: Vec<f64> = xs
            .iter()
            .map(|p| (p[0] - 0.4).powi(2) + (p[1] - 0.6).powi(2) + 1.0)
            .collect();
        t.fit_surrogate(&xs, &ys, 8).unwrap();
        assert_eq!(t.model().unwrap().n_train(), 8);
        let cached = t.cached_gp.clone().unwrap();

        let mut xs2 = xs.clone();
        let mut ys2 = ys.clone();
        xs2.push(vec![0.45, 0.55]);
        ys2.push(1.01);
        let expected = cached.extend(&xs2[8..], &ys2[8..]).unwrap();
        // history_len 9 < 8 + HYPEROPT_EVERY (3): no re-hyperopt.
        t.fit_surrogate(&xs2, &ys2, 9).unwrap();
        let second = t.model().unwrap();
        assert_eq!(second.n_train(), 9);
        assert_eq!(
            second.log_marginal_likelihood().to_bits(),
            expected.log_marginal_likelihood().to_bits(),
            "warm refit should be the incremental extension of the cache"
        );
        assert_eq!(
            second.noise_variance().to_bits(),
            cached.noise_variance().to_bits(),
            "extend path keeps the hyperopt-learned noise"
        );
        // The cache advances so the *next* warm refit extends from n=9.
        assert_eq!(t.cached_gp.as_ref().unwrap().n_train(), 9);
    }

    #[test]
    fn surrogate_falls_back_to_full_fit_when_prefix_changes() {
        // A rewritten old target (the failure-penalty case) must defeat
        // the prefix check and force a cold fit at the default noise.
        let mut t = BoTuner::with_defaults(space(), 12);
        let mut rng = Pcg64::seed(12);
        let xs: Vec<Vec<f64>> = latin_hypercube(8, 2, &mut rng);
        let ys: Vec<f64> = xs
            .iter()
            .map(|p| (p[0] - 0.4).powi(2) + (p[1] - 0.6).powi(2) + 1.0)
            .collect();
        t.fit_surrogate(&xs, &ys, 8).unwrap();

        let mut xs2 = xs.clone();
        let mut ys2 = ys.clone();
        ys2[0] += 0.5; // old target rewritten
        xs2.push(vec![0.45, 0.55]);
        ys2.push(1.01);
        t.fit_surrogate(&xs2, &ys2, 9).unwrap();
        let second = t.model().unwrap();
        assert_eq!(second.n_train(), 9);
        assert_eq!(
            second.noise_variance(),
            1e-4,
            "changed prefix must refit from scratch at the default noise"
        );
    }

    #[test]
    fn censored_trials_enter_as_inflated_bounds_not_penalties() {
        let mk = |censored_as_bound| {
            BoTuner::new(
                space(),
                BoConfig {
                    censored_as_bound,
                    ..BoConfig::default()
                },
                6,
            )
        };
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(6);
        // Two successes bracketing the scale, then one censored trial.
        for v in [20.0, 100.0] {
            let cfg = space().sample(&mut rng).unwrap();
            h.push(cfg, outcome(v));
        }
        let cfg = space().sample(&mut rng).unwrap();
        let mut censored = TrialOutcome::failed("timeout: killed after 60s", 1.0);
        censored.censored_at = Some(60.0);
        h.push(cfg, censored);

        let (_, ys_censoring, _) = mk(true).training_data(&h);
        let (_, ys_naive, _) = mk(false).training_data(&h);
        // Censoring mode: bound × inflation = 90, between the successes.
        assert!((ys_censoring[2] - (60.0 * CENSORED_INFLATION).log10()).abs() < 1e-12);
        // Naive mode: worst × penalty factor = 200, a cliff.
        assert!((ys_naive[2] - 200.0f64.log10()).abs() < 1e-12);
        assert!(ys_censoring[2] < ys_naive[2]);
        // Genuine failures are penalized identically in both modes.
        let cfg = space().sample(&mut rng).unwrap();
        h.push(cfg, TrialOutcome::failed("oom", 1.0));
        let (_, ys_a, _) = mk(true).training_data(&h);
        let (_, ys_b, _) = mk(false).training_data(&h);
        assert_eq!(ys_a[3], ys_b[3]);
    }

    /// A config whose Auto mode flips to sparse mid-run at tiny scale.
    fn sparse_cfg(threshold: usize) -> BoConfig {
        BoConfig {
            surrogate: SurrogateMode::Auto,
            sparse_threshold: threshold,
            sparse: SparseConfig {
                max_points: 8,
                incumbent_k: 2,
                recent_k: 2,
            },
            ..BoConfig::default()
        }
    }

    fn run_cfg(cfg: BoConfig, seed: u64, trials: usize) -> Vec<Configuration> {
        let mut t = BoTuner::new(space(), cfg, seed);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(seed);
        let mut suggestions = Vec::with_capacity(trials);
        for _ in 0..trials {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            let out = outcome(f(&cfg));
            t.observe(&cfg, &out);
            suggestions.push(cfg.clone());
            h.push(cfg, out);
        }
        suggestions
    }

    #[test]
    fn auto_mode_crosses_to_sparse_at_threshold() {
        let mut t = BoTuner::new(space(), sparse_cfg(10), 21);
        let mut rng = Pcg64::seed(21);
        let pts = latin_hypercube(14, 2, &mut rng);
        let ys: Vec<f64> = pts.iter().map(|p| p[0] + p[1]).collect();

        t.fit_surrogate(&pts[..9], &ys[..9], 9).unwrap();
        assert!(t.cached_sparse.is_none(), "below threshold stays exact");
        assert_eq!(t.model().unwrap().n_train(), 9);
        assert!(t.cached_gp.is_some() && t.cached_sparse.is_none());

        t.fit_surrogate(&pts, &ys, 14).unwrap();
        assert!(
            t.cached_sparse.is_some(),
            "at/above threshold switches to sparse"
        );
        assert_eq!(
            t.model().unwrap().n_train(),
            8,
            "conditioning set capped at max_points"
        );
        assert!(t.cached_sparse.is_some() && t.cached_gp.is_none());
    }

    #[test]
    fn sparse_mode_tuner_completes_a_session_and_finds_good_configs() {
        let suggestions = run_cfg(sparse_cfg(6), 31, 30);
        assert_eq!(suggestions.len(), 30);
        let best = suggestions.iter().map(f).fold(f64::INFINITY, f64::min);
        assert!(best < 25.0, "sparse-mode BO best after 30 trials: {best}");
    }

    #[test]
    fn sparse_session_is_deterministic_under_seed() {
        let a = run_cfg(sparse_cfg(6), 42, 20);
        let b = run_cfg(sparse_cfg(6), 42, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_checkpoint_restores_bit_identically_mid_run() {
        // Run an Auto session whose threshold is crossed mid-run, snapshot
        // after the crossing, restore into a fresh tuner, and require the
        // continuation to match the uninterrupted run suggestion-for-
        // suggestion (the serve-layer golden test does the same through
        // the full journal/SIGKILL path).
        let (seed, total, snap_at) = (11u64, 18usize, 12usize);
        let uninterrupted = run_cfg(sparse_cfg(8), seed, total);

        let mut t = BoTuner::new(space(), sparse_cfg(8), seed);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(seed);
        for expected in uninterrupted.iter().take(snap_at) {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            assert_eq!(&cfg, expected);
            let out = outcome(f(&cfg));
            h.push(cfg, out);
        }
        let state = t.checkpoint().unwrap();
        assert_eq!(state.str("cached_kind").unwrap(), "sparse");

        let mut restored = BoTuner::new(space(), sparse_cfg(8), seed ^ 0xdead);
        restored.restore(&state, &h).unwrap();
        assert!(restored.cached_sparse.is_some());
        for expected in &uninterrupted[snap_at..] {
            let cfg = restored.suggest(&h, &mut rng).unwrap();
            assert_eq!(&cfg, expected, "post-restore suggestion diverged");
            let out = outcome(f(&cfg));
            h.push(cfg, out);
        }
    }

    #[test]
    fn exact_checkpoints_have_no_kind_marker() {
        // Back-compat: exact-surrogate checkpoints must look exactly like
        // those written before the sparse path existed.
        let mut t = BoTuner::with_defaults(space(), 13);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(13);
        for _ in 0..10 {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            let out = outcome(f(&cfg));
            h.push(cfg, out);
        }
        let state = t.checkpoint().unwrap();
        assert!(state.has("cached_noise"));
        assert!(!state.has("cached_kind"));
        let mut restored = BoTuner::with_defaults(space(), 13);
        restored.restore(&state, &h).unwrap();
        assert!(restored.cached_gp.is_some() && restored.cached_sparse.is_none());
    }

    #[test]
    fn name_reflects_options() {
        let t = BoTuner::new(
            space(),
            BoConfig {
                acquisition: Acquisition::LowerConfidenceBound { beta: 2.0 },
                kernel: KernelFamily::SquaredExp,
                ..BoConfig::default()
            },
            0,
        );
        assert_eq!(t.name(), "bo-lcb-se");
        assert_eq!(BoTuner::with_defaults(space(), 0).name(), "bo-ei-matern52");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{f, outcome, space};
    use super::*;
    use proptest::prelude::*;

    fn run_mode(mode: SurrogateMode, seed: u64, trials: usize) -> Vec<Configuration> {
        let config = BoConfig {
            surrogate: mode,
            ..BoConfig::default()
        };
        let mut t = BoTuner::new(space(), config, seed);
        let mut h = TrialHistory::new();
        let mut rng = Pcg64::seed(seed);
        let mut suggestions = Vec::with_capacity(trials);
        for _ in 0..trials {
            let cfg = t.suggest(&h, &mut rng).unwrap();
            let out = outcome(f(&cfg));
            suggestions.push(cfg.clone());
            h.push(cfg, out);
        }
        suggestions
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Below the (default, 512-trial) threshold the Auto surrogate
        /// must be bit-identical to Exact mode: same RNG consumption,
        /// same fits, same suggestion sequence.
        #[test]
        fn auto_below_threshold_matches_exact_suggest_sequence(
            seed in 0u64..1000,
            trials in 8usize..16,
        ) {
            let auto = run_mode(SurrogateMode::Auto, seed, trials);
            let exact = run_mode(SurrogateMode::Exact, seed, trials);
            prop_assert_eq!(auto, exact);
        }

        /// And the fitted models themselves agree to the bit: identical
        /// log marginal likelihood and identical posterior at any query.
        #[test]
        fn auto_below_threshold_predictions_bit_identical(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 2), 4..16),
            query in proptest::collection::vec(0.0f64..=1.0, 2),
        ) {
            let ys: Vec<f64> = pts.iter().map(|p| p[0] - 0.5 * p[1] + 1.0).collect();
            let mk = |mode| BoConfig { surrogate: mode, ..BoConfig::default() };
            let mut ta = BoTuner::new(space(), mk(SurrogateMode::Auto), 5);
            let mut tb = BoTuner::new(space(), mk(SurrogateMode::Exact), 5);
            let n = pts.len();
            ta.fit_surrogate(&pts, &ys, n).unwrap();
            tb.fit_surrogate(&pts, &ys, n).unwrap();
            prop_assert!(ta.cached_sparse.is_none());
            let (a, b) = (ta.model().unwrap(), tb.model().unwrap());
            prop_assert_eq!(
                a.log_marginal_likelihood().to_bits(),
                b.log_marginal_likelihood().to_bits()
            );
            prop_assert_eq!(a.noise_variance().to_bits(), b.noise_variance().to_bits());
            let pa = a.predict(&query);
            let pb = b.predict(&query);
            prop_assert_eq!(pa.mean.to_bits(), pb.mean.to_bits());
            prop_assert_eq!(pa.variance.to_bits(), pb.variance.to_bits());
        }
    }
}
