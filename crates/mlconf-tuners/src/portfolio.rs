//! Portfolio tuning: race N tuners inside one session, reallocating
//! trial budget toward whichever arm is measurably making progress.
//!
//! The paper's premise is that no hand-picked configuration strategy is
//! robust across workloads; E9 shows the same one level up — no single
//! *tuner* dominates across fault severities. [`PortfolioTuner`] hedges
//! that bet the way MLtuner shifts tuning effort online and Tuneful
//! concentrates budget where it pays: every arm is a stock
//! [`Tuner`] built by [`crate::factory::build_tuner`], all arms read the
//! one shared [`TrialHistory`], and a UCB bandit over per-arm incumbent
//! improvement decides who proposes next.
//!
//! # Scheduling
//!
//! - **Warmup (SUNNY-style static schedule).** Until every live arm has
//!   dispatched its warmup share (`max(1, budget / (4·arms))` trials),
//!   arms are served round-robin by lowest dispatched count. Every arm
//!   is guaranteed its minimum share before racing begins.
//! - **Racing (UCB).** After warmup the arm maximizing
//!   `mean_reward + c·sqrt(ln(total+1) / (dispatched+1))` proposes next,
//!   ties broken by lowest arm index. An arm's reward for a trial is its
//!   relative improvement of the global incumbent (the first success
//!   counts 1); arms that merely confirm known-good regions score 0 and
//!   decay to exploration-bonus-only selection.
//!
//! Arm selection consumes **no** session RNG draws and the chosen arm's
//! `suggest` receives the session RNG directly, so a single-arm
//! portfolio is bit-identical to running that arm bare — the degenerate
//! golden test the determinism contract hangs on.
//!
//! # Attribution
//!
//! Each suggestion pushes its arm index onto a FIFO; each observation
//! pops one and is forwarded to the originating arm only (sessions
//! commit in suggestion order, sequential or batched). Observations with
//! no queued attribution — warm-start trials — are forwarded to every
//! arm; all stateful arms guard on their own last suggestion, exactly
//! as they would bare.
//!
//! # Telemetry and snapshots
//!
//! Scheduling decisions are queued as [`TunerNotice`]s that the session
//! drains onto its trial-event bus (`arm_selected`,
//! `arm_budget_reallocated`). [`Tuner::checkpoint`] returns a flat state
//! (bandit counters plus every arm's own checkpoint under an `arm{i}.s.`
//! prefix) when *all* arms support checkpointing; otherwise `None`, and
//! the service layer falls back to full journal replay, which is equally
//! bit-identical.

use crate::tuner::{
    StateError, StateValue, TrialHistory, Tuner, TunerDiagnostics, TunerError, TunerNotice,
    TunerState,
};
use mlconf_space::config::Configuration;
use mlconf_util::rng::Pcg64;
use mlconf_workloads::objective::TrialOutcome;
use std::collections::VecDeque;

/// UCB exploration coefficient. Rewards are relative incumbent
/// improvements (each at most ~1) whose per-arm means decay as the
/// incumbent converges, so the bonus is kept small: enough to revisit a
/// stalled arm occasionally, not enough to drown the progress signal and
/// degrade the race into round-robin.
const UCB_C: f64 = 0.1;

/// One racing arm: a stock tuner plus its bandit statistics.
struct Arm {
    /// The arm's factory short name (`"bo"`, `"lhs"`, ...).
    spec: String,
    tuner: Box<dyn Tuner + Send>,
    /// Suggestions this arm has produced.
    dispatched: u64,
    /// Outcomes attributed back to this arm.
    observed: u64,
    /// Accumulated relative incumbent improvement.
    reward: f64,
    /// Set when the arm returned [`TunerError::Exhausted`].
    dead: bool,
}

impl Arm {
    fn mean_reward(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.reward / self.observed as f64
        }
    }
}

/// A bandit-scheduled portfolio of tuners behind the plain [`Tuner`]
/// interface — reachable unchanged from `TuningSession`,
/// `AskTellSession`, the CLI, and `mlconf serve`.
pub struct PortfolioTuner {
    /// Canonical factory name (`portfolio:bo,ernest`).
    name: String,
    arms: Vec<Arm>,
    /// Minimum dispatched trials per live arm before racing begins.
    warmup_share: u64,
    /// FIFO of `(arm index, requested fidelity)` awaiting their outcome,
    /// in suggestion order.
    pending: VecDeque<(usize, f64)>,
    /// The arm behind the most recent suggestion (fidelity/diagnostics
    /// delegate here).
    last_arm: Option<usize>,
    /// Global incumbent at the last attribution, for improvement rewards.
    best_seen: f64,
    /// Whether the end-of-warmup reallocation notice was published.
    warmup_announced: bool,
    /// The last announced race leader.
    leader: Option<usize>,
    notices: Vec<TunerNotice>,
}

impl PortfolioTuner {
    /// Assembles a portfolio from pre-built arms. `arms` pairs each
    /// arm's factory short name with its tuner; `budget` sizes the
    /// static warmup schedule.
    ///
    /// # Panics
    ///
    /// Panics on an empty arm list (the factory validates specs first).
    pub fn from_arms(arms: Vec<(String, Box<dyn Tuner + Send>)>, budget: usize) -> Self {
        assert!(!arms.is_empty(), "a portfolio needs at least one arm");
        let specs: Vec<&str> = arms.iter().map(|(s, _)| s.as_str()).collect();
        let name = format!("portfolio:{}", specs.join(","));
        let warmup_share = (budget as u64 / (4 * arms.len() as u64)).max(1);
        PortfolioTuner {
            name,
            arms: arms
                .into_iter()
                .map(|(spec, tuner)| Arm {
                    spec,
                    tuner,
                    dispatched: 0,
                    observed: 0,
                    reward: 0.0,
                    dead: false,
                })
                .collect(),
            warmup_share,
            pending: VecDeque::new(),
            last_arm: None,
            best_seen: f64::INFINITY,
            warmup_announced: false,
            leader: None,
            notices: Vec::new(),
        }
    }

    /// Number of arms (dead included).
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// The arms' factory short names, in arm order.
    pub fn arm_specs(&self) -> Vec<&str> {
        self.arms.iter().map(|a| a.spec.as_str()).collect()
    }

    /// Per-arm `(spec, dispatched, observed, mean reward)` — the bandit
    /// scoreboard, for tests and reports.
    pub fn scoreboard(&self) -> Vec<(&str, u64, u64, f64)> {
        self.arms
            .iter()
            .map(|a| (a.spec.as_str(), a.dispatched, a.observed, a.mean_reward()))
            .collect()
    }

    /// The static warmup share each arm is guaranteed.
    pub fn warmup_share(&self) -> u64 {
        self.warmup_share
    }

    fn total_dispatched(&self) -> u64 {
        self.arms.iter().map(|a| a.dispatched).sum()
    }

    /// Dispatched-trial shares per arm, for reallocation notices.
    fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total_dispatched().max(1) as f64;
        self.arms
            .iter()
            .map(|a| (a.spec.clone(), a.dispatched as f64 / total))
            .collect()
    }

    /// Picks the next arm: warmup round-robin while any live arm is
    /// below its share, UCB afterwards. Deterministic — lowest index
    /// wins ties and no RNG is consumed. Returns `(index, score)`,
    /// `None` when every arm is dead.
    fn select(&self) -> Option<(usize, f64)> {
        let live = || self.arms.iter().enumerate().filter(|(_, a)| !a.dead);
        live().next()?;
        // SUNNY-style static schedule: everyone gets the minimum share
        // first, lowest dispatched count next (ties: lowest index).
        if live().any(|(_, a)| a.dispatched < self.warmup_share) {
            let (idx, _) = live().min_by_key(|(i, a)| (a.dispatched, *i))?;
            return Some((idx, f64::INFINITY));
        }
        let total = self.total_dispatched();
        let ln_total = ((total + 1) as f64).ln();
        let mut best: Option<(usize, f64)> = None;
        for (i, arm) in live() {
            let bonus = UCB_C * (ln_total / (arm.dispatched + 1) as f64).sqrt();
            let score = arm.mean_reward() + bonus;
            let better = match best {
                None => true,
                Some((_, b)) => score > b,
            };
            if better {
                best = Some((i, score));
            }
        }
        best
    }

    /// Queues the scheduling notices one selection produces: the pick
    /// itself, plus a reallocation whenever warmup completes or the race
    /// leader changes.
    fn announce(&mut self, idx: usize, score: f64) {
        let in_warmup = score.is_infinite();
        if !in_warmup && !self.warmup_announced {
            self.warmup_announced = true;
            self.leader = Some(idx);
            self.notices.push(TunerNotice::ArmBudgetReallocated {
                shares: self.shares(),
            });
        } else if !in_warmup && self.leader != Some(idx) {
            self.leader = Some(idx);
            self.notices.push(TunerNotice::ArmBudgetReallocated {
                shares: self.shares(),
            });
        }
        self.notices.push(TunerNotice::ArmSelected {
            arm: self.arms[idx].spec.clone(),
            index: idx,
            score,
        });
    }
}

impl Tuner for PortfolioTuner {
    fn name(&self) -> &str {
        &self.name
    }

    fn suggest(
        &mut self,
        history: &TrialHistory,
        rng: &mut Pcg64,
    ) -> Result<Configuration, TunerError> {
        loop {
            let Some((idx, score)) = self.select() else {
                return Err(TunerError::Exhausted);
            };
            match self.arms[idx].tuner.suggest(history, rng) {
                Ok(cfg) => {
                    self.announce(idx, score);
                    self.arms[idx].dispatched += 1;
                    let fidelity = self.arms[idx].tuner.requested_fidelity().clamp(1e-3, 1.0);
                    self.pending.push_back((idx, fidelity));
                    self.last_arm = Some(idx);
                    return Ok(cfg);
                }
                Err(TunerError::Exhausted) => {
                    // This arm is spent; the race continues without it.
                    self.arms[idx].dead = true;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn observe(&mut self, config: &Configuration, outcome: &TrialOutcome) {
        let improvement = match outcome.objective.filter(|_| outcome.is_ok()) {
            Some(v) if v < self.best_seen => {
                let r = if self.best_seen.is_finite() {
                    (self.best_seen - v) / self.best_seen
                } else {
                    1.0
                };
                self.best_seen = v;
                r
            }
            _ => 0.0,
        };
        match self.pending.pop_front() {
            Some((idx, fidelity)) => {
                let arm = &mut self.arms[idx];
                arm.observed += 1;
                // Low-fidelity measurements are noisier, so their
                // "improvements" are discounted in proportion — a
                // multi-fidelity arm cannot farm bandit credit out of
                // measurement noise.
                arm.reward += improvement * fidelity;
                arm.tuner.observe(config, outcome);
            }
            None => {
                // Unattributed (warm-start) observation: offer it to
                // every arm, exactly as a bare run would. Stateful arms
                // guard on their own last suggestion.
                for arm in &mut self.arms {
                    arm.tuner.observe(config, outcome);
                }
            }
        }
    }

    fn diagnostics(&self) -> TunerDiagnostics {
        self.last_arm
            .map(|i| self.arms[i].tuner.diagnostics())
            .unwrap_or_default()
    }

    fn requested_fidelity(&self) -> f64 {
        self.last_arm
            .map_or(1.0, |i| self.arms[i].tuner.requested_fidelity())
    }

    fn take_notices(&mut self) -> Vec<TunerNotice> {
        std::mem::take(&mut self.notices)
    }

    fn checkpoint(&self) -> Option<TunerState> {
        let mut state = TunerState::new();
        state.set("portfolio.best", StateValue::F64(self.best_seen));
        state.set(
            "portfolio.pending",
            StateValue::F64List(self.pending.iter().map(|&(i, _)| i as f64).collect()),
        );
        state.set(
            "portfolio.pending_fid",
            StateValue::F64List(self.pending.iter().map(|&(_, f)| f).collect()),
        );
        if let Some(i) = self.last_arm {
            state.set("portfolio.last_arm", StateValue::U64(i as u64));
        }
        if let Some(i) = self.leader {
            state.set("portfolio.leader", StateValue::U64(i as u64));
        }
        state.set(
            "portfolio.warmup_announced",
            StateValue::U64(u64::from(self.warmup_announced)),
        );
        for (i, arm) in self.arms.iter().enumerate() {
            state.set(
                &format!("arm{i}.dispatched"),
                StateValue::U64(arm.dispatched),
            );
            state.set(&format!("arm{i}.observed"), StateValue::U64(arm.observed));
            state.set(&format!("arm{i}.reward"), StateValue::F64(arm.reward));
            state.set(
                &format!("arm{i}.dead"),
                StateValue::U64(u64::from(arm.dead)),
            );
            // All-or-nothing: one non-checkpointable arm downgrades the
            // whole portfolio to full-replay recovery.
            let sub = arm.tuner.checkpoint()?;
            for (key, value) in sub.fields() {
                state.set(&format!("arm{i}.s.{key}"), value.clone());
            }
        }
        Some(state)
    }

    fn restore(&mut self, state: &TunerState, history: &TrialHistory) -> Result<(), StateError> {
        self.best_seen = state.f64("portfolio.best")?;
        let indices = state.f64_list("portfolio.pending")?;
        let fids = state.f64_list("portfolio.pending_fid")?;
        if indices.len() != fids.len() {
            return Err(StateError::new(
                "portfolio.pending and portfolio.pending_fid lengths differ",
            ));
        }
        self.pending = indices
            .iter()
            .zip(fids.iter())
            .map(|(&i, &f)| (i as usize, f))
            .collect();
        self.last_arm = if state.has("portfolio.last_arm") {
            Some(state.u64("portfolio.last_arm")? as usize)
        } else {
            None
        };
        self.leader = if state.has("portfolio.leader") {
            Some(state.u64("portfolio.leader")? as usize)
        } else {
            None
        };
        self.warmup_announced = state.u64("portfolio.warmup_announced")? != 0;
        self.notices.clear();
        for (i, arm) in self.arms.iter_mut().enumerate() {
            arm.dispatched = state.u64(&format!("arm{i}.dispatched"))?;
            arm.observed = state.u64(&format!("arm{i}.observed"))?;
            arm.reward = state.f64(&format!("arm{i}.reward"))?;
            arm.dead = state.u64(&format!("arm{i}.dead"))? != 0;
            let prefix = format!("arm{i}.s.");
            let sub = TunerState::from_fields(
                state
                    .fields()
                    .iter()
                    .filter_map(|(k, v)| {
                        k.strip_prefix(&prefix)
                            .map(|rest| (rest.to_owned(), v.clone()))
                    })
                    .collect(),
            );
            arm.tuner.restore(&sub, history)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::build_tuner;
    use crate::session::TuningSession;
    use mlconf_workloads::evaluator::ConfigEvaluator;
    use mlconf_workloads::objective::Objective;
    use mlconf_workloads::tunespace::{default_config, standard_space};
    use mlconf_workloads::workload::mlp_mnist;

    fn evaluator(seed: u64) -> ConfigEvaluator {
        ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, seed)
    }

    fn portfolio(spec: &str, budget: usize, seed: u64) -> Box<dyn Tuner + Send> {
        build_tuner(
            spec,
            standard_space(8),
            budget,
            seed,
            Some(default_config(8)),
        )
        .unwrap()
    }

    #[test]
    fn single_arm_portfolio_is_bit_identical_to_the_bare_arm() {
        for seed in [11, 22, 33] {
            for arm in ["bo", "lhs", "anneal"] {
                let mut bare = portfolio(arm, 12, seed);
                let mut wrapped = portfolio(&format!("portfolio:{arm}"), 12, seed);
                let a = TuningSession::new(&evaluator(seed), 12, seed).run(bare.as_mut());
                let b = TuningSession::new(&evaluator(seed), 12, seed).run(wrapped.as_mut());
                assert_eq!(a.history, b.history, "{arm} seed {seed}");
            }
        }
    }

    #[test]
    fn warmup_guarantees_every_arm_its_share() {
        let budget = 24;
        let mut tuner = portfolio("portfolio:bo,lhs,random", budget, 7);
        let result = TuningSession::new(&evaluator(7), budget, 7).run(tuner.as_mut());
        assert_eq!(result.history.len(), budget);
        // Recover the scoreboard through a fresh build + checkpoint-free
        // downcast is unavailable; re-run stepwise instead.
        let mut pf = PortfolioTuner::from_arms(
            ["bo", "lhs", "random"]
                .iter()
                .map(|n| {
                    (
                        n.to_string(),
                        build_tuner(n, standard_space(8), budget, 7, Some(default_config(8)))
                            .unwrap(),
                    )
                })
                .collect(),
            budget,
        );
        let ev = evaluator(7);
        let mut history = TrialHistory::new();
        let mut rng = Pcg64::with_stream(7, 0xd21_7e5);
        for _ in 0..budget {
            let cfg = pf.suggest(&history, &mut rng).unwrap();
            let rep = history.evaluations_of(&cfg);
            let outcome = ev.evaluate(&cfg, rep);
            pf.observe(&cfg, &outcome);
            history.push(cfg, outcome);
        }
        let share = pf.warmup_share();
        assert!(share >= 1);
        for (spec, dispatched, observed, _) in pf.scoreboard() {
            assert!(
                dispatched >= share,
                "{spec} starved: {dispatched} < warmup share {share}"
            );
            assert_eq!(dispatched, observed, "{spec} attribution drift");
        }
        let total: u64 = pf.scoreboard().iter().map(|(_, d, _, _)| d).sum();
        assert_eq!(total, budget as u64, "dispatched must equal budget");
    }

    #[test]
    fn arm_selection_consumes_no_rng_draws() {
        // Same seed, portfolios of different sizes: the first suggestion
        // comes from the first arm both times, and both must equal the
        // bare arm's first suggestion (no draws lost to scheduling).
        let h = TrialHistory::new();
        let mut r1 = Pcg64::with_stream(5, 9);
        let mut r2 = Pcg64::with_stream(5, 9);
        let mut r3 = Pcg64::with_stream(5, 9);
        let mut bare = portfolio("lhs", 20, 5);
        let mut small = portfolio("portfolio:lhs", 20, 5);
        let mut large = portfolio("portfolio:lhs,random,anneal", 20, 5);
        let a = bare.suggest(&h, &mut r1).unwrap();
        let b = small.suggest(&h, &mut r2).unwrap();
        let c = large.suggest(&h, &mut r3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(r1.to_raw(), r2.to_raw());
        assert_eq!(r1.to_raw(), r3.to_raw());
    }

    #[test]
    fn exhausted_arms_fail_over_and_exhaust_only_when_all_die() {
        struct Spent;
        impl Tuner for Spent {
            fn name(&self) -> &str {
                "spent"
            }
            fn suggest(
                &mut self,
                _history: &TrialHistory,
                _rng: &mut Pcg64,
            ) -> Result<Configuration, TunerError> {
                Err(TunerError::Exhausted)
            }
        }
        let mut pf = PortfolioTuner::from_arms(
            vec![
                ("spent".to_owned(), Box::new(Spent) as Box<dyn Tuner + Send>),
                (
                    "random".to_owned(),
                    build_tuner("random", standard_space(8), 8, 3, None).unwrap(),
                ),
            ],
            8,
        );
        let h = TrialHistory::new();
        let mut rng = Pcg64::with_stream(3, 1);
        // The dead first arm is skipped transparently.
        for _ in 0..4 {
            pf.suggest(&h, &mut rng).unwrap();
        }
        let mut all_dead = PortfolioTuner::from_arms(
            vec![("spent".to_owned(), Box::new(Spent) as Box<dyn Tuner + Send>)],
            8,
        );
        assert_eq!(
            all_dead.suggest(&h, &mut rng).unwrap_err(),
            TunerError::Exhausted
        );
    }

    #[test]
    fn rewards_credit_the_improving_arm() {
        let mut pf = PortfolioTuner::from_arms(
            vec![
                (
                    "random".to_owned(),
                    build_tuner("random", standard_space(8), 4, 3, None).unwrap(),
                ),
                (
                    "lhs".to_owned(),
                    build_tuner("lhs", standard_space(8), 4, 3, None).unwrap(),
                ),
            ],
            4,
        );
        let ev = evaluator(3);
        let mut history = TrialHistory::new();
        let mut rng = Pcg64::with_stream(3, 2);
        for _ in 0..4 {
            let cfg = pf.suggest(&history, &mut rng).unwrap();
            let outcome = ev.evaluate(&cfg, history.evaluations_of(&cfg));
            pf.observe(&cfg, &outcome);
            history.push(cfg, outcome);
        }
        let total_reward: f64 = pf.arms.iter().map(|a| a.reward).sum();
        assert!(
            total_reward >= 1.0,
            "the first success alone is worth 1, got {total_reward}"
        );
        assert!(pf.best_seen.is_finite());
    }

    #[test]
    fn notices_report_selections_and_reallocation() {
        let mut pf = PortfolioTuner::from_arms(
            vec![
                (
                    "random".to_owned(),
                    build_tuner("random", standard_space(8), 8, 3, None).unwrap(),
                ),
                (
                    "lhs".to_owned(),
                    build_tuner("lhs", standard_space(8), 8, 3, None).unwrap(),
                ),
            ],
            8,
        );
        let ev = evaluator(3);
        let mut history = TrialHistory::new();
        let mut rng = Pcg64::with_stream(3, 2);
        let mut selections = 0;
        let mut reallocations = 0;
        for _ in 0..8 {
            let cfg = pf.suggest(&history, &mut rng).unwrap();
            for n in pf.take_notices() {
                match n {
                    TunerNotice::ArmSelected { .. } => selections += 1,
                    TunerNotice::ArmBudgetReallocated { shares } => {
                        reallocations += 1;
                        let total: f64 = shares.iter().map(|(_, s)| s).sum();
                        assert!((total - 1.0).abs() < 1e-12);
                    }
                }
            }
            let outcome = ev.evaluate(&cfg, history.evaluations_of(&cfg));
            pf.observe(&cfg, &outcome);
            history.push(cfg, outcome);
        }
        assert_eq!(selections, 8, "one selection notice per suggestion");
        assert!(reallocations >= 1, "warmup completion must be announced");
        assert!(pf.take_notices().is_empty(), "drain leaves nothing behind");
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Checkpointable arms only (bo, lhs both support snapshots).
        let budget = 16;
        let ev = evaluator(11);
        let mut live = portfolio("portfolio:bo,lhs", budget, 11);
        let mut history = TrialHistory::new();
        let mut rng = Pcg64::with_stream(11, 0xd21_7e5);
        for _ in 0..7 {
            let cfg = live.suggest(&history, &mut rng).unwrap();
            let outcome = ev.evaluate(&cfg, history.evaluations_of(&cfg));
            live.observe(&cfg, &outcome);
            history.push(cfg, outcome);
        }
        let state = live.checkpoint().expect("bo+lhs arms checkpoint");
        let mut restored = portfolio("portfolio:bo,lhs", budget, 11);
        restored.restore(&state, &history).unwrap();
        let mut rng2 = rng.clone();
        for _ in 0..5 {
            let a = live.suggest(&history, &mut rng).unwrap();
            let b = restored.suggest(&history, &mut rng2).unwrap();
            assert_eq!(a, b, "post-restore suggestions must match");
            let outcome = ev.evaluate(&a, history.evaluations_of(&a));
            live.observe(&a, &outcome);
            restored.observe(&a, &outcome);
            history.push(a, outcome);
        }
    }

    #[test]
    fn hyperband_arm_downgrades_checkpoint_to_none() {
        let pf = portfolio("portfolio:bo,hyperband", 10, 1);
        assert!(
            pf.checkpoint().is_none(),
            "hyperband has no checkpoint, so neither does the portfolio"
        );
    }

    mod proptests {
        use super::*;
        use crate::session::{Concurrency, TrialEvent, TrialObserver, TuningSession};
        use proptest::prelude::*;

        /// Collects the arm name of every `ArmSelected` event.
        #[derive(Default)]
        struct ArmTrace(Vec<String>);
        impl TrialObserver for ArmTrace {
            fn on_event(&mut self, event: &TrialEvent<'_>) {
                if let TrialEvent::ArmSelected { arm, .. } = event {
                    self.0.push((*arm).to_owned());
                }
            }
        }

        const SPECS: [&str; 3] = [
            "portfolio:bo,lhs",
            "portfolio:bo,ernest",
            "portfolio:lhs,random,anneal",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Arm selection is a pure function of committed history:
            /// the full run — trial history *and* the ordered
            /// arm-selection trace — is identical no matter how many
            /// threads evaluate each batch.
            #[test]
            fn arm_selection_is_invariant_across_eval_thread_counts(
                seed in 0u64..500,
                budget in 6usize..14,
                which in 0usize..SPECS.len(),
            ) {
                use mlconf_util::optim::set_threads;
                let spec = SPECS[which];
                let ev = evaluator(seed);
                let run_at = |threads: usize| {
                    set_threads(threads);
                    let mut tuner = portfolio(spec, budget, seed);
                    let mut trace = ArmTrace::default();
                    let result = TuningSession::new(&ev, budget, seed)
                        .concurrency(Concurrency::Batched { batch_size: 3 })
                        .observe_with(Box::new(&mut trace))
                        .run(tuner.as_mut());
                    (result, trace.0)
                };
                let reference = run_at(1);
                prop_assert_eq!(reference.1.len(), budget);
                for threads in [2usize, 4, 8] {
                    let got = run_at(threads);
                    prop_assert_eq!(&got, &reference, "{} threads", threads);
                }
                set_threads(0);
            }

            /// Conservation and fairness of the bandit schedule: every
            /// budgeted trial is dispatched by exactly one arm, and no
            /// live arm is starved below the static warmup share.
            #[test]
            fn dispatch_conserves_budget_and_honors_warmup_share(
                seed in 0u64..500,
                budget in 8usize..24,
                which in 0usize..SPECS.len(),
            ) {
                let spec = SPECS[which];
                let arm_names: Vec<String> = spec
                    .strip_prefix("portfolio:")
                    .unwrap()
                    .split(',')
                    .map(str::to_owned)
                    .collect();
                let mut pf = PortfolioTuner::from_arms(
                    arm_names
                        .iter()
                        .map(|n| {
                            (
                                n.clone(),
                                build_tuner(n, standard_space(8), budget, seed, Some(default_config(8)))
                                    .unwrap(),
                            )
                        })
                        .collect(),
                    budget,
                );
                let ev = evaluator(seed);
                let mut history = TrialHistory::new();
                let mut rng = Pcg64::with_stream(seed, 0xd21_7e5);
                for _ in 0..budget {
                    let cfg = pf.suggest(&history, &mut rng).unwrap();
                    let rep = history.evaluations_of(&cfg);
                    let outcome = ev.evaluate(&cfg, rep);
                    pf.observe(&cfg, &outcome);
                    history.push(cfg, outcome);
                }
                let board = pf.scoreboard();
                let dispatched: u64 = board.iter().map(|(_, d, _, _)| *d).sum();
                prop_assert_eq!(dispatched, budget as u64, "every trial belongs to one arm");
                let observed: u64 = board.iter().map(|(_, _, o, _)| *o).sum();
                prop_assert_eq!(observed, budget as u64, "every outcome was attributed");
                for (name, d, _, _) in &board {
                    prop_assert!(
                        *d >= pf.warmup_share(),
                        "arm {} starved: dispatched {} < warmup share {}",
                        name, d, pf.warmup_share()
                    );
                }
            }
        }
    }
}
