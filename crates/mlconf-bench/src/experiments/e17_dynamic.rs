//! E17 — dynamic environments: is significance-aware re-tuning worth it?
//!
//! Claim validated: *when the environment drifts, a detector-gated
//! re-tune policy recovers near-oracle configurations at a fraction of
//! the cost of re-tuning on a fixed schedule — and never fires on a
//! stationary world.*
//!
//! Four arms share one time-varying world (a congestion + preemption
//! shift whose change point is placed mid-session from a baseline run's
//! virtual wall pace):
//!
//! - `static`    — tune once, deploy the incumbent, never look back.
//! - `on-drift`  — [`ReTunePolicy::OnDrift`]: a Page–Hinkley detector
//!   on repeated-measurement residuals triggers censoring of stale
//!   history and a probe sweep over the significant knobs.
//! - `always`    — [`ReTunePolicy::Always`]: re-tune every 5 trials,
//!   drift or not (the schedule-based strawman).
//! - `oracle`    — knows the script: deploys each segment's true
//!   optimum at its change point, at zero measured search cost.
//!
//! The shift is deliberately *asymmetric* (network cut to a tenth, half
//! the cluster preempted, compute untouched): a uniform slowdown leaves
//! the argmin nearly unchanged and re-tuning would have nothing to
//! recover, whereas shifting the compute/communication balance moves
//! the optimum — the pre-shift best lands ~3x off the shifted
//! segment's oracle.
//!
//! Reported per `(scenario, arm)`: the fraction of the post-shift
//! window the *deployed* configuration spends above `SLO_MULT` times
//! the current segment's oracle (time below SLO), re-tune counts, drift
//! detections, and the wall-clock cost of re-tune probe trials (wasted
//! cost). The measurement window starts at the change point — the
//! shared initial tuning ramp is not what distinguishes the policies —
//! and extends past every arm's final wall clock, so the deployment
//! each arm ends with dominates its score. The stationary scenario pins
//! the false-positive rate. `BENCH_dynamic.json` commits the three
//! headline booleans CI grep-gates: `retune_beats_static_on_drift`,
//! `retune_cheaper_than_always`, and `no_false_retune_on_stationary`.
//!
//! Everything is deterministic in the scale's seeds: byte-identical
//! CSV and JSON across invocations.

use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
use mlconf_space::config::Configuration;
use mlconf_tuners::bo::BoTuner;
use mlconf_tuners::drift::{DriftConfig, DriftCtl, ReTunePolicy};
use mlconf_tuners::executor::TrialExecutor;
use mlconf_tuners::session::{Ask, AskTellSession};
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::tunespace::default_config;
use mlconf_workloads::workload::Workload;

use crate::oracle::find_oracle_at;
use crate::report::{json_num, Table};

use super::Scale;

/// Deployed-performance SLO: within this factor of the current
/// segment's oracle counts as "meeting SLO".
const SLO_MULT: f64 = 2.0;

/// Time-grid resolution for integrating the deployment trajectory.
const GRID: usize = 400;

/// Detector thresholds for the dynamic arms: eager enough to catch the
/// scripted shift within a handful of incumbent re-probes (the
/// post-shift residual on the incumbent is ~ln 5), but still strict
/// enough that measurement noise on a stationary world never crosses
/// the Page–Hinkley barrier at the suite seeds — E17's
/// `no_false_retune_on_stationary` boolean pins exactly that.
fn drift_config() -> DriftConfig {
    DriftConfig {
        delta: 0.2,
        lambda: 1.2,
        min_obs: 2,
        probe_every: 3,
        top_knobs: 4,
        probes: 6,
    }
}

/// The drifting world: at `t1` (a fraction of `wall`, the baseline
/// session's final virtual wall clock) the network degrades to a tenth
/// of its bandwidth and half the cluster is preempted, while per-node
/// compute is untouched.
fn shift_script(wall: f64, max_nodes: i64) -> (ScenarioScript, f64) {
    let t1 = 0.20 * wall;
    let mut script = ScenarioScript::stationary("e17-shift");
    script.push(ScenarioEvent {
        at_secs: t1,
        env: EnvState {
            net_scale: 0.1,
            node_delta: -(max_nodes / 2),
            ..EnvState::neutral()
        },
    });
    (script, t1)
}

/// One deployment interval: `cfg` is live from `at` until the next
/// deployment (or forever).
struct Deployment {
    at: f64,
    cfg: Configuration,
}

/// One arm's measured run at one seed.
struct ArmRun {
    deploys: Vec<Deployment>,
    retunes: usize,
    drift_events: usize,
    /// Virtual wall-seconds burned on re-tune probe trials.
    probe_cost_secs: f64,
    /// Final virtual wall clock.
    wall_secs: f64,
}

/// Drives one tuning session under `policy`, tracking the deployment
/// trajectory: the live configuration at any instant is the incumbent
/// of the *censored* history view (post-drift evidence only) when a
/// re-tune has censored, else the plain incumbent.
fn run_arm(
    ev: &ConfigEvaluator,
    max_nodes: i64,
    budget: usize,
    seed: u64,
    policy: ReTunePolicy,
) -> ArmRun {
    let mut tuner = BoTuner::with_defaults(ev.space().clone(), seed);
    let executor = TrialExecutor::passthrough();
    let mut s = AskTellSession::new(budget, seed).drift_ctl(DriftCtl::new(
        policy,
        drift_config(),
        ev.space().clone(),
        seed,
    ));
    let mut deploys = vec![Deployment {
        at: 0.0,
        cfg: default_config(max_nodes),
    }];
    let mut probe_cost_secs = 0.0;
    loop {
        // A queued probe is about to be issued iff the controller still
        // holds sweep candidates: that trial's wall time is re-tune cost.
        let probing = s
            .drift()
            .is_some_and(|c| !c.resume_state().probe_queue.is_empty());
        match s.ask(&mut tuner).expect("no pending trial") {
            Ask::Finished { .. } => break,
            Ask::Trial(p) => {
                let executed = executor.execute_at(
                    ev,
                    &p.config,
                    p.rep,
                    p.fidelity,
                    p.trial,
                    s.incumbent_tta(),
                    Some(s.wall_secs()),
                );
                if probing && executed.outcome.tta_secs.is_finite() {
                    probe_cost_secs += executed.outcome.tta_secs;
                }
                s.tell(&mut tuner, executed).expect("trial outstanding");
                let live = match s.drift().and_then(|c| c.censored_view(s.history())) {
                    Some(view) => view.best().map(|b| b.config.clone()),
                    None => s.history().best().map(|b| b.config.clone()),
                };
                if let Some(cfg) = live {
                    if deploys.last().map(|d| d.cfg != cfg).unwrap_or(true) {
                        deploys.push(Deployment {
                            at: s.wall_secs(),
                            cfg,
                        });
                    }
                }
            }
        }
    }
    ArmRun {
        deploys,
        retunes: s.stats().retune_count,
        drift_events: s.stats().drift_events,
        probe_cost_secs,
        wall_secs: s.wall_secs(),
    }
}

/// Fraction of the `[window_start, horizon]` grid where the deployed
/// configuration performs worse than `SLO_MULT` times the current
/// segment's oracle.
fn below_slo_frac(
    ev: &ConfigEvaluator,
    deploys: &[Deployment],
    seg_starts: &[f64],
    seg_oracles: &[f64],
    window_start: f64,
    horizon: f64,
) -> f64 {
    let span = horizon - window_start;
    let mut below = 0usize;
    for i in 0..GRID {
        let t = window_start + (i as f64 + 0.5) * span / GRID as f64;
        let seg = seg_starts.iter().filter(|&&s| s <= t).count() - 1;
        let slo = SLO_MULT * seg_oracles[seg];
        let cfg = &deploys
            .iter()
            .rev()
            .find(|d| d.at <= t)
            .expect("deployment at t=0 exists")
            .cfg;
        let met = ev.true_objective_at(cfg, Some(t)).is_some_and(|v| v <= slo);
        if !met {
            below += 1;
        }
    }
    below as f64 / GRID as f64
}

struct CellResult {
    scenario: &'static str,
    arm: &'static str,
    below_slo: f64,
    retunes: usize,
    drift_events: usize,
    probe_cost_secs: f64,
}

/// The measured runs of one `(scenario, arm)` cell, one per seed.
struct ArmRuns {
    scenario: &'static str,
    arm: &'static str,
    script: ScenarioScript,
    runs: Vec<ArmRun>,
}

const ARMS: [(&str, ReTunePolicy); 3] = [
    ("static", ReTunePolicy::Off),
    ("on-drift", ReTunePolicy::OnDrift),
    ("always", ReTunePolicy::Always { every: 5 }),
];

/// Runs every session arm at every seed under `script`.
fn run_arms(
    w: &Workload,
    scale: &Scale,
    budget: usize,
    scenario_name: &'static str,
    script: &ScenarioScript,
) -> Vec<ArmRuns> {
    ARMS.iter()
        .map(|&(arm_name, policy)| ArmRuns {
            scenario: scenario_name,
            arm: arm_name,
            script: script.clone(),
            runs: scale
                .seeds
                .iter()
                .map(|&seed| {
                    let ev = ConfigEvaluator::new(
                        w.clone(),
                        Objective::TimeToAccuracy,
                        scale.max_nodes,
                        seed,
                    )
                    .with_scenario(script.clone());
                    run_arm(&ev, scale.max_nodes, budget, seed, policy)
                })
                .collect(),
        })
        .collect()
}

/// Aggregates one cell: mean below-SLO fraction and probe cost over
/// seeds, summed counters.
#[allow(clippy::too_many_arguments)]
fn aggregate(
    w: &Workload,
    scale: &Scale,
    cell: &ArmRuns,
    seg_starts: &[f64],
    seg_oracles: &[f64],
    window_start: f64,
    horizon: f64,
) -> CellResult {
    let mut below = 0.0;
    let mut probe_cost = 0.0;
    let mut retunes = 0usize;
    let mut drift_events = 0usize;
    for (run, &seed) in cell.runs.iter().zip(&scale.seeds) {
        let ev = ConfigEvaluator::new(w.clone(), Objective::TimeToAccuracy, scale.max_nodes, seed)
            .with_scenario(cell.script.clone());
        below += below_slo_frac(
            &ev,
            &run.deploys,
            seg_starts,
            seg_oracles,
            window_start,
            horizon,
        );
        probe_cost += run.probe_cost_secs;
        retunes += run.retunes;
        drift_events += run.drift_events;
    }
    let n = scale.seeds.len() as f64;
    CellResult {
        scenario: cell.scenario,
        arm: cell.arm,
        below_slo: below / n,
        retunes,
        drift_events,
        probe_cost_secs: probe_cost / n,
    }
}

/// Runs E17 and returns the table plus the JSON artifact body.
fn run_with_json(scale: &Scale) -> (Vec<Table>, String) {
    let w = scale
        .workloads
        .last()
        .expect("scale has a workload")
        .clone();
    // Dynamic sessions get double the scale budget: after the censor
    // wipes the stale history, the tuner needs room to re-converge in
    // the shifted world.
    let budget = 2 * scale.budget;

    // Calibrate the scenario timeline: where the virtual wall clock
    // lands after a full static session at the first seed decides where
    // the mid-session change point goes. Shared by all seeds and arms
    // so every run faces the same world.
    let cal_ev = ConfigEvaluator::new(
        w.clone(),
        Objective::TimeToAccuracy,
        scale.max_nodes,
        scale.seeds[0],
    );
    let baseline = run_arm(
        &cal_ev,
        scale.max_nodes,
        budget,
        scale.seeds[0],
        ReTunePolicy::Off,
    );
    let (shift, t1) = shift_script(baseline.wall_secs, scale.max_nodes);
    let stationary = ScenarioScript::stationary("e17-stationary");

    // Per-segment oracles (noise-free optimum under each regime).
    let oracle_ev = ConfigEvaluator::new(
        w.clone(),
        Objective::TimeToAccuracy,
        scale.max_nodes,
        scale.seeds[0],
    )
    .with_scenario(shift.clone());
    let seg_starts = [0.0, t1];
    let seg_oracles: Vec<f64> = seg_starts
        .iter()
        .map(|&t| find_oracle_at(&oracle_ev, scale.oracle_candidates, Some(t + 1.0)).value)
        .collect();

    // Measure every session arm first: the horizon extends 25% past the
    // slowest arm's wall clock so each arm's final deployment gets a
    // tail of "operations time" in the score, identically bounded for
    // all arms.
    let mut cells = run_arms(&w, scale, budget, "shift", &shift);
    cells.extend(run_arms(&w, scale, budget, "stationary", &stationary));
    let max_wall = cells
        .iter()
        .flat_map(|c| c.runs.iter().map(|r| r.wall_secs))
        .fold(0.0f64, f64::max);
    let horizon = 1.25 * max_wall;

    let mut results: Vec<CellResult> = Vec::new();
    for cell in &cells {
        let (starts, oracles): (&[f64], &[f64]) = if cell.scenario == "shift" {
            (&seg_starts, &seg_oracles)
        } else {
            (&seg_starts[..1], &seg_oracles[..1])
        };
        results.push(aggregate(&w, scale, cell, starts, oracles, t1, horizon));
        if cell.arm == "always" {
            // Oracle arm: deploys each segment's optimum at its change
            // point. Its below-SLO fraction is zero by construction
            // (the SLO is a multiple of the same oracle), at zero
            // measured search cost — the floor the tuned arms are
            // judged against.
            results.push(CellResult {
                scenario: cell.scenario,
                arm: "oracle",
                below_slo: 0.0,
                retunes: starts.len() - 1,
                drift_events: 0,
                probe_cost_secs: 0.0,
            });
        }
    }

    let mut t = Table::new(
        "e17_dynamic",
        format!(
            "Dynamic environments on {} (deployed time below {SLO_MULT}x segment oracle)",
            w.name()
        ),
        [
            "scenario",
            "arm",
            "below_slo_pct",
            "retunes",
            "drift_events",
            "probe_cost_secs",
        ],
    );
    for r in &results {
        t.push_row([
            r.scenario.to_owned(),
            r.arm.to_owned(),
            format!("{:.1}", r.below_slo * 100.0),
            r.retunes.to_string(),
            r.drift_events.to_string(),
            format!("{:.0}", r.probe_cost_secs),
        ]);
    }
    t.note(format!(
        "shift: net x0.1 + {} nodes preempted at t={t1:.0}s (compute untouched); \
         below-SLO integrated over [{t1:.0}s, {horizon:.0}s]; counters summed over seeds {:?}",
        scale.max_nodes / 2,
        scale.seeds
    ));
    t.note(
        "deployed config = incumbent of the censored history view; oracle arm deploys each \
         segment's true optimum at its change point (reference floor)",
    );

    let cell = |scenario: &str, arm: &str| -> &CellResult {
        results
            .iter()
            .find(|r| r.scenario == scenario && r.arm == arm)
            .expect("cell exists")
    };
    let on_drift = cell("shift", "on-drift");
    let always = cell("shift", "always");
    let static_arm = cell("shift", "static");
    let stationary_on_drift = cell("stationary", "on-drift");
    let retune_beats_static = on_drift.below_slo < static_arm.below_slo;
    let retune_cheaper = on_drift.probe_cost_secs < always.probe_cost_secs;
    let no_false_retune = stationary_on_drift.retunes == 0 && stationary_on_drift.drift_events == 0;

    let cells_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"scenario\": \"{}\", \"arm\": \"{}\", \"below_slo_frac\": {}, \
                 \"retunes\": {}, \"drift_events\": {}, \"probe_cost_secs\": {}}}",
                r.scenario,
                r.arm,
                json_num(r.below_slo),
                r.retunes,
                r.drift_events,
                json_num(r.probe_cost_secs)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e17_dynamic\",\n  \"workload\": \"{}\",\n  \
         \"budget\": {budget},\n  \"seeds\": {:?},\n  \"slo_mult\": {},\n  \
         \"change_point_secs\": {},\n  \"horizon_secs\": {},\n  \
         \"segment_oracles\": [{}],\n  \
         \"retune_beats_static_on_drift\": {retune_beats_static},\n  \
         \"retune_cheaper_than_always\": {retune_cheaper},\n  \
         \"no_false_retune_on_stationary\": {no_false_retune},\n  \
         \"cells\": [\n    {}\n  ]\n}}\n",
        w.name(),
        scale.seeds,
        SLO_MULT,
        json_num(t1),
        json_num(horizon),
        seg_oracles
            .iter()
            .map(|&v| json_num(v))
            .collect::<Vec<_>>()
            .join(", "),
        cells_json.join(",\n    ")
    );
    (vec![t], json)
}

/// Runs E17, writing `BENCH_dynamic.json` beside the working
/// directory's results (same convention as `BENCH_robustness.json`).
pub fn run(scale: &Scale) -> Vec<Table> {
    let (tables, json) = run_with_json(scale);
    match std::fs::write("BENCH_dynamic.json", &json) {
        Ok(()) => println!("wrote BENCH_dynamic.json"),
        Err(e) => eprintln!("failed to write BENCH_dynamic.json: {e}"),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_workloads::workload::cnn_cifar;

    fn mini_scale() -> Scale {
        Scale {
            seeds: vec![11, 22],
            budget: 30,
            oracle_candidates: 150,
            max_nodes: 16,
            workloads: vec![cnn_cifar()],
        }
    }

    /// The headline claims hold at test scale: the detector fires on the
    /// drifting world, never on the stationary one, and the gated policy
    /// spends less on probes than the scheduled one.
    #[test]
    fn booleans_hold_at_mini_scale() {
        let (tables, json) = run_with_json(&mini_scale());
        assert_eq!(tables[0].rows.len(), 8, "4 arms x 2 scenarios");
        assert!(
            json.contains("\"retune_beats_static_on_drift\": true"),
            "{json}"
        );
        assert!(
            json.contains("\"retune_cheaper_than_always\": true"),
            "{json}"
        );
        assert!(
            json.contains("\"no_false_retune_on_stationary\": true"),
            "{json}"
        );
    }

    #[test]
    fn byte_identical_across_invocations() {
        let a = run_with_json(&mini_scale());
        let b = run_with_json(&mini_scale());
        assert_eq!(a.0[0].rows, b.0[0].rows);
        assert_eq!(a.1, b.1);
    }
}
