//! E8 — figure analogue: online reconfiguration across condition shifts.
//!
//! Claim validated: *runtime reconfiguration recovers throughput after a
//! cluster condition shift, with bounded switching cost.* Sessions run a
//! compute-bound BSP deployment through a straggler-severity jump with
//! reconfiguration on vs off, across a range of severities.
//!
//! The experiment runs on the shared dynamic-environment layer. The
//! shift is one [`ScenarioScript`] event raising `straggler_scale`, read
//! through [`ScenarioScript::env_at`] and [`SimOptions::with_env`]. The
//! detector is a Page–Hinkley [`DriftMonitor`] fed each full window's
//! seconds-per-sample under the live configuration's key. When it fires,
//! the controller probes the live configuration's
//! [`ConfigSpace::neighbors`] that keep the cluster (`num_nodes`,
//! `machine_type`), since a running job cannot reprovision, and switches
//! only to a candidate that beats the live configuration by 5%.

use mlconf_sim::engine::{simulate, SimOptions};
use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
use mlconf_space::config::Configuration;
use mlconf_space::param::ParamValue;
use mlconf_space::space::ConfigSpace;
use mlconf_tuners::drift::{DriftConfig, DriftMonitor};
use mlconf_util::rng::Pcg64;
use mlconf_workloads::tunespace::{standard_space, to_run_config};
use mlconf_workloads::workload::{lda_news, Workload};

use crate::report::{fmt_num, Table};

use super::Scale;

/// Monitoring windows per session (one minute each).
const WINDOWS: usize = 30;
/// Monitoring window length in seconds.
const WINDOW_SECS: f64 = 60.0;
/// When the straggler severity jumps (minute 6).
const SHIFT_AT_SECS: f64 = 360.0;
/// Seconds of paused training per reconfiguration.
const PAUSE_SECS: f64 = 30.0;
/// A candidate must beat the live configuration's throughput by this
/// factor to be switched to.
const SWITCH_GAIN: f64 = 1.05;

fn initial_config() -> Configuration {
    Configuration::from_pairs([
        ("num_nodes", ParamValue::Int(8)),
        ("machine_type", ParamValue::Str("c4.4xlarge".into())),
        ("arch", ParamValue::Str("ps".into())),
        ("num_ps", ParamValue::Int(2)),
        ("sync", ParamValue::Str("bsp".into())),
        ("staleness", ParamValue::Int(1)),
        ("batch_per_worker", ParamValue::Int(1024)),
        ("threads_per_worker", ParamValue::Int(16)),
        ("compress", ParamValue::Bool(false)),
    ])
}

/// Detector thresholds on one-minute windows: a log-residual up to
/// `delta` per window is absorbed as measurement noise, and the monitor
/// needs `min_obs` re-observations of the live configuration before it
/// may fire. Tighter than the session default, which is sized for the
/// noisier full-trial objective: pre-shift windows here vary by about 2%.
fn drift_config() -> DriftConfig {
    DriftConfig {
        delta: 0.05,
        lambda: 0.4,
        min_obs: 2,
        ..DriftConfig::default()
    }
}

/// The world: cloud-default stragglers until minute 6, then `severity`
/// times the straggler magnitudes for the rest of the session.
fn shift_script(severity: f64) -> ScenarioScript {
    let mut script = ScenarioScript::stationary("e8-straggler-shift");
    script.push(ScenarioEvent {
        at_secs: SHIFT_AT_SECS,
        env: EnvState {
            straggler_scale: severity,
            ..EnvState::neutral()
        },
    });
    script
}

/// Measures the steady-state throughput of `cfg` under `opts` (a short
/// probing simulation; 0 when the configuration cannot run).
fn throughput(workload: &Workload, cfg: &Configuration, opts: &SimOptions, rng: &mut Pcg64) -> f64 {
    let Ok(rc) = to_run_config(cfg) else {
        return 0.0;
    };
    simulate(workload.job(), &rc, opts, rng).throughput()
}

/// One session's record.
struct Trace {
    /// Per-window `(throughput, live config key)`; throughput is 0 for
    /// the paused share of a window.
    windows: Vec<(f64, String)>,
    /// Times at which reconfigurations were committed.
    reconfig_times: Vec<f64>,
    /// Training samples processed over the session.
    total_samples: f64,
}

/// Runs one 30-window session at `severity`, reconfiguring on drift
/// when `adaptive`. Window measurements and candidate probes share one
/// RNG, so the static arm draws exactly one simulation per window.
fn run_session(space: &ConfigSpace, severity: f64, seed: u64, adaptive: bool) -> Trace {
    let workload = lda_news();
    let script = shift_script(severity);
    let probe_opts = SimOptions {
        steps_per_worker: 30,
        warmup_steps: 5,
        ..SimOptions::default()
    };
    let mut rng = Pcg64::seed(seed);
    let mut monitor = DriftMonitor::new(&drift_config());
    let mut live = initial_config();
    let mut trace = Trace {
        windows: Vec::with_capacity(WINDOWS),
        reconfig_times: Vec::new(),
        total_samples: 0.0,
    };
    let mut pause_remaining = 0.0f64;
    for w in 0..WINDOWS {
        let t_start = w as f64 * WINDOW_SECS;
        let opts = probe_opts.with_env(&script.env_at(t_start));
        let pause_here = pause_remaining.min(WINDOW_SECS);
        pause_remaining -= pause_here;
        let active_frac = 1.0 - pause_here / WINDOW_SECS;

        let raw = throughput(&workload, &live, &opts, &mut rng);
        trace.total_samples += raw * active_frac * WINDOW_SECS;
        trace.windows.push((raw * active_frac, live.key()));

        if !adaptive || active_frac < 1.0 {
            continue;
        }
        if monitor.observe(&live.key(), 1.0 / raw).is_none() {
            continue;
        }
        // Drift fired: probe the in-place moves under current conditions.
        let mut best = live.clone();
        let mut best_tput = throughput(&workload, &live, &opts, &mut rng);
        let candidates = space.neighbors(&live).expect("live config is in the space");
        for cand in candidates.into_iter().filter(|c| {
            c.get_int("num_nodes") == live.get_int("num_nodes")
                && c.get_str("machine_type") == live.get_str("machine_type")
        }) {
            let tput = throughput(&workload, &cand, &opts, &mut rng);
            if tput > best_tput * SWITCH_GAIN {
                best_tput = tput;
                best = cand;
            }
        }
        if best.key() != live.key() {
            live = best;
            trace.reconfig_times.push(t_start + WINDOW_SECS);
            pause_remaining = PAUSE_SECS;
        }
    }
    trace
}

/// Runs E8.
pub fn run(scale: &Scale) -> Vec<Table> {
    let space = standard_space(scale.max_nodes);
    let mut t = Table::new(
        "e8_online",
        "Online reconfiguration vs static config across severity shifts",
        [
            "severity",
            "static samples",
            "adaptive samples",
            "gain%",
            "reconfigs",
            "recovery%",
        ],
    );
    let seed = scale.seeds[0];
    for severity in [1.0f64, 2.0, 4.0, 8.0] {
        let off = run_session(&space, severity, seed, false);
        let on = run_session(&space, severity, seed, true);
        let gain = (on.total_samples / off.total_samples - 1.0) * 100.0;
        // Recovery: mean throughput of the last 5 windows relative to
        // the pre-shift mean.
        let mean = |ws: &[(f64, String)]| ws.iter().map(|w| w.0).sum::<f64>() / ws.len() as f64;
        let recovery = mean(&on.windows[WINDOWS - 5..]) / mean(&on.windows[1..6]);
        t.push_row([
            format!("{severity}x"),
            fmt_num(off.total_samples),
            fmt_num(on.total_samples),
            format!("{gain:+.1}"),
            on.reconfig_times.len().to_string(),
            format!("{:.0}", recovery * 100.0),
        ]);
    }
    t.note("shift at minute 6 of a 30-minute session; recovery = tail throughput / pre-shift");

    // Time-series for the figure, at the harshest severity.
    let on = run_session(&space, 8.0, seed, true);
    let off = run_session(&space, 8.0, seed, false);
    let mut series = Table::new(
        "e8_online_series",
        "Per-minute throughput, severity 8x (figure data)",
        ["minute", "static", "adaptive", "adaptive config"],
    );
    for (minute, (w_off, w_on)) in off.windows.iter().zip(on.windows).enumerate() {
        series.push_row([
            minute.to_string(),
            fmt_num(w_off.0),
            fmt_num(w_on.0),
            w_on.1,
        ]);
    }
    vec![t, series]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 3] = [11, 22, 33];

    fn space() -> ConfigSpace {
        standard_space(Scale::quick().max_nodes)
    }

    #[test]
    fn no_shift_no_reconfig() {
        for seed in SEEDS {
            let trace = run_session(&space(), 1.0, seed, true);
            assert!(
                trace.reconfig_times.is_empty(),
                "seed {seed}: reconfigured without a shift at {:?}",
                trace.reconfig_times
            );
            assert!(trace.total_samples > 0.0);
        }
    }

    #[test]
    fn no_switch_at_or_before_the_shift() {
        for seed in SEEDS {
            for severity in [2.0, 4.0, 8.0] {
                for &t in &run_session(&space(), severity, seed, true).reconfig_times {
                    assert!(
                        t > SHIFT_AT_SECS,
                        "seed {seed}, {severity}x: switch at {t} before the shift"
                    );
                }
            }
        }
    }

    #[test]
    fn severe_shift_reconfigures_and_gains() {
        for seed in SEEDS {
            let on = run_session(&space(), 8.0, seed, true);
            let off = run_session(&space(), 8.0, seed, false);
            assert!(off.reconfig_times.is_empty());
            assert!(
                !on.reconfig_times.is_empty(),
                "seed {seed}: no reconfiguration despite 8x straggler severity"
            );
            assert!(
                on.total_samples > off.total_samples,
                "seed {seed}: adaptive {} <= static {}",
                on.total_samples,
                off.total_samples
            );
            let initial = initial_config().key();
            assert!(on.windows.iter().any(|w| w.1 != initial));
        }
    }

    #[test]
    fn series_covers_whole_session() {
        let tables = run(&Scale::quick());
        assert_eq!(tables[1].rows.len(), 30, "30 one-minute windows");
    }
}
