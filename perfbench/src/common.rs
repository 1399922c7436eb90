//! Pieces every workload shares: correctness checks, the metric sheet,
//! the single-client probe and the decision loop.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use smdb_common::Result;
use smdb_core::{Driver, TuningRunReport};
use smdb_query::{Query, QueryRunResult};
use smdb_storage::{ConfigInstance, ScanOutput};

use crate::stats::{mean, median, quantile, share};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for durable stores and the span dump.
    pub out: PathBuf,
}

/// Host threads: the load never keeps more than this many threads busy.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Correctness bookkeeping: every checked operation counts as attempted;
/// errors, wrong answers, digest mismatches and LP objectives that
/// differ from brute force count as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// Records `n` operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// The metrics one run reports, with their units.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }
}

/// Samples gathered across the rounds of one run; each metric reports
/// the median of its per-round values.
#[derive(Debug, Default)]
pub struct Rounds {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rounds {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map(|v| median(v)).unwrap_or(0.0)
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.samples.get(name).map(|v| mean(v)).unwrap_or(0.0)
    }
}

/// Repeats `round` until `seconds` have passed and at least `min`
/// rounds ran, or `max` rounds ran.
pub fn repeat_rounds(
    seconds: f64,
    min: usize,
    max: usize,
    mut round: impl FnMut(usize) -> Result<()>,
) -> Result<usize> {
    let start = Instant::now();
    let mut n = 0;
    while n < max && (n < min || start.elapsed().as_secs_f64() < seconds) {
        round(n)?;
        n += 1;
    }
    Ok(n)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups timed per round; each is a `setup_s` sample.
pub const SETUP_REPEATS: usize = 3;

/// Builds a fixture `SETUP_REPEATS` times, recording each build's wall
/// time as a `setup_s` sample, and returns the last build.
pub fn timed_setup<T>(rounds: &mut Rounds, mut setup: impl FnMut() -> Result<T>) -> Result<T> {
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let (result, secs) = timed(&mut setup);
        rounds.push("setup_s", secs);
        built = Some(result?);
    }
    Ok(built.expect("SETUP_REPEATS is at least 1"))
}

/// Seconds elapsed while running `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A single client replaying a fixed query set: one untimed warm-up
/// pass, then `passes` timed passes, each after `before_pass`. Every
/// answer is verified outside the timed region. Returns per-query
/// latencies in microseconds.
pub fn probe(
    queries: &[Query],
    passes: usize,
    mut before_pass: impl FnMut(),
    run: impl Fn(&Query) -> Result<QueryRunResult>,
    verify: impl Fn(&Query, &ScanOutput) -> bool,
    checks: &mut Checks,
) -> Vec<f64> {
    let mut lats = Vec::with_capacity(queries.len() * passes);
    for pass in 0..=passes {
        before_pass();
        for q in queries {
            let start = Instant::now();
            let result = run(q);
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            let ok = result.as_ref().is_ok_and(|r| verify(q, &r.output));
            checks.check(ok, || {
                format!("probe answer wrong or failed: {}", q.label())
            });
            if pass > 0 {
                lats.push(us);
            }
        }
    }
    lats
}

/// What a run of decisions produced.
#[derive(Debug, Default)]
pub struct Decisions {
    /// Wall time of each decision call, ms.
    pub ms: Vec<f64>,
    /// What-if cost of the forecast workload under the chosen config ÷
    /// under the prior config, per decision.
    pub cost_ratios: Vec<f64>,
    /// Decisions whose chosen configuration equals the prior one.
    pub noop: usize,
    /// Actions the decisions applied or queued.
    pub actions: u64,
    /// Queries served by the buckets between decisions.
    pub queries: u64,
    /// Wall time of the bucket calls, s.
    pub serve_s: f64,
    /// Fingerprint of the configuration after the last decision.
    pub final_config: u64,
}

impl Decisions {
    pub fn noop_share(&self) -> f64 {
        share(self.noop as f64, self.ms.len() as f64)
    }
}

/// The configuration a tuning run chose: the last accepted proposal's
/// target, or `prior` when none was accepted.
pub fn chosen_config(report: &TuningRunReport, prior: &ConfigInstance) -> ConfigInstance {
    report
        .proposals
        .iter()
        .rev()
        .find(|p| p.accepted)
        .map_or_else(|| prior.clone(), |p| p.target.clone())
}

/// What-if cost ratio of `chosen` over `prior` on the driver's current
/// forecast.
pub fn cost_ratio(driver: &Driver, prior: &ConfigInstance, chosen: &ConfigInstance) -> Result<f64> {
    let forecast = driver.forecast();
    let Some(expected) = forecast.expected() else {
        return Ok(1.0);
    };
    let engine = driver.database().engine();
    let what_if = driver.multi().what_if();
    let before = what_if.workload_cost(&engine, &expected.workload, prior)?;
    let after = what_if.workload_cost(&engine, &expected.workload, chosen)?;
    Ok(if before.ms() > 0.0 {
        after.ms() / before.ms()
    } else {
        1.0
    })
}

/// Checks that the LP order of the decision the driver just made from
/// `prior` reaches the brute-force optimum of the same ordering problem.
pub fn check_lp_against_brute_force(
    driver: &Driver,
    prior: &ConfigInstance,
    checks: &mut Checks,
) -> Result<()> {
    let forecast = driver.forecast();
    let engine = driver.database().engine();
    let report = driver
        .multi()
        .analyze(&engine, &forecast, prior, &driver.constraints())?;
    let lp = driver.multi().lp_order(&report)?;
    let brute = smdb_lp::permutation::brute_force_order(&report.ordering_problem()?)?;
    let tol = 1e-6 * brute.objective.abs().max(1.0);
    checks.check((lp.objective - brute.objective).abs() <= tol, || {
        format!(
            "LP objective {} differs from brute force {}",
            lp.objective, brute.objective
        )
    });
    Ok(())
}

/// The decision loop: for each bucket, one `Driver::run_bucket` and
/// then one timed `Driver::force_tune`. `after_each` runs untimed after
/// every decision (answer checks on the new configuration).
pub fn decide_loop(
    driver: &Driver,
    buckets: &[Vec<Query>],
    lp_check: bool,
    checks: &mut Checks,
    mut after_each: impl FnMut(&mut Checks) -> Result<()>,
) -> Result<Decisions> {
    let mut out = Decisions::default();
    for bucket in buckets {
        let (report, secs) = timed(|| driver.run_bucket(bucket));
        report?;
        out.serve_s += secs;
        out.queries += bucket.len() as u64;
        let prior = driver.database().engine().current_config();
        let (report, secs) = timed(|| driver.force_tune());
        let report = report?;
        out.ms.push(secs * 1e3);
        let chosen = chosen_config(&report, &prior);
        if chosen == prior {
            out.noop += 1;
        }
        out.actions += prior.diff(&chosen).len() as u64;
        out.cost_ratios.push(cost_ratio(driver, &prior, &chosen)?);
        if lp_check {
            check_lp_against_brute_force(driver, &prior, checks)?;
        }
        after_each(checks)?;
    }
    out.final_config = driver.database().engine().current_config().fingerprint();
    Ok(out)
}

/// Adds the decision metrics of one round.
pub fn push_decisions(rounds: &mut Rounds, d: &Decisions) {
    rounds.push("decide_ms_p50", median(&d.ms));
    rounds.push("decide_ms_p90", quantile(&d.ms, 0.9));
    rounds.push("tuned_cost_ratio", mean(&d.cost_ratios));
}

/// Metrics averaged over every probed fixture of a run rather than taken
/// as the median over rounds. A fixture's median probe latency depends
/// on where its build placed the data in memory and falls into a fast
/// or a slow mode (up to 1.7x apart) that persists for the fixture's
/// life; the median over fixtures jumps between the two modes, their
/// mean does not.
const FIXTURE_MEANS: &[&str] = &["query_us_p50", "cold_query_us_p50"];

/// Adds the probe metrics of one round: per-fixture latencies of the
/// untuned (`cold`) and tuned fixtures.
pub fn push_probe(rounds: &mut Rounds, cold: &[Vec<f64>], tuned: &[Vec<f64>]) {
    for lats in cold {
        rounds.push("cold_query_us_p50", median(lats));
    }
    for lats in tuned {
        rounds.push("query_us_p50", median(lats));
    }
    rounds.push("query_us_p99", quantile(&tuned.concat(), 0.99));
}

/// Fills the end-to-end sheet from the per-round samples.
pub fn end_to_end_sheet(rounds: &Rounds) -> Sheet {
    let mut sheet = Sheet::default();
    for (name, unit) in crate::END_TO_END {
        if *name == "peak_rss_mb" {
            sheet.set(name, peak_rss_mb(), unit);
        } else if FIXTURE_MEANS.contains(name) {
            sheet.set(name, rounds.mean(name), unit);
        } else {
            sheet.set(name, rounds.median(name), unit);
        }
    }
    sheet
}

/// Selects `count` items of `items` with a seeded generator.
pub fn seeded_sample<T: Clone>(items: &[T], count: usize, seed: u64) -> Vec<T> {
    use rand::RngExt;
    let mut rng = smdb_common::seeded_rng(seed);
    (0..count)
        .map(|_| items[rng.random_range(0..items.len())].clone())
        .collect()
}

/// Checks one serving pass: `bad` of `queries` failed, every planned
/// query was served, and the digest equals the first pass's.
pub fn check_serving(
    checks: &mut Checks,
    what: &str,
    queries: u64,
    bad: u64,
    planned: u64,
    digest_now: u64,
    digest: &mut Option<u64>,
) {
    checks.tally(queries, bad, || {
        format!("{what}: {bad} errors or wrong results")
    });
    checks.check(queries == planned, || {
        format!("{what}: served {queries} of {planned} queries")
    });
    match digest {
        None => *digest = Some(digest_now),
        Some(d) => checks.check(*d == digest_now, || {
            format!("{what}: digest {digest_now:#x} differs from {d:#x}")
        }),
    }
}
