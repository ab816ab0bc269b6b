//! Turns the passes' measurements into the printed report and the final
//! JSON line.

use crate::frontdoor::{drive, Budget, FrontDoor};
use crate::replay;
use crate::stats::{median, percentile, total};
use crate::workloads::Workload;
use revere_util::obs::Obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A reported metric: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end metrics of an untraced pass, every one of which every
/// workload reports. Latencies and throughputs rest on each operation's
/// fastest execution.
fn end_to_end(fd: &FrontDoor) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let query_ms = fd.query_fastest();
    m.insert(
        "query_p50_ms".into(),
        (percentile(&query_ms, 0.5)?.value, "ms"),
    );
    m.insert(
        "query_p90_ms".into(),
        (percentile(&query_ms, 0.9)?.value, "ms"),
    );
    // On `overlay-chaos` the loop includes one monitor scrape per query;
    // elsewhere `other_ms` holds checkpoints, which are not queries.
    let scrapes = if fd.publish_us.is_empty() {
        total(&fd.other_ms)
    } else {
        0.0
    };
    let busy_ms = total(&query_ms) + scrapes;
    m.insert(
        "queries_per_s".into(),
        (1e3 * query_ms.len() as f64 / busy_ms, "1/s"),
    );
    let op_ms = total(&query_ms)
        + total(&fd.other_ms)
        + total(&fd.restart_ms)
        + total(&fd.publish_us) / 1e3;
    m.insert(
        "ops_per_s".into(),
        (1e3 * fd.ops_per_pass as f64 / op_ms, "1/s"),
    );
    let coverage = total(&fd.coverage) / fd.coverage.len().max(1) as f64;
    m.insert("answer_coverage".into(), (coverage, "ratio"));
    m.insert("setup_s".into(), (median(&fd.setup_s), "s"));
    m.insert("peak_rss_mb".into(), (fd.peak_rss_mb, "MB"));
    Ok(m)
}

/// The front-door metrics that exist on one workload only, reported
/// with the per-layer metrics (zero where the workload has no such
/// operation).
fn single_workload(fd: &FrontDoor) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let (p50, p99, rate) = if fd.publish_us.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            percentile(&fd.publish_us, 0.5)?.value,
            percentile(&fd.publish_us, 0.99)?.value,
            1e6 * fd.publish_us.len() as f64 / total(&fd.publish_us),
        )
    };
    m.insert("publish_p50_us".into(), (p50, "us"));
    m.insert("publish_p99_us".into(), (p99, "us"));
    m.insert("grams_per_s".into(), (rate, "1/s"));
    let restart = total(&fd.restart_ms) / fd.restart_ms.len().max(1) as f64;
    m.insert("restart_to_serving_ms".into(), (restart, "ms"));
    Ok(m)
}

/// Smallest and largest of `xs`.
fn range(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// Human-readable lines: every front-door metric with its unit and
/// sample count, and the per-template shares and medians that show which
/// template sets each percentile.
fn describe(w: Workload, fd: &FrontDoor) -> Result<String, String> {
    let mut out = String::new();
    let busy = fd.busy.as_secs_f64();
    let _ = writeln!(
        out,
        "workload {}: {} passes of {} ops, {} ops in {busy:.3} s of front-door time",
        w.name(),
        fd.passes,
        fd.ops_per_pass,
        fd.ops
    );
    let (lo, hi) = range(&fd.pass_s);
    let _ = writeln!(
        out,
        "  seconds per pass: median {:.3} [{lo:.3} .. {hi:.3}]",
        median(&fd.pass_s)
    );
    let query_ms = fd.query_fastest();
    let p50 = percentile(&query_ms, 0.5)?;
    let p90 = percentile(&query_ms, 0.9)?;
    let _ = writeln!(
        out,
        "  query_p50_ms   {:>12.4} ms  (n={})",
        p50.value, p50.n
    );
    let _ = writeln!(
        out,
        "  query_p90_ms   {:>12.4} ms  (n={}, {} beyond)",
        p90.value, p90.n, p90.beyond
    );
    if !fd.publish_us.is_empty() {
        let p50 = percentile(&fd.publish_us, 0.5)?;
        let p99 = percentile(&fd.publish_us, 0.99)?;
        let _ = writeln!(
            out,
            "  publish_p50_us {:>12.4} us  (n={})",
            p50.value, p50.n
        );
        let _ = writeln!(
            out,
            "  publish_p99_us {:>12.4} us  (n={}, {} beyond)",
            p99.value, p99.n, p99.beyond
        );
    }
    if !fd.restart_ms.is_empty() {
        let _ = writeln!(
            out,
            "  restart_to_serving_ms median {:.4} ms over {} restarts",
            median(&fd.restart_ms),
            fd.restart_ms.len()
        );
    }
    let (lo, hi) = range(&fd.setup_s);
    let _ = writeln!(
        out,
        "  setup_s median {:.6} s over {} set-ups [{lo:.6} .. {hi:.6}]",
        median(&fd.setup_s),
        fd.setup_s.len()
    );
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (l, ms) in fd.query_label.iter().zip(&query_ms) {
        by_label.entry(l).or_default().push(*ms);
    }
    let _ = writeln!(
        out,
        "  per template (each operation's fastest): share, median ms, range ms (p50 at {:.4}, p90 at {:.4})",
        p50.value, p90.value
    );
    for (l, v) in &by_label {
        let (lo, hi) = range(v);
        let _ = writeln!(
            out,
            "    {l:<12} {:>6.1}% {:>12.4} [{lo:.3} .. {hi:.3}]",
            100.0 * v.len() as f64 / query_ms.len() as f64,
            median(v)
        );
    }
    let _ = writeln!(
        out,
        "  timed loop: {} reformulation misses, plan cache {} hits / {} misses",
        fd.reformulation_misses, fd.plan_hits, fd.plan_misses
    );
    let _ = writeln!(out, "  seed-pure fingerprint {:016x}", fd.fingerprint);
    for f in &fd.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    Ok(out)
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Run one benchmark invocation and print its report.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let fd = drive(
        w,
        seed,
        Budget::Seconds(seconds),
        Obs::disabled(),
        &mut |_, _| {},
    );
    print!("{}", describe(w, &fd)?);
    let mut metrics = end_to_end(&fd)?;
    for (k, (v, u)) in &metrics {
        println!("  {k:<24} {v:>14.6} {u}");
    }
    let (mut attempted, mut failed) = (fd.ops, fd.failed);
    if trace {
        let mut layers = single_workload(&fd)?;
        let traced = replay::run(w, seed, &fd);
        attempted += traced.attempted;
        failed += traced.failed;
        print!("{}", traced.text);
        layers.extend(traced.metrics);
        // Over both passes: every operation attempted, every failed check.
        layers.insert(
            "ops_failed_share".into(),
            (failed as f64 / attempted.max(1) as f64, "ratio"),
        );
        for (k, (v, u)) in &layers {
            println!("  {k:<36} {v:>14.6} {u}");
        }
        metrics = layers;
    }
    let correct = failed == 0;
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        Ok(())
    } else {
        Err(format!(
            "{failed} of {attempted} operations failed their output checks"
        ))
    }
}
