//! End-to-end benchmark of the Search Computing engine through the
//! entry points users call: the `seco run` path in-process and the
//! `seco serve` daemon over loopback TCP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot|serve_hot|serve_fresh --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from the seed (see [`gen`]), sets up
//! several times and keeps the median set-up time, measures a closed
//! loop for `--seconds`, checks the answers off the timed path, and
//! prints a human-readable report followed by one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. The exit code is non-zero when an
//! answer differs from its reference or a workload stops exercising
//! the layer it exists for.
//!
//! `BENCHMARK.json` lists only the daemon workloads. `oneshot` is for
//! runs by hand: on a shared 2-vCPU host its wall time swings 30-45%
//! with the neighbours' load (every layer slows alike while a pure-ALU
//! loop does not), more than a gated bound can absorb.

mod gen;
mod json;
mod layers;
mod oneshot;
mod probe;
mod serve;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 9;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    };
    if !["oneshot", "serve_hot", "serve_fresh"].contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (oneshot, serve_hot, serve_fresh)",
            args.workload
        ));
    }
    Ok(args)
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for a count or a gauge).
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Timed operations issued.
    pub attempted: u64,
    /// Operations refused, failed, or answered differently from the
    /// reference.
    pub failed: u64,
    /// Answer mismatches and failed "it fires" checks, in words.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// End-to-end figures printed for readers but left out of the result
    /// line, because their run-to-run spread exceeds any usable bound.
    pub reported: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Free-form lines for the human-readable part of the report.
    pub notes: Vec<String>,
}

impl Report {
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Fails the run unless `holds`: a workload that no longer
    /// exercises its layer measures something else.
    pub fn fires(&mut self, holds: bool, what: &str) {
        if !holds {
            self.problem(format!("it-fires check failed: {what}"));
        }
    }
}

/// Nearest-rank percentile of `samples` (sorted in place), in ms.
pub fn percentile_ms(samples: &mut [Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1].as_secs_f64() * 1e3
}

pub fn median_s(samples: &[Duration]) -> f64 {
    percentile_ms(&mut samples.to_vec(), 0.5) / 1e3
}

/// Length of one slice of the measured window.
pub const SLICE: Duration = Duration::from_secs(1);

/// Which slices of the measured window the end-to-end figures use.
///
/// On a virtual machine the hypervisor can steal CPU time in bursts,
/// and a burst slows every layer at once. The window is cut into
/// one-second slices, the host's stolen CPU share is read at each slice
/// boundary, and the third of the slices with the least stolen time is
/// kept. Each latency figure is taken per kept slice and the median
/// across the kept slices is reported, so a hiccup inside one slice
/// does not move it; the rate is the samples started in kept slices
/// per kept second. The choice of slices depends only on the host, never
/// on the measured latencies; without steal accounting every slice
/// reads zero and the first third is kept.
pub struct Calm {
    pub stolen: Vec<f64>,
    pub keep: Vec<bool>,
}

impl Calm {
    /// Reads the host's CPU counters at each slice boundary from
    /// `start` until `slices` slices have passed.
    pub fn sample(start: Instant, slices: u32) -> Calm {
        let mut marks = vec![cpu_ticks()];
        for i in 1..=slices {
            let due = start + SLICE * i;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            marks.push(cpu_ticks());
        }
        let stolen: Vec<f64> = marks
            .windows(2)
            .map(|w| {
                let all = w[1].0.saturating_sub(w[0].0).max(1);
                w[1].1.saturating_sub(w[0].1) as f64 / all as f64
            })
            .collect();
        let mut order: Vec<usize> = (0..stolen.len()).collect();
        order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]).then(a.cmp(&b)));
        let mut keep = vec![false; stolen.len()];
        for &i in &order[..stolen.len().div_ceil(3)] {
            keep[i] = true;
        }
        Calm { stolen, keep }
    }

    pub fn note(&self) -> String {
        let pct = |keep: bool| {
            let v: Vec<f64> = self
                .stolen
                .iter()
                .zip(&self.keep)
                .filter(|(_, k)| **k == keep)
                .map(|(s, _)| *s)
                .collect();
            100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        format!(
            "host: {:.1}% of CPU time stolen by the hypervisor in the {} kept slices, \
             {:.1}% in the {} others",
            pct(true),
            self.keep.iter().filter(|k| **k).count(),
            pct(false),
            self.keep.iter().filter(|k| !**k).count()
        )
    }
}

/// Latency samples, each stamped with its start within the window:
/// `(start in ms, latency in ns)`. Eight bytes a sample keep the
/// benchmark's own memory small next to the program's; a latency
/// saturates at 4.29 s.
#[derive(Default)]
pub struct Series(Vec<(u32, u32)>);

impl Series {
    pub fn push(&mut self, at: Duration, took: Duration) {
        let at = u32::try_from(at.as_millis()).unwrap_or(u32::MAX);
        let took = u32::try_from(took.as_nanos()).unwrap_or(u32::MAX);
        self.0.push((at, took));
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    fn values(&self) -> Vec<Duration> {
        self.0
            .iter()
            .map(|(_, ns)| Duration::from_nanos(*ns as u64))
            .collect()
    }

    /// The samples of each kept slice.
    fn kept_slices(&self, calm: &Calm) -> Vec<Vec<Duration>> {
        let mut slices = vec![Vec::new(); calm.keep.len()];
        for (at, ns) in &self.0 {
            let i = *at as usize / SLICE.as_millis() as usize;
            if calm.keep.get(i) == Some(&true) {
                slices[i].push(Duration::from_nanos(*ns as u64));
            }
        }
        calm.keep
            .iter()
            .zip(slices)
            .filter_map(|(k, s)| k.then_some(s))
            .collect()
    }

    /// Median over the kept slices of each slice's `p`-th percentile, in
    /// ms.
    fn kept_ms(&self, calm: &Calm, p: f64) -> f64 {
        let mut per: Vec<Duration> = self
            .kept_slices(calm)
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|mut s| Duration::from_secs_f64(percentile_ms(&mut s, p) / 1e3))
            .collect();
        percentile_ms(&mut per, 0.5)
    }

    fn kept_count(&self, calm: &Calm) -> usize {
        self.kept_slices(calm).iter().map(Vec::len).sum()
    }

    /// Samples started per second of kept slices.
    fn kept_rate(&self, calm: &Calm) -> f64 {
        let seconds = calm.keep.iter().filter(|k| **k).count() as f64 * SLICE.as_secs_f64();
        self.kept_count(calm) as f64 / seconds
    }

    pub fn extend(&mut self, other: Series) {
        self.0.extend(other.0);
    }
}

/// The end-to-end timings of one run.
#[derive(Default)]
pub struct Timings {
    /// Top-level query latency, untraced and traced.
    pub query: Series,
    pub query_traced: Series,
    pub first_row: Series,
    /// `more` and `rerank` latency.
    pub liquid: Series,
}

impl Timings {
    pub fn queries(&self) -> usize {
        self.query.count() + self.query_traced.count()
    }

    pub fn merge(&mut self, o: Timings) {
        self.query.extend(o.query);
        self.query_traced.extend(o.query_traced);
        self.first_row.extend(o.first_row);
        self.liquid.extend(o.liquid);
    }

    /// Traced and untraced median query latency over the whole window,
    /// in ms.
    pub fn traced_p50_ms(&self) -> (f64, f64) {
        (
            percentile_ms(&mut self.query_traced.values(), 0.5),
            percentile_ms(&mut self.query.values(), 0.5),
        )
    }

    /// Fills the report's end-to-end figures.
    pub fn report(self, report: &mut Report, calm: &Calm, setups: &[Duration], rss_mb: f64) {
        let mut all = self.query;
        all.extend(self.query_traced);
        let n = all.kept_count(calm);
        // The tail swings with scheduling stalls of the host more than
        // any bound allows, so it is shown but not part of the result.
        report.reported = vec![metric("query_p99_ms", all.kept_ms(calm, 0.99), "ms", n)];
        report.end_to_end = vec![
            metric("query_p50_ms", all.kept_ms(calm, 0.5), "ms", n),
            metric("queries_per_s", all.kept_rate(calm), "1/s", n),
            metric(
                "first_row_p50_ms",
                self.first_row.kept_ms(calm, 0.5),
                "ms",
                self.first_row.kept_count(calm),
            ),
            metric(
                "liquid_p50_ms",
                self.liquid.kept_ms(calm, 0.5),
                "ms",
                self.liquid.kept_count(calm),
            ),
            metric("setup_s", median_s(setups), "s", setups.len()),
            metric("peak_rss_mb", rss_mb, "MiB", 0),
        ];
    }
}

/// Available cores: the default worker count of `seco run` and
/// `seco serve`, and the cap on benchmark client threads.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPU time this process has used, all threads, in seconds (from
/// `/proc/self/stat`, in the kernel's 100 Hz user ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<f64> = rest
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(11).copied().unwrap_or(0.0) + f.get(12).copied().unwrap_or(0.0)) / 100.0
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `(all, stolen)` CPU ticks of the host since boot, from `/proc/stat`.
/// On a virtual machine the stolen share is CPU time the hypervisor
/// gave to other guests; it explains slow runs the program did not
/// cause.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "oneshot" => oneshot::run(&args),
        _ => serve::run(&args),
    };

    println!(
        "provenance: workload={} seed={} seconds={} trace={} cores={} rustc=\"{}\" git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (title, list) in [
        ("end-to-end", &report.end_to_end),
        ("end-to-end (not gated)", &report.reported),
        ("per-layer", &report.per_layer),
    ] {
        for m in list.iter() {
            let n = if m.samples > 0 {
                format!(" (n={})", m.samples)
            } else {
                String::new()
            };
            println!("{title} {} = {:.4} {}{n}", m.name, m.value, m.unit);
        }
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
