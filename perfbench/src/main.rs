//! End-to-end benchmark of the reproduction.
//!
//! ```text
//! perfbench --workload <energy_sweep|feedback_grid|million_station>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs the
//! program's own spec once as the reference, then repeats the workload for
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! reports the per-layer metrics of a traced run validated against the
//! untraced one. Machine facts go to stdout as one JSON line, a readable
//! table to stderr, and the result as the last stdout line. See README.md.

mod layers;
mod leaf;
mod machine;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use lowsense::LowSensing;

use crate::layers::Metric;
use crate::machine::Facts;
use crate::stats::{median, quantile};
use crate::workloads::Workload;
use crate::yardstick::{Yardstick, REFERENCE_S};

/// Set-ups timed before the first repetition and again after each one, so
/// the reported median samples the whole run.
const SETUP_BATCH: usize = 21;
/// Fewest timed repetitions of an untraced run.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <energy_sweep|feedback_grid|million_station> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let facts = Facts::gather();
    println!("{}", facts_json(&facts, &args));

    let (metrics, attempted, failed, note) = if args.trace {
        let t = layers::run(args.workload, args.seed, args.seconds);
        let note = format!("{} traced iterations", t.iterations);
        (t.metrics, t.attempted, t.failed, note)
    } else {
        untraced(&args)
    };

    let finite = metrics.iter().all(|m| m.1.is_finite());
    let correct = failed == 0 && attempted > 0 && finite;
    eprintln!(
        "perfbench {} seed={} trace={} ({note}); runs attempted {attempted}, failed {failed} \
         (fail_frac {})",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        failed as f64 / attempted.max(1) as f64,
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>18.6} {unit}");
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// The untraced run: reference, set-up, then timed repetitions.
///
/// Each repetition's wall time is scaled to the yardstick's reference
/// speed by the yardstick timed just before and just after it, and each
/// set-up batch by the yardstick timed just before it (see README.md,
/// "Noise"); the raw wall quartiles go to stderr.
fn untraced(args: &Args) -> (Vec<Metric>, u64, u64, String) {
    // The program's own spec, untimed: it warms the caches, and every
    // repetition below must reproduce it bit for bit. The peak resident
    // set is read right after it, before the yardstick's table exists.
    let t0 = Instant::now();
    let reference = workloads::reference(args.workload, args.seed);
    let reference_s = t0.elapsed().as_secs_f64();
    let peak_rss = machine::peak_rss_mib().unwrap_or(f64::NAN);
    let reference_digest = reference.digest();
    let mut attempted = layers::runs_in(&reference);
    let mut failed = 0;

    let yardstick = Yardstick::new();
    let mut setups = Vec::new();
    let mut set_up = |speed: f64| {
        let mut prepared = None;
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            let p = workloads::setup(args.workload, args.seed, None);
            setups.push(t0.elapsed().as_secs_f64() * speed);
            prepared = Some(p);
        }
        prepared.expect("a set-up batch is not empty")
    };
    let prepared = set_up(REFERENCE_S / yardstick.measure());

    let mut walls = Vec::new();
    let mut scaled = Vec::new();
    let mut rates = Vec::new();
    let mut before = yardstick.measure();
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = prepared.execute(None);
        let after = yardstick.measure();
        attempted += rep.runs;
        failed += rep.failed;
        if rep.output != reference || rep.output.digest() != reference_digest {
            failed += rep.runs;
        }
        let wall = rep.wall * REFERENCE_S / (0.5 * (before + after));
        rates.push(rep.output.accesses() as f64 / wall);
        scaled.push(wall);
        walls.push(rep.wall);
        set_up(REFERENCE_S / after);
        before = yardstick.measure();
    }
    let metrics = vec![
        ("wall_s", median(&scaled), "s"),
        ("accesses_per_s", median(&rates), "1/s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    let note = format!(
        "{} timed repetitions, raw wall quartiles {:.4} {:.4} {:.4} s, reference run \
         {reference_s:.3} s, {} set-ups",
        walls.len(),
        quantile(&walls, 0.25),
        median(&walls),
        quantile(&walls, 0.75),
        setups.len(),
    );
    (metrics, attempted, failed, note)
}

fn facts_json(f: &Facts, args: &Args) -> String {
    let lane = args.workload.max_stations() * std::mem::size_of::<LowSensing>() as u64;
    let ratio = |cache: u64| {
        if cache == 0 {
            "null".to_string()
        } else {
            json_num(lane as f64 / cache as f64)
        }
    };
    format!(
        "{{\"facts\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"shards\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \
         \"state_lane_bytes\": {lane}, \"lane_over_l2\": {}, \"lane_over_l3\": {}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        f.nproc,
        match args.workload {
            Workload::MillionStation => 1,
            _ => workloads::SHARDS,
        },
        f.l2_bytes,
        f.l3_bytes,
        ratio(f.l2_bytes),
        ratio(f.l3_bytes),
        json_escape(&f.rustc),
        json_escape(&f.commit),
        f.source_digest,
    )
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit of `x` (`Display` prints the shortest
/// string that reads back as the same `f64`); non-finite values, which JSON
/// cannot hold, print as 0 and the run is marked incorrect by the caller.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("wall_s", 1.25, "s"), ("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(52739268.0), "52739268");
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn escapes_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c d");
    }
}
