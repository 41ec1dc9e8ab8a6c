//! `campaign` — run a canonical campaign sweep and emit its artifact.
//!
//! ```text
//! campaign faceoff                          # tiny face-off, all cores
//! campaign faceoff --shards 4               # explicit shard count
//! campaign faceoff --full                   # the T2-scale grid
//! campaign faceoff --seed 7 --out F.json    # artifact path (default
//!                                           # CAMPAIGN_<name>.json)
//! campaign feedback-grid                    # protocols × channel models
//! campaign feedback-grid --progress         # live cells/sec + ETA line
//! campaign faceoff --progress-json P.jsonl  # machine-readable progress
//! campaign --help                           # the usage line, exit 0
//! ```
//!
//! The artifact bytes are a pure function of `(campaign, scale, seed)` —
//! **not** of `--shards`, and not of the progress flags — which the CI
//! canary enforces by running the tiny face-off at 1 and 4 shards (and
//! with/without `--progress-json`) and failing on any byte difference.

use std::num::NonZeroUsize;

use lowsense_experiments::campaigns;
use lowsense_experiments::common::pow2_sweep;

/// The usage line: what `--help` prints, and bad input's error.
const USAGE: &str = "usage: campaign <faceoff|feedback-grid> [--shards N] [--seed S] \
                     [--out FILE] [--full] [--progress] [--progress-json FILE]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Reports an output path the process cannot write and exits with the
/// bad-input code.
fn unwritable(path: impl AsRef<std::path::Path>, err: std::io::Error) -> ! {
    eprintln!("campaign: cannot write {}: {err}", path.as_ref().display());
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut out: Option<String> = None;
    let mut full = false;
    let mut progress = lowsense_campaign::ProgressConfig::disabled();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--shards" => shards = Some(parse::<NonZeroUsize>(it.next()).get()),
            "--seed" => seed = parse(it.next()),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--full" => full = true,
            "--progress" => progress.stderr = true,
            "--progress-json" => progress.jsonl = Some(it.next().unwrap_or_else(|| usage()).into()),
            "faceoff" | "feedback-grid" if name.is_none() => name = Some(arg),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };

    let spec = match (name.as_str(), full) {
        ("faceoff", true) => campaigns::faceoff_spec(&pow2_sweep(6, 15), 12, seed),
        ("faceoff", false) => campaigns::faceoff_small_spec(seed),
        ("feedback-grid", true) => campaigns::feedback_grid_spec(1 << 10, 8, seed),
        ("feedback-grid", false) => campaigns::feedback_grid_small_spec(seed),
        _ => usage(),
    };
    let shards = shards.unwrap_or_else(lowsense_campaign::pool::default_shards);
    eprintln!(
        "campaign {}: {} cells × {} replicates on {} shard(s), seed {}",
        spec.name(),
        spec.cell_count(),
        spec.unit_count() / spec.cell_count().max(1),
        shards,
        seed
    );
    // Opening the progress JSONL sink is the only way this fails.
    let result = spec
        .run_sharded_progress(shards, &progress)
        .unwrap_or_else(|e| unwritable(progress.jsonl.unwrap_or_default(), e));
    print!("{}", result.render());
    let path = out.unwrap_or_else(|| format!("CAMPAIGN_{}.json", result.name));
    result
        .write_json(&path)
        .unwrap_or_else(|e| unwritable(&path, e));
    eprintln!("campaign: wrote {path}");
}
