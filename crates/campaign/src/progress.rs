//! Live campaign progress: a bounded channel from the shard workers to a
//! reporter thread.
//!
//! # Determinism argument
//!
//! Progress reporting must never be able to change a campaign's artifact,
//! so the worker side is write-only and content-free: after a unit's
//! [`CellStats`](crate::cell::CellStats) is already final, the wrapped
//! job sends one `UnitDone` — the unit *index* plus its wall time —
//! down a bounded [`sync_channel`] and moves on. No statistic crosses the
//! channel, no worker reads anything back, and the fold path is the same
//! `shard_map_with` + left-to-right replicate merge as
//! [`run_sharded`](crate::spec::CampaignSpec::run_sharded). The reporter
//! thread owns all presentation state (completion counts, the Welford of
//! unit wall times behind the ETA, the JSONL writer), and since events
//! arrive in nondeterministic shard order it assigns its own monotone
//! `seq` — consumers sort or group by the index fields, never by arrival.
//! Wall-time fields are real measurements and therefore nondeterministic;
//! they exist only in the progress stream, which is why the artifact
//! bytes stay identical with the reporter on or off (pinned by the CI
//! canary).

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;
use std::time::Instant;

use lowsense_obs::json::esc;
use lowsense_stats::Welford;

/// Schema tag stamped on the progress JSONL header record.
pub const PROGRESS_SCHEMA: &str = "lowsense-campaign-progress/1";

/// Capacity of the worker → reporter channel. Far larger than any
/// realistic in-flight burst; if the reporter ever falls this far behind,
/// workers block briefly rather than ballooning memory.
const CHANNEL_BOUND: usize = 4096;

/// Where progress should go.
#[derive(Debug, Clone, Default)]
pub struct ProgressConfig {
    /// Render a live one-line progress display on stderr.
    pub stderr: bool,
    /// Append machine-readable progress records to this JSONL file.
    pub jsonl: Option<PathBuf>,
}

impl ProgressConfig {
    /// No reporting: execution is exactly
    /// [`run_sharded`](crate::spec::CampaignSpec::run_sharded).
    pub fn disabled() -> Self {
        ProgressConfig::default()
    }

    /// Whether any sink is configured.
    pub fn enabled(&self) -> bool {
        self.stderr || self.jsonl.is_some()
    }
}

/// One completed `(cell, replicate)` unit, worker → reporter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitDone {
    /// Unit index (`cell * replicates + replicate`).
    pub unit: usize,
    /// Wall time the unit took on its shard, in seconds.
    pub wall_secs: f64,
}

/// Static campaign facts the reporter needs for rendering.
#[derive(Debug, Clone)]
pub(crate) struct ProgressMeta {
    pub campaign: String,
    pub cells: usize,
    pub replicates: usize,
    pub shards: usize,
}

impl ProgressMeta {
    fn units(&self) -> usize {
        self.cells * self.replicates
    }
}

/// The reporter half: a spawned thread draining [`UnitDone`] events.
///
/// Dropping every [`SyncSender`] clone ends the stream; [`Reporter::finish`]
/// then joins the thread once the JSONL footer is written.
pub(crate) struct Reporter {
    tx: SyncSender<UnitDone>,
    handle: thread::JoinHandle<()>,
}

impl Reporter {
    /// Spawns the reporter. Opens the JSONL sink eagerly so configuration
    /// errors surface before any work runs.
    pub fn spawn(meta: ProgressMeta, cfg: &ProgressConfig) -> io::Result<Reporter> {
        let out = match &cfg.jsonl {
            Some(path) => Some(BufWriter::new(File::create(path)?)),
            None => None,
        };
        let stderr = cfg.stderr;
        let (tx, rx) = sync_channel(CHANNEL_BOUND);
        let handle = thread::Builder::new()
            .name("campaign-progress".into())
            .spawn(move || report(rx, meta, out, stderr))
            .expect("spawn progress reporter");
        Ok(Reporter { tx, handle })
    }

    /// A sender for worker threads (cheap to clone, `Sync` to share).
    pub fn sender(&self) -> SyncSender<UnitDone> {
        self.tx.clone()
    }

    /// Drops the reporter's own sender and joins the thread. Call after
    /// every worker-side sender is gone.
    pub fn finish(self) {
        drop(self.tx);
        self.handle.join().expect("progress reporter panicked")
    }
}

/// The reporter loop: drains events until every sender hangs up.
fn report(
    rx: Receiver<UnitDone>,
    meta: ProgressMeta,
    mut out: Option<BufWriter<File>>,
    stderr: bool,
) {
    let start = Instant::now();
    let units_total = meta.units();
    let mut seq: u64 = 0;
    let mut units_done: usize = 0;
    let mut cells_done: usize = 0;
    let mut remaining: Vec<usize> = vec![meta.replicates; meta.cells];
    let mut wall = Welford::new();

    if let Some(w) = out.as_mut() {
        let _ = writeln!(
            w,
            "{{\"schema\":\"{PROGRESS_SCHEMA}\",\"campaign\":\"{}\",\"cells\":{},\
             \"replicates\":{},\"units\":{},\"shards\":{}}}",
            esc(&meta.campaign),
            meta.cells,
            meta.replicates,
            units_total,
            meta.shards,
        );
    }

    while let Ok(ev) = rx.recv() {
        seq += 1;
        units_done += 1;
        wall.push(ev.wall_secs);
        let cell = ev.unit / meta.replicates;
        let replicate = ev.unit % meta.replicates;
        let cell_finished = {
            remaining[cell] -= 1;
            remaining[cell] == 0
        };
        if cell_finished {
            cells_done += 1;
        }
        if let Some(w) = out.as_mut() {
            let _ = writeln!(
                w,
                "{{\"t\":\"unit\",\"seq\":{seq},\"unit\":{},\"cell\":{cell},\
                 \"replicate\":{replicate},\"wall_ms\":{:.3}}}",
                ev.unit,
                ev.wall_secs * 1e3,
            );
            if cell_finished {
                let _ = writeln!(
                    w,
                    "{{\"t\":\"cell\",\"seq\":{seq},\"cell\":{cell},\
                     \"done\":{cells_done},\"total\":{}}}",
                    meta.cells,
                );
            }
        }
        if stderr {
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            let cells_per_sec = cells_done as f64 / elapsed;
            // ETA: mean unit wall time spread over the shard pool. The
            // pool runs ~shards units concurrently, so remaining wall
            // clock ≈ remaining units · mean / shards.
            let eta = (units_total - units_done) as f64 * wall.mean() / meta.shards.max(1) as f64;
            eprint!(
                "\r{}: cells {}/{} · units {}/{} · {:.2} cells/s · ETA {:.1}s   ",
                meta.campaign, cells_done, meta.cells, units_done, units_total, cells_per_sec, eta,
            );
        }
    }

    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let cells_per_sec = cells_done as f64 / elapsed;
    if let Some(w) = out.as_mut() {
        let _ = writeln!(
            w,
            "{{\"t\":\"done\",\"done\":{cells_done},\"total\":{},\"units\":{units_done},\
             \"elapsed_ms\":{:.3},\"wall_mean_ms\":{:.3},\"cells_per_sec\":{:.3}}}",
            meta.cells,
            elapsed * 1e3,
            wall.mean() * 1e3,
            cells_per_sec,
        );
        let _ = w.flush();
    }
    if stderr {
        eprintln!(
            "\r{}: {} cells in {:.1}s ({:.2} cells/s)                    ",
            meta.campaign, cells_done, elapsed, cells_per_sec
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(cells: usize, replicates: usize) -> ProgressMeta {
        ProgressMeta {
            campaign: "t".into(),
            cells,
            replicates,
            shards: 2,
        }
    }

    #[test]
    fn disabled_config_reports_nothing_enabled() {
        assert!(!ProgressConfig::disabled().enabled());
        assert!(ProgressConfig {
            stderr: true,
            jsonl: None
        }
        .enabled());
    }

    /// Runs a reporter that writes JSONL to a file named after `tag`, feeds
    /// it one event per entry of `units`, and returns the stream's lines.
    fn jsonl_lines(tag: &str, meta: ProgressMeta, units: &[usize], wall_secs: f64) -> Vec<String> {
        let dir = std::env::temp_dir().join("lowsense_progress_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
        let cfg = ProgressConfig {
            stderr: false,
            jsonl: Some(path.clone()),
        };
        let rep = Reporter::spawn(meta, &cfg).unwrap();
        let tx = rep.sender();
        for &unit in units {
            tx.send(UnitDone { unit, wall_secs }).unwrap();
        }
        drop(tx);
        rep.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text.lines().map(str::to_owned).collect()
    }

    #[test]
    fn reporter_counts_units_and_cells() {
        // Arbitrary arrival order: indices, not order, drive the counts.
        let lines = jsonl_lines("counts", meta(2, 2), &[3, 0, 2, 1], 0.001);
        // 4 unit records; units 2 and 1 complete cells 1 and 0 => 2 cell
        // records, then the footer.
        assert_eq!(lines.len(), 1 + 4 + 2 + 1);
        for unit in 0..4 {
            let tag = format!("\"unit\":{unit},");
            assert_eq!(
                lines.iter().filter(|l| l.contains(&tag)).count(),
                1,
                "{tag}"
            );
        }
        let cells: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"t\":\"cell\""))
            .collect();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].contains("\"cell\":1,\"done\":1,\"total\":2"));
        assert!(cells[1].contains("\"cell\":0,\"done\":2,\"total\":2"));
        let footer = lines.last().unwrap();
        assert!(footer.contains("\"done\":2,\"total\":2,\"units\":4"));
        let rate = footer
            .split("\"cells_per_sec\":")
            .nth(1)
            .and_then(|v| v.trim_end_matches('}').parse::<f64>().ok())
            .unwrap();
        assert!(rate > 0.0);
    }

    #[test]
    fn jsonl_stream_has_header_units_cells_footer() {
        let lines = jsonl_lines("stream", meta(2, 1), &[1, 0], 0.5);
        assert!(lines[0].contains("\"schema\":\"lowsense-campaign-progress/1\""));
        assert!(lines[0].contains("\"units\":2"));
        // 2 unit records, each completing its 1-replicate cell => 2 cell
        // records, then the footer.
        assert_eq!(lines.len(), 1 + 2 + 2 + 1);
        assert!(lines[1].contains("\"t\":\"unit\"") && lines[1].contains("\"seq\":1"));
        assert!(lines[2].contains("\"t\":\"cell\"") && lines[2].contains("\"done\":1"));
        let footer = lines.last().unwrap();
        assert!(footer.contains("\"t\":\"done\""));
        assert!(footer.contains("\"done\":2,\"total\":2"));
    }

    #[test]
    fn jsonl_open_failure_surfaces_before_any_work() {
        let cfg = ProgressConfig {
            stderr: false,
            jsonl: Some(PathBuf::from("/nonexistent-dir/progress.jsonl")),
        };
        assert!(Reporter::spawn(meta(1, 1), &cfg).is_err());
    }
}
