//! Machine-readable campaign artifacts (`CAMPAIGN_<name>.json`) and the
//! human-readable table.
//!
//! The JSON is schema-versioned (`lowsense-campaign/2` — `/2` added the
//! top-level `models` axis and the per-cell `model` key) like
//! `BENCH_engine.json`, and is emitted by a deterministic hand-rolled
//! writer: keys in fixed order, strings and floats through the workspace's
//! shared JSON helpers [`esc`] and [`num`] (floats in Rust's shortest
//! round-trip form) — so the artifact bytes are a pure function of the
//! [`CampaignResult`], which in turn is a pure function of the spec
//! (including across shard counts; the CI canary diffs 1-shard vs 4-shard
//! bytes). Deliberately **absent** from the artifact: shard count, timing,
//! host — anything that would vary across equivalent executions.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use lowsense_obs::json::{esc, num};
use lowsense_stats::Welford;

use crate::exec::{CampaignResult, CellReport};
use crate::table::{Cell, Table};

/// Schema tag of the JSON artifact.
pub const SCHEMA: &str = "lowsense-campaign/2";

/// `{"n": …, "mean": …, "sd": …, "se": …, "min": …, "max": …}` of a
/// Welford accumulator (degenerate zeros when empty).
fn welford_json(w: &Welford) -> String {
    let s = w.summary();
    format!(
        "{{ \"n\": {}, \"mean\": {}, \"sd\": {}, \"se\": {}, \"min\": {}, \"max\": {} }}",
        s.n,
        num(s.mean),
        num(s.sd),
        num(s.se),
        num(s.min),
        num(s.max)
    )
}

fn cell_json(cell: &CellReport, out: &mut String) {
    let s = &cell.stats;
    let _ = write!(
        out,
        "    {{\n      \"cell_index\": {}, \"scenario\": \"{}\", \"protocol\": \"{}\", \
         \"model\": \"{}\",\n",
        cell.cell_index,
        esc(&cell.scenario),
        esc(&cell.protocol),
        esc(&cell.model)
    );
    let knobs: Vec<String> = cell
        .knobs
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", esc(k), num(*v)))
        .collect();
    let _ = writeln!(out, "      \"knobs\": {{ {} }},", knobs.join(", "));
    let _ = writeln!(
        out,
        "      \"runs\": {}, \"totals\": {{ \"arrivals\": {}, \"successes\": {}, \
         \"active_slots\": {}, \"jammed_active\": {}, \"sends\": {}, \"listens\": {}, \
         \"overhead_slots\": {}, \"max_backlog\": {} }},",
        s.runs,
        s.arrivals,
        s.successes,
        s.active_slots,
        s.jammed_active,
        s.sends,
        s.listens,
        s.overhead_slots,
        s.max_backlog
    );
    let _ = writeln!(
        out,
        "      \"throughput\": {},",
        welford_json(&s.throughput)
    );
    let acc = s.accesses.summary();
    let _ = writeln!(
        out,
        "      \"accesses\": {{ \"n\": {}, \"mean\": {}, \"sd\": {}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {} }},",
        acc.n,
        num(acc.mean),
        num(acc.sd),
        num(acc.min),
        num(acc.max),
        num(s.access_sketch.quantile(0.5)),
        num(s.access_sketch.quantile(0.9)),
        num(s.access_sketch.quantile(0.99))
    );
    // Nonzero histogram rows as [lower_edge, count] pairs (the upper edge
    // is the next row's lower edge; the tail bucket's is open).
    let rows: Vec<String> = s
        .access_hist
        .buckets()
        .filter(|(_, _, c)| *c > 0)
        .map(|(lo, _, c)| format!("[{}, {}]", num(lo), c))
        .collect();
    let _ = writeln!(out, "      \"access_hist\": [{}],", rows.join(", "));
    let metrics: Vec<String> = s
        .metrics
        .iter()
        .map(|(name, w)| format!("\"{}\": {}", esc(name), welford_json(w)))
        .collect();
    let _ = write!(
        out,
        "      \"metrics\": {{ {} }}\n    }}",
        metrics.join(", ")
    );
}

impl CampaignResult {
    /// Renders the schema-versioned JSON artifact (see the
    /// [module docs](self) for the determinism contract).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"name\": \"{}\",", esc(&self.name));
        let _ = writeln!(
            out,
            "  \"campaign_seed\": {}, \"replicates\": {},",
            self.seed, self.replicates
        );
        let axis = |labels: &[String]| -> String {
            labels
                .iter()
                .map(|l| format!("\"{}\"", esc(l)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "  \"scenarios\": [{}],", axis(&self.scenarios));
        let _ = writeln!(out, "  \"protocols\": [{}],", axis(&self.protocols));
        let _ = writeln!(out, "  \"models\": [{}],", axis(&self.models));
        let _ = writeln!(out, "  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            cell_json(cell, &mut out);
            let _ = writeln!(out, "{}", if i + 1 == self.cells.len() { "" } else { "," });
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes [`to_json`](CampaignResult::to_json) to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Renders an aligned human-readable [`Table`]: one row per cell with
    /// the headline statistics.
    pub fn render(&self) -> String {
        // The model column only appears when the campaign had a model
        // axis, so plain sweeps render exactly as before.
        let with_models = !self.models.is_empty();
        let mut columns = vec!["scenario", "protocol"];
        if with_models {
            columns.push("model");
        }
        columns.extend([
            "runs", "thr.mean", "thr.se", "acc.mean", "acc.p50", "acc.p99", "acc.max",
        ]);
        let mut table = Table::new(
            format!("campaign {}", self.name),
            format!("seed {}, {} replicates/cell", self.seed, self.replicates),
        )
        .columns(columns);
        for cell in &self.cells {
            let s = &cell.stats;
            let thr = s.throughput.summary();
            let acc = s.accesses.summary();
            let mut row = vec![Cell::text(&cell.scenario), Cell::text(&cell.protocol)];
            if with_models {
                row.push(Cell::text(&cell.model));
            }
            row.extend([
                Cell::UInt(s.runs),
                Cell::Float(thr.mean, 3),
                Cell::Float(thr.se, 3),
                Cell::Float(acc.mean, 1),
                Cell::Float(s.access_sketch.quantile(0.5), 0),
                Cell::Float(s.access_sketch.quantile(0.99), 0),
                Cell::Float(acc.max, 0),
            ]);
            table.row(row);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The committed `CAMPAIGN_*.json` bytes depend on these rules, so the
    // artifact pins them on its side of the shared helpers.
    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("tab\there"), "tab\\u0009here");
    }

    #[test]
    fn num_formats_deterministically() {
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        let mut w = Welford::new();
        w.push(3.0);
        w.push(3.0);
        assert_eq!(
            welford_json(&w),
            "{ \"n\": 2, \"mean\": 3, \"sd\": 0, \"se\": 0, \"min\": 3, \"max\": 3 }"
        );
    }
}
