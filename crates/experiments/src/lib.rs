//! # lowsense-experiments — the reproduction harness
//!
//! Every theorem of the paper is reproduced as a table (sweep) or figure
//! (trajectory); ids (`T1`–`T9`, `F2`–`F6`, `A1`–`A5`, `X1`–`X2`) match the
//! per-experiment index in `docs/PAPER_MAP.md`. Run them all with
//!
//! ```text
//! cargo run --release -p lowsense-experiments --bin repro -- all
//! ```
//!
//! or a subset with `repro t2 t4 f3`, at reduced scale with `--quick`, and
//! export CSVs with `--csv <dir>`.
//!
//! ```
//! use lowsense_experiments::{registry, Scale};
//!
//! let f3 = registry().into_iter().find(|e| e.id == "F3").unwrap();
//! let tables = (f3.run)(Scale::Quick);
//! assert!(!tables.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaigns;
pub mod common;
pub mod exp;
pub mod runner;

pub use lowsense_campaign::table;
pub use runner::Scale;
pub use table::{Cell, Table};

/// A registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Index id (`T1`, `F3`, `A2`, …).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The paper artifact it reproduces.
    pub claim: &'static str,
    /// Entry point.
    pub run: fn(Scale) -> Vec<Table>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

/// All experiments, in index order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "T1",
            title: "implicit throughput over time",
            claim: "Theorem 1.3 / Corollary 5.21",
            run: exp::t1::run,
        },
        Experiment {
            id: "T2",
            title: "overall throughput vs N, all baselines",
            claim: "Corollary 1.4 + §1 BEB O(1/ln N)",
            run: exp::t2::run,
        },
        Experiment {
            id: "T3",
            title: "bounded backlog under adversarial queuing",
            claim: "Corollary 1.5",
            run: exp::t3::run,
        },
        Experiment {
            id: "T4",
            title: "per-packet accesses, finite streams",
            claim: "Theorem 1.6 / 5.25",
            run: exp::t4::run,
        },
        Experiment {
            id: "T5",
            title: "per-packet accesses, adversarial queuing",
            claim: "Theorem 1.7 / 5.27",
            run: exp::t5::run,
        },
        Experiment {
            id: "T6",
            title: "per-packet accesses, infinite streams",
            claim: "Theorem 1.8 / 5.29",
            run: exp::t6::run,
        },
        Experiment {
            id: "T7",
            title: "reactive targeted jamming energy",
            claim: "Theorem 1.9(1) / 5.26",
            run: exp::t7::run,
        },
        Experiment {
            id: "T8",
            title: "reactive DoS + adversarial queuing",
            claim: "Theorem 1.9(2) / 5.28",
            run: exp::t8::run,
        },
        Experiment {
            id: "T9",
            title: "reactive adversary vs exponential backoff",
            claim: "§1.3 O(1/T) collapse",
            run: exp::t9::run,
        },
        Experiment {
            id: "F2",
            title: "potential drift per interval",
            claim: "Theorem 5.18",
            run: exp::f2::run,
        },
        Experiment {
            id: "F3",
            title: "slot probabilities vs contention",
            claim: "Lemmas 5.1–5.3",
            run: exp::f3::run,
        },
        Experiment {
            id: "F4",
            title: "herd trajectory of a batch",
            claim: "§4 dynamics, w_max = O(Φ ln²Φ)",
            run: exp::f4::run,
        },
        Experiment {
            id: "F5",
            title: "batch makespan per packet",
            claim: "Corollary 1.4 (Θ(N) makespan)",
            run: exp::f5::run,
        },
        Experiment {
            id: "F6",
            title: "energy split: sends vs listens vs CJP",
            claim: "full energy efficiency (title claim)",
            run: exp::f6::run,
        },
        Experiment {
            id: "A1",
            title: "ablation: constant c",
            claim: "design choice (§3)",
            run: exp::a1::run,
        },
        Experiment {
            id: "A2",
            title: "ablation: listening exponent ln^k",
            claim: "design choice (§3, Lemma 5.9)",
            run: exp::a2::run,
        },
        Experiment {
            id: "A3",
            title: "ablation: gentle vs constant-factor updates",
            claim: "design choice (§3)",
            run: exp::a3::run,
        },
        Experiment {
            id: "A4",
            title: "ablation: send/listen coin coupling",
            claim: "design choice (§5.6 remark)",
            run: exp::a4::run,
        },
        Experiment {
            id: "A5",
            title: "ablation: minimum window w_min",
            claim: "design choice (§3)",
            run: exp::a5::run,
        },
        Experiment {
            id: "X1",
            title: "extension: latency fairness",
            claim: "§6 open problem (no fairness guarantee)",
            run: exp::x1::run,
        },
        Experiment {
            id: "X2",
            title: "extension: wake-up latency (first success)",
            claim: "§2 wake-up problem context",
            run: exp::x2::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let reg = registry();
        assert_eq!(reg.len(), 21);
        let ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
        assert_eq!(ids[0], "T1");
        assert_eq!(*ids.last().unwrap(), "X2");
    }
}
