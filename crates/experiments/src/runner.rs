//! Experiment scale.
//!
//! Every experiment that runs the engine over seeds sweeps a
//! [`CampaignSpec`](lowsense_campaign::CampaignSpec) grid with
//! [`Scale::seeds`] replicates per cell, on the workspace's one parallel
//! executor ([`lowsense_campaign::pool`]).

/// Experiment scale: `Quick` for benches and smoke runs, `Full` for the
/// `repro` binary's paper-scale sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweeps and seed counts (seconds per experiment).
    Quick,
    /// Paper-scale sweeps (tens of seconds to minutes per experiment).
    Full,
}

impl Scale {
    /// Number of independent seeds per configuration.
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 4,
            Scale::Full => 12,
        }
    }

    /// Picks `quick` or `full` depending on the scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accessors() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
        assert!(Scale::Full.seeds() > Scale::Quick.seeds());
    }
}
