//! Parallel Monte Carlo execution.
//!
//! Since the campaign layer landed, the workspace has exactly **one**
//! parallel executor: [`lowsense_campaign::pool`]. [`monte_carlo`] maps
//! the ad-hoc experiments' seeds (sweep points × seeds outside a full
//! campaign grid) over it with [`lowsense_campaign::shard_map`].

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

/// Runs `f(seed)` for `seeds` deterministic seeds derived from `base`, in
/// parallel, preserving seed order.
pub fn monte_carlo<T, F>(base: u64, seeds: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    // Spread seeds deterministically so sweep points don't share streams.
    let items: Vec<u64> = (0..seeds)
        .map(|i| base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
        .collect();
    lowsense_campaign::shard_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_carlo_is_deterministic() {
        let a = monte_carlo(7, 8, |s| s ^ 0xABCD);
        let b = monte_carlo(7, 8, |s| s ^ 0xABCD);
        assert_eq!(a, b);
        // Different bases give different seed sets.
        let c = monte_carlo(8, 8, |s| s ^ 0xABCD);
        assert_ne!(a, c);
    }

    #[test]
    fn scale_accessors() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
        assert!(Scale::Full.seeds() > Scale::Quick.seeds());
    }
}
