//! Search strategies: how a [`SearchSpec`](crate::SearchSpec) walks
//! its candidate space. All three are deterministic — exhaustive by
//! construction, random from a fixed seed, beam by breadth-first
//! expansion with stable tie-breaks.

/// How to walk the mapping space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Score every candidate in the space (the default; small spaces
    /// are cheap because scoring is closed-form).
    #[default]
    Exhaustive,
    /// Score a seeded random sample without replacement; the same seed
    /// always picks the same candidates.
    Random {
        /// RNG seed.
        seed: u64,
        /// Candidates to draw (clamped to the space size).
        samples: usize,
    },
    /// Start from the heuristic mapper's named point and repeatedly
    /// expand single-knob neighbors, keeping the `width` best scored
    /// candidates, for at most `rounds` rounds (stops early when no
    /// unvisited neighbor remains).
    Beam {
        /// Beam width (candidates kept per round).
        width: usize,
        /// Maximum expansion rounds.
        rounds: usize,
    },
}

impl Strategy {
    /// Stable label for reports (`exhaustive`, `random[seed=.. n=..]`,
    /// `beam[w=.. r=..]`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Strategy::Exhaustive => "exhaustive".to_owned(),
            Strategy::Random { seed, samples } => format!("random[seed={seed} n={samples}]"),
            Strategy::Beam { width, rounds } => format!("beam[w={width} r={rounds}]"),
        }
    }
}
