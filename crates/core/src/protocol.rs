//! Protocol selection: TreadMarks overlap modes and AURC variants.

/// The six TreadMarks configurations of §5.1 (Figures 5–10).
///
/// `Base` and `P` assume **no** protocol controller (all protocol work on
/// the computation processor); the other four run basic protocol actions on
/// the per-node controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlapMode {
    /// Standard non-overlapping TreadMarks.
    Base,
    /// Basic protocol actions offloaded to the controller.
    I,
    /// Offload plus hardware (bit-vector DMA) diffs.
    ID,
    /// Standard TreadMarks plus diff prefetching (no controller).
    P,
    /// Offload plus prefetching (software diffs on the controller).
    IP,
    /// All three techniques combined.
    IPD,
}

impl OverlapMode {
    /// All modes in the paper's left-to-right plotting order.
    pub const ALL: [OverlapMode; 6] = [
        OverlapMode::Base,
        OverlapMode::I,
        OverlapMode::ID,
        OverlapMode::P,
        OverlapMode::IP,
        OverlapMode::IPD,
    ];

    /// Whether a protocol controller offloads basic protocol actions.
    pub fn offload(self) -> bool {
        matches!(
            self,
            OverlapMode::I | OverlapMode::ID | OverlapMode::IP | OverlapMode::IPD
        )
    }

    /// Whether diffs are generated/applied by the bit-vector DMA engine
    /// (which also eliminates twins).
    pub fn hw_diffs(self) -> bool {
        matches!(self, OverlapMode::ID | OverlapMode::IPD)
    }

    /// Whether diff prefetching is enabled.
    pub fn prefetch(self) -> bool {
        matches!(self, OverlapMode::P | OverlapMode::IP | OverlapMode::IPD)
    }

    /// The paper's label for the mode.
    pub fn label(self) -> &'static str {
        match self {
            OverlapMode::Base => "Base",
            OverlapMode::I => "I",
            OverlapMode::ID => "I+D",
            OverlapMode::P => "P",
            OverlapMode::IP => "I+P",
            OverlapMode::IPD => "I+P+D",
        }
    }
}

/// Which software DSM runs on the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TreadMarks under one of the six overlap modes.
    TreadMarks(OverlapMode),
    /// Automatic-update release consistency (Shrimp-style), optionally with
    /// page prefetching (the paper's AURC and AURC+P).
    Aurc {
        /// Enable the acquire-time page-prefetch heuristic.
        prefetch: bool,
    },
}

impl Protocol {
    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::TreadMarks(m) => m.label(),
            Protocol::Aurc { prefetch: false } => "AURC",
            Protocol::Aurc { prefetch: true } => "AURC+P",
        }
    }

    /// Whether this configuration includes a per-node protocol controller.
    pub fn has_controller(self) -> bool {
        match self {
            Protocol::TreadMarks(m) => m.offload(),
            Protocol::Aurc { .. } => false,
        }
    }

    /// Whether acquire-time prefetching is active.
    pub fn prefetch(self) -> bool {
        match self {
            Protocol::TreadMarks(m) => m.prefetch(),
            Protocol::Aurc { prefetch } => prefetch,
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_feature_matrix() {
        use OverlapMode::*;
        let rows = [
            (Base, false, false, false),
            (I, true, false, false),
            (ID, true, true, false),
            (P, false, false, true),
            (IP, true, false, true),
            (IPD, true, true, true),
        ];
        for (m, offload, hw, pf) in rows {
            assert_eq!(m.offload(), offload, "{m:?} offload");
            assert_eq!(m.hw_diffs(), hw, "{m:?} hw_diffs");
            assert_eq!(m.prefetch(), pf, "{m:?} prefetch");
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = OverlapMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["Base", "I", "I+D", "P", "I+P", "I+P+D"]);
        assert_eq!(Protocol::Aurc { prefetch: true }.label(), "AURC+P");
        assert_eq!(format!("{}", Protocol::TreadMarks(OverlapMode::ID)), "I+D");
    }

    #[test]
    fn aurc_has_no_controller() {
        assert!(!Protocol::Aurc { prefetch: false }.has_controller());
        assert!(Protocol::TreadMarks(OverlapMode::IPD).has_controller());
        assert!(!Protocol::TreadMarks(OverlapMode::P).has_controller());
    }
}
