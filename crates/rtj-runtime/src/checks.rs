//! Check modes.

/// How the RTSJ dynamic checks are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// RTSJ mode: run every reference/assignment check and charge its cost
    /// on the virtual clock. This is the baseline the paper's Figure 12
    /// measures against.
    #[default]
    Dynamic,
    /// Statically-checked mode: the program was accepted by the ownership/
    /// region type system, so the checks are elided entirely — zero cost.
    Static,
    /// Verification mode: run every check at **zero** cost and report any
    /// failure. Used by the soundness test-suite to confirm that well-typed
    /// programs never fail a check (Theorems 3 and 4).
    Audit,
}

impl CheckMode {
    /// Whether the checks' logic runs at all.
    pub fn checks_run(self) -> bool {
        !matches!(self, CheckMode::Static)
    }

    /// Whether the checks' cost is charged on the clock.
    pub fn checks_charged(self) -> bool {
        matches!(self, CheckMode::Dynamic)
    }

    /// Stable lower-case name used in metrics snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            CheckMode::Dynamic => "dynamic",
            CheckMode::Static => "static",
            CheckMode::Audit => "audit",
        }
    }

    /// Parses a [`CheckMode::name`] back.
    pub fn parse(name: &str) -> Option<CheckMode> {
        match name {
            "dynamic" => Some(CheckMode::Dynamic),
            "static" => Some(CheckMode::Static),
            "audit" => Some(CheckMode::Audit),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(CheckMode::Dynamic.checks_run());
        assert!(CheckMode::Dynamic.checks_charged());
        assert!(!CheckMode::Static.checks_run());
        assert!(!CheckMode::Static.checks_charged());
        assert!(CheckMode::Audit.checks_run());
        assert!(!CheckMode::Audit.checks_charged());
    }

    #[test]
    fn mode_names_roundtrip() {
        for m in [CheckMode::Dynamic, CheckMode::Static, CheckMode::Audit] {
            assert_eq!(CheckMode::parse(m.name()), Some(m));
        }
        assert_eq!(CheckMode::parse("bogus"), None);
    }
}
