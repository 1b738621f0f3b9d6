//! Operating modes of the perception system.

/// The two operating modes required by the project (Sec. II, requirement 3): a fully
/// functional low-latency mode while driving and a trigger-based low-power mode while
/// parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OperatingMode {
    /// Drive mode: every frame is analysed (detection + localization + tracking).
    #[default]
    Drive,
    /// Park mode: the always-on energy trigger gates the expensive stages; frames are
    /// only analysed after a wake-up.
    Park,
}

impl OperatingMode {
    /// Returns true if the expensive analysis runs on every frame.
    pub fn is_always_on(self) -> bool {
        matches!(self, OperatingMode::Drive)
    }

    /// Returns true if localization is performed in this mode. Park mode only performs
    /// detection after a trigger; localization (and tracking) is a drive-mode feature.
    pub fn localization_enabled(self) -> bool {
        matches!(self, OperatingMode::Drive)
    }

    /// Short lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            OperatingMode::Drive => "drive",
            OperatingMode::Park => "park",
        }
    }
}

impl std::fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_properties() {
        assert!(OperatingMode::Drive.is_always_on());
        assert!(!OperatingMode::Park.is_always_on());
        assert!(OperatingMode::Drive.localization_enabled());
        assert!(!OperatingMode::Park.localization_enabled());
        assert_eq!(OperatingMode::default(), OperatingMode::Drive);
        assert_eq!(OperatingMode::Park.to_string(), "park");
    }
}
