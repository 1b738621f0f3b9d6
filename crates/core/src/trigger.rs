//! Park-mode wake-up trigger.
//!
//! In park mode the expensive detection/localization stages are gated by a tiny
//! always-on energy detector: a one-pole smoothed frame energy compared against a
//! slowly adapting noise-floor estimate. This is the kind of trigger the paper's
//! requirement of a "trigger-based low-power parking mode" implies.

use ispot_dsp::level::signal_power;

/// Configuration of the [`EnergyTrigger`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerConfig {
    /// How many dB above the tracked noise floor a frame must be to fire.
    pub threshold_db: f64,
    /// Smoothing coefficient for the noise-floor tracker in `(0, 1)`; larger adapts
    /// more slowly.
    pub floor_smoothing: f64,
    /// Number of initial frames used to seed the noise floor before triggering is
    /// allowed.
    pub warmup_frames: usize,
}

impl Default for TriggerConfig {
    fn default() -> Self {
        TriggerConfig {
            threshold_db: 9.0,
            floor_smoothing: 0.98,
            warmup_frames: 5,
        }
    }
}

/// An adaptive frame-energy wake-up trigger.
///
/// # Example
///
/// ```
/// use ispot_core::trigger::EnergyTrigger;
///
/// let mut trigger = EnergyTrigger::default();
/// // Quiet frames establish the noise floor and do not fire.
/// for _ in 0..10 {
///     assert!(!trigger.process_frame(&vec![0.01; 512]));
/// }
/// // A loud frame fires the trigger.
/// assert!(trigger.process_frame(&vec![0.5; 512]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyTrigger {
    config: TriggerConfig,
    noise_floor: Option<f64>,
    frames_seen: usize,
    wakeups: usize,
}

impl Default for EnergyTrigger {
    fn default() -> Self {
        Self::new(TriggerConfig::default())
    }
}

impl EnergyTrigger {
    /// Creates a trigger with the given configuration.
    pub fn new(config: TriggerConfig) -> Self {
        EnergyTrigger {
            config,
            noise_floor: None,
            frames_seen: 0,
            wakeups: 0,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> TriggerConfig {
        self.config
    }

    /// Number of frames processed so far.
    pub fn frames_seen(&self) -> usize {
        self.frames_seen
    }

    /// Number of times the trigger has fired.
    pub fn wakeups(&self) -> usize {
        self.wakeups
    }

    /// Fraction of frames that fired the trigger (the park-mode duty cycle).
    pub fn duty_cycle(&self) -> f64 {
        if self.frames_seen == 0 {
            0.0
        } else {
            self.wakeups as f64 / self.frames_seen as f64
        }
    }

    /// Current noise-floor estimate (mean frame power), if initialized.
    pub fn noise_floor(&self) -> Option<f64> {
        self.noise_floor
    }

    /// Resets the trigger state.
    pub fn reset(&mut self) {
        self.noise_floor = None;
        self.frames_seen = 0;
        self.wakeups = 0;
    }

    /// Processes one frame and returns true if the expensive pipeline should wake up.
    pub fn process_frame(&mut self, frame: &[f64]) -> bool {
        let power = signal_power(frame).max(1e-12);
        self.frames_seen += 1;
        let floor = match self.noise_floor {
            None => {
                self.noise_floor = Some(power);
                return false;
            }
            Some(f) => f,
        };
        let fired = if self.frames_seen <= self.config.warmup_frames {
            false
        } else {
            10.0 * (power / floor).log10() > self.config.threshold_db
        };
        // Only adapt the floor on non-event frames so sustained sirens do not get
        // absorbed into the noise estimate.
        if !fired {
            let a = self.config.floor_smoothing.clamp(0.0, 0.9999);
            self.noise_floor = Some(a * floor + (1.0 - a) * power);
        }
        if fired {
            self.wakeups += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_dsp::generator::{NoiseKind, NoiseSource};

    #[test]
    fn quiet_background_does_not_fire() {
        let mut trigger = EnergyTrigger::default();
        let noise: Vec<f64> = NoiseSource::new(NoiseKind::White, 1)
            .take(512 * 50)
            .map(|x| x * 0.01)
            .collect();
        let mut fired = 0;
        for frame in noise.chunks(512) {
            if trigger.process_frame(frame) {
                fired += 1;
            }
        }
        assert_eq!(fired, 0);
        assert_eq!(trigger.duty_cycle(), 0.0);
    }

    #[test]
    fn loud_event_fires_and_duty_cycle_reflects_it() {
        let mut trigger = EnergyTrigger::default();
        // 40 quiet frames then 10 loud frames.
        for _ in 0..40 {
            trigger.process_frame(&vec![0.01; 512]);
        }
        let mut fired = 0;
        for _ in 0..10 {
            if trigger.process_frame(&vec![0.6; 512]) {
                fired += 1;
            }
        }
        assert!(fired >= 9, "only {fired} loud frames fired");
        assert!(trigger.duty_cycle() > 0.15 && trigger.duty_cycle() < 0.25);
        assert_eq!(trigger.frames_seen(), 50);
        assert!(trigger.noise_floor().unwrap() < 0.01);
    }

    #[test]
    fn floor_adapts_to_gradually_louder_background() {
        let mut trigger = EnergyTrigger::new(TriggerConfig {
            floor_smoothing: 0.9,
            ..TriggerConfig::default()
        });
        // Slowly increasing background (2 dB steps) should mostly not fire.
        let mut fired = 0;
        for i in 0..60 {
            let level = 0.01 * 10f64.powf(i as f64 * 0.01);
            if trigger.process_frame(&vec![level; 256]) {
                fired += 1;
            }
        }
        assert!(fired <= 2, "{fired} false wake-ups on a slow ramp");
    }

    #[test]
    fn reset_clears_state() {
        let mut trigger = EnergyTrigger::default();
        trigger.process_frame(&vec![0.5; 128]);
        trigger.reset();
        assert_eq!(trigger.frames_seen(), 0);
        assert_eq!(trigger.wakeups(), 0);
        assert!(trigger.noise_floor().is_none());
    }
}
