//! Classification metrics for the detection task.

use crate::error::SedError;
use crate::labels::EventClass;
use std::fmt;

/// A confusion matrix and the derived metrics for the 5-class detection task.
///
/// # Example
///
/// ```
/// use ispot_sed::{labels::EventClass, metrics::ClassificationReport};
///
/// # fn main() -> Result<(), ispot_sed::SedError> {
/// let truth = vec![EventClass::CarHorn, EventClass::Background];
/// let pred = vec![EventClass::CarHorn, EventClass::CarHorn];
/// let report = ClassificationReport::from_predictions(&truth, &pred)?;
/// assert_eq!(report.accuracy(), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationReport {
    /// `confusion[t][p]` counts samples of true class `t` predicted as class `p`.
    confusion: [[usize; EventClass::COUNT]; EventClass::COUNT],
    total: usize,
}

impl ClassificationReport {
    /// Builds a report from parallel slices of ground truth and predictions.
    ///
    /// # Errors
    ///
    /// Returns an error if the slices are empty or differ in length.
    pub fn from_predictions(
        truth: &[EventClass],
        predictions: &[EventClass],
    ) -> Result<Self, SedError> {
        if truth.is_empty() {
            return Err(SedError::EmptyDataset);
        }
        if truth.len() != predictions.len() {
            return Err(SedError::invalid_config(
                "predictions",
                format!(
                    "expected {} predictions, got {}",
                    truth.len(),
                    predictions.len()
                ),
            ));
        }
        let mut confusion = [[0usize; EventClass::COUNT]; EventClass::COUNT];
        for (t, p) in truth.iter().zip(predictions) {
            confusion[t.index()][p.index()] += 1;
        }
        Ok(ClassificationReport {
            confusion,
            total: truth.len(),
        })
    }

    /// Raw confusion matrix (`[true][predicted]`).
    pub fn confusion_matrix(&self) -> &[[usize; EventClass::COUNT]; EventClass::COUNT] {
        &self.confusion
    }

    /// Number of scored samples.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..EventClass::COUNT).map(|i| self.confusion[i][i]).sum();
        correct as f64 / self.total.max(1) as f64
    }

    /// Precision for one class (1.0 when the class was never predicted).
    pub fn precision(&self, class: EventClass) -> f64 {
        let p = class.index();
        let tp = self.confusion[p][p];
        let predicted: usize = (0..EventClass::COUNT).map(|t| self.confusion[t][p]).sum();
        if predicted == 0 {
            1.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall for one class (1.0 when the class never occurs in the ground truth).
    pub fn recall(&self, class: EventClass) -> f64 {
        let t = class.index();
        let tp = self.confusion[t][t];
        let actual: usize = self.confusion[t].iter().sum();
        if actual == 0 {
            1.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 score for one class.
    pub fn f1(&self, class: EventClass) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged F1 over the classes that actually occur in the ground truth.
    pub fn macro_f1(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0;
        for class in EventClass::ALL {
            let occurs: usize = self.confusion[class.index()].iter().sum();
            if occurs > 0 {
                sum += self.f1(class);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Binary event-detection accuracy: every siren/horn class collapsed to "event",
    /// background to "no event". This is the figure of merit used when comparing the
    /// CNN against the classical energy detector.
    pub fn event_detection_accuracy(&self) -> f64 {
        let mut correct = 0usize;
        for t in 0..EventClass::COUNT {
            for p in 0..EventClass::COUNT {
                let truth_event = EventClass::ALL[t].is_event();
                let pred_event = EventClass::ALL[p].is_event();
                if truth_event == pred_event {
                    correct += self.confusion[t][p];
                }
            }
        }
        correct as f64 / self.total.max(1) as f64
    }

    /// Binary event counts `(tp, fp, fn)` with every siren/horn class collapsed to
    /// "event" and background to "no event".
    fn event_counts(&self) -> (usize, usize, usize) {
        let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
        for t in 0..EventClass::COUNT {
            for p in 0..EventClass::COUNT {
                let truth_event = EventClass::ALL[t].is_event();
                let pred_event = EventClass::ALL[p].is_event();
                match (truth_event, pred_event) {
                    (true, true) => tp += self.confusion[t][p],
                    (false, true) => fp += self.confusion[t][p],
                    (true, false) => fn_ += self.confusion[t][p],
                    (false, false) => {}
                }
            }
        }
        (tp, fp, fn_)
    }

    /// Binary event precision: of the frames flagged as an event (any siren/horn
    /// class), the fraction whose ground truth is an event. 1.0 when nothing was
    /// flagged.
    pub fn event_precision(&self) -> f64 {
        let (tp, fp, _) = self.event_counts();
        if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        }
    }

    /// Binary event recall: of the ground-truth event frames, the fraction flagged
    /// as an event of any class. 1.0 when no event frames occur.
    pub fn event_recall(&self) -> f64 {
        let (tp, _, fn_) = self.event_counts();
        if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        }
    }

    /// Binary event-detection F1: harmonic mean of [`event_precision`] and
    /// [`event_recall`]. This is the per-scene detection figure reported by the
    /// scenario evaluation harness, where "did we flag the siren at all" matters
    /// before "which siren was it".
    ///
    /// [`event_precision`]: ClassificationReport::event_precision
    /// [`event_recall`]: ClassificationReport::event_recall
    pub fn event_f1(&self) -> f64 {
        let p = self.event_precision();
        let r = self.event_recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl fmt::Display for ClassificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "accuracy: {:.3}  macro-F1: {:.3}  event-detection: {:.3}",
            self.accuracy(),
            self.macro_f1(),
            self.event_detection_accuracy()
        )?;
        writeln!(f, "{:>12} | precision  recall  f1", "class")?;
        for class in EventClass::ALL {
            writeln!(
                f,
                "{:>12} |   {:.3}     {:.3}   {:.3}",
                class.label(),
                self.precision(class),
                self.recall(class),
                self.f1(class)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_give_perfect_metrics() {
        let truth: Vec<EventClass> = EventClass::ALL.iter().copied().cycle().take(20).collect();
        let report = ClassificationReport::from_predictions(&truth, &truth).unwrap();
        assert_eq!(report.accuracy(), 1.0);
        assert_eq!(report.macro_f1(), 1.0);
        assert_eq!(report.event_detection_accuracy(), 1.0);
        for class in EventClass::ALL {
            assert_eq!(report.precision(class), 1.0);
            assert_eq!(report.recall(class), 1.0);
        }
    }

    #[test]
    fn known_confusion_matrix_metrics() {
        // 3 horns: 2 correct, 1 predicted background; 1 background predicted horn.
        let truth = vec![
            EventClass::CarHorn,
            EventClass::CarHorn,
            EventClass::CarHorn,
            EventClass::Background,
        ];
        let pred = vec![
            EventClass::CarHorn,
            EventClass::CarHorn,
            EventClass::Background,
            EventClass::CarHorn,
        ];
        let r = ClassificationReport::from_predictions(&truth, &pred).unwrap();
        assert_eq!(r.accuracy(), 0.5);
        assert!((r.recall(EventClass::CarHorn) - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.precision(EventClass::CarHorn) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.recall(EventClass::Background), 0.0);
        assert_eq!(r.event_detection_accuracy(), 0.5);
        assert_eq!(r.total(), 4);
    }

    #[test]
    fn event_detection_ignores_between_event_confusions() {
        // Predicting "wail" for a "yelp" is wrong classification but correct detection.
        let truth = vec![EventClass::YelpSiren, EventClass::Background];
        let pred = vec![EventClass::WailSiren, EventClass::Background];
        let r = ClassificationReport::from_predictions(&truth, &pred).unwrap();
        assert_eq!(r.accuracy(), 0.5);
        assert_eq!(r.event_detection_accuracy(), 1.0);
        assert_eq!(r.event_f1(), 1.0);
    }

    #[test]
    fn event_f1_from_known_counts() {
        // Truth: 4 event frames, 2 background. Predictions: 3 of the events flagged
        // (one as the wrong siren — still a detection), 1 missed, 1 background
        // false-flagged. tp = 3, fp = 1, fn = 1.
        let truth = vec![
            EventClass::WailSiren,
            EventClass::WailSiren,
            EventClass::YelpSiren,
            EventClass::CarHorn,
            EventClass::Background,
            EventClass::Background,
        ];
        let pred = vec![
            EventClass::WailSiren,
            EventClass::HiLowSiren,
            EventClass::Background,
            EventClass::CarHorn,
            EventClass::CarHorn,
            EventClass::Background,
        ];
        let r = ClassificationReport::from_predictions(&truth, &pred).unwrap();
        assert!((r.event_precision() - 0.75).abs() < 1e-12);
        assert!((r.event_recall() - 0.75).abs() < 1e-12);
        assert!((r.event_f1() - 0.75).abs() < 1e-12);
        // All-background truth and predictions: vacuous success, not a divide-by-zero.
        let quiet = vec![EventClass::Background; 3];
        let r = ClassificationReport::from_predictions(&quiet, &quiet).unwrap();
        assert_eq!(r.event_precision(), 1.0);
        assert_eq!(r.event_recall(), 1.0);
        assert_eq!(r.event_f1(), 1.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(ClassificationReport::from_predictions(&[], &[]).is_err());
        assert!(ClassificationReport::from_predictions(
            &[EventClass::CarHorn],
            &[EventClass::CarHorn, EventClass::Background]
        )
        .is_err());
    }

    #[test]
    fn display_contains_all_class_labels() {
        let truth = vec![EventClass::CarHorn, EventClass::Background];
        let r = ClassificationReport::from_predictions(&truth, &truth).unwrap();
        let text = r.to_string();
        for class in EventClass::ALL {
            assert!(text.contains(class.label()));
        }
    }
}
