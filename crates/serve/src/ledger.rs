//! The certification ledger: completed-but-unreleased batches.
//!
//! A batch's outputs are only released to clients once a full clean
//! scrub cycle *started after the batch finished* (see
//! [`ScrubCursor`](crate::scrubber::ScrubCursor)). Until then the batch
//! waits here; a flagged scrub invalidates everything pending, because
//! any of it may have been computed on corrupted weights.

use std::collections::VecDeque;

/// Pending completed batches, ordered by finish stamp.
#[derive(Debug, Clone)]
pub struct CertificationLedger<T> {
    pending: VecDeque<(u64, T)>,
}

impl<T> Default for CertificationLedger<T> {
    fn default() -> Self {
        CertificationLedger {
            pending: VecDeque::new(),
        }
    }
}

impl<T> CertificationLedger<T> {
    /// Records a batch that finished at `finish`. Stamps must be
    /// non-decreasing across calls (batches are recorded as they
    /// complete on one clock).
    ///
    /// # Panics
    ///
    /// Panics when `finish` precedes the last recorded stamp.
    pub fn record(&mut self, finish: u64, batch: T) {
        if let Some(&(last, _)) = self.pending.back() {
            assert!(finish >= last, "ledger stamps must be monotone");
        }
        self.pending.push_back((finish, batch));
    }

    /// Releases every batch whose finish stamp is `<= watermark` (a
    /// clean cycle started at `watermark` proves them), each with its
    /// finish stamp — callers measuring certification hold time
    /// (`now − finish`) read it off the pair.
    pub fn certify_before(&mut self, watermark: u64) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        while let Some(&(finish, _)) = self.pending.front() {
            if finish > watermark {
                break;
            }
            out.push(self.pending.pop_front().unwrap());
        }
        out
    }

    /// Drains everything pending (a flagged scrub voids all of it).
    pub fn invalidate(&mut self) -> Vec<T> {
        self.pending.drain(..).map(|(_, b)| b).collect()
    }

    /// Number of pending batches.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certifies_only_up_to_watermark() {
        let mut l = CertificationLedger::default();
        l.record(10, "a");
        l.record(20, "b");
        l.record(30, "c");
        assert_eq!(l.certify_before(20), vec![(10, "a"), (20, "b")]);
        assert_eq!(l.len(), 1);
        assert_eq!(l.certify_before(19), Vec::<(u64, &str)>::new());
        assert_eq!(l.certify_before(30), vec![(30, "c")]);
        assert!(l.is_empty());
    }

    #[test]
    fn invalidate_drains_everything() {
        let mut l = CertificationLedger::default();
        l.record(1, 10u32);
        l.record(2, 20);
        assert_eq!(l.invalidate(), vec![10, 20]);
        assert!(l.is_empty());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_out_of_order_stamps() {
        let mut l = CertificationLedger::default();
        l.record(5, ());
        l.record(4, ());
    }
}
