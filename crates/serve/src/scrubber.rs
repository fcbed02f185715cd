//! Incremental scrub scheduling: which layers to check each tick, and
//! when a full clean sweep (a *certification cycle*) completes.
//!
//! The cursor walks the checkable layers in fixed chunks. A cycle is
//! the window from the first chunk of a sweep to the last; when every
//! tick of a cycle came back clean, everything that finished **before
//! the cycle started** is proven to have run on clean weights — faults
//! are monotone (corruption persists until recovery), so a later clean
//! check of every layer implies the weights were clean at any earlier
//! instant since the last recovery.

/// Chunked sweep position over the checkable layers.
#[derive(Debug, Clone)]
pub struct ScrubCursor {
    layers: Vec<usize>,
    chunk: usize,
    pos: usize,
    cycle_started_at: u64,
    cycle_flagged: bool,
}

impl ScrubCursor {
    /// Creates a cursor over `layers` (ascending checkable indices),
    /// checking `layers_per_tick` of them per tick. A chunk at least as
    /// large as `layers` (up to `usize::MAX`) sweeps them all every
    /// tick, so each clean tick is a whole cycle.
    ///
    /// # Panics
    ///
    /// Panics when `layers` is empty or `layers_per_tick == 0`.
    pub fn new(layers: Vec<usize>, layers_per_tick: usize) -> Self {
        assert!(!layers.is_empty(), "nothing to scrub");
        assert!(layers_per_tick > 0, "need at least one layer per tick");
        ScrubCursor {
            layers,
            chunk: layers_per_tick,
            pos: 0,
            cycle_started_at: 0,
            cycle_flagged: false,
        }
    }

    /// The layer chunk to check this tick. The first chunk of a sweep
    /// stamps the cycle start at `now`.
    pub fn begin_tick(&mut self, now: u64) -> Vec<usize> {
        if self.pos == 0 {
            self.cycle_started_at = now;
            self.cycle_flagged = false;
        }
        let end = self.pos.saturating_add(self.chunk).min(self.layers.len());
        self.layers[self.pos..end].to_vec()
    }

    /// Records the tick's detection result. Returns `Some(cycle_start)`
    /// when this tick completed a full sweep with no layer flagged —
    /// the certification watermark for work finished before
    /// `cycle_start`.
    pub fn finish_tick(&mut self, flagged: bool) -> Option<u64> {
        self.cycle_flagged |= flagged;
        self.pos = self.pos.saturating_add(self.chunk).min(self.layers.len());
        if self.pos >= self.layers.len() {
            self.pos = 0;
            if !self.cycle_flagged {
                return Some(self.cycle_started_at);
            }
        }
        None
    }

    /// Abandons the in-progress sweep (quarantine recovery invalidates
    /// its partial evidence); the next tick starts a fresh cycle.
    pub fn reset(&mut self) {
        self.pos = 0;
        self.cycle_flagged = false;
    }

    /// Ticks per full sweep.
    pub fn ticks_per_cycle(&self) -> usize {
        self.layers.len().div_ceil(self.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_layers_and_wrap() {
        let mut c = ScrubCursor::new(vec![0, 1, 4, 5, 8], 2);
        assert_eq!(c.ticks_per_cycle(), 3);
        assert_eq!(c.begin_tick(10), vec![0, 1]);
        assert_eq!(c.finish_tick(false), None);
        assert_eq!(c.begin_tick(20), vec![4, 5]);
        assert_eq!(c.finish_tick(false), None);
        assert_eq!(c.begin_tick(30), vec![8]);
        // Clean sweep completes: watermark is the cycle start.
        assert_eq!(c.finish_tick(false), Some(10));
        // Next sweep restamps.
        assert_eq!(c.begin_tick(40), vec![0, 1]);
    }

    #[test]
    fn a_whole_sweep_chunk_certifies_every_clean_tick_at_its_start() {
        for chunk in [5, 6, usize::MAX] {
            let mut c = ScrubCursor::new(vec![0, 1, 4, 5, 8], chunk);
            assert_eq!(c.ticks_per_cycle(), 1, "chunk {chunk}");
            for start in [10, 20, 30] {
                assert_eq!(c.begin_tick(start), vec![0, 1, 4, 5, 8], "chunk {chunk}");
                assert_eq!(c.finish_tick(false), Some(start), "chunk {chunk}");
            }
            // A flagged tick certifies nothing; the next clean one does.
            c.begin_tick(40);
            assert_eq!(c.finish_tick(true), None, "chunk {chunk}");
            c.begin_tick(50);
            assert_eq!(c.finish_tick(false), Some(50), "chunk {chunk}");
        }
    }

    #[test]
    fn flagged_tick_poisons_the_cycle() {
        let mut c = ScrubCursor::new(vec![0, 1], 1);
        c.begin_tick(5);
        assert_eq!(c.finish_tick(true), None);
        c.begin_tick(7);
        // Sweep completes but was flagged: no watermark.
        assert_eq!(c.finish_tick(false), None);
        // A fully clean sweep afterwards certifies.
        c.begin_tick(9);
        c.finish_tick(false);
        c.begin_tick(11);
        assert_eq!(c.finish_tick(false), Some(9));
    }

    #[test]
    fn reset_restarts_the_sweep() {
        let mut c = ScrubCursor::new(vec![0, 1, 2], 2);
        c.begin_tick(1);
        c.finish_tick(false);
        c.reset();
        assert_eq!(c.begin_tick(50), vec![0, 1]);
        c.finish_tick(false);
        assert_eq!(c.begin_tick(60), vec![2]);
        assert_eq!(c.finish_tick(false), Some(50));
    }

    #[test]
    #[should_panic(expected = "nothing to scrub")]
    fn rejects_empty_layer_set() {
        ScrubCursor::new(vec![], 1);
    }
}
