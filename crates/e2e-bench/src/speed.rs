//! A fixed CPU kernel owned by the benchmark, timed to read how fast
//! the host runs right now. On a shared 2-vCPU VM the speed switches
//! between two levels about 1.9× apart, each lasting seconds to
//! minutes, and a start of the server (1–11 ms of CPU work) moves with
//! it. `setup_s` rescales each start by readings taken just before and
//! just after it, so that a switch between two sets of runs does not
//! read as a regression, while work added to a start still does: the
//! kernel is not the program's code, so no change to the program moves
//! it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time in the host's fast state on the machine the
/// benchmark's bounds were set on: the speed `setup_s` is reported at.
pub const NOMINAL: Duration = Duration::from_micros(60);
/// Kernel runs per reading; the fastest is kept, so a preemption in one
/// run does not read as a slow host.
const REPS: usize = 5;
/// Channels in and out, and the side of the square input.
const CHANNELS: usize = 8;
const SIDE: usize = 16;

/// The kernel's inputs: a direct 3×3 convolution, `CHANNELS` to
/// `CHANNELS`, over a `SIDE`×`SIDE` image, summed after a ReLU.
#[derive(Debug)]
pub struct SpeedRef {
    image: Vec<f32>,
    filters: Vec<f32>,
}

impl Default for SpeedRef {
    fn default() -> Self {
        SpeedRef {
            image: (0..CHANNELS * SIDE * SIDE)
                .map(|i| ((i * 7919) % 97) as f32 * 0.01)
                .collect(),
            filters: (0..CHANNELS * CHANNELS * 9)
                .map(|i| ((i * 104_729) % 89) as f32 * 0.001)
                .collect(),
        }
    }
}

impl SpeedRef {
    fn kernel(&self) -> f32 {
        let (x, w) = (black_box(&self.image), black_box(&self.filters));
        let mut total = 0.0f32;
        for o in 0..CHANNELS {
            for r in 1..SIDE - 1 {
                for c in 1..SIDE - 1 {
                    let mut s = 0.0f32;
                    for i in 0..CHANNELS {
                        for dr in 0..3 {
                            for dc in 0..3 {
                                s += x[(i * SIDE + r + dr - 1) * SIDE + c + dc - 1]
                                    * w[((o * CHANNELS + i) * 3 + dr) * 3 + dc];
                            }
                        }
                    }
                    total += s.max(0.0);
                }
            }
        }
        total
    }

    /// The kernel's time at the host's current speed: the fastest of
    /// `REPS` runs.
    pub fn read(&self) -> Duration {
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.kernel());
                t.elapsed()
            })
            .min()
            .expect("REPS > 0")
    }
}

/// `took`, measured when the kernel read `reading`, rescaled to the
/// speed at which the kernel takes [`NOMINAL`], in seconds.
pub fn at_nominal(took: Duration, reading: Duration) -> f64 {
    took.as_secs_f64() * NOMINAL.as_secs_f64() / reading.as_secs_f64().max(1e-9)
}
