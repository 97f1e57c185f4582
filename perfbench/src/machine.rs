//! The machine-speed reference that end-to-end times are scaled by.
//!
//! On a shared VM the same code runs up to half again as slowly for
//! minutes at a time: neighbours on the socket lower the clock and evict
//! the shared L3. A run of `--seconds` cannot average such a phase out,
//! so ten seeds run one after another spread by more than the
//! benchmark's bounds. The reference is a fixed kernel owned by the
//! benchmark, timed right after every pass. Dividing a pass's times by
//! the reference's slowdown (and multiplying its rates) reports them at
//! the speed of a quiet machine. A change to the program moves the pass,
//! not the reference, so its gain or loss shows in full.

use std::hint::black_box;
use std::time::Instant;

/// The reference's two parts on a quiet 2-core Intel Xeon VM: about the
/// fastest tenth of their samples. Only the ratio of the measured times
/// to these matters when two commits are compared.
const ALU_NOMINAL_S: f64 = 0.002_9;
const CHASE_NOMINAL_S: f64 = 0.022;

/// Integer mixing over a buffer that stays in a core's L2: tracks clock
/// speed.
const ALU_WORDS: usize = 1 << 17;
const ALU_ROUNDS: usize = 48;
/// Dependent loads through a random cycle larger than L2: tracks the
/// latency of the shared cache and memory.
const CHASE_ENTRIES: usize = 1 << 21;
const CHASE_STEPS: usize = 1 << 18;

/// The reference kernel's data, built once per run.
pub struct Reference {
    words: Vec<u64>,
    cycle: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the kernel's data from a fixed seed.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let words = (0..ALU_WORDS).map(|_| next()).collect();
        // Sattolo's shuffle: one cycle through every entry.
        let mut cycle: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        for i in (1..CHASE_ENTRIES).rev() {
            let j = (next() % i as u64) as usize;
            cycle.swap(i, j);
        }
        Reference { words, cycle }
    }

    /// Times the kernel once and returns how much slower the machine is
    /// than the quiet reference: 1.0 at nominal speed, 1.3 when 30%
    /// slower. The geometric mean of the two parts' ratios.
    pub fn slowdown(&self) -> f64 {
        let start = Instant::now();
        let mut lanes = [1u64, 2, 3, 4];
        for _ in 0..ALU_ROUNDS {
            for w in self.words.chunks_exact(4) {
                for (lane, word) in lanes.iter_mut().zip(w) {
                    *lane = (*lane ^ word).wrapping_mul(0x100_0000_01b3).rotate_left(29);
                }
            }
        }
        black_box(lanes);
        let alu = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.cycle[at as usize];
        }
        black_box(at);
        let chase = start.elapsed().as_secs_f64();

        (alu / ALU_NOMINAL_S * chase / CHASE_NOMINAL_S).sqrt()
    }
}

/// `value` of an end-to-end metric in `unit`, measured while the machine
/// ran `slowdown` times slower than the reference, at reference speed:
/// times shrink, rates grow, other units are left as they are.
pub fn at_reference_speed(unit: &str, value: f64, slowdown: f64) -> f64 {
    match unit {
        "s" => value / slowdown,
        "1/s" | "MB/s" => value * slowdown,
        _ => value,
    }
}
