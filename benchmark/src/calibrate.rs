//! The calibrated clock of the end-to-end run.
//!
//! The reference box is a shared VM whose cores run 20–40 % slower for
//! seconds to minutes at a time (a neighbour on the same physical core),
//! so a wall time says as much about the neighbour as about the program.
//! The end-to-end run therefore interleaves a fixed *reference slice* —
//! about a millisecond of this file's own code, nothing of the
//! repository's — with the work it times: one slice after every round of
//! the closed loop, on the core the work ran on. A stretch of wall time is
//! reported as `wall × SLICE_NOMINAL_NS / slice`, with `slice` the mean of
//! the two readings that bracket the stretch: the time the stretch would
//! have taken had the reference slice run at its quiet-box speed. A change
//! to the program cannot move the slice, so a real gain or loss shows in
//! full; a slow core scales both and cancels.

use crate::clock::now_ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Grid side and wavefronts of one slice: ≈ 1 ms on the reference box.
const SIDE: usize = 48;
const WAVEFRONTS: usize = 4;

/// One slice on the quiet reference box (the lower decile of a long
/// run's readings). It only fixes the scale calibrated times are printed
/// in; comparisons between two runs do not depend on it.
pub const SLICE_NOMINAL_NS: f64 = 1_000_000.0;

/// What a slice must compute, so that an edit to the kernel — which would
/// silently rescale every calibrated time — is caught by `selftest`.
const SLICE_CHECKSUM_BITS: u64 = 0x4072_efa6_1d38_87ce;

const NEIGHBOURS: [(i32, i32); 8] = [
    (-1, 0),
    (1, 0),
    (0, -1),
    (0, 1),
    (-1, -1),
    (1, 1),
    (-1, 1),
    (1, -1),
];

/// The reference kernel: minimum-travel-time wavefronts over a small
/// raster with a binary heap and floating-point edge costs — the same
/// kind of work as a fire-spread evaluation (branchy, heap-bound, `f64`),
/// so a slowed core slows both alike. Buffers are allocated once.
struct Reference {
    cost: Vec<f64>,
    arrival: Vec<f64>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Reference {
    fn new() -> Reference {
        // xorshift64: the raster must not depend on anything outside this file.
        let mut s = 0x0123_4567_u64;
        let cost = (0..SIDE * SIDE)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                1.0 + (s % 1000) as f64 / 250.0
            })
            .collect();
        Reference {
            cost,
            arrival: vec![f64::INFINITY; SIDE * SIDE],
            heap: BinaryHeap::with_capacity(SIDE * SIDE),
        }
    }

    /// One slice of fixed work; the sum of the far corner's arrival times.
    fn slice(&mut self) -> f64 {
        let mut checksum = 0.0;
        for wavefront in 0..WAVEFRONTS {
            self.arrival.fill(f64::INFINITY);
            let ignition = (wavefront * 7919) % (SIDE * SIDE);
            self.arrival[ignition] = 0.0;
            self.heap.push(Reverse((0, ignition)));
            // Non-negative floats order like their bit patterns.
            while let Some(Reverse((bits, cell))) = self.heap.pop() {
                let at = f64::from_bits(bits);
                if at > self.arrival[cell] {
                    continue;
                }
                let (row, col) = ((cell / SIDE) as i32, (cell % SIDE) as i32);
                for (dr, dc) in NEIGHBOURS {
                    let (r, c) = (row + dr, col + dc);
                    if r < 0 || c < 0 || r >= SIDE as i32 || c >= SIDE as i32 {
                        continue;
                    }
                    let next = r as usize * SIDE + c as usize;
                    let distance = f64::from(dr * dr + dc * dc).sqrt();
                    let gust = 1.0 + 0.1 * (at * 0.01).sin().abs();
                    let reach = at + (self.cost[cell] + self.cost[next]) * 0.5 * distance * gust;
                    if reach < self.arrival[next] {
                        self.arrival[next] = reach;
                        self.heap.push(Reverse((reach.to_bits(), next)));
                    }
                }
            }
            checksum += self.arrival[SIDE * SIDE - 1];
        }
        checksum
    }
}

/// Takes the slices and turns them into scales.
pub struct Calibrator {
    /// `None`: the clock is left as it is (the traced run).
    reference: Option<Reference>,
    last_slice_ns: f64,
    /// Every reading, for the report.
    pub slices_ns: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with one reading taken (after one to warm the caches).
    pub fn on() -> Calibrator {
        let mut calibrator = Calibrator {
            reference: Some(Reference::new()),
            last_slice_ns: SLICE_NOMINAL_NS,
            slices_ns: Vec::new(),
        };
        calibrator.scale();
        calibrator.scale();
        calibrator.slices_ns.clear();
        calibrator
    }

    /// The identity: no slices, every scale 1.
    pub fn off() -> Calibrator {
        Calibrator {
            reference: None,
            last_slice_ns: SLICE_NOMINAL_NS,
            slices_ns: Vec::new(),
        }
    }

    /// Takes a reading and returns the scale of the stretch between the
    /// previous reading and this one.
    pub fn scale(&mut self) -> f64 {
        let Some(reference) = &mut self.reference else {
            return 1.0;
        };
        let start = now_ns();
        std::hint::black_box(reference.slice());
        let slice_ns = (now_ns() - start).max(1) as f64;
        let scale = SLICE_NOMINAL_NS / ((self.last_slice_ns + slice_ns) / 2.0);
        self.last_slice_ns = slice_ns;
        self.slices_ns.push(slice_ns);
        scale
    }
}

/// The stretches of one repetition, each with its scale: raw clock
/// readings in, calibrated nanoseconds since the repetition began out.
/// The slices between the stretches are not on the calibrated line.
#[derive(Default)]
pub struct Timeline {
    /// `(raw start, raw end, calibrated start, scale)`, ascending.
    stretches: Vec<(u64, u64, f64, f64)>,
}

impl Timeline {
    pub fn push(&mut self, start_ns: u64, end_ns: u64, scale: f64) {
        let at = self.total_ns();
        self.stretches.push((start_ns, end_ns, at, scale));
    }

    /// Calibrated length of the whole line.
    pub fn total_ns(&self) -> f64 {
        self.stretches
            .last()
            .map_or(0.0, |&(start, end, at, scale)| {
                at + (end - start) as f64 * scale
            })
    }

    /// Raw length of the stretches (slices excluded).
    pub fn raw_ns(&self) -> u64 {
        self.stretches.iter().map(|s| s.1 - s.0).sum()
    }

    /// The calibrated time of raw reading `t_ns`. A reading inside a slice
    /// (or past the end) maps to the end of the stretch before it.
    pub fn at(&self, t_ns: u64) -> f64 {
        let after = self.stretches.partition_point(|s| s.0 <= t_ns);
        let Some(&(start, end, at, scale)) = after.checked_sub(1).map(|i| &self.stretches[i])
        else {
            return 0.0;
        };
        at + (t_ns.min(end) - start) as f64 * scale
    }

    /// Calibrated milliseconds between two raw readings.
    pub fn ms_between(&self, from_ns: u64, to_ns: u64) -> f64 {
        (self.at(to_ns) - self.at(from_ns)) / 1e6
    }
}

/// Checks the timeline arithmetic on a hand-worked case and the kernel
/// against its recorded checksum; `selftest` and the unit tests run it.
pub fn self_check() -> Result<(), String> {
    let mut line = Timeline::default();
    line.push(100, 200, 2.0); // 100 raw → 200 calibrated
    line.push(250, 350, 0.5); // a 50-long slice, then 100 raw → 50 calibrated
    let expect = |what: &str, got: f64, want: f64| {
        (got == want)
            .then_some(())
            .ok_or(format!("{what}: got {got}, want {want}"))
    };
    expect("total", line.total_ns(), 250.0)?;
    expect("start", line.at(100), 0.0)?;
    expect("inside the first stretch", line.at(150), 100.0)?;
    expect("inside the slice", line.at(225), 200.0)?;
    expect("inside the second stretch", line.at(300), 225.0)?;
    expect("past the end", line.at(999), 250.0)?;
    expect("before the start", line.at(5), 0.0)?;
    expect("between", line.ms_between(150, 300), 125.0 / 1e6)?;
    if line.raw_ns() != 200 {
        return Err(format!("raw length {}, want 200", line.raw_ns()));
    }
    expect("identity scale", Calibrator::off().scale(), 1.0)?;

    let (first, again) = (Reference::new().slice(), Reference::new().slice());
    if first.to_bits() != again.to_bits() {
        return Err("the reference slice is not deterministic".into());
    }
    let mut reused = Reference::new();
    reused.slice();
    if reused.slice().to_bits() != first.to_bits() {
        return Err("the reference slice depends on the slice before it".into());
    }
    if first.to_bits() != SLICE_CHECKSUM_BITS {
        return Err(format!(
            "the reference kernel changed: checksum {:#018x}, recorded {SLICE_CHECKSUM_BITS:#018x} \
             (calibrated times of earlier runs no longer compare)",
            first.to_bits()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn timeline_arithmetic_and_reference_checksum() {
        super::self_check().unwrap();
    }
}
