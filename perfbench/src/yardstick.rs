//! A fixed piece of benchmark-owned work that measures how fast the
//! machine is running right now.
//!
//! The development box is a virtual machine whose speed drifts with the
//! load of other tenants on its host, by 10–40% over tens of seconds to
//! minutes. Timing this yardstick beside every repetition and scaling the
//! repetition's wall time by `REFERENCE_S / yardstick` turns a wall time
//! into the time the repetition would have taken at the yardstick's
//! reference speed. The yardstick never touches the program, so a change to
//! the program moves the scaled time exactly as it moves the raw time.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the random-read table: 16 MiB, past L2 and inside L3, like
/// the workloads' hot state.
const TABLE_LEN: usize = 4 << 20;
/// Dependent random reads per measurement.
const READS: usize = 1 << 17;
/// Arithmetic steps per measurement.
const STEPS: usize = 1 << 21;
/// Yardstick seconds on the development box at its quiet speed; scaled
/// times read as seconds at that speed.
pub const REFERENCE_S: f64 = 0.02;

/// The yardstick's table, built once per process.
pub struct Yardstick {
    table: Vec<u32>,
}

impl Yardstick {
    /// Builds the random-read table.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x = xorshift(x);
                (x % TABLE_LEN as u64) as u32
            })
            .collect();
        Yardstick { table }
    }

    /// Seconds the fixed work takes now on each of the workloads' two
    /// worker threads, averaged: a campaign's pool runs on both cores, and
    /// either one can be the slow one.
    pub fn measure(&self) -> f64 {
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| self.pass());
            let here = self.pass();
            (here, other.join().expect("yardstick thread panicked"))
        });
        0.5 * (a + b)
    }

    /// Seconds one pass of the fixed work takes on this thread: a chain of
    /// dependent random reads over the table, then a chain of integer and
    /// floating-point steps.
    fn pass(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0usize;
        for i in 0..READS {
            at = (self.table[at] as usize) ^ (i & 0xff);
        }
        let mut x = black_box(at as u64) | 1;
        let mut acc = 0.0f64;
        for _ in 0..STEPS {
            x = xorshift(x);
            acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_indices_stay_in_range() {
        let y = Yardstick::new();
        assert_eq!(y.table.len(), TABLE_LEN);
        assert!(y.table.iter().all(|&i| (i as usize) < TABLE_LEN));
    }

    #[test]
    fn measurement_is_positive_and_repeatable_in_order_of_magnitude() {
        let y = Yardstick::new();
        let a = y.measure();
        let b = y.measure();
        assert!(a > 0.0 && b > 0.0);
        assert!(a / b < 10.0 && b / a < 10.0, "{a} vs {b}");
    }
}
